"""Hot inner loop: the implicit Euler sweep.

The time-stepping loop has a hard sequential dependence, so per-step
overhead dominates once the mode count is small. ``euler_sweep`` is the
one sweep, and ``solver._solve_block`` its one caller, behind endpoints,
trajectories, the studies and the regularity estimators: it advances one
sample (an (N,) state) or a block of samples (an (N, S) state) and keeps
only the states at the step indices a caller asks for. For one sample
its loop performs the same operations, in the same order, as a plain
per-step loop of its step expressions (the ones in its docstring, for F
= sin the folded step below); a block turns each matrix-vector product
into a matrix-matrix product, whose results can differ from the
per-sample ones in the last bits. A one-column block, (N, 1), runs its
F_SIN products on two copies of the column, because BLAS runs a
one-column product as gemv, whose bits differ from the gemm of wider
blocks: so a sample swept alone in a block has the bits of its column in
a two-sample block (tested at N = 8, 64 and 511). Everything here is
plain numpy (``BACKEND``). The F = 0 endpoint is also a fixed linear map
of each mode's increments (``solver.linear_weights``), which the
mild-solution oracle and the exact moments contract with the increments
instead of sweeping.

Nonlinearity codes: F_ZERO, F_SCALED (u -> scale*u in coefficients), and
two forms of F = sin by collocation on the interior sine grid, whose
values are sqrt(N+1) S x for the dense symmetric DST-I matrix S. F_SIN
multiplies by two dense matrices (O(N^2) per product) that carry the
step's constants: ``sin_in`` = sqrt(N+1) S and ``sin_out`` =
(tau/sqrt(N+1)) diag(step_factor) S, built once per rung by
``solver._sweep_setup``, so that a step is x <- step_factor * (x + dW) +
sin_out @ sin(sin_in @ x). That tracks the unfolded step step_factor *
(x + tau (S @ sin(sqrt(N+1) S @ x)) / sqrt(N+1) + dW) to rounding, not
bit for bit (tested within 1e-13 relative over 2^12 steps at N = 8, 64
and 511). F_SIN_FFT runs that unfolded step with the orthonormal DST-I
as numpy's ``rfft`` of length 2(N+1) (O(N log N), no matrix; ``_Dst1``);
folding its constants saved under 2% there (32.8 against 32.3 ms per 200
steps at (512, 8)), so it keeps the unfolded step. The two forms agree
to rounding (tested within 1e-12 relative). The FFT form equals
``scipy.fft.dst(type=1, norm="ortho")`` bit for bit: both run
pocketfft's real FFT of the odd extension and scale by 1/sqrt(2(N+1))
computed in long double, so numpy alone carries the transform and no
run imports scipy.
``solver._sweep_setup`` picks F_SIN_FFT at N >= ``_FAST_SINE_MIN_MODES``
= 512 and F_SIN below it; the kind is fixed per sweep, so no step
branches on N. Measured per step on one thread (2-vCPU VM whose speed
swings up to 1.7x, numpy 2.4, numpy's DST-I; best of five sweeps, ranges
over three runs), the unfolded dense step, which folding made 2-6%
faster at N = 256, against the fast one: 26-32 against 88-138 us at N =
256, 126-169 against 53-61 us at N = 512, 747-766 against 98-124 us at N
= 1024, 25.6-25.7 against 0.89-0.92 ms at N = 4096. An FFT of length
2(N+1) is slow where N+1 has a large prime factor: below 512 the dense
step wins at most sizes; from 512 the fast step wins at most sizes,
loses at a few up to 613 (N = 520, 572, 600: 127-140 against 201-255 us
at N = 520, 230-247 against 247-306 us at N = 600), and won at every
size checked from 614 to 699 and at 1021, 1031, 2039 and 4093 (that scan
ran scipy's DST-I, the same FFT). The studies run N = 512 and 4096.

Every sweep works in place on state buffers allocated once per call,
each kind only those it reads, with the step factor, tau (F_SCALED and
F_SIN_FFT) and sqrt(N+1) (F_SIN_FFT) broadcast once to the state's
shape: a ufunc takes an array operand faster than a Python float, and
the product or quotient has the same bits. Each kind runs its own lean
loop over the segment's increment rows, ufuncs with positional ``out``
and no helper call per step, and performs the same operations in the
same order as the per-step expressions in its docstring, so the buffers
change no bits and a block sweep equals the plain per-step block loop
bit for bit. At the block shape of the regularity suite, (64, 8) with
F = sin, the work of a step is two ``np.dot`` calls and one ``np.sin``;
the rest is per-call overhead, which the lean loop trims. Measured per
step on one thread (same VM and numpy; median of 21 alternating runs of
16 sweeps of 256 steps, ranges over three such runs), a loop of the
same operations with two helper calls per step and Python-float
operands against the lean one: 12.4-16.0 against 11.5-13.8
us at (64, 8) with F = sin, 162-176 against 153-174 us at (512, 8) with
the FFT form, whose transform dominates its step. Folding F_SIN's
constants into its matrices leaves three ufuncs per step where the
unfolded step ran seven (its np.sin of 512 values, about 6 us, is not
SIMD-dispatched in this numpy): unfolded against folded, 12.0-20.9
against 10.2-17.9 us per step at (64, 8), each run's ratio 0.83-0.86
(same protocol and VM).
"""

import math

import numpy as np

BACKEND = "numpy"

F_ZERO = 0
F_SCALED = 1
F_SIN = 2
F_SIN_FFT = 3

# Smallest mode count at which the F = sin sweep runs F_SIN_FFT.
_FAST_SINE_MIN_MODES = 512


def euler_sweep(x0, step_factor, tau, dw_scaled, f_kind, f_scale, sin_in,
                sin_out, stops):
    """Run implicit Euler steps, returning the states at steps ``stops``.

    x0 is (N,) for one sample or (N, S) for a block of S samples, and
    dw_scaled is (M, N) or (M, N, S): row m holds phi_n * dW_{n,m}. Per
    step: x <- step_factor * (x + tau*F(x) + dW), F explicit. F_SIN reads
    the (N, N) matrices sin_in = sqrt(N+1) S and sin_out =
    (tau/sqrt(N+1)) diag(step_factor) S, S the sine matrix, and steps
    x <- step_factor * (x + dW) + sin_out @ sin(sin_in @ x); the other
    kinds take None for both; an (N, 1) state runs F_SIN's products on
    two copies of its column. ``stops`` are nondecreasing step indices
    in [0, M]; the result stacks the state after each of them (step 0 is
    x0) into a (len(stops),) + x0.shape array. The loop runs segment by
    segment between stops.
    """
    stops = [int(k) for k in stops]
    if any(b < a for a, b in zip(stops, stops[1:])) or (
            stops and not 0 <= stops[0] <= stops[-1] <= dw_scaled.shape[0]):
        raise ValueError(f"stops must be nondecreasing in [0, "
                         f"{dw_scaled.shape[0]}], got {stops}")
    if f_kind not in (F_ZERO, F_SCALED, F_SIN, F_SIN_FFT):
        raise ValueError(f"unknown nonlinearity code {f_kind}")
    n = x0.shape[0]
    if f_kind == F_SIN and any(np.shape(mat) != (n, n)
                               for mat in (sin_in, sin_out)):
        raise ValueError(f"F = sin needs ({n}, {n}) sine matrices, got "
                         f"{np.shape(sin_in)} and {np.shape(sin_out)}")
    x = x0.copy()
    if f_kind == F_SIN and x.shape[1:] == (1,):
        # BLAS runs a one-column product as gemv, whose bits differ from
        # a wider block's gemm: sweep the column twice
        x = np.repeat(x, 2, axis=1)
    kept = x[:, :1] if x.shape != x0.shape else x
    factor = np.broadcast_to(
        step_factor.reshape((-1,) + (1,) * (x.ndim - 1)), x.shape).copy()
    if f_kind != F_ZERO:
        fx = np.empty_like(x)
    if f_kind in (F_SCALED, F_SIN_FFT):
        tau_x = np.full(x.shape, tau)
    if f_kind in (F_SIN, F_SIN_FFT):
        u = np.empty_like(x)
    if f_kind == F_SIN_FFT:
        scale = np.full(x.shape, math.sqrt(n + 1))
        dst = _Dst1(n, x.shape[1:])
        head = dst.head
    add, multiply, divide, dot, sin = (np.add, np.multiply, np.divide,
                                       np.dot, np.sin)
    out = np.empty((len(stops),) + x0.shape)
    start = 0
    for i, stop in enumerate(stops):
        rows = dw_scaled[start:stop]
        if f_kind == F_ZERO:
            for dw in rows:
                add(x, dw, x)
                multiply(factor, x, x)
        elif f_kind == F_SCALED:
            for dw in rows:
                multiply(f_scale, x, fx)
                multiply(tau_x, fx, fx)
                add(x, fx, fx)
                add(fx, dw, fx)
                multiply(factor, fx, x)
        elif f_kind == F_SIN:
            for dw in rows:
                dot(sin_in, x, u)
                sin(u, u)
                dot(sin_out, u, fx)
                add(x, dw, x)
                multiply(factor, x, x)
                add(x, fx, x)
        else:
            for dw in rows:
                np.copyto(head, x)
                dst(u)
                multiply(scale, u, u)
                sin(u, head)
                dst(fx)
                divide(fx, scale, fx)
                multiply(tau_x, fx, fx)
                add(x, fx, fx)
                add(fx, dw, fx)
                multiply(factor, fx, x)
        out[i] = kept
        start = stop
    return out


class _Dst1:
    """Orthonormal DST-I of length n along axis 0, on reusable buffers.

    ``sine_matrix(n) @ x`` in O(n log n): the caller writes x into
    ``head``, rows 1..n of a zero-bordered (2n+2,) + tail buffer, and a
    call mirrors it oddly into rows n+2.., runs numpy's ``rfft`` along
    axis 0 into a kept spectrum buffer, and writes -c times the
    imaginary parts of bins 1..n into ``out``. c = 1/sqrt(2(n+1)) is
    computed in long double, as pocketfft computes scipy's orthonormal
    scale; in double, the last bits differ from scipy's at some n
    (n = 13 is one).
    """

    def __init__(self, n, tail):
        ext = np.zeros((2 * n + 2,) + tail)
        spec = np.empty((n + 2,) + tail, dtype=complex)
        self.head = ext[1:n + 1]
        self._reversed, self._tail = self.head[::-1], ext[n + 2:]
        self._ext, self._spec = ext, spec
        self._bins = spec.imag[1:n + 1]
        self._factor = -float(1 / np.sqrt(np.longdouble(2 * (n + 1))))

    def __call__(self, out):
        np.negative(self._reversed, self._tail)
        np.fft.rfft(self._ext, axis=0, out=self._spec)
        return np.multiply(self._bins, self._factor, out)


def _dst1(x, axis=0):
    """Orthonormal DST-I along ``axis``: sine_matrix(N) @ x in O(N log N)."""
    x = np.moveaxis(np.asarray(x, dtype=float), axis, 0)
    dst = _Dst1(x.shape[0], x.shape[1:])
    dst.head[...] = x
    return np.moveaxis(dst(np.empty(x.shape)), 0, axis)

