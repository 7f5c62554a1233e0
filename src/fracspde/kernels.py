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

Nonlinearity codes: F_ZERO, and two forms of F = sin by collocation on
the interior sine grid, whose values are sqrt(N+1) S x for the dense
symmetric DST-I matrix S. Code 1 is retired: it was F = u -> s u, which
no command ran. Both F = sin forms fold the step's constants into two
factors, so that a step is x <- step_factor * (x + dW) + out(sin(in(x))),
and ``solver._sweep_setup`` builds both factors once per rung of a block
and picks the form; the sweep only steps. F_SIN multiplies by two dense
matrices (O(N^2) per product): ``sin_in`` = sqrt(N+1) S and ``sin_out``
= (tau/sqrt(N+1)) diag(step_factor) S. F_SIN_FFT (O(N log N), no matrix)
runs S x as numpy's ``rfft`` of length 2(N+1): with x in rows 1..N of a
zero-tailed buffer, the imaginary parts of bins 1..N are half those of
x's odd extension, -S x / (2c) with c = 1/sqrt(2(N+1)) the DST-I's
scale (``spectral._dst1_scale``). So its step is x <- step_factor * (x +
dW) + G * Im(rfft(sin(A * Im(rfft(x))))), with the scalar ``sin_in`` =
A = (-2c) sqrt(N+1) and the (N,) ``sin_out`` = G = ((-2c) tau /
sqrt(N+1)) step_factor. Each form
tracks the unfolded step step_factor * (x + tau (S @ sin(sqrt(N+1) S @
x)) / sqrt(N+1) + dW) to rounding, not bit for bit (tested within 1e-13
relative over 2^12 steps: the dense form at N = 8, 64 and 511, the fast
one against scipy's DST-I at N = 512, 520 and 1024), and the two forms
agree to rounding (tested within 1e-12 relative). Where the forms switch,
and the per-step timings behind it, is ``solver._FAST_SINE_MIN_MODES``.

Every sweep works in place on state buffers allocated once per call,
each kind only those it reads, with the step factor and the fast step's
A and G broadcast once to the state's shape: a ufunc takes an array
operand faster than a Python float, and the product has the same bits.
F_SIN_FFT keeps x in the head of one of its two zero-tailed buffers and
writes sin(A * ...) into the head of the other, so a step copies
nothing: two ``rfft`` calls into one spectrum buffer and six ufuncs.
Each kind runs its own lean loop over the segment's increment rows,
ufuncs with positional ``out`` and no helper call per step, and performs
the same operations in the same order as the per-step expressions in its
docstring, so the buffers change no bits and a block sweep equals the
plain per-step block loop bit for bit. At the block shape of the
regularity suite, (64, 8) with F = sin, the work of a step is two
``np.dot`` calls and one ``np.sin``; the rest is per-call overhead,
which the lean loop trims. Measured per step on one thread (2-vCPU VM,
numpy 2.4, OpenBLAS 0.3; median of 21 alternating runs of 16 sweeps of
256 steps, ranges over three such runs), a loop of the same operations
with two helper calls per step and Python-float operands against the
lean one: 12.4-16.0 against 11.5-13.8 us at (64, 8) with F = sin.
Folding F_SIN's constants into its matrices leaves three ufuncs per step
where the unfolded step ran seven (its np.sin of 512 values, about 6 us,
is not SIMD-dispatched in this numpy): unfolded against folded,
12.0-20.9 against 10.2-17.9 us per step at (64, 8), each run's ratio
0.83-0.86 (same protocol and VM). Folded against unfolded (21
alternating sweeps in one process, three runs) the fast step took
0.84-0.86 of the time at (512, 1), 0.88-0.90 at (512, 8), 0.89-0.94 at
(1024, 8) and 0.96-0.98 at (4096, 5), where the transform dominates.
"""

import numpy as np

BACKEND = "numpy"

F_ZERO = 0
# Retired (was F = u -> s u); perfbench's flop model still reads the name.
F_SCALED = 1
F_SIN = 2
F_SIN_FFT = 3


def euler_sweep(x0, step_factor, dw_scaled, f_kind, sin_in, sin_out, stops):
    """Run implicit Euler steps, returning the states at steps ``stops``.

    x0 is (N,) for one sample or (N, S) for a block of S samples, and
    dw_scaled is (M, N) or (M, N, S): row m holds phi_n * dW_{n,m}. F_ZERO
    steps x <- step_factor * (x + dW) and takes None for sin_in and
    sin_out. F_SIN reads the (N, N) matrices sin_in = sqrt(N+1) S and
    sin_out = (tau/sqrt(N+1)) diag(step_factor) S, S the sine matrix,
    and steps x <- step_factor * (x + dW) + sin_out @ sin(sin_in @ x); an
    (N, 1) state runs those products on two copies of its column.
    F_SIN_FFT reads the scalar sin_in = A and the (N,) sin_out = G, and
    steps x <- step_factor * (x + dW) + G * Im(rfft(sin(A *
    Im(rfft(x))))), each rfft of length 2(N+1) over x in rows 1..N of
    zeros. ``solver._sweep_setup`` builds every factor. ``stops`` are
    nondecreasing step indices in [0, M]; the result stacks the state
    after each of them (step 0 is x0) into a (len(stops),) + x0.shape
    array. The loop runs segment by segment between stops.
    """
    stops = [int(k) for k in stops]
    if any(b < a for a, b in zip(stops, stops[1:])) or (
            stops and not 0 <= stops[0] <= stops[-1] <= dw_scaled.shape[0]):
        raise ValueError(f"stops must be nondecreasing in [0, "
                         f"{dw_scaled.shape[0]}], got {stops}")
    if f_kind not in (F_ZERO, F_SIN, F_SIN_FFT):
        raise ValueError(f"unknown nonlinearity code {f_kind}")
    n = x0.shape[0]
    if f_kind == F_SIN and any(np.shape(mat) != (n, n)
                               for mat in (sin_in, sin_out)):
        raise ValueError(f"F = sin needs ({n}, {n}) sine matrices, got "
                         f"{np.shape(sin_in)} and {np.shape(sin_out)}")
    if f_kind == F_SIN_FFT:
        # x and sin(A * (...)) live in rows 1..n of two zero-tailed
        # (2n+2,) + tail buffers, which the step transforms whole
        ext_x, ext_u = np.zeros((2, 2 * n + 2) + x0.shape[1:])
        x, u = ext_x[1:n + 1], ext_u[1:n + 1]
        x[...] = x0
        spec = np.empty((n + 2,) + x0.shape[1:], dtype=complex)
        bins = spec.imag[1:n + 1]
    else:
        x = x0.copy()
    if f_kind == F_SIN and x.shape[1:] == (1,):
        # BLAS runs a one-column product as gemv, whose bits differ from
        # a wider block's gemm: sweep the column twice
        x = np.repeat(x, 2, axis=1)
    kept = x[:, :1] if x.shape != x0.shape else x
    column = (-1,) + (1,) * (x.ndim - 1)
    factor = np.broadcast_to(step_factor.reshape(column), x.shape).copy()
    if f_kind == F_SIN_FFT:
        into = np.full(x.shape, sin_in)
        back = np.broadcast_to(sin_out.reshape(column), x.shape).copy()
    if f_kind != F_ZERO:
        fx = np.empty_like(x)
    if f_kind == F_SIN:
        u = np.empty_like(x)
    add, multiply, dot, sin, rfft = (np.add, np.multiply, np.dot, np.sin,
                                     np.fft.rfft)
    out = np.empty((len(stops),) + x0.shape)
    start = 0
    for i, stop in enumerate(stops):
        rows = dw_scaled[start:stop]
        if f_kind == F_ZERO:
            for dw in rows:
                add(x, dw, x)
                multiply(factor, x, x)
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
                rfft(ext_x, axis=0, out=spec)
                multiply(into, bins, u)
                sin(u, u)
                rfft(ext_u, axis=0, out=spec)
                multiply(back, bins, fx)
                add(x, dw, x)
                multiply(factor, x, x)
                add(x, fx, x)
        out[i] = kept
        start = stop
    return out

