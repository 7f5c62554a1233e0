"""Full discretization: spectral Galerkin in space, linear implicit Euler
in time, plus the linear-case mild-solution oracle.

The scheme iterates

    X_{m+1} = R(tau A_N) [ X_m + tau P_N F(X_m) + P_N Phi dW_m ],

R(z) = 1/(1+z), with F evaluated at the previous iterate (explicit in F,
implicit in A); there is no Newton iteration anywhere. Because Phi is
diagonal in the eigenbasis, P_N Phi dW involves exactly the first N
scalar fBm rows of the driving sample.
"""

import bisect
import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .fbm import (
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    _aggregate_values,
    _bounded_cache,
    check_method,
    increment_rows,
    mode_keys,
)
from .parallel import parallel_map
from .rng import SAMPLE_STREAM, derive_seed
from .spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    sine_matrix,
)

__all__ = [
    "SolverConfig",
    "linear_mild_reference",
    "linear_support",
    "linear_weights",
    "restrict_config",
    "sample_map",
    "solve_endpoint",
]

_F_CODES = {"zero": kernels.F_ZERO, "pointwise_sin": kernels.F_SIN}


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Fully specified discrete problem.

    operator / noise / initial may carry more modes than n_modes; the
    solver consumes their first n_modes entries, which is what makes one
    config template reusable across a spatial refinement ladder (mode
    nesting) without copying arrays.
    """

    n_modes: int
    m_steps: int
    horizon: float
    hurst: HurstParameter
    operator: SpectralOperator
    noise: DiagonalNoiseOperator
    nonlinearity: NemytskiiMap
    initial: SpectralState
    base_seed: int
    fbm_method: str = "circulant"

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")
        for name, size in (("operator", self.operator.n_modes),
                           ("noise", self.noise.n_modes),
                           ("initial", self.initial.n_modes)):
            if size < self.n_modes:
                raise ValueError(
                    f"{name} carries {size} modes < n_modes={self.n_modes}"
                )
        lo = 1.0 - 2.0 * self.hurst.h
        if not lo < self.noise.beta <= 1.0:
            raise ValueError(
                f"noise beta={self.noise.beta} outside admissible "
                f"({lo}, 1] for H={self.hurst.h}"
            )
        check_method(self.fbm_method, self.m_steps)

    @property
    def tau(self) -> float:
        return self.horizon / self.m_steps

    def grid(self) -> IncrementGrid:
        return IncrementGrid(m_steps=self.m_steps, tau=self.tau)


def restrict_config(config: SolverConfig, n_modes: int | None = None,
                    m_steps: int | None = None) -> SolverConfig:
    """Derive a coarser config sharing the template's operator/noise arrays."""
    return replace(config,
                   n_modes=config.n_modes if n_modes is None else n_modes,
                   m_steps=config.m_steps if m_steps is None else m_steps)


def _check_noise_sample(config: SolverConfig, sample: CylindricalFbmSample,
                        fine: bool = False) -> None:
    """Reject a sample that cannot drive config: too few modes, another
    horizon or, unless ``fine`` (the mild oracle's grid), another step
    count."""
    if sample.modes < config.n_modes:
        raise ValueError(
            f"noise sample has {sample.modes} modes < n_modes="
            f"{config.n_modes}"
        )
    if not fine and sample.grid.m_steps != config.m_steps:
        raise ValueError(
            f"noise grid has {sample.grid.m_steps} steps, config expects "
            f"{config.m_steps}"
        )
    if not math.isclose(sample.grid.horizon, config.horizon, rel_tol=1e-12):
        raise ValueError(f"noise grid horizon {sample.grid.horizon} != "
                         f"config horizon {config.horizon}")


@_bounded_cache
def _sine_operators(n: int):
    """(S, sqrt(N+1) S), read-only: the dense sine matrix and its map
    from coefficients to grid values, built once per N."""
    mat = sine_matrix(n)
    sin_in = math.sqrt(n + 1) * mat
    sin_in.flags.writeable = False
    return mat, sin_in


# Smallest mode count at which the F = sin sweep runs kernels.F_SIN_FFT,
# not the dense F_SIN. Measured per step on one thread (2-vCPU VM whose
# speed swings up to 1.7x, numpy 2.4, OpenBLAS 0.3; medians of 11
# alternating 200-step sweeps, ranges over two runs), the dense step
# against the fast one at widths 1 and 8: N = 384, 95-104 against 32-33
# us and 291-319 against 125-128 us; N = 511, 206-209 against 29-32 us
# and 521-522 against 108-113 us; N = 512, 205-211 against 34-36 us and
# 608-810 against 211-234 us; N = 1024, 2039-2934 against 71-115 us and
# 1777-2162 against 328-362 us. An FFT of length 2(N+1) is slow where
# N+1 has a large prime factor: per pair of sweeps the fast step took
# 0.86-1.19 (width 1) and 1.13-1.33 (width 8) times the dense one at
# N = 520, 0.73-1.11 and 0.94-1.23 at N = 600, and 0.34-0.50 and
# 0.75-0.92 at N = 572. The studies run N = 512 and 4096.
_FAST_SINE_MIN_MODES = 512


def _sweep_setup(config: SolverConfig):
    """(x0, step_factor, f_kind, sin_in, sin_out) of config's sweep: the
    initial state and the kernels.euler_sweep arguments that depend on
    the operator, the nonlinearity and tau, not on the noise.

    F = sin runs the dense sine matrix S (kernels.F_SIN) below
    _FAST_SINE_MIN_MODES = 512 modes and two real FFTs of length 2(N+1)
    per step (kernels.F_SIN_FFT) from there on; the two agree to rounding
    (tested within 1e-12 relative). Both fold the step's constants into
    the two factors built here, once per rung, so a step is step_factor *
    (x + dW) + out(sin(in(x))). The dense step's are matrices: sin_in =
    sqrt(N+1) S maps coefficients to grid values (S and sin_in are built
    once per N by _sine_operators, whose cache fbm.clear_caches empties)
    and sin_out = (tau/sqrt(N+1)) diag(step_factor) S maps sin of them
    back. The fast step's are the scalar A = (-2c) sqrt(N+1) and the (N,)
    G = ((-2c) tau / sqrt(N+1)) step_factor, c = 1/sqrt(2(N+1)) in long
    double (see ``kernels`` for the transform). Each tracks the unfolded
    step step_factor * (x + tau (S @ sin(sqrt(N+1) S @ x)) / sqrt(N+1) +
    dW) to rounding (tested within 1e-13 relative over 2^12 steps). F = 0
    takes None for both factors.
    """
    n, tau = config.n_modes, config.tau
    lam = config.operator.eigenvalues[:n]
    step_factor = 1.0 / (1.0 + tau * lam)
    f_kind = _F_CODES[config.nonlinearity.kind]
    sin_in = sin_out = None
    if f_kind == kernels.F_SIN and n >= _FAST_SINE_MIN_MODES:
        f_kind = kernels.F_SIN_FFT
        minus_2c = -2.0 * float(1 / np.sqrt(np.longdouble(2 * (n + 1))))
        sin_in = minus_2c * math.sqrt(n + 1)
        sin_out = (minus_2c * tau / math.sqrt(n + 1)) * step_factor
    elif f_kind == kernels.F_SIN:
        mat, sin_in = _sine_operators(n)
        sin_out = (tau / math.sqrt(n + 1)) * step_factor[:, None] * mat
    x0 = np.ascontiguousarray(config.initial.coeffs[:n], dtype=float)
    return x0, step_factor, f_kind, sin_in, sin_out


def _check_rungs(config: SolverConfig, rungs, stops=()) -> list:
    """The rungs as int pairs (n, q); ValueError naming the first rung
    with n outside [1, N] or q not dividing M and every stop, else the
    first stop outside [0, M] or below the one before it."""
    rungs = [(int(n), int(q)) for n, q in rungs]
    if not rungs:
        raise ValueError("need at least one rung")
    n_ref, m, stops = config.n_modes, config.m_steps, [int(k) for k in stops]
    for n, q in rungs:
        if not 1 <= n <= n_ref:
            raise ValueError(f"rung {(n, q)}: mode count {n} outside "
                             f"[1, {n_ref}]")
        if q < 1 or m % q or any(k % q for k in stops):
            raise ValueError(f"rung {(n, q)}: step ratio {q} does not "
                             f"divide M = {m} and every stop")
    for lo, k in zip([0] + stops, stops):
        if not lo <= k <= m:
            raise ValueError(f"stop {k} outside [{lo}, {m}]")
    return rungs


# Size of one block's increments, M*N*B doubles, and the most
# samples in one block. Peak memory, not speed, sets both: B = 4 at N = 64,
# M = 2^14 and B = 8 at N = 32; the cap keeps small problems (the desk
# spatial reference, N = 512 and M = 200) from sweeping every sample in
# one block.
_BLOCK_BYTES = 32 * 2**20
_BLOCK_SAMPLES = 8


def _sample_blocks(config: SolverConfig, samples: int) -> list:
    """(first index, seeds) of fixed blocks of consecutive samples.

    Sample s draws from derive_seed(config.base_seed, SAMPLE_STREAM, s).
    Block membership follows the sample index and config's (M, N) only,
    never the worker count, so results are identical for any number of
    workers. A block's M*N*B increments fit in _BLOCK_BYTES: the one raw
    (N, B, M) draw, increment_rows on the block's mode_keys(seeds, N),
    that drives every preset and every rung of the block (_solve_block),
    so B depends on neither number.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    size = min(_BLOCK_SAMPLES, max(
        1, _BLOCK_BYTES // (8 * config.m_steps * config.n_modes)))
    seeds = derive_seed(config.base_seed, SAMPLE_STREAM,
                        np.arange(samples)).tolist()
    return [(first, tuple(seeds[first:first + size]))
            for first in range(0, samples, size)]


# Fields in which the configs of one _solve_block call must agree: all
# but ``noise``, so every preset is driven by the same fBm.
_SHARED_FIELDS = ("n_modes", "m_steps", "horizon", "hurst", "operator",
                  "nonlinearity", "initial", "base_seed", "fbm_method")


def _same_value(a, b) -> bool:
    """Value equality through nested dataclasses and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(_same_value(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def _check_presets(configs) -> list:
    """The configs as a nonempty list; ValueError naming the first field
    of _SHARED_FIELDS in which one differs from the first config."""
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    for other in configs[1:]:
        for name in _SHARED_FIELDS:
            if not _same_value(getattr(configs[0], name),
                               getattr(other, name)):
                raise ValueError(f"configs differ in {name}; they may "
                                 "differ in noise only")
    return configs


# Scratch of one chunk of _solve_block's scaled increments, (steps, N,
# P*B) doubles: 256 steps at N = 64 and P*B = 8 (rounded to a multiple of
# the largest step ratio).
_SWEEP_CHUNK_BYTES = 2**20

# Most modes that _solve_block sweeps as one block-diagonal dense F = sin
# system (_stack_rungs). Stacking saves a sweep call per chunk for every
# rung but one, and its products grow with the square of the modes in
# all. Measured at 8 columns and M = 200 on one thread, stacked against
# separate sweeps: 0.63x at 2..32 (62 modes), 0.88-0.93x at 2..64 and
# 4..64 (126, 124), 1.06x for 32 and 64 (96: one call saved), 1.37x for
# 64 and 128 (192) and 1.40x at 8..128 (248).
_STACK_MAX_MODES = 128


def _stack_rungs(entries: list) -> tuple:
    """One dense F = sin sweep for several rungs: ``entries`` are
    _solve_block's sweep entries (rungs, q, x0, step_factor, sweep) of
    rungs with q = 1. Their rungs, states and step factors are stacked
    in order, and sin_in and sin_out are block-diagonal, so each rung
    advances on its own rows as it would alone, to rounding."""
    rungs, _, x0s, factors, sweeps = zip(*entries)
    total = sum(x0.size for x0 in x0s)
    sin_in, sin_out = np.zeros((2, total, total))
    lo = 0
    for x0, (_, rung_in, rung_out) in zip(x0s, sweeps):
        hi = lo + x0.size
        sin_in[lo:hi, lo:hi] = rung_in
        sin_out[lo:hi, lo:hi] = rung_out
        lo = hi
    return (sum(rungs, []), 1, np.concatenate(x0s), np.concatenate(factors),
            (kernels.F_SIN, sin_in, sin_out))


def _solve_block(configs: list, dw: np.ndarray, rungs, stops) -> list:
    """States at ``stops`` of a block of samples, under every config, at
    every rung.

    The configs differ in noise only (_check_presets), and dw holds the
    block's raw (N, B, M) increments: increment_rows on its
    mode_keys(seeds, N), whose entry [k, s] is mode k of sample s. Rung
    (n, q) is restrict_config(config, n_modes=n, m_steps=M // q): the
    first n modes, driven by the fine increments summed q at a time.
    ``stops`` are nondecreasing fine steps in [0, M], each a multiple of
    every q (_check_rungs). Returns, per rung, a (len(stops), n, P, B)
    array.

    All P presets are swept as one (n, P*B) state, column p*B + s being
    preset p on sample s, a chunk of fine steps at a time; the chunk is a
    multiple of the largest q. The chunk's (steps, N, P*B) scratch holds
    phi_p[k] * dW[k, s, m], each product taken over the sampler's
    contiguous rows and then copied, transposed, into the scratch (a
    product that reads the rows transposed is about three times slower).
    Every rung then advances on the scratch's leading n modes, summed in
    order q at a time (fbm._aggregate_values) for q > 1: the sums that
    aggregating the whole scaled (M, N, B) block takes, so no bit depends
    on the chunk, and no (M, N, P*B) buffer is built. When two or more
    rungs have q = 1 and run dense F = sin, and their modes total at most
    _STACK_MAX_MODES, they advance as one block-diagonal system
    (_stack_rungs) on their leading modes stacked in a second scratch:
    one sweep call per chunk for all of them, whose states equal each
    rung's own sweep to rounding, not bit for bit (OpenBLAS may give the
    stacked product other bits; tested within 1e-13 relative).
    """
    config = configs[0]
    m, b = config.m_steps, dw.shape[1]
    stops = [int(k) for k in stops]
    rungs = _check_rungs(config, rungs, stops)
    top = max(n for n, _ in rungs)
    q_top = max(q for _, q in rungs)
    amps = [c.noise.amplitudes[:top, None, None] for c in configs]
    width = len(configs) * b
    chunk = max(1, _SWEEP_CHUNK_BYTES // (8 * top * width))
    chunk = min(m, max(q_top, chunk - chunk % q_top))
    scratch = np.empty((chunk, top, width))
    products = np.empty((top, b, chunk))
    # one entry per sweep: (rungs (r, n) it carries, q, x0, step_factor,
    # the rest of its euler_sweep arguments)
    sweeps, dense = [], []
    for r, (n, q) in enumerate(rungs):
        x0, step_factor, *sweep = _sweep_setup(
            restrict_config(config, n_modes=n, m_steps=m // q))
        (dense if q == 1 and sweep[0] == kernels.F_SIN else sweeps).append(
            ([(r, n)], q, x0, step_factor, sweep))
    if len(dense) > 1 and sum(x0.size for _, _, x0, _, _ in dense) <= \
            _STACK_MAX_MODES:
        dense = [_stack_rungs(dense)]
    sweeps += dense
    # per sweep: its state, its kept states and, when it stacks rungs,
    # the scratch modes it gathers and a buffer to gather them into
    states, outs, gathers = [], [], []
    for parts, _, x0, _, _ in sweeps:
        states.append(np.repeat(x0[:, None], width, axis=1))
        outs.append(np.empty((len(stops), x0.size, width)))
        gathers.append(None if len(parts) == 1 else (
            np.concatenate([np.arange(n) for _, n in parts]),
            np.empty((chunk, x0.size, width))))
    done = 0
    for m0 in range(0, m, chunk):
        m1 = min(m0 + chunk, m)
        rows, product = scratch[:m1 - m0], products[:, :, :m1 - m0]
        for p, amp in enumerate(amps):
            np.multiply(amp, dw[:top, :, m0:m1], out=product)
            rows[:, :, p * b:(p + 1) * b] = product.transpose(2, 0, 1)
        upto = bisect.bisect_right(stops, m1, lo=done)
        for i, (parts, q, _, step_factor, sweep) in enumerate(sweeps):
            if gathers[i] is None:
                lead = rows[:, :parts[0][1]]
            else:
                index, buf = gathers[i]
                lead = np.take(rows, index, axis=1, mode="clip",
                               out=buf[:m1 - m0])
            kept = kernels.euler_sweep(
                states[i], step_factor,
                lead if q == 1 else _aggregate_values(lead, q, axis=0),
                *sweep, [(k - m0) // q for k in stops[done:upto]]
                + [(m1 - m0) // q])
            outs[i][done:upto] = kept[:-1]
            states[i] = kept[-1]
        done = upto
    result = [None] * len(rungs)
    for (parts, *_), out in zip(sweeps, outs):
        lo = 0
        for r, n in parts:
            result[r] = out[:, lo:lo + n].reshape(len(stops), n,
                                                  len(configs), b)
            lo += n
    return result


def sample_map(configs, samples: int, rungs, stops, reduce, args=(),
               workers: int = 1) -> np.ndarray:
    """The one Monte Carlo loop of the studies and regularity estimates:
    reduce's (P, B, ...) values of every block, joined in sample order
    as (P, samples, ...), the same for any worker count.

    Presets, rungs and stops are checked before any draw. Each fixed
    block (_sample_blocks) is drawn once and swept (_solve_block); if
    its states are all finite, reduce(configs[0], states, *args), a
    module-level function, reduces the per-rung (stops, n, P, B) states.
    """
    configs, stops = _check_presets(configs), tuple(stops)
    rungs = _check_rungs(configs[0], rungs, stops)
    jobs = [(configs, rungs, stops, reduce, tuple(args), first, seeds)
            for first, seeds in _sample_blocks(configs[0], samples)]
    return np.concatenate(parallel_map(_map_block, jobs, workers), axis=1)


def _map_block(job) -> np.ndarray:
    """sample_map's values of one block; FloatingPointError names the
    samples whose states are not all finite."""
    configs, rungs, stops, reduce, args, first, seeds = job
    config = configs[0]
    dw = increment_rows(config.grid(), config.hurst,
                        mode_keys(seeds, config.n_modes), config.fbm_method)
    states = _solve_block(configs, dw, rungs, stops)
    finite = np.logical_and.reduce([np.isfinite(x).reshape(
        -1, len(seeds)).all(axis=0) for x in states])
    bad = [first + int(s) for s in np.flatnonzero(~finite)]
    if bad:
        raise FloatingPointError(f"non-finite state in samples {bad}")
    return reduce(config, states, *args)


def _solve_sample(config: SolverConfig, dw: np.ndarray, stops) -> np.ndarray:
    """The (len(stops), N) states of one sample at ``stops``: _solve_block
    on a block of that sample, dw its raw (N, 1, M) increments.

    Raises FloatingPointError naming the first stop whose state is not
    finite.
    """
    states = _solve_block([config], dw, [(config.n_modes, 1)],
                          stops)[0][:, :, 0, 0]
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite state at step "
                                 f"{stops[bad[0]]} of {config.m_steps}")
    return states


def solve_endpoint(config: SolverConfig,
                   noise_sample: CylindricalFbmSample) -> SpectralState:
    """Run the scheme on one noise sample, storing nothing but the final
    state (_solve_sample).

    Raises FloatingPointError when the final state is not finite.
    """
    _check_noise_sample(config, noise_sample)
    rows = noise_sample.values[:config.n_modes, None, :]
    coeffs = _solve_sample(config, rows, (config.m_steps,))[0]
    return SpectralState(coeffs=coeffs, time=config.m_steps * config.tau)


# exp(x) rounds to 0 below this, and numpy's exp is slow there (about 18 ns
# per entry against 1 ns for a normal result), so the mild weights of a
# lag with lam * lag > 746 are set to 0 without calling it.
_EXP_ZERO_BELOW = -746.0

# linear_support keeps the weights of at least 2^-64 of the largest.
_SUPPORT_DECAY = 64.0 * math.log(2.0)


def linear_support(lam: float, tau: float, m_steps: int,
                   ratio: int | None = None) -> int:
    """How many trailing linear_weights are at least 2^-64 of the largest.

    An upper bound, capped at m_steps. The mild weights fall by
    exp(-lam tau) per step back from the last increment, whose weight is
    the largest, so ceil(64 ln 2 / (lam tau)) + 1 steps hold every weight
    at or above 2^-64 of it; the scheme at ratio q falls by
    r = 1/(1 + q tau lam) per block of q steps, which gives
    q (ceil(64 ln 2 / -ln r) + 1) steps. The extra step or block keeps
    the count safe from the rounding of the weights' exponents.
    """
    if ratio is None:
        rate, block = lam * tau, 1
    else:
        rate = -math.log(1.0 / (1.0 + (tau * ratio) * lam))
        block = ratio
    blocks = _SUPPORT_DECAY / rate if rate > 0 else math.inf
    if blocks >= m_steps:
        return m_steps
    return min(m_steps, block * (math.ceil(blocks) + 1))


def linear_weights(lam: float, tau: float, m_steps: int,
                   ratio: int | None = None, tail: int | None = None):
    """One mode's F = 0 endpoint as a linear map of its fine increments.

    With dW_j the mode's m_steps fine increments of length tau and
    T = m_steps * tau, the endpoint is w0 * xi + phi * sum_j w[j] dW_j;
    returns (w, w0). ``ratio`` None gives the mild solution, in the
    left-endpoint Riemann form of its stochastic convolution:
    w[j] = exp(-lam (T - j tau)), w0 = exp(-lam T). ``ratio`` q gives the
    implicit Euler scheme on the increments aggregated q at a time:
    w = repeat(r^(m-i), q) for i = 0..m-1 and w0 = r^m, with
    r = 1/(1 + (q tau) lam) and m = m_steps / q. ``tail`` L in
    [1, m_steps] returns only the last L entries of w, bit for bit; with
    L at least linear_support, every weight left out is below 2^-64 of
    the largest.
    """
    size = m_steps if tail is None else tail
    if not 1 <= size <= m_steps:
        raise ValueError(f"tail {tail} outside [1, {m_steps}]")
    if ratio is None:
        # j, then -lam times its lag T - j tau, then the weight, in one
        # buffer; the exponents rise with j (lam >= 0) or are all >= 0,
        # so the entries below the cut are a prefix
        t_end = m_steps * tau
        w = np.arange(m_steps - size, m_steps, dtype=float)
        np.multiply(w, tau, out=w)
        np.subtract(t_end, w, out=w)
        np.multiply(-lam, w, out=w)
        zero = np.searchsorted(w, _EXP_ZERO_BELOW)
        w[:zero] = 0.0
        np.exp(w[zero:], out=w[zero:])
        return w, np.exp(-lam * t_end)
    if ratio < 1 or m_steps % ratio:
        raise ValueError(f"step ratio {ratio} does not divide {m_steps}")
    m = m_steps // ratio
    r = 1.0 / (1.0 + (tau * ratio) * lam)
    w = np.repeat(r ** np.arange(-(-size // ratio), 0, -1), ratio)
    return w[w.size - size:], r**m


def linear_mild_reference(config: SolverConfig,
                          fine_sample: CylindricalFbmSample) -> SpectralState:
    """Mild-solution endpoint for F = 0, on a finer noise grid.

    Coefficient n is e^{-lambda_n T} xi_n plus the left-endpoint
    Riemann evaluation of the stochastic convolution over the fine grid,
    phi_n sum_j e^{-lambda_n (T - s_j)} dw_{n,j}: linear_weights
    contracted with the mode's increments, one mode at a time, by
    numpy's pairwise sum (no BLAS dot, whose bits depend on its thread
    count). Serves as the oracle independent of the implicit Euler path
    in the linear case.

    Only the last linear_support weights of a mode are built; their
    products go into the tail of a zero-filled buffer of all M entries,
    which is summed whole. The full length keeps the pairwise sum's tree,
    so a dropped product (below 2^-64 of the largest weight times its
    increment) changes a coefficient only if it would have survived the
    rounding of that tree: at criterion 8's shape no coefficient moved.
    A sum over the tail alone would regroup the terms and move last bits.
    """
    if config.nonlinearity.kind != "zero":
        raise ValueError("linear_mild_reference requires F = 0")
    _check_noise_sample(config, fine_sample, fine=True)
    n = config.n_modes
    grid = fine_sample.grid
    m, tau = grid.m_steps, grid.tau
    lam = config.operator.eigenvalues[:n]
    phi = config.noise.amplitudes[:n]
    xi = config.initial.coeffs[:n]
    coeffs = np.empty(n)
    products = np.zeros(m)
    zero_below = m  # products[:zero_below] holds zeros only
    for k in range(n):
        cut = m - linear_support(lam[k], tau, m)
        products[zero_below:cut] = 0.0
        zero_below = cut
        w, w0 = linear_weights(lam[k], tau, m, tail=m - cut)
        np.multiply(w, fine_sample.values[k, cut:], out=products[cut:])
        coeffs[k] = w0 * xi[k] + phi[k] * np.sum(products)
    return SpectralState(coeffs=coeffs, time=config.horizon)
