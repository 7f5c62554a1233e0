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
    _chunk_rows,
    _increment_chunks,
    mode_keys,
)
from .rng import SAMPLE_STREAM, derive_seed
from .spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    apply_nemytskii,
    sine_matrix,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "implicit_euler_step",
    "linear_mild_reference",
    "restrict_config",
    "solve_endpoint",
    "solve_path",
    "solve_stops",
]

_F_CODES = {"zero": kernels.F_ZERO, "identity_scaled": kernels.F_SCALED,
            "pointwise_sin": kernels.F_SIN}


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
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """All M+1 states of one solve as an (M+1, N) array, row m at time
    m * tau."""

    states: np.ndarray
    tau: float

    def endpoint(self) -> SpectralState:
        m = self.states.shape[0] - 1
        return SpectralState(coeffs=self.states[m], time=m * self.tau)


def implicit_euler_step(x: SpectralState, tau: float, op: SpectralOperator,
                        f: NemytskiiMap, noise: DiagonalNoiseOperator,
                        dw: np.ndarray) -> SpectralState:
    """One step of the scheme from state x with noise increment vector dw."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = x.n_modes
    dw = np.asarray(dw, dtype=float)
    if op.n_modes != n or noise.n_modes < n or dw.shape != (n,):
        raise ValueError("dimension mismatch in implicit_euler_step")
    factor = 1.0 / (1.0 + tau * op.eigenvalues)
    fx = apply_nemytskii(f, x).coeffs
    coeffs = factor * (x.coeffs + tau * fx + noise.amplitudes[:n] * dw)
    return SpectralState(coeffs=coeffs, time=x.time + tau)


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


def _scaled_increments(config: SolverConfig,
                       sample: CylindricalFbmSample) -> np.ndarray:
    """(M, n_modes) array whose row m holds phi_n * dW_{n,m}."""
    n = config.n_modes
    amps = config.noise.amplitudes[:n]
    return np.ascontiguousarray((amps[:, None] * sample.values[:n]).T)


def _sweep_setup(config: SolverConfig):
    """(x0, step_factor, f_kind, f_scale, dst_mat, dst_scale) of config's
    sweep: the initial state and the kernels.euler_sweep arguments that
    depend on the operator and the nonlinearity, not on the noise."""
    n = config.n_modes
    lam = config.operator.eigenvalues[:n]
    step_factor = 1.0 / (1.0 + config.tau * lam)
    f_kind = _F_CODES[config.nonlinearity.kind]
    f_scale = config.nonlinearity.lipschitz_bound
    dst_mat = None
    dst_scale = 1.0
    if f_kind == kernels.F_SIN:
        dst_scale = math.sqrt(n + 1)
        if n >= kernels._FAST_SINE_MIN_MODES:
            f_kind = kernels.F_SIN_FFT
        else:
            dst_mat = np.ascontiguousarray(sine_matrix(n))
    x0 = np.ascontiguousarray(config.initial.coeffs[:n], dtype=float)
    return x0, step_factor, f_kind, f_scale, dst_mat, dst_scale


def solve_stops(config: SolverConfig, dw_scaled: np.ndarray,
                stops) -> np.ndarray:
    """Run the scheme on scaled increments, keeping the states at ``stops``.

    dw_scaled is (M, n_modes) for one sample, or (M, n_modes, S) for a
    block of S samples started from the same initial state; row m holds
    phi_n * dW_{n,m}. ``stops`` are nondecreasing step indices in [0, M]
    (0 is the initial state). Returns a (len(stops), n_modes[, S]) array.

    F = sin runs the dense sine matrix below
    ``kernels._FAST_SINE_MIN_MODES`` = 512 modes and numpy's fast DST-I
    from there on, where it is faster per step (see ``kernels``); the two
    agree to rounding (tested within 1e-12 relative). A block's states
    can differ from one-sample sweeps in the last bits (matrix-matrix
    against matrix-vector products on the dense path).
    """
    n = config.n_modes
    if dw_scaled.shape[:2] != (config.m_steps, n):
        raise ValueError(
            f"increments shaped {dw_scaled.shape}, config expects "
            f"({config.m_steps}, {n}[, samples])"
        )
    x0, step_factor, *sweep = _sweep_setup(config)
    if dw_scaled.ndim == 3:
        x0 = np.repeat(x0[:, None], dw_scaled.shape[2], axis=1)
    return kernels.euler_sweep(x0, step_factor, config.tau, dw_scaled,
                               *sweep, stops)


# Size of one block's scaled increments, (M, N, B) doubles, and the most
# samples in one block. Peak memory, not speed, sets both: B = 4 at N = 64,
# M = 2^14 and B = 8 at N = 32; the cap keeps small problems (the desk
# spatial reference, N = 512 and M = 200) from sweeping every sample in
# one block.
_BLOCK_BYTES = 32 * 2**20
_BLOCK_SAMPLES = 8


def _sample_blocks(config: SolverConfig, samples: int,
                   base_seed: int) -> list:
    """(first index, seeds) of fixed blocks of consecutive samples.

    Sample s draws from derive_seed(base_seed, SAMPLE_STREAM, s). Block
    membership follows the sample index and config's (M, N) only, never
    the worker count, so results are identical for any number of workers.
    A block's raw (M, N, B) increments fit in _BLOCK_BYTES; the
    regularity estimators fill that one buffer once for all the presets
    of a call (_solve_presets), so B does not depend on their number.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    size = min(_BLOCK_SAMPLES, max(
        1, _BLOCK_BYTES // (8 * config.m_steps * config.n_modes)))
    seeds = derive_seed(base_seed, SAMPLE_STREAM,
                        np.arange(samples)).tolist()
    return [(first, tuple(seeds[first:first + size]))
            for first in range(0, samples, size)]


def _block_increments(config: SolverConfig, seeds: tuple) -> np.ndarray:
    """(M, N, B) scaled increments; column s is the sample with seeds[s].

    Row k of a sample draws its fBm from the seed derived from (seed, k),
    as generate_cylindrical_fbm does, times the noise amplitude phi_k, so
    column s equals _scaled_increments of that sample bit for bit. The
    N*B keys and their generator states are each hashed in one pass;
    the rows are then drawn mode-major, a group of whole modes at a
    time, which keeps a group's normals within fbm._ROW_CHUNK_BYTES
    (unless one mode's B rows exceed it) and writes each group into its
    (M, modes, B) slab of the buffer, times the amplitudes, directly.
    """
    n, b = config.n_modes, len(seeds)
    amps = config.noise.amplitudes[:n]
    grid = config.grid()
    dw = np.empty((config.m_steps, n, b))
    for lo, rows in _increment_chunks(
            grid, config.hurst, mode_keys(seeds, n).ravel(),
            config.fbm_method,
            _chunk_rows(config.m_steps, config.fbm_method, b)):
        k0, k1 = lo // b, (lo + len(rows)) // b
        np.multiply(amps[k0:k1, None],
                    rows.reshape(k1 - k0, b, -1).transpose(2, 0, 1),
                    out=dw[:, k0:k1, :])
    return dw


# Fields in which the configs of one _solve_presets call must agree: all
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


# Scratch of one chunk of _solve_presets' scaled increments, (steps, N,
# P*B) doubles: 256 steps at N = 64 and P*B = 8.
_SWEEP_CHUNK_BYTES = 2**20


def _unit_increments(config: SolverConfig, seeds: tuple) -> np.ndarray:
    """The raw (M, N, B) fBm of a block: _block_increments with every
    amplitude 1, an exact product."""
    unit = replace(config.noise, amplitudes=np.ones(config.n_modes))
    return _block_increments(replace(config, noise=unit), seeds)


def _solve_presets(configs: list, dw: np.ndarray, stops) -> np.ndarray:
    """States at ``stops`` of a block of samples under every config.

    The configs differ in noise only (_check_presets), and dw holds the
    block's raw (M, N, B) increments (_unit_increments; a view of its
    leading modes serves a restricted config). All P presets are swept as
    one (N, P*B) state, column p*B + s being preset p on sample s, a
    chunk of steps at a time: the chunk's scratch holds
    phi_p[n] * dW[m, n, s], the product _block_increments writes, so each
    column's scaled increments keep their bits, and no (M, N, P*B) buffer
    is built. ``stops`` are nondecreasing step indices in [0, M]. Returns
    a (len(stops), N, P, B) array.
    """
    config = configs[0]
    n, m, b = config.n_modes, config.m_steps, dw.shape[2]
    stops = [int(k) for k in stops]
    amps = [c.noise.amplitudes[:n, None] for c in configs]
    width = len(configs) * b
    x, step_factor, *sweep = _sweep_setup(config)
    x = np.repeat(x[:, None], width, axis=1)
    chunk = min(m, max(1, _SWEEP_CHUNK_BYTES // (8 * n * width)))
    scratch = np.empty((chunk, n, width))
    out = np.empty((len(stops), n, width))
    done = 0
    for m0 in range(0, m, chunk):
        m1 = min(m0 + chunk, m)
        rows = scratch[:m1 - m0]
        for p, amp in enumerate(amps):
            np.multiply(amp, dw[m0:m1], out=rows[:, :, p * b:(p + 1) * b])
        upto = bisect.bisect_right(stops, m1, lo=done)
        states = kernels.euler_sweep(
            x, step_factor, config.tau, rows, *sweep,
            [k - m0 for k in stops[done:upto]] + [m1 - m0])
        out[done:upto] = states[:-1]
        x, done = states[-1], upto
    return out.reshape(len(stops), n, len(configs), b)


def _require_finite(values: np.ndarray, first: int) -> None:
    """Raise FloatingPointError naming the samples (last axis) whose
    values are not all finite; ``first`` indexes column 0."""
    bad = np.flatnonzero(
        ~np.isfinite(values).reshape(-1, values.shape[-1]).all(axis=0))
    if bad.size:
        raise FloatingPointError(
            f"non-finite state in samples {[first + int(b) for b in bad]}"
        )


def solve_endpoint(config: SolverConfig,
                   noise_sample: CylindricalFbmSample) -> SpectralState:
    """Run the scheme on one noise sample, storing nothing but the final
    state (the convergence studies sweep blocks of samples through
    solve_stops instead)."""
    _check_noise_sample(config, noise_sample)
    coeffs = solve_stops(config, _scaled_increments(config, noise_sample),
                         (config.m_steps,))[0]
    return SpectralState(coeffs=coeffs, time=config.m_steps * config.tau)


def solve_path(config: SolverConfig,
               noise_sample: CylindricalFbmSample) -> Trajectory:
    """Run the scheme keeping all M+1 states.

    Raises FloatingPointError, naming the first such step, when a state
    is not finite.
    """
    _check_noise_sample(config, noise_sample)
    states = solve_stops(config, _scaled_increments(config, noise_sample),
                         range(config.m_steps + 1))
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        raise FloatingPointError(
            f"non-finite state at step {bad[0]} of {config.m_steps}"
        )
    return Trajectory(states=states, tau=config.tau)


def linear_mild_reference(config: SolverConfig,
                          fine_sample: CylindricalFbmSample) -> SpectralState:
    """Mild-solution endpoint for F = 0, on a finer noise grid.

    Coefficient n is e^{-lambda_n T} xi_n plus the left-endpoint
    Riemann evaluation of the stochastic convolution over the fine grid:
    phi_n sum_j e^{-lambda_n (T - s_j)} dw_{n,j}. Serves as the oracle
    independent of the implicit Euler path in the linear case.
    """
    if config.nonlinearity.kind != "zero":
        raise ValueError("linear_mild_reference requires F = 0")
    _check_noise_sample(config, fine_sample, fine=True)
    n = config.n_modes
    lam = config.operator.eigenvalues[:n]
    dws = _scaled_increments(config, fine_sample)
    conv = kernels.convolution_endpoint(lam, dws, fine_sample.grid.tau,
                                        fine_sample.grid.m_steps)
    coeffs = np.exp(-lam * config.horizon) * config.initial.coeffs[:n] + conv
    return SpectralState(coeffs=coeffs, time=config.horizon)
