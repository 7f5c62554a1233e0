"""Executable checks of the analytic identities behind the scheme.

Four families: the phi-kernel cell integrals and their bound, the
lambda-phi integral whose scaled value must stay bounded in lambda, the
Ito isometry for step integrands against cylindrical fBm, and empirical
regularity (temporal Hölder exponents, Sobolev-norm ladders) of the
discrete solution.

Also hosts the exact second-moment oracle for the linear (F = 0)
scheme: every endpoint statistic of the implicit Euler iteration is a
quadratic form in the increments, so expectations reduce to Toeplitz
quadratic forms computable by FFT. These exact values calibrate the
Monte Carlo tests and pin thresholds without guessing constants.
"""

from dataclasses import dataclass

import numpy as np

from .fbm import (
    HurstParameter,
    IncrementGrid,
    _chunk_rows,
    _fgn_covariance_seq,
    _increment_chunks,
    fgn_covariance,
    increment_covariance,
    mode_keys,
)
from .experiments import fit_slope
from .parallel import parallel_map
from .rng import SAMPLE_STREAM, derive_seed
from .solver import (
    SolverConfig,
    _check_presets,
    _require_finite,
    _sample_blocks,
    _solve_presets,
    _unit_increments,
    restrict_config,
)

__all__ = [
    "IsometryCheck",
    "PhiCellCheck",
    "RegularityReport",
    "SpaceRegularityReport",
    "check_ito_isometry",
    "check_lambda_phi_bound",
    "check_phi_cell_integral",
    "estimate_space_regularity",
    "estimate_time_regularity",
    "expected_increment_rms",
    "expected_sobolev_rms",
    "expected_spatial_rms_errors",
    "expected_temporal_rms_errors",
    "linear_endpoint_moments",
    "phi_cell_quadrature",
]


# ---------------------------------------------------------------------------
# quadrature helpers


def _gauss_legendre_01(n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return (x + 1.0) / 2.0, w / 2.0


def phi_cell_quadrature(i: int, j: int, h: HurstParameter,
                        n_nodes: int = 32) -> float:
    """Numerical value of the phi cell integral, off-diagonal only.

    Offsets k >= 2 are smooth on the closed cell and use a tensor
    Gauss-Legendre rule. The k = 1 cell touches the kernel singularity
    at one corner, where Gauss-Legendre alone cannot reach 1e-6
    relative accuracy near H = 1/2; that cell is split along the
    diagonal (Duffy substitution u = sigma*y), which factors the
    singular power into a Gauss-Jacobi weight and leaves smooth factors.
    """
    k = abs(i - j)
    if k == 0:
        raise ValueError("quadrature is for off-diagonal cells only")
    p = 2.0 * h.h
    if k >= 2:
        x, w = _gauss_legendre_01(n_nodes)
        diff = x[:, None] - x[None, :] + k
        return float(h.alpha_h * w @ np.abs(diff) ** (p - 2.0) @ w)
    # k = 1: cell integral equals int_{[0,1]^2} alpha_H (w + y)^{2H-2} dw dy
    # scipy is imported by the two quadrature checks only, not on import
    from scipy.special import roots_jacobi

    xj, wj = roots_jacobi(n_nodes, 0.0, p - 1.0)  # weight (1+x)^{2H-1}
    jac = 2.0 ** (-p) * np.sum(wj)  # int_0^1 y^{2H-1} dy
    xs, ws = _gauss_legendre_01(n_nodes)
    smooth = np.sum(ws * (1.0 + xs) ** (p - 2.0))
    return float(2.0 * h.alpha_h * jac * smooth)


@dataclass(frozen=True)
class PhiCellCheck:
    analytic: float
    quadrature: float | None
    bound: float | None  # 0.5 * max(i,j)^{2H-1}, defined for i != j


def check_phi_cell_integral(i: int, j: int,
                            h: HurstParameter) -> PhiCellCheck:
    """Closed form vs quadrature for one cell, plus the off-diagonal bound.

    The closed form of int_0^1 int_0^1 phi(u + i - v - j) du dv is 1 on
    the diagonal and the second difference 0.5[(k+1)^{2H} - 2k^{2H} +
    (k-1)^{2H}], k = |i-j|, off it: the unit-spacing fGn autocovariance at
    lag i - j.
    """
    if i < 0 or j < 0:
        raise ValueError("cell indices must be >= 0")
    analytic = fgn_covariance(i - j, h)
    if i == j:
        return PhiCellCheck(analytic=analytic, quadrature=None, bound=None)
    bound = 0.5 * max(i, j) ** (2.0 * h.h - 1.0)
    return PhiCellCheck(analytic=analytic,
                        quadrature=phi_cell_quadrature(i, j, h), bound=bound)


def check_lambda_phi_bound(lam: float, t: float, kappa1: int, kappa2: int,
                           h: HurstParameter, n_nodes: int = 48) -> float:
    """Scaled integral lambda^{2H+k1+k2} iint u^k1 v^k2 e^{-lambda(u+v)} phi(u-v).

    Uniform boundedness in lambda (for fixed kappas) is the content of
    the identity under test; the harness asserts a plateau across
    lambda decades. The
    u < v triangle is mapped by u = v*r, putting the kernel singularity
    into a Gauss-Jacobi weight (1-r)^{2H-2} and reducing the v-integral
    to a lower incomplete gamma; the u > v triangle is the same with the
    kappas swapped.
    """
    if kappa1 not in (0, 1) or kappa2 not in (0, 1):
        raise ValueError("kappa exponents must be 0 or 1")
    if not (lam > 0 and t > 0):
        raise ValueError("lambda and t must be positive")
    # scipy is imported by the two quadrature checks only, not on import
    from scipy.special import gammainc, gammaln, roots_jacobi

    p = 2.0 * h.h
    a = p - 1.0 + kappa1 + kappa2  # v-exponent after the substitution
    xj, wj = roots_jacobi(n_nodes, p - 2.0, 0.0)  # weight (1-x)^{2H-2}
    r = (xj + 1.0) / 2.0
    mu = lam * (1.0 + r)
    inner = np.exp(gammaln(a + 1.0)) * gammainc(a + 1.0, mu * t) / mu ** (
        a + 1.0
    )
    jacobi_scale = 2.0 ** (-(p - 2.0) - 1.0)
    tri1 = h.alpha_h * jacobi_scale * np.sum(wj * r**kappa1 * inner)
    tri2 = h.alpha_h * jacobi_scale * np.sum(wj * r**kappa2 * inner)
    return float(lam ** (p + kappa1 + kappa2) * (tri1 + tri2))


# ---------------------------------------------------------------------------
# Ito isometry for step integrands


@dataclass(frozen=True)
class IsometryCheck:
    mc_lhs: float
    analytic_rhs: float
    std_error: float


def isometry_analytic_rhs(psis: list, grid: IncrementGrid,
                          h: HurstParameter) -> float:
    """sum_{i,j} <Psi_i, Psi_j>_HS E[dW_i dW_j] for a step integrand."""
    m = len(psis)
    if m != grid.m_steps:
        raise ValueError("one integrand matrix per grid interval required")
    total = 0.0
    for i in range(m):
        for j in range(m):
            frob = float(np.sum(psis[i] * psis[j]))
            total += frob * increment_covariance(i, j, grid, h)
    return total


def check_ito_isometry(psis: list, grid: IncrementGrid, h: HurstParameter,
                       samples: int, seed: int,
                       method: str = "cholesky") -> IsometryCheck:
    """Monte Carlo E||sum_i Psi_i dW_i||^2 against the analytic value.

    Each Psi_i maps the first K noise modes into R^d; all matrices must
    share one shape. The harness asserts |mc - analytic| <= 3 std errors.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    shapes = {p.shape for p in psis}
    if len(shapes) != 1:
        raise ValueError("all integrand matrices must share one shape")
    (d, k_modes), = shapes
    stacked = np.stack(psis)  # (m, d, k)
    sq = np.empty(samples)
    # sample s is generate_cylindrical_fbm(k_modes, grid, h, seed_s,
    # method), seed_s = derive_seed(seed, SAMPLE_STREAM, s); the rows are
    # drawn sample-major, a group of whole samples at a time
    sample_seeds = derive_seed(seed, SAMPLE_STREAM, np.arange(samples))
    for lo, rows in _increment_chunks(
            grid, h, mode_keys(sample_seeds, k_modes).T.ravel(), method,
            _chunk_rows(grid.m_steps, method, k_modes)):
        for s, values in enumerate(rows.reshape(-1, k_modes, grid.m_steps),
                                   lo // k_modes):
            v = np.einsum("idk,ki->d", stacked, values)
            sq[s] = v @ v
    mc = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(samples))
    return IsometryCheck(mc_lhs=mc,
                         analytic_rhs=isometry_analytic_rhs(psis, grid, h),
                         std_error=se)


# ---------------------------------------------------------------------------
# exact second moments of the linear scheme (Toeplitz quadratic forms)


def _toeplitz_matvec(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma @ v for the symmetric Toeplitz matrix with first row gamma."""
    m = gamma.size
    first_row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    out = np.fft.irfft(np.fft.rfft(first_row) * np.fft.rfft(v, 2 * m),
                       2 * m)
    return out[:m]


def toeplitz_bilinear(gamma: np.ndarray, u: np.ndarray,
                      v: np.ndarray) -> float:
    """u^T Gamma v with Gamma_{ij} = gamma[|i-j|]."""
    return float(u @ _toeplitz_matvec(gamma, v))


def _toeplitz_quadratic_form(gamma: np.ndarray):
    """The map d -> d^T Gamma d, Gamma_{ij} = gamma[|i-j|], one rfft per call.

    Gamma is the leading block of the symmetric circulant whose first row
    is (gamma, 0, gamma reversed without gamma[0]) (Dietrich & Newsam
    1997). The circulant's eigenvalues are the real rfft of that row, so
    d^T Gamma d = sum_k s_k |D_k|^2 / (2m) with D the FFT of d padded to
    2m; on the rfft half every k other than 0 and m counts twice.
    """
    m = gamma.size
    first_row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    weights = np.fft.rfft(first_row).real / (2 * m)
    weights[1:m] *= 2.0

    def form(d: np.ndarray) -> float:
        spec = np.fft.rfft(d, 2 * m)
        return float(weights @ (spec.real**2 + spec.imag**2))

    return form


def _linear_response(config: SolverConfig):
    """(lambda, phi, xi, Toeplitz form) of the F = 0 scheme on config's grid.

    Every endpoint statistic of the linear scheme is a quadratic form in
    the grid's increments, whose covariance the returned form applies.
    """
    n = config.n_modes
    gamma = config.tau ** (2.0 * config.hurst.h) * _fgn_covariance_seq(
        config.m_steps - 1, config.hurst
    )
    return (config.operator.eigenvalues[:n], config.noise.amplitudes[:n],
            config.initial.coeffs[:n], _toeplitz_quadratic_form(gamma))


def _resolvent_weights(r: float, m: int) -> np.ndarray:
    """Weights r^{m-i}, i = 0..m-1: one mode's noise response after m steps."""
    return r ** np.arange(m, 0, -1)


def linear_endpoint_moments(config: SolverConfig):
    """Exact per-mode (mean, variance) of the F = 0 scheme endpoint."""
    lam, phi, xi, form = _linear_response(config)
    m = config.m_steps
    r = 1.0 / (1.0 + config.tau * lam)
    means = r**m * xi
    variances = np.array([phi[i] ** 2 * form(_resolvent_weights(r[i], m))
                          for i in range(lam.size)])
    return means, variances


def expected_sobolev_rms(config: SolverConfig, delta: float) -> float:
    """Exact L^2(Omega; V_delta) norm of the F = 0 scheme endpoint."""
    means, variances = linear_endpoint_moments(config)
    lam = config.operator.eigenvalues[: config.n_modes]
    return float(np.sqrt(np.sum(lam**delta * (means**2 + variances))))


def expected_spatial_rms_errors(template: SolverConfig,
                                ladder: list) -> np.ndarray:
    """Exact coupled-noise spatial errors ||X_ref - X_N|| for F = 0.

    With nested noise and F = 0 the first N modes cancel exactly, so the
    error is the reference's energy in modes N+1..N_ref.
    """
    means, variances = linear_endpoint_moments(template)
    second = means**2 + variances
    return np.array([np.sqrt(np.sum(second[n:])) for n in ladder])


def _coarse_rms_errors(template: SolverConfig, ladder: list,
                       reference) -> np.ndarray:
    """Exact RMS errors of coarse scheme runs against a linear reference.

    The ladder run at step ratio q weights fine increment j of a mode by
    r_c^{M - (j // q)} and its initial coefficient by r_c^M;
    ``reference(lambda_n)`` returns the reference's (increment weights,
    initial weight) for one mode. Each error is a Toeplitz quadratic form
    in the weight difference, summed over modes.
    """
    lam, phi, xi, form = _linear_response(template)
    m_fine = template.m_steps
    for m in ladder:
        if m_fine % m:
            raise ValueError(f"ladder step count {m} does not divide "
                             f"{m_fine}")
    err2 = np.zeros(len(ladder))
    for i in range(lam.size):
        w_ref, decay_ref = reference(lam[i])
        for k, m in enumerate(ladder):
            q = m_fine // m
            r_c = 1.0 / (1.0 + (template.tau * q) * lam[i])
            d = phi[i] * (w_ref - np.repeat(_resolvent_weights(r_c, m), q))
            err2[k] += form(d) + ((decay_ref - r_c**m) * xi[i]) ** 2
    return np.sqrt(err2)


def expected_temporal_rms_errors(template: SolverConfig,
                                 ladder: list) -> np.ndarray:
    """Exact coupled-noise temporal errors ||X_{M} - X_{M_ref}|| for F = 0.

    Both resolutions are linear maps of the same fine increments: the
    reference weights each fine increment j by r_f^{M_ref - j}; the
    ladder run at step ratio q weights it by r_c^{M - (j // q)}. The
    error is then a Toeplitz quadratic form in the weight difference.
    """
    m_ref = template.m_steps

    def reference(lam_n):
        r_fine = 1.0 / (1.0 + template.tau * lam_n)
        return _resolvent_weights(r_fine, m_ref), r_fine**m_ref

    return _coarse_rms_errors(template, ladder, reference)


def expected_mild_rms_errors(template: SolverConfig,
                             ladder: list) -> np.ndarray:
    """Exact coupled-noise errors of the scheme against the mild oracle.

    The template's grid is the fine one driving linear_mild_reference;
    ladder entries are coarse step counts run by the scheme on
    aggregated increments. Both are linear maps of the same fine
    increments, the mild side weighting increment j by
    exp(-lambda (T - j tau_f)).
    """
    t_end = template.horizon
    lags = t_end - np.arange(template.m_steps) * template.tau

    def reference(lam_n):
        return np.exp(-lam_n * lags), np.exp(-lam_n * t_end)

    return _coarse_rms_errors(template, ladder, reference)


def expected_increment_rms(config: SolverConfig, lag_steps: list,
                           delta: float) -> np.ndarray:
    """Exact L^2(Omega; V_delta) norm of X(T) - X(T - L*tau), F = 0."""
    lam, phi, xi, form = _linear_response(config)
    m = config.m_steps
    for lag in lag_steps:
        if not 1 <= lag < m:
            raise ValueError(f"lag {lag} out of range [1, {m})")
    r = 1.0 / (1.0 + config.tau * lam)
    total = np.zeros(len(lag_steps))
    for i in range(lam.size):
        w_end = _resolvent_weights(r[i], m)
        for k, lag in enumerate(lag_steps):
            w_lag = np.zeros(m)
            w_lag[: m - lag] = _resolvent_weights(r[i], m - lag)
            d = phi[i] * (w_end - w_lag)
            mean_diff = (r[i] ** m - r[i] ** (m - lag)) * xi[i]
            total[k] += lam[i] ** delta * (form(d) + mean_diff**2)
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# empirical regularity of the discrete solution


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Fitted temporal Hölder exponent of the discrete solution in V_delta."""

    delta: float
    lag_times: np.ndarray
    rms_differences: np.ndarray
    fitted_exponent: float
    theoretical_exponent: float
    sample_count: int


def estimate_time_regularity(configs, delta: float, lag_steps: list,
                             samples: int, workers: int = 1) -> list:
    """Monte Carlo RMS of ||X(T) - X(T - L tau)||_{V_delta} and its exponent.

    ``configs`` is a sequence of configs that agree in everything but
    ``noise`` (else ValueError naming the first field that differs); one
    report is returned per config, in order. Every preset is driven by
    the same fBm samples, drawn once per block (solver._solve_presets):
    a config's report is the one it gets alone, bit for bit.

    Lags should be >= 8 steps so the scheme's own discretization bias is
    subdominant to the Hölder scaling being measured.
    """
    configs = _check_presets(configs)
    config = configs[0]
    lag_steps = sorted(int(lag) for lag in lag_steps)
    if len(lag_steps) < 3:
        raise ValueError("need at least 3 lags to fit an exponent")
    if lag_steps[0] < 1 or lag_steps[-1] >= config.m_steps:
        raise ValueError("lags must lie inside the trajectory")
    args = [(configs, tuple(lag_steps), delta, first, seeds)
            for first, seeds in _sample_blocks(config, samples,
                                                config.base_seed)]
    # (P, samples, lags) in C order, so each preset's mean over samples
    # adds them in the order of a one-preset (samples, lags) array
    sq = np.concatenate(parallel_map(_time_regularity_block, args, workers),
                        axis=1)
    lag_times = config.tau * np.array(lag_steps, dtype=float)
    reports = []
    for preset, preset_sq in zip(configs, sq):
        rms = np.sqrt(preset_sq.mean(axis=0))
        theory = (2.0 * preset.hurst.h + preset.noise.beta - 1.0
                  - delta) / 2.0
        reports.append(RegularityReport(
            delta=delta,
            lag_times=lag_times,
            rms_differences=rms,
            fitted_exponent=fit_slope(lag_times, rms)[0],
            theoretical_exponent=theory,
            sample_count=samples,
        ))
    return reports


def _weighted_sums(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_n weights[n] * states[..., n, p, s]**2 as a (P, B, ...) array.

    The terms are laid out (P, B, ..., N), n along a contiguous last
    axis, so each sum is numpy's pairwise sum of one row: the bits of
    float(np.sum(weights * states[..., :, p, s] ** 2)) per entry.
    """
    terms = np.ascontiguousarray(np.moveaxis(states, (-2, -1), (0, 1)))
    return np.sum(weights * terms**2, axis=-1)


def _time_regularity_block(args) -> np.ndarray:
    """Squared V_delta lag differences, (P, B, lags), of one block of
    samples under each of the P configs."""
    configs, lag_steps, delta, first, seeds = args
    m = configs[0].m_steps
    stops = [m - lag for lag in reversed(lag_steps)] + [m]
    states = _solve_presets(configs, _unit_increments(configs[0], seeds),
                            stops)  # (stops, N, P, B)
    _require_finite(states, first)
    weights = configs[0].operator.eigenvalues[: configs[0].n_modes] ** delta
    diffs = states[-1] - states[-2::-1]  # (lags, N, P, B), lag_steps order
    return _weighted_sums(weights, diffs)


@dataclass(frozen=True, eq=False)
class SpaceRegularityReport:
    """RMS Sobolev norms of the endpoint across a mode-refinement ladder."""

    delta: float
    n_ladder: list
    rms_norms: np.ndarray
    sample_count: int

    def growth_ratio(self) -> float:
        """Top-of-ladder norm over bottom-of-ladder norm."""
        return float(self.rms_norms[-1] / self.rms_norms[0])


def _space_regularity_block(args) -> np.ndarray:
    """Squared Sobolev norms, (P, B, deltas, rungs), of one block of
    samples under each of the P configs; every rung reads the leading
    modes of the same increments."""
    configs, n_ladder, deltas, first, seeds = args
    dw = _unit_increments(configs[0], seeds)
    lam = configs[0].operator.eigenvalues[: configs[0].n_modes]
    out = np.empty((len(configs), len(seeds), len(deltas), len(n_ladder)))
    for j, n in enumerate(n_ladder):
        end = _solve_presets([restrict_config(c, n_modes=n) for c in configs],
                             dw[:, :n, :], (configs[0].m_steps,))[0]
        _require_finite(end, first)
        for i, delta in enumerate(deltas):
            out[:, :, i, j] = _weighted_sums(lam[:n] ** delta, end)
    return out


def estimate_space_regularity(configs, n_ladder: list, deltas: list,
                              samples: int, workers: int = 1) -> list:
    """Monte Carlo RMS Sobolev norms across a nested mode ladder.

    ``configs`` is a sequence of configs that agree in everything but
    ``noise`` (else ValueError naming the first field that differs).
    Returns, per config in order, one report per requested delta; each
    is the one the config gets alone, bit for bit.

    One noise draw per sample drives every rung (mode nesting), so the
    per-sample norm ladders are monotone by construction and the growth
    ratios carry very little sampling noise.
    """
    configs = _check_presets(configs)
    template = configs[0]
    n_ladder = sorted(int(n) for n in n_ladder)
    if n_ladder[-1] > template.n_modes:
        raise ValueError("ladder exceeds the template's mode count")
    args = [(configs, tuple(n_ladder), tuple(deltas), first, seeds)
            for first, seeds in _sample_blocks(template, samples,
                                                template.base_seed)]
    # (P, samples, deltas, rungs)
    sq = np.concatenate(parallel_map(_space_regularity_block, args, workers),
                        axis=1)
    return [
        [SpaceRegularityReport(delta=float(d), n_ladder=list(n_ladder),
                               rms_norms=rms[i], sample_count=samples)
         for i, d in enumerate(deltas)]
        for rms in (np.sqrt(preset_sq.mean(axis=0)) for preset_sq in sq)
    ]
