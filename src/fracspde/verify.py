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

A form is evaluated on the weights' support only. A mode's weights
decay geometrically back from the last increment, and
solver.linear_support bounds how many trailing ones are at least 2^-64
of the largest; a weight difference is evaluated on its last L entries,
L the least power of two covering both supports (or M). Because fGn is
stationary, the covariance of those increments is the leading L x L
block of the grid's, the Toeplitz matrix of gamma[:L]. The form of the
difference d = h + t (h the dropped head, t the kept tail) then moves by
2 h^T Gamma t + h^T Gamma h, where every entry of h is below 2^-64 of
the larger weight vector's largest; at the shapes of criterion 8 and of
the desk and resolved temporal protocols the oracles moved by at most
2.1e-16 relative from their full-length forms (tested within 1e-14).

One builder, _unit_forms, serves every oracle: the forms of a
reference's weights minus those of the scheme at step ratio q on
M - lag steps, shifted back by lag, plus the reference's own. They are
evaluated on unit-amplitude weights and scaled by phi_n^2 per preset.
They depend only on the eigenvalues, the grid (tau, M, H), the
reference and the (q, lag) specs, so _unit_forms caches them
(fbm.clear_caches empties it): a second preset on the same grid runs no
FFT.
"""

from dataclasses import dataclass

import numpy as np

from .fbm import (
    HurstParameter,
    IncrementGrid,
    _bounded_cache,
    _fgn_covariance_seq,
    fgn_covariance,
    increment_covariance,
    increment_rows,
    mode_keys,
)
from .experiments import fit_slope
from .rng import SAMPLE_STREAM, derive_seed
from .solver import (
    SolverConfig,
    _check_presets,
    _check_rungs,
    linear_support,
    linear_weights,
    sample_map,
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
    "expected_rms_errors",
    "expected_sobolev_rms",
    "linear_endpoint_moments",
    "phi_cell_quadrature",
]


# ---------------------------------------------------------------------------
# quadrature helpers


def _gauss_legendre_01(n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return (x + 1.0) / 2.0, w / 2.0


def phi_cell_quadrature(i: int, j: int, h: HurstParameter) -> float:
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
    n_nodes = 32  # Gauss nodes per axis
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
                           h: HurstParameter) -> float:
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
    xj, wj = roots_jacobi(48, p - 2.0, 0.0)  # weight (1-x)^{2H-2}
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
    shapes = {np.shape(p) for p in psis}
    if len(shapes) != 1 or len(min(shapes)) != 2:
        raise ValueError("integrand matrices must be 2-d and share one shape")
    total = 0.0
    for i in range(m):
        for j in range(m):
            frob = float(np.sum(psis[i] * psis[j]))
            total += frob * increment_covariance(i, j, grid, h)
    return total


# Size of one isometry block's increments, B*K*M doubles: the draw's
# memory does not grow with the sample count.
_ISOMETRY_BLOCK_BYTES = 2**20


def check_ito_isometry(psis: list, grid: IncrementGrid, h: HurstParameter,
                       samples: int, seed: int,
                       method: str = "cholesky") -> IsometryCheck:
    """Monte Carlo E||sum_i Psi_i dW_i||^2 against the analytic value.

    Each Psi_i maps the first K noise modes into R^d: one (d, K) matrix
    per grid interval, checked by isometry_analytic_rhs before any draw.
    The harness asserts |mc - analytic| <= 3 std errors. Sample s draws
    from seed_s = derive_seed(seed, SAMPLE_STREAM, s); a fixed block of
    samples is one increment_rows call on its sample-major keys
    mode_keys(block, K).T, so the result does not depend on the block
    size.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rhs = isometry_analytic_rhs(psis, grid, h)
    k_modes = np.shape(psis[0])[1]
    stacked = np.stack(psis)  # (m, d, k)
    sq = np.empty(samples)
    sample_seeds = derive_seed(seed, SAMPLE_STREAM, np.arange(samples))
    size = max(1, _ISOMETRY_BLOCK_BYTES // (8 * k_modes * grid.m_steps))
    for lo in range(0, samples, size):
        rows = increment_rows(
            grid, h, mode_keys(sample_seeds[lo:lo + size], k_modes).T, method)
        for s, values in enumerate(rows, lo):
            v = np.einsum("idk,ki->d", stacked, values)
            sq[s] = v @ v
    mc = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(samples))
    return IsometryCheck(mc_lhs=mc, analytic_rhs=rhs, std_error=se)


# ---------------------------------------------------------------------------
# exact second moments of the linear scheme (Toeplitz quadratic forms)


def _toeplitz_quadratic_form(gamma: np.ndarray):
    """The map d -> d^T Gamma d, Gamma_{ij} = gamma[|i-j|], one rfft per call.

    Gamma is the leading block of the symmetric circulant whose first row
    is (gamma, 0, gamma reversed without gamma[0]) (Dietrich & Newsam
    1997). The circulant's eigenvalues are the real rfft of that row, so
    d^T Gamma d = sum_k s_k |D_k|^2 / (2m) with D the FFT of d padded to
    2m; on the rfft half every k other than 0 and m counts twice. The sum
    is numpy's pairwise one: a BLAS dot over that many bins changes its
    last bits with the BLAS thread count.
    """
    m = gamma.size
    first_row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    weights = np.fft.rfft(first_row).real / (2 * m)
    weights[1:m] *= 2.0

    def form(d: np.ndarray) -> float:
        # |D_k|^2 = re^2 + im^2, squared in place on the float pairs
        pairs = np.fft.rfft(d, 2 * m).view(float)
        pairs *= pairs
        power = pairs[0::2] + pairs[1::2]
        power *= weights
        return float(np.sum(power))

    return form


def _grid_form(tau: float, m_steps: int, hurst: HurstParameter):
    """The Toeplitz form of the increment covariance of a grid of m_steps
    steps of length tau.

    form(d) takes the weights of the last d.size increments only: fGn is
    stationary, so their covariance is the leading d.size block of the
    grid's. The form of each size is built on first use (at most
    ceil(log2 M) + 1 sizes; see _form_size).
    """
    gamma = tau ** (2.0 * hurst.h) * _fgn_covariance_seq(m_steps - 1, hurst)
    forms = {}

    def form(d: np.ndarray) -> float:
        if d.size not in forms:
            forms[d.size] = _toeplitz_quadratic_form(gamma[:d.size])
        return forms[d.size](d)

    return form


def _form_size(support: int, m_steps: int) -> int:
    """The length on which a form evaluates a weight difference whose
    entries before the last ``support`` are negligible: the least power
    of two at least ``support``, or m_steps if that is smaller."""
    return min(m_steps, 1 << (support - 1).bit_length())


@_bounded_cache
def _unit_forms(lam: bytes, tau: float, m_steps: int, hurst: HurstParameter,
                reference_ratio, specs: tuple, reads: tuple):
    """Two read-only (N, K + 1) arrays (forms, decays) of unit-amplitude
    F = 0 weights, cached by every value they depend on (the eigenvalues
    as bytes), so a second preset on the same grid builds no form.

    The reference is solver.linear_weights at ``reference_ratio`` on the
    grid's M steps (None: the mild solution). Column k < K is spec
    k = (q, lag), the scheme at step ratio q on M - lag steps shifted
    back by lag: forms[i, k] is the Toeplitz form of mode i's reference
    weights minus the spec's, on the support of both (_form_size), and
    decays[i, k] the difference of their weights of xi_i. Column K is
    the reference alone. Column k is built for the modes in
    range(*reads[k]) only, and is NaN elsewhere.
    """
    lam = np.frombuffer(lam)
    form = _grid_form(tau, m_steps, hurst)
    forms = np.full((lam.size, len(reads)), np.nan)
    decays = np.full((lam.size, len(reads)), np.nan)
    for i in range(lam.size):
        columns = [k for k, (lo, hi) in enumerate(reads) if lo <= i < hi]
        if not columns:
            continue
        ref_support = linear_support(lam[i], tau, m_steps, reference_ratio)
        sizes = []
        for k in columns:
            support = ref_support
            if k < len(specs):
                q, lag = specs[k]
                support = max(support, min(m_steps, lag + linear_support(
                    lam[i], tau, m_steps - lag, q)))
            sizes.append(_form_size(support, m_steps))
        w_ref, decay_ref = linear_weights(lam[i], tau, m_steps,
                                          reference_ratio, max(sizes))
        for k, size in zip(columns, sizes):
            w, decay = 0.0, 0.0  # column K: the reference alone
            if k < len(specs):
                q, lag = specs[k]
                w, decay = linear_weights(lam[i], tau, m_steps - lag, q,
                                          size - lag)
                if lag:
                    w = np.concatenate([w, np.zeros(lag)])
            # a temporary difference, freed before the next is made: one
            # kept alive made the criterion 8 oracle about 5% slower
            forms[i, k] = form(w_ref[w_ref.size - size:] - w)
            decays[i, k] = decay_ref - decay
    for array in (forms, decays):
        array.flags.writeable = False
    return forms, decays


def _response(config: SolverConfig, reference_ratio, specs, reads):
    """(lambda, phi, xi, forms, decays) of the F = 0 scheme on config's
    grid, the last two from _unit_forms."""
    n = config.n_modes
    lam = config.operator.eigenvalues[:n]
    forms, decays = _unit_forms(lam.tobytes(), config.tau, config.m_steps,
                                config.hurst, reference_ratio, tuple(specs),
                                tuple(reads))
    return (lam, config.noise.amplitudes[:n], config.initial.coeffs[:n],
            forms, decays)


def linear_endpoint_moments(config: SolverConfig):
    """Exact per-mode (mean, variance) of the F = 0 scheme endpoint."""
    _, phi, xi, forms, decays = _response(config, 1, (),
                                          ((0, config.n_modes),))
    return decays[:, 0] * xi, phi**2 * forms[:, 0]


def expected_sobolev_rms(config: SolverConfig, delta: float) -> float:
    """Exact L^2(Omega; V_delta) norm of the F = 0 scheme endpoint."""
    means, variances = linear_endpoint_moments(config)
    lam = config.operator.eigenvalues[: config.n_modes]
    return float(np.sqrt(np.sum(lam**delta * (means**2 + variances))))


def expected_rms_errors(template: SolverConfig, rungs,
                        reference_ratio=1) -> np.ndarray:
    """Exact coupled-noise RMS errors of F = 0 rungs against a reference.

    ``template`` is the reference resolution (N, M). Rung (n, q) is the
    scheme on the first n modes, driven by the fine increments summed q
    at a time (solver._solve_block); the reference is the scheme at step
    ratio ``reference_ratio`` (None: the mild solution). Both are linear
    maps of the fine increments, so a rung's squared error sums, below
    n, phi^2 times the form of the weight difference plus the initial
    value's term (0 where q is the reference's ratio), and from n on the
    reference's second moment (_unit_forms). ValueError on an empty
    list or a bad rung (solver._check_rungs).
    """
    n_ref = template.n_modes
    rungs = _check_rungs(template, rungs)
    ratios = list(dict.fromkeys(q for _, q in rungs if q != reference_ratio))
    reads = [(0, max(n for n, r in rungs if r == q)) for q in ratios]
    reads.append((min((n for n, _ in rungs), default=n_ref), n_ref))
    _, phi, xi, forms, decays = _response(
        template, reference_ratio, [(q, 0) for q in ratios], reads)
    terms = phi[:, None] ** 2 * forms + (decays * xi[:, None]) ** 2
    picked = np.zeros((n_ref, len(rungs)))
    for k, (n, q) in enumerate(rungs):
        if q != reference_ratio:
            picked[:n, k] = terms[:n, ratios.index(q)]
        picked[n:, k] = terms[n:, -1]
    err2 = np.zeros(len(rungs))
    for row in picked:  # mode by mode, in order, not np.sum's pairwise sum
        err2 += row
    return np.sqrt(err2)


def expected_mild_rms_errors(template: SolverConfig,
                             ladder: list) -> np.ndarray:
    """Exact coupled-noise errors of the scheme against the mild oracle.

    The template's grid is the fine one driving linear_mild_reference;
    ladder entries are coarse step counts run by the scheme on
    aggregated increments: expected_rms_errors at rungs (N, M // m)
    against the mild solution, which weights fine increment j by
    exp(-lambda (T - j tau_f)).
    """
    for m in ladder:
        if m < 1 or template.m_steps % m:
            raise ValueError(f"ladder step count {m} does not divide "
                             f"{template.m_steps}")
    return expected_rms_errors(
        template, [(template.n_modes, template.m_steps // m) for m in ladder],
        reference_ratio=None)


def expected_increment_rms(config: SolverConfig, lag_steps: list,
                           delta: float) -> np.ndarray:
    """Exact L^2(Omega; V_delta) norm of X(T) - X(T - L*tau), F = 0.

    X(T - L tau) is the scheme on M - L steps shifted back by L: spec
    (1, L) of _unit_forms against the fine scheme.
    """
    for lag in lag_steps:
        if not 1 <= lag < config.m_steps:
            raise ValueError(f"lag {lag} out of range [1, {config.m_steps})")
    n = config.n_modes
    lam, phi, xi, forms, decays = _response(
        config, 1, [(1, int(lag)) for lag in lag_steps],
        [(0, n)] * len(lag_steps) + [(n, n)])
    total = np.zeros(len(lag_steps))
    for i in range(lam.size):
        total += lam[i] ** delta * (phi[i] ** 2 * forms[i, :-1]
                                    + (decays[i, :-1] * xi[i]) ** 2)
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
    the same fBm samples, drawn once per block (solver.sample_map):
    a config's report is the one it gets alone, bit for bit for F = 0
    and the fast sine path. On the dense F = sin path the
    (n, P*B) product may have other last bits than a (n, B) one: with
    OpenBLAS and P = 2, states differed by up to 1.6e-16 of the largest
    at B = 2 to 4 from 16 modes, and at no mode count up to 511 at B = 1
    or 8.

    Lags should be >= 8 steps so the scheme's own discretization bias is
    subdominant to the Hölder scaling being measured.
    """
    configs = _check_presets(configs)
    config = configs[0]
    m = config.m_steps
    lag_steps = sorted(int(lag) for lag in lag_steps)
    if len(lag_steps) < 3:
        raise ValueError("need at least 3 lags to fit an exponent")
    if lag_steps[0] < 1 or lag_steps[-1] >= m:
        raise ValueError("lags must lie inside the trajectory")
    # (P, samples, lags) in C order, so each preset's mean over samples
    # adds them in the order of a one-preset (samples, lags) array
    sq = sample_map(configs, samples, [(config.n_modes, 1)],
                    [m - lag for lag in reversed(lag_steps)] + [m],
                    _lag_sums, (delta,), workers)
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


def _lag_sums(config: SolverConfig, states: list, delta: float):
    """Squared V_delta lag differences, (P, B, lags), from the states at
    stops M - L (lags L descending) and M: sample_map's reducer for
    estimate_time_regularity."""
    path, = states  # (stops, N, P, B)
    weights = config.operator.eigenvalues[:config.n_modes] ** delta
    diffs = path[-1] - path[-2::-1]  # (lags, N, P, B), lags ascending
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


def _norm_ladders(config: SolverConfig, states: list, deltas: tuple):
    """Squared Sobolev norms, (P, B, deltas, rungs), of the endpoint at
    every rung (n, 1): sample_map's reducer for
    estimate_space_regularity."""
    lam = config.operator.eigenvalues[:config.n_modes]
    p, b = states[0].shape[2:]
    out = np.empty((p, b, len(deltas), len(states)))
    for j, (end,) in enumerate(states):
        for i, delta in enumerate(deltas):
            out[:, :, i, j] = _weighted_sums(lam[:end.shape[0]] ** delta,
                                             end)
    return out


def estimate_space_regularity(configs, n_ladder: list, deltas: list,
                              samples: int, workers: int = 1) -> list:
    """Monte Carlo RMS Sobolev norms across a nested mode ladder.

    ``configs`` is a sequence of configs that agree in everything but
    ``noise`` (else ValueError naming the first field that differs).
    Returns, per config in order, one report per requested delta; each
    is the one the config gets alone, bit for bit but on the dense
    F = sin path, whose last bits may move (as in
    estimate_time_regularity).

    One noise draw per sample drives every rung (mode nesting), so the
    per-sample norm ladders are monotone by construction and the growth
    ratios carry very little sampling noise.
    """
    configs = _check_presets(configs)
    n_ladder = sorted(int(n) for n in n_ladder)
    # (P, samples, deltas, rungs)
    sq = sample_map(configs, samples, [(n, 1) for n in n_ladder],
                    (configs[0].m_steps,), _norm_ladders, (tuple(deltas),),
                    workers)
    return [
        [SpaceRegularityReport(delta=float(d), n_ladder=list(n_ladder),
                               rms_norms=rms[i], sample_count=samples)
         for i, d in enumerate(deltas)]
        for rms in (np.sqrt(preset_sq.mean(axis=0)) for preset_sq in sq)
    ]
