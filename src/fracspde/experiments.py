"""Coupled-noise Monte Carlo convergence studies and their reports.

One driving noise path per sample is shared across every resolution in
the ladder: temporal refinement couples by increment aggregation,
spatial refinement by mode nesting. Discretization error is therefore
isolated from sampling error, at the cost of a reference-contamination
term that shrinks with the reference ratio (see the analysis notes in
the README for why the fixed desk protocols overshoot the asymptotic
slopes).

One runner serves both axes: run_study is one solver.sample_map call
with _rung_errors as its reducer, so reports are byte-identical for any
worker count given the same base seed.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fbm import HurstParameter
from .solver import SolverConfig, _check_rungs, sample_map
from .spectral import (
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    sine_map,
    trace_class_noise,
    zero_map,
    zero_noise,
)

__all__ = [
    "PROTOCOLS",
    "ConvergenceStudy",
    "ErrorReport",
    "fit_slope",
    "protocol_study",
    "rms_error",
    "run_study",
    "she_problem",
    "write_json",
    "write_report",
    "write_rows",
]

SHE_PRESETS = ("she-identity", "she-trace")


def she_problem(preset: str, n_modes: int, m_steps: int,
                base_seed: int, horizon: float = 1.0, hurst: float = 0.75,
                fbm_method: str = "circulant", with_nonlinearity: bool = True,
                with_noise: bool = True) -> SolverConfig:
    """Stochastic heat equation test problem on (0,1).

    du = u_xx dt + sin(u) dt + Q^{1/2} dW^H, u(0) = sin(pi x), Dirichlet
    boundary. preset she-identity takes Q = I (beta = 1/2 supremal);
    she-trace takes Q e_1 = 0, Q e_n = (n log(n)^2)^{-1} e_n (beta = 1).
    """
    if preset not in SHE_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; use one of {SHE_PRESETS}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if with_noise:
        noise = (identity_noise(n_modes) if preset == "she-identity"
                 else trace_class_noise(n_modes))
    else:
        noise = zero_noise(n_modes)
    coeffs = np.zeros(n_modes)
    coeffs[0] = 1.0 / math.sqrt(2.0)  # <sin(pi x), sqrt(2) sin(pi x)>
    return SolverConfig(
        n_modes=n_modes,
        m_steps=m_steps,
        horizon=horizon,
        hurst=HurstParameter(hurst),
        operator=dirichlet_laplacian(n_modes),
        noise=noise,
        nonlinearity=sine_map() if with_nonlinearity else zero_map(),
        initial=SpectralState(coeffs=coeffs),
        base_seed=base_seed,
        fbm_method=fbm_method,
    )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """One resolution-ladder experiment against a finer reference.

    ``problem`` is the SolverConfig at the reference resolution (N, M),
    and its base_seed seeds the samples. Each ladder entry is a rung
    (n, q) of solver._solve_block (``rungs``): the first n modes, driven
    by the fine increments summed q at a time.
    """

    axis: str  # "temporal" | "spatial"
    ladder: tuple
    samples: int
    problem: SolverConfig

    def __post_init__(self):
        if self.axis not in ("temporal", "spatial"):
            raise ValueError(f"axis must be temporal or spatial, not"
                             f" {self.axis!r}")
        ladder = tuple(int(x) for x in self.ladder)
        if not ladder or sorted(set(ladder)) != list(ladder):
            raise ValueError("ladder must be a nonempty strictly increasing"
                             " sequence")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        object.__setattr__(self, "ladder", ladder)
        if self.axis == "temporal":
            for m in ladder + (self.problem.m_steps,):
                if not _is_power_of_two(m):
                    raise ValueError(f"temporal resolutions must be powers "
                                     f"of two, got {m}")
        _check_rungs(self.problem, self.rungs)

    @property
    def rungs(self) -> list:
        """The ladder as solver._solve_block rungs (n, q): temporal m is
        (N, M // m), spatial n is (n, 1)."""
        n_ref, m_ref = self.problem.n_modes, self.problem.m_steps
        if self.axis == "temporal":
            return [(n_ref, m_ref // m) for m in self.ladder]
        return [(n, 1) for n in self.ladder]


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-rung rms errors of one study and their log-log slope fit.

    ``theoretical_slope`` is the paper's asymptotic exponent for the
    study's axis. It is not the slope a finite protocol is expected to
    fit: the exact expectation of the F = 0 scheme on the same protocol
    comes from ``verify.expected_rms_errors(problem, study.rungs)`` and
    can lie well above it (README, "Desk-scale protocols vs asymptotic
    rates").
    """

    resolutions: np.ndarray
    rms_errors: np.ndarray
    std_errors: np.ndarray
    fitted_slope: float
    slope_confidence_halfwidth: float
    theoretical_slope: float
    metadata: dict = field(default_factory=dict)


def rms_error(per_sample_errors: np.ndarray):
    """(sqrt(mean e^2), delta-method standard error of that rms)."""
    e = np.asarray(per_sample_errors, dtype=float)
    if e.size < 2:
        raise ValueError("rms_error needs at least 2 samples")
    sq = e**2
    rms = math.sqrt(sq.mean())
    se_mean_sq = sq.std(ddof=1) / math.sqrt(sq.size)
    return rms, (0.0 if rms == 0.0 else se_mean_sq / (2.0 * rms))


def fit_slope(xs: np.ndarray, ys: np.ndarray):
    """(OLS slope of log ys on log xs, 2x its standard error)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("fit_slope needs at least 3 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("fit_slope needs strictly positive values")
    if xs.min() == xs.max():
        raise ValueError("fit_slope needs at least 2 distinct abscissae")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    sxx = dx @ dx
    slope = dx @ (ly - ly.mean()) / sxx
    resid = (ly - ly.mean()) - slope * dx
    dof = xs.size - 2
    se = math.sqrt(max(resid @ resid, 0.0) / dof / sxx)
    return float(slope), 2.0 * se


def _fit_or_nan(xs: np.ndarray, ys: np.ndarray):
    """fit_slope, degrading to (nan, nan) for unfittable ladders.

    Exact runs (zero error at some rung) and two-rung ladders are
    legitimate degenerate studies; the report then simply carries no
    slope.
    """
    try:
        return fit_slope(xs, ys)
    except ValueError:
        return math.nan, math.nan


def _rung_errors(config: SolverConfig, states: list) -> np.ndarray:
    """Per-sample errors, (P, B, rungs), of every rung after the first
    against the first, the reference (N, 1): sample_map's reducer for
    run_study."""
    ref = states[0][0]  # (N, P, B)
    errors = np.empty(ref.shape[1:] + (len(states) - 1,))
    for j, end in enumerate(states[1:]):
        for p in range(ref.shape[1]):
            diff = ref[:, p].copy()
            diff[:end.shape[1]] -= end[0, :, p]
            errors[p, :, j] = [np.linalg.norm(d) for d in diff.T]
    return errors


def _study_metadata(study: ConvergenceStudy, extra: dict) -> dict:
    p = study.problem
    temporal = study.axis == "temporal"
    meta = {
        "axis": study.axis,
        "ladder": list(study.ladder),
        "reference_resolution": p.m_steps if temporal else p.n_modes,
        "fixed_other_axis": p.n_modes if temporal else p.m_steps,
        "samples": study.samples,
        "base_seed": p.base_seed,
        "horizon": p.horizon,
        "hurst": p.hurst.h,
        "noise_kind": p.noise.kind,
        "noise_beta": p.noise.beta,
        "nonlinearity": p.nonlinearity.kind,
        "fbm_method": p.fbm_method,
        "noise_coupling": "shared driving path (aggregation / mode nesting)",
    }
    meta.update(extra)
    return meta


def run_study(study: ConvergenceStudy, workers: int = 1) -> ErrorReport:
    """Errors of every rung against the study's reference, on either axis.

    One solver.sample_map call over ``workers`` processes sweeps the
    reference (N, 1) and study.rungs on sample s's noise, drawn from
    derive_seed(study.problem.base_seed, SAMPLE_STREAM, s), and
    _rung_errors reduces them. A temporal slope is fitted against the
    step size tau, so its theoretical value is (2H + beta - 1)/2; a
    spatial one against N, reported as the positive decay order, so its
    theoretical value is 2H + beta - 1 (the lambda_{N+1} form doubled
    through lambda_N ~ N^2 pi^2). Both are the paper's asymptotic
    exponents, not the slopes a finite protocol is expected to fit: for
    those, fit ``verify.expected_rms_errors(problem, study.rungs)`` on
    the same ladder, with the problem's F set to 0.
    """
    p = study.problem
    errors, = sample_map([p], study.samples, [(p.n_modes, 1)] + study.rungs,
                         (p.m_steps,), _rung_errors, workers=workers)
    stats = [rms_error(errors[:, i]) for i in range(len(study.ladder))]
    rms = np.array([s[0] for s in stats])
    ses = np.array([s[1] for s in stats])
    order = 2.0 * p.hurst.h + p.noise.beta - 1.0
    ladder = np.array(study.ladder, dtype=float)
    if study.axis == "temporal":
        slope, halfwidth = _fit_or_nan(p.horizon / ladder, rms)
        theo, extra = order / 2.0, {"slope_axis": "tau"}
    else:
        slope, halfwidth = _fit_or_nan(ladder, rms)
        slope, theo = -slope, order
        extra = {"slope_axis": "n_modes", "slope_sign": "decay order"}
    return ErrorReport(
        resolutions=np.array(study.ladder),
        rms_errors=rms,
        std_errors=ses,
        fitted_slope=slope,
        slope_confidence_halfwidth=halfwidth,
        theoretical_slope=theo,
        metadata=_study_metadata(study, extra),
    )


# ---------------------------------------------------------------------------
# protocol presets

# (axis, scale) -> (N, M, ladder, default samples) of the pinned protocols;
# the reference resolution is M (temporal) or N (spatial). The temporal
# reference ratio is 4 at both scales, and at tau = 1/200 implicit Euler
# damps every mode n >= 5, so the exact F = 0 expected slopes
# (``verify.expected_rms_errors(problem, study.rungs)``) lie above the
# asymptotic ``theoretical_slope`` of the report:
# 0.969 (trace) / 0.627 (identity) for desk temporal against 0.75 / 0.50,
# 0.998 / 0.628 for paper temporal, and 2.097 / 1.247 for spatial at both
# scales against 1.5 / 1.0.
PROTOCOLS = {
    ("temporal", "desk"): (2**6, 2**12, (64, 128, 256, 512, 1024), 50),
    ("temporal", "paper"): (2**7, 2**14, (256, 512, 1024, 2048, 4096), 100),
    ("spatial", "desk"): (2**9, 200, (2, 4, 8, 16, 32), 50),
    ("spatial", "paper"): (2**12, 200, (2, 4, 8, 16, 32), 100),
}


def protocol_study(axis: str, scale: str, preset: str, base_seed: int,
                   samples: int | None = None,
                   fbm_method: str = "circulant") -> ConvergenceStudy:
    """The pinned protocol PROTOCOLS[(axis, scale)] for one SHE preset;
    ``samples`` defaults to the protocol's count."""
    n, m, ladder, default = PROTOCOLS[(axis, scale)]
    problem = she_problem(preset, n_modes=n, m_steps=m, base_seed=base_seed,
                          fbm_method=fbm_method)
    return ConvergenceStudy(axis=axis, ladder=ladder,
                            samples=default if samples is None else samples,
                            problem=problem)


# ---------------------------------------------------------------------------
# persistence


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite_or_null(x: float):
    """x as a JSON number, or None (null) if it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def write_rows(path, rows, header=None) -> None:
    """One CSV line per row of ``rows``, after the ``header`` line if
    given, each written as it is formatted: the text of all rows would
    take several times their values' memory. Every value prints in
    _fmt's 17 significant digits, so an integral one prints as an
    integer ("64")."""
    with Path(path).open("w") as out:
        if header is not None:
            out.write(header + "\n")
        out.writelines(",".join(map(_fmt, row.tolist())) + "\n"
                       for row in rows)


def write_json(path, payload) -> None:
    """``payload`` as strict JSON, keys sorted and indented, and a final
    newline: ValueError, with nothing written, if it holds a NaN or an
    infinity."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     allow_nan=False) + "\n")


def write_report(report: ErrorReport, out_dir, basename: str):
    """Write <basename>.csv and <basename>.json under out_dir.

    Contents carry no wall-clock data, so reruns with the same seed are
    byte-identical; timestamps belong to the run manifest. The JSON is
    strict: an unfitted ladder's slope and its halfwidth are null.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{basename}.csv"
    write_rows(csv_path, np.column_stack((report.resolutions,
                                          report.rms_errors,
                                          report.std_errors)),
               "resolution,rms_error,std_error")

    json_path = out / f"{basename}.json"
    payload = {
        "resolutions": [int(r) for r in report.resolutions],
        "rms_errors": [float(x) for x in report.rms_errors],
        "std_errors": [float(x) for x in report.std_errors],
        "fitted_slope": _finite_or_null(report.fitted_slope),
        "slope_confidence_halfwidth": _finite_or_null(
            report.slope_confidence_halfwidth),
        "theoretical_slope": float(report.theoretical_slope),
        "metadata": report.metadata,
    }
    write_json(json_path, payload)
    return csv_path, json_path
