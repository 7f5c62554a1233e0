"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one `[PASS]`/`[FAIL]` line.

Criteria 5 and 6 run the pinned desk protocols (seeds, 50 samples,
ladders, F = sin, the 600 s budget) and judge each study against what
the paper proves and what the protocol is exactly expected to give.
The paper's bound C(N^-(2H+beta-1) + tau^((2H+beta-1)/2)) is an upper
bound; it does not say that a five-rung desk ladder fits that exponent.
On these protocols it does not: implicit Euler damps the modes with
tau*lambda_n > 1, the trace-class Q has a log^2 tail and the temporal
reference ratio is 4, so the exact F = 0 expected slopes are 0.969 /
0.627 (time) and 2.097 / 1.247 (space) against the asymptotic 0.75 /
0.50 and 1.5 / 1.0 (README, "Desk-scale protocols vs asymptotic
rates"). _judge_against_oracle therefore asserts, per study:

(a) every rung's rms error within 4 standard errors of the exact
    Toeplitz second-moment oracle (verify.expected_*_rms_errors) for the
    same protocol, the convention of test_experiments' oracle tests;
(b) the fitted slope within 3 Monte Carlo standard errors of the
    oracle's slope, the standard error propagated from the per-rung
    std_errors through the OLS weights (delta method);
(c) the fitted slope at least theoretical_slope - 0.10 (time) or
    - 0.15 (space): the stated tolerances, kept on the side the theorem
    promises.

(a) is what catches a wrong sampler or coupling: a study run at
H = 0.70 or 0.80 against the H = 0.75 oracle moves the slopes by only
0.013-0.047 but puts some rung 7 to 34 standard errors off.
test_oracle_judge_rejects_wrong_hurst shows the same rejection at a
reduced size.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from fracspde import fbm, verify
from fracspde.experiments import (
    ConvergenceStudy,
    ErrorReport,
    fit_slope,
    protocol_study,
    run_study,
    she_problem,
    write_report,
)
from fracspde.fbm import (
    HurstParameter,
    IncrementGrid,
    aggregate_cylindrical,
    generate_cylindrical_fbm,
    increment_covariance_matrix,
)
from fracspde.rng import SAMPLE_STREAM, derive_seed
from fracspde.solver import (
    linear_mild_reference,
    restrict_config,
    solve_endpoint,
)

H_GRID = [0.55, 0.75, 0.95]
H = HurstParameter(0.75)


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")


RUNG_Z_LIMIT = 4.0
SLOPE_Z_LIMIT = 3.0


@dataclass(frozen=True)
class OracleVerdict:
    """A convergence report judged against its exact F = 0 oracle."""

    fitted: float
    exact: float
    theoretical: float
    max_rung_z: float
    slope_z: float
    rung_ok: bool
    slope_ok: bool
    rate_ok: bool

    @property
    def passed(self) -> bool:
        return self.rung_ok and self.slope_ok and self.rate_ok

    def describe(self) -> str:
        return (f"slope {self.fitted:.4f} (exact {self.exact:.4f}, theory "
                f"{self.theoretical:.4f}), max rung |z| "
                f"{self.max_rung_z:.2f} (allow {RUNG_Z_LIMIT:g}), slope z "
                f"{self.slope_z:+.2f} (allow {SLOPE_Z_LIMIT:g})")


def _f0_oracle(study: ConvergenceStudy, preset: str,
               hurst: float = 0.75) -> np.ndarray:
    """Exact rms errors of the study's protocol with F = 0 at `hurst`."""
    p = study.problem
    linear = she_problem(preset, n_modes=p.n_modes, m_steps=p.m_steps,
                         base_seed=0, horizon=p.horizon, hurst=hurst,
                         with_nonlinearity=False)
    if study.axis == "temporal":
        return verify.expected_temporal_rms_errors(linear, list(study.ladder))
    return verify.expected_spatial_rms_errors(linear, list(study.ladder))


def _judge_against_oracle(report: ErrorReport, exact_errors: np.ndarray,
                          rate_tolerance: float) -> OracleVerdict:
    """Checks (a) rung, (b) slope and (c) rate of the module docstring.

    The report's slope is OLS in log-log against tau (temporal) or the
    decay order in N (spatial); the same weights give the oracle's
    slope and, from the per-rung std_errors by the delta method
    (rungs treated as independent), the slope's standard error.
    """
    if report.metadata["slope_axis"] == "tau":
        xs, sign = report.metadata["horizon"] / report.resolutions, 1.0
    else:
        xs, sign = report.resolutions.astype(float), -1.0
    dx = np.log(xs) - np.log(xs).mean()
    weights = sign * dx / (dx @ dx)
    exact_slope = float(weights @ np.log(exact_errors))
    slope_se = math.sqrt(float(np.sum(
        (weights * report.std_errors / report.rms_errors) ** 2
    )))
    rung_z = (report.rms_errors - exact_errors) / report.std_errors
    slope_z = (report.fitted_slope - exact_slope) / slope_se
    max_rung_z = float(np.abs(rung_z).max())
    return OracleVerdict(
        fitted=report.fitted_slope,
        exact=exact_slope,
        theoretical=report.theoretical_slope,
        max_rung_z=max_rung_z,
        slope_z=slope_z,
        rung_ok=max_rung_z <= RUNG_Z_LIMIT,
        slope_ok=abs(slope_z) <= SLOPE_Z_LIMIT,
        rate_ok=(report.fitted_slope
                 >= report.theoretical_slope - rate_tolerance),
    )


def _assert_verdicts(criterion: str, verdicts: dict, elapsed: float) -> None:
    passed = all(v.passed for v in verdicts.values()) and elapsed <= 600
    _report(criterion, passed,
            "; ".join(f"{preset} {v.describe()}"
                      for preset, v in verdicts.items())
            + f", {elapsed:.0f}s")
    assert elapsed <= 600
    for preset, v in verdicts.items():
        assert v.rung_ok, f"{preset}: a rung misses the oracle: {v.describe()}"
        assert v.slope_ok, (f"{preset}: slope misses the oracle's slope: "
                            f"{v.describe()}")
        assert v.rate_ok, (f"{preset}: slope below the proven rate: "
                           f"{v.describe()}")


def _batch_unit_fgn(method: str, m: int, h: HurstParameter, n_samples: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Vectorized draw of n_samples unit-spacing fGn vectors.

    The normals come from one shared stream (not per-row seeds), then go
    through the generators' own synthesis maps: the Cholesky factor, or
    fbm._synthesize_circulant on the whole (n_samples, 2m) batch.
    Batching keeps criterion 1 inside its runtime budget.
    """
    if method == "cholesky":
        factor = fbm._cholesky_factor(m, h)
        return rng.standard_normal((n_samples, m)) @ factor.T
    z = rng.standard_normal((n_samples, 2 * m))
    return fbm._synthesize_circulant(fbm._circulant_sqrt_eigs(m, h), z, m)


def test_criterion_1_fbm_exactness():
    """64-step sample covariance vs analytic, both methods, 3 H values.

    Entrywise 3-standard-error agreement with a multiple-comparison
    correction: 4096 correlated z-scores make ~11 exceedances of 3 SE
    certain for a perfect sampler and cluster up to ~60 on unlucky
    seeds, so the gates are the empirically calibrated caps (count <=
    80, max |z| <= 6, mean z^2 <= 4). A sampler whose H is off by just
    0.01 lands at (252, 21.6, 8.1): an order of magnitude beyond all
    three.
    """
    started = time.monotonic()
    n_samples = 100000
    m = 64
    worst = {"exceed": 0, "maxz": 0.0, "meansq": 0.0}
    grid = IncrementGrid(m_steps=m, tau=1.0 / m)
    for h_val in H_GRID:
        h = HurstParameter(h_val)
        target = increment_covariance_matrix(grid, h)
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2)
            / n_samples
        )
        for method_id, method in enumerate(("cholesky", "circulant")):
            rng = np.random.default_rng(
                derive_seed(1001, method_id, int(h_val * 100))
            )
            draws = grid.tau**h.h * _batch_unit_fgn(method, m, h, n_samples,
                                                    rng)
            sample_cov = draws.T @ draws / n_samples
            z = np.abs(sample_cov - target) / se
            worst["exceed"] = max(worst["exceed"], int((z > 3.0).sum()))
            worst["maxz"] = max(worst["maxz"], float(z.max()))
            worst["meansq"] = max(worst["meansq"], float((z**2).mean()))
    elapsed = time.monotonic() - started
    passed = (worst["exceed"] <= 80 and worst["maxz"] < 6.0
              and worst["meansq"] < 4.0 and elapsed <= 120)
    _report("criterion 1 (fBm exactness)", passed,
            f"worst exceedances {worst['exceed']}/4096 (allow 80), "
            f"max z {worst['maxz']:.2f} (allow 6), "
            f"mean z^2 {worst['meansq']:.2f} (allow 4), {elapsed:.0f}s")
    assert worst["exceed"] <= 80
    assert worst["maxz"] < 6.0
    assert worst["meansq"] < 4.0
    assert elapsed <= 120


def test_criterion_2_ito_isometry():
    """MC isometry LHS within 3 sigma of the analytic RHS, 5 integrands."""
    started = time.monotonic()
    rng = np.random.default_rng(912)
    grid = IncrementGrid(m_steps=6, tau=0.25)
    worst_z = 0.0
    for trial in range(5):
        psis = [rng.standard_normal((4, 3)) for _ in range(grid.m_steps)]
        check = verify.check_ito_isometry(psis, grid, H, samples=10000,
                                          seed=derive_seed(913, trial))
        worst_z = max(worst_z, abs(check.mc_lhs - check.analytic_rhs)
                      / check.std_error)
    elapsed = time.monotonic() - started
    passed = worst_z <= 3.0 and elapsed <= 60
    _report("criterion 2 (Ito isometry)", passed,
            f"worst |z| {worst_z:.2f} (allow 3), {elapsed:.0f}s")
    assert worst_z <= 3.0
    assert elapsed <= 60


def test_criterion_3_phi_cells():
    """Cell integrals: quadrature at 1e-6 relative, exact diagonal,
    and the off-diagonal bound 0.5 max(i,j)^{2H-1}."""
    started = time.monotonic()
    worst_rel = 0.0
    bound_ok = True
    diagonal_ok = True
    for h_val in H_GRID:
        h = HurstParameter(h_val)
        diagonal_ok &= verify.check_phi_cell_integral(2, 2, h).analytic == 1.0
        for k in range(1, 11):
            cell = verify.check_phi_cell_integral(1 + k, 1, h)
            worst_rel = max(worst_rel, abs(cell.quadrature - cell.analytic)
                            / cell.analytic)
            bound_ok &= cell.analytic <= cell.bound + 1e-15
    elapsed = time.monotonic() - started
    passed = worst_rel <= 1e-6 and bound_ok and diagonal_ok and elapsed <= 10
    _report("criterion 3 (phi cell integrals)", passed,
            f"worst quadrature rel err {worst_rel:.2e} (allow 1e-6), "
            f"bound holds {bound_ok}, diagonal exact {diagonal_ok}, "
            f"{elapsed:.1f}s")
    assert diagonal_ok
    assert worst_rel <= 1e-6
    assert bound_ok
    assert elapsed <= 10


def test_criterion_4_lambda_phi_plateau():
    """Scaled integral non-increasing up to factor 2 across lambda decades.

    Asserted at unit horizon t = 1, where every grid point sits in the
    plateau regime (lambda*t >= 10); boundedness across all tested t is
    covered by the op-level tests and the verify CLI suite.
    """
    started = time.monotonic()
    worst_ratio = 0.0
    for k1 in (0, 1):
        for k2 in (0, 1):
            vals = [verify.check_lambda_phi_bound(lam, 1.0, k1, k2, H)
                    for lam in (10.0, 100.0, 1000.0, 10000.0)]
            for a, b in zip(vals, vals[1:]):
                worst_ratio = max(worst_ratio, b / a)
    elapsed = time.monotonic() - started
    passed = worst_ratio <= 2.0 and elapsed <= 30
    _report("criterion 4 (lambda-phi integral)", passed,
            f"worst decade ratio {worst_ratio:.4f} (allow 2), "
            f"{elapsed:.1f}s")
    assert worst_ratio <= 2.0
    assert elapsed <= 30


def test_criterion_5_temporal_convergence():
    """Desk temporal protocol against its exact oracle and the proven rate.

    Both presets run the desk temporal protocol (seed 20240801, 50 samples,
    ladder 2^6..2^10 against M = 2^12, N = 2^6, F = sin) and pass checks
    (a)-(c) of the module docstring, with the rate check at the
    theoretical 0.75 (trace) and 0.50 (identity) minus 0.10. Measured:
    fitted slopes 0.9634 / 0.6252 against exact 0.9687 / 0.6270, max
    rung |z| 0.48 / 0.91, slope z -0.22 / -0.15.

    Assumption: the oracle is exact for F = 0, while the protocol
    carries F = sin. Rerun with F = 0 on the same seeds, every rung
    moves by at most 0.41 of its standard error (1.9% relative), well
    inside the 4 standard errors allowed.
    """
    started = time.monotonic()
    verdicts = {}
    for preset, theory in (("she-trace", 0.75), ("she-identity", 0.50)):
        study = protocol_study("temporal", "desk", preset,
                               base_seed=20240801)
        report = run_study(study)
        assert report.theoretical_slope == pytest.approx(theory)
        verdicts[preset] = _judge_against_oracle(
            report, _f0_oracle(study, preset), rate_tolerance=0.10
        )
    elapsed = time.monotonic() - started
    _assert_verdicts("criterion 5 (temporal convergence)", verdicts,
                     elapsed)


def test_criterion_6_spatial_convergence():
    """Desk spatial protocol against its exact oracle and the proven rate.

    Both presets run the desk spatial protocol (seed 20240802, 50 samples,
    ladder 2..32 against N = 2^9, tau = 1/200, F = sin) and pass checks
    (a)-(c) of the module docstring, with the rate check at the
    theoretical 1.5 (trace) and 1.0 (identity) minus 0.15. At
    tau = 1/200 the implicit Euler step damps every mode with
    tau*lambda_n > 1 (n >= 5), which is why the exact slopes are 2.097 /
    1.247. Measured: fitted slopes 2.1141 / 1.2534, max rung |z| 1.75 /
    1.90, slope z +0.53 / +0.27.

    Assumption: the oracle is exact for F = 0, while the protocol
    carries F = sin. Rerun with F = 0 on the same seeds, every rung
    moves by at most 0.09 of its standard error (0.8% relative).
    """
    started = time.monotonic()
    verdicts = {}
    for preset, theory in (("she-trace", 1.5), ("she-identity", 1.0)):
        study = protocol_study("spatial", "desk", preset,
                               base_seed=20240802)
        report = run_study(study)
        assert report.theoretical_slope == pytest.approx(theory)
        verdicts[preset] = _judge_against_oracle(
            report, _f0_oracle(study, preset), rate_tolerance=0.15
        )
    elapsed = time.monotonic() - started
    _assert_verdicts("criterion 6 (spatial convergence)", verdicts,
                     elapsed)


def test_oracle_judge_rejects_wrong_hurst():
    """The checks of criteria 5 and 6 can fail: at a reduced size, a study
    whose Monte Carlo H is 0.05 away from the oracle's H = 0.75 fails the
    rung check, and the same study at H = 0.75 passes all three checks.

    she-identity with F = sin, 128 samples: temporal M = 2^9 with ladder
    16..64 at N = 8, spatial N = 64 with ladder 2..8 at tau = 1/50. Over
    base seeds 1..30 the largest rung |z| at H = 0.70 was never below
    9.0 (temporal) or 6.0 (spatial), and over seeds 1..10 at H = 0.80
    never below 12.7 or 7.8; at H = 0.75 all three checks passed on
    30/30 (temporal) and 29/30 (spatial) seeds, the one miss a slope z
    of 3.12.
    """
    started = time.monotonic()
    shapes = {
        "temporal": (8, 2**9, (16, 32, 64), 0.10),
        "spatial": (64, 50, (2, 4, 8), 0.15),
    }
    details = []
    for axis, (n, m, ladder, tolerance) in shapes.items():
        verdicts = {}
        for hurst in (0.70, 0.75, 0.80):
            problem = she_problem("she-identity", n_modes=n, m_steps=m,
                                  base_seed=20240803, hurst=hurst)
            study = ConvergenceStudy(
                axis=axis, ladder=ladder,
                reference_resolution=m if axis == "temporal" else n,
                fixed_other_axis=n if axis == "temporal" else m,
                samples=128, base_seed=20240803, problem=problem,
            )
            exact = _f0_oracle(study, "she-identity", hurst=0.75)
            verdicts[hurst] = _judge_against_oracle(run_study(study), exact,
                                                    tolerance)
        details.append(f"{axis} " + ", ".join(
            f"H={h} max rung |z| {v.max_rung_z:.2f}"
            for h, v in verdicts.items()
        ))
        assert not verdicts[0.70].rung_ok, verdicts[0.70].describe()
        assert not verdicts[0.80].rung_ok, verdicts[0.80].describe()
        assert verdicts[0.75].passed, verdicts[0.75].describe()
    elapsed = time.monotonic() - started
    print(f"oracle judge against H = 0.75: {'; '.join(details)}, "
          f"{elapsed:.1f}s")


def test_criterion_7_regularity_sharpness():
    """Hölder exponent at delta = 0 within +/- 0.1; Sobolev ladder bounded
    below / growing above the threshold 2H + beta - 1.

    The sharpness sides are discriminated against the exact F = 0
    midpoint: growth(threshold + 0.1) must exceed the geometric mean of
    the two analytic growth ratios, growth(threshold - 0.1) must stay
    below it (the falsifiable desk-scale rendering of bounded/divergent,
    since a 5-octave ladder shows finite growth on both sides).
    """
    started = time.monotonic()
    holder_ok = True
    details = []
    holder = (("she-trace", 0.75), ("she-identity", 0.5))
    reports = verify.estimate_time_regularity(
        [she_problem(preset, n_modes=64, m_steps=2**14, base_seed=314159)
         for preset, _ in holder],
        delta=0.0, lag_steps=(8, 16, 32), samples=192)
    for (preset, theory), rep in zip(holder, reports):
        ok = abs(rep.fitted_exponent - theory) <= 0.1
        holder_ok &= ok
        details.append(f"{preset} Hölder {rep.fitted_exponent:.3f} "
                       f"(want {theory}+-0.1)")

    ladder = (2, 4, 8, 16, 32)
    sharp_ok = True
    sharp = (("she-trace", 1.5), ("she-identity", 1.0))
    # one call for both presets, each reading its own two deltas
    all_deltas = [d for _, thresh in sharp for d in (thresh - 0.1,
                                                     thresh + 0.1)]
    stacked = verify.estimate_space_regularity(
        [she_problem(preset, n_modes=32, m_steps=2**14, base_seed=271828)
         for preset, _ in sharp],
        n_ladder=ladder, deltas=all_deltas, samples=128)
    for p, (preset, thresh) in enumerate(sharp):
        linear = she_problem(preset, n_modes=32, m_steps=2**14, base_seed=0,
                             with_nonlinearity=False)
        deltas = all_deltas[2 * p:2 * p + 2]
        reports = stacked[p][2 * p:2 * p + 2]
        analytic = []
        for delta in deltas:
            lo = verify.expected_sobolev_rms(
                restrict_config(linear, n_modes=ladder[0]), delta
            )
            hi = verify.expected_sobolev_rms(
                restrict_config(linear, n_modes=ladder[-1]), delta
            )
            analytic.append(hi / lo)
        midpoint = math.sqrt(analytic[0] * analytic[1])
        below, above = (r.growth_ratio() for r in reports)
        ok = below < midpoint < above
        sharp_ok &= ok
        details.append(f"{preset} ladder growth {below:.3f} < "
                       f"{midpoint:.3f} < {above:.3f}: {ok}")
    elapsed = time.monotonic() - started
    passed = holder_ok and sharp_ok and elapsed <= 600
    _report("criterion 7 (regularity sharpness)", passed,
            "; ".join(details) + f", {elapsed:.0f}s")
    assert holder_ok
    assert sharp_ok
    assert elapsed <= 600


def test_criterion_8_linear_oracle():
    """Scheme vs mild-solution oracle (64x finer grid, coupled noise), and
    the closed-form iterated-sum identity to 1e-12 on N <= 8, M <= 16."""
    started = time.monotonic()
    # closed-form identity
    ident_ok = True
    for n, m in ((4, 8), (8, 16)):
        problem = she_problem("she-identity", n_modes=n, m_steps=m,
                              base_seed=61, with_nonlinearity=False)
        sample = generate_cylindrical_fbm(n, problem.grid(), H, 61)
        end = solve_endpoint(problem, sample).coeffs
        r = 1.0 / (1.0 + problem.tau * problem.operator.eigenvalues)
        expected = r ** float(m) * problem.initial.coeffs
        for i in range(m):
            expected = expected + r ** float(m - i) * sample.values[:, i]
        ident_ok &= bool(
            np.all(np.abs(end - expected)
                   <= 1e-12 * np.maximum(np.abs(expected), 1e-30))
        )

    # scheme vs mild reference with coupled noise
    n_modes = 16
    fine_steps = 2**16
    ladder = [2**8, 2**9, 2**10]
    samples = 32
    match_ok = True
    slope_ok = True
    details = []
    for preset in ("she-trace", "she-identity"):
        problem = she_problem(preset, n_modes=n_modes, m_steps=fine_steps,
                              base_seed=777, with_nonlinearity=False)
        sq = np.zeros((samples, len(ladder)))
        for s in range(samples):
            fine = generate_cylindrical_fbm(
                n_modes, problem.grid(), H,
                derive_seed(777, SAMPLE_STREAM, s)
            )
            mild = linear_mild_reference(problem, fine).coeffs
            for i, m in enumerate(ladder):
                coarse_noise = aggregate_cylindrical(fine, fine_steps // m)
                end = solve_endpoint(restrict_config(problem, m_steps=m),
                                     coarse_noise).coeffs
                sq[s, i] = float(np.sum((mild - end) ** 2))
        mc_ms = sq.mean(axis=0)
        se_ms = sq.std(axis=0, ddof=1) / math.sqrt(samples)
        oracle = verify.expected_mild_rms_errors(problem, ladder)
        match_ok &= bool(np.all(np.abs(mc_ms - oracle**2) <= 3.5 * se_ms))
        rms = np.sqrt(mc_ms)
        slope = fit_slope(1.0 / np.array(ladder, float), rms)[0]
        theo = (2 * 0.75 + problem.noise.beta - 1.0) / 2.0
        slope_ok &= slope >= theo - 0.15
        details.append(f"{preset} slope {slope:.3f} (proven rate {theo}), "
                       f"oracle match {match_ok}")
    elapsed = time.monotonic() - started
    passed = ident_ok and match_ok and slope_ok and elapsed <= 120
    _report("criterion 8 (linear oracle equivalence)", passed,
            f"iterated-sum identity to 1e-12: {ident_ok}; "
            + "; ".join(details) + f", {elapsed:.0f}s")
    assert ident_ok
    assert match_ok
    assert slope_ok
    assert elapsed <= 120


def test_criterion_9_determinism(tmp_path):
    """Byte-identical report files for fixed seeds across worker counts.

    Runs the same study/estimator code paths as criteria 5-7 at reduced
    sample counts (rerunning the full desk protocols twice would double
    their 10-minute budgets; the worker-count independence being tested
    lives entirely in the seeding and reduction code exercised here).
    """
    started = time.monotonic()
    problem = she_problem("she-trace", n_modes=8, m_steps=2**9, base_seed=12)
    temporal = ConvergenceStudy(axis="temporal", ladder=(64, 128, 256),
                                reference_resolution=2**9,
                                fixed_other_axis=8, samples=8, base_seed=12,
                                problem=problem)
    sp_problem = she_problem("she-identity", n_modes=64, m_steps=50,
                             base_seed=13)
    spatial = ConvergenceStudy(axis="spatial", ladder=(2, 4, 8),
                               reference_resolution=64, fixed_other_axis=50,
                               samples=8, base_seed=13, problem=sp_problem)
    same = True
    for name, study in (("t", temporal), ("s", spatial)):
        paths = {}
        for workers in (1, 3):
            report = run_study(study, workers=workers)
            paths[workers] = write_report(report, tmp_path / str(workers),
                                          f"{name}_report")
        for kind in (0, 1):
            same &= (paths[1][kind].read_bytes()
                     == paths[3][kind].read_bytes())

    reg_problem = she_problem("she-trace", n_modes=16, m_steps=256,
                              base_seed=14)
    reg = {
        w: verify.estimate_time_regularity([reg_problem], delta=0.0,
                                           lag_steps=(8, 16, 32),
                                           samples=8, workers=w)[0]
        for w in (1, 3)
    }
    same &= bool(np.array_equal(reg[1].rms_differences,
                                reg[3].rms_differences))
    same &= reg[1].fitted_exponent == reg[3].fitted_exponent

    sharp = {
        w: verify.estimate_space_regularity(
            [she_problem("she-identity", n_modes=16, m_steps=128,
                         base_seed=15)],
            n_ladder=(2, 4, 8), deltas=(0.9,), samples=8, workers=w,
        )[0][0]
        for w in (1, 3)
    }
    same &= bool(np.array_equal(sharp[1].rms_norms, sharp[3].rms_norms))

    elapsed = time.monotonic() - started
    passed = same and elapsed <= 120
    _report("criterion 9 (determinism)", passed,
            f"reports byte-identical across worker counts: {same}, "
            f"{elapsed:.0f}s")
    assert same
    assert elapsed <= 120


def test_resolved_regime_rates():
    """Supplementary (beyond the nine criteria): the theoretical orders do
    emerge from this implementation once the protocol resolves them.

    Exact expectations via the linear oracle: identity-noise temporal
    slope with a 64x reference ratio, and identity-noise spatial slope
    with tau fine enough that the ladder modes are undamped, both land
    on their theoretical values. The trace-class Q carries an intrinsic
    ~1/log(N) excess in any desk-size window (its n log^2 n tail), which
    is why no protocol choice makes criterion 5/6's trace numbers reach
    0.75/1.5 in these ranges.
    """
    started = time.monotonic()
    temporal = she_problem("she-identity", n_modes=64, m_steps=2**16,
                           base_seed=0, with_nonlinearity=False)
    ladder = [2**6, 2**7, 2**8, 2**9, 2**10]
    errs = verify.expected_temporal_rms_errors(temporal, ladder)
    slope_t = fit_slope(1.0 / np.array(ladder, float), errs)[0]

    spatial = she_problem("she-identity", n_modes=128, m_steps=2**12,
                          base_seed=0, with_nonlinearity=False)
    n_ladder = [2, 4, 8, 16]
    errs_s = verify.expected_spatial_rms_errors(spatial, n_ladder)
    slope_s = -fit_slope(np.array(n_ladder, float), errs_s)[0]
    elapsed = time.monotonic() - started
    passed = abs(slope_t - 0.5) <= 0.1 and abs(slope_s - 1.0) <= 0.15
    _report("resolved-regime rates (supplementary)", passed,
            f"identity temporal {slope_t:.4f} (theory 0.5), identity "
            f"spatial {slope_s:.4f} (theory 1.0), {elapsed:.0f}s")
    assert abs(slope_t - 0.5) <= 0.1
    assert abs(slope_s - 1.0) <= 0.15
