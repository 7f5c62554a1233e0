"""fBm engine: covariance formulas, exact samplers, aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.array_utils import byte_bounds

from fracspde import fbm, verify
from fracspde.fbm import (
    CirculantEmbeddingError,
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    aggregate_cylindrical,
    generate_cylindrical_fbm,
    increment_covariance,
    increment_rows,
    mode_keys,
)
from fracspde.rng import MODE_STREAM, NormalDrawer, derive_seed
from oracles import fbm_covariance, increment_covariance_matrix

H_VALUES = [0.55, 0.75, 0.95]


def hp(h=0.75):
    return HurstParameter(h)


def scalar(grid, h, seed, method="circulant"):
    """One fBm increment row drawn from `seed` alone."""
    return increment_rows(grid, h, [seed], method)[0]


def synthesize(m, h, z):
    """fbm._synthesize_circulant on fresh work buffers, the normals z (last
    axis 2m) copied into the half spectrum as increment_rows draws them."""
    half = np.empty(z.shape[:-1] + (m + 1,), dtype=complex)
    half.view(float)[..., :2 * m] = z
    return fbm._synthesize_circulant(fbm._circulant_bins(m, h), m, half,
                                     np.empty(z.shape[:-1] + (2 * m,)))


def as_sample(grid, h, rows):
    """Rows as a cylindrical sample, for aggregate_cylindrical."""
    return CylindricalFbmSample(grid=grid, values=rows, hurst=h, base_seed=0,
                                method="circulant")


class TestHurstParameter:
    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.2, 0.0])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            HurstParameter(bad)

    def test_accepts_interior_values(self):
        assert HurstParameter(0.5 + 1e-6).h == 0.5 + 1e-6

    @pytest.mark.parametrize("h", H_VALUES)
    def test_alpha_h(self, h):
        alpha = HurstParameter(h).alpha_h
        assert alpha == h * (2 * h - 1)
        assert 0 < alpha < 1


class TestGrid:
    def test_horizon_is_product(self):
        g = IncrementGrid(m_steps=7, tau=0.3)
        assert g.horizon == 7 * 0.3

    @pytest.mark.parametrize("m,tau", [(0, 0.1), (4, 0.0), (4, -1.0)])
    def test_rejects_bad_arguments(self, m, tau):
        with pytest.raises(ValueError):
            IncrementGrid(m_steps=m, tau=tau)

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError,
                           match="tau must be positive and finite"):
            IncrementGrid(m_steps=4, tau=tau)


class TestFbmCovariance:
    def test_diagonal_is_power_law(self):
        assert fbm_covariance(1.0, 1.0, hp()) == 1.0
        assert fbm_covariance(2.0, 2.0, hp()) == pytest.approx(
            2.0**1.5, rel=1e-15
        )

    def test_zero_argument_gives_zero(self):
        for t in (0.1, 1.0, 7.3):
            assert fbm_covariance(0.0, t, hp(0.6)) == 0.0

    def test_mixed_value_frozen(self):
        # 0.5*(1 + 2^1.5 - 1) = sqrt(2)
        assert fbm_covariance(1.0, 2.0, hp()) == pytest.approx(
            1.4142135623730951, rel=1e-15
        )

    def test_symmetry(self):
        h = hp(0.62)
        assert fbm_covariance(0.7, 2.2, h) == fbm_covariance(2.2, 0.7, h)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fbm_covariance(-0.1, 1.0, hp())

    def test_sampler_consistency(self):
        # E[w(1) w(2)] from cumulative increments matches R_H(1, 2)
        h = hp()
        grid = IncrementGrid(m_steps=2, tau=1.0)
        n = 20000
        inc = increment_rows(grid, h, [derive_seed(101, s) for s in range(n)],
                             "cholesky")
        prods = inc[:, 0] * (inc[:, 0] + inc[:, 1])
        se = prods.std(ddof=1) / math.sqrt(n)
        assert abs(prods.mean() - math.sqrt(2.0)) < 3 * se


class TestIncrementCovariance:
    def test_diagonal(self):
        g = IncrementGrid(m_steps=4, tau=0.5)
        assert increment_covariance(2, 2, g, hp()) == pytest.approx(
            0.3535533905932738, rel=1e-15
        )

    def test_lag_one_frozen(self):
        g = IncrementGrid(m_steps=4, tau=1.0)
        assert increment_covariance(1, 2, g, hp()) == pytest.approx(
            0.41421356237309515, rel=1e-15
        )

    def test_symmetric_and_positive(self):
        g = IncrementGrid(m_steps=16, tau=0.1)
        for h in map(hp, H_VALUES):
            for i in range(16):
                for j in range(16):
                    v = increment_covariance(i, j, g, h)
                    assert v == increment_covariance(j, i, g, h)
                    assert v > 0

    def test_brownian_limit(self):
        g = IncrementGrid(m_steps=4, tau=1.0)
        h = hp(0.5 + 1e-6)
        assert abs(increment_covariance(0, 1, g, h)) < 1e-4

    def test_out_of_range(self):
        g = IncrementGrid(m_steps=4, tau=1.0)
        with pytest.raises(ValueError):
            increment_covariance(0, 4, g, hp())

    @pytest.mark.parametrize("h", H_VALUES)
    def test_second_difference_identity(self, h):
        # E[dw_i dw_j] telescopes from R_H; 1e-12 relative on an 8-step
        # grid (the R_H side loses digits to cancellation as M grows)
        g = IncrementGrid(m_steps=8, tau=0.37)
        t = g.tau * np.arange(9)
        hh = hp(h)
        for i in range(8):
            for j in range(8):
                second = (
                    fbm_covariance(t[i + 1], t[j + 1], hh)
                    - fbm_covariance(t[i + 1], t[j], hh)
                    - fbm_covariance(t[i], t[j + 1], hh)
                    + fbm_covariance(t[i], t[j], hh)
                )
                direct = increment_covariance(i, j, g, hh)
                assert second == pytest.approx(direct, rel=1e-12)


class TestGeneratorExactness:
    """The samplers are linear maps of iid normals; their Gram matrices
    must reproduce the analytic covariance exactly, no statistics needed."""

    @pytest.mark.parametrize("h", H_VALUES)
    def test_circulant_gram_matrix(self, h):
        m = 16
        hh = hp(h)
        # one batch: row j of the result is the image of basis vector e_j
        bmat = synthesize(m, hh, np.eye(2 * m)).T
        target = increment_covariance_matrix(IncrementGrid(m, 1.0), hh)
        assert np.abs(bmat @ bmat.T - target).max() < 1e-12

    @pytest.mark.parametrize("h", H_VALUES)
    def test_cholesky_gram_matrix(self, h):
        m = 16
        hh = hp(h)
        factor = fbm._cholesky_factor(m, hh)
        target = increment_covariance_matrix(IncrementGrid(m, 1.0), hh)
        assert np.abs(factor @ factor.T - target).max() < 1e-12

    def test_embedding_guard_raises(self):
        with pytest.raises(CirculantEmbeddingError):
            fbm.circulant_eigenvalues(np.array([1.0, -1.0, 0.0]))


def _complex_fft_rows(grid, h, seeds):
    """The circulant synthesis as a full-length complex FFT, one row at a
    time: the reference the half-spectrum real FFT must reproduce."""
    m, m2 = grid.m_steps, 2 * grid.m_steps
    sqrt_eigs = np.sqrt(fbm.circulant_eigenvalues(
        fbm._fgn_covariance_seq(m, h)))
    rows = []
    for seed in seeds:
        z = np.random.default_rng(seed).standard_normal(m2)
        w = np.zeros(m2, dtype=complex)
        w[0] = sqrt_eigs[0] * z[0] / np.sqrt(m2)
        w[m] = sqrt_eigs[m] * z[1] / np.sqrt(m2)
        if m > 1:
            amp = sqrt_eigs[1:m] / np.sqrt(2 * m2)
            head = amp * (z[2::2] + 1j * z[3::2])
            w[1:m] = head
            w[m + 1:] = np.conj(head[::-1])
        rows.append(grid.tau**h.h * np.fft.fft(w).real[:m])
    return np.array(rows)


def _allocating_rows(grid, h, seeds):
    """The circulant synthesis one row at a time, each on a freshly
    allocated half spectrum and FFT output: the reference the buffered
    sampler must reproduce bit for bit."""
    m, m2 = grid.m_steps, 2 * grid.m_steps
    sqrt_eigs = np.sqrt(fbm.circulant_eigenvalues(
        fbm._fgn_covariance_seq(m, h)))
    rows = []
    for seed in seeds:
        z = np.random.default_rng(seed).standard_normal(m2)
        half = np.empty(m + 1, dtype=complex)
        half.real[0] = sqrt_eigs[0] * z[0] / np.sqrt(m2)
        half.real[m] = sqrt_eigs[m] * z[1] / np.sqrt(m2)
        half.imag[0] = half.imag[m] = 0.0
        amp = sqrt_eigs[1:m] / np.sqrt(2 * m2)
        np.multiply(amp, z[2::2], out=half.real[1:m])
        np.multiply(-amp, z[3::2], out=half.imag[1:m])
        synth = np.fft.irfft(half, m2, norm="forward")[:m]
        rows.append(np.multiply(grid.tau**h.h, synth))
    return np.array(rows)


ROW_STEPS = [1, 2, 3, 200, 2**14]


class TestIncrementRows:
    """increment_rows is the one sampler: row i depends on seeds[i] only."""

    @pytest.mark.parametrize("chunk_bytes", [2**10, 2**14, 2**20, 2**26])
    @pytest.mark.parametrize("m", ROW_STEPS)
    def test_rows_equal_single_seed_calls(self, m, chunk_bytes, monkeypatch):
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        seeds = [derive_seed(31, s) for s in range(7)]
        singles = np.array([scalar(grid, hp(), s) for s in seeds])
        monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", chunk_bytes)
        assert np.array_equal(increment_rows(grid, hp(), seeds), singles)
        assert np.array_equal(increment_rows(grid, hp(), seeds[2:]),
                              singles[2:])

    @pytest.mark.parametrize("m", ROW_STEPS)
    def test_circulant_rows_match_complex_fft(self, m):
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        seeds = [derive_seed(32, s) for s in range(4)]
        ref = _complex_fft_rows(grid, hp(), seeds)
        rows = increment_rows(grid, hp(), seeds)
        assert np.abs(rows - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 200, 2**12, 2**14, 2**16])
    def test_buffered_rows_equal_allocating_synthesis(self, m, h):
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        seeds = [derive_seed(41, s) for s in range(5)]
        rows = increment_rows(grid, hp(h), seeds)
        assert rows.tobytes() == _allocating_rows(grid, hp(h),
                                                  seeds).tobytes()

    @pytest.mark.parametrize("m", [3, 200, 2**12])
    def test_one_work_buffer_pair_per_call(self, m, monkeypatch):
        # a short last chunk too: 11 rows in chunks of 4, 4 and 3
        irfft, fill, empty = np.fft.irfft, NormalDrawer.fill, np.empty
        calls, fills, allocs = [], [], []

        def recording_irfft(a, *args, out=None, **kwargs):
            calls.append((byte_bounds(a), out.ctypes.data, len(a)))
            return irfft(a, *args, out=out, **kwargs)

        def recording_fill(drawer, states, out):
            fills.append(byte_bounds(out))
            return fill(drawer, states, out)

        def recording_empty(*args, **kwargs):
            allocs.append(empty(*args, **kwargs))
            return allocs[-1]

        fbm._circulant_bins(m, hp())  # cached first: its setup is no draw
        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        monkeypatch.setattr(NormalDrawer, "fill", recording_fill)
        monkeypatch.setattr(np, "empty", recording_empty)
        monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", 4 * 8 * 2 * m)
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        seeds = [derive_seed(42, s) for s in range(11)]
        rows = increment_rows(grid, hp(), seeds)
        monkeypatch.undo()
        assert [n for _, _, n in calls] == [4, 4, 3]
        assert len({half_lo for (half_lo, _), _, _ in calls}) == 1
        assert len({full for _, full, _ in calls}) == 1
        # each chunk's normals are drawn into the half spectrum irfft reads
        assert len(fills) == len(calls)
        for (lo, hi), ((half_lo, half_hi), _, _) in zip(fills, calls):
            assert half_lo <= lo and hi <= half_hi
        # the FFT output is the only (rows, 2m) array: no normals buffer
        wide = [a for a in allocs if a.shape == (4, 2 * m)]
        assert [a.ctypes.data for a in wide] == [calls[0][1]]
        # and the cached bins hold no 2m eigenvalue array
        assert all(np.size(field) < 2 * m
                   for field in fbm._circulant_bins(m, hp()))
        assert rows.tobytes() == _allocating_rows(grid, hp(),
                                                  seeds).tobytes()

    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_cholesky_rows_are_per_row_gemv(self, m):
        grid = IncrementGrid(m_steps=m, tau=0.5 / m)
        seeds = [derive_seed(33, s) for s in range(5)]
        factor = fbm._cholesky_factor(m, hp())
        ref = np.array([grid.tau**0.75 * (factor @ np.random.default_rng(s)
                                          .standard_normal(m))
                        for s in seeds])
        rows = increment_rows(grid, hp(), seeds, "cholesky")
        assert rows.tobytes() == ref.tobytes()

    def test_cylindrical_rows_are_mode_seeds(self):
        grid = IncrementGrid(m_steps=16, tau=1.0 / 16)
        cyl = generate_cylindrical_fbm(5, grid, hp(), base_seed=8)
        rows = increment_rows(
            grid, hp(), [derive_seed(8, MODE_STREAM, k) for k in range(5)])
        assert np.array_equal(cyl.values, rows)

    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_rows_take_the_shape_of_the_seeds(self, method):
        # a block's (N, B) mode keys give its (N, B, M) rows, any key
        # array the rows of its flattened keys, and a list of Python
        # ints from 2^63 on the rows of their uint64 values
        grid = IncrementGrid(m_steps=12, tau=1.0 / 12)
        big = [3, 2**64 - 1, 2**63 + 5]
        keys = mode_keys(big, 4)
        rows = increment_rows(grid, hp(), keys, method)
        assert rows.shape == (4, 3, 12)
        assert np.array_equal(
            rows.reshape(12, 12),
            increment_rows(grid, hp(), keys.ravel(), method))
        assert np.array_equal(increment_rows(grid, hp(), keys.T, method),
                              rows.transpose(1, 0, 2))
        assert np.array_equal(
            increment_rows(grid, hp(), int(keys[1, 2]), method), rows[1, 2])
        assert np.array_equal(
            increment_rows(grid, hp(), big, method),
            increment_rows(grid, hp(), np.array(big, dtype=np.uint64),
                           method))
        assert increment_rows(grid, hp(), keys[:, :0], method).shape == (
            4, 0, 12)

    @pytest.mark.parametrize("budget_rows,chunks", [(5, [3, 3, 3, 3]),
                                                    (7, [6, 6]),
                                                    (2, [3, 3, 3, 3])])
    def test_chunks_hold_whole_key_rows(self, budget_rows, chunks,
                                        monkeypatch):
        # (4, 3) keys: a chunk holds whole rows of 3 keys, at least one
        irfft = np.fft.irfft
        sizes = []
        monkeypatch.setattr(np.fft, "irfft", lambda a, *args, **kwargs: (
            sizes.append(len(a)) or irfft(a, *args, **kwargs)))
        monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", budget_rows * 8 * 2 * 12)
        grid = IncrementGrid(m_steps=12, tau=1.0 / 12)
        rows = increment_rows(grid, hp(), mode_keys([1, 2, 3], 4))
        assert sizes == chunks
        monkeypatch.undo()
        assert np.array_equal(
            rows, increment_rows(grid, hp(), mode_keys([1, 2, 3], 4)))

    def test_no_seeds_no_rows(self):
        grid = IncrementGrid(m_steps=4, tau=0.25)
        assert increment_rows(grid, hp(), []).shape == (0, 4)


class TestFactorLimits:
    def test_large_cholesky_rejected_before_factor(self, monkeypatch):
        def no_factor(m, h):
            raise AssertionError("factor built")

        monkeypatch.setattr(fbm, "_cholesky_factor", no_factor)
        steps = fbm._CHOLESKY_MAX_STEPS + 1
        grid = IncrementGrid(m_steps=steps, tau=1.0)
        with pytest.raises(ValueError, match="circulant"):
            increment_rows(grid, hp(), [1], "cholesky")
        with pytest.raises(ValueError, match="circulant"):
            generate_cylindrical_fbm(2, grid, hp(), 1, "cholesky")

    def test_factor_itself_guarded(self):
        with pytest.raises(ValueError, match="circulant"):
            fbm._cholesky_factor(fbm._CHOLESKY_MAX_STEPS + 1, hp())
        fbm.check_method("cholesky", fbm._CHOLESKY_MAX_STEPS)
        fbm.check_method("circulant", 2**30)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            increment_rows(IncrementGrid(4, 0.25), hp(), [1], "wavelet")

    def test_caches_are_bounded(self):
        # with verify's unit oracle forms, here with no column to build
        caches = (fbm._cholesky_factor, fbm._circulant_bins,
                  verify._unit_forms)
        fbm.clear_caches()
        for m in range(1, 13):
            fbm._cholesky_factor(m, hp())
            fbm._circulant_bins(m, hp())
            verify._unit_forms(np.ones(2).tobytes(), 0.5, m, hp(), 1, (),
                               ((2, 2),))
        for cached in caches:
            info = cached.cache_info()
            assert info.maxsize == 8
            assert info.currsize == 8
        fbm.clear_caches()
        for cached in caches:
            assert cached.cache_info().currsize == 0


HURST = st.floats(min_value=0.51, max_value=0.99)


class TestSamplerProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(m=st.integers(1, 24), h=HURST, base=st.integers(0, 2**64 - 1),
           small=st.integers(1, 6), extra=st.integers(1, 6))
    def test_mode_nesting(self, m, h, base, small, extra):
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        fewer = generate_cylindrical_fbm(small, grid, hp(h), base)
        more = generate_cylindrical_fbm(small + extra, grid, hp(h), base)
        assert np.array_equal(fewer.values, more.values[:small])

    @settings(max_examples=40, deadline=None, database=None)
    @given(m=st.integers(1, 24), h=HURST)
    def test_exact_gram_matrix(self, m, h):
        hh = hp(h)
        target = increment_covariance_matrix(IncrementGrid(m, 1.0), hh)
        circ = synthesize(m, hh, np.eye(2 * m)).T
        assert np.abs(circ @ circ.T - target).max() < 1e-12
        chol = fbm._cholesky_factor(m, hh)
        assert np.abs(chol @ chol.T - target).max() < 1e-12


class TestAggregationProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(coarse=st.integers(1, 8), q1=st.integers(1, 6),
           q2=st.integers(1, 6), modes=st.integers(1, 4), h=HURST,
           base=st.integers(0, 2**64 - 1))
    def test_aggregation_telescopes(self, coarse, q1, q2, modes, h, base):
        """Aggregating by q1 then q2 is aggregating by q1*q2: the same
        sums of the same fine increments, in another order."""
        m = coarse * q1 * q2
        fine = generate_cylindrical_fbm(modes, IncrementGrid(m, 1.0 / m),
                                        hp(h), base)
        twice = aggregate_cylindrical(aggregate_cylindrical(fine, q1), q2)
        once = aggregate_cylindrical(fine, q1 * q2)
        assert twice.grid.m_steps == once.grid.m_steps == coarse
        assert twice.grid.tau == pytest.approx(once.grid.tau, rel=1e-15)
        # both orders round within (q1*q2 - 1) eps of the absolute sum
        scale = np.abs(fine.values).reshape(modes, coarse, -1).sum(axis=2)
        assert np.all(np.abs(twice.values - once.values) <= 1e-14 * scale)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
class TestGeneratorStatistics:
    def test_single_step_variance(self, method):
        grid = IncrementGrid(m_steps=1, tau=0.25)
        h = hp()
        n = 20000
        draws = increment_rows(grid, h, [derive_seed(7, s) for s in range(n)],
                               method)[:, 0]
        target = 0.25**1.5
        se = target * math.sqrt(2.0 / n)
        assert abs(draws.var() - target) < 3 * se

    def test_near_brownian_lag_one_correlation(self, method):
        grid = IncrementGrid(m_steps=2, tau=1.0)
        h = hp(0.5 + 1e-6)
        n = 20000
        pairs = increment_rows(grid, h, [derive_seed(8, s) for s in range(n)],
                               method)
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) < 3.5 / math.sqrt(n)

    def test_covariance_matrix_statistical(self, method):
        # 16x16 smoke version of the acceptance check, with the same
        # multiplicity-corrected 3-standard-error rule
        m, n = 16, 20000
        grid = IncrementGrid(m_steps=m, tau=1.0 / m)
        h = hp()
        draws = increment_rows(grid, h, [derive_seed(9, s) for s in range(n)],
                               method)
        target = increment_covariance_matrix(grid, h)
        sample_cov = draws.T @ draws / n
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / n
        )
        z = np.abs(sample_cov - target) / se
        assert (z > 3.0).sum() <= 5
        assert z.max() < 5.0

    def test_bit_reproducible(self, method):
        grid = IncrementGrid(m_steps=32, tau=0.05)
        a = scalar(grid, hp(), 1234, method)
        fbm.clear_caches()
        b = scalar(grid, hp(), 1234, method)
        assert np.array_equal(a, b)

    def test_methods_differ_bytewise(self, method):
        grid = IncrementGrid(m_steps=8, tau=0.125)
        other = "circulant" if method == "cholesky" else "cholesky"
        a = scalar(grid, hp(), 77, method)
        b = scalar(grid, hp(), 77, other)
        assert not np.array_equal(a, b)


class TestCylindrical:
    def test_single_mode_reduces_to_scalar(self):
        grid = IncrementGrid(m_steps=8, tau=0.125)
        cyl = generate_cylindrical_fbm(1, grid, hp(), base_seed=42)
        row = scalar(grid, hp(), derive_seed(42, MODE_STREAM, 0))
        assert np.array_equal(cyl.values[0], row)

    def test_nesting(self):
        grid = IncrementGrid(m_steps=8, tau=0.125)
        small = generate_cylindrical_fbm(8, grid, hp(), base_seed=42)
        large = generate_cylindrical_fbm(16, grid, hp(), base_seed=42)
        assert np.array_equal(small.values, large.values[:8])

    def test_cross_mode_independence(self):
        grid = IncrementGrid(m_steps=2, tau=0.5)
        n = 10000
        # rows[s] is generate_cylindrical_fbm(2, grid, hp(), s).values
        rows = increment_rows(grid, hp(), mode_keys(np.arange(n), 2).T.ravel()
                              ).reshape(n, 2, 2)
        for i in range(2):
            for j in range(2):
                corr = np.corrcoef(rows[:, 0, i], rows[:, 1, j])[0, 1]
                assert abs(corr) < 3.5 / math.sqrt(n)


class TestAggregation:
    def test_ratio_one_identity(self):
        grid = IncrementGrid(m_steps=8, tau=0.125)
        fine = generate_cylindrical_fbm(2, grid, hp(), 3)
        agg = aggregate_cylindrical(fine, 1)
        assert np.array_equal(agg.values, fine.values)
        assert agg.grid == fine.grid

    def test_full_collapse_telescopes(self):
        grid = IncrementGrid(m_steps=4, tau=0.25)
        fine = as_sample(grid, hp(), scalar(grid, hp(), 3)[None])
        agg = aggregate_cylindrical(fine, 4)
        assert agg.grid.m_steps == 1
        row = fine.values[0]
        assert agg.values[0, 0] == ((row[0] + row[1]) + row[2]) + row[3]

    def test_partial_sums_left_to_right(self):
        grid = IncrementGrid(m_steps=64, tau=1.0 / 64)
        fine = as_sample(grid, hp(), scalar(grid, hp(), 11)[None])
        agg = aggregate_cylindrical(fine, 8)
        row = fine.values[0]
        for j in range(8):
            acc = row[8 * j]
            for r in range(1, 8):
                acc = acc + row[8 * j + r]
            assert abs(agg.values[0, j] - acc) < 1e-12

    @staticmethod
    def per_offset_loop(values, ratio, axis):
        """Reference: one strided pass per offset, each block's terms
        added left to right."""
        lead = (slice(None),) * (axis % values.ndim)
        coarse = values[lead + (slice(0, None, ratio),)].copy()
        for r in range(1, ratio):
            coarse += values[lead + (slice(r, None, ratio),)]
        return coarse

    @pytest.mark.parametrize("ratio", [1, 2, 3, 7, 64, 256])
    def test_aggregate_values_matches_per_offset_loop(self, ratio):
        rng = np.random.default_rng(ratio)
        cases = [(rng.standard_normal(ratio * m), -1) for m in (1, 5)]
        cases += [(rng.standard_normal((3, ratio * m)), -1) for m in (1, 6)]
        cases.append((rng.standard_normal((ratio * 4, 3, 2)), 0))
        for values, axis in cases:
            out = fbm._aggregate_values(values, ratio, axis=axis)
            expected = self.per_offset_loop(values, ratio, axis)
            assert out.shape == expected.shape
            assert np.array_equal(out, expected), (values.shape, axis)

    def test_requires_divisibility(self):
        grid = IncrementGrid(m_steps=6, tau=0.1)
        fine = generate_cylindrical_fbm(1, grid, hp(), 3)
        with pytest.raises(ValueError):
            aggregate_cylindrical(fine, 4)

    def test_aggregated_covariance_statistical(self):
        # coarse increments are distributed as fBm increments on the
        # coarse grid (exact identity); checked against the analytic
        # matrix at 3 standard errors
        m_fine, ratio, n = 16, 4, 20000
        grid = IncrementGrid(m_steps=m_fine, tau=1.0 / m_fine)
        h = hp()
        rows = increment_rows(grid, h, [derive_seed(13, s) for s in range(n)])
        coarse = aggregate_cylindrical(as_sample(grid, h, rows), ratio).values
        target = increment_covariance_matrix(
            IncrementGrid(m_steps=m_fine // ratio, tau=ratio / m_fine), h
        )
        sample_cov = coarse.T @ coarse / n
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / n
        )
        assert (np.abs(sample_cov - target) > 3 * se).sum() <= 2

    def test_cylindrical_aggregation_matches_rowwise(self):
        grid = IncrementGrid(m_steps=16, tau=1.0 / 16)
        cyl = generate_cylindrical_fbm(3, grid, hp(), base_seed=21)
        agg = aggregate_cylindrical(cyl, 4)
        for k in range(3):
            alone = as_sample(grid, hp(), cyl.values[k:k + 1])
            row = aggregate_cylindrical(alone, 4)
            assert np.array_equal(agg.values[k], row.values[0])
