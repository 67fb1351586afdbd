import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from tailmes.inference import (
    contrast_matrix,
    structural_mes,
    structural_samples,
    wald_statistics,
    wald_test,
)


class TestContrastMatrix:
    def test_d2(self):
        assert np.allclose(contrast_matrix(2), [[0.5, -0.5]])

    def test_d3(self):
        expected = np.array([[2 / 3, -1 / 3, -1 / 3], [-1 / 3, 2 / 3, -1 / 3]])
        assert np.allclose(contrast_matrix(3), expected)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_rows_sum_to_zero(self, d):
        assert np.allclose(contrast_matrix(d).sum(axis=1), 0.0, atol=1e-14)

    def test_too_small(self):
        with pytest.raises(ValueError):
            contrast_matrix(1)


class TestWaldTest:
    def test_equal_inputs(self):
        res = wald_test([1.3, 1.3, 1.3], np.eye(3), 50)
        assert res.contrast_ok
        assert res.statistic == pytest.approx(0.0, abs=1e-10)
        assert res.p_value == pytest.approx(1.0)
        assert res.dof == 2

    def test_d2_hand_algebra(self):
        # T Sigma T' = 1/2 for Sigma = I, so the statistic is (a-b)^2 / 2
        a, b = 0.9, 0.1
        res = wald_test([a, b], np.eye(2), 1)
        assert res.statistic == pytest.approx((a - b) ** 2 / 2, rel=1e-12)

    def test_scales_with_k(self):
        v = [0.4, 0.9]
        s1 = wald_test(v, np.eye(2), 1).statistic
        s9 = wald_test(v, np.eye(2), 9).statistic
        assert s9 == pytest.approx(9 * s1)

    def test_constant_shift_invariance(self):
        cov = [[0.04, 0.01], [0.01, 0.09]]
        v = np.array([0.2, 0.7])
        base = wald_test(v, cov, 30).statistic
        shifted = wald_test(v + 5.0, cov, 30).statistic
        assert shifted == pytest.approx(base, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        d = 4
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + d * np.eye(d)
        v = rng.standard_normal(d)
        base = wald_test(v, sigma, 10).statistic
        perm = rng.permutation(d)
        permuted = wald_test(v[perm], sigma[np.ix_(perm, perm)], 10).statistic
        assert permuted == pytest.approx(base, rel=1e-8)

    def test_pvalue_monotone(self):
        cov = np.eye(2)
        stats_ = [wald_test([0.0, b], cov, 5) for b in (0.1, 0.5, 1.0)]
        pvals = [r.p_value for r in stats_]
        assert pvals[0] > pvals[1] > pvals[2]

    def test_singular_flagged_not_raised(self):
        res = wald_test([0.1, 0.2], np.ones((2, 2)), 10)
        assert not res.contrast_ok
        assert res.statistic is None and res.p_value is None

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wald_test([np.nan, 0.1], np.eye(2), 10)

    @settings(deadline=None)
    @given(st.data())
    def test_statistic_is_wald_statistics(self, data):
        # small integer factors make T Sigma T' singular often enough to
        # exercise the contrast_ok=False branch as well
        d = data.draw(st.integers(2, 5))
        a = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d)),
                     dtype=float).reshape(d, d)
        sigma = a @ a.T
        v = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
        k = data.draw(st.floats(0.1, 100.0))
        res = wald_test(v, sigma, k)
        if res.contrast_ok:
            assert res.statistic == wald_statistics(v, sigma, k)[0]
        else:
            with pytest.raises(linalg.LinAlgError):
                wald_statistics(v, sigma, k)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_chi_square_calibration(self, d):
        # Gaussian draws with known Sigma; statistic should be chi2(d-1)
        rng = np.random.default_rng(100 + d)
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.5 * np.eye(d)
        chol = np.linalg.cholesky(sigma)
        draws = rng.standard_normal((100_000, d)) @ chol.T
        ts = wald_statistics(draws, sigma, 1.0)
        ks = stats.kstest(ts, "chi2", args=(d - 1,)).statistic
        assert ks < 0.01


class TestStructuralMes:
    H = np.array([[5.0, 4.0], [4.0, 5.0]])
    SIGMA_S = np.array([[2.0, 1.0], [1.0, 2.0]])  # symmetric square root of H
    SIGMA_L = np.array([[np.sqrt(5.0), 0.0],
                        [4.0 / np.sqrt(5.0), 3.0 / np.sqrt(5.0)]])  # Cholesky of H

    def test_square_roots_share_h(self):
        assert np.allclose(self.SIGMA_S @ self.SIGMA_S.T, self.H)
        assert np.allclose(self.SIGMA_L @ self.SIGMA_L.T, self.H)

    def test_identity_independence(self):
        val = structural_mes(np.eye(2), 5.0, 0.05, 2_000_000, 10)
        # conditional mean of an independent coordinate is 0
        assert abs(val) < 0.01

    def test_second_moments_match_h(self):
        for mat in (self.SIGMA_S, self.SIGMA_L):
            z = structural_samples(mat, 5.0, 500_000, np.random.default_rng(3))
            cov = np.cov(z.T)
            assert np.allclose(cov, self.H, rtol=0.03)

    @pytest.mark.parametrize("p", [0.05, 0.01])
    def test_square_root_choice_matters(self, p):
        draws = 4_000_000
        vals = {}
        for name, mat in (("s", self.SIGMA_S), ("l", self.SIGMA_L)):
            reps = [structural_mes(mat, 5.0, p, draws, seed) for seed in (1, 2, 3)]
            vals[name] = (np.mean(reps), np.std(reps, ddof=1) / np.sqrt(len(reps)))
        gap = abs(vals["s"][0] - vals["l"][0])
        joint_se = np.hypot(vals["s"][1], vals["l"][1])
        assert gap > 3 * joint_se

    def test_linear_in_scale(self):
        base = structural_mes(self.SIGMA_S, 5.0, 0.02, 2_000_000, 11)
        scaled = structural_mes(2.5 * self.SIGMA_S, 5.0, 0.02, 2_000_000, 11)
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_too_few_exceedances(self):
        with pytest.raises(ValueError):
            structural_mes(self.SIGMA_S, 5.0, 1e-6, 100_000, 1)
