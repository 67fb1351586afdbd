import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailmes.distributions import TCopulaParams, sample_t_copula, tail_copula_R
from tailmes.evt import k_rule
from tailmes.taildep import r_hat_pair, sigma_hat


class TestRHatPair:
    def test_perfect_dependence(self):
        v = np.array([9.0, 7.0, 5.0, 3.0, 1.0, 0.5, 0.2])
        first, second = r_hat_pair(v, v, 2, 3, 3)
        assert first == second == 3 / 2

    def test_antithetic(self):
        v = np.linspace(1.0, 10.0, 20)
        first, second = r_hat_pair(v, -v, 2, 2, 2)
        assert first == second == 0.0

    def test_hand_example(self):
        i = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        j = np.array([1.0, 5.0, 4.0, 2.0, 3.0])
        first, second = r_hat_pair(i, j, 2, 2, 2)
        # thresholds are the third-largest values (3 for both); joint exceeder t=1
        assert first == 0.5
        assert second == 0.5

    def test_swap_consistency(self):
        rng = np.random.default_rng(4)
        x = rng.standard_t(3, size=300)
        y = 0.6 * x + rng.standard_t(3, size=300)
        f_xy, s_xy = r_hat_pair(x, y, 20, 25, 15)
        f_yx, s_yx = r_hat_pair(y, x, 20, 15, 25)
        assert f_xy == f_yx
        assert s_xy == s_yx

    def test_rank_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        y = x + rng.standard_normal(200)
        base = r_hat_pair(x, y, 10, 12, 8)
        assert r_hat_pair(np.exp(x), y, 10, 12, 8) == base
        assert r_hat_pair(x, np.arctan(y), 10, 12, 8) == base

    def test_bound_unswapped(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(500)
        y = rng.standard_normal(500)
        first, _ = r_hat_pair(x, y, 10, 30, 20)
        assert 0.0 <= first <= min(30, 20) / 10


class TestSigmaHat:
    @staticmethod
    def _columns(d, seed=3, n=200):
        rng = np.random.default_rng(seed)
        common = rng.standard_t(4, size=n)
        return [0.7 * common + rng.standard_t(4, size=n) for _ in range(d)]

    def test_diagonal_exact(self):
        gammas = np.array([0.21, 0.34, 0.17])
        cov = sigma_hat(self._columns(3), gammas, 20)
        assert np.array_equal(np.diag(cov), gammas**2)
        assert np.array_equal(cov, cov.T)

    def test_zero_gammas(self):
        cov = sigma_hat(self._columns(2), [0.0, 0.0], 10)
        assert np.all(cov == 0.0)

    def test_off_diagonal_formula(self):
        cols = self._columns(2)
        cov = sigma_hat(cols, [0.2, 0.4], 25)
        expected = 0.2 * 0.4 * r_hat_pair(cols[0], cols[1], 25, 25, 25)[0]
        assert expected > 0.0
        assert cov[0, 1] == pytest.approx(expected, rel=1e-14)

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            sigma_hat(self._columns(2), [0.2, 0.3, 0.4], 10)

    def test_against_closed_form_tail_copula(self):
        # residuals drawn straight from the t-copula
        nu, rho = 3.0, 0.95
        n = 100_000
        u = sample_t_copula(TCopulaParams.bivariate(nu, rho), n,
                            np.random.default_rng(77))
        k = k_rule(n)
        gamma = 0.2
        cov = sigma_hat([u[:, 0], u[:, 1]], [gamma, gamma], k)
        target = gamma**2 * tail_copula_R(1.0, 1.0, nu, rho)
        assert cov[0, 1] == pytest.approx(target, rel=0.10)


@st.composite
def columns_and_gammas(draw):
    """Integer-valued columns, so ties and zeros are common, with their gammas."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(5, 40))
    cols = [np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     dtype=float) for _ in range(d)]
    gammas = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    k = draw(st.integers(1, n - 1))
    return cols, gammas, k


INCREASING_MAPS = (np.exp, np.arctan, lambda x: x**3 + 2.0 * x)


class TestSigmaHatProperties:
    @settings(deadline=None)
    @given(columns_and_gammas())
    def test_symmetric_with_squared_gamma_diagonal(self, case):
        cols, gammas, k = case
        cov = sigma_hat(cols, gammas, k)
        assert np.array_equal(cov, cov.T)
        assert np.array_equal(np.diag(cov), gammas**2)

    @settings(deadline=None)
    @given(columns_and_gammas())
    def test_bounded_by_gamma_product(self, case):
        cols, gammas, k = case
        cov = sigma_hat(cols, gammas, k)
        assert np.all(np.abs(cov) <= np.abs(np.outer(gammas, gammas)))

    @settings(deadline=None)
    @given(columns_and_gammas(), st.data())
    def test_invariant_under_increasing_maps(self, case, data):
        cols, gammas, k = case
        j = data.draw(st.integers(0, len(cols) - 1))
        fn = data.draw(st.sampled_from(INCREASING_MAPS))
        mapped = list(cols)
        mapped[j] = fn(cols[j])
        assert np.array_equal(sigma_hat(mapped, gammas, k), sigma_hat(cols, gammas, k))

    @settings(deadline=None)
    @given(columns_and_gammas())
    def test_matches_pairwise_tail_copula(self, case):
        cols, gammas, k = case
        cov = sigma_hat(cols, gammas, k)
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                expected = gammas[i] * gammas[j] * r_hat_pair(cols[i], cols[j], k, k, k)[0]
                assert cov[i, j] == pytest.approx(expected, rel=1e-14, abs=0.0)
