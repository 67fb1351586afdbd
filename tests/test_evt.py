import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailmes.evt import (
    TailConfig,
    assemble_forecast,
    hill,
    k_rule,
    mes_extrapolate,
    mes_np,
    mes_within,
)
from tailmes.taildep import r_hat_pair, sigma_hat


def test_k_rule_values():
    assert k_rule(1000) == 227
    assert k_rule(500) == 149
    assert k_rule(8) == 1


def test_k_rule_too_small():
    with pytest.raises(ValueError):
        k_rule(7)


class TestHill:
    def test_hand_example(self):
        assert hill([8, 4, 2, 1], 2) == pytest.approx(1.5 * np.log(2), abs=1e-12)

    def test_equal_top_values(self):
        assert hill([3.0, 3.0, 3.0, 1.0], 2) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.pareto(4.0, size=500) + 1.0
        assert hill(17.3 * v, 40) == pytest.approx(hill(v, 40), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.pareto(3.0, size=200) + 1.0
        assert hill(rng.permutation(v), 30) == hill(v, 30)

    def test_pareto_consistency(self):
        # exact Pareto draws with gamma = 0.2
        rng = np.random.default_rng(2)
        n = 1_000_000
        v = rng.uniform(size=n) ** (-0.2)
        assert hill(v, k_rule(n)) == pytest.approx(0.2, abs=0.02)

    def test_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            hill([5.0, 1.0, -2.0, -3.0], 2)


class TestMesWithin:
    X = np.array([5.0, 1.0, 2.0, 9.0, 0.0])
    Y = np.array([10.0, -1.0, 3.0, 7.0, 2.0])

    def test_hand_example(self):
        # threshold x_(3) = 2; exceeders at t in {0, 3}; (10 + 7)/2
        assert mes_within(self.X, self.Y, 2) == 8.5

    def test_all_negative_y(self):
        assert mes_within(self.X, -np.abs(self.Y), 2) == 0.0

    def test_k_equals_len_minus_one(self):
        x = np.array([4.0, 3.0, 2.0, 1.0])
        y = np.array([1.0, 2.0, -3.0, 4.0])
        # threshold is the minimum; all other points exceed
        assert mes_within(x, y, 3) == pytest.approx((1.0 + 2.0 + 0.0) / 3)

    def test_positive_homogeneity(self):
        assert mes_within(self.X, 3.0 * self.Y, 2) == pytest.approx(3 * 8.5)

    def test_misaligned(self):
        with pytest.raises(ValueError):
            mes_within(self.X, self.Y[:-1], 2)


class TestMesNp:
    X = TestMesWithin.X
    Y = TestMesWithin.Y

    def test_hand_example(self):
        assert mes_np(self.X, self.Y, 0.4) == 8.5

    def test_matches_within_when_positive(self):
        rng = np.random.default_rng(3)
        x = rng.pareto(2.0, size=100)
        y = rng.pareto(2.0, size=100) + 0.1
        k = 10
        assert mes_np(x, y, k / 100) == pytest.approx(mes_within(x, y, k))

    def test_sign_follows_data(self):
        assert mes_np(self.X, -np.abs(self.Y), 0.4) <= 0.0


class TestTailConfig:
    def test_d_n(self):
        cfg = TailConfig(k=227, p=0.001, n=1000)
        assert cfg.d_n == pytest.approx(227.0)

    def test_anti_extrapolation_rejected(self):
        with pytest.raises(ValueError):
            TailConfig(k=10, p=0.5, n=100)

    def test_from_rule(self):
        cfg = TailConfig.from_rule(1000, 0.001)
        assert cfg.k == 227


class TestExtrapolate:
    def test_identity_at_dn_one(self):
        cfg = TailConfig(k=10, p=0.1, n=100)
        assert cfg.d_n == 1.0
        assert mes_extrapolate(0.77, 0.3, cfg) == pytest.approx(0.77)

    def test_direct_value(self):
        cfg = TailConfig(k=100, p=0.001, n=1000)  # d_n = 100
        assert mes_extrapolate(1.0, 0.2, cfg) == pytest.approx(100**0.2)
        assert 100**0.2 == pytest.approx(2.51189, abs=1e-5)

    def test_linear_in_theta(self):
        cfg = TailConfig(k=100, p=0.001, n=1000)
        assert mes_extrapolate(2.0, 0.2, cfg) == pytest.approx(
            2 * mes_extrapolate(1.0, 0.2, cfg))

    def test_monotone_in_dn(self):
        vals = [mes_extrapolate(1.0, 0.3, TailConfig(k=100, p=p, n=1000))
                for p in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]


class TestAssembleForecast:
    CFG = TailConfig(k=227, p=0.001, n=1000)

    def test_point_identity(self):
        fc = assemble_forecast(1.7, 2.3, 0.2, self.CFG, 0.05)
        assert fc.theta_hat_np_level == pytest.approx(1.7 * 2.3, rel=1e-14)

    def test_multiplicative_symmetry(self):
        fc = assemble_forecast(1.7, 2.3, 0.2, self.CFG, 0.05)
        assert fc.ci_lower * fc.ci_upper == pytest.approx(
            fc.theta_hat_np_level**2, rel=1e-10)
        assert fc.ci_lower <= fc.theta_hat_np_level <= fc.ci_upper

    def test_half_width_factor(self):
        cfg = TailConfig(k=100, p=0.001, n=1000)  # d_n = 100
        fc = assemble_forecast(1.0, 1.0, 0.2, cfg, 0.05)
        expected = np.exp(1.959964 * 0.2 * np.log(100.0) / np.sqrt(100))
        assert expected == pytest.approx(np.exp(0.18052), abs=1e-4)
        assert fc.ci_upper == pytest.approx(expected, rel=1e-6)

    def test_collapse_iota_one(self):
        fc = assemble_forecast(1.0, 2.0, 0.2, self.CFG, 1.0 - 1e-12)
        assert fc.ci_lower == pytest.approx(fc.theta_hat_np_level, rel=1e-6)
        assert fc.ci_upper == pytest.approx(fc.theta_hat_np_level, rel=1e-6)

    def test_collapse_dn_one(self):
        cfg = TailConfig(k=10, p=0.1, n=100)
        fc = assemble_forecast(1.0, 2.0, 0.2, cfg, 0.05)
        assert fc.ci_lower == fc.ci_upper == fc.theta_hat_np_level

    def test_degenerate_zero(self):
        fc = assemble_forecast(1.0, 0.0, 0.2, self.CFG, 0.05)
        assert fc.degenerate
        assert fc.ci_lower == fc.ci_upper == 0.0

    def test_wider_at_higher_confidence(self):
        narrow = assemble_forecast(1.0, 2.0, 0.2, self.CFG, 0.10)
        wide = assemble_forecast(1.0, 2.0, 0.2, self.CFG, 0.01)
        assert wide.ci_upper - wide.ci_lower > narrow.ci_upper - narrow.ci_lower


@pytest.mark.parametrize("estimator", [
    lambda x, k: hill(x + 10.0, k),
    lambda x, k: mes_within(x, x, k),
    lambda x, k: r_hat_pair(x, x, k),
    lambda x, k: sigma_hat([x, x], [0.2, 0.3], k),
])
@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(estimator, k):
    with pytest.raises(ValueError, match="at least 1"):
        estimator(np.arange(10.0), k)


@st.composite
def integer_matrix(draw):
    """An n x D matrix of small integers, so ties and zeros are common, and a k."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    values = draw(arrays(float, (n, d), elements=st.integers(-2, 4).map(float)))
    return values, draw(st.integers(1, n - 1))


def _hill_reference(values, k):
    v = np.sort(values)[::-1]
    return float(np.mean(np.log(v[:k] / v[k])))


def _mes_within_reference(x, y, k):
    threshold = np.sort(x)[::-1][k]
    return float(np.sum(np.maximum(y[x > threshold], 0.0)) / k)


class TestOrderStatisticProperties:
    @settings(deadline=None)
    @given(integer_matrix())
    def test_hill_matrix_matches_columns(self, case):
        values, k = case
        if np.any(np.sort(values, axis=0)[::-1][k] <= 0):
            with pytest.raises(ValueError, match="not positive"):
                hill(values, k)
            return
        by_column = [hill(values[:, j], k) for j in range(values.shape[1])]
        np.testing.assert_allclose(hill(values, k), by_column, rtol=1e-14, atol=0.0)
        for j, value in enumerate(by_column):
            assert value == _hill_reference(values[:, j], k)

    @settings(deadline=None)
    @given(integer_matrix())
    def test_mes_within_matrix_matches_columns(self, case):
        values, k = case
        x, y = values[:, 0], values
        by_column = [mes_within(x, y[:, j], k) for j in range(y.shape[1])]
        np.testing.assert_allclose(mes_within(x, y, k), by_column, rtol=1e-14, atol=0.0)
        for j, value in enumerate(by_column):
            assert value == _mes_within_reference(x, y[:, j], k)

    @settings(deadline=None)
    @given(integer_matrix(), st.floats(1e-3, 1e3))
    def test_invariant_under_positive_rescaling(self, case, scale):
        values, k = case
        x, y = values[:, 0] + 3.0, values[:, -1]
        assert hill(scale * x, k) == pytest.approx(hill(x, k), rel=1e-12, abs=1e-12)
        assert r_hat_pair(scale * x, y, k) == r_hat_pair(x, y, k)
        assert r_hat_pair(x, scale * y, k) == r_hat_pair(x, y, k)

    @settings(deadline=None)
    @given(integer_matrix(), st.floats(1e-3, 1e3))
    def test_mes_within_linear_in_y(self, case, scale):
        values, k = case
        x, y = values[:, 0], values[:, -1]
        assert mes_within(x, scale * y, k) == pytest.approx(scale * mes_within(x, y, k),
                                                            rel=1e-12, abs=0.0)

    @settings(deadline=None)
    @given(st.integers(2, 40), st.floats(1e-3, 1e3), st.data())
    def test_constant_positive_column(self, n, c, data):
        k = data.draw(st.integers(1, n - 1))
        column = np.full(n, c)
        assert hill(column, k) == 0.0
        assert mes_within(column, column, k) == 0.0
