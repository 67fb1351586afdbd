import numpy as np
import pytest
from scipy import integrate, optimize, stats

from tailmes.distributions import (
    BurrParams,
    InnovationSpec,
    TCopulaParams,
    burr_cdf,
    burr_isf,
    burr_moment,
    burr_quantile,
    sample_innovations,
    sample_t_copula,
    symmetrized_quantile,
    tail_copula_R,
    tcopula_conditional_cdf,
    tcopula_conditional_quantile,
)
from tailmes.evt import hill


BURR_MAIN = BurrParams(a=0.25, b=20.0)
BURR_ALT = BurrParams(a=0.2, b=25.0)


class TestBurrIsf:
    def test_inverts_the_tail_deep_down(self):
        # 1 - F(x) = (1 + x^b)^(-a), evaluated without forming 1 - q
        q = np.array([1.0, 0.5, 1e-3, 1e-12, 1e-40])
        x = burr_isf(q, BURR_MAIN)
        assert (1.0 + x**BURR_MAIN.b) ** (-BURR_MAIN.a) == pytest.approx(q, rel=1e-12)

    def test_matches_quantile_in_the_body(self):
        u = np.linspace(0.05, 0.95, 7)
        assert burr_isf(1.0 - u, BURR_ALT) == pytest.approx(burr_quantile(u, BURR_ALT),
                                                             rel=1e-12)

    def test_deep_tail_at_small_a(self):
        # q^(-1/a) overflows; x = q^(-1/(ab)) (1 - q^(1/a))^(1/b) with q^(1/a) = 0
        burr, q = BurrParams(a=2.03 / 20.0, b=20.0), 1e-300
        x = burr_isf(q, burr)
        assert np.isfinite(x)
        assert x == pytest.approx(np.exp(-np.log(q) / (burr.a * burr.b)), rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            burr_isf(q, BURR_MAIN)


class TestBurrParams:
    def test_gamma(self):
        assert BURR_MAIN.gamma == pytest.approx(0.2)
        assert BURR_ALT.gamma == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BurrParams(a=-1.0, b=20.0)
        with pytest.raises(ValueError):
            BurrParams(a=1.0, b=2.0)  # a*b = 2: infinite variance


class TestBurrQuantile:
    def test_forces_unit_x(self):
        # u = 1 - 2^{-a} makes (1 + x^b)^{-a} = 2^{-a}, hence x = 1
        for params in (BURR_MAIN, BURR_ALT, BurrParams(a=3.0, b=1.0)):
            u = 1.0 - 2.0 ** (-params.a)
            assert burr_quantile(u, params) == pytest.approx(1.0, rel=1e-12)

    def test_pareto_like_case(self):
        assert burr_quantile(0.5, BurrParams(a=1.0, b=3.0)) == pytest.approx(1.0)

    def test_against_bisection_oracle(self):
        # independent root-finder on the distribution function itself
        u = 0.99
        root = optimize.brentq(lambda x: burr_cdf(x, BURR_MAIN) - u, 1e-12, 1e6,
                               xtol=1e-13, rtol=1e-14)
        assert burr_quantile(u, BURR_MAIN) == pytest.approx(root, rel=1e-9)

    def test_roundtrip(self):
        u = np.linspace(0.01, 0.99, 25)
        assert burr_cdf(burr_quantile(u, BURR_MAIN), BURR_MAIN) == pytest.approx(u)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 400)
        q = burr_quantile(grid, BURR_MAIN)
        assert np.all(np.diff(q) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            burr_quantile(0.0, BURR_MAIN)
        with pytest.raises(ValueError):
            burr_quantile(1.0, BURR_MAIN)


class TestBurrMoment:
    @pytest.mark.parametrize("params", [BURR_MAIN, BURR_ALT])
    def test_against_quadrature(self, params):
        # E[B^2] = 2 * int x * (1 - F(x)) dx, adaptive quadrature oracle
        def survivor(x):
            return (1.0 + x ** params.b) ** (-params.a)

        # split at the bend near x = 1 so the adaptive rule converges cleanly
        val, err = integrate.quad(lambda x: 2.0 * x * survivor(x), 0.0, np.inf,
                                  points=None, limit=200)
        v1, e1 = integrate.quad(lambda x: 2.0 * x * survivor(x), 0.0, 1.0, limit=200)
        v2, e2 = integrate.quad(lambda x: 2.0 * x * survivor(x), 1.0, np.inf, limit=200)
        assert val == pytest.approx(v1 + v2, rel=1e-7)
        assert e1 + e2 < 1e-7
        assert burr_moment(2.0, params) == pytest.approx(val, rel=1e-8)

    def test_infinite_moment_rejected(self):
        with pytest.raises(ValueError):
            burr_moment(1.0, BurrParams(a=0.5, b=2.0))  # r = a*b

    def test_std_constant(self):
        assert BURR_MAIN.std_constant == pytest.approx(
            np.sqrt(burr_moment(2.0, BURR_MAIN)))


class TestSymmetrizedQuantile:
    def test_odd_symmetry(self):
        u = np.array([0.01, 0.2, 0.4])
        left = symmetrized_quantile(u, BURR_MAIN)
        right = symmetrized_quantile(1.0 - u, BURR_MAIN)
        assert left == pytest.approx(-right, rel=1e-12)

    def test_unit_variance_by_construction(self):
        u = np.random.default_rng(5).uniform(size=2_000_000)
        eps = symmetrized_quantile(u, BURR_MAIN)
        assert np.mean(eps) == pytest.approx(0.0, abs=4 * eps.std() / np.sqrt(len(eps)))
        assert np.var(eps) == pytest.approx(1.0, rel=0.05)


@pytest.fixture(scope="module")
def draws():
    spec = InnovationSpec.homogeneous(BURR_MAIN, TCopulaParams.bivariate(3.0, 0.95))
    return sample_innovations(spec, 1_000_000, 123)


class TestSampleInnovations:

    def test_mean_zero(self, draws):
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)

    def test_unit_variance(self, draws):
        assert draws.var(axis=0) == pytest.approx([1.0, 1.0], rel=0.05)

    def test_tail_index(self, draws):
        k1 = int(np.sqrt(draws.shape[0]))
        for j in range(2):
            gamma = hill(np.abs(draws[:, j]), k1)
            assert gamma == pytest.approx(BURR_MAIN.gamma, rel=0.15)

    def test_symmetric_tails(self, draws):
        for x in (0.5, 1.0, 2.0):
            up = np.mean(draws[:, 0] > x)
            down = np.mean(draws[:, 0] < -x)
            se = np.sqrt(up * (1 - up) / draws.shape[0])
            assert abs(up - down) < 5 * max(se, 1e-6)

    def test_seed_determinism(self):
        spec = InnovationSpec.homogeneous(BURR_MAIN, TCopulaParams.bivariate(3.0, 0.5))
        a = sample_innovations(spec, 100, 7)
        b = sample_innovations(spec, 100, 7)
        c = sample_innovations(spec, 100, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_correlation_rejected(self):
        with pytest.raises(ValueError):
            TCopulaParams(nu=3.0, corr=np.array([[1.0, 1.2], [1.2, 1.0]]))


class TestTailCopulaR:
    def test_symmetry_and_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(0.05, 5.0, size=2)
            s = rng.uniform(0.1, 10.0)
            r = tail_copula_R(x, y, 3.0, 0.95)
            assert r == pytest.approx(tail_copula_R(y, x, 3.0, 0.95), rel=1e-12)
            assert tail_copula_R(s * x, s * y, 3.0, 0.95) == pytest.approx(
                s * r, rel=1e-12)

    def test_edges(self):
        assert tail_copula_R(0.0, 1.0, 3.0, 0.95) == 0.0
        assert tail_copula_R(2.0, np.inf, 3.0, 0.95) == pytest.approx(2.0)
        assert tail_copula_R(np.inf, 0.5, 3.0, 0.95) == pytest.approx(0.5)

    @pytest.mark.parametrize("nu", [3.0, 5.0])
    def test_against_brute_force(self, nu):
        # (n/k) * P{both coordinates beyond the 1 - k/n quantile} at k/n = 1e-3
        copula = TCopulaParams.bivariate(nu, 0.95)
        rng = np.random.default_rng(42)
        frac = 1e-3
        hits = 0
        total = 10_000_000
        for _ in range(5):
            u = sample_t_copula(copula, total // 5, rng)
            hits += np.count_nonzero((u[:, 0] > 1 - frac) & (u[:, 1] > 1 - frac))
        est = hits / (total * frac)
        se = np.sqrt(hits) / (total * frac)
        assert abs(est - tail_copula_R(1.0, 1.0, nu, 0.95)) < 3 * se


class TestConditionalCopula:
    def test_independence_limit(self):
        out = tcopula_conditional_quantile(0.3, 0.7, 1e6, 0.0)
        assert out == pytest.approx(0.7, abs=1e-3)

    def test_forward_backward(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.01, 0.99, size=50)
        v = rng.uniform(0.01, 0.99, size=50)
        w = tcopula_conditional_quantile(u, v, 3.0, 0.95)
        assert tcopula_conditional_cdf(u, w, 3.0, 0.95) == pytest.approx(v, abs=1e-10)

    def test_against_rejection_sampling(self):
        # conditional law given U_X in a thin band around u0
        nu, rho, u0, band = 3.0, 0.95, 0.99, 0.002
        copula = TCopulaParams.bivariate(nu, rho)
        rng = np.random.default_rng(99)
        kept = []
        for _ in range(10):
            u = sample_t_copula(copula, 1_000_000, rng)
            sel = np.abs(u[:, 0] - u0) < band
            kept.append(u[sel, 1])
        sample = np.concatenate(kept)
        grid = np.linspace(0.02, 0.98, 97)
        theory = tcopula_conditional_cdf(np.full_like(grid, u0), grid, nu, rho)
        empirical = np.searchsorted(np.sort(sample), grid) / len(sample)
        assert np.max(np.abs(theory - empirical)) < 0.005
