import itertools
import warnings

import numpy as np
import pytest
from scipy import optimize, special, stats

from tailmes.distributions import (
    BurrParams,
    InnovationSpec,
    TCopulaParams,
    sample_innovations,
    symmetrized_quantile,
)
from tailmes.evt import forecast_window, hill, k_rule
from tailmes.garch import GarchParams, filter_and_residualize, qmle_fit
from tailmes.simlab import (
    SimConfig,
    _average_rank,
    _burr_fit_coordinates,
    _burr_log_shapes,
    _burr_ml_negloglik_and_score,
    _conditional_tail_draws,
    _fit_ml,
    _legendre_rule,
    _simulate_panel,
    _tail_t_quantiles,
    fit_burr_ml,
    fit_tcopula_ml,
    innovation_upper_quantile,
    mes_limit_integral,
    ml_estimator,
    rejection_theta_oracle,
    run_replication,
    run_study,
    theta_quadrature,
    true_theta_oracle,
)

BURR = BurrParams(a=0.25, b=20.0)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.n == 1000 and cfg.ell_n == 10
        assert cfg.garch_x == GarchParams(0.001, 0.2, 0.75)
        assert cfg.garch_y == GarchParams(0.001, 0.1, 0.85)
        assert cfg.rho == 0.95

    def test_rejects_anti_extrapolation(self):
        with pytest.raises(ValueError):
            SimConfig(n=1000, p_grid=(0.5,))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            SimConfig(p_grid=(0.0,))

    def test_rejects_empty_p_grid(self):
        with pytest.raises(ValueError, match="p_grid"):
            SimConfig(p_grid=())

    @pytest.mark.parametrize("iota", [0.0, 1.0, 1.5, float("nan")])
    def test_rejects_bad_iota(self, iota):
        with pytest.raises(ValueError, match="iota"):
            SimConfig(iota=iota)


class TestTailTQuantiles:
    @pytest.mark.parametrize("nu", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("p", [0.05, 0.001, 1e-5])
    def test_matches_exact_isf(self, nu, p):
        v = np.concatenate([[1e-9, 1e-6, 1.0],
                            np.random.default_rng(1).uniform(1e-8, 1.0, 200)])
        approx = _tail_t_quantiles(p, v, nu)
        exact = stats.t.isf(p * v, nu)
        assert np.max(np.abs(approx / exact - 1.0)) < 1e-6


class TestTrueThetaOracle:
    def test_near_independence_is_near_zero(self):
        # heavy-ish draws, but weak dependence: conditional mean collapses to 0
        o = true_theta_oracle(1e6, 0.0, BURR, 0.05, 2_000_000, 5)
        assert abs(o.theta_p) < 4 * o.mc_error

    def test_oracles_cross_validate(self):
        p = 0.01
        cond = true_theta_oracle(3.0, 0.95, BURR, p, 2_000_000, 6)
        rej = rejection_theta_oracle(3.0, 0.95, BURR, p, 20_000_000, 7)
        joint_se = np.hypot(cond.mc_error, rej.mc_error)
        assert abs(cond.theta_p - rej.theta_p) < 3 * joint_se

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            true_theta_oracle(3.0, 0.95, BURR, 0.01, 1000, 1)

    def test_quadrature_matches_oracle(self):
        o = true_theta_oracle(3.0, 0.95, BURR, 0.01, 4_000_000, 17)
        quad = theta_quadrature(3.0, 0.95, BURR, 0.01)
        assert abs(quad - o.theta_p) < 3 * o.mc_error

    def test_limit_integral(self):
        # theta_p^+ / U1(1/p) approaches the tail-copula integral as p shrinks
        limit = mes_limit_integral(3.0, 0.95, BURR.gamma)
        gaps = []
        for p in (1e-2, 1e-3, 1e-4):
            theta = theta_quadrature(3.0, 0.95, BURR, p, positive_part=True)
            ratio = theta / innovation_upper_quantile(p, BURR)
            gaps.append(abs(ratio - limit))
        assert gaps[0] > gaps[1] > gaps[2]


class TestThetaQuadrature:
    @pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-4, 1e-5, 1e-7])
    def test_node_doubling(self, p):
        coarse = theta_quadrature(3.0, 0.95, BURR, p, nodes=50)
        fine = theta_quadrature(3.0, 0.95, BURR, p, nodes=100)
        assert abs(fine / coarse - 1.0) <= 1e-9

    @pytest.mark.parametrize("p, seed", [(1e-2, 71), (1e-3, 72), (1e-4, 73), (1e-5, 74)])
    def test_conditional_oracle_agrees(self, p, seed):
        o = true_theta_oracle(3.0, 0.95, BURR, p, 2_000_000, seed)
        assert abs(o.theta_p - theta_quadrature(3.0, 0.95, BURR, p)) < 3 * o.mc_error

    @pytest.mark.parametrize("nu, rho", itertools.product((1.2, 3.0, 30.0, 60.0),
                                                           (-0.99, 0.0, 0.95, 0.999)))
    def test_finite_on_the_ml_fit_range(self, nu, rho):
        # corners of the range an ML fit can return, where tail probabilities
        # underflow, a quantile overflows or one piece holds almost all the mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ab, b, p in itertools.product((2.03, 5.0, 50.0), (2.0, 20.0, 5000.0),
                                              (1e-2, 1e-5)):
                burr = BurrParams(a=ab / b, b=b)
                coarse = theta_quadrature(nu, rho, burr, p, nodes=50)
                fine = theta_quadrature(nu, rho, burr, p, nodes=100)
                assert np.isfinite(coarse) and np.isfinite(fine), (ab, b, p)
                # rho = 0 gives exactly 0 at both node counts
                assert abs(fine - coarse) <= 1e-6 * abs(coarse), (ab, b, p)

    def test_legendre_rule_cached_read_only(self):
        rule = _legendre_rule(50)
        assert _legendre_rule(50) is rule
        for cached, fresh in zip(rule, np.polynomial.legendre.leggauss(50)):
            assert np.array_equal(cached, fresh) and not cached.flags.writeable

    def test_study_truth_is_the_quadrature(self):
        cfg = SimConfig(replications=1, p_grid=(0.01, 0.001), base_seed=21)
        truth = run_study(cfg).diagnostics["true_theta"]
        for p in cfg.p_grid:
            assert truth[p] == {"theta_p": theta_quadrature(cfg.nu, cfg.rho, cfg.burr, p),
                                "method": "quadrature", "mc_error": 0.0}


class TestConditionalTailDraws:
    def test_bit_identical_to_inline_formula(self):
        # the conditional-t step as _conditional_tail_draws stated it inline
        def reference(nu, rho, burr, p, draws, rng):
            v = rng.uniform(size=draws)
            t1 = _tail_t_quantiles(p, np.clip(v, 1e-300, 1.0), nu)
            scale = np.sqrt((nu + t1 * t1) * (1.0 - rho * rho) / (nu + 1.0))
            t2 = rho * t1 + scale * rng.standard_t(nu + 1.0, size=draws)
            u_y = np.clip(stats.t.cdf(t2, nu), 1e-15, 1.0 - 1e-15)
            return symmetrized_quantile(u_y, burr)

        for nu, rho, p in ((3.0, 0.95, 1e-3), (4.7, 0.3, 0.02)):
            new = _conditional_tail_draws(nu, rho, BURR, p, 10_000, np.random.default_rng(5))
            old = reference(nu, rho, BURR, p, 10_000, np.random.default_rng(5))
            assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def big_sample():
    spec = InnovationSpec.homogeneous(BURR, TCopulaParams.bivariate(3.0, 0.95))
    return sample_innovations(spec, 100_000, 2024)


@pytest.fixture(scope="module")
def study_residuals():
    """The 64 residual matrices the study's ML comparison fits at n = 1000 for
    base seeds 7 and 8, 32 replications each."""
    out = []
    for seed in (7, 8):
        cfg = SimConfig(base_seed=seed)
        for rep in range(32):
            losses, _ = _simulate_panel(cfg, rep)
            out.append(forecast_window(losses, cfg.ell_n, [0.01], cfg.iota)[1])
    return out


def _burr_ml_negloglik(log_a, log_b, mags):
    """Value-only Burr objective in (log a, log b), the reference for the
    exact-score fit."""
    a, b = np.exp(log_a), np.exp(log_b)
    if a * b <= 2.02 or a > 1e4 or b > 1e4:
        return np.inf
    c = BurrParams(a=a, b=b).std_constant
    if not c > 0:  # E[B^2] underflows for tiny b
        return np.inf
    x = c * mags
    log_x = np.log(x)
    ll = (np.log(c) + np.log(a) + np.log(b) + (b - 1.0) * log_x
          - (a + 1.0) * np.logaddexp(0.0, b * log_x))
    return -float(np.sum(ll))


def _nelder_mead_burr_negloglik(mags):
    """Best value of the Nelder-Mead Burr fit from fit_burr_ml's three starts,
    the reference the exact-score fit must match."""
    gamma0 = max(hill(mags, max(k_rule(mags.shape[0]), 5)), 1e-3)
    ab0 = max(1.0 / gamma0, 2.5)
    best = np.inf
    for b0 in (5.0, 12.0, 25.0):
        a0 = max(ab0 / b0, 2.05 / b0 * 1.05)
        res = optimize.minimize(lambda x: _burr_ml_negloglik(x[0], x[1], mags),
                                np.log([a0, b0]), method="Nelder-Mead",
                                options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 400})
        best = min(best, res.fun)
    return best


def _reference_fit_tcopula_ml(u, v):
    """fit_tcopula_ml with the t quantiles of u and v and every term of the
    likelihood recomputed at each evaluation."""
    def negloglik(x, y, nu, rho):
        if not -0.9999 < rho < 0.9999:
            return np.inf
        one_m = 1.0 - rho * rho
        q = (x * x - 2.0 * rho * x * y + y * y) / one_m
        log_f2 = (special.gammaln((nu + 2.0) / 2.0) - special.gammaln(nu / 2.0)
                  - np.log(nu * np.pi) - 0.5 * np.log(one_m)
                  - (nu + 2.0) / 2.0 * np.log1p(q / nu))
        log_f1 = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
                  - 0.5 * np.log(nu * np.pi))
        log_fx = log_f1 - (nu + 1.0) / 2.0 * np.log1p(x * x / nu)
        log_fy = log_f1 - (nu + 1.0) / 2.0 * np.log1p(y * y / nu)
        return -float(np.sum(log_f2 - log_fx - log_fy))

    def profile(log_nu):
        nu = float(np.exp(log_nu))
        x = special.stdtrit(nu, u)
        y = special.stdtrit(nu, v)
        inner = optimize.minimize_scalar(lambda r: negloglik(x, y, nu, r),
                                         bounds=(-0.999, 0.999), method="bounded",
                                         options={"xatol": 1e-5})
        return inner.fun, inner.x

    outer = optimize.minimize_scalar(lambda ln: profile(ln)[0],
                                     bounds=(np.log(1.2), np.log(60.0)),
                                     method="bounded", options={"xatol": 5e-3})
    return float(np.exp(outer.x)), float(profile(outer.x)[1])


def _pseudo_observations(residuals):
    n = residuals.shape[0]
    return [_average_rank(col) / (n + 1.0) for col in residuals.T]


class TestMlFits:

    def test_burr_ml_consistency(self, big_sample):
        fit = fit_burr_ml(np.abs(big_sample[:, 1]))
        assert fit.a == pytest.approx(BURR.a, rel=0.10)
        assert fit.b == pytest.approx(BURR.b, rel=0.10)

    def test_burr_negloglik_infinite_where_std_constant_underflows(self):
        # at b = 0.01, a*b = 50, E[B^2] underflows to 0; the objective must
        # reject the point instead of returning NaN with warnings
        assert BurrParams(a=5000.0, b=0.01).std_constant == 0.0
        log_mags = np.log(np.linspace(0.1, 3.0, 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, _ = _burr_ml_negloglik_and_score(_burr_fit_coordinates(5000.0, 0.01),
                                                  log_mags)
        assert val == np.inf

    @pytest.mark.parametrize("a, b", [(2.0201 / 20.0, 20.0), (2.0201 / 50.0, 50.0),
                                      (2.021 / 0.5, 0.5), (0.25, 20.0), (0.05, 100.0),
                                      (0.001, 5000.0), (3.0, 1.0), (5000.0, 1.0)])
    def test_burr_score_matches_finite_differences(self, a, b):
        mags = np.abs(symmetrized_quantile(np.random.default_rng(4).uniform(size=1000), BURR))

        def reference(w):
            log_a, log_b, _ = _burr_log_shapes(w)
            return _burr_ml_negloglik(log_a, log_b, mags)

        w = _burr_fit_coordinates(a, b)
        val, score = _burr_ml_negloglik_and_score(w, np.log(mags))
        assert val == pytest.approx(reference(w), rel=1e-13)
        h = 1e-6
        central = np.array([(reference(w + h * e) - reference(w - h * e)) / (2.0 * h)
                            for e in np.eye(2)])
        assert np.max(np.abs(score - central)) <= 1e-6 * np.max(np.abs(score))

    def test_burr_fit_matches_nelder_mead_on_study_residuals(self, study_residuals):
        for residuals in study_residuals:
            mags = np.abs(residuals[:, 1])
            fit = fit_burr_ml(mags)
            new = _burr_ml_negloglik(np.log(fit.a), np.log(fit.b), mags)
            assert new <= _nelder_mead_burr_negloglik(mags) + 1e-8

    def test_tcopula_fit_bit_identical_to_reference(self, study_residuals):
        # the rounded set has tied ranks, so u and v share half-integer ranks
        for residuals in study_residuals + [np.round(study_residuals[0], 1)]:
            u, v = _pseudo_observations(residuals)
            assert fit_tcopula_ml(u, v) == _reference_fit_tcopula_ml(u, v)

    def test_tcopula_ml_consistency(self, big_sample):
        n = big_sample.shape[0]
        u = stats.rankdata(big_sample[:, 0]) / (n + 1)
        v = stats.rankdata(big_sample[:, 1]) / (n + 1)
        nu_hat, rho_hat = fit_tcopula_ml(u, v)
        assert nu_hat == pytest.approx(3.0, rel=0.10)
        assert rho_hat == pytest.approx(0.95, rel=0.10)


class TestRunReplication:
    CFG = SimConfig(replications=2, base_seed=33)

    def test_bit_identical_records(self):
        r1 = run_replication(self.CFG, 0.001, 0)
        r2 = run_replication(self.CFG, 0.001, 0)
        assert r1 == r2

    def test_different_reps_differ(self):
        r1 = run_replication(self.CFG, 0.001, 0)
        r2 = run_replication(self.CFG, 0.001, 1)
        assert r1.theta_hat != r2.theta_hat

    def test_hit_definition(self):
        r = run_replication(self.CFG, 0.001, 0)
        assert r.hit == (r.ci_lower <= r.theta_true <= r.ci_upper)

    @pytest.mark.parametrize("name", ["_fit_ml", "hill"])
    def test_programming_error_propagates(self, monkeypatch, name):
        # only domain errors (ValueError) become failed or ml_failed records;
        # the window's own Hill estimate runs in evt, the ML fit in simlab
        import tailmes.evt as evt
        import tailmes.simlab as simlab

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr({"_fit_ml": simlab, "hill": evt}[name], name, broken)
        with pytest.raises(TypeError, match="injected"):
            run_replication(self.CFG, 0.001, 0)

    def test_degenerate_garch_isolates_evt_error(self):
        # alpha = beta = 0: sigma is flat at sqrt(omega), so the volatility
        # forecast carries no estimation noise beyond omega-hat itself
        cfg = SimConfig(replications=1, base_seed=9,
                        garch_x=GarchParams(0.04, 0.0, 0.0),
                        garch_y=GarchParams(0.09, 0.0, 0.0))
        r = run_replication(cfg, 0.001, 0)
        theta_innov_true = r.theta_true / 0.3  # sigma_{n+1,Y} = sqrt(0.09)
        assert not r.failed
        # the forecast divided by the fitted sigma should land near the
        # innovation-level truth (pure EVT error, well within a factor 2)
        assert 0.5 < (r.theta_hat / r.theta_true) < 2.0
        assert theta_innov_true > 0


class TestMlEstimator:
    def test_implied_theta_at_true_parameters(self):
        # at the true parameters the implied value is the oracle itself
        spec = InnovationSpec.homogeneous(BURR, TCopulaParams.bivariate(3.0, 0.95))
        draws = sample_innovations(spec, 50_000, 3)
        from tailmes.garch import GarchFit  # noqa: F401  (documentation import)

        est = ml_estimator(draws, 0.01)
        oracle = true_theta_oracle(3.0, 0.95, BURR, 0.01, 2_000_000, 5)
        # ML noise at n = 5e4 plus MC noise; generous but informative band
        assert est == pytest.approx(oracle.theta_p, rel=0.10)

    def test_one_path_for_the_implied_theta(self):
        # ml_estimator and the study both evaluate theta_quadrature at the fit
        cfg = SimConfig(replications=1, base_seed=33)
        p = 0.001
        losses, _ = _simulate_panel(cfg, 0)
        fit_x, fit_y = qmle_fit(losses[:, 0]), qmle_fit(losses[:, 1])
        residuals = filter_and_residualize(losses, [fit_x, fit_y], cfg.ell_n)
        fit = _fit_ml(residuals)
        implied = theta_quadrature(fit.nu, fit.rho, fit.burr, p)
        assert ml_estimator(residuals, p) == implied
        assert run_replication(cfg, p, 0).theta_ml == implied * fit_y.vol_forecast

    def test_too_few_residuals(self):
        residuals = np.random.default_rng(1).standard_normal((100, 2))
        with pytest.raises(ValueError):
            ml_estimator(residuals, 0.01)


class TestRunStudy:
    def test_single_replication_identities(self):
        cfg = SimConfig(replications=1, p_grid=(0.001,), base_seed=21)
        res = run_study(cfg)
        row = res.row_for(0.001)
        assert row.rmse == pytest.approx(abs(row.bias), rel=1e-12)
        assert row.coverage in (0.0, 100.0)

    def test_failure_reasons_counted(self, monkeypatch):
        import tailmes.evt as evt

        fit = evt.qmle_fit
        calls = []

        def failing_second_replication(series):
            calls.append(1)
            if len(calls) == 3:  # first margin of replication 1
                raise ValueError("injected")
            return fit(series)

        monkeypatch.setattr(evt, "qmle_fit", failing_second_replication)
        cfg = SimConfig(replications=3, p_grid=(0.01, 0.001), base_seed=23)
        res = run_study(cfg)
        assert res.diagnostics["failed"] == 1
        assert res.diagnostics["fail_reasons"] == {"qmle": 1, "evt": 0}
        assert all(row.n_failed == 1 and row.n_used == 2 for row in res.rows)

    def test_evt_failure_counted(self, monkeypatch):
        import tailmes.evt as evt

        hill, calls = evt.hill, []

        def failing_first_replication(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("injected")
            return hill(*args, **kwargs)

        monkeypatch.setattr(evt, "hill", failing_first_replication)
        cfg = SimConfig(replications=3, p_grid=(0.01, 0.001), base_seed=23)
        res = run_study(cfg)
        assert res.diagnostics["failed"] == 1
        assert res.diagnostics["fail_reasons"] == {"qmle": 0, "evt": 1}
        assert all(row.n_failed == 1 and row.n_used == 2 for row in res.rows)

    def test_rows_independent_of_threads(self):
        cfg = SimConfig(replications=3, p_grid=(0.01, 0.001), base_seed=24)
        assert run_study(cfg, threads=2).rows == run_study(cfg, threads=1).rows

    def test_small_study_metrics(self, tmp_path):
        cfg = SimConfig(replications=4, p_grid=(0.01, 0.001), base_seed=22)
        res = run_study(cfg)
        assert len(res.rows) == 2
        for row in res.rows:
            assert 0.0 <= row.coverage <= 100.0
            assert row.rmse >= abs(row.bias) - 1e-12
        out = tmp_path / "study.csv"
        res.write_csv(out)
        text = out.read_text().splitlines()
        assert text[0].startswith("p,bias,rmse,rmse_ml,rmse_np,length,coverage")
        assert len(text) == 3
