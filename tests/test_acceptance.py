"""End-to-end acceptance checks.

Covers the full pipeline: Monte Carlo reproduction studies (coverage, RMSE
ordering, monotonicity in the risk level), exact algebraic invariants,
estimator fixtures, chi-square calibration of the equality test, agreement of
the independent truth oracles, tail-copula consistency, pipeline properties
(equivariance, invariance, no look-ahead, reproducible reruns), and the
rolling equality screen on synthetic panels.

The two 1000-replication studies dominate the runtime (~15 minutes on one
core); they are shared by the first three test classes via module fixtures.
"""

import numpy as np
import pytest
from scipy import stats

from tailmes.backtest import LossPanel, rolling_forecast
from tailmes.cli import main as cli_main
from tailmes.distributions import (
    BurrParams,
    InnovationSpec,
    TCopulaParams,
    sample_innovations,
    sample_t_copula,
    symmetrized_quantile,
    tail_copula_R,
)
from tailmes.evt import (
    TailConfig,
    assemble_forecast,
    hill,
    k_rule,
    mes_extrapolate,
    mes_within,
)
from tailmes.garch import GarchParams, qmle_fit, simulate_ccc
from tailmes.inference import contrast_matrix, wald_statistics, wald_test
from tailmes.simlab import (
    SimConfig,
    innovation_upper_quantile,
    mes_limit_integral,
    rejection_theta_oracle,
    run_study,
    theta_quadrature,
    true_theta_oracle,
)
from tailmes.taildep import r_hat_pair, sigma_hat

BURR = BurrParams(0.25, 20.0)
P_GRID = (0.01, 0.001, 0.0001, 0.00001)
STUDY_SEED = 20260823

# Risk level for the rolling equality screen. The chi-square pivot drops the
# within-sample estimation error, which only becomes negligible relative to
# the Hill-extrapolation error when log(d_n) is large, i.e. at very deep
# extrapolation; the null calibration needs this depth.
SCREEN_P = 1e-20


@pytest.fixture(scope="module")
def study_n1000():
    return run_study(SimConfig(n=1000, replications=1000, p_grid=P_GRID,
                               base_seed=STUDY_SEED))


@pytest.fixture(scope="module")
def study_n500():
    return run_study(SimConfig(n=500, replications=1000, p_grid=P_GRID,
                               base_seed=STUDY_SEED))


def _panel(n_rows, n_series, seed, heterogeneous=False):
    """Synthetic GARCH loss panel with t-copula innovations."""
    rng = np.random.default_rng(seed)
    copula = TCopulaParams.equicorrelated(4.0, 0.5, n_series)
    if heterogeneous:
        gammas = np.linspace(0.10, 0.45, n_series)
        spec = InnovationSpec(
            marginals=tuple(BurrParams(a=1.0 / (g * 20.0), b=20.0) for g in gammas),
            copula=copula)
    else:
        spec = InnovationSpec.homogeneous(BURR, copula)
    eps = sample_innovations(spec, n_rows + 200, rng)
    params = [GarchParams(0.001, 0.1, 0.85)] * n_series
    losses = simulate_ccc(params, eps, [0.1] * n_series)[200:]
    return LossPanel(dates=tuple(f"t{i:06d}" for i in range(n_rows)),
                     losses=losses,
                     market_caps=np.ones((n_rows, n_series)),
                     series_ids=tuple(f"s{j}" for j in range(n_series)))


def _iid_panel(n_rows, n_series, seed):
    """Null panel: i.i.d. rows with fully independent symmetrized-Burr series."""
    rng = np.random.default_rng(seed)
    losses = symmetrized_quantile(rng.uniform(size=(n_rows, n_series)), BURR)
    return LossPanel(dates=tuple(f"t{i:06d}" for i in range(n_rows)),
                     losses=losses,
                     market_caps=np.ones((n_rows, n_series)),
                     series_ids=tuple(f"s{j}" for j in range(n_series)))


def _toy_cov(d, seed=7):
    rng = np.random.default_rng(seed)
    cols = [np.abs(rng.standard_t(4, size=600)) for _ in range(d)]
    gammas = np.array([hill(c, 60) for c in cols])
    return sigma_hat(cols, gammas, 60), gammas


class TestLargeSampleStudy:
    """Coverage of the 95% interval in the standard n=1000 design."""

    def test_coverage_at_one_in_a_thousand(self, study_n1000):
        assert study_n1000.row_for(0.001).coverage == pytest.approx(90.4, abs=3.0)

    def test_coverage_at_one_in_a_hundred_thousand(self, study_n1000):
        assert study_n1000.row_for(0.00001).coverage == pytest.approx(93.5, abs=3.0)


class TestSmallSampleStudy:
    """n=500 design: coverage at the extreme level and efficiency ordering."""

    def test_coverage_at_extreme_level(self, study_n500):
        assert study_n500.row_for(0.00001).coverage == pytest.approx(93.9, abs=3.0)

    @pytest.mark.parametrize("p", [0.0001, 0.00001])
    def test_rmse_ordering(self, study_n500, p):
        row = study_n500.row_for(p)
        assert row.rmse_ml < row.rmse < row.rmse_np


class TestCoverageMonotonicity:
    def test_deeper_extrapolation_improves_coverage(self, study_n1000, study_n500):
        for res in (study_n1000, study_n500):
            assert (res.row_for(P_GRID[-1]).coverage
                    >= res.row_for(0.01).coverage + 5.0)


class TestExactInvariants:
    TOL = 1e-10

    def test_covariance_diagonal_is_squared_hill(self):
        sigma, gammas = _toy_cov(4)
        assert np.max(np.abs(np.diag(sigma) - gammas**2)) <= self.TOL

    def test_interval_multiplicative_symmetry(self):
        cfg = TailConfig(k=227, p=0.001, n=1000)
        fc = assemble_forecast(1.7, 2.3, 0.21, cfg, iota=0.05)
        point = fc.theta_hat_np_level
        assert abs(fc.ci_upper * fc.ci_lower - point**2) <= self.TOL * point**2

    def test_wald_zero_under_equal_inputs(self):
        res = wald_test(np.log([3.3, 3.3, 3.3, 3.3]), _toy_cov(4)[0], 227)
        assert abs(res.statistic) <= self.TOL

    def test_contrast_rows_sum_to_zero(self):
        for d in (2, 3, 5, 8):
            assert np.max(np.abs(contrast_matrix(d).sum(axis=1))) <= self.TOL

    def test_unit_depth_extrapolation_collapses(self):
        cfg = TailConfig(k=100, p=0.1, n=1000)
        assert cfg.d_n == 1.0
        assert abs(mes_extrapolate(4.56, 0.37, cfg) - 4.56) <= self.TOL

    def test_window_count_identity(self):
        panel = _panel(317, 2, seed=11)
        records = rolling_forecast(panel, n=300, ell_n=10, p=0.01)
        assert len(records) == 317 - (300 + 10)


class TestEstimatorFixtures:
    def test_hill_log_ratio_average(self):
        value = hill(np.array([8.0, 4.0, 2.0, 1.0]), 2)
        assert value == pytest.approx(1.5 * np.log(2.0), abs=1e-12)

    def test_within_sample_hand_example(self):
        x = np.array([5.0, 1.0, 2.0, 9.0, 0.0])
        y = np.array([10.0, -1.0, 3.0, 7.0, 2.0])
        assert mes_within(x, y, 2) == 8.5

    def test_k_rule_values(self):
        assert k_rule(1000) == 227
        assert k_rule(500) == 149


class TestChiSquareCalibration:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_gaussian_draws_with_known_covariance(self, d):
        rng = np.random.default_rng(300 + d)
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.5 * np.eye(d)
        draws = rng.standard_normal((100_000, d)) @ np.linalg.cholesky(sigma).T
        ts = wald_statistics(draws, sigma, 1.0)
        assert stats.kstest(ts, "chi2", args=(d - 1,)).statistic < 0.01


class TestTruthOracles:
    @pytest.mark.parametrize("p", [0.05, 0.01, 0.001])
    def test_independent_oracles_agree(self, p):
        cond = true_theta_oracle(3.0, 0.95, BURR, p, 2_000_000, 61)
        rej = rejection_theta_oracle(3.0, 0.95, BURR, p, 20_000_000, 62)
        joint_se = np.hypot(cond.mc_error, rej.mc_error)
        assert abs(cond.theta_p - rej.theta_p) < 3.0 * joint_se

    def test_limit_gap_shrinks_monotonically(self):
        limit = mes_limit_integral(3.0, 0.95, BURR.gamma)
        gaps = []
        for p in (1e-2, 1e-3, 1e-4):
            theta = theta_quadrature(3.0, 0.95, BURR, p, positive_part=True)
            gaps.append(abs(theta / innovation_upper_quantile(p, BURR) - limit))
        assert gaps[0] > gaps[1] > gaps[2]


class TestTailCopulaConsistency:
    @pytest.mark.parametrize("nu", [3.0, 5.0])
    def test_empirical_matches_closed_form(self, nu):
        n = 100_000
        k = k_rule(n)
        u = sample_t_copula(TCopulaParams.bivariate(nu, 0.95), n,
                            np.random.default_rng(int(nu)))
        r12 = r_hat_pair(u[:, 0], u[:, 1], k)
        target = tail_copula_R(1.0, 1.0, nu, 0.95)
        assert r12 == pytest.approx(target, rel=0.10)


class TestPipelineProperties:
    def test_residual_scale_equivariance(self):
        rng = np.random.default_rng(8)
        eps = rng.standard_normal((2000, 1))
        y = simulate_ccc([GarchParams(0.05, 0.1, 0.8)], eps, [0.5])[:, 0]
        base, scaled = qmle_fit(y), qmle_fit(37.0 * y)
        assert np.max(np.abs(y / base.vol_path
                             - 37.0 * y / scaled.vol_path)) < 1e-6

    def test_hill_scale_invariance(self):
        x = np.abs(np.random.default_rng(9).standard_t(4, size=400))
        assert hill(251.0 * x, 40) == pytest.approx(hill(x, 40), abs=1e-12)

    def test_tail_copula_rank_invariance(self):
        rng = np.random.default_rng(10)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        base = r_hat_pair(x, y, 50)
        # strictly increasing transforms leave every exceedance count intact
        assert r_hat_pair(np.exp(x), y**3 + 2.0 * y, 50) == base

    def test_no_look_ahead(self):
        panel = _panel(315, 2, seed=12)
        records = rolling_forecast(panel, n=300, ell_n=10, p=0.01)
        rec = records[2]
        cut = panel.dates.index(rec.date) + 1
        truncated = LossPanel(dates=panel.dates[:cut], losses=panel.losses[:cut],
                              market_caps=panel.market_caps[:cut],
                              series_ids=panel.series_ids)
        again = rolling_forecast(truncated, n=300, ell_n=10, p=0.01)[-1]
        assert again.date == rec.date
        assert again.theta_hat == rec.theta_hat

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        import json

        cfg = tmp_path / "study.ini"
        cfg.write_text("[study]\nn = 300\nreplications = 2\n"
                       "p_grid = 0.01\nbase_seed = 17\n")
        out = tmp_path / "a.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--threads", "1"]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        redo = tmp_path / "b.csv"
        argv = [a if a != str(out) else str(redo) for a in manifest["argv"]]
        assert cli_main(argv) == 0
        assert redo.read_bytes() == out.read_bytes()


class TestEqualContributionScreen:
    """Rolling equality test on synthetic panels: near-sure rejection under
    heterogeneous tails, approximately uniform p-values under the null.

    The null screen needs care: the empirical tail copula at the k-rule
    threshold (k/n) systematically exceeds its asymptotic limit, which
    understates the contrast covariance and inflates the statistic. Keeping
    the panel bivariate with independent components and using a long window
    pushes that distortion inside the tolerance.
    """

    ELL = 10

    def test_heterogeneous_tails_rejected(self):
        n, d = 1000, 8
        panel = _panel(n + self.ELL + 100, d, seed=77, heterogeneous=True)
        records = rolling_forecast(panel, n=n, ell_n=self.ELL, p=SCREEN_P)
        pvals = np.array([r.wald.p_value for r in records
                          if r.wald is not None and r.wald.contrast_ok])
        assert len(pvals) >= 0.95 * len(records)
        assert np.mean(pvals < 0.01) >= 0.95

    def test_homogeneous_iid_pvalues_uniform(self):
        # independent windows: overlapping rolling windows share almost every
        # observation, so only disjoint panels can exhibit uniformity
        n, d = 8000, 2
        pvals = []
        for w in range(200):
            panel = _iid_panel(n + self.ELL + 1, d, seed=(2026, d, w))
            rec = rolling_forecast(panel, n=n, ell_n=self.ELL, p=SCREEN_P)[0]
            if rec.wald is not None and rec.wald.contrast_ok:
                pvals.append(rec.wald.p_value)
        assert len(pvals) >= 190
        assert stats.kstest(np.array(pvals), "uniform").statistic < 0.1
