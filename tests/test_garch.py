import warnings

import numpy as np
import pytest
from scipy import optimize, signal

import tailmes.garch as garch
from tailmes.distributions import BurrParams, InnovationSpec, TCopulaParams, sample_innovations
from tailmes.garch import (
    _STATIONARITY_CAP,
    GarchParams,
    _ar1_solve,
    _neg_quasi_loglik_and_score,
    filter_and_residualize,
    qmle_fit,
    simulate_ccc,
)

X_PARAMS = GarchParams(omega=0.001, alpha=0.2, beta=0.75)


def _simulate_margin(params, n, seed, burn=500):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((burn + n, 1))
    y = simulate_ccc([params], eps, [np.sqrt(params.stationary_variance)])
    return y[burn:, 0]


def _neg_quasi_loglik(y, y_sq, omega, alpha, beta, sigma0_sq):
    """Negative quasi-log-likelihood at (omega, alpha, beta), inf off the
    stationary region; the objective of the earlier optimizer."""
    if omega <= 0 or alpha < 0 or beta < 0 or alpha + beta > _STATIONARITY_CAP:
        return np.inf
    sigma2 = garch._variance_path(y_sq, omega, alpha, beta, sigma0_sq)
    if np.any(sigma2 <= 0) or not np.all(np.isfinite(sigma2)):
        return np.inf
    return 0.5 * float(np.sum(np.log(sigma2) + y_sq / sigma2))


def _filter_score(u, z_sq):
    """The earlier forward score: the derivative paths d sigma2_t / d(omega,
    alpha, beta) = (1, z2_{t-1}, sigma2_{t-1}) + beta * d sigma2_{t-1} through
    one three-row IIR filter, then the chain rule to the box coordinates."""
    omega, share = np.exp(u[0]), u[2]
    persistence = -np.expm1(-u[1])
    alpha, beta = share * persistence, (1.0 - share) * persistence
    sigma2 = garch._variance_path(z_sq, omega, alpha, beta, 1.0)
    ratio = z_sq / sigma2
    drive = np.vstack([np.ones(z_sq.shape[0] - 1), z_sq[:-1], sigma2[:-1]])
    dsigma2 = signal.lfilter([1.0], [1.0, -beta], drive, axis=1)
    d_omega, d_alpha, d_beta = dsigma2 @ (0.5 * (1.0 - ratio[1:]) / sigma2[1:])
    return np.array([omega * d_omega,
                     (1.0 - persistence) * (share * d_alpha + (1.0 - share) * d_beta),
                     persistence * (d_alpha - d_beta)])


def _reference_loglik(y):
    """Quasi-log-likelihood reached by the earlier optimizer: Nelder-Mead with an
    exterior penalty from three starts on (log omega, alpha, beta), then an
    L-BFGS-B polish with finite-difference gradients."""
    y_sq = y**2
    sample_var = float(np.var(y))
    n = y.shape[0]

    def objective(x):
        omega = np.exp(x[0])
        alpha, beta = x[1], x[2]
        excess = alpha + beta - _STATIONARITY_CAP
        if alpha < 0 or beta < 0 or excess > 0:
            a = max(alpha, 0.0)
            b = max(beta, 0.0)
            shrink = 1.0 if a + b <= _STATIONARITY_CAP else _STATIONARITY_CAP / (a + b)
            base = _neg_quasi_loglik(y, y_sq, omega, a * shrink, b * shrink, sample_var)
            pen = (min(alpha, 0.0) ** 2 + min(beta, 0.0) ** 2 + max(excess, 0.0) ** 2)
            return base + 1e6 * n * pen
        return _neg_quasi_loglik(y, y_sq, omega, alpha, beta, sample_var)

    best = None
    for a0, b0 in [(0.10, 0.85), (0.20, 0.70), (0.05, 0.50)]:
        x0 = np.array([np.log(sample_var * (1.0 - a0 - b0)), a0, b0])
        simplex = np.vstack([x0] + [x0 + 0.25 * np.eye(3)[i] * np.array([1.0, 0.2, 0.2])[i]
                                    for i in range(3)])
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"initial_simplex": simplex, "xatol": 1e-8,
                                         "fatol": 1e-10, "maxiter": 500, "maxfev": 1000})
        if best is None or res.fun < best.fun:
            best = res
    # the finite differences step across the infeasible region, where the objective is inf
    with np.errstate(invalid="ignore"):
        polish = optimize.minimize(objective, best.x, method="L-BFGS-B",
                                   bounds=[(None, None), (0.0, _STATIONARITY_CAP),
                                           (0.0, _STATIONARITY_CAP)],
                                   options={"maxiter": 200})
    best_fun = min(best.fun, polish.fun) if np.isfinite(polish.fun) else best.fun
    return -0.5 * n * np.log(2.0 * np.pi) - best_fun


def _heavy_tailed_margin(params, n, seed, burn=500):
    """GARCH margin driven by unit-variance Student-t(3) innovations."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_t(3, (burn + n, 1)) / np.sqrt(3.0)
    y = simulate_ccc([params], eps, [np.sqrt(params.omega / (1.0 - params.beta))])
    return y[burn:, 0]


def _iid_window(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "t4":
        return rng.standard_t(4, n)
    u = rng.uniform(size=n)  # symmetrized Burr(0.25, 20)
    return np.sign(rng.uniform(size=n) - 0.5) * ((1.0 - u) ** -4.0 - 1.0) ** (1.0 / 20.0)


class TestGarchParams:
    def test_stationary_variance(self):
        assert X_PARAMS.stationary_variance == pytest.approx(0.001 / 0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GarchParams(omega=0.0, alpha=0.1, beta=0.1)
        with pytest.raises(ValueError):
            GarchParams(omega=1.0, alpha=-0.1, beta=0.1)


class TestSimulate:
    def test_degenerate_recursion(self):
        eps = np.random.default_rng(0).standard_normal((200, 1))
        y = simulate_ccc([GarchParams(4.0, 0.0, 0.0)], eps, [2.0])
        assert np.allclose(y[:, 0], 2.0 * eps[:, 0])

    def test_one_step_by_hand(self):
        # omega=1, alpha=beta=0.5, sigma0^2=1, eps=(1,-1):
        # y0 = 1, sigma1^2 = 1 + 0.5*1 + 0.5*1 = 2, y1 = -sqrt(2)
        eps = np.array([[1.0], [-1.0]])
        y, sig = simulate_ccc([GarchParams(1.0, 0.5, 0.5)], eps, [1.0],
                              return_volatility=True)
        assert y[0, 0] == 1.0
        assert sig[1, 0] == pytest.approx(np.sqrt(2.0))
        assert y[1, 0] == pytest.approx(-np.sqrt(2.0))

    def test_long_run_variance(self):
        y = _simulate_margin(X_PARAMS, 1_000_000, seed=1)
        assert np.var(y) == pytest.approx(X_PARAMS.stationary_variance, rel=0.05)

    def test_dimension_mismatch(self):
        eps = np.zeros((10, 2))
        with pytest.raises(ValueError):
            simulate_ccc([X_PARAMS], eps, [1.0, 1.0])


class TestQmleFit:
    def test_iid_gaussian(self):
        c = 4.0
        y = np.sqrt(c) * np.random.default_rng(2).standard_normal(100_000)
        fit = qmle_fit(y)
        sigma2 = fit.vol_path**2
        assert np.median(sigma2) == pytest.approx(c, rel=0.10)
        assert fit.params.alpha < 0.02

    def test_consistency_on_simulated_data(self):
        y = _simulate_margin(X_PARAMS, 100_000, seed=3)
        fit = qmle_fit(y)
        assert fit.params.omega == pytest.approx(X_PARAMS.omega, rel=0.5)
        assert fit.params.alpha == pytest.approx(X_PARAMS.alpha, rel=0.15)
        assert fit.params.beta == pytest.approx(X_PARAMS.beta, rel=0.10)
        assert fit.converged

    def test_deterministic(self):
        y = _simulate_margin(X_PARAMS, 2000, seed=4)
        f1, f2 = qmle_fit(y), qmle_fit(y)
        assert f1.params == f2.params
        assert f1.loglik == f2.loglik

    def test_scale_equivariance(self):
        y = _simulate_margin(X_PARAMS, 2000, seed=5)
        c = 37.0
        base = qmle_fit(y)
        scaled = qmle_fit(c * y)
        assert scaled.params.omega == pytest.approx(c**2 * base.params.omega, rel=1e-5)
        assert scaled.params.alpha == pytest.approx(base.params.alpha, abs=1e-5)
        assert scaled.params.beta == pytest.approx(base.params.beta, abs=1e-5)
        res_base = y / base.vol_path
        res_scaled = (c * y) / scaled.vol_path
        assert np.max(np.abs(res_base - res_scaled)) < 1e-6

    def test_forecast_identity_and_positivity(self):
        y = _simulate_margin(X_PARAMS, 1500, seed=6)
        fit = qmle_fit(y)
        p = fit.params
        expected = np.sqrt(p.omega + p.alpha * y[-1] ** 2 + p.beta * fit.vol_path[-1] ** 2)
        assert fit.vol_forecast == pytest.approx(expected, rel=1e-12)
        assert fit.vol_forecast > 0
        assert np.all(fit.vol_path > 0)

    def test_loglik_beats_truth_usually(self):
        # optimizer quality gate: fitted likelihood >= truth's on >= 95% of fits
        wins = 0
        reps = 20
        for rep in range(reps):
            y = _simulate_margin(X_PARAMS, 1000, seed=100 + rep)
            fit = qmle_fit(y)
            y_sq = y**2
            truth = -_neg_quasi_loglik(y, y_sq, X_PARAMS.omega, X_PARAMS.alpha,
                                       X_PARAMS.beta, float(np.var(y)))
            fitted = -_neg_quasi_loglik(y, y_sq, fit.params.omega, fit.params.alpha,
                                        fit.params.beta, float(np.var(y)))
            wins += fitted >= truth - 1e-9
        assert wins >= 0.95 * reps

    def test_residual_variance_near_one(self):
        spec = InnovationSpec.homogeneous(BurrParams(0.25, 20.0),
                                          TCopulaParams.bivariate(3.0, 0.95))
        eps = sample_innovations(spec, 1510, 7)
        y = simulate_ccc([X_PARAMS, GarchParams(0.001, 0.1, 0.85)], eps,
                         [0.15, 0.1])
        fits = [qmle_fit(y[:, j]) for j in range(2)]
        residuals = filter_and_residualize(y, fits, 10)
        for j in range(2):
            assert 0.8 <= np.var(residuals[:, j]) <= 1.2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qmle_fit(np.ones(1000))
        with pytest.raises(ValueError):
            qmle_fit(np.arange(10.0))
        bad = np.random.default_rng(8).standard_normal(100)
        bad[50] = np.nan
        with pytest.raises(ValueError):
            qmle_fit(bad)


class TestExactScore:
    @pytest.mark.parametrize("u", [(np.log(0.05), 3.0, 0.1), (np.log(0.3), 1.2, 0.5),
                                   (np.log(0.01), 5.0, 0.05), (0.2, 0.4, 0.9)])
    def test_gradient_matches_central_differences(self, u):
        y = _simulate_margin(X_PARAMS, 1500, seed=21)
        z_sq = y**2 / np.var(y)
        u = np.array(u)
        _, grad = _neg_quasi_loglik_and_score(u, z_sq)
        h = 1e-6
        numeric = np.array([(_neg_quasi_loglik_and_score(u + h * e, z_sq)[0]
                             - _neg_quasi_loglik_and_score(u - h * e, z_sq)[0]) / (2 * h)
                            for e in np.eye(3)])
        assert np.linalg.norm(grad - numeric) <= 1e-5 * np.linalg.norm(numeric)

    def test_one_variance_path_per_evaluation(self, monkeypatch):
        calls = {"path": 0, "score": 0}
        path, score = garch._variance_path, garch._neg_quasi_loglik_and_score

        def counted_path(*args):
            calls["path"] += 1
            return path(*args)

        def counted_score(*args):
            calls["score"] += 1
            return score(*args)

        monkeypatch.setattr(garch, "_variance_path", counted_path)
        monkeypatch.setattr(garch, "_neg_quasi_loglik_and_score", counted_score)
        qmle_fit(_simulate_margin(X_PARAMS, 1000, seed=22))
        # one path per evaluation, plus the fitted path
        assert calls["path"] == calls["score"] + 1

    def test_iterations_sum_over_starts(self, monkeypatch):
        nits = []
        minimize = optimize.minimize

        def recorded(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nits.append(res.nit)
            return res

        monkeypatch.setattr(garch.optimize, "minimize", recorded)
        fit = qmle_fit(_simulate_margin(X_PARAMS, 1000, seed=23))
        assert len(nits) == 3
        assert fit.iterations == sum(nits)


class TestBandedSolve:
    """The banded LAPACK solve against the IIR filter it replaced."""

    @pytest.mark.parametrize("n", [2, 1010, 8000])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.999999])
    def test_matches_lfilter(self, n, beta):
        drive = np.random.default_rng(n).uniform(0.01, 3.0, n)
        expected = signal.lfilter([1.0], [1.0, -beta], drive)
        got = _ar1_solve(beta, drive.copy())
        assert np.max(np.abs(got - expected) / expected) <= 1e-14
        backward = signal.lfilter([1.0], [1.0, -beta], drive[::-1])[::-1]
        got = _ar1_solve(beta, drive.copy(), trans=b"T")
        assert np.max(np.abs(got - backward) / backward) <= 1e-14

    @pytest.mark.parametrize("n", [2, 1010, 8000])
    def test_variance_path_matches_lfilter_with_initial_state(self, n):
        y_sq = np.random.default_rng(n + 1).standard_t(4, n) ** 2
        omega, alpha, beta, sigma0_sq = 0.02, 0.08, 0.9, 1.7
        expected = np.empty(n)
        expected[0] = sigma0_sq
        expected[1:], _ = signal.lfilter([1.0], [1.0, -beta], omega + alpha * y_sq[:-1],
                                         zi=np.array([beta * sigma0_sq]))
        got = garch._variance_path(y_sq, omega, alpha, beta, sigma0_sq)
        assert got[0] == sigma0_sq
        assert np.max(np.abs(got - expected) / expected) <= 1e-14

    @pytest.mark.parametrize("n", [1010, 8000])
    @pytest.mark.parametrize("u", [(np.log(0.05), 3.0, 0.1), (np.log(0.3), 1.2, 0.5),
                                   (np.log(0.01), 5.0, 0.05), (0.2, 0.4, 0.9),
                                   (np.log(1e-6), 13.8, 0.0), (-2.0, 0.0, 1.0)])
    def test_adjoint_score_matches_filter_score(self, n, u):
        y = _heavy_tailed_margin(GarchParams(1e-3, 0.1, 0.85), n, seed=n)
        z_sq = y**2 / np.var(y)
        u = np.array(u)
        _, grad = _neg_quasi_loglik_and_score(u, z_sq)
        expected = _filter_score(u, z_sq)
        assert np.linalg.norm(grad - expected) <= 1e-12 * np.linalg.norm(expected)


class TestAgreementWithReference:
    """The earlier Nelder-Mead optimizer as an oracle on fixed corpora."""

    @pytest.mark.parametrize("seed", range(8))
    def test_identified_windows(self, seed):
        rng = np.random.default_rng(600 + seed)
        alpha = rng.uniform(0.03, 0.2)
        params = GarchParams(1e-3, alpha, rng.uniform(0.85, 0.999) - alpha)
        y = _heavy_tailed_margin(params, 1000, seed=700 + seed)
        assert qmle_fit(y).loglik >= _reference_loglik(y) - 1e-6

    def test_iid_windows(self):
        # on white noise alpha-hat is (near) 0, where beta is unidentified and
        # the likelihood has separate basins: neither optimizer finds the best
        # one every time, so the new one may lose a basin on a few windows as
        # long as it gains more than it loses over the corpus
        deltas = []
        for seed in range(16):
            y = _iid_window(("t4", "burr")[seed % 2], 1000 * (1 + seed % 3), 800 + seed)
            deltas.append(qmle_fit(y).loglik - _reference_loglik(y))
        deltas = np.array(deltas)
        assert np.sum(deltas < -1e-3) <= 0.1 * deltas.size
        assert np.sum(deltas) >= 0.0


class TestAtCap:
    def test_no_warnings_near_integrated(self):
        fits = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(4):
                y = _heavy_tailed_margin(GarchParams(1e-4, 0.12, 0.88), 1000, seed=300 + seed)
                fits.append(qmle_fit(y))
        at_cap = [f for f in fits
                  if f.params.alpha + f.params.beta >= _STATIONARITY_CAP - 1e-9]
        assert at_cap
        for f in at_cap:
            assert not f.converged
            assert f.params.alpha + f.params.beta <= _STATIONARITY_CAP


class TestResidualize:
    def test_division(self):
        class FakeFit:
            vol_path = np.array([2.0, 2.0])

        residuals = filter_and_residualize(np.array([[4.0], [-2.0]]), [FakeFit()], 0)
        assert np.allclose(residuals[:, 0], [2.0, -1.0])

    def test_one_dimensional_losses_rejected(self):
        class FakeFit:
            vol_path = np.array([2.0, 2.0])

        with pytest.raises(ValueError, match="1 fits for 2 margins"):
            filter_and_residualize(np.array([4.0, -2.0]), [FakeFit()], 0)

    def test_clipping(self):
        class FakeFit:
            vol_path = np.ones(20)

        y = np.arange(20.0).reshape(-1, 1)
        assert filter_and_residualize(y, [FakeFit()], 0).shape[0] == 20
        residuals = filter_and_residualize(y, [FakeFit()], 10)
        assert residuals.shape[0] == 10
        assert residuals[0, 0] == 10.0

    def test_filtration_consistency(self):
        # filtered residuals approach the true innovations as the window grows
        rng = np.random.default_rng(9)
        errs = []
        for n in (1000, 20_000):
            eps = rng.standard_normal((500 + n, 1))
            y, sig = simulate_ccc([X_PARAMS], eps,
                                  [np.sqrt(X_PARAMS.stationary_variance)],
                                  return_volatility=True)
            y, sig, eps_kept = y[500:], sig[500:], eps[500:]
            fit = qmle_fit(y[:, 0])
            residuals = filter_and_residualize(y, [fit], 10)
            errs.append(np.mean((residuals[:, 0] - eps_kept[10:, 0]) ** 2))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01
