"""Monte Carlo laboratory: data generation, per-replication pipeline, metrics,
comparison estimators, the deterministic true innovation MES and independent
Monte Carlo oracles that cross-check it."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np
from scipy import integrate, optimize, special, stats

from .distributions import (
    BurrParams,
    InnovationSpec,
    TCopulaParams,
    _burr_log_isf,
    _conditional_params,
    burr_quantile,
    sample_innovations,
    sample_t_copula,
    symmetrized_quantile,
    tail_copula_R,
)
from .evt import TailConfig, assemble_forecast, hill, k_rule, mes_np, mes_within, mes_extrapolate
from .garch import GarchParams, ResidualPanel, filter_and_residualize, qmle_fit, simulate_ccc

__all__ = [
    "SimConfig",
    "SimResult",
    "SimRow",
    "TrueMes",
    "RepRecord",
    "theta_quadrature",
    "true_theta_oracle",
    "rejection_theta_oracle",
    "mes_limit_integral",
    "ml_estimator",
    "run_replication",
    "run_study",
]

@dataclass(frozen=True)
class SimConfig:
    """Simulation design; defaults mirror the standard bivariate study setup."""

    n: int = 1000
    ell_n: int = 10
    p_grid: tuple = (0.01, 0.005, 0.001, 0.0005, 0.0001, 0.00005, 0.00001)
    nu: float = 3.0
    rho: float = 0.95
    burr: BurrParams = field(default_factory=lambda: BurrParams(a=0.25, b=20.0))
    replications: int = 1000
    base_seed: int = 1
    garch_x: GarchParams = field(default_factory=lambda: GarchParams(0.001, 0.2, 0.75))
    garch_y: GarchParams = field(default_factory=lambda: GarchParams(0.001, 0.1, 0.85))
    iota: float = 0.05
    burn_in: int = 500

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        k = k_rule(self.n)
        for p in self.p_grid:
            if not 0.0 < p < 1.0:
                raise ValueError(f"risk level p={p} must lie in (0, 1)")
            if k / (self.n * p) < 1.0:
                raise ValueError(
                    f"p={p} violates the extrapolation requirement k/(n*p) >= 1 "
                    f"for n={self.n} (k={k})"
                )


@dataclass
class TrueMes:
    """True innovation MES at level p: from the quadrature (mc_error 0) or a
    Monte Carlo oracle (mc_error its standard error)."""

    theta_p: float
    method: str
    mc_error: float


@dataclass
class RepRecord:
    """Outcome of one replication at one risk level."""

    rep_index: int
    p: float
    theta_true: float = np.nan
    theta_hat: Optional[float] = None
    ci_lower: Optional[float] = None
    ci_upper: Optional[float] = None
    gamma_hat: Optional[float] = None
    theta_ml: Optional[float] = None
    theta_np: Optional[float] = None
    hit: Optional[bool] = None
    failed: bool = False
    fail_reason: Optional[str] = None
    ml_failed: bool = False
    qmle_converged: bool = True


@dataclass
class SimRow:
    """Aggregated metrics for one risk level; error metrics scaled by 100."""

    p: float
    bias: float
    rmse: float
    rmse_ml: float
    rmse_np: float
    mean_length: float
    coverage: float
    n_used: int
    n_failed: int
    n_ml_failed: int


@dataclass
class SimResult:
    rows: list
    config: SimConfig
    diagnostics: dict

    def row_for(self, p: float) -> SimRow:
        for row in self.rows:
            if abs(row.p - p) <= 1e-12 * max(p, 1e-300):
                return row
        raise KeyError(f"no results for p={p}")

    def write_csv(self, path) -> None:
        cols = ["p", "bias", "rmse", "rmse_ml", "rmse_np", "length", "coverage",
                "n_used", "n_failed", "n_ml_failed",
                "bias_tab", "rmse_tab", "rmse_ml_tab", "rmse_np_tab", "length_tab",
                "coverage_tab"]
        lines = [",".join(cols)]
        for r in self.rows:
            vals = [repr(r.p), repr(r.bias), repr(r.rmse), repr(r.rmse_ml),
                    repr(r.rmse_np), repr(r.mean_length), repr(r.coverage),
                    str(r.n_used), str(r.n_failed), str(r.n_ml_failed),
                    f"{r.bias:.1f}", f"{r.rmse:.1f}", f"{r.rmse_ml:.1f}",
                    f"{r.rmse_np:.1f}", f"{r.mean_length:.1f}", f"{r.coverage:.1f}"]
            lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _tail_t_quantiles(p: float, v: np.ndarray, nu: float) -> np.ndarray:
    """t_nu upper-tail quantiles isf(p * v) for v in (0, 1], via log-log interpolation.

    Valid for p <= 0.1 where the quantile stays positive; relative error is
    far below Monte Carlo noise (checked in tests against scipy's exact isf).
    """
    if p > 0.1:
        return stats.t.isf(p * v, nu)
    log_v = np.log(v)
    lo, hi = float(log_v.min()), 0.0
    if hi - lo < 1e-12:
        return stats.t.isf(p * v, nu)
    grid = np.linspace(lo, hi, 4096)
    log_q = np.log(stats.t.isf(p * np.exp(grid), nu))
    return np.exp(np.interp(log_v, grid, log_q))


def _conditional_tail_draws(nu: float, rho: float, burr: BurrParams, p: float,
                            draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of eps_Y given U_X > 1 - p via the exact conditional t-copula."""
    v = rng.uniform(size=draws)
    t1 = _tail_t_quantiles(p, np.clip(v, 1e-300, 1.0), nu)
    loc, scale, dof = _conditional_params(t1, nu, rho)
    t2 = loc + scale * rng.standard_t(dof, size=draws)
    u_y = np.clip(stats.t.cdf(t2, nu), 1e-15, 1.0 - 1e-15)
    return symmetrized_quantile(u_y, burr)


def true_theta_oracle(nu: float, rho: float, burr: BurrParams, p: float,
                      draws: int, rng_seed) -> TrueMes:
    """Conditional Monte Carlo oracle for theta_p = E[eps_Y | eps_X > VaR_p]."""
    if draws < 10**6:
        raise ValueError("oracle requires at least 1e6 draws")
    rng = np.random.default_rng(rng_seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 2_000_000
    while done < draws:
        m = min(chunk, draws - done)
        eps = _conditional_tail_draws(nu, rho, burr, p, m, rng)
        total += float(eps.sum())
        total_sq += float((eps * eps).sum())
        done += m
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return TrueMes(theta_p=mean, method="conditional-mc",
                   mc_error=float(np.sqrt(var / draws)))


def rejection_theta_oracle(nu: float, rho: float, burr: BurrParams, p: float,
                           draws: int, rng_seed) -> TrueMes:
    """Second, independent oracle: rejection sampling of full copula pairs."""
    rng = np.random.default_rng(rng_seed)
    copula = TCopulaParams.bivariate(nu, rho)
    total = 0.0
    total_sq = 0.0
    kept = 0
    done = 0
    chunk = 2_000_000
    while done < draws:
        m = min(chunk, draws - done)
        u = sample_t_copula(copula, m, rng)
        sel = u[:, 0] > 1.0 - p
        if np.any(sel):
            u_y = np.clip(u[sel, 1], 1e-15, 1.0 - 1e-15)
            eps = symmetrized_quantile(u_y, burr)
            eps = np.atleast_1d(eps)
            total += float(eps.sum())
            total_sq += float((eps * eps).sum())
            kept += int(eps.shape[0])
        done += m
    if kept < 100:
        raise ValueError(f"only {kept} exceedances kept; increase draws or p")
    mean = total / kept
    var = max(total_sq / kept - mean * mean, 0.0)
    return TrueMes(theta_p=mean, method="rejection-mc",
                   mc_error=float(np.sqrt(var / kept)))


def theta_quadrature(nu: float, rho: float, burr: BurrParams, p: float,
                     nodes: int = 50, positive_part: bool = False) -> float:
    """Deterministic quadrature for theta_p; the study's truth and, at the
    fitted parameters, the ML comparison estimate.

    theta_p = int_0^1 E[eps_Y | U_X = 1 - p*t] dt. Given T_X = t1, T_Y = loc +
    scale * S with S ~ t_{nu+1}, and eps_Y has a cusp at T_Y = 0 (it grows like
    |T_Y|^(1/b)), so the inner mean is split there: the pieces T_Y < 0 and
    T_Y > 0 are integrated over their own t_{nu+1} probability ranges, (0, c)
    and (c, 1) with c = F_{nu+1}(-loc/scale). The singular endpoints (outer
    t -> 0, both ends of each piece) are tamed by x = s^5 and x = 1 - s^5
    before Gauss-Legendre integration with `nodes` nodes per range; eps_Y is
    computed in logs from the log tail probability of |T_Y|, so neither tail
    loses digits and a deep quantile does not overflow. At 50 nodes, doubling
    the nodes moves theta_p by under 1e-12 relative for p from 1e-2 to 1e-7 in
    the standard design.

    The value is finite, and doubling the nodes moves it by under 1e-8
    relative, on the range of the ML fit: nu in [1.2, 60], |rho| <= 0.999,
    a*b > 2.02, b from 0.3 to 1e4 and p from 1e-5 to 1e-2 (checked on the
    corners of that box; the tests keep a grid of them). Below it, at b = 0.01
    and a*b = 50, the standardization constant of the Burr margin is 0.

    With positive_part=True the conditional mean of max(eps_Y, 0) is returned
    (the piece T_Y < 0 is dropped); this is the quantity whose ratio to the
    extreme marginal quantile converges to the tail-copula integral (the raw
    mean keeps an opposite-tail term of the same asymptotic order, so its
    ratio settles slightly below the limit).
    """
    s_nodes, s_weights = np.polynomial.legendre.leggauss(nodes)

    def unit_rule(upper):
        return 0.5 * upper * (s_nodes + 1.0), 0.5 * upper * s_weights

    # outer variable t = s^5 over (0, 1)
    s, ws = unit_rule(1.0)
    t1 = stats.t.isf(p * s**5, nu)
    outer_w = ws * 5.0 * s**4
    loc, scale, dof = _conditional_params(t1, nu, rho)

    # a piece's probabilities, as shares x of its mass from its outer end,
    # split at 1/2 into x = z^5 and x = 1 - z^5
    z, wz = unit_rule(0.5 ** 0.2)
    z5 = z**5
    wx = np.concatenate([wz * 5.0 * z**4] * 2)
    below = stats.t.cdf(-loc / scale, dof)
    above = stats.t.sf(-loc / scale, dof)

    def piece(mass, other, sign):
        m, o = mass[:, None], other[:, None]
        outer = m * z5
        kept = outer > 0.0  # a cell whose probability underflows is dropped
        # near the cusp a piece holding most of the mass is read from the other
        # side as ppf(other + m z^5) = -isf(.): m (1 - z^5) may round to 1
        major = m > 0.5
        s_t = np.concatenate([
            stats.t.isf(np.where(kept, outer, 0.5), dof),
            np.where(major, -1.0, 1.0)
            * stats.t.isf(np.where(major, o + outer, m * (1.0 - z5)), dof)], axis=1)
        t2 = loc[:, None] + sign * scale[:, None] * s_t
        log_eps = _burr_log_isf(np.log(2.0) + stats.t.logsf(np.abs(t2), nu), burr)
        eps = np.exp(log_eps) * np.concatenate([kept, np.ones_like(kept)], axis=1)
        return sign * mass * (eps @ wx) / burr.std_constant

    inner = piece(above, below, 1.0)
    if not positive_part:
        inner = inner + piece(below, above, -1.0)
    return float(outer_w @ inner)


def mes_limit_integral(nu: float, rho: float, gamma: float) -> float:
    """Limit of theta_p / U_1(1/p) as p -> 0: integral of R(1, y^(-1/gamma)) dy."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    # substitute z = y^(-1/gamma): integral of gamma * z^(-gamma-1) * R(1, z) dz
    def integrand(z):
        return gamma * z ** (-gamma - 1.0) * tail_copula_R(1.0, z, nu, rho)

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return float(val)


def innovation_upper_quantile(p: float, burr: BurrParams) -> float:
    """U_1(1/p): the (1-p)-quantile of the symmetrized standardized Burr margin."""
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2) for the upper tail")
    return burr_quantile(1.0 - 2.0 * p, burr) / burr.std_constant


# ---------------------------------------------------------------------------
# parametric ML comparison estimator
# ---------------------------------------------------------------------------


@dataclass
class MlFit:
    burr: BurrParams
    nu: float
    rho: float


def _burr_ml_negloglik(log_a: float, log_b: float, mags: np.ndarray) -> float:
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


def fit_burr_ml(magnitudes) -> BurrParams:
    """ML fit of Burr(a, b) to magnitudes of symmetrized standardized draws."""
    mags = np.asarray(magnitudes, dtype=float)
    mags = mags[mags > 0]
    if mags.shape[0] < 100:
        raise ValueError("too few positive magnitudes for a Burr ML fit")
    gamma0 = max(hill(mags, max(k_rule(mags.shape[0]), 5)), 1e-3)
    ab0 = max(1.0 / gamma0, 2.5)
    best = None
    for b0 in (5.0, 12.0, 25.0):
        a0 = max(ab0 / b0, 2.05 / b0 * 1.05)
        x0 = np.array([np.log(a0), np.log(b0)])
        res = optimize.minimize(lambda x: _burr_ml_negloglik(x[0], x[1], mags), x0,
                                method="Nelder-Mead",
                                options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 400})
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None or not np.isfinite(best.fun):
        raise ValueError("Burr ML fit did not converge")
    return BurrParams(a=float(np.exp(best.x[0])), b=float(np.exp(best.x[1])))


def _tcopula_negloglik_given_t(x: np.ndarray, y: np.ndarray, nu: float,
                               rho: float) -> float:
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


def fit_tcopula_ml(u, v, nu_bounds=(1.2, 60.0)):
    """Profile-likelihood ML fit of a bivariate t-copula on pseudo-observations."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    def profile(log_nu):
        nu = float(np.exp(log_nu))
        x = stats.t.ppf(u, nu)
        y = stats.t.ppf(v, nu)
        inner = optimize.minimize_scalar(
            lambda r: _tcopula_negloglik_given_t(x, y, nu, r),
            bounds=(-0.999, 0.999), method="bounded",
            options={"xatol": 1e-5})
        return inner.fun, inner.x

    outer = optimize.minimize_scalar(lambda ln: profile(ln)[0],
                                     bounds=(np.log(nu_bounds[0]), np.log(nu_bounds[1])),
                                     method="bounded", options={"xatol": 5e-3})
    nu_hat = float(np.exp(outer.x))
    _, rho_hat = profile(outer.x)
    return nu_hat, float(rho_hat)


def _fit_ml(residuals: ResidualPanel) -> MlFit:
    """Marginal Burr + t-copula ML fit on a bivariate residual panel."""
    if residuals.n < 200:
        raise ValueError("ML estimator requires at least 200 residuals")
    res_x = residuals.column(0)
    res_y = residuals.column(1)
    burr_y = fit_burr_ml(np.abs(res_y))
    n = residuals.n
    u = stats.rankdata(res_x) / (n + 1.0)
    v = stats.rankdata(res_y) / (n + 1.0)
    nu_hat, rho_hat = fit_tcopula_ml(u, v)
    return MlFit(burr=burr_y, nu=nu_hat, rho=rho_hat)


def ml_estimator(residuals: ResidualPanel, p: float) -> float:
    """Parametric ML comparison estimate of theta_p.

    Fits the marginal Burr and copula parameters by ML, then evaluates the
    implied MES with `theta_quadrature` at the fitted values, the same
    quadrature that gives the study's truth (its docstring states the range
    of fitted values on which the result is finite).
    """
    fit = _fit_ml(residuals)
    return theta_quadrature(fit.nu, fit.rho, fit.burr, p)


# ---------------------------------------------------------------------------
# replication pipeline
# ---------------------------------------------------------------------------


def _simulate_panel(config: SimConfig, rep_index: int):
    """One simulated (X, Y) window of length n + ell_n with true volatilities."""
    spec = InnovationSpec.homogeneous(
        config.burr, TCopulaParams.bivariate(config.nu, config.rho))
    total = config.burn_in + config.n + config.ell_n
    seed_seq = np.random.SeedSequence(entropy=config.base_seed,
                                      spawn_key=(int(rep_index),))
    rng = np.random.default_rng(seed_seq)
    eps = sample_innovations(spec, total, rng)
    params = [config.garch_x, config.garch_y]
    sigma0 = [np.sqrt(p.stationary_variance) for p in params]
    losses, sigmas = simulate_ccc(params, eps, sigma0, return_volatility=True)
    keep = config.burn_in
    return losses[keep:], sigmas[keep:]


def _true_sigma_forecast(losses_col: np.ndarray, sigma_col: np.ndarray,
                         params: GarchParams) -> float:
    s2 = params.omega + params.alpha * losses_col[-1] ** 2 + params.beta * sigma_col[-1] ** 2
    return float(np.sqrt(s2))


def _run_rep_all_p(config: SimConfig, ps, rep_index: int, true_thetas: dict) -> list:
    losses, sigmas = _simulate_panel(config, rep_index)
    records = []

    try:
        fit_x = qmle_fit(losses[:, 0])
        fit_y = qmle_fit(losses[:, 1])
        residuals = filter_and_residualize(losses, [fit_x, fit_y], config.ell_n,
                                           margin_ids=("X", "Y"))
    except ValueError as exc:  # failure is data, not control flow
        for p in ps:
            records.append(RepRecord(rep_index=rep_index, p=p, failed=True,
                                     fail_reason=f"qmle: {exc}"))
        return records

    sigma_true_fc = _true_sigma_forecast(losses[:, 1], sigmas[:, 1], config.garch_y)
    res_x = residuals.column(0)
    res_y = residuals.column(1)
    n_eff = residuals.n
    k = k_rule(n_eff)
    qmle_ok = fit_x.converged and fit_y.converged

    try:
        gamma_hat = hill(res_y, k)
        theta_within = mes_within(res_x, res_y, k)
    except ValueError as exc:
        for p in ps:
            records.append(RepRecord(rep_index=rep_index, p=p, failed=True,
                                     fail_reason=f"evt: {exc}",
                                     qmle_converged=qmle_ok))
        return records

    try:
        ml_fit = _fit_ml(residuals)
    except ValueError:
        ml_fit = None

    for p in ps:
        theta_true = true_thetas[p].theta_p * sigma_true_fc
        cfg = TailConfig(k=k, k1=k, p=p, n=n_eff)
        theta_p_hat = mes_extrapolate(theta_within, gamma_hat, cfg)
        forecast = assemble_forecast(fit_y.vol_forecast, theta_p_hat, gamma_hat,
                                     cfg, config.iota)
        theta_np = mes_np(res_x, res_y, p) * fit_y.vol_forecast

        theta_ml = None if ml_fit is None else (
            theta_quadrature(ml_fit.nu, ml_fit.rho, ml_fit.burr, p) * fit_y.vol_forecast)

        records.append(RepRecord(
            rep_index=rep_index, p=p, theta_true=theta_true,
            theta_hat=forecast.theta_hat_np_level,
            ci_lower=forecast.ci_lower, ci_upper=forecast.ci_upper,
            gamma_hat=gamma_hat, theta_ml=theta_ml, theta_np=theta_np,
            hit=bool(forecast.ci_lower <= theta_true <= forecast.ci_upper),
            ml_failed=ml_fit is None, qmle_converged=qmle_ok,
        ))
    return records


def _true_mes(config: SimConfig, p: float) -> TrueMes:
    theta = theta_quadrature(config.nu, config.rho, config.burr, p)
    return TrueMes(theta_p=theta, method="quadrature", mc_error=0.0)


def run_replication(config: SimConfig, p: float, rep_index: int) -> RepRecord:
    """Full pipeline for a single replication at a single risk level."""
    return _run_rep_all_p(config, [p], rep_index, {p: _true_mes(config, p)})[0]


def _aggregate(records: list, p: float, config: SimConfig) -> SimRow:
    recs = [r for r in records if abs(r.p - p) <= 1e-15 and not r.failed]
    n_failed = sum(1 for r in records if abs(r.p - p) <= 1e-15 and r.failed)
    if not recs:
        raise RuntimeError(f"all replications failed at p={p}")
    err = np.array([r.theta_hat - r.theta_true for r in recs])
    lengths = np.array([r.ci_upper - r.ci_lower for r in recs])
    hits = np.array([r.hit for r in recs], dtype=float)
    np_err = np.array([r.theta_np - r.theta_true for r in recs])
    ml_recs = [r for r in recs if not r.ml_failed]
    if ml_recs:
        ml_err = np.array([r.theta_ml - r.theta_true for r in ml_recs])
        rmse_ml = float(np.sqrt(np.mean(ml_err**2))) * 100.0
    else:
        rmse_ml = np.nan
    return SimRow(
        p=p,
        bias=float(np.mean(err)) * 100.0,
        rmse=float(np.sqrt(np.mean(err**2))) * 100.0,
        rmse_ml=rmse_ml,
        rmse_np=float(np.sqrt(np.mean(np_err**2))) * 100.0,
        mean_length=float(np.mean(lengths)) * 100.0,
        coverage=float(np.mean(hits)) * 100.0,
        n_used=len(recs),
        n_failed=n_failed,
        n_ml_failed=len(recs) - len(ml_recs),
    )


def _study_worker(args):
    config, ps, rep_index, thetas = args
    return _run_rep_all_p(config, ps, rep_index, thetas)


def run_study(config: SimConfig, threads: int = 1) -> SimResult:
    """Run the full Monte Carlo study and aggregate Table-style metrics per p."""
    ps = list(config.p_grid)
    thetas = {p: _true_mes(config, p) for p in ps}
    all_records: list = []
    if threads and threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            jobs = [(config, ps, rep, thetas) for rep in range(config.replications)]
            for recs in pool.map(_study_worker, jobs, chunksize=8):
                all_records.extend(recs)
    else:
        for rep in range(config.replications):
            all_records.extend(_run_rep_all_p(config, ps, rep, thetas))

    all_records.sort(key=lambda r: (r.rep_index, r.p))
    rows = [_aggregate(all_records, p, config) for p in ps]
    failed = [r for r in all_records if r.failed]
    diagnostics = {
        "replications": config.replications,
        "qmle_nonconverged": sum(1 for r in all_records
                                 if not r.failed and not r.qmle_converged) // len(ps),
        "failed": len(failed) // len(ps),
        # replications failed per stage, by the prefix of RepRecord.fail_reason
        "fail_reasons": {stage: sum(1 for r in failed if r.fail_reason.startswith(stage + ":"))
                         // len(ps) for stage in ("qmle", "evt")},
        "true_theta": {p: asdict(thetas[p]) for p in ps},
    }
    return SimResult(rows=rows, config=config, diagnostics=diagnostics)
