"""Monte Carlo laboratory: data generation, per-replication pipeline, metrics,
comparison estimators, the deterministic true innovation MES and independent
Monte Carlo oracles that cross-check it."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import lru_cache
from itertools import repeat
from typing import Optional

import numpy as np
from scipy import integrate, optimize, special

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
from .evt import TailConfig, WindowError, check_iota, forecast_window, hill, k_rule, mes_np
from .garch import GarchParams, simulate_ccc
from .garch import qmle_fit  # noqa: F401  (the benchmark's tracer self-test wraps it here)

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
        if not self.p_grid:
            raise ValueError("p_grid must hold at least one risk level")
        for p in self.p_grid:
            TailConfig.from_rule(self.n, p)
        check_iota(self.iota)


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
        return -special.stdtrit(nu, p * v)
    log_v = np.log(v)
    lo, hi = float(log_v.min()), 0.0
    if hi - lo < 1e-12:
        return -special.stdtrit(nu, p * v)
    grid = np.linspace(lo, hi, 4096)
    log_q = np.log(-special.stdtrit(nu, p * np.exp(grid)))
    return np.exp(np.interp(log_v, grid, log_q))


def _conditional_tail_draws(nu: float, rho: float, burr: BurrParams, p: float,
                            draws: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of eps_Y given U_X > 1 - p via the exact conditional t-copula."""
    v = rng.uniform(size=draws)
    t1 = _tail_t_quantiles(p, np.clip(v, 1e-300, 1.0), nu)
    loc, scale, dof = _conditional_params(t1, nu, rho)
    t2 = loc + scale * rng.standard_t(dof, size=draws)
    u_y = np.clip(special.stdtr(nu, t2), 1e-15, 1.0 - 1e-15)
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


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per node
    count and shared read-only."""
    rule = np.polynomial.legendre.leggauss(nodes)
    for arr in rule:
        arr.flags.writeable = False
    return rule


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
    s_nodes, s_weights = _legendre_rule(nodes)

    def unit_rule(upper):
        return 0.5 * upper * (s_nodes + 1.0), 0.5 * upper * s_weights

    # outer variable t = s^5 over (0, 1)
    s, ws = unit_rule(1.0)
    t1 = -special.stdtrit(nu, p * s**5)
    outer_w = ws * 5.0 * s**4
    loc, scale, dof = _conditional_params(t1, nu, rho)

    # a piece's probabilities, as shares x of its mass from its outer end,
    # split at 1/2 into x = z^5 and x = 1 - z^5
    z, wz = unit_rule(0.5 ** 0.2)
    z5 = z**5
    wx = np.concatenate([wz * 5.0 * z**4] * 2)
    cusp = -loc / scale
    below = special.stdtr(dof, cusp)
    above = special.stdtr(dof, -cusp)

    def piece(mass, other, sign):
        m, o = mass[:, None], other[:, None]
        outer = m * z5
        kept = outer > 0.0  # a cell whose probability underflows is dropped
        # near the cusp a piece holding most of the mass is read from the other
        # side as ppf(other + m z^5) = -isf(.): m (1 - z^5) may round to 1
        major = m > 0.5
        s_t = np.concatenate([
            -special.stdtrit(dof, np.where(kept, outer, 0.5)),
            np.where(major, 1.0, -1.0)
            * special.stdtrit(dof, np.where(major, o + outer, m * (1.0 - z5)))], axis=1)
        t2 = loc[:, None] + sign * scale[:, None] * s_t
        with np.errstate(divide="ignore"):  # a tail probability below the double range
            log_sf = np.log(special.stdtr(nu, -np.abs(t2)))
        log_eps = _burr_log_isf(np.log(2.0) + log_sf, burr)
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


# a and b at most 1e4 and a*b above 2.02, each held 1e-12 inside in logs so
# that rounding in the map below cannot step onto the guards
_BURR_LOG_MAX = float(np.log(1e4)) - 1e-12
_BURR_BOUNDS = ((float(np.log(2.02)) + 1e-12, 2.0 * _BURR_LOG_MAX), (0.0, 1.0))


def _burr_log_shapes(w):
    """(log a, log b) and d log a / d w at the fit coordinates w = (log(a*b), r),
    r = (M - log b) / ((M - log a) + (M - log b)) with M = log 1e4: r in [0, 1]
    places log a on the segment of fixed a*b between b = 1e4 (r = 0) and
    a = 1e4 (r = 1), so the box of w is the whole domain of the fit."""
    log_ab, r = w
    span = 2.0 * _BURR_LOG_MAX - log_ab
    log_a = log_ab - _BURR_LOG_MAX + r * span
    return log_a, log_ab - log_a, np.array([1.0 - r, span])


def _burr_fit_coordinates(a: float, b: float) -> np.ndarray:
    """The fit coordinates of Burr(a, b), the inverse of `_burr_log_shapes`."""
    head_a, head_b = _BURR_LOG_MAX - np.log(a), _BURR_LOG_MAX - np.log(b)
    return np.array([np.log(a * b), head_b / (head_a + head_b)])


def _burr_ml_negloglik_and_score(w: np.ndarray, log_mags: np.ndarray):
    """Negative log-likelihood of standardized magnitudes |eps| = B / c, with
    B ~ Burr(a, b) and c = std_constant = sqrt(a * Beta(a - 2/b, 1 + 2/b)), and
    its exact gradient in the fit coordinates of `_burr_log_shapes`.

    Each point contributes log c + log a + log b + (b - 1) L - (a + 1)
    log(1 + e^(b L)) with L = log c + log|eps|; d log c / da = (1/a + psi(a -
    2/b) - psi(a + 1)) / 2 and d log c / db = (psi(a - 2/b) - psi(1 + 2/b)) / b^2.
    The value is inf where a*b <= 2.02, a or b > 1e4, or c underflows to 0.
    """
    log_a, log_b, dlog_a = _burr_log_shapes(w)
    a, b = np.exp(log_a), np.exp(log_b)
    if a * b <= 2.02 or a > 1e4 or b > 1e4:
        return np.inf, np.zeros(2)
    c = BurrParams(a=a, b=b).std_constant
    if not c > 0:  # E[B^2] underflows for tiny b
        return np.inf, np.zeros(2)
    n = log_mags.shape[0]
    log_c = np.log(c)
    log_x = log_c + log_mags
    b_log_x = b * log_x
    softplus = np.logaddexp(0.0, b_log_x)
    share = special.expit(b_log_x)  # d softplus / d(b L)
    sum_log_x, sum_share = log_x.sum(), share.sum()
    ll = (n * (log_c + log_a + log_b) + (b - 1.0) * sum_log_x
          - (a + 1.0) * softplus.sum())
    psi_a = special.digamma(a - 2.0 / b)
    dc_da = 0.5 * (1.0 / a + psi_a - special.digamma(a + 1.0))
    dc_db = (psi_a - special.digamma(1.0 + 2.0 / b)) / (b * b)
    d_log_a = a * (n / a - softplus.sum() + b * dc_da * (n - (a + 1.0) * sum_share))
    d_log_b = b * (n / b + sum_log_x + n * b * dc_db
                   - (a + 1.0) * (share @ log_x + b * dc_db * sum_share))
    # log b = log(a*b) - log a
    return -float(ll), -((d_log_a - d_log_b) * dlog_a + [d_log_b, 0.0])


def fit_burr_ml(magnitudes) -> BurrParams:
    """ML fit of Burr(a, b) to magnitudes of symmetrized standardized draws:
    L-BFGS-B on the exact score in the box coordinates of `_burr_log_shapes`
    from three starts, the best kept."""
    mags = np.asarray(magnitudes, dtype=float)
    mags = mags[mags > 0]
    if mags.shape[0] < 100:
        raise ValueError("too few positive magnitudes for a Burr ML fit")
    log_mags = np.log(mags)
    gamma0 = max(hill(mags, max(k_rule(mags.shape[0]), 5)), 1e-3)
    ab0 = max(1.0 / gamma0, 2.5)
    best = None
    for b0 in (5.0, 12.0, 25.0):
        a0 = max(ab0 / b0, 2.05 / b0 * 1.05)
        # the exact score makes tolerances tight enough for the edges a*b -> 2.02
        # and a -> 1e4 cheap
        res = optimize.minimize(_burr_ml_negloglik_and_score, _burr_fit_coordinates(a0, b0),
                                args=(log_mags,), jac=True, method="L-BFGS-B",
                                bounds=_BURR_BOUNDS,
                                options={"maxiter": 400, "ftol": 1e-14, "gtol": 1e-8})
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None or not np.isfinite(best.fun):
        raise ValueError("Burr ML fit did not converge")
    log_a, log_b, _ = _burr_log_shapes(best.x)
    return BurrParams(a=float(np.exp(log_a)), b=float(np.exp(log_b)))


def fit_tcopula_ml(u, v):
    """Profile-likelihood ML fit of a bivariate t-copula on pseudo-observations.

    Bounded Brent searches: over log nu in [log 1.2, log 60], and at each nu
    over rho in [-0.999, 0.999]. u and v are both ranks / (n + 1), so one set
    of t quantiles per nu serves both, and everything but the bivariate term is
    computed once per nu.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    levels, index = np.unique(np.concatenate([u, v]), return_inverse=True)
    index_u, index_v = index[:u.shape[0]], index[u.shape[0]:]

    def profile(log_nu):
        nu = float(np.exp(log_nu))
        t = special.stdtrit(nu, levels)
        x, y = t[index_u], t[index_v]
        x_sq, y_sq = x * x, y * y
        log_f1 = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
                  - 0.5 * np.log(nu * np.pi))
        log_fx = log_f1 - (nu + 1.0) / 2.0 * np.log1p(x_sq / nu)
        log_fy = log_f1 - (nu + 1.0) / 2.0 * np.log1p(y_sq / nu)
        log_c2 = (special.gammaln((nu + 2.0) / 2.0) - special.gammaln(nu / 2.0)
                  - np.log(nu * np.pi))

        def negloglik(rho):
            if not -0.9999 < rho < 0.9999:
                return np.inf
            one_m = 1.0 - rho * rho
            q = (x_sq - 2.0 * rho * x * y + y_sq) / one_m
            log_f2 = log_c2 - 0.5 * np.log(one_m) - (nu + 2.0) / 2.0 * np.log1p(q / nu)
            return -float(np.sum(log_f2 - log_fx - log_fy))

        inner = optimize.minimize_scalar(negloglik, bounds=(-0.999, 0.999),
                                         method="bounded", options={"xatol": 1e-5})
        return inner.fun, inner.x

    outer = optimize.minimize_scalar(lambda ln: profile(ln)[0],
                                     bounds=(np.log(1.2), np.log(60.0)),
                                     method="bounded", options={"xatol": 5e-3})
    nu_hat = float(np.exp(outer.x))
    _, rho_hat = profile(outer.x)
    return nu_hat, float(rho_hat)


def _average_rank(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, each tie group sharing the mean of its ranks (the
    'average' method of rankdata)."""
    _, tie_group, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the largest rank in each tie group
    return 0.5 * (2 * last - counts + 1)[tie_group]


def _fit_ml(residuals: np.ndarray) -> MlFit:
    """Marginal Burr + t-copula ML fit on an n x 2 residual matrix (X, Y)."""
    n = residuals.shape[0]
    if n < 200:
        raise ValueError("ML estimator requires at least 200 residuals")
    res_x, res_y = residuals.T
    burr_y = fit_burr_ml(np.abs(res_y))
    u = _average_rank(res_x) / (n + 1.0)
    v = _average_rank(res_y) / (n + 1.0)
    nu_hat, rho_hat = fit_tcopula_ml(u, v)
    return MlFit(burr=burr_y, nu=nu_hat, rho=rho_hat)


def ml_estimator(residuals: np.ndarray, p: float) -> float:
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
    try:
        (fit_x, fit_y), residuals, (gamma_hat,), _, forecasts = forecast_window(
            losses, config.ell_n, ps, config.iota)
    except WindowError as exc:  # failure is data, not control flow
        return [RepRecord(rep_index=rep_index, p=p, failed=True,
                          fail_reason=f"{exc.stage}: {exc}") for p in ps]

    sigma_true_fc = _true_sigma_forecast(losses[:, 1], sigmas[:, 1], config.garch_y)
    res_x, res_y = residuals.T
    try:
        ml_fit = _fit_ml(residuals)
    except ValueError:
        ml_fit = None

    records = []
    for p, (forecast,) in zip(ps, forecasts):
        theta_true = true_thetas[p].theta_p * sigma_true_fc
        theta_np = mes_np(res_x, res_y, p) * fit_y.vol_forecast
        theta_ml = None if ml_fit is None else (
            theta_quadrature(ml_fit.nu, ml_fit.rho, ml_fit.burr, p) * fit_y.vol_forecast)
        records.append(RepRecord(
            rep_index=rep_index, p=p, theta_true=theta_true,
            theta_hat=forecast.theta_hat_np_level,
            ci_lower=forecast.ci_lower, ci_upper=forecast.ci_upper,
            gamma_hat=gamma_hat, theta_ml=theta_ml, theta_np=theta_np,
            hit=bool(forecast.ci_lower <= theta_true <= forecast.ci_upper),
            ml_failed=ml_fit is None,
            qmle_converged=fit_x.converged and fit_y.converged,
        ))
    return records


def _true_mes(config: SimConfig, p: float) -> TrueMes:
    theta = theta_quadrature(config.nu, config.rho, config.burr, p)
    return TrueMes(theta_p=theta, method="quadrature", mc_error=0.0)


def run_replication(config: SimConfig, p: float, rep_index: int) -> RepRecord:
    """Full pipeline for a single replication at a single risk level."""
    return _run_rep_all_p(config, [p], rep_index, {p: _true_mes(config, p)})[0]


def _aggregate(records: list, p: float) -> SimRow:
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


def run_study(config: SimConfig, threads: int = 1) -> SimResult:
    """Run the full Monte Carlo study and aggregate Table-style metrics per p."""
    ps = list(config.p_grid)
    thetas = {p: _true_mes(config, p) for p in ps}
    all_records: list = []
    if threads and threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for recs in pool.map(_run_rep_all_p, repeat(config), repeat(ps),
                                 range(config.replications), repeat(thetas), chunksize=8):
                all_records.extend(recs)
    else:
        for rep in range(config.replications):
            all_records.extend(_run_rep_all_p(config, ps, rep, thetas))

    all_records.sort(key=lambda r: (r.rep_index, r.p))
    rows = [_aggregate(all_records, p) for p in ps]
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
