"""EVT core: k-rule, Hill estimator, within-sample and extrapolated MES, forecasts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .garch import filter_and_residualize, qmle_fit

__all__ = [
    "TailConfig",
    "MesForecast",
    "WindowError",
    "k_rule",
    "hill",
    "mes_within",
    "mes_extrapolate",
    "mes_np",
    "check_iota",
    "assemble_forecast",
    "forecast_window",
]


@dataclass(frozen=True)
class TailConfig:
    """Tail estimation configuration: exceedance count, risk level, sample size."""

    k: int
    p: float
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ValueError(f"k={self.k} must satisfy 1 <= k < n={self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p={self.p} must lie in (0, 1)")
        if self.d_n < 1.0:
            raise ValueError(
                f"extrapolation depth k/(n*p) = {self.d_n:.4g} < 1; "
                "anti-extrapolation is not supported"
            )

    @property
    def d_n(self) -> float:
        """Extrapolation depth k / (n * p)."""
        return self.k / (self.n * self.p)

    @classmethod
    def from_rule(cls, n: int, p: float) -> "TailConfig":
        return cls(k=k_rule(n), p=p, n=n)


@dataclass
class MesForecast:
    """Point MES forecast and its confidence interval."""

    theta_hat_np_level: float
    ci_lower: float
    ci_upper: float
    degenerate: bool = False


def k_rule(n: int) -> int:
    """Exceedance count floor(0.1 * log(n)^4); requires n >= 8 so that k >= 1."""
    if n < 8:
        raise ValueError(f"n={n} too small for the k-rule (need n >= 8)")
    return int(np.floor(0.1 * np.log(n) ** 4))


def _descending(values, k: int) -> np.ndarray:
    """`values` (a column, or an n x D matrix of columns) sorted in descending
    order along axis 0. Row k holds each column's (k+1)-th largest value, the
    threshold at which every tail estimator here cuts, so k must lie in 1..n-1."""
    v = np.asarray(values, dtype=float)
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k + 1 > v.shape[0]:
        raise ValueError(f"k={k} requires at least {k + 1} observations")
    return np.sort(v, axis=0)[::-1]


def hill(values, k: int) -> float | np.ndarray:
    """Hill estimator: mean log-ratio of the top k order statistics to the
    (k+1)-th, one value per column of a matrix."""
    v = _descending(values, k)
    threshold = v[k]
    if np.any(threshold <= 0):
        raise ValueError(
            f"({k + 1})-th largest value {threshold} is not positive; "
            "k exceeds the positive tail"
        )
    return np.mean(np.log(v[:k] / threshold), axis=0)


def mes_within(res_x, res_y, k: int) -> float | np.ndarray:
    """Within-sample MES: mean positive-part res_y over res_x exceedances of its
    (k+1)-th largest order statistic (strict inequality), one value per column
    of a matrix res_y."""
    x = np.asarray(res_x, dtype=float)
    y = np.asarray(res_y, dtype=float)
    if x.ndim != 1 or y.shape[:1] != x.shape:
        raise ValueError("res_x must be one column aligned with the rows of res_y")
    exceed = x > _descending(x, k)[k]
    return np.sum(np.maximum(y[exceed], 0.0), axis=0) / k


def mes_extrapolate(theta_within: float, gamma_hat: float, config: TailConfig) -> float:
    """Extrapolate theta_{k/n} to level p: d_n^gamma_hat * theta_within."""
    if theta_within < 0:
        raise ValueError("theta_within must be nonnegative")
    return float(config.d_n**gamma_hat * theta_within)


def mes_np(res_x, res_y, p: float) -> float:
    """Fully nonparametric MES at level p: (1/(n*p)) * sum of raw res_y over
    res_x exceedances of its (floor(n*p)+1)-th largest order statistic."""
    x = np.asarray(res_x, dtype=float)
    y = np.asarray(res_y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("res_x and res_y must be aligned")
    n = x.shape[0]
    m = int(np.floor(n * p))
    if m == 0:  # p < 1/n: the threshold is the sample maximum, which nothing exceeds
        return 0.0
    exceed = x > _descending(x, m)[m]
    return float(np.sum(y[exceed]) / (n * p))


def check_iota(iota: float) -> None:
    """Refuse a confidence-interval significance level outside (0, 1)."""
    if not 0.0 < iota < 1.0:
        raise ValueError(f"iota={iota} must lie in (0, 1)")


def assemble_forecast(sigma_forecast: float, theta_hat_p: float, gamma_hat: float,
                      config: TailConfig, iota: float) -> MesForecast:
    """Combine volatility forecast and innovation-MES estimate into a forecast with CI.

    Interval: theta_hat * exp(-+ z_{1-iota/2} * gamma_hat * log(d_n) / sqrt(k)).
    """
    check_iota(iota)
    if sigma_forecast <= 0:
        raise ValueError("sigma_forecast must be positive")
    if theta_hat_p < 0:
        raise ValueError("theta_hat_p must be nonnegative")
    point = sigma_forecast * theta_hat_p
    if point == 0.0:
        return MesForecast(theta_hat_np_level=0.0, ci_lower=0.0, ci_upper=0.0,
                           degenerate=True)
    z = special.ndtri(1.0 - iota / 2.0)
    # |gamma_hat| keeps the interval ordered if the Hill estimate dips below zero
    half = np.exp(z * abs(gamma_hat) * np.log(config.d_n) / np.sqrt(config.k))
    return MesForecast(theta_hat_np_level=point, ci_lower=point / half,
                       ci_upper=point * half)


class WindowError(ValueError):
    """A window whose data defeat its forecast; `stage` says where: "qmle" for
    a GARCH fit or the residuals, "evt" for the tail estimates."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def forecast_window(losses, ell_n: int, ps, iota: float):
    """De-volatilize-then-EVT MES forecasts of one window: a QMLE GARCH fit per
    column of `losses` (X in column 0, the D components after it), residuals
    with the first ell_n rows clipped, the k-rule, then per component Hill, the
    within-sample MES against X and, at each level in `ps`, the extrapolated
    forecast with its interval. Returns (fits, residuals, gammas, configs,
    forecasts), forecasts[i][j] being level i, component j. A domain error is
    raised as a WindowError naming its stage."""
    losses = np.asarray(losses, dtype=float)
    try:
        fits = [qmle_fit(losses[:, j]) for j in range(losses.shape[1])]
        residuals = filter_and_residualize(losses, fits, ell_n)
    except ValueError as exc:
        raise WindowError("qmle", str(exc)) from exc
    try:
        n = residuals.shape[0]
        k = k_rule(n)
        configs = [TailConfig(k=k, p=p, n=n) for p in ps]
        res_y = residuals[:, 1:]
        gammas = hill(res_y, k)
        theta_within = mes_within(residuals[:, 0], res_y, k)
        forecasts = [[assemble_forecast(fit.vol_forecast, mes_extrapolate(theta, gamma, cfg),
                                        gamma, cfg, iota)
                      for fit, theta, gamma in zip(fits[1:], theta_within, gammas)]
                     for cfg in configs]
    except ValueError as exc:
        raise WindowError("evt", str(exc)) from exc
    return fits, residuals, gammas, configs, forecasts
