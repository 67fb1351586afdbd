"""Diagonal CCC-GARCH(1,1) engine: simulation, QMLE fitting, filtering.

Margins are fitted independently; the innovation correlation never enters the
volatility recursions, so each margin is a univariate GARCH(1,1) problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

__all__ = [
    "GarchParams",
    "GarchFit",
    "simulate_ccc",
    "qmle_fit",
    "filter_and_residualize",
]

_STATIONARITY_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) parameters: sigma2_t = omega + alpha * y_{t-1}^2 + beta * sigma2_{t-1}."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"alpha and beta must be nonnegative, got {self.alpha}, {self.beta}")

    @property
    def stationary(self) -> bool:
        return self.alpha + self.beta < 1.0

    @property
    def stationary_variance(self) -> float:
        if not self.stationary:
            raise ValueError("no stationary variance for alpha + beta >= 1")
        return self.omega / (1.0 - self.alpha - self.beta)


@dataclass
class GarchFit:
    """Fitted margin: parameters, filtered volatility path and one-step forecast."""

    params: GarchParams
    vol_path: np.ndarray
    vol_forecast: float
    loglik: float
    converged: bool
    iterations: int


def _ar1_solve(beta: float, drive: np.ndarray, trans: bytes = b"N") -> np.ndarray:
    """Solve (1 - beta L) x = drive, the unit lower-bidiagonal system of the
    recursion x_t = drive_t + beta * x_{t-1} from x_{-1} = 0, by one banded
    LAPACK solve; trans=b"T" solves the transposed (backward) recursion
    x_t = drive_t + beta * x_{t+1}. `drive` is overwritten."""
    # LAPACK band storage, Fortran order: row 0 is the unit diagonal, which
    # diag=b"U" never reads, row 1 the subdiagonal -beta
    bands = np.full((drive.shape[0], 2), -beta).T
    x, _ = lapack.dtbtrs(bands, drive, uplo=b"L", trans=trans, diag=b"U", overwrite_b=True)
    return x


def _variance_path(y_sq: np.ndarray, omega: float, alpha: float, beta: float,
                   sigma0_sq: float) -> np.ndarray:
    """Conditional variance recursion with fixed initial value, via one banded solve."""
    n = y_sq.shape[0]
    sigma2 = np.empty(n)
    sigma2[0] = sigma0_sq
    if n > 1:
        drive = omega + alpha * y_sq[:-1]
        drive[0] += beta * sigma0_sq
        sigma2[1:] = _ar1_solve(beta, drive)
    return sigma2


def simulate_ccc(params_per_margin, innovations, sigma0, return_volatility: bool = False):
    """Simulate losses y_t = sigma_t * eps_t with per-margin GARCH(1,1) recursions.

    sigma2_t = omega + alpha * y_{t-1}^2 + beta * sigma2_{t-1}, sigma_0 given.
    Returns the (n x D) loss matrix, plus the volatility matrix when requested.
    """
    innovations = np.atleast_2d(np.asarray(innovations, dtype=float))
    if not np.all(np.isfinite(innovations)):
        raise ValueError("innovations must be finite")
    n, d = innovations.shape
    params = list(params_per_margin)
    if len(params) != d:
        raise ValueError(f"{len(params)} parameter sets for {d} innovation columns")
    sigma0 = np.broadcast_to(np.asarray(sigma0, dtype=float), (d,))
    if np.any(sigma0 <= 0):
        raise ValueError("initial volatilities must be positive")

    omega = np.array([p.omega for p in params])
    alpha = np.array([p.alpha for p in params])
    beta = np.array([p.beta for p in params])

    sigma = np.empty((n, d))
    losses = np.empty((n, d))
    sig2 = sigma0**2
    for t in range(n):
        if t > 0:
            sig2 = omega + alpha * losses[t - 1] ** 2 + beta * sig2
        sigma[t] = np.sqrt(sig2)
        losses[t] = sigma[t] * innovations[t]
    if return_volatility:
        return losses, sigma
    return losses


_STARTS = ((0.10, 0.85), (0.20, 0.70), (0.05, 0.50))
# box of the fit coordinates (see _neg_quasi_loglik_and_score); the log-omega
# range never binds at an optimum and keeps the objective finite on all of it
_FIT_BOUNDS = ((-50.0, 50.0), (0.0, -np.log1p(-_STATIONARITY_CAP)), (0.0, 1.0))


def _neg_quasi_loglik_and_score(u: np.ndarray, z_sq: np.ndarray):
    """Negative quasi-log-likelihood of standardized data (sigma_0^2 = 1) and its
    exact gradient in the box coordinates
    u = (log omega, -log(1 - alpha - beta), alpha / (alpha + beta)).

    The score comes from one backward (adjoint) solve with the variance
    recursion's own bands: lambda_t = w_t + beta * lambda_{t+1}, with
    w_t = d f / d sigma2_t = (1 - z2_t / sigma2_t) / (2 sigma2_t), gives the
    gradient in (omega, alpha, beta) as sum_t lambda_t * (1, z2_{t-1},
    sigma2_{t-1}); sigma2_0 = 1 is fixed, so t runs from 1.
    """
    omega, share = np.exp(u[0]), u[2]
    persistence = -np.expm1(-u[1])
    alpha, beta = share * persistence, (1.0 - share) * persistence
    sigma2 = _variance_path(z_sq, omega, alpha, beta, 1.0)
    ratio = z_sq / sigma2
    f = 0.5 * float(np.sum(np.log(sigma2) + ratio))
    lam = _ar1_solve(beta, 0.5 * (1.0 - ratio[1:]) / sigma2[1:], trans=b"T")
    d_omega, d_alpha, d_beta = lam.sum(), lam @ z_sq[:-1], lam @ sigma2[:-1]
    grad = np.array([omega * d_omega,
                     (1.0 - persistence) * (share * d_alpha + (1.0 - share) * d_beta),
                     persistence * (d_alpha - d_beta)])
    return f, grad


def qmle_fit(series) -> GarchFit:
    """Gaussian quasi-maximum-likelihood fit of a GARCH(1,1) margin.

    The data are standardized by the window's sample standard deviation and the
    variance recursion starts at the sample variance (1 after standardizing),
    so the fit is scale-equivariant by construction; omega is mapped back by
    the sample variance. L-BFGS-B minimizes the negative quasi-log-likelihood
    with its exact score over the box coordinates (log omega,
    -log(1 - alpha - beta) up to the stationarity cap, alpha / (alpha + beta)
    in [0, 1]); the bounds keep every iterate nonnegative and stationary, and
    the log persistence keeps the ridge towards the cap well scaled. The fit
    runs from three starting points and keeps the best, because on white noise
    the likelihood has separate basins along alpha = 0. `iterations` sums the
    optimizer iterations over the starts.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if y.shape[0] < 50:
        raise ValueError(f"series too short for QMLE: {y.shape[0]} < 50")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    sample_var = float(np.var(y))
    if sample_var <= 0:
        raise ValueError("series is constant; GARCH fit is degenerate")

    z_sq = y**2 / sample_var
    best = None
    total_iter = 0
    for a0, b0 in _STARTS:
        u0 = np.array([np.log(1.0 - a0 - b0), -np.log(1.0 - a0 - b0), a0 / (a0 + b0)])
        # the default ftol stops early on the flat ridges along alpha = 0 and
        # towards the cap; the exact score makes the tighter one cheap
        res = optimize.minimize(_neg_quasi_loglik_and_score, u0, args=(z_sq,), jac=True,
                                method="L-BFGS-B", bounds=_FIT_BOUNDS,
                                options={"maxiter": 500, "ftol": 1e-12})
        total_iter += res.nit
        if best is None or res.fun < best.fun:
            best = res

    omega = sample_var * float(np.exp(best.x[0]))
    persistence, share = float(-np.expm1(-best.x[1])), float(best.x[2])
    alpha = share * persistence
    beta = (1.0 - share) * persistence
    at_cap = alpha + beta >= _STATIONARITY_CAP - 1e-9
    if alpha + beta > _STATIONARITY_CAP:
        # rounding in the box-to-(alpha, beta) map can leave the sum one ulp high
        shrink = _STATIONARITY_CAP / (alpha + beta)
        alpha *= shrink
        beta *= shrink
    params = GarchParams(omega=omega, alpha=alpha, beta=beta)

    y_sq = y**2
    sigma2 = _variance_path(y_sq, omega, alpha, beta, sample_var)
    vol_forecast_sq = omega + alpha * y_sq[-1] + beta * sigma2[-1]
    n = y.shape[0]
    loglik = -0.5 * n * np.log(2.0 * np.pi) - 0.5 * float(np.sum(np.log(sigma2) + y_sq / sigma2))
    return GarchFit(
        params=params,
        vol_path=np.sqrt(sigma2),
        vol_forecast=float(np.sqrt(vol_forecast_sq)),
        loglik=float(loglik),
        converged=bool(best.success) and not at_cap,
        iterations=total_iter,
    )


def filter_and_residualize(losses, fits, ell_n: int) -> np.ndarray:
    """Standardized residuals eps_t = y_t / sigma_t per margin as an n x D matrix,
    first ell_n rows clipped."""
    losses = np.atleast_2d(np.asarray(losses, dtype=float))
    fits = list(fits)
    if losses.shape[1] != len(fits):
        raise ValueError(f"{len(fits)} fits for {losses.shape[1]} margins")
    if not 0 <= ell_n < losses.shape[0]:
        raise ValueError(f"ell_n={ell_n} incompatible with {losses.shape[0]} observations")
    vol = np.column_stack([fit.vol_path for fit in fits])
    if vol.shape != losses.shape:
        raise ValueError("volatility paths not aligned with losses")
    if np.any(vol <= 0):
        raise ValueError("non-positive volatility signals a corrupted fit")
    residuals = (losses / vol)[ell_n:]
    if not np.all(np.isfinite(residuals)):
        raise ValueError("residuals contain non-finite entries")
    return residuals
