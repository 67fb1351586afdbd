"""Equality-of-contributions Wald test and the structural-MES demonstrator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg, stats

__all__ = ["WaldResult", "contrast_matrix", "wald_test", "wald_statistics", "structural_mes"]


@dataclass
class WaldResult:
    """Wald test outcome; statistic and p_value are absent when the contrast
    covariance could not be factorized (contrast_ok False)."""

    statistic: Optional[float]
    dof: int
    p_value: Optional[float]
    contrast_ok: bool


def contrast_matrix(d: int) -> np.ndarray:
    """(D-1) x D contrast comparing each of the first D-1 entries to the mean."""
    if d < 2:
        raise ValueError(f"need at least two series, got D={d}")
    t = np.zeros((d - 1, d))
    t[:, : d - 1] = np.eye(d - 1)
    return t - 1.0 / d


def wald_test(log_weighted_forecasts, sigma, k: float) -> WaldResult:
    """Wald statistic k * (Tv)' (T Sigma T')^{-1} (Tv) against chi-square(D-1).

    sigma is the D x D covariance from `taildep.sigma_hat`. A failed Cholesky
    of the contrast covariance is reported, not raised, so rolling backtests
    survive degenerate windows.
    """
    v = np.asarray(log_weighted_forecasts, dtype=float)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("need a vector of at least two log forecasts")
    if not np.all(np.isfinite(v)):
        raise ValueError("log forecasts must be finite")
    d = v.shape[0]
    if np.shape(sigma) != (d, d):
        raise ValueError("covariance dimension does not match the forecast vector")
    try:
        stat = float(wald_statistics(v, sigma, k)[0])
    except linalg.LinAlgError:
        return WaldResult(statistic=None, dof=d - 1, p_value=None, contrast_ok=False)
    return WaldResult(statistic=stat, dof=d - 1,
                      p_value=float(stats.chi2.sf(stat, d - 1)), contrast_ok=True)


def wald_statistics(vectors, sigma, k: float) -> np.ndarray:
    """Wald statistics k * (Tv)' (T Sigma T')^{-1} (Tv) for one or many forecast
    vectors (rows) under one covariance; raises LinAlgError when T Sigma T' is
    not positive definite."""
    vs = np.atleast_2d(np.asarray(vectors, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    t = contrast_matrix(sigma.shape[0])
    cho = linalg.cho_factor(t @ sigma @ t.T, lower=True)
    tv = vs @ t.T
    solved = linalg.cho_solve(cho, tv.T).T
    return k * np.einsum("ij,ij->i", tv, solved)


def structural_samples(sigma_matrix, marginal_dof: float, draws: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draws of Sigma @ eps with independent standardized Student-t coordinates."""
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    if marginal_dof <= 2:
        raise ValueError("marginal_dof must exceed 2 for unit-variance scaling")
    scale = np.sqrt((marginal_dof - 2.0) / marginal_dof)
    eps = scale * rng.standard_t(marginal_dof, size=(draws, sigma_matrix.shape[1]))
    return eps @ sigma_matrix.T


def structural_mes(sigma_matrix, marginal_dof: float, p: float, mc_draws: int,
                   rng_seed) -> float:
    """Monte Carlo E[(Sigma eps)_2 | (Sigma eps)_1 > VaR_p] for a 2x2 structural map.

    The VaR threshold is the empirical (1-p)-quantile of the same sample.
    """
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    if sigma_matrix.shape != (2, 2):
        raise ValueError("sigma_matrix must be 2x2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if mc_draws < 10**5:
        raise ValueError("mc_draws must be at least 1e5")
    rng = np.random.default_rng(rng_seed)
    z = structural_samples(sigma_matrix, marginal_dof, mc_draws, rng)
    var_p = np.quantile(z[:, 0], 1.0 - p)
    exceed = z[:, 0] > var_p
    n_exc = int(np.count_nonzero(exceed))
    if n_exc < 100:
        raise ValueError(
            f"only {n_exc} exceedances in the Monte Carlo sample; increase draws or p"
        )
    return float(np.mean(z[exceed, 1]))
