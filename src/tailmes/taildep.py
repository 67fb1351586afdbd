"""Empirical tail-copula estimates and the joint asymptotic covariance matrix."""

from __future__ import annotations

import numpy as np

from .evt import _descending

__all__ = ["r_hat_pair", "sigma_hat"]


def r_hat_pair(res_i, res_j, k: int) -> float:
    """Empirical tail copula (1/k) * #{t: res_i[t] > i_(k+1), res_j[t] > j_(k+1)},
    with i_(k+1) the (k+1)-th largest of res_i. Strict inequalities; ties at the
    threshold are excluded."""
    x = np.column_stack([res_i, res_j])  # raises ValueError unless aligned
    joint = np.all(x > _descending(x, k)[k], axis=1)
    return float(np.count_nonzero(joint) / k)


def sigma_hat(residual_columns, gammas, k: int) -> np.ndarray:
    """D x D covariance of the joint log-MES forecast errors at one threshold k:
    sigma_ij = g_i g_j R_hat_ij, with R_hat the empirical tail copula of
    residual columns i and j; the diagonal is g_d^2 exactly.

    `residual_columns` holds D columns of length n (a sequence of them, or the
    rows of a D x n array). Every R_hat_ij comes from one product of the n x D
    exceedance indicators, so each column is sorted once."""
    gammas = np.asarray(gammas, dtype=float)
    x = np.column_stack(residual_columns)
    if x.shape[1] != gammas.shape[0]:
        raise ValueError(f"{x.shape[1]} residual columns for {gammas.shape[0]} gammas")
    exceed = (x > _descending(x, k)[k]).astype(float)
    # joint exceedance counts are exact integers in floating point, so each
    # entry equals g_i * g_j * r_hat_pair(column i, column j, k) bit for bit
    sigma = np.outer(gammas, gammas) * ((exceed.T @ exceed) / k)
    np.fill_diagonal(sigma, gammas**2)
    return sigma
