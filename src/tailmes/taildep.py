"""Empirical tail-copula estimates and the joint asymptotic covariance matrix."""

from __future__ import annotations

import numpy as np

__all__ = ["r_hat_pair", "sigma_hat"]


def r_hat_pair(res_i, res_j, k: int, k_i: int, k_j: int):
    """Empirical tail copula at (q_i, q_j) and with thresholds swapped.

    First component: (1/k) * #{t: res_i[t] > i_(k_i+1), res_j[t] > j_(k_j+1)}.
    Second component thresholds each series at the other series' order index.
    Strict inequalities; ties at the threshold are excluded.
    """
    x = np.asarray(res_i, dtype=float)
    y = np.asarray(res_j, dtype=float)
    if x.shape != y.shape:
        raise ValueError("res_i and res_j must be aligned")
    n = x.shape[0]
    if k_i + 1 > n or k_j + 1 > n:
        raise ValueError("order-statistic index exceeds the sample size")
    if k < 1:
        raise ValueError("k must be positive")
    x_desc = np.sort(x)[::-1]
    y_desc = np.sort(y)[::-1]
    first = np.count_nonzero((x > x_desc[k_i]) & (y > y_desc[k_j])) / k
    second = np.count_nonzero((x > x_desc[k_j]) & (y > y_desc[k_i])) / k
    return float(first), float(second)


def sigma_hat(residual_columns, gammas, k: int) -> np.ndarray:
    """D x D covariance of the joint log-MES forecast errors at one threshold k:
    sigma_ij = g_i g_j R_hat_ij, with R_hat the empirical tail copula of
    residual columns i and j; the diagonal is g_d^2 exactly."""
    gammas = np.asarray(gammas, dtype=float)
    d = gammas.shape[0]
    if len(residual_columns) != d:
        raise ValueError(f"{len(residual_columns)} residual columns for {d} gammas")
    sigma = np.diag(gammas**2)
    for i in range(d):
        for j in range(i + 1, d):
            r_ij = r_hat_pair(residual_columns[i], residual_columns[j], k, k, k)[0]
            sigma[i, j] = sigma[j, i] = gammas[i] * gammas[j] * r_ij
    return sigma
