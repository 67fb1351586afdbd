"""Input generators for the benchmark workloads.

Everything here is plain numpy and depends only on the seed the runner is
given; none of it calls into tailmes, so a change to the program cannot change
its own inputs.
"""

from __future__ import annotations

import csv
import datetime
import math

import numpy as np

# standard bivariate Burr/t-copula study design on the acceptance grid
STUDY_N = 1000
STUDY_P_GRID = (1e-2, 1e-3, 1e-4, 1e-5)
STUDY_REPLICATIONS = 32
STUDY_NU, STUDY_RHO = 3.0, 0.95
STUDY_BURR = (0.25, 20.0)

# rolling backtest designs; both extrapolate to the equality screen's depth
BT_N = 1000
BT_ELL = 10
BT_P = 1e-20
BT_IOTA = 0.05
D8_BANKS = 8
# four independent panels of eight consecutive windows: the windows of one
# panel share almost all their data, and the QMLE work of one 32-window panel
# varied by about 10% between seeds (quartile distance), against 5% for these
D8_PANELS = 4
D8_WINDOWS = 8  # per panel
D8_GAMMAS = tuple(float(g) for g in np.linspace(0.10, 0.45, D8_BANKS))
D8_BURR_B = 20.0
D2_N = 8000
D2_PANELS = 20
D2_GAMMA = 0.2
BURN_IN = 200


def burr_sym_quantile(u, a: float, b: float) -> np.ndarray:
    """Quantile of the symmetrized Burr(a, b) margin scaled to unit variance."""
    u = np.clip(np.asarray(u, dtype=float), 1e-15, 1.0 - 1e-15)
    log_m2 = (math.log(a) + math.lgamma(a - 2.0 / b) + math.lgamma(1.0 + 2.0 / b)
              - math.lgamma(a + 1.0))
    scale = math.exp(0.5 * log_m2)
    mag = np.power(np.expm1(-np.log1p(-np.abs(2.0 * u - 1.0)) / a), 1.0 / b)
    return np.where(u < 0.5, -mag, mag) / scale


def _stratified_t_copula(rng, rows: int, dim: int, nu: float, rho: float):
    """Uniforms with equicorrelated t-copula ranks and stratified margins.

    The ranks of a t sample fix the dependence; each value is then placed at a
    jittered point of its rank's stratum ((rank + U) / rows), so every column's
    empirical law is its target law up to 1/rows. This keeps Hill's sampling
    noise well below the 0.05 spacing of the banks' tail indices.
    """
    corr = np.full((dim, dim), rho)
    np.fill_diagonal(corr, 1.0)
    z = rng.standard_normal((rows, dim)) @ np.linalg.cholesky(corr).T
    t = z / np.sqrt(rng.chisquare(nu, size=rows) / nu)[:, None]
    ranks = np.argsort(np.argsort(t, axis=0), axis=0)
    return (ranks + rng.uniform(size=(rows, dim))) / rows


def d8_panel_rows(seed: int, panel: int):
    """8-bank price/cap panel: GARCH(1,1) losses with heterogeneous Burr tails.

    Returns (header, rows) ready for csv.writer; one price row more than the
    loss rows so that the forecast yields exactly D8_WINDOWS windows.
    """
    rng = np.random.default_rng([seed, 8, panel])
    losses_rows = BT_N + BT_ELL + D8_WINDOWS
    total = BURN_IN + losses_rows
    u = np.vstack([_stratified_t_copula(rng, BURN_IN, D8_BANKS, 4.0, 0.5),
                   _stratified_t_copula(rng, losses_rows, D8_BANKS, 4.0, 0.5)])
    eps = np.column_stack([burr_sym_quantile(u[:, j], 1.0 / (g * D8_BURR_B), D8_BURR_B)
                           for j, g in enumerate(D8_GAMMAS)])
    alpha = np.linspace(0.08, 0.03, D8_BANKS)
    beta = np.full(D8_BANKS, 0.90)
    omega = 4e-4 * (1.0 - alpha - beta)
    sig2 = omega / (1.0 - alpha - beta)
    losses = np.empty((total, D8_BANKS))
    for t in range(total):
        losses[t] = np.sqrt(sig2) * eps[t]
        sig2 = omega + alpha * losses[t] ** 2 + beta * sig2
    losses = losses[BURN_IN:]

    price0 = rng.uniform(20.0, 200.0, size=D8_BANKS)
    log_p = np.log(price0) - np.vstack([np.zeros(D8_BANKS), np.cumsum(losses, axis=0)])
    prices = np.exp(log_p)
    # shares outstanding drift independently, so weights move beyond prices
    shares = rng.uniform(1e6, 1e7, size=D8_BANKS) * np.exp(
        np.cumsum(rng.normal(0.0, 0.01, size=(prices.shape[0], D8_BANKS)), axis=0))
    caps = prices * shares

    ids = [f"bank{j + 1}" for j in range(D8_BANKS)]
    header = ["date"] + [f"price_{i}" for i in ids] + [f"mcap_{i}" for i in ids]
    start = datetime.date(2000, 1, 3)
    rows = [[(start + datetime.timedelta(days=r)).isoformat()]
            + [repr(float(v)) for v in prices[r]] + [repr(float(v)) for v in caps[r]]
            for r in range(prices.shape[0])]
    return header, rows


def write_d8_panel(seed: int, panel: int, path) -> None:
    header, rows = d8_panel_rows(seed, panel)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def d2_panels(seed: int):
    """Null screen: D2_PANELS panels of two i.i.d. independent symmetrized-Burr
    series at n = D2_N with equal caps; each gives exactly one window.

    Yields (dates, losses, caps) per panel.
    """
    a = 1.0 / (D2_GAMMA * D8_BURR_B)
    rows = D2_N + BT_ELL + 1
    dates = tuple(f"t{i:06d}" for i in range(rows))
    caps = np.ones((rows, 2))
    for w in range(D2_PANELS):
        rng = np.random.default_rng([seed, 2, w])
        yield dates, burr_sym_quantile(rng.uniform(size=(rows, 2)), a, D8_BURR_B), caps
