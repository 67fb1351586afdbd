"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here, apart
from the program, or with a property the method must have. Each returns a list
of failure messages; an empty list means the output passed. The outputs come
in as plain dicts and lists (see worker.py), so the checks can be fed corrupted
copies in test_checks.py.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import stats

# how many standard errors two estimates of the true theta_p may differ by
TRUTH_SIGMAS = 5.0
# relative error allowed to a truth value that carries no Monte Carlo error:
# far above theta_by_quadrature's own (below 1e-12) and far below the study's
# RMSE (a few percent of theta)
TRUTH_REL_FLOOR = 1e-4
# per-level probability of a false alarm in the coverage band
COVERAGE_ALPHA = 1e-6
# how far a bank's mean gamma_hat may fall below that of a bank with a smaller
# true index: under the 0.05 spacing of the d8 design, and over three standard
# deviations of the difference of two filtered Hill estimates (about 0.025 at
# the heavy end)
ORDER_TOL = 0.03


def k_rule(n: int) -> int:
    return int(math.floor(0.1 * math.log(n) ** 4))


# ---------------------------------------------------------------------------
# truth references for the study design, written apart from tailmes.simlab
# ---------------------------------------------------------------------------


def _burr_std(a: float, b: float) -> float:
    return math.exp(0.5 * (math.log(a) + math.lgamma(a - 2.0 / b)
                           + math.lgamma(1.0 + 2.0 / b) - math.lgamma(a + 1.0)))


def _burr_sym_from_t(t, nu: float, a: float, b: float):
    """Symmetrized unit-variance Burr value at copula coordinate F_nu(t).

    Works through the tail probability sf(|t|), so neither tail loses digits.
    """
    q = stats.t.sf(np.abs(t), nu)
    mag = np.power(np.expm1(-np.log(2.0 * q) / a), 1.0 / b)
    return np.sign(t) * mag / _burr_std(a, b)


def _tanh_sinh(h: float, reach: float = 3.5):
    """Tanh-sinh nodes and weights on (0, 1); nodes near 0 keep full precision."""
    tau = np.arange(-reach, reach + h / 2, h)
    e = np.pi * np.sinh(tau)
    x = 1.0 / (1.0 + np.exp(-e))
    return x, h * np.pi * np.cosh(tau) * x / (1.0 + np.exp(e))


def theta_by_quadrature(nu: float, rho: float, a: float, b: float, p: float,
                        h: float = 1.0 / 16.0) -> float:
    """theta_p = int_0^1 E[eps_Y | U_X = 1 - p s] ds, by tanh-sinh quadrature.

    Given T_X = t1, T_Y = loc + scale * S with S ~ t_{nu+1}. The inner mean is
    split where T_Y = 0, since eps_Y has a cusp there (|T_Y|^(1/b)); each piece
    is integrated over its own t_{nu+1} probability range.
    """
    x, wx = _tanh_sinh(h)
    t1 = stats.t.isf(p * x, nu)
    loc = rho * t1
    scale = np.sqrt((nu + t1 * t1) * (1.0 - rho * rho) / (nu + 1.0))
    below = stats.t.cdf(-loc / scale, nu + 1.0)
    s_neg = -stats.t.isf(below[:, None] * x[None, :], nu + 1.0)
    s_pos = stats.t.isf((1.0 - below)[:, None] * x[None, :], nu + 1.0)
    inner = (below * (_burr_sym_from_t(loc[:, None] + scale[:, None] * s_neg, nu, a, b) @ wx)
             + (1.0 - below)
             * (_burr_sym_from_t(loc[:, None] + scale[:, None] * s_pos, nu, a, b) @ wx))
    return float(wx @ inner)


def theta_by_rejection(nu: float, rho: float, a: float, b: float, p: float,
                       draws: int, rng: np.random.Generator):
    """Plain rejection estimate: draw bivariate t pairs, keep T_X above its
    (1 - p)-quantile, average eps_Y. Returns (mean, standard error, kept)."""
    cut = stats.t.isf(p, nu)
    total = total_sq = 0.0
    kept = 0
    chunk = 1_000_000
    for start in range(0, draws, chunk):
        m = min(chunk, draws - start)
        root_w = np.sqrt(rng.chisquare(nu, size=m) / nu)
        z1 = rng.standard_normal(m)
        sel = z1 > cut * root_w
        z2 = rng.standard_normal(int(sel.sum()))
        t2 = (rho * z1[sel] + math.sqrt(1.0 - rho * rho) * z2) / root_w[sel]
        eps = _burr_sym_from_t(t2, nu, a, b)
        total += float(eps.sum())
        total_sq += float((eps * eps).sum())
        kept += eps.shape[0]
    mean = total / kept
    return mean, math.sqrt(max(total_sq / kept - mean * mean, 0.0) / kept), kept


def coverage_floor(reps: int, nominal: float = 0.95, alpha: float = COVERAGE_ALPHA) -> int:
    """Smallest hit count the binomial(reps, nominal) law reaches with
    probability above alpha from below."""
    cdf = 0.0
    for x in range(reps + 1):
        cdf += math.comb(reps, x) * nominal**x * (1.0 - nominal) ** (reps - x)
        if cdf > alpha:
            return x
    return reps


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def check_study(out: dict, design: dict, references: dict) -> list:
    """out: {"replications", "rows": [{p, n_used, n_failed, rmse, rmse_np,
    coverage}], "true_theta": {p: {"theta_p", "mc_error"}}}.

    references: {"quadrature": {p: theta}, "rejection": {p: (mean, se, kept)}}.
    """
    errors = []
    reps = design["replications"]
    n = design["n"]
    rows = {row["p"]: row for row in out["rows"]}
    if sorted(rows) != sorted(design["p_grid"]):
        return [f"study rows cover {sorted(rows)}, expected {sorted(design['p_grid'])}"]
    floor = coverage_floor(reps)
    for p in design["p_grid"]:
        row = rows[p]
        truth = out["true_theta"][p]
        theta, se = truth["theta_p"], truth.get("mc_error") or 0.0
        quad = references["quadrature"][p]
        tol = TRUTH_SIGMAS * math.hypot(se, TRUTH_REL_FLOOR * quad)
        if not abs(theta - quad) <= tol:
            errors.append(f"p={p}: true theta {theta!r} differs from quadrature "
                          f"{quad!r} by more than {tol:.3g}")
        if p in references["rejection"]:
            rej, rej_se, _ = references["rejection"][p]
            tol = TRUTH_SIGMAS * math.hypot(se, rej_se)
            if not abs(theta - rej) <= tol:
                errors.append(f"p={p}: true theta {theta!r} differs from rejection "
                              f"estimate {rej!r} by more than {tol:.3g}")
        if row["n_used"] + row["n_failed"] != reps:
            errors.append(f"p={p}: n_used + n_failed = "
                          f"{row['n_used'] + row['n_failed']}, expected {reps}")
        if p < 1.0 / n:
            if not row["rmse_np"] > row["rmse"]:
                errors.append(f"p={p}: nonparametric RMSE {row['rmse_np']!r} does not "
                              f"exceed the EVT RMSE {row['rmse']!r}")
            hits = round(row["coverage"] / 100.0 * row["n_used"])
            if not floor * row["n_used"] <= hits * reps:
                errors.append(f"p={p}: coverage {row['coverage']!r}% is below the "
                              f"binomial band at 95% ({floor}/{reps} hits)")
    return errors


# ---------------------------------------------------------------------------
# rolling backtests
# ---------------------------------------------------------------------------


def check_intervals(rows: list, n: int, p: float, iota: float) -> list:
    """Each interval is multiplicatively symmetric around the point and its
    half-width is exp(z * |gamma| * log(d_n) / sqrt(k)) with k = k_rule(n)."""
    errors = []
    k = k_rule(n)
    d_n = k / (n * p)
    z = NormalDist().inv_cdf(1.0 - iota / 2.0)
    for r in rows:
        if r["failed"]:
            continue
        for j, (theta, lo, hi, g) in enumerate(zip(r["theta"], r["lo"], r["hi"], r["gamma"])):
            where = f"{r['date']} series {j}"
            if theta == 0.0:
                if lo != 0.0 or hi != 0.0:
                    errors.append(f"{where}: zero forecast with interval ({lo}, {hi})")
                continue
            if not abs(hi * lo / (theta * theta) - 1.0) <= 1e-12:
                errors.append(f"{where}: interval not symmetric, hi/theta={hi / theta!r} "
                              f"theta/lo={theta / lo!r}")
            half = math.exp(z * abs(g) * math.log(d_n) / math.sqrt(k))
            if not abs(hi / theta / half - 1.0) <= 1e-9:
                errors.append(f"{where}: half-width {hi / theta!r}, expected {half!r}")
    return errors


def check_weights(rows: list, caps_by_date: dict) -> list:
    """Each record's weights are the cap shares on its forecast date."""
    errors = []
    for r in rows:
        caps = caps_by_date[r["date"]]
        total = sum(caps)
        for j, (w, c) in enumerate(zip(r["weight"], caps)):
            if not abs(w - c / total) <= 1e-12:
                errors.append(f"{r['date']} series {j}: weight {w!r}, cap share {c / total!r}")
    return errors


def hill_ref(values, k: int) -> float:
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    return float(np.mean(np.log(v[:k] / v[k])))


def mes_within_ref(x, y, k: int) -> float:
    x = np.asarray(x, dtype=float)
    threshold = np.sort(x)[::-1][k]
    return float(np.maximum(np.asarray(y)[x > threshold], 0.0).sum() / k)


def check_window(row: dict, residuals: np.ndarray, vol_forecasts, n: int, p: float) -> list:
    """Recompute one window's gamma_hat and theta_hat from its residuals:
    column 0 is the index, columns 1.. the series, vol_forecasts per series."""
    errors = []
    k = k_rule(n)
    d_n = k / (n * p)
    for j in range(residuals.shape[1] - 1):
        gamma = hill_ref(residuals[:, j + 1], k)
        theta = vol_forecasts[j] * d_n**gamma * mes_within_ref(residuals[:, 0],
                                                               residuals[:, j + 1], k)
        if not abs(row["gamma"][j] - gamma) <= 1e-8 * abs(gamma):
            errors.append(f"{row['date']} series {j}: gamma {row['gamma'][j]!r}, "
                          f"recomputed {gamma!r}")
        if not abs(row["theta"][j] - theta) <= 1e-8 * abs(theta):
            errors.append(f"{row['date']} series {j}: theta {row['theta'][j]!r}, "
                          f"recomputed {theta!r}")
    return errors


def mean_gammas(rows: list) -> np.ndarray:
    return np.mean([r["gamma"] for r in rows if not r["failed"]], axis=0)


def check_d8(rows: list, true_gammas) -> list:
    """Heterogeneous tails: the equality test rejects at 1% in nearly every
    window, and the mean gamma_hat orders the banks like their tail indices:
    no bank's mean falls below that of a bank with a smaller true index by
    more than ORDER_TOL."""
    errors = []
    rejected = sum(1 for r in rows if r["wald_p"] is not None and r["wald_p"] < 0.01)
    if rejected < 0.9 * len(rows):
        errors.append(f"equality test rejects at 1% in {rejected} of {len(rows)} windows")
    means = mean_gammas(rows)
    order = np.argsort(true_gammas)
    for a, i in enumerate(order):
        for j in order[a + 1:]:
            if not means[j] - means[i] >= -ORDER_TOL:
                errors.append(f"mean gamma_hat of series {j} ({means[j]:.4f}) is not ordered "
                              f"after series {i} ({means[i]:.4f}) like the true indices "
                              f"{true_gammas[j]} > {true_gammas[i]}")
    return errors


def check_d2(rows: list, true_gamma: float) -> list:
    """Null screen: every contrast covariance factorizes, and the mean gamma_hat
    lies within 0.01 of the true index (about eight standard errors)."""
    errors = [f"{r['date']}: Wald contrast covariance not positive definite"
              for r in rows if not r["contrast_ok"]]
    mean = float(np.mean(mean_gammas(rows)))
    if not abs(mean - true_gamma) <= 0.01:
        errors.append(f"mean gamma_hat {mean!r} is not near {true_gamma}")
    return errors
