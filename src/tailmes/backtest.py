"""Rolling-window backtest: panel ingestion, value-weighted index construction,
per-window joint MES forecasting, and the per-window equality test."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evt import TailConfig, assemble_forecast, hill, k_rule, mes_extrapolate, mes_within
from .garch import filter_and_residualize, qmle_fit
from .inference import WaldResult, wald_test
from .taildep import sigma_hat

__all__ = [
    "LossPanel",
    "ForecastRecord",
    "build_index",
    "rolling_forecast",
    "ingest_csv",
    "write_forecast_csv",
    "read_forecast_csv",
]


class PanelError(ValueError):
    """Raised for malformed input panels; message carries the offending line."""


@dataclass
class LossPanel:
    """Aligned panel of log-losses (and optionally market caps) per institution."""

    dates: tuple
    losses: np.ndarray
    series_ids: tuple
    market_caps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.losses = np.atleast_2d(np.asarray(self.losses, dtype=float))
        if len(self.dates) != self.losses.shape[0]:
            raise PanelError(
                f"{len(self.dates)} dates for {self.losses.shape[0]} loss rows")
        if len(self.series_ids) != self.losses.shape[1]:
            raise PanelError(
                f"{len(self.series_ids)} series ids for {self.losses.shape[1]} columns")
        if not np.all(np.isfinite(self.losses)):
            raise PanelError("losses contain missing or non-finite values")
        for i in range(1, len(self.dates)):
            if not self.dates[i] > self.dates[i - 1]:
                raise PanelError(
                    f"dates not strictly increasing at row {i}: "
                    f"{self.dates[i - 1]!r} >= {self.dates[i]!r}")
        if self.market_caps is not None:
            self.market_caps = np.atleast_2d(np.asarray(self.market_caps, dtype=float))
            if self.market_caps.shape != self.losses.shape:
                raise PanelError("market caps not aligned with losses")
            if not np.all(np.isfinite(self.market_caps)) or np.any(self.market_caps <= 0):
                raise PanelError("market caps must be strictly positive and present")

    @property
    def n_obs(self) -> int:
        return self.losses.shape[0]

    @property
    def n_series(self) -> int:
        return self.losses.shape[1]


@dataclass
class ForecastRecord:
    """One-step-ahead joint forecast issued at the window's last date."""

    date: object
    series_ids: tuple
    theta_hat: tuple = ()
    ci_lower: tuple = ()
    ci_upper: tuple = ()
    gamma_hat: tuple = ()
    weights: tuple = ()
    wald: Optional[WaldResult] = None
    flags: tuple = ()
    failed: bool = False
    diagnostics: dict = field(default_factory=dict)


def _weights_from_caps(caps_row: np.ndarray) -> np.ndarray:
    total = float(np.sum(caps_row))
    if total <= 0:
        raise PanelError("market caps must sum to a positive value")
    return caps_row / total


def build_index(panel: LossPanel):
    """Value-weighted index losses X_t = sum_d w_{t-1,d} Y_{t,d}, w from lagged caps.

    Returns (index_losses, weights) covering rows 1..T-1 of the panel; the first
    row is dropped because no lagged capitalization exists for it.
    """
    if panel.market_caps is None:
        raise PanelError("market caps are required to build a value-weighted index")
    if panel.n_obs < 2:
        raise PanelError("panel must have at least 2 rows to lag the weights")
    weights = panel.market_caps[:-1] / panel.market_caps[:-1].sum(axis=1, keepdims=True)
    index = np.sum(weights * panel.losses[1:], axis=1)
    return index, weights


def _window_forecast(x_window: np.ndarray, y_window: np.ndarray, weights_now: np.ndarray,
                     date, series_ids, ell_n: int, p: float, iota: float) -> ForecastRecord:
    """Joint MES forecasts and equality test for one estimation window."""
    d = y_window.shape[1]
    flags = []
    diagnostics = {}
    try:
        losses = np.column_stack([x_window, y_window])
        fits = [qmle_fit(losses[:, j]) for j in range(d + 1)]
        residuals = filter_and_residualize(losses, fits, ell_n)
        n_eff = residuals.n
        k = k_rule(n_eff)
        cfg = TailConfig(k=k, k1=k, p=p, n=n_eff)
        res_x = residuals.column(0)

        thetas, lo, hi, gammas = [], [], [], []
        for j in range(d):
            res_y = residuals.column(j + 1)
            gamma = hill(res_y, k)
            theta_within = mes_within(res_x, res_y, k)
            theta_p = mes_extrapolate(theta_within, gamma, cfg)
            fc = assemble_forecast(fits[j + 1].vol_forecast, theta_p, gamma, cfg, iota)
            thetas.append(fc.theta_hat_np_level)
            lo.append(fc.ci_lower)
            hi.append(fc.ci_upper)
            gammas.append(gamma)
            if fc.degenerate:
                flags.append(f"degenerate:{series_ids[j]}")
        nonconverged = [sid for sid, f in zip(("index",) + tuple(series_ids), fits)
                        if not f.converged]
        if nonconverged:
            flags.append("qmle-nonconverged")
            flags += [f"qmle-nonconverged:{sid}" for sid in nonconverged]
            diagnostics["qmle_nonconverged"] = nonconverged
    except ValueError as exc:  # a bad window is data, not a crash
        return ForecastRecord(date=date, series_ids=tuple(series_ids),
                              weights=tuple(weights_now), failed=True,
                              flags=("window-failed",),
                              diagnostics={"error": str(exc)})

    wald = None
    weighted = weights_now * np.asarray(thetas)
    if d >= 2:
        if np.all(weighted > 0):
            cols = [residuals.column(j + 1) for j in range(d)]
            cov = sigma_hat(cols, gammas, k)
            # the log-forecast errors concentrate at rate sqrt(k)/log(d_n),
            # so the chi-square pivot scales the quadratic form by k/log^2(d_n)
            scale = k / np.log(cfg.d_n) ** 2 if cfg.d_n > 1.0 else k
            wald = wald_test(np.log(weighted), cov, scale)
            if not wald.contrast_ok:
                flags.append("wald-singular")
        else:
            flags.append("wald-skipped-nonpositive")

    return ForecastRecord(
        date=date, series_ids=tuple(series_ids),
        theta_hat=tuple(thetas), ci_lower=tuple(lo), ci_upper=tuple(hi),
        gamma_hat=tuple(gammas), weights=tuple(weights_now),
        wald=wald, flags=tuple(flags), diagnostics=diagnostics,
    )


def rolling_forecast(panel: LossPanel, n: int, ell_n: int, p: float,
                     iota: float = 0.05) -> list:
    """Roll a window of length n + ell_n through the panel, one step at a time.

    A panel of N rows yields exactly N - (n + ell_n) records, each stamped with
    the window's last date (the forecast origin). Single-series panels without
    caps treat the lone series as its own index and skip the equality test.
    """
    width = n + ell_n
    n_rows = panel.n_obs
    if n_rows <= width:
        raise PanelError(f"panel length {n_rows} must exceed n + ell_n = {width}")
    if k_rule(n) / (n * p) < 1.0:
        raise ValueError(
            f"p={p} violates the extrapolation requirement k/(n*p) >= 1 for n={n}")

    # the first panel row is always dropped: with caps it has no lagged weight,
    # and dropping it uniformly keeps the record count at N - (n + ell_n)
    if panel.market_caps is not None:
        index_losses, _ = build_index(panel)
        caps = panel.market_caps[1:]
    elif panel.n_series > 1:
        raise PanelError("market caps are required for multi-series panels")
    else:
        index_losses = panel.losses[1:, 0]
        caps = None
    y = panel.losses[1:]
    dates = panel.dates[1:]
    usable = index_losses.shape[0]

    records = []
    # window ends at row e (inclusive); the forecast targets the next period
    for e in range(width - 1, usable):
        start = e - width + 1
        x_win = index_losses[start:e + 1]
        y_win = y[start:e + 1]
        if caps is not None:
            w_now = _weights_from_caps(caps[e])
        else:
            w_now = np.ones(panel.n_series) / panel.n_series
        records.append(_window_forecast(x_win, y_win, w_now, dates[e],
                                        panel.series_ids, ell_n, p, iota))
    expected = n_rows - width
    if len(records) != expected:
        raise AssertionError(
            f"window bookkeeping bug: {len(records)} records, expected {expected}")
    return records


def _parse_float(text: str, line_no: int, col: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise PanelError(f"line {line_no}: column {col!r} is not a number: {text!r}") from exc
    if not math.isfinite(val):
        raise PanelError(f"line {line_no}: column {col!r} is not finite: {text!r}")
    return val


def ingest_csv(path) -> LossPanel:
    """Read a wide CSV (date, price_<id>..., mcap_<id>...) into a LossPanel.

    Prices become log-losses -log(P_t / P_{t-1}); the first price row is
    consumed by differencing. Market caps, if given, must be given for every
    series and are carried through on the same dates. Errors cite 1-based file
    lines.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError("empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    if not header or header[0] != "date":
        raise PanelError("first column must be 'date'")
    price_cols = {h[len("price_"):]: i for i, h in enumerate(header)
                  if h.startswith("price_")}
    mcap_cols = {h[len("mcap_"):]: i for i, h in enumerate(header)
                 if h.startswith("mcap_")}
    if not price_cols:
        raise PanelError("no price_<id> columns found")
    ids = tuple(sorted(price_cols))
    have_caps = bool(mcap_cols)
    missing_caps = sorted(set(ids) - set(mcap_cols))
    if have_caps and missing_caps:
        raise PanelError(f"no mcap_<id> column for {', '.join(missing_caps)}")

    dates, prices, caps = [], [], []
    for r, row in enumerate(rows):
        line_no = r + 2  # 1-based, after the header
        if len(row) != len(header):
            raise PanelError(f"line {line_no}: {len(row)} fields, expected {len(header)}")
        date = row[0].strip()
        if not date:
            raise PanelError(f"line {line_no}: empty date")
        if dates and not date > dates[-1]:
            raise PanelError(f"line {line_no}: date {date!r} not after {dates[-1]!r}")
        p_row = []
        for sid in ids:
            val = _parse_float(row[price_cols[sid]].strip(), line_no, f"price_{sid}")
            if val <= 0:
                raise PanelError(f"line {line_no}: nonpositive price for {sid!r}: {val}")
            p_row.append(val)
        if have_caps:
            c_row = []
            for sid in ids:
                val = _parse_float(row[mcap_cols[sid]].strip(), line_no, f"mcap_{sid}")
                if val <= 0:
                    raise PanelError(f"line {line_no}: nonpositive cap for {sid!r}: {val}")
                c_row.append(val)
            caps.append(c_row)
        dates.append(date)
        prices.append(p_row)

    if len(prices) < 2:
        raise PanelError("need at least two price rows to form losses")
    prices_arr = np.asarray(prices)
    losses = -np.log(prices_arr[1:] / prices_arr[:-1])
    market_caps = np.asarray(caps)[1:] if have_caps else None
    return LossPanel(dates=tuple(dates[1:]), losses=losses, series_ids=ids,
                     market_caps=market_caps)


def write_forecast_csv(records, path) -> None:
    """One row per record: date, per-series theta/lo/hi/gamma/weight, Wald columns
    and the flags (a non-converged fit as `qmle-nonconverged:<id>`)."""
    if not records:
        raise ValueError("no records to write")
    ids = records[0].series_ids
    cols = ["date"]
    for sid in ids:
        cols += [f"theta_{sid}", f"lo_{sid}", f"hi_{sid}", f"gamma_{sid}", f"weight_{sid}"]
    cols += ["wald_stat", "wald_df", "wald_p", "flags"]

    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            row = [rec.date]
            for j, sid in enumerate(ids):
                if rec.failed or not rec.theta_hat:
                    row += ["", "", "", ""]
                else:
                    row += [fmt(rec.theta_hat[j]), fmt(rec.ci_lower[j]),
                            fmt(rec.ci_upper[j]), fmt(rec.gamma_hat[j])]
                row.append(fmt(rec.weights[j]) if rec.weights else "")
            if rec.wald is not None and rec.wald.contrast_ok:
                row += [fmt(rec.wald.statistic), str(rec.wald.dof), fmt(rec.wald.p_value)]
            else:
                row += ["", "", ""]
            row.append(";".join(rec.flags))
            writer.writerow(row)


def read_forecast_csv(path) -> list:
    """Inverse of write_forecast_csv, for the stored-record test command."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError("empty forecast file") from None
        ids = tuple(h[len("theta_"):] for h in header if h.startswith("theta_"))
        if not ids or header[-4:] != ["wald_stat", "wald_df", "wald_p", "flags"]:
            raise PanelError("not a forecast CSV: unexpected header")
        records = []
        for row in reader:
            if len(row) != len(header):
                raise PanelError(f"forecast row has {len(row)} fields, expected {len(header)}")
            vals = dict(zip(header, row))
            failed = any(vals[f"theta_{sid}"] == "" for sid in ids)
            wald = None
            if vals["wald_stat"] != "":
                wald = WaldResult(statistic=float(vals["wald_stat"]),
                                  dof=int(vals["wald_df"]),
                                  p_value=float(vals["wald_p"]), contrast_ok=True)
            flags = tuple(f for f in vals["flags"].split(";") if f)
            nonconverged = [f[len("qmle-nonconverged:"):] for f in flags
                            if f.startswith("qmle-nonconverged:")]
            records.append(ForecastRecord(
                date=vals["date"], series_ids=ids,
                theta_hat=() if failed else tuple(float(vals[f"theta_{sid}"]) for sid in ids),
                ci_lower=() if failed else tuple(float(vals[f"lo_{sid}"]) for sid in ids),
                ci_upper=() if failed else tuple(float(vals[f"hi_{sid}"]) for sid in ids),
                gamma_hat=() if failed else tuple(float(vals[f"gamma_{sid}"]) for sid in ids),
                weights=tuple(float(vals[f"weight_{sid}"]) for sid in ids)
                if all(vals[f"weight_{sid}"] != "" for sid in ids) else (),
                wald=wald,
                flags=flags,
                failed=failed,
                diagnostics={"qmle_nonconverged": nonconverged} if nonconverged else {},
            ))
    return records
