"""Command-line front end: `simulate` (Monte Carlo study), `forecast` (rolling
backtest on a CSV panel), and `test` (equality test on a stored record).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 lookup failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import datetime
import json
import os
import sys

from . import __version__
from .backtest import PanelError, ingest_csv, read_forecast_csv, rolling_forecast, write_forecast_csv
from .distributions import BurrParams
from .simlab import SimConfig, run_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_LOOKUP = 4


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


def _default_threads() -> int:
    env = os.environ.get("TAILMES_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"TAILMES_THREADS is not an integer: {env!r}") from exc
    return os.cpu_count() or 1


def _parse(parser: configparser.ConfigParser, section: str, key: str, cast):
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _parse_p_grid(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


# the keys each config section may hold, with the parser of each value
_GARCH_KEYS = {"omega": float, "alpha": float, "beta": float}
_CONFIG_KEYS = {
    "study": {"n": int, "ell_n": int, "p_grid": _parse_p_grid, "nu": float, "rho": float,
              "a": float, "b": float, "replications": int, "base_seed": int,
              "iota": float, "burn_in": int},
    "garch_x": _GARCH_KEYS,
    "garch_y": _GARCH_KEYS,
}


def load_sim_config(path, seed_override=None) -> SimConfig:
    """Read a study configuration; every key is optional and defaults to the
    standard bivariate design, so a minimal file selects just n and seed. An
    unknown section or key, such as a misspelt one, is an error."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found or unreadable: {path}")
    given = {}
    for section in parser.sections():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = sorted(set(parser.options(section)) - set(keys))
        if unknown:
            raise ConfigError(f"[{section}]: unknown key(s) {', '.join(unknown)}")
        given[section] = {key: _parse(parser, section, key, keys[key])
                          for key in parser.options(section)}
    base = SimConfig()
    study = given.pop("study", {})
    if seed_override is not None:
        study["base_seed"] = seed_override
    for section, values in given.items():  # the GARCH sections
        try:
            study[section] = dataclasses.replace(getattr(base, section), **values)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
    try:
        study["burr"] = BurrParams(a=study.pop("a", base.burr.a), b=study.pop("b", base.burr.b))
        return SimConfig(**study)
    except ValueError as exc:
        raise ConfigError(f"[study]: {exc}") from exc


def _write_manifest(out_path: str, command: str, argv, config_snapshot: dict,
                    seeds: dict, started: str, outputs) -> str:
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": config_snapshot,
        "seeds": seeds,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_simulate(args, argv) -> int:
    started = _now()
    try:
        config = load_sim_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    threads = args.threads if args.threads else _default_threads()
    result = run_study(config, threads=threads)
    result.write_csv(args.out)
    _write_manifest(args.out, "simulate", argv, dataclasses.asdict(config),
                    {"base_seed": config.base_seed}, started, [args.out])
    print(f"wrote {args.out} ({len(result.rows)} risk levels, "
          f"{config.replications} replications)")
    return EXIT_OK


def cmd_forecast(args, argv) -> int:
    started = _now()
    try:
        panel = ingest_csv(args.panel)
    except FileNotFoundError:
        print(f"data error: panel file not found: {args.panel}", file=sys.stderr)
        return EXIT_DATA
    except PanelError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        records = rolling_forecast(panel, n=args.window, ell_n=args.clip,
                                   p=args.p, iota=args.iota)
    except ValueError as exc:
        # extrapolation-depth and window-length violations are configuration
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    write_forecast_csv(records, args.out)
    snapshot = {"panel": args.panel, "n": args.window, "ell_n": args.clip,
                "p": args.p, "iota": args.iota, "series": list(panel.series_ids)}
    _write_manifest(args.out, "forecast", argv, snapshot, {}, started, [args.out])
    print(f"wrote {args.out} ({len(records)} records)")
    return EXIT_OK


def cmd_test(args, argv) -> int:  # noqa: ARG001 - uniform signature
    try:
        records = read_forecast_csv(args.forecasts)
    except FileNotFoundError:
        print(f"data error: forecast file not found: {args.forecasts}", file=sys.stderr)
        return EXIT_DATA
    except PanelError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    match = [r for r in records if str(r.date) == args.date]
    if not match:
        print(f"lookup error: no record dated {args.date!r} in {args.forecasts}",
              file=sys.stderr)
        return EXIT_LOOKUP
    record = match[0]
    if record.wald is None or not record.wald.contrast_ok:
        print(f"data error: record {args.date!r} has no valid equality test "
              f"(flags: {';'.join(record.flags) or 'none'})", file=sys.stderr)
        return EXIT_DATA
    print(f"date: {record.date}")
    print(f"statistic: {record.wald.statistic:.6f}")
    print(f"dof: {record.wald.dof}")
    print(f"p_value: {record.wald.p_value:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailmes",
        description="Extreme-value forecasts of marginal expected shortfall: "
                    "simulation studies, rolling backtests, equality tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    sim.add_argument("--config", required=True, help="study configuration (INI sections)")
    sim.add_argument("--out", required=True, help="result CSV path")
    sim.add_argument("--seed", type=int, default=None, help="override the base seed")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: TAILMES_THREADS or all cores)")
    sim.set_defaults(func=cmd_simulate)

    fc = sub.add_parser("forecast", help="rolling one-step MES forecasts on a panel CSV")
    fc.add_argument("panel", help="input CSV: date, price_<id>..., mcap_<id>...")
    fc.add_argument("--out", required=True, help="forecast CSV path")
    fc.add_argument("--p", type=float, default=0.001, help="tail risk level")
    fc.add_argument("--iota", type=float, default=0.05, help="CI significance level")
    fc.add_argument("--window", type=int, default=1000, help="estimation window n")
    fc.add_argument("--clip", type=int, default=10, help="residuals clipped per window")
    fc.set_defaults(func=cmd_forecast)

    ts = sub.add_parser("test", help="print the equality test for a stored record")
    ts.add_argument("forecasts", help="forecast CSV written by the forecast command")
    ts.add_argument("date", help="record date to test")
    ts.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
