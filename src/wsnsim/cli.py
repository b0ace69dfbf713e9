"""Command line front end.

Two subcommands:

  run      simulate a single protocol/sink/seed combination
  compare  sweep a protocol x sink x seed matrix and write per-run CSVs
           plus a joint summary.json

Configuration comes from built-in defaults, optionally a config file
(--config), then individual --set KEY=VALUE overrides, in that order.
Exit codes: 0 success, 1 simulation failure, 2 bad usage/configuration.
"""
from __future__ import annotations

import argparse
import sys

from .config import ScenarioConfig, _coerce, parse_config
from .metrics import LIFETIME_SURVIVED, write_csv
from .runner import run_matrix, run_scenario


def _parse_overrides(pairs) -> dict:
    out = {}
    for raw in pairs or []:
        key, sep, value = raw.partition("=")
        if not sep or not key:
            raise ValueError(f"configuration error: override {raw!r} is not KEY=VALUE")
        out[key.strip()] = value.strip()
    return out


def _split_list(text: str) -> list[str]:
    return [part for part in (p.strip() for p in text.split(",")) if part]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="config file with KEY = VALUE lines")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", dest="overrides",
                        help="override a single config key (repeatable)")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--field", type=float, default=None, metavar="METERS",
                        help="side length of the square deployment area")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsim",
        description="round-based simulator for clustering WSN routing protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    _add_common(run)
    run.add_argument("--protocol", default=None,
                     help="leach | teen | deec | hteen | campteen")
    run.add_argument("--sink", default=None,
                     help="static_center | static_top | mobile_top")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", metavar="FILE.csv", default=None,
                     help="write the per-round trace here")

    cmp_ = sub.add_parser("compare", help="sweep protocols x sinks x seeds")
    _add_common(cmp_)
    cmp_.add_argument("--protocols", default=None,
                      help="comma separated list (default: all five)")
    cmp_.add_argument("--sinks", default=None,
                      help="comma separated list (default: all three)")
    cmp_.add_argument("--seeds", default=None,
                      help="comma separated integers (default: the config seed)")
    cmp_.add_argument("--out-dir", required=True, metavar="DIR",
                      help="directory for per-run CSVs and summary.json")
    return parser


def _load_config(args) -> ScenarioConfig:
    overrides = _parse_overrides(args.overrides)
    for key, attr in (("rounds", "rounds"), ("nodes", "nodes"), ("field_m", "field")):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    for key in ("protocol", "sink", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return parse_config(args.config, overrides)


def _summary_line(summary) -> str:
    lifetime = LIFETIME_SURVIVED if summary.lifetime is None else str(summary.lifetime)
    stability = "n/a" if summary.stability_period is None else str(summary.stability_period)
    return (
        f"{summary.protocol} {summary.sink} seed={summary.seed}"
        f" stability={stability} lifetime={lifetime}"
        f" avg_alive={summary.avg_alive:.2f}"
        f" throughput={summary.total_throughput}"
        f" avg_throughput={summary.avg_throughput:.1f}"
    )


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_scenario(cfg)
    if args.out is not None:
        write_csv(result.history, args.out)
    print(_summary_line(result.summary))
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    protocols = _split_list(args.protocols) if args.protocols else None
    sinks = _split_list(args.sinks) if args.sinks else None
    seeds = [_coerce("seed", s) for s in _split_list(args.seeds)] if args.seeds else None
    results = run_matrix(cfg, protocols, sinks, seeds, out_dir=args.out_dir)
    for res in results:
        print(_summary_line(res.summary))
    print(f"wrote {len(results)} runs to {args.out_dir}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ValueError as exc:
        print(f"wsnsim: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"wsnsim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
