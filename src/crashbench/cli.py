"""Command-line pipeline driver.

Subcommands: ingest, classify-roads, rates, power, compare, run.  Flags
can also come from CRASHBENCH_* environment variables (flag beats env
beats config file).  Exit codes: 0 ok, 2 configuration error, 3 data
error; failures print one machine-parseable line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import pipeline
from .ingest import load_ads_table
from .model import ConfigError, CrashBenchError, DataError
from .power import DEFAULT_ALPHA, DEFAULT_POWER, monte_carlo_power, power_curve
from .rates import (
    InvalidExposureError,
    compute_rate,
    poisson_intervals,
    refuse_unbounded_interval,
    safety_impact,
)
from .report import TOOL_VERSION, parse_rate_table, report_paths
from .roadclass import classify_road

ENV_PREFIX = "CRASHBENCH_"


def _load_config(args) -> pipeline.RunConfig:
    """The run config, each shared option taken from its flag, else its
    CRASHBENCH_* variable, else the file."""
    config_path = args.config if args.config is not None else os.environ.get(ENV_PREFIX + "CONFIG")
    if not config_path:
        raise ConfigError("no run config given (use --config or CRASHBENCH_CONFIG)")
    overrides = {}
    for option in pipeline.SHARED_OPTIONS:
        value = getattr(args, option.flag)
        variable = ENV_PREFIX + option.flag.upper()
        raw = os.environ.get(variable)
        if value is None and raw is not None:
            try:
                value = option.convert(raw)
            except ValueError:
                raise ConfigError(f"bad value for {variable}: {raw!r}") from None
        if value is not None:
            overrides[option.name] = value
    return pipeline.load_run_config(config_path, **overrides)


def cmd_run(args) -> int:
    config = _load_config(args)
    report = pipeline.run(config)
    cells = sum(1 for c in report.cells if c.crash_type is None)
    print(
        f"run complete: {cells} severity cells, "
        f"{len(report.power_grid)} power rows -> {config.out_dir}"
    )
    return 0


def cmd_ingest(args) -> int:
    config = _load_config(args)
    records, reports, _ = pipeline.load_crashes(config)
    for report in reports:
        print(
            f"{report.source}: rows={report.rows_read.get('crash', 0)} "
            f"records={report.records_emitted} skipped={len(report.skipped)} "
            f"missing_location={report.missing_location}"
        )
    print(f"total records: {len(records)}")
    return 0


def cmd_classify_roads(args) -> int:
    config = _load_config(args)
    records, _, _ = pipeline.load_crashes(config)
    index = pipeline.build_index(config)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / f"road_classes_{config.year}.csv"
    tallies: dict[str, int] = {}
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["crash_id", "road", "provenance", "route_id", "distance_m"])
        for record in records:
            result = classify_road(
                record,
                index,
                threshold_m=config.params.threshold_m,
                any_route=config.params.any_route,
            )
            tallies[result.road_class.value] = tallies.get(result.road_class.value, 0) + 1
            writer.writerow(
                [
                    record.crash_id,
                    result.road_class.value,
                    result.provenance.value,
                    result.route_id or "",
                    repr(result.distance_m) if result.distance_m is not None else "",
                ]
            )
    for road in sorted(tallies):
        print(f"{road}: {tallies[road]}")
    print(f"wrote {out_path}")
    return 0


def cmd_rates(args) -> int:
    """The rate tables, with a power grid of no rows.  A directory whose
    power grid has rows (a full run's output) is refused before anything
    is written, so its files stay whole."""
    config = _load_config(args)
    grid = report_paths(config.out_dir, str(config.year))["power_grid"]
    try:
        with open(grid, "rb") as fh:
            has_rows = bool(fh.readline() and fh.readline())
    except FileNotFoundError:
        has_rows = False
    if has_rows:
        raise ConfigError(
            f"{grid} holds a full run's power grid, which rates would replace "
            f"with an empty one; give rates another output directory"
        )
    config = replace(config, params=replace(config.params, effects=()))
    pipeline.run(config)
    print(f"rate tables written -> {config.out_dir}")
    return 0


def cmd_power(args) -> int:
    alpha = args.alpha if args.alpha is not None else DEFAULT_ALPHA
    power = args.power if args.power is not None else DEFAULT_POWER
    for result in power_curve(args.lambda_human, tuple(args.effect or [0.75]), alpha, power):
        effect = result.query.effect_ratio
        line = (
            f"effect={effect!r} required_miles={result.required_miles!r} "
            f"expected_ads_crashes={result.expected_ads_crashes!r} "
            f"target_power_miles={result.target_power_miles!r}"
        )
        if args.validate:
            fraction = monte_carlo_power(
                args.lambda_human,
                effect,
                result.target_power_miles,
                alpha=alpha,
                trials=args.validate,
                seed=args.seed if args.seed is not None else 0,
            )
            line += f" mc_power={fraction!r}"
        print(line)
    return 0


def cmd_compare(args) -> int:
    benchmark = {
        (c.geo.name, c.road.value, c.outcome.value): c
        for c in parse_rate_table(args.benchmark)
        if c.crash_type is None
    }
    matched = []
    for key, ads_count, ads_vmt in load_ads_table(args.ads):
        cell = benchmark.get(key)
        if cell is None:
            raise DataError(f"no benchmark cell for {key}")
        matched.append((key, ads_count, ads_vmt, cell))
    if not matched:
        raise DataError(f"{args.ads}: no ADS rows")
    cells = [cell for *_, cell in matched]
    try:
        lows, highs = poisson_intervals(
            [cell.count for cell in cells], [cell.vmt_miles for cell in cells]
        )
    except InvalidExposureError:
        refuse_unbounded_interval(cells, f"{args.benchmark}: ")
        raise
    rows = []
    for (key, ads_count, ads_vmt, cell), low, high in zip(matched, lows.tolist(), highs.tolist()):
        ads_rate = compute_rate(ads_count, ads_vmt)
        baseline = cell.rate_ipmm
        rows.append(
            [
                *key,
                repr(ads_count),
                repr(ads_vmt),
                repr(ads_rate),
                repr(baseline),
                repr(low),
                repr(high),
                repr(safety_impact(ads_rate, baseline)),
            ]
        )
    # Every row is computed before the output is opened, so a failed
    # compare writes nothing.
    out_path = Path(args.out or ".") / "safety_impact.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "geo",
                "road",
                "outcome",
                "ads_count",
                "ads_vmt_miles",
                "ads_rate_ipmm",
                "benchmark_rate_ipmm",
                "benchmark_ci_low_ipmm",
                "benchmark_ci_high_ipmm",
                "percent_difference",
            ]
        )
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashbench",
        description="Crashed-vehicle rate benchmarks and ADS safety comparison",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config INI path")
    for option in pipeline.SHARED_OPTIONS:
        common.add_argument(
            "--" + option.flag.replace("_", "-"), type=option.convert, help=option.help
        )

    for name, func, descr in (
        ("run", cmd_run, "full pipeline: ingest through report"),
        ("ingest", cmd_ingest, "parse sources and print ingest accounting"),
        ("classify-roads", cmd_classify_roads, "write per-crash road classes"),
        ("rates", cmd_rates, "rate and distribution tables only"),
    ):
        p = sub.add_parser(name, parents=[common], help=descr)
        p.set_defaults(func=func)

    p_power = sub.add_parser("power", help="required mileage for given rates")
    p_power.add_argument("--lambda-human", dest="lambda_human", type=float,
                         required=True, help="benchmark rate, crashes per mile")
    p_power.add_argument("--effect", type=float, action="append",
                         help="effect ratio lambda_ads/lambda_human (repeatable)")
    p_power.add_argument("--alpha", type=float, help="two-sided type-I level")
    p_power.add_argument("--power", type=float, help="target statistical power")
    p_power.add_argument("--seed", type=int, help="Monte Carlo seed")
    p_power.add_argument("--validate", type=int, metavar="TRIALS",
                         help="Monte Carlo validation with this many trials")
    p_power.set_defaults(func=cmd_power)

    p_cmp = sub.add_parser("compare", help="ADS rates vs an emitted benchmark table")
    p_cmp.add_argument("--benchmark", required=True,
                       help="benchmark_rates CSV from a previous run")
    p_cmp.add_argument("--ads", required=True,
                       help="CSV with geo,road,outcome,ads_count,ads_vmt_miles")
    p_cmp.add_argument("--out", help="output directory")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    message = str(exc).replace('"', "'").replace("\n", " ")
    print(f'crashbench-error kind={kind} code={code} message="{message}"', file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", exc, 2)
    except (DataError, CrashBenchError) as exc:
        return _fail("data", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
