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
from .model import ConfigError, CrashBenchError, DataError
from .power import PowerQuery, mileage_for_power, monte_carlo_power, required_mileage
from .rates import safety_impact
from .report import TOOL_VERSION, parse_rate_table
from .roadclass import classify_road

ENV_PREFIX = "CRASHBENCH_"


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name)


def _effective(flag_value, env_name: str, convert):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"bad value for {ENV_PREFIX}{env_name}: {raw!r}") from None


def _load_config(args) -> pipeline.RunConfig:
    config_path = args.config if args.config is not None else _env("CONFIG")
    if not config_path:
        raise ConfigError("no run config given (use --config or CRASHBENCH_CONFIG)")
    return pipeline.load_run_config(
        config_path,
        out_dir=_effective(args.out, "OUT", str),
        workers=_effective(args.workers, "WORKERS", int),
        seed=_effective(args.seed, "SEED", int),
        threshold_m=_effective(args.threshold_m, "THRESHOLD_M", float),
        underreport=_effective(args.underreport, "UNDERREPORT", float),
        alpha=_effective(args.alpha, "ALPHA", float),
        power=_effective(args.power, "POWER", float),
    )


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
    config = _load_config(args)
    config = replace(config, params=replace(config.params, effects=()))
    pipeline.run(config)
    print(f"rate tables written -> {config.out_dir}")
    return 0


def cmd_power(args) -> int:
    effects = args.effect or [0.75]
    for effect in effects:
        query = PowerQuery(
            lambda_human=args.lambda_human,
            effect_ratio=effect,
            alpha=args.alpha if args.alpha is not None else 0.05,
            power=args.power if args.power is not None else 0.8,
        )
        result = required_mileage(query)
        target = mileage_for_power(query.lambda_human, effect, query.alpha, query.power)
        line = (
            f"effect={effect!r} required_miles={result.required_miles!r} "
            f"expected_ads_crashes={result.expected_ads_crashes!r} "
            f"target_power_miles={target!r}"
        )
        if args.validate:
            fraction = monte_carlo_power(
                query.lambda_human,
                effect,
                target,
                alpha=query.alpha,
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
    out_path = Path(args.out or ".") / "safety_impact.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(args.ads, newline="", encoding="utf-8") as fh:
        ads_rows = list(csv.DictReader(fh))
    if not ads_rows:
        raise DataError(f"{args.ads}: no ADS rows")
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
        for row in ads_rows:
            key = (row["geo"], row["road"], row["outcome"])
            cell = benchmark.get(key)
            if cell is None:
                raise DataError(f"no benchmark cell for {key}")
            ads_count = float(row["ads_count"])
            ads_vmt = float(row["ads_vmt_miles"])
            if ads_vmt <= 0:
                raise DataError(f"ADS VMT must be > 0 for {key}")
            ads_rate = ads_count / ads_vmt * 1e6
            impact = safety_impact(ads_rate, cell.rate_ipmm)
            low, high = cell.ci95
            writer.writerow(
                [
                    *key,
                    repr(ads_count),
                    repr(ads_vmt),
                    repr(ads_rate),
                    repr(cell.rate_ipmm),
                    repr(low),
                    repr(high),
                    repr(impact),
                ]
            )
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
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--workers", type=int,
                        help="validated (must be >= 1) but has no effect: runs are single-threaded")
    common.add_argument("--seed", type=int,
                        help="recorded in the report metadata; nothing in the run is random")
    common.add_argument("--threshold-m", dest="threshold_m", type=float,
                        help="freeway proximity threshold, meters")
    common.add_argument("--underreport", type=float,
                        help="non-fatal injury underreporting fraction")
    common.add_argument("--alpha", type=float, help="two-sided type-I level")
    common.add_argument("--power", type=float, help="target statistical power")

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
    except ValueError as exc:  # out-of-range parameter values
        return _fail("config", exc, 2)
    except (DataError, CrashBenchError) as exc:
        return _fail("data", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 3)


if __name__ == "__main__":
    sys.exit(main())
