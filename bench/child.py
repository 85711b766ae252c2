"""One measured crashbench run in a fresh process.

Usage: python3 bench/child.py JOB.json   (with the checkout's src on PYTHONPATH)

The job names the run config, output directories, ADS table and Monte
Carlo seed.  The process times its own set-up (importing crashbench,
loading the run config, resolving every mapping, building the segment
index, loading the share table and the geocoder cache), then one
``pipeline.run`` (traced: with a span around each call it makes into
another module), then the analyst's evaluation once:
``crashbench compare`` against the ADS table and a Monte Carlo power
check of every power-grid row.  Before, between and after these sections
it times the yardstick, a fixed piece of pure-Python work that runs no
crashbench code, and scales every time to the yardstick's speed (see
``YARDSTICK_S``).  Results go to the job's result file as JSON.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

MC_TRIALS = 1_000
# Seconds one yardstick pass takes on a machine running at the reference
# speed.  A shared host's speed drifts by tens of percent over minutes, and
# the yardstick slows down with it.  Every time a child reports is multiplied
# by YARDSTICK_S over the median of the child's own yardstick passes, so
# that it reads as seconds at the reference speed.
YARDSTICK_S = 0.1

_rng = random.Random(0)
_YARDSTICK_CSV = "\n".join(
    f"{i},MAIN ST,{_rng.uniform(29, 31)!r},{_rng.uniform(-98, -96)!r},{'KABCO'[i % 5]}"
    for i in range(8_000)
)


def _yardstick_work() -> None:
    """A fixed mix of the interpreter work crashbench does: CSV parsing,
    tuple building, dict tallies, float math and a sort."""
    records = [
        (int(row[0]), row[1].strip().upper(), float(row[2]), float(row[3]), row[4])
        for row in csv.reader(io.StringIO(_YARDSTICK_CSV))
    ]
    tally: dict = {}
    for _, name, lat, lon, severity in records:
        key = (name, severity, round(lat, 1))
        tally[key] = tally.get(key, 0.0) + math.hypot(lat - 30.0, lon + 97.0)
    records.sort(key=lambda r: (r[4], r[2]))
    squares: dict[int, int] = {}
    for i in range(320_000):
        squares[i % 1000] = squares.get(i % 1000, 0) + i * i


def yardstick_s() -> float:
    """Seconds one pass of the yardstick takes now."""
    start = time.perf_counter()
    _yardstick_work()
    return time.perf_counter() - start


class Tracer:
    """In-memory spans (name, start, end, parent index) plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def set_up(config):
    """The fixed cost before the first crash row is read."""
    from crashbench import pipeline
    from crashbench.ingest import FileCachedGeocoder, load_share_table
    from crashbench.roadclass import FreewaySegmentIndex, load_alias_table, load_segments_geojson

    base = config.config_path.parent
    for source in config.sources:
        pipeline.resolve_mapping(source.mapping, base)
        if source.vmt_table is not None:
            pipeline.resolve_mapping(source.vmt_mapping or source.mapping, base)
        if source.vmt_sidecar_mapping:
            pipeline.resolve_mapping(source.vmt_sidecar_mapping, base)
    aliases = load_alias_table(config.aliases_path) if config.aliases_path else None
    FreewaySegmentIndex(load_segments_geojson(config.segments_path), aliases=aliases)
    load_share_table(config.shares_path)
    if config.geocoder_cache is not None:
        FileCachedGeocoder(config.geocoder_cache)


# The names ``pipeline.run`` looks up in ``crashbench.pipeline`` when it
# calls into another module, each with the span that times it.
PIPELINE_SPANS = {
    "resolve_mapping": "mapping.load",
    "load_crash_table": "ingest.crash_table",
    "geocode_missing": "ingest.geocode",
    "load_vmt_table": "ingest.vmt",
    "load_share_table": "ingest.vmt",
    "load_segments_geojson": "roadclass.index",
    "load_alias_table": "roadclass.index",
    "FreewaySegmentIndex": "roadclass.index",
    "build_benchmark": "pipeline.build_benchmark",
}


def _spanned(tr: Tracer, name: str, fn, calls: list):
    """``fn`` with a span around each call; appends (args, result) to calls."""

    def wrapper(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    return wrapper


def _span_cost_s() -> float:
    """Seconds one traced call of a function that does nothing costs."""
    wrapped = _spanned(Tracer(), "noop", lambda: None, [])
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(2_000):
            wrapped()
        batches.append((time.perf_counter() - start) / 2_000)
    return statistics.median(batches)


def traced_run(config, tr: Tracer) -> None:
    """The real ``pipeline.run``, with a span around each call it makes
    into another module, followed by probe spans that repeat single
    layers on the same data."""
    from unittest import mock

    from crashbench import pipeline, report as report_mod

    calls = {name: [] for name in (*PIPELINE_SPANS, "emit_report")}
    with contextlib.ExitStack() as patches:
        for attr, span_name in PIPELINE_SPANS.items():
            wrapped = _spanned(tr, span_name, getattr(pipeline, attr), calls[attr])
            patches.enter_context(mock.patch.object(pipeline, attr, wrapped))
        wrapped = _spanned(tr, "report.emit", report_mod.emit_report, calls["emit_report"])
        patches.enter_context(mock.patch.object(report_mod, "emit_report", wrapped))
        with tr.span("run"):
            benchmark = pipeline.run(config)
    traced_calls = len(tr.spans) - 1
    tr.count("trace.overhead_s", traced_calls * _span_cost_s())

    ingest = benchmark.diagnostics["ingest"]
    tr.count("ingest.rows_read", sum(sum(r["rows_read"].values()) for r in ingest))
    tr.count("ingest.rows_skipped", sum(r["rows_skipped"] for r in ingest))
    tr.count("ingest.geocode_resolved", benchmark.diagnostics["geocoding"]["resolved"])
    tr.count("ingest.geocode_unresolved", benchmark.diagnostics["geocoding"]["unresolved"])
    ((args, tables),) = calls["build_benchmark"]
    records, index = args[0], args[1]
    tr.count("pipeline.cells", len(tables.cells))
    tr.count("pipeline.typed_cells", len(tables.typed_cells))
    tr.count("pipeline.strata", len(tables.distributions))
    ((_, paths),) = calls["emit_report"]
    tr.count("report.bytes", sum(path.stat().st_size for path in paths.values()))
    with tr.span("probe"):
        _probe_layers(config, records, index, tables, tr)


def _probe_layers(config, records, index, tables, tr: Tracer) -> None:
    """Repeat layers that run inside ``build_benchmark`` (classification,
    cohort selection, taxonomy, power grid) and inside ``emit_report``
    (intervals), each in its own span, so their cost can be read
    separately."""
    from crashbench.cohort import filter_in_transport_passenger, known_class_histogram
    from crashbench.power import PowerQuery, mileage_for_power, required_mileage
    from crashbench.rates import poisson_ci
    from crashbench.roadclass import classify_road
    from crashbench.taxonomy import classify_crash_type, classify_outcome

    p = config.params
    in_year = [r for r in records if r.year == config.year]
    with tr.span("roadclass.classify"):
        classes = [
            classify_road(r, index, threshold_m=p.threshold_m, any_route=p.any_route)
            for r in in_year
        ]
    tr.count("roadclass.records", len(in_year))
    for cls in classes:
        tr.count(f"roadclass.{cls.provenance.value}", 1)

    area_of = [
        next((a for a in config.areas if a.contains(r.state, r.county)), None) for r in in_year
    ]
    by_area: dict[str, list] = {}
    for record, area in zip(in_year, area_of):
        if area is not None:
            by_area.setdefault(area.name, []).append(record)
    with tr.span("cohort.select"):
        selections = filter_in_transport_passenger(in_year)
        for recs in by_area.values():
            known_class_histogram(recs)

    units_typed = 0
    with tr.span("taxonomy.classify"):
        for record, area, cls, selection in zip(in_year, area_of, classes, selections):
            if area is None:
                continue
            classify_outcome(record)
            for unit in selection.passenger_units + selection.unknown_units:
                classify_crash_type(record, unit.unit_id, cls.road_class, gate_order=p.type_gate_order)
                units_typed += 1
    tr.count("taxonomy.units_typed", units_typed)

    with tr.span("rates.ci"):
        for cell in tables.cells + tables.typed_cells:
            poisson_ci(cell.count, cell.vmt_miles, level=0.95)
    with tr.span("power.grid"):
        for cell in tables.cells:
            if cell.count <= 0:
                continue
            lam = cell.count / cell.vmt_miles
            for effect in p.effects:
                required_mileage(PowerQuery(lam, effect, p.alpha, p.power))
                mileage_for_power(lam, effect, p.alpha, p.power)


def evaluate(config, job: dict, tr: Tracer | None) -> int:
    """Compare an ADS table with the emitted benchmark, then check every
    power-grid row's target mileage by Monte Carlo.  Returns the number
    of Monte Carlo rows."""
    from crashbench import cli
    from crashbench.power import monte_carlo_power
    from crashbench.report import parse_rate_table

    span = tr.span if tr is not None else lambda name: contextlib.nullcontext()
    year = config.year
    rates = config.out_dir / f"benchmark_rates_{year}.csv"
    with span("cli.compare"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["compare", "--benchmark", str(rates), "--ads", job["ads"],
                         "--out", job["eval_out"]])
    if code != 0:
        raise SystemExit(f"compare exited {code}")
    out = []
    with span("power.mc"):
        cells = {
            (c.geo.name, c.road.value, c.outcome.value): c
            for c in parse_rate_table(rates)
            if c.crash_type is None
        }
        with open(config.out_dir / f"power_grid_{year}.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                cell = cells[(row["geo"], row["road"], row["outcome"])]
                lam = cell.count / cell.vmt_miles
                effect = float(row["effect_ratio"])
                miles = float(row["target_power_miles"])
                fraction = monte_carlo_power(
                    lam, effect, miles, alpha=config.params.alpha, trials=MC_TRIALS,
                    seed=job["seed"],
                )
                out.append([row["geo"], effect, repr(lam), repr(miles), repr(fraction)])
    with open(Path(job["eval_out"]) / "monte_carlo.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["geo", "effect_ratio", "lambda", "miles", "fraction"])
        writer.writerows(out)
    return len(out)


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    _yardstick_work()  # warm-up, untimed
    marks = [yardstick_s()]
    start = time.perf_counter()
    import crashbench
    from crashbench import pipeline

    source = Path(crashbench.__file__).resolve()
    if Path(job["src"]).resolve() not in source.parents:
        raise SystemExit(f"crashbench imported from {source}, not from {job['src']}")
    config = pipeline.load_run_config(job["run_config"], out_dir=job["out"])
    set_up(config)
    setup_s = time.perf_counter() - start
    marks.append(yardstick_s())

    tr = Tracer() if job["traced"] else None
    start = time.perf_counter()
    if job["traced"]:
        traced_run(config, tr)
    else:
        pipeline.run(config)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    marks.append(yardstick_s())

    Path(job["eval_out"]).mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    mc_rows = evaluate(config, job, tr)
    evaluate_s = time.perf_counter() - start
    marks.append(yardstick_s())
    scale = YARDSTICK_S / statistics.median(marks)

    result = {
        "setup_s": setup_s * scale,
        "run_s": run_s * scale,
        "peak_rss_mb": peak_rss_mb,
        "evaluate_s": evaluate_s * scale,
        "wall": {"setup_s": setup_s, "run_s": run_s, "evaluate_s": evaluate_s},
        "yardstick_s": marks,
        "scale": scale,
        "alpha": config.params.alpha,
        "power": config.params.power,
        "mc_rows": mc_rows,
        "mc_trials": MC_TRIALS,
        "spans": tr.spans if tr else [],
        "counts": tr.counts if tr else {},
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
