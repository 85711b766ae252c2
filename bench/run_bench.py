"""crashbench benchmark: one workload, measured end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload tiled-fixture --seed 1 --seconds 30 --trace 0

The harness generates the workload's inputs from the seed, then runs
fresh child processes (bench/child.py, with the checkout's src on the
path) one at a time until the time is up.  Each child times set-up, one
``pipeline.run`` and the analyst's evaluation; the harness checks every
child's outputs against the generator's oracle.  Times are scaled to
the speed of a fixed yardstick timed around them (bench/child.py); the
unscaled medians are printed before the result.  With ``--trace 1`` it
alternates untraced and traced children and reports per-layer times
from the traced ones instead.  Workload names and metrics are listed in
BENCHMARK.json; bench/README.md says what each metric should move.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without a crashbench source
tree in the working directory the harness exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import child  # noqa: E402
from workloads import GENERATORS, Inputs  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
# Every child must end by this many seconds after the harness started, so
# that the whole run ends within three minutes.
DEADLINE_S = 165.0

# Workload sizes at --scale 1; smaller scales shrink every count.
SIZES = {
    "tiled-fixture": {"tiles": 600},
    "dense-network": {"routes": 250, "crashes": 6000},
    "many-strata": {"areas": 250},
}
MINIMUM = {"tiles": 2, "routes": 8, "crashes": 60, "areas": 3}


def _child(inputs: Inputs, work: Path, name: str, seed: int, traced: bool, src: Path,
           deadline: float):
    """Run one child; return (result, out_dir, errors)."""
    out, eval_out = work / name / "out", work / name / "eval"
    job = {
        "src": str(src),
        "run_config": str(inputs.run_config),
        "out": str(out),
        "eval_out": str(eval_out),
        "ads": str(inputs.ads_table),
        "seed": seed,
        "traced": traced,
        "result": str(work / name / "result.json"),
    }
    job_path = work / name / "job.json"
    job_path.parent.mkdir(parents=True)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_path)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, out, [f"{name}: killed after {timeout:.0f} s"]
    if proc.returncode != 0:
        return None, out, [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    try:
        errors = check.check_run(inputs, out)
        errors += check.check_compare(inputs, out, eval_out / "safety_impact.csv")
        errors += check.check_power(
            eval_out / "monte_carlo.csv", check.grid_row_count(out), result["alpha"],
            result["power"], result["mc_trials"],
        )
    except (KeyError, ValueError, OSError) as exc:
        errors = [f"outputs unreadable: {exc!r}"]
    return result, out, [f"{name}: {e}" for e in errors]


def _self_times(spans: list) -> dict[str, float]:
    """Per span name, total duration minus the time its direct children cover."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    for _, start, end, parent in spans:
        if parent is not None:
            parent_name = spans[parent][0]
            totals[parent_name] -= end - start
    return totals


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    scale = result["scale"]
    self_s = {name: t * scale for name, t in _self_times(result["spans"]).items()}
    counts = result["counts"]
    metrics = {
        "mapping.load_s": self_s["mapping.load"],
        "ingest.crash_table_s": self_s["ingest.crash_table"],
        "ingest.rows_per_s": counts["ingest.rows_read"] / self_s["ingest.crash_table"],
        "ingest.rows_read": counts["ingest.rows_read"],
        "ingest.rows_skipped": counts["ingest.rows_skipped"],
        "ingest.geocode_s": self_s["ingest.geocode"],
        "ingest.geocode_resolved": counts["ingest.geocode_resolved"],
        "ingest.geocode_unresolved": counts["ingest.geocode_unresolved"],
        "ingest.vmt_s": self_s["ingest.vmt"],
        "roadclass.index_s": self_s["roadclass.index"],
        "roadclass.classify_s": self_s["roadclass.classify"],
        "roadclass.crashes_per_s": counts["roadclass.records"] / self_s["roadclass.classify"],
        "roadclass.by_name_always": counts.get("roadclass.ByNameAlways", 0),
        "roadclass.by_name_non_freeway": counts.get("roadclass.ByNameNonFreeway", 0),
        "roadclass.by_proximity": counts.get("roadclass.ByProximity", 0),
        "roadclass.unresolvable": counts.get("roadclass.Unresolvable", 0),
        "cohort.select_s": self_s["cohort.select"],
        "taxonomy.classify_s": self_s["taxonomy.classify"],
        "taxonomy.units_typed": counts["taxonomy.units_typed"],
        "pipeline.build_benchmark_s": self_s["pipeline.build_benchmark"],
        "pipeline.aggregate_self_s": self_s["pipeline.build_benchmark"] - self_s["roadclass.classify"],
        "pipeline.cells": counts["pipeline.cells"],
        "pipeline.typed_cells": counts["pipeline.typed_cells"],
        "pipeline.strata": counts["pipeline.strata"],
        "rates.ci_s": self_s["rates.ci"],
        "power.grid_s": self_s["power.grid"],
        "power.mc_s": self_s["power.mc"],
        "power.mc_trials_per_s": result["mc_rows"] * result["mc_trials"] / self_s["power.mc"],
        "report.emit_s": self_s["report.emit"],
        "report.bytes": counts["report.bytes"],
        "cli.compare_s": self_s["cli.compare"],
        "trace.overhead_s": counts["trace.overhead_s"] * scale,
    }
    return metrics


def measure(inputs: Inputs, work: Path, seed: int, seconds: float, traced: bool, src: Path,
            deadline: float):
    """Run children until ``seconds`` have passed; return samples and failures."""
    plain, traced_samples, errors = [], [], []
    reference = None
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds or (traced and not traced_samples):
        want_traced = traced and attempted % 2 == 1
        name = f"child{attempted:03d}"
        attempted += 1
        result, out, child_errors = _child(inputs, work, name, seed, want_traced, src, deadline)
        if not child_errors and want_traced:
            child_errors = [f"{name}: {e}" for e in check.same_tables(out, reference)]
        if child_errors:
            failed += 1
            errors.extend(child_errors)
            if want_traced or reference is None and traced:
                break  # traced numbers without an untraced reference mean nothing
            continue
        if want_traced:
            traced_samples.append(layer_metrics(result))
        else:
            plain.append(result)
            if traced and reference is None:
                reference = out
        if out != reference:
            shutil.rmtree(out.parent)
    return plain, traced_samples, attempted, failed, errors


def summarize(plain: list[dict], traced_samples: list[dict], traced: bool) -> dict[str, tuple[float, str]]:
    median = statistics.median
    if not traced:
        return {
            "run_s": (median(r["run_s"] for r in plain), "s"),
            "setup_s": (median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in plain), "MB"),
            "evaluate_s": (median(r["evaluate_s"] for r in plain), "s"),
        }
    metrics = {}
    for name in traced_samples[0]:
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "count"
        unit = "B" if name == "report.bytes" else unit
        # Counts repeat exactly; median_low keeps them whole numbers.
        middle = median if unit in ("s", "1/s") else statistics.median_low
        metrics[name] = (middle(s[name] for s in traced_samples), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (the smoke test uses a small scale)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "crashbench" / "__init__.py").is_file():
        print(f"no crashbench source tree under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir(parents=True)
        sizes = {
            k: max(MINIMUM[k], round(v * args.scale)) for k, v in SIZES[args.workload].items()
        }
        inputs = GENERATORS[args.workload](inputs_dir, args.seed, **sizes)
        plain, traced_samples, attempted, failed, errors = measure(
            inputs, work, args.seed, args.seconds, bool(args.trace), src, deadline
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for error in errors:
        print(error, file=sys.stderr)
    if not plain or (args.trace and not traced_samples):
        print("no run passed its output check; no metrics to report", file=sys.stderr)
        return 1
    metrics = summarize(plain, traced_samples, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for name in plain[0]["wall"]:
        wall = statistics.median(r["wall"][name] for r in plain)
        print(f"{args.workload} unscaled {name} = {wall!r} s")
    yardstick = statistics.median(t for r in plain for t in r["yardstick_s"])
    print(f"{args.workload} yardstick = {yardstick!r} s (scaled times assume {child.YARDSTICK_S} s)")
    print(f"{args.workload} failed_share = {failed / attempted!r} ({failed} of {attempted} runs)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
