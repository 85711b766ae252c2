"""Output checks against the generators' oracles.

Reads the emitted tables with the csv module only, so a defect in
crashbench's own parsing or arithmetic cannot hide itself.  Each check
returns a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import norm, poisson

from workloads import YEAR, Inputs

REL = 1e-9
POWER_SLACK = 0.06
TABLES = (
    f"benchmark_rates_{YEAR}.csv",
    f"crash_type_rates_{YEAR}.csv",
    f"crash_type_distribution_{YEAR}.csv",
    f"power_grid_{YEAR}.csv",
)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def severity_cells(out_dir: Path) -> dict[tuple[str, str, str], tuple[float, float]]:
    """(geo, road, outcome) -> (count, vmt_miles) from the severity table."""
    return {
        (r["geo"], r["road"], r["outcome"]): (float(r["count"]), float(r["vmt_miles"]))
        for r in _rows(out_dir / TABLES[0])
        if not r["crash_type"]
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def check_run(inputs: Inputs, out_dir: Path) -> list[str]:
    """The run's tables against the workload's oracle."""
    errors = []
    cells = severity_cells(out_dir)
    expected = inputs.expected
    report = json.loads((out_dir / f"report_{YEAR}.json").read_text(encoding="utf-8"))
    diagnostics = report["diagnostics"]

    for key, want in expected.get("severity", {}).items():
        got = cells.get(key, (None,))[0]
        if got is None or not _close(got, want):
            errors.append(f"severity {key}: {got} != {want}")
    if "rows_read" in expected:
        got = diagnostics["ingest"][0]["rows_read"]
        if got != expected["rows_read"]:
            errors.append(f"rows_read {got} != {expected['rows_read']}")

    for road, want in expected.get("police_by_road", {}).items():
        got = sum(c for (_, r, o), (c, _) in cells.items() if r == road and o == "PoliceReported")
        if not _close(got, want):
            errors.append(f"police-reported {road}: {got} != {want}")

    imputed = diagnostics["imputed_passenger_mass"]
    for area, tally in expected.get("area_passengers", {}).items():
        total = sum(cells[(area, road, "PoliceReported")][0] for road in ("Freeway", "SurfaceStreet"))
        known = total - imputed.get(area, 0.0)
        want_imputed = tally["unknown"] * tally["known"] / tally["known_total"]
        if not math.isclose(known, tally["known"], rel_tol=REL, abs_tol=1e-7):
            errors.append(f"{area}: known passenger vehicles {known} != {tally['known']}")
        if not math.isclose(imputed.get(area, 0.0), want_imputed, rel_tol=REL, abs_tol=1e-7):
            errors.append(f"{area}: imputed mass {imputed.get(area)} != {want_imputed}")
    return errors


def check_compare(inputs: Inputs, out_dir: Path, impact_csv: Path) -> list[str]:
    """Recompute each percent difference from the parsed benchmark cell."""
    errors = []
    cells = severity_cells(out_dir)
    rows = {(r["geo"], r["road"], r["outcome"]): r for r in _rows(impact_csv)}
    for ads in inputs.expected["ads"]:
        key = (ads["geo"], ads["road"], ads["outcome"])
        row = rows.get(key)
        if row is None:
            errors.append(f"compare: no row for {key}")
            continue
        count, vmt = cells[key]
        ads_rate = float(ads["ads_count"]) / float(ads["ads_vmt_miles"]) * 1e6
        want = (ads_rate / (count / vmt * 1e6) - 1.0) * 100.0
        if not _close(float(row["percent_difference"]), want):
            errors.append(f"compare {key}: {row['percent_difference']} != {want!r}")
    if len(rows) != len(inputs.expected["ads"]):
        errors.append(f"compare: {len(rows)} rows for {len(inputs.expected['ads'])} ADS rows")
    return errors


def check_power(mc_csv: Path, grid_rows: int, alpha: float, power: float, trials: int) -> list[str]:
    """Check the Monte Carlo rows against the exact Poisson rejection
    probability of the same two-sided test at the same mileage.

    The grid's target mileage must attain the target power to within
    POWER_SLACK under the exact law (the closed form rests on a normal
    approximation, which is a few points off at small expected counts),
    and each simulated fraction must lie within five standard errors of
    the exact probability."""
    rows = _rows(mc_csv)
    if len(rows) != grid_rows:
        return [f"monte carlo: {len(rows)} rows for {grid_rows} grid rows"]

    def column(name: str) -> np.ndarray:
        return np.array([float(r[name]) for r in rows])

    mu0 = column("lambda") * column("miles")
    z = norm.ppf(1.0 - alpha / 2.0)
    lo, hi = mu0 - z * np.sqrt(mu0), mu0 + z * np.sqrt(mu0)
    mu = column("effect_ratio") * mu0
    exact = poisson.cdf(np.ceil(lo) - 1, mu) + poisson.sf(np.floor(hi), mu)
    tolerance = 5.0 * np.sqrt(exact * (1.0 - exact) / trials) + 1e-3
    bad = (np.abs(column("fraction") - exact) > tolerance) | (exact < power - POWER_SLACK)
    return [
        f"monte carlo {rows[i]['geo']}/{rows[i]['effect_ratio']}: simulated "
        f"{rows[i]['fraction']}, exact {exact[i]}, target {power}"
        for i in np.flatnonzero(bad)
    ]


def grid_row_count(out_dir: Path) -> int:
    return len(_rows(out_dir / TABLES[3]))


def same_tables(a: Path, b: Path) -> list[str]:
    """The four CSV tables must be byte-identical."""
    return [
        f"{name} differs between traced and untraced runs"
        for name in TABLES
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
