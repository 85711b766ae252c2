"""Deterministic benchmark report emission.

Four delimited tables (severity rates, crash-type rates, crash-type
distributions, required-mileage grid) plus a JSON report carrying
metadata, diagnostics, and methodology notes.  Regenerating from
identical inputs yields byte-identical files: fixed column order, fixed
sort order, repr-based float formatting (which also makes the rate
tables parse back into the exact cells), LF line endings, and no
timestamps.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .model import CrashBenchError, DataError, GeoArea, RoadClass
from .rates import RateCell, format_rate, poisson_intervals
from .taxonomy import LABEL, OUTCOME_RANK, CrashType, OutcomeLevel

TOOL_VERSION = "0.1.0"

# Methodology notes shipped with every report.  Kept as stable constants
# so downstream documentation checks can assert their presence.
NOTE_MILEAGE_SCALE = (
    "Required-mileage scale: required_miles evaluates the source methodology's "
    "displayed formula verbatim, where the lower-tail standard-normal quantile "
    "enters with its negative sign and partially cancels the power term. At "
    "alpha=0.05 and power=0.8 the results are about 4.77x smaller than the "
    "conventional sample-size form. The source's reported mileage ranges for a "
    "25% rate reduction (21-75 million VMT police-reported, 8.4-21.4 billion "
    "VMT fatal) match the conventional form, which this report emits alongside "
    "as target_power_miles; a Monte Carlo check of the two-sided test confirms "
    "the target rejection fraction is attained at target_power_miles, not at "
    "required_miles. Geographic ratios are identical under either form."
)
NOTE_PHOENIX_FATAL = (
    "Phoenix freeway fatal rate: the source narrative quotes 4 incidents per "
    "billion miles, but its tabulated counts give 169 fatal crashed vehicles "
    "over 31,285 million miles, i.e. 5.4 per billion (0.005 per million). The "
    "tabulated counts are treated as normative throughout this artifact."
)
METHODOLOGY_NOTES = (NOTE_MILEAGE_SCALE, NOTE_PHOENIX_FATAL)

RATE_COLUMNS = (
    "geo",
    "state",
    "counties",
    "road",
    "outcome",
    "crash_type",
    "count",
    "vmt_miles",
    "rate_ipmm",
    "ci_low_ipmm",
    "ci_high_ipmm",
    "display",
)


@dataclass
class BenchmarkReport:
    metadata: dict
    cells: list[RateCell]
    distributions: list[tuple[GeoArea, RoadClass, OutcomeLevel, dict]] = field(
        default_factory=list
    )
    power_grid: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    methodology_notes: tuple[str, ...] = METHODOLOGY_NOTES


def _cell_sort_key(cell: RateCell):
    return (
        cell.geo.name,
        LABEL[cell.road],
        OUTCOME_RANK[cell.outcome],
        LABEL[cell.crash_type] if cell.crash_type else "",
    )


def _fmt_count(count: float) -> str:
    return str(int(count)) if float(count).is_integer() else f"{count:.3f}"


def _rate_rows(cells: list[RateCell]) -> list[list[str]]:
    """One rate-table row per cell; the intervals of all cells come from
    one ``poisson_intervals`` call."""
    lows, highs = poisson_intervals(
        [c.count for c in cells], [c.vmt_miles for c in cells], level=0.95
    )
    rows = []
    geo = None
    for cell, low, high in zip(cells, lows.tolist(), highs.tolist()):
        if cell.geo is not geo:  # cells come sorted, so grouped by area
            geo = cell.geo
            geo_columns = (geo.name, geo.state, ";".join(sorted(geo.counties)))
        rate = cell.rate_ipmm
        rows.append(
            [
                *geo_columns,
                LABEL[cell.road],
                LABEL[cell.outcome],
                LABEL[cell.crash_type] if cell.crash_type else "",
                repr(cell.count),
                repr(cell.vmt_miles),
                repr(rate),
                repr(low),
                repr(high),
                f"{_fmt_count(cell.count)} ({format_rate(rate)})",
            ]
        )
    return rows


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_report(
    report: BenchmarkReport, sink: str | Path, tag: Optional[str] = None
) -> dict[str, Path]:
    """Write all report files into the sink directory.

    Returns the written paths keyed by table name.  File names carry the
    tag (typically the data year).
    """
    sink = Path(sink)
    sink.mkdir(parents=True, exist_ok=True)
    suffix = f"_{tag}" if tag else ""
    paths = {
        "rates": sink / f"benchmark_rates{suffix}.csv",
        "typed_rates": sink / f"crash_type_rates{suffix}.csv",
        "distribution": sink / f"crash_type_distribution{suffix}.csv",
        "power_grid": sink / f"power_grid{suffix}.csv",
        "report": sink / f"report{suffix}.json",
    }

    severity_cells = sorted(
        (c for c in report.cells if c.crash_type is None), key=_cell_sort_key
    )
    typed_cells = sorted(
        (c for c in report.cells if c.crash_type is not None), key=_cell_sort_key
    )
    _write_csv(paths["rates"], RATE_COLUMNS, _rate_rows(severity_cells))
    _write_csv(paths["typed_rates"], RATE_COLUMNS, _rate_rows(typed_cells))

    dist_rows = []
    for geo, road, outcome, fractions in sorted(
        report.distributions,
        key=lambda d: (d[0].name, LABEL[d[1]], OUTCOME_RANK[d[2]]),
    ):
        for crash_type in sorted(fractions, key=LABEL.__getitem__):
            dist_rows.append(
                [geo.name, LABEL[road], LABEL[outcome], LABEL[crash_type],
                 repr(fractions[crash_type])]
            )
    _write_csv(
        paths["distribution"],
        ("geo", "road", "outcome", "crash_type", "fraction"),
        dist_rows,
    )

    grid_rows = [
        [
            row["geo"],
            row["road"],
            row["outcome"],
            repr(row["effect_ratio"]),
            repr(row["required_miles"]),
            repr(row["expected_ads_crashes"]),
            repr(row["target_power_miles"]),
        ]
        for row in sorted(
            report.power_grid,
            key=lambda r: (r["geo"], r["road"], r["outcome"], r["effect_ratio"]),
        )
    ]
    _write_csv(
        paths["power_grid"],
        (
            "geo",
            "road",
            "outcome",
            "effect_ratio",
            "required_miles",
            "expected_ads_crashes",
            "target_power_miles",
        ),
        grid_rows,
    )

    doc = {
        "metadata": report.metadata,
        "diagnostics": report.diagnostics,
        "methodology_notes": list(report.methodology_notes),
        "files": {key: paths[key].name for key in sorted(paths)},
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _parse_cell(row: dict) -> RateCell:
    return RateCell(
        geo=GeoArea(
            name=row["geo"],
            state=row["state"],
            counties=frozenset(row["counties"].split(";")),
        ),
        road=RoadClass(row["road"]),
        outcome=OutcomeLevel(row["outcome"]),
        crash_type=CrashType(row["crash_type"]) if row["crash_type"] else None,
        count=float(row["count"]),
        vmt_miles=float(row["vmt_miles"]),
    )


def parse_rate_table(path: str | Path) -> list[RateCell]:
    """Read a rate table back into cells.

    Exact recovery: counts, VMT, and therefore rates and intervals
    round-trip bit-for-bit (floats are emitted with repr).  A file that
    is not UTF-8 text or lacks a column, and a row that does not read
    back into a cell, is a DataError naming the file (and the row).
    """
    cells = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in RATE_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}: rate table lacks column(s) {', '.join(missing)}")
            for number, row in enumerate(reader, start=1):
                if None in row.values():
                    raise DataError(f"{path}: row {number}: fewer fields than the header")
                try:
                    cells.append(_parse_cell(row))
                except (ValueError, CrashBenchError) as exc:
                    raise DataError(f"{path}: row {number}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    return cells
