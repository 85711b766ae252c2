"""Deterministic benchmark report emission.

Four delimited tables (severity rates, crash-type rates, crash-type
distributions, required-mileage grid) plus a JSON report carrying
metadata, diagnostics, and methodology notes.  Regenerating from
identical inputs yields byte-identical files: fixed column order, fixed
sort order, repr-based float formatting (which also makes the rate
tables parse back into the exact cells), LF line endings, and no
timestamps.

The tables are the csv module's dialect with ``lineterminator="\n"``,
written line by line without ``csv.writer``'s scan of every field.
Only the free-text columns (area name, state, counties) can need
quoting; ``csv.writer`` formats each distinct value of them once.  Every
other field is a ``LABEL`` value, the ``repr`` of a float or the
``count (rate)`` display, none of which needs quoting, and is written
as it is.

Figures that repeat are formatted once per table, through
``_formatted``: the rest of a rate line after its labels (count, VMT,
rate, interval and display) once per (count, VMT) pair, its interval
included, and the grid's effect ratio and expected ADS crashes once per
distinct pair of them.  Keys merge only when every part is a non-zero
float of exactly type ``float``: ``0.0`` and ``-0.0``, or ``2`` and
``2.0``, are equal keys with different ``repr``s, so any other key is
formatted as its own.  Type fractions are not merged: the ones that
repeat (1.0, 0.5) are the cheapest to format, so the lookup cost more
than it saved.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .ingest import _columns, _open_table
from .model import CrashBenchError, DataError, GeoArea, Memo, RoadClass
from .rates import (
    MILLION,
    InvalidExposureError,
    RateCell,
    format_rate,
    poisson_intervals,
    refuse_unbounded_interval,
)
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
DISTRIBUTION_COLUMNS = ("geo", "road", "outcome", "crash_type", "fraction")
POWER_GRID_COLUMNS = (
    "geo",
    "road",
    "outcome",
    "effect_ratio",
    "required_miles",
    "expected_ads_crashes",
    "target_power_miles",
)
# One required-mileage grid row, in POWER_GRID_COLUMNS order: a severity
# stratum (area name, road and outcome labels), an effect ratio and its
# three figures.  Rows sort in emit order as plain tuples.
PowerRow = tuple[str, str, str, float, float, float, float]


@dataclass
class BenchmarkReport:
    metadata: dict
    cells: list[RateCell]
    distributions: list[tuple[GeoArea, RoadClass, OutcomeLevel, dict]] = field(
        default_factory=list
    )
    power_grid: list[PowerRow] = field(default_factory=list)
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


def _quoted(value: str) -> str:
    """The text ``csv.writer`` writes for a free-text value inside a
    row, field separator included.  The trailing empty field keeps a
    lone empty value from being written as ``""``, which the writer does
    only for a row of one empty field."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((value, ""))
    return buffer.getvalue()[:-1]  # drop the line end


def _formatted(format: Callable[[list[tuple]], list], keys: Iterable[tuple]) -> list:
    """The text of each key, in order, where ``format`` makes the texts
    of a list of distinct keys in one call.  Two keys are one only when
    every part of them is a non-zero float of exactly type ``float``,
    since equal floats of that kind have one ``repr``; ``0.0`` and
    ``-0.0``, or ``2`` and ``2.0``, are equal with different ``repr``s,
    so any other key is formatted as its own."""
    first: dict[tuple, int] = {}
    distinct: list[tuple] = []
    positions: list[int] = []
    for key in keys:
        for part in key:
            if type(part) is not float or not part:
                position = len(distinct)
                distinct.append(key)
                break
        else:
            position = first.get(key)
            if position is None:
                position = first[key] = len(distinct)
                distinct.append(key)
        positions.append(position)
    texts = format(distinct)
    return [texts[position] for position in positions]


def _rate_tails(pairs: list[tuple]) -> list[str]:
    """The count, VMT, rate, interval and display fields of each (count,
    VMT) pair, line end included.  The intervals of all pairs come from
    one ``poisson_intervals`` call and the rates from one array
    expression, bit for bit ``compute_rate``'s.  Pairs of one VMT object
    come together, so its ``repr`` is made once per run of them."""
    counts = np.array([count for count, _ in pairs], dtype=float)
    vmts = np.array([vmt for _, vmt in pairs], dtype=float)
    lows, highs = poisson_intervals(counts, vmts, level=0.95)
    rates = counts / vmts * MILLION
    tails = []
    last = None
    for (count, vmt), rate, low, high in zip(pairs, rates.tolist(), lows.tolist(), highs.tolist()):
        if vmt is not last:
            last = vmt
            vmt_text = repr(vmt)
        tails.append(
            f"{count!r},{vmt_text},{rate!r},{low!r},{high!r},"
            f"{_fmt_count(count)} ({format_rate(rate)})\n"
        )
    return tails


def _rate_lines(cells: list[RateCell], quoted: Memo) -> list[str]:
    """One rate-table line per cell.  Cells come sorted, so grouped by
    area and road: each group's leading columns are formatted once.
    The rest of a line depends on the cell's count and VMT alone, so it
    is made once per (count, VMT) pair (``_rate_tails``).  A cell whose
    interval is not finite is a DataError naming its stratum."""
    try:
        tails = _formatted(_rate_tails, [(cell.count, cell.vmt_miles) for cell in cells])
    except InvalidExposureError:
        refuse_unbounded_interval(cells)
        raise
    lines = []
    geo = road = None
    for cell, tail in zip(cells, tails):
        if cell.geo is not geo or cell.road is not road:
            geo, road = cell.geo, cell.road
            head = (
                quoted[geo.name]
                + quoted[geo.state]
                + quoted[";".join(sorted(geo.counties))]
                + LABEL[road]
            )
        crash_type = LABEL[cell.crash_type] if cell.crash_type else ""
        lines.append(f"{head},{LABEL[cell.outcome]},{crash_type},{tail}")
    return lines


def _distribution_lines(distributions, quoted: Memo) -> Iterator[str]:
    for geo, road, outcome, fractions in sorted(
        distributions, key=lambda d: (d[0].name, LABEL[d[1]], OUTCOME_RANK[d[2]])
    ):
        head = f"{quoted[geo.name]}{LABEL[road]},{LABEL[outcome]},"
        for crash_type in sorted(fractions, key=LABEL.__getitem__):
            yield f"{head}{LABEL[crash_type]},{fractions[crash_type]!r}\n"


def _power_grid_lines(rows: list[PowerRow], quoted: Memo) -> Iterator[str]:
    """One line per grid row, in tuple order (linear on rows that come
    sorted).  Each stratum's leading columns are formatted once, and so
    is each distinct (effect ratio, expected ADS crashes) pair: the
    expected count is effect × rate × required miles, where the rate
    cancels up to rounding, so the pairs repeat across strata."""
    rows = sorted(rows)
    figures = _formatted(
        lambda pairs: [(repr(effect), repr(expected)) for effect, expected in pairs],
        [(row[3], row[5]) for row in rows],
    )
    last = (None, None, None)
    for (geo, road, outcome, _, required, _, target), (effect, expected) in zip(rows, figures):
        if geo is not last[0] or road is not last[1] or outcome is not last[2]:
            last = (geo, road, outcome)
            head = quoted[geo] + quoted[road] + quoted[outcome]
        yield f"{head}{effect},{required!r},{expected},{target!r}\n"


def _write_csv(path: Path, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """The header, then each line as it is built.  No column name needs
    quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def report_paths(sink: str | Path, tag: Optional[str] = None) -> dict[str, Path]:
    """The report files ``emit_report`` writes into ``sink``, keyed by
    table name.  File names carry the tag (typically the data year)."""
    sink = Path(sink)
    suffix = f"_{tag}" if tag else ""
    return {
        "rates": sink / f"benchmark_rates{suffix}.csv",
        "typed_rates": sink / f"crash_type_rates{suffix}.csv",
        "distribution": sink / f"crash_type_distribution{suffix}.csv",
        "power_grid": sink / f"power_grid{suffix}.csv",
        "report": sink / f"report{suffix}.json",
    }


def emit_report(
    report: BenchmarkReport, sink: str | Path, tag: Optional[str] = None
) -> dict[str, Path]:
    """Write all report files into the sink directory and return their
    ``report_paths``.  Both rate tables are made before the directory is
    made or any file opened, so a cell they refuse (``_rate_lines``)
    leaves no file behind.
    """
    paths = report_paths(sink, tag)
    severity_cells = sorted(
        (c for c in report.cells if c.crash_type is None), key=_cell_sort_key
    )
    typed_cells = sorted(
        (c for c in report.cells if c.crash_type is not None), key=_cell_sort_key
    )
    quoted = Memo(_quoted)
    rate_lines = _rate_lines(severity_cells, quoted)
    typed_rate_lines = _rate_lines(typed_cells, quoted)

    Path(sink).mkdir(parents=True, exist_ok=True)
    _write_csv(paths["rates"], RATE_COLUMNS, rate_lines)
    _write_csv(paths["typed_rates"], RATE_COLUMNS, typed_rate_lines)
    _write_csv(
        paths["distribution"],
        DISTRIBUTION_COLUMNS,
        _distribution_lines(report.distributions, quoted),
    )
    _write_csv(
        paths["power_grid"], POWER_GRID_COLUMNS, _power_grid_lines(report.power_grid, quoted)
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


def _area(text: tuple[str, str, str]) -> GeoArea:
    name, state, counties = text
    return GeoArea(name=name, state=state, counties=frozenset(counties.split(";")))


def parse_rate_table(path: str | Path) -> list[RateCell]:
    """Read a rate table back into cells.

    Exact recovery: counts, VMT, and therefore rates and intervals
    round-trip bit-for-bit (floats are emitted with repr).  The file is
    read by ingest's ``_open_table``, so by its rules: ``utf-8-sig``
    text, blank lines skipped, and a file that is not UTF-8 text or a
    row that the csv module cannot parse is a DataError naming the file
    (and the row).  A missing column is a DataError naming the file
    (``_columns``).  A row with more or fewer fields than the header, or
    that does not read back into a cell, is a DataError naming the file
    and row: a rate row's every field was written, so a short one is
    truncated, not absent.  A row that repeats an earlier row's (geo,
    road, outcome, crash type) is a DataError naming the file and both
    rows, since either count could be the one meant.

    Areas and labels repeat over many rows, so each distinct area text
    (geo, state and counties as written) is read into one ``GeoArea``,
    which the cells of all its rows share, and each road, outcome and
    crash-type label into its member once.  A text that does not read
    is refused on the row where it first appears.
    """

    def refuse_wide(number: int, reason: str, row: list[str]) -> None:
        raise DataError(f"{path}: row {number}: more fields than the header")

    areas = Memo(_area)
    roads, outcomes = Memo(RoadClass), Memo(OutcomeLevel)
    crash_types = Memo(lambda label: CrashType(label) if label else None)
    cells = []
    row_of: dict[tuple, int] = {}  # each cell's (geo, road, outcome, crash type) -> row
    with _open_table(path, ",", refuse_wide) as (header, rows):
        columns = _columns(path, header, RATE_COLUMNS, "rate table")
        for number, row in rows:
            if len(row) < len(header):
                raise DataError(f"{path}: row {number}: fewer fields than the header")
            geo, state, counties, road, outcome, crash_type, count, vmt_miles, *_ = columns(row)
            try:
                cell = RateCell(
                    geo=areas[geo, state, counties],
                    road=roads[road],
                    outcome=outcomes[outcome],
                    crash_type=crash_types[crash_type],
                    count=float(count),
                    vmt_miles=float(vmt_miles),
                )
            except (ValueError, CrashBenchError) as exc:
                raise DataError(f"{path}: row {number}: {exc}") from None
            key = (cell.geo.name, cell.road, cell.outcome, cell.crash_type)
            if key in row_of:
                raise DataError(
                    f"{path}: rows {row_of[key]} and {number} are the same cell: geo {key[0]!r}, "
                    f"road {cell.road.value}, outcome {cell.outcome.value}, crash type "
                    f"{cell.crash_type.value if cell.crash_type else 'none'}"
                )
            row_of[key] = number
            cells.append(cell)
    return cells
