"""Parse delimited crash and VMT sources into canonical records.

Crash, vehicle, and person tables are joined by crash id.  Parsing is
deterministic: identical source bytes and config yield the identical
record list and report, and record order follows crash-row input order.
Rows are never silently dropped: every crash, unit and person row is
either used or skipped with a reason in the ingest report, so for each
table rows read equals rows used plus rows skipped.  Ingest is where the
crash-record contract is decided (see ``load_crash_table``); nothing
downstream validates a record again.

Each table's header is read once and the mapping config is compiled
against it (``MappingConfig.compile``), which checks the table.  A reader
reads per row, through the table's picker, only what differs per row: a
crash row's id, coordinates and road names, and a unit or person row's
crash key.  Everything else is decided once per distinct tuple of the
raw columns that it reads, in the table's decision memo, which the
reader looks each row up in itself (``CompiledTable``): for a crash row
the year or its skip reason, the normalised state, the crash-level
worst injury, junction and manner; for a unit row the unit number or its
skip reason, the shared unit and the airbag flag; for a person row the
unit-number check, the injury level and the airbag flag; and for each,
the names to count as unknown.  A crash row's county is decided apart,
once per distinct raw value, in a memo of its own: a statewide table
covers every county of its state (Texas has 254), and a memo key that
held the county too would have as many keys as code combinations times
counties, so most rows would decide their codes again.  Per row there is
left only the join: blank keys, orphans, duplicates and the per-row
counts, each unknown name counted once for every row that has it.  Within one load,
records that name the same road hold one string for it.

A table file is read in blocks of whole lines (``_open_table``).  A
block with no quote character, no NUL, no CR but in a CRLF line end and
no line longer than csv's field size limit is split with ``str.split``
at LF and at the delimiter, which reads it as the csv module would; from
the first block that fails that test, the csv module reads the rest of
the file.  Either way the rows, their numbers, the skipped rows and the
errors are the csv module's.  A stream or an iterable of lines is read
by the csv module throughout.

Each crash is one object from its row to its record.  The crash reader
stores one list per emitted crash, holding CrashRecord's fields in order
and two slots of bookkeeping: the worst person injury rank so far and
whether the crash row's own worst injury counts as unknown.  The person
reader writes the worst rank and the airbag flag into that list, and the
unit reader appends to its unit list, sets its airbag flag and finds a
repeated unit among the crash's own units.  No other table is kept per
crash, but for the unit ids of a crash with many units.  The join then sorts the units into a tuple, settles the worst
injury, and builds each record from the list with one call to tuple's
constructor (``tuple.__new__``: records and locations are plain
``typing.NamedTuple`` values that check nothing, see ``model``); the
unit reader builds each distinct unit once.  Vehicle units are shared
immutable values; a crash's contact events are read from its units'
first-contact ordinals.  A unit holds only what the stages read
(ordinal, class, in-transport flag, first-contact ordinal), all from
small coded domains, so one load builds each distinct unit once and
every record that has it holds that one value; the memo lives for one
``load_crash_table`` call.  Nothing may rely on unit identity: a unit
equals any other with the same fields, shared or not.  Airbag
deployment is a fact of the crash, not of a unit.

Records missing coordinates can be filled by a pluggable geocoder
client.  Only stub and file-cache (replay) clients ship here; a live
client is the caller's concern and is exercised through the same
interface.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Protocol, Union

from .mapping import (
    CRASH_FIELDS,
    CRASH_REQUIRED,
    PERSON_FIELDS,
    PERSON_REQUIRED,
    UNIT_FIELDS,
    UNIT_REQUIRED,
    VMT_REQUIRED,
    FLAGS,
    VOCABULARIES,
    CompiledTable,
    MappingConfig,
    float_or_none,
)
from .model import (
    CrashBenchError,
    CrashRecord,
    DataError,
    FunctionalClass,
    KabcoLevel,
    LatLon,
    PassengerShareTable,
    VehicleUnit,
    VmtRecord,
    VRU_CLASSES,
    valid_coordinate,
)
from .rates import compute_rate

RowSource = Union[str, Path, io.TextIOBase, Iterable[str]]
# (1-based row number, raw values in header order)
Rows = Iterator[tuple[int, list[str]]]
# Takes a row wider than its header: its number, the reason and its values.
SkipWide = Callable[[int, str, list[str]], None]

# Order of IngestReport.skipped across tables; within a table, row order.
_SKIP_ORDER = {"unit": 0, "person": 1, "crash": 2}
_SHARE_COLUMNS = ("state", "functional_class", "urban", "share")
# The share table's urban column: a flag, or urban/rural (any case).
_URBAN = {**FLAGS.values, "URBAN": True, "RURAL": False}
_ADS_COLUMNS = ("geo", "road", "outcome", "ads_count", "ads_vmt_miles")


class InconsistentVmtError(DataError):
    """Freeway VMT exceeds (or exhausts) the all-roads total, or given
    freeway and surface-street VMT do not add up to it."""


# How far given Freeway + SurfaceStreet VMT may miss a given AllRoads
# total, relative to the larger: tables that publish each class rounded
# on its own (to four significant digits, say, or whole millions of
# miles) miss by rounding alone, while classes counted on different
# bases miss by whole percents.
VMT_PARTS_REL_TOLERANCE = 1e-3


@dataclass
class SkippedRow:
    table: str
    row_number: int  # 1-based, excluding the header
    reason: str


@dataclass
class IngestReport:
    """Accounting for one load: row counts, skips, and degradations."""

    source: str
    rows_read: dict[str, int] = field(default_factory=dict)
    records_emitted: int = 0
    skipped: list[SkippedRow] = field(default_factory=list)
    unknown_counts: dict[str, int] = field(default_factory=dict)
    missing_location: int = 0
    # Emitted records with no unit row: valid (a crash table may be loaded
    # without a units table) but never counted in a rate.
    crashes_without_units: int = 0
    # Unit and person rows joined to an emitted crash record.
    rows_attached: dict[str, int] = field(default_factory=dict)

    def count_unknown(self, fname: str) -> None:
        self.unknown_counts[fname] = self.unknown_counts.get(fname, 0) + 1

    def skip(self, table: str, row_number: int, reason: str) -> None:
        self.skipped.append(SkippedRow(table, row_number, reason))

    def count_read(self, table: str, last_number: int) -> None:
        """Record the rows read from ``table``: the last row number its
        reader saw, or a later row skipped before the reader (one wider
        than the header), if any."""
        last = max([last_number] + [s.row_number for s in self.skipped if s.table == table])
        if last:
            self.rows_read[table] = last

    def conserves_rows(self, table: str = "crash") -> bool:
        """Rows read equal rows used plus rows skipped.  Crash rows are
        used as records; unit and person rows by attaching to one."""
        used = self.records_emitted if table == "crash" else self.rows_attached.get(table, 0)
        skipped = sum(1 for s in self.skipped if s.table == table)
        return self.rows_read.get(table, 0) == used + skipped


@contextmanager
def _open_table(
    source: RowSource, delimiter: str, skip_wide: Optional[SkipWide] = None
) -> Iterator[tuple[list[str], Rows]]:
    """Read a table's header and yield it with the numbered rows after it.

    Blank lines are skipped and do not advance the row number.  A short
    row is yielded as it is read: the reader that picks its fields
    decides what it means (the readers of a ``CompiledTable`` and
    ``_columns`` read its missing trailing fields as absent;
    ``report.parse_rate_table`` refuses it).  A row with more fields than
    the header (an unquoted delimiter in a value shifts every later
    field) is not yielded: it
    goes to ``skip_wide`` with its number, a reason giving both widths
    and its values, and with no ``skip_wide`` it is a DataError naming
    the source and row.  A file that is not UTF-8 text is a
    DataError naming it.  A path is read as ``utf-8-sig``, so a byte-order
    mark before the header is not part of its first column.  A row the csv
    module cannot parse, such as one with a field longer than csv's
    default ``field_size_limit`` (kept), is a DataError naming the source
    and row.  A path's lines end only at LF (CRLF ends in LF too), so a
    bare CR outside quotes, which would otherwise end the record where it
    stands and split the row in two, is such a row, reported as
    ``carriage return outside quotes`` rather than by csv's own hint (a
    line handed in as a string with an LF before its end reads the
    same).  A message names a
    path source by its path and any other source by its type
    (``<list>``), never by its contents.

    The rows, their numbers, the skips and the errors are the csv
    module's, however the text is split.  A path is read in blocks of
    ``_BLOCK_CHARS`` characters completed to a line end.  A block with no
    quote character, no NUL, no CR but in a CRLF line end and no line
    longer than ``csv.field_size_limit()`` reads the same split at LF and
    at the delimiter (``_split_lines``), and is split so, in about three
    fifths of csv's time.  From the first block that fails that test to
    the end of the file, csv reads the lines.  A stream or an iterable of
    lines is read by csv throughout, since how it splits its lines is its
    own.
    """
    is_path = isinstance(source, (str, Path))
    if is_path:
        opened = open(source, newline="\n", encoding="utf-8-sig")
        label = str(source)
    else:
        opened = nullcontext(source)
        label = f"<{type(source).__name__}>"
    with opened as lines:
        if skip_wide is None:

            def skip_wide(number: int, reason: str, row: list[str]) -> None:
                raise DataError(f"{label}: row {number}: {reason}")

        try:
            if is_path and len(delimiter) == 1:  # csv refuses any other delimiter
                yield _split_table(lines, delimiter, skip_wide, label)
            else:
                yield _csv_table(lines, delimiter, skip_wide, label)
        except UnicodeDecodeError as exc:
            raise DataError(f"{label}: not UTF-8 text ({exc})") from None


# Characters a table file is read in, each block then completed to its
# line end.  Tiled-fixture's crash, unit and person tables split as fast
# in blocks of 4, 16 or 64 K, and about a fifth and a half slower in
# blocks of 256 K and 1,024 K; of the equal sizes, a smaller block leaves
# less of a file to csv after a quote.
_BLOCK_CHARS = 16 * 1024


def _csv_table(
    lines: Iterable[str], delimiter: str, skip_wide: SkipWide, label: str
) -> tuple[list[str], Rows]:
    """The header csv reads from ``lines`` and the numbered rows after it."""
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise DataError(f"{label}: header: {_csv_reason(exc)}") from None
    return header, _numbered(reader, len(header), skip_wide, label)


def _split_table(
    file: io.TextIOBase, delimiter: str, skip_wide: SkipWide, label: str
) -> tuple[list[str], Rows]:
    """A table file's header and numbered rows, split block by block
    until a block needs csv (see ``_open_table``)."""
    block = _block(file)
    lines = _split_lines(block)
    if lines is None:
        return _csv_table(chain(io.StringIO(block, newline="\n"), file), delimiter, skip_wide, label)
    header = lines[0].split(delimiter) if lines[0] else []
    del lines[0]
    return header, chain.from_iterable(
        _split_blocks(lines, file, delimiter, len(header), skip_wide, label)
    )


def _block(file: io.TextIOBase) -> str:
    """The file's next block of whole lines: ``_BLOCK_CHARS`` characters,
    and the rest of the line the last of them is on; "" at its end."""
    block = file.read(_BLOCK_CHARS)
    if block and block[-1] != "\n":
        block += file.readline()
    return block


def _split_lines(block: str) -> Optional[list[str]]:
    """The block's lines, CRLF read as LF, when splitting each at the
    delimiter gives csv's fields; None when csv must read the block: it
    holds a quote character, a NUL, a CR that does not end a line with
    LF, or a line longer than csv's field size limit."""
    if '"' in block or "\0" in block:
        return None
    if "\r" in block:
        block = block.replace("\r\n", "\n")
        if "\r" in block:
            return None
    lines = block.split("\n")
    limit = csv.field_size_limit()
    if len(block) > limit and max(map(len, lines)) > limit:
        return None
    return lines


def _split_blocks(
    lines: list[str],
    file: io.TextIOBase,
    delimiter: str,
    width: int,
    skip_wide: SkipWide,
    label: str,
) -> Iterator[Iterable[tuple[int, list[str]]]]:
    """The numbered rows of each block, as one iterable per block, from
    the block whose ``lines`` are given; once a block fails
    ``_split_lines``, csv's numbered rows from its first line on."""
    number = 0
    while True:
        rows = [line.split(delimiter) for line in lines if line]
        if rows and max(map(len, rows)) > width:
            yield _sifted(rows, number, width, skip_wide)
        else:
            yield zip(range(number + 1, number + 1 + len(rows)), rows)
        number += len(rows)
        block = _block(file)
        if not block:
            return
        lines = _split_lines(block)
        if lines is None:
            reader = csv.reader(chain(io.StringIO(block, newline="\n"), file), delimiter=delimiter)
            yield _numbered(reader, width, skip_wide, label, number)
            return


def _sifted(rows: list[list[str]], number: int, width: int, skip_wide: SkipWide) -> Rows:
    """``rows`` numbered after ``number``, those wider than ``width``
    given to ``skip_wide`` instead."""
    for number, row in enumerate(rows, number + 1):
        if len(row) > width:
            skip_wide(number, _wide_reason(row, width), row)
        else:
            yield number, row


def _wide_reason(row: list[str], width: int) -> str:
    return f"{len(row)} fields, header has {width}"


def _numbered(
    reader: Iterator[list[str]], width: int, skip_wide: SkipWide, label: str, number: int = 0
) -> Rows:
    try:
        for row in reader:
            if row:
                number += 1
                if len(row) > width:
                    skip_wide(number, _wide_reason(row, width), row)
                    continue
                yield number, row
    except csv.Error as exc:
        raise DataError(f"{label}: row {number + 1}: {_csv_reason(exc)}") from None


def _csv_reason(exc: csv.Error) -> str:
    """csv's message for a row it cannot parse, except that a line break
    inside an unquoted field, which csv blames on how the file was
    opened, is named for what it is in a table read by ``_open_table``."""
    reason = str(exc)
    if reason.startswith("new-line character seen in unquoted field"):
        return "carriage return outside quotes (lines end at LF or CRLF)"
    return reason


@contextmanager
def _mapped_table(
    table: str,
    source: RowSource,
    config: MappingConfig,
    required: tuple,
    fields: tuple,
    decide: Callable[..., Any],
    report: Optional[IngestReport] = None,
    wide_keys: Optional[set[str]] = None,
) -> Iterator[tuple[CompiledTable, Rows]]:
    """Open a source table; yield the mapping of ``fields`` compiled
    against its header (which checks it), and the numbered rows.  The
    table's picker reads its ``_PER_ROW`` fields, its ``_APART`` fields
    are decided apart, and its decision memo passes the others to
    ``decide`` (see ``MappingConfig.compile``).
    Rows wider than the header are skipped into ``report`` when one is
    given, else they are a DataError (see ``_open_table``); the value
    such a row holds for the first field joins ``wide_keys`` when that is
    given."""

    def skip_wide(number: int, reason: str, row: list[str]) -> None:
        report.skip(table, number, reason)
        if wide_keys is not None and (key := compiled(row)[0]) is not None:
            wide_keys.add(key)

    with _open_table(source, config.delimiter, skip_wide if report else None) as (header, rows):
        per_row, apart = _PER_ROW[table], _APART.get(table, {})
        decided = tuple(f for f in fields if f not in per_row and f not in apart)
        compiled = config.compile(header, per_row, required, table, decided, decide, apart)
        yield compiled, rows


def _int_or_none(raw: Optional[str]) -> Optional[int]:
    """The integer a field holds, for ids, years and ordinals: ``2`` and
    ``2.0`` read as 2.  None when the field is empty or holds anything
    else, ``2.5`` included: truncating it would read a year of 2023.9 as
    2023, or make unit 1.5 collide with unit 1.  Underscores and
    non-ASCII characters are unparseable, as in ``mapping.float_or_none``."""
    if not raw or "_" in raw or not raw.isascii():
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    value = float_or_none(raw)
    return int(value) if value is not None and value.is_integer() else None


def _orphan_reason(crash_key: str, skipped_ids: set[str]) -> str:
    return "crash row skipped" if crash_key in skipped_ids else "no crash row"


# The fields each reader reads per row.  It decides the rest of its
# table's fields once per distinct tuple of the raw columns they read.  A
# VMT row is read whole, each row a fact of its own.
_PER_ROW = {
    "crash": ("crash_id", "latitude", "longitude", "primary_road", "secondary_road"),
    "unit": ("unit.crash_id",),
    "person": ("person.crash_id",),
    "vmt": VMT_REQUIRED,
}


def _decide_county(county: Optional[str]) -> Optional[str]:
    """A crash row's county, normalised; None when it is absent."""
    return county.strip().upper() if county else None


# The fields each reader decides apart from its table's other coded
# fields (``MappingConfig.compile``), each once per distinct raw value: a
# statewide crash table covers every county of its state, so a decision
# memo keyed by the county too would decide each code combination again
# in every county.
_APART = {"crash": {"county": _decide_county}}
_MISSING_UNIT_KEYS = "missing crash or unit key"
_MISSING_PLACE = "missing state or county"
# A person's injury level ranked for the running worst per crash: K
# highest, and Unknown below O, so it is the worst only when every
# injury of the crash is Unknown.
_PERSON_RANK = {level: -1 if level.severity_rank is None else level.severity_rank
                for level in KabcoLevel}
_LEVEL_OF_RANK = {rank: level for level, rank in _PERSON_RANK.items()}
_UNIT_ID = itemgetter(0)  # a VehicleUnit's unit_id
# A crash's entry while its tables are read is one list: CrashRecord's
# fields in order, then two slots of bookkeeping, the worst person rank
# so far (``_NO_RANK`` until a person row gives an injury) and whether
# the crash row's own worst injury counts as unknown.  The unit slot
# holds () until the crash's first unit, then a list in row order.
_WORST, _UNITS, _AIRBAG, _RANK, _WORST_UNKNOWN = 4, 8, 11, 12, 13
_NO_RANK = -2
# A crash with this many units keeps a set of their ids for the
# duplicate check (``_read_unit_rows``); below it, the check scans them.
_SCANNED_UNITS = 16
# CrashRecord and LatLon check nothing when built, so the join builds
# them straight from their fields.
_new_tuple = tuple.__new__


def load_crash_table(
    crash_source: RowSource,
    config: MappingConfig,
    units_source: Optional[RowSource] = None,
    persons_source: Optional[RowSource] = None,
) -> tuple[list[CrashRecord], IngestReport]:
    """Join crash, vehicle, and person tables into CrashRecords.

    One record per crash id; vehicle and person rows attach by the crash
    key.  A crash row lacking its key or year, or repeating an emitted
    crash id, is skipped and reported; so is a unit or person row whose
    crash is absent or was skipped, a unit row repeating a unit of its
    crash, and a row of any of the three tables with more fields than its
    header, whose values cannot be told apart (the unit and person rows
    of the id in such a crash row's crash-id column are then those of a
    skipped crash row).  Field-level junk degrades instead: unmapped
    codes go to Unknown, and a coordinate that is unparseable or fails
    ``valid_coordinate`` leaves the location absent (to be geocoded),
    both counted in the report; a first-contact ordinal below 1 reads as
    absent.  A crash with no unit row is emitted and counted in
    ``crashes_without_units``.  A record is ``airbag_deployed`` when any
    attached person or unit row flags a deployment.

    So every emitted record meets the record contract: a valid location
    or none, unit ids unique within the crash, no pedestrian or cyclist
    in transport, and first-contact ordinals of at least 1.

    The crash rows are read first, into one entry per emitted crash (see
    ``_RANK``); the person and unit rows fill in their crash's entry, and
    each entry becomes its record (see the module docstring).
    """
    report = IngestReport(source=config.name)
    # Ids of the skipped crash rows (a wide row's too).
    skipped_ids: set[str] = set()
    tracks_transport = "unit.in_transport" in config.columns.keys() | config.derives.keys()

    with ExitStack() as stack:

        def open_table(table, source, required, fields, decide, wide_keys=None):
            return stack.enter_context(
                _mapped_table(table, source, config, required, fields, decide, report, wide_keys)
            )

        crash_table = open_table(
            "crash", crash_source, CRASH_REQUIRED, CRASH_FIELDS, _decide_crash, skipped_ids
        )
        unit_table = person_table = None
        if units_source is not None:
            unit_table = open_table(
                "unit", units_source, UNIT_REQUIRED, UNIT_FIELDS, _unit_decider(tracks_transport)
            )
        if persons_source is not None:
            person_table = open_table(
                "person", persons_source, PERSON_REQUIRED, PERSON_FIELDS, _decide_person
            )

        # Crash rows first, so unit and person rows meet the emitted
        # crashes' entries as they are read.
        crashes = _read_crash_rows(*crash_table, skipped_ids, report)
        if person_table is not None:
            _read_person_rows(*person_table, crashes, skipped_ids, report)
        if unit_table is not None:
            _read_unit_rows(*unit_table, crashes, skipped_ids, report)

    records: list[CrashRecord] = []
    append = records.append
    unknown_worst = 0
    # Each entry is popped, newest first, as its record is built, so the
    # entries and the records are never all alive at once; the records
    # are then put back in crash-row order.
    while crashes:
        entry = crashes.popitem()[1]
        units = entry[_UNITS]
        if not units:
            report.crashes_without_units += 1
        else:
            if len(units) > 1:
                units.sort(key=_UNIT_ID)
            entry[_UNITS] = tuple(units)
        rank = entry[_RANK]
        if rank != _NO_RANK:
            entry[_WORST] = _LEVEL_OF_RANK[rank]
        elif entry[_WORST_UNKNOWN]:
            unknown_worst += 1
        del entry[_RANK:]
        append(_new_tuple(CrashRecord, entry))
    records.reverse()
    if unknown_worst:
        report.unknown_counts["worst_injury"] = unknown_worst
    report.records_emitted = len(records)
    report.skipped.sort(key=lambda s: _SKIP_ORDER[s.table])
    return records, report


def _decide_crash(state, year_raw, level, junction, manner, degraded) -> tuple:
    """A crash row's decision on its coded columns but the county's:
    (skip reason or None, normalised state, year, crash-level worst
    injury, whether that counts as unknown, junction, manner, the names
    to count as unknown for each row emitted).  A row with no county is
    skipped by its reader, after this decision's reason."""
    year = _int_or_none(year_raw)
    if year is None:
        return (f"unparseable year {year_raw!r}",) + (None,) * 7
    if not state:
        return (_MISSING_PLACE,) + (None,) * 7
    unknown: list[str] = []
    junction = _coded_member("junction_relation", junction, degraded, unknown)
    manner = _coded_member("manner_of_collision", manner, degraded, unknown)
    worst_degraded = level is None or "worst_injury" in degraded
    return (
        None, state.strip().upper(), year,
        KabcoLevel.UNKNOWN if level is None else level, worst_degraded,
        junction, manner, tuple(unknown),
    )


def _decide_person(unit_raw, level, airbag, degraded) -> tuple:
    """A person row's decision on its coded columns: (skip reason or None,
    injury rank or None when no injury is given, airbag flag, the names to
    count as unknown)."""
    if unit_raw and _int_or_none(unit_raw) is None:
        return f"unparseable unit_id {unit_raw!r}", None, None, ()
    if level is None:
        return None, None, airbag, ()
    unknown = ("person.injury",) if "person.injury" in degraded else ()
    return None, _PERSON_RANK[level], airbag, unknown


def _unit_decider(tracks_transport: bool) -> Callable[..., tuple]:
    """The decision of one load on a unit row's coded columns: (skip
    reason or None, the unit, airbag flag, the names to count as
    unknown).  Each distinct unit is built once, keyed by its fields in
    VehicleUnit's declaration order, and shared (see the module
    docstring), also by rows whose other columns differ."""
    distinct_units: dict[tuple, VehicleUnit] = {}

    def decide(unit_raw, vehicle_class, in_transport, airbag, event_raw, degraded) -> tuple:
        if not unit_raw:
            return _MISSING_UNIT_KEYS, None, None, ()
        unit_id = _int_or_none(unit_raw)
        if unit_id is None:
            return f"unparseable unit_id {unit_raw!r}", None, None, ()
        unknown: list[str] = []
        vehicle_class = _coded_member("unit.vehicle_class", vehicle_class, degraded, unknown)
        # Only an unknown status counts, not a '*' fallback to a definite flag.
        if in_transport is None:
            if tracks_transport:
                unknown.append("unit.in_transport")
            in_transport = False  # conservative: unknown transport status is excluded
        if vehicle_class in VRU_CLASSES:
            in_transport = False  # non-motorists are never in-transport vehicles
        event = _int_or_none(event_raw)
        if event is not None and event < 1:
            event = None
        fields = (unit_id, vehicle_class, in_transport, event)
        unit = distinct_units.get(fields)
        if unit is None:
            unit = distinct_units[fields] = VehicleUnit(*fields)
        return None, unit, airbag, tuple(unknown)

    return decide


def _coded_member(
    fname: str, member: Optional[Enum], degraded: tuple[str, ...], unknown: list[str]
) -> Enum:
    """Enum member of a coded field; an absent one reads as the field's
    unknown member, and an absent or degraded one joins ``unknown``."""
    if member is None or fname in degraded:
        unknown.append(fname)
    return VOCABULARIES[fname].unknown if member is None else member


def _read_crash_rows(
    table: CompiledTable, rows: Rows, skipped_ids: set[str], report: IngestReport
) -> dict[str, list]:
    """Validate crash rows.  Returns, by crash id in row order, the entry
    of each crash to emit (see ``_RANK``), filled from its decision (see
    ``_decide_crash``), county (``_decide_county``), location and road
    names; the ids of skipped crash rows join ``skipped_ids``.  Entries
    that name the same road hold one string for it."""
    crashes: dict[str, list] = {}
    road_names: dict[str, str] = {}
    shared_name = road_names.setdefault
    key_of, decisions, pick, width = table.key_of, table.decisions, table.pick, table.width
    ((county_of, counties),) = table.apart
    count_unknown = report.count_unknown
    number = 0
    for number, row in rows:
        if len(row) < width:
            row = table.padded(row)
        crash_id, lat_raw, lon_raw, primary_road, secondary_road = pick(row)
        crash_id = crash_id.strip()
        if not crash_id:
            report.skip("crash", number, "missing crash_id")
            continue
        if crash_id in crashes:
            report.skip("crash", number, "duplicate crash_id")
            continue
        reason, state, year, worst, worst_unknown, junction, manner, unknown = decisions[
            key_of(row)
        ]
        if reason:
            report.skip("crash", number, reason)
            skipped_ids.add(crash_id)
            continue
        county = counties[county_of(row)]
        if county is None:
            report.skip("crash", number, _MISSING_PLACE)
            skipped_ids.add(crash_id)
            continue
        for fname in unknown:
            count_unknown(fname)
        # ``float_or_none`` of each coordinate, then ``valid_coordinate``
        # (whose range check also rules out NaN and infinities), inline.
        lat_raw = lat_raw.strip()
        lon_raw = lon_raw.strip()
        location = None
        if (lat_raw and lon_raw and lat_raw.isascii() and lon_raw.isascii()
                and "_" not in lat_raw and "_" not in lon_raw):
            try:
                lat, lon = float(lat_raw), float(lon_raw)
            except ValueError:
                pass
            else:
                if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
                    location = _new_tuple(LatLon, (lat, lon))
        if location is None:
            report.missing_location += 1
        primary_road = primary_road.strip()
        secondary_road = secondary_road.strip()
        crashes[crash_id] = [
            crash_id, state, county, year, worst, location,
            shared_name(primary_road, primary_road),
            shared_name(secondary_road, secondary_road) if secondary_road else None,
            (), junction, manner, False, _NO_RANK, worst_unknown,
        ]
    report.count_read("crash", number)
    return crashes


def _read_person_rows(
    table: CompiledTable,
    rows: Rows,
    crashes: Mapping[str, list],
    skipped_ids: set[str],
    report: IngestReport,
) -> None:
    """Attach person rows to their crashes' entries: the rank of the
    worst injury level given by an attached row, and the airbag flag of
    a crash any attached row flags a deployment for."""
    key_of, decisions, pick, width = table.key_of, table.decisions, table.pick, table.width
    count_unknown = report.count_unknown
    number = attached = 0
    for number, row in rows:
        if len(row) < width:
            row = table.padded(row)
        key = pick(row).strip()
        reason, rank, airbag, unknown = decisions[key_of(row)]
        if not key:
            report.skip("person", number, "missing crash key")
            continue
        entry = crashes.get(key)
        if entry is None:
            report.skip("person", number, _orphan_reason(key, skipped_ids))
            continue
        if reason:
            report.skip("person", number, reason)
            continue
        attached += 1
        for fname in unknown:
            count_unknown(fname)
        if rank is not None and rank > entry[_RANK]:
            entry[_RANK] = rank
        if airbag:
            entry[_AIRBAG] = True
    report.count_read("person", number)
    if number:
        report.rows_attached["person"] = attached


def _read_unit_rows(
    table: CompiledTable,
    rows: Rows,
    crashes: Mapping[str, list],
    skipped_ids: set[str],
    report: IngestReport,
) -> None:
    """Attach vehicle units to their crashes' entries, in row order, and
    set the airbag flag of a crash any attached row flags a deployment
    for.  A row repeating a unit id of its crash is skipped: the first
    copy wins.  The check scans the crash's units, and a crash of
    ``_SCANNED_UNITS`` units or more keeps a set of their ids instead, so
    it stays linear in the crash's units however many there are."""
    # The unit ids of each crash with ``_SCANNED_UNITS`` units or more.
    crowded: dict[str, set[int]] = {}
    key_of, decisions, pick, width = table.key_of, table.decisions, table.pick, table.width
    count_unknown = report.count_unknown
    number = attached = 0
    for number, row in rows:
        if len(row) < width:
            row = table.padded(row)
        key = pick(row).strip()
        reason, unit, airbag, unknown = decisions[key_of(row)]
        if not key or reason == _MISSING_UNIT_KEYS:
            report.skip("unit", number, _MISSING_UNIT_KEYS)
            continue
        entry = crashes.get(key)
        if entry is None:
            report.skip("unit", number, _orphan_reason(key, skipped_ids))
            continue
        if reason:
            report.skip("unit", number, reason)
            continue
        units = entry[_UNITS]
        if not units:
            entry[_UNITS] = [unit]
        else:
            unit_id = unit[0]
            if len(units) < _SCANNED_UNITS:
                repeated = unit_id in map(_UNIT_ID, units)
            else:
                ids = crowded.get(key)
                if ids is None:
                    ids = crowded[key] = set(map(_UNIT_ID, units))
                repeated = unit_id in ids
                ids.add(unit_id)
            if repeated:
                report.skip("unit", number, "duplicate unit_id")
                continue
            units.append(unit)
        attached += 1
        for fname in unknown:
            count_unknown(fname)
        if airbag:
            entry[_AIRBAG] = True
    report.count_read("unit", number)
    if number:
        report.rows_attached["unit"] = attached


# --- geocoding ----------------------------------------------------------------


class GeocodeTransportError(CrashBenchError):
    """The geocoding backend failed in a retryable way."""


@dataclass(frozen=True)
class GeocodeRequest:
    state: str
    locator: str  # city or county locator
    primary_road: str
    secondary_road: str = ""

    def key(self) -> str:
        parts = (self.state, self.locator, self.primary_road, self.secondary_road)
        return "|".join(" ".join(p.upper().split()) for p in parts)


class GeocoderClient(Protocol):
    def locate(self, request: GeocodeRequest) -> Optional[LatLon]: ...


class StubGeocoder:
    """Fixed-answer client for tests and offline runs."""

    def __init__(self, answers: Mapping[str, LatLon] | Mapping[GeocodeRequest, LatLon]):
        self._answers: dict[str, LatLon] = {}
        for key, value in answers.items():
            if isinstance(key, GeocodeRequest):
                key = key.key()
            self._answers[key] = LatLon(*value)

    def locate(self, request: GeocodeRequest) -> Optional[LatLon]:
        return self._answers.get(request.key())


class FileCachedGeocoder:
    """Append-only file cache in front of an optional inner client.

    With no inner client this is replay mode: only previously cached
    requests resolve, which keeps runs deterministic and offline.  The
    file is read as ``utf-8-sig``, so a byte-order mark is not part of
    the first key.  Cache lines are 'key<TAB>lat<TAB>lon'; a line that
    does not parse, whose coordinates ``float_or_none`` does not read as
    numbers (so no underscores or non-ASCII digits), or whose
    coordinates fail ``valid_coordinate``, is a DataError naming the
    line, and so is a repeated key with other coordinates (naming both
    lines); an exact repeat loads.  An inner client's answer that fails
    ``valid_coordinate`` counts as unresolved and is not cached.
    """

    def __init__(self, path: str | Path, inner: Optional[GeocoderClient] = None):
        self.path = Path(path)
        self.inner = inner
        self._cache: dict[str, LatLon] = {}
        if self.path.exists():
            try:
                self._load()
            except UnicodeDecodeError as exc:
                raise DataError(f"{self.path}: not UTF-8 text ({exc})") from None

    def _load(self) -> None:
        line_of: dict[str, int] = {}
        with open(self.path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key, lat, lon = line.split("\t")
                except ValueError as exc:
                    raise self._malformed(line_no, str(exc)) from None
                location = LatLon(float_or_none(lat), float_or_none(lon))
                if None in location:
                    raise self._malformed(line_no, f"{lat!r}, {lon!r} is not two finite numbers")
                if not valid_coordinate(*location):
                    raise self._malformed(
                        line_no,
                        f"{lat!r}, {lon!r} is not lat in [-90, 90] and lon in [-180, 180]",
                    )
                if self._cache.setdefault(key, location) != location:
                    raise DataError(
                        f"{self.path}: lines {line_of[key]} and {line_no} give different "
                        f"coordinates for {key!r}"
                    )
                line_of.setdefault(key, line_no)

    def _malformed(self, line_no: int, reason: str) -> DataError:
        return DataError(
            f"{self.path}: line {line_no}: malformed geocoder cache line ({reason})"
        )

    def locate(self, request: GeocodeRequest) -> Optional[LatLon]:
        key = request.key()
        if key in self._cache:
            return self._cache[key]
        if self.inner is None:
            return None
        result = self.inner.locate(request)
        if result is None or not valid_coordinate(*result):
            return None
        self._cache[key] = result
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{key}\t{result.lat!r}\t{result.lon!r}\n")
        return result


@dataclass
class GeocodeReport:
    resolved: int = 0
    unresolved: int = 0
    failed: list[tuple[str, str]] = field(default_factory=list)  # (crash_id, error)


def geocode_missing(
    records: Iterable[CrashRecord], client: GeocoderClient
) -> tuple[list[CrashRecord], GeocodeReport]:
    """Fill locations for records that lack them.

    Records with a location pass through untouched.  A client transport
    failure is recorded against the record and the run continues;
    unresolved records, and those whose answer fails
    ``valid_coordinate``, stay location-absent and are counted.
    """
    report = GeocodeReport()
    out: list[CrashRecord] = []
    for record in records:
        if record.location is not None:
            out.append(record)
            continue
        request = GeocodeRequest(
            state=record.state,
            locator=record.county,
            primary_road=record.primary_road_name,
            secondary_road=record.secondary_road_name or "",
        )
        try:
            located = client.locate(request)
        except GeocodeTransportError as exc:
            report.failed.append((record.crash_id, str(exc)))
            report.unresolved += 1
            out.append(record)
            continue
        if located is None or not valid_coordinate(*located):
            report.unresolved += 1
            out.append(record)
        else:
            report.resolved += 1
            out.append(record._replace(location=LatLon(*located)))
    return out, report


# --- VMT and share tables -------------------------------------------------------


def load_vmt_table(
    source: RowSource,
    config: MappingConfig,
    sidecar_source: Optional[RowSource] = None,
    sidecar_config: Optional[MappingConfig] = None,
) -> list[VmtRecord]:
    """Parse a VMT table, optionally merging a freeway-only sidecar.

    Sources that report only all-roads totals get SurfaceStreet rows
    derived per county-year as AllRoads minus Freeway; a non-positive
    difference (or freeway exceeding the total) is a hard
    InconsistentVmtError, and so are given Freeway and SurfaceStreet
    rows that miss a given AllRoads total by more than
    ``VMT_PARTS_REL_TOLERANCE``.  Unlike crash rows, a malformed VMT row
    is a hard error: exposure tables are small and authoritative.
    """
    records = _parse_vmt_rows(source, config)
    if sidecar_source is not None:
        records.extend(_parse_vmt_rows(sidecar_source, sidecar_config or config))
    return derive_surface_street_vmt(records)


def _parse_vmt_rows(source: RowSource, config: MappingConfig) -> list[VmtRecord]:
    records = []
    vmt_table = _mapped_table("vmt", source, config, VMT_REQUIRED, VMT_REQUIRED, _decide_vmt)
    with vmt_table as (compiled, rows):
        for number, row in rows:
            state, county, class_token, year_raw, miles_raw, _ = compiled(row)
            year = _int_or_none(year_raw)
            miles = float_or_none(miles_raw)
            if not state or not county or not year_raw or not miles_raw or not class_token:
                raise DataError(f"{config.name}/vmt row {number}: incomplete row")
            if year is None:
                raise DataError(
                    f"{config.name}/vmt row {number}: year {year_raw!r} is not an integer"
                )
            if miles is None:
                raise DataError(
                    f"{config.name}/vmt row {number}: vmt_miles {miles_raw!r} is not a "
                    f"finite number"
                )
            scaled = miles * config.vmt_scale
            if not 0.0 < scaled < math.inf:
                raise DataError(
                    f"{config.name}/vmt row {number}: vmt_miles {miles_raw!r} times vmt_scale "
                    f"{config.vmt_scale!r} is {scaled!r}, not a finite number > 0"
                )
            fclass = _functional_class(class_token, f"{config.name}/vmt row {number}")
            records.append(VmtRecord(state, county, fclass, year, scaled))
    return records


def _decide_vmt(degraded: tuple[str, ...]) -> None:
    """A VMT row has no field decided once (see ``_PER_ROW``)."""


def derive_surface_street_vmt(records: list[VmtRecord]) -> list[VmtRecord]:
    """Emit SurfaceStreet = AllRoads - Freeway where only totals exist;
    where a SurfaceStreet row is given too, check the three agree."""
    by_key: dict[tuple[str, str, int], dict[FunctionalClass, VmtRecord]] = {}
    for rec in records:
        by_key.setdefault((rec.state, rec.county, rec.year), {})[rec.functional_class] = rec
    out = list(records)
    for (state, county, year), classes in sorted(by_key.items()):
        total = classes.get(FunctionalClass.ALL_ROADS)
        freeway = classes.get(FunctionalClass.FREEWAY)
        if total is None or freeway is None:
            continue
        if freeway.vmt_miles >= total.vmt_miles:
            raise InconsistentVmtError(
                f"{state}/{county}/{year}: freeway VMT {freeway.vmt_miles} "
                f">= all-roads VMT {total.vmt_miles}"
            )
        surface = classes.get(FunctionalClass.SURFACE_STREET)
        if surface is not None:
            parts = freeway.vmt_miles + surface.vmt_miles
            if not math.isclose(parts, total.vmt_miles, rel_tol=VMT_PARTS_REL_TOLERANCE):
                raise InconsistentVmtError(
                    f"{state}/{county}/{year}: freeway VMT {freeway.vmt_miles} + "
                    f"surface-street VMT {surface.vmt_miles} = {parts} differs from "
                    f"all-roads VMT {total.vmt_miles} by more than "
                    f"{VMT_PARTS_REL_TOLERANCE:.1%}"
                )
            continue
        out.append(
            VmtRecord(
                state=state,
                county=county,
                functional_class=FunctionalClass.SURFACE_STREET,
                year=year,
                vmt_miles=total.vmt_miles - freeway.vmt_miles,
            )
        )
    return out


def _functional_class(token: str, where: str) -> FunctionalClass:
    """The functional class a VMT or share row names; any other token is
    a DataError naming ``where``."""
    try:
        return FunctionalClass(token)
    except ValueError:
        raise DataError(f"{where}: unknown functional class {token!r}") from None


def _columns(path: str | Path, header: list[str], names: tuple[str, ...], what: str):
    """A picker of the named columns of a table's header; a missing
    column is a DataError naming the file.  A row shorter than the header
    is padded with empty values, so its missing trailing fields read as
    absent; a full row is read as it is."""
    index = {name: i for i, name in enumerate(header)}
    missing = [name for name in names if name not in index]
    if missing:
        raise DataError(f"{path}: {what} lacks column(s) {', '.join(missing)}")
    pick = itemgetter(*(index[name] for name in names))
    width, padding = len(header), [""] * len(header)
    return lambda row: pick(row) if len(row) >= width else pick(row + padding[len(row):])


def load_share_table(path: str | Path) -> PassengerShareTable:
    """Read the passenger-VMT share table: delimited text with columns
    state, functional_class, urban, share.  An unknown functional class,
    an urban value that is neither a flag nor urban/rural, a share that is
    not a finite number in (0, 1], or a second row for the same (state,
    class, urban) key, states compared as PassengerShareTable stores them
    (stripped, upper case), is a DataError naming the file and row(s)."""
    shares: dict[tuple[str, FunctionalClass, bool], float] = {}
    row_of: dict[tuple[str, FunctionalClass, bool], int] = {}
    with _open_table(path, ",") as (header, rows):
        columns = _columns(path, header, _SHARE_COLUMNS, "share table")
        for number, row in rows:
            state, fclass_raw, urban_raw, share_raw = columns(row)
            fclass = _functional_class(fclass_raw.strip(), f"{path}: row {number}")
            urban = _URBAN.get(urban_raw.strip().upper())
            if urban is None:
                raise DataError(
                    f"{path}: row {number}: urban {urban_raw!r} is not true/false or urban/rural"
                )
            share = float_or_none(share_raw)
            if share is None or not 0.0 < share <= 1.0:
                raise DataError(
                    f"{path}: row {number}: share {share_raw!r} is not a finite number "
                    f"in (0, 1]"
                )
            key = (state.strip().upper(), fclass, urban)  # as PassengerShareTable keys it
            if key in row_of:
                raise DataError(
                    f"{path}: rows {row_of[key]} and {number} both give the share for "
                    f"({key[0]}, {fclass.value}, urban={urban})"
                )
            row_of[key] = number
            shares[key] = share
    return PassengerShareTable(shares)


def load_ads_table(path: str | Path) -> list[tuple[tuple[str, str, str], float, float]]:
    """Read an ADS exposure table: delimited text with columns geo, road,
    outcome, ads_count, ads_vmt_miles.  Returns ((geo, road, outcome),
    count, VMT) per row, in row order.  A missing column is a DataError
    naming the file; a count that is not a finite number >= 0, a VMT
    that is not a finite number > 0, or a pair whose rate overflows
    (``rates.compute_rate``), is a DataError naming the file and row."""
    out = []
    with _open_table(path, ",") as (header, rows):
        columns = _columns(path, header, _ADS_COLUMNS, "ADS table")
        for number, row in rows:
            geo, road, outcome, count_raw, vmt_raw = columns(row)
            count, vmt = float_or_none(count_raw), float_or_none(vmt_raw)
            if count is None or count < 0:
                raise DataError(
                    f"{path}: row {number}: ads_count {count_raw!r} is not a finite "
                    f"number >= 0"
                )
            if vmt is None or vmt <= 0:
                raise DataError(
                    f"{path}: row {number}: ads_vmt_miles {vmt_raw!r} is not a finite "
                    f"number > 0"
                )
            try:
                compute_rate(count, vmt)
            except CrashBenchError as exc:
                raise DataError(f"{path}: row {number}: {exc}") from None
            out.append(((geo, road, outcome), count, vmt))
    return out
