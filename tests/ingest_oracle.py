"""Row-at-a-time reference for ``ingest.load_crash_table``.

The same join as the loader, decided from scratch for every row: each
field comes from ``MappingConfig.resolve`` on the row as a dict, and
every check, parse and count runs once per row, with no memo.  Property
tests compare the loader's records and ``IngestReport`` with these.
The tables must have complete headers that repeat no column.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import NamedTuple, Optional

from crashbench.ingest import (
    _SKIP_ORDER,
    IngestReport,
    _int_or_none,
    _open_table,
    _orphan_reason,
)
from crashbench.mapping import (
    CRASH_FIELDS,
    PERSON_FIELDS,
    UNIT_FIELDS,
    VOCABULARIES,
    float_or_none,
)
from crashbench.model import (
    VRU_CLASSES,
    CrashRecord,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    VehicleUnit,
    valid_coordinate,
    worst_injury,
)


class _CrashRow(NamedTuple):
    state: str
    county: str
    year: int
    location: Optional[LatLon]
    primary_road: Optional[str]
    secondary_road: Optional[str]
    junction: JunctionRelation
    manner: MannerOfCollision
    worst: tuple[KabcoLevel, bool]


@contextmanager
def _resolved_table(table, source, config, fields, report, wide_keys=None):
    """Numbered rows of a table, each as the values of ``fields`` and then
    the names of those that came out degraded."""

    def convert(row):
        as_dict = dict(zip(header, row))
        values, degraded = [], ()
        for fname in fields:
            value, bad = config.resolve(fname, as_dict)
            values.append(value)
            degraded += (fname,) if bad else ()
        return [*values, degraded]

    def skip_wide(number, reason, row):
        report.skip(table, number, reason)
        if wide_keys is not None and (key := convert(row)[0]) is not None:
            wide_keys.add(key)

    with _open_table(source, config.delimiter, skip_wide) as (header, rows):
        yield ((number, convert(row)) for number, row in rows)


def load_crash_table(crash_source, config, units_source=None, persons_source=None):
    report = IngestReport(source=config.name)
    skipped_ids: set[str] = set()
    airbag_ids: set[str] = set()
    with ExitStack() as stack:
        crash_rows = stack.enter_context(
            _resolved_table("crash", crash_source, config, CRASH_FIELDS, report, skipped_ids)
        )
        crashes = _read_crash_rows(crash_rows, skipped_ids, report)
        injuries_by_crash = {}
        if persons_source is not None:
            person_rows = stack.enter_context(
                _resolved_table("person", persons_source, config, PERSON_FIELDS, report)
            )
            injuries_by_crash = _read_person_rows(
                person_rows, crashes, skipped_ids, airbag_ids, report
            )
        units_by_crash = {}
        if units_source is not None:
            unit_rows = stack.enter_context(
                _resolved_table("unit", units_source, config, UNIT_FIELDS, report)
            )
            tracks_transport = "unit.in_transport" in config.columns.keys() | config.derives.keys()
            units_by_crash = _read_unit_rows(
                unit_rows, crashes, skipped_ids, airbag_ids, tracks_transport, report
            )

    records = []
    for crash_id, crash in crashes.items():
        units = units_by_crash.get(crash_id, [])
        if not units:
            report.crashes_without_units += 1
        units.sort(key=lambda unit: unit.unit_id)
        person_injuries = injuries_by_crash.get(crash_id)
        if person_injuries:
            worst = worst_injury(person_injuries)
        else:
            worst, degraded = crash.worst
            if degraded:
                report.count_unknown("worst_injury")
        records.append(
            CrashRecord(
                crash_id=crash_id,
                state=crash.state,
                county=crash.county,
                year=crash.year,
                worst_injury=worst,
                location=crash.location,
                primary_road_name=crash.primary_road or "",
                secondary_road_name=crash.secondary_road,
                units=tuple(units),
                junction_relation=crash.junction,
                manner_of_collision=crash.manner,
                airbag_deployed=crash_id in airbag_ids,
            )
        )
    report.records_emitted = len(records)
    report.skipped.sort(key=lambda s: _SKIP_ORDER[s.table])
    return records, report


def _read_crash_rows(rows, skipped_ids, report):
    crashes = {}
    number = 0
    for number, values in rows:
        (crash_id, state, county, year_raw, lat_raw, lon_raw, primary_road, secondary_road,
         level, junction, manner, degraded) = values
        if crash_id is None:
            report.skip("crash", number, "missing crash_id")
            continue
        if crash_id in crashes:
            report.skip("crash", number, "duplicate crash_id")
            continue
        year = _int_or_none(year_raw)
        if year is None:
            report.skip("crash", number, f"unparseable year {year_raw!r}")
            skipped_ids.add(crash_id)
            continue
        if not state or not county:
            report.skip("crash", number, "missing state or county")
            skipped_ids.add(crash_id)
            continue
        lat = float_or_none(lat_raw)
        lon = float_or_none(lon_raw)
        if lat is not None and lon is not None and valid_coordinate(lat, lon):
            location = LatLon(lat, lon)
        else:
            location = None
            report.missing_location += 1
        worst = (KabcoLevel.UNKNOWN, True)
        if level is not None:
            worst = (level, "worst_injury" in degraded)
        crashes[crash_id] = _CrashRow(
            state=state.strip().upper(),
            county=county.strip().upper(),
            year=year,
            location=location,
            primary_road=primary_road,
            secondary_road=secondary_road,
            junction=_coded_member("junction_relation", junction, degraded, report),
            manner=_coded_member("manner_of_collision", manner, degraded, report),
            worst=worst,
        )
    report.count_read("crash", number)
    return crashes


def _coded_member(fname, member, degraded, report):
    if member is None or fname in degraded:
        report.count_unknown(fname)
    return VOCABULARIES[fname].unknown if member is None else member


def _read_person_rows(rows, crashes, skipped_ids, airbag_ids, report):
    injuries_by_crash = {}
    number = attached = 0
    for number, (key, unit_raw, level, airbag, degraded) in rows:
        if key is None:
            report.skip("person", number, "missing crash key")
            continue
        if key not in crashes:
            report.skip("person", number, _orphan_reason(key, skipped_ids))
            continue
        if unit_raw and _int_or_none(unit_raw) is None:
            report.skip("person", number, f"unparseable unit_id {unit_raw!r}")
            continue
        attached += 1
        if level is not None:
            if "person.injury" in degraded:
                report.count_unknown("person.injury")
            injuries_by_crash.setdefault(key, []).append(level)
        if airbag:
            airbag_ids.add(key)
    report.count_read("person", number)
    if number:
        report.rows_attached["person"] = attached
    return injuries_by_crash


def _read_unit_rows(rows, crashes, skipped_ids, airbag_ids, tracks_transport, report):
    units_by_crash = {}
    seen = set()
    number = attached = 0
    for number, values in rows:
        key, unit_raw, vehicle_class, in_transport, airbag, event_raw, degraded = values
        if not key or not unit_raw:
            report.skip("unit", number, "missing crash or unit key")
            continue
        if key not in crashes:
            report.skip("unit", number, _orphan_reason(key, skipped_ids))
            continue
        unit_id = _int_or_none(unit_raw)
        if unit_id is None:
            report.skip("unit", number, f"unparseable unit_id {unit_raw!r}")
            continue
        if (key, unit_id) in seen:
            report.skip("unit", number, "duplicate unit_id")
            continue
        seen.add((key, unit_id))
        attached += 1
        vehicle_class = _coded_member("unit.vehicle_class", vehicle_class, degraded, report)
        if in_transport is None:
            if tracks_transport:
                report.count_unknown("unit.in_transport")
            in_transport = False
        if vehicle_class in VRU_CLASSES:
            in_transport = False
        if airbag:
            airbag_ids.add(key)
        event = _int_or_none(event_raw)
        if event is not None and event < 1:
            event = None
        units_by_crash.setdefault(key, []).append(
            VehicleUnit(unit_id, vehicle_class, in_transport, event)
        )
    report.count_read("unit", number)
    if number:
        report.rows_attached["unit"] = attached
    return units_by_crash
