"""Seeded random crash-record corpus for fuzz and property tests, the
corpus written as Texas-layout tables, and tiled copies of the fixture
tables."""

import csv
import io
import random

from crashbench.model import (
    CrashRecord,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    VehicleClass,
    VehicleUnit,
)

_CLASS_WEIGHTS = [
    (VehicleClass.PASSENGER, 60),
    (VehicleClass.MOTORCYCLE, 5),
    (VehicleClass.HEAVY_VEHICLE, 8),
    (VehicleClass.CYCLIST, 4),
    (VehicleClass.PEDESTRIAN, 4),
    (VehicleClass.OTHER, 4),
    (VehicleClass.UNKNOWN, 15),
]


def random_unit(rng: random.Random, unit_id: int, event_index) -> VehicleUnit:
    cls = rng.choices(
        [c for c, _ in _CLASS_WEIGHTS], weights=[w for _, w in _CLASS_WEIGHTS]
    )[0]
    in_transport = (
        False
        if cls in (VehicleClass.PEDESTRIAN, VehicleClass.CYCLIST)
        else rng.random() < 0.9
    )
    return VehicleUnit(
        unit_id=unit_id,
        vehicle_class=cls,
        in_transport=in_transport,
        first_contact_event_index=event_index,
    )


def random_record(rng: random.Random, crash_id: str) -> CrashRecord:
    n_units = rng.randint(1, 5)
    has_events = rng.random() < 0.8
    units = []
    for uid in range(1, n_units + 1):
        if not has_events:
            event = None
        elif uid == 1:
            event = 1  # someone is always in the first contact
        else:
            event = rng.choice([1, 1, 1, 2, 2, 3, None])
        units.append(random_unit(rng, uid, event))
    units = tuple(units)

    location = (
        None
        if rng.random() < 0.2
        else LatLon(rng.uniform(30.0, 30.6), rng.uniform(-98.0, -97.5))
    )
    return CrashRecord(
        crash_id=crash_id,
        state="TX",
        county=rng.choice(["TRAVIS", "WILLIAMSON", "HAYS"]),
        year=2023,
        worst_injury=rng.choice(list(KabcoLevel)),
        location=location,
        primary_road_name=rng.choice(
            ["I-35 N/B", "US-290", "MOPAC", "MAIN ST", "ELM AVE", ""]
        ),
        units=units,
        junction_relation=rng.choice(list(JunctionRelation)),
        manner_of_collision=rng.choice(list(MannerOfCollision)),
        airbag_deployed=rng.random() < 0.4,
    )


def make_corpus(size: int, seed: int = 20230901) -> list[CrashRecord]:
    rng = random.Random(seed)
    return [random_record(rng, f"F{i:06d}") for i in range(size)]


# The packaged Texas mapping's codes (``builtin:tx``) for corpus values.
SEVERITY_CODE = dict(zip(KabcoLevel, ["K", "A", "B", "C", "N", "U"]))
INJURY_CODE = dict(zip(KabcoLevel, ["4", "1", "2", "3", "5", "9"]))
JUNCTION_CODE = {JunctionRelation.INTERSECTION: "1", JunctionRelation.NON_JUNCTION: "3",
                 JunctionRelation.RAMP_RELATED: "5", JunctionRelation.UNKNOWN: ""}
MANNER_CODE = {
    MannerOfCollision.FRONT_TO_REAR: "24", MannerOfCollision.LATERAL_SAME_DIRECTION: "25",
    MannerOfCollision.OPPOSITE_DIRECTION: "40", MannerOfCollision.CROSSING_PATH: "50",
    MannerOfCollision.SINGLE_VEHICLE: "10", MannerOfCollision.OTHER: "99",
    MannerOfCollision.UNKNOWN: "",
}
BODY_AND_DESC = {
    VehicleClass.PASSENGER: ("P4", "1"), VehicleClass.MOTORCYCLE: ("MC", "1"),
    VehicleClass.HEAVY_VEHICLE: ("TR", "1"), VehicleClass.CYCLIST: ("P4", "3"),
    VehicleClass.PEDESTRIAN: ("", "4"), VehicleClass.OTHER: ("OT", "1"),
    VehicleClass.UNKNOWN: ("ZZ", "1"),
}


def texas_tables(records, rng: random.Random) -> dict[str, list[list[str]]]:
    """Crash, unit and person rows in the fixture tables' Texas layout
    (``builtin:tx``), headers excluded: one crash row per record and one
    unit row per unit, in record order, and for each unit up to two
    person rows at random injuries.  A record's airbag deployment is
    flagged on the first person row of its first unit."""
    tables = {"crash": [], "unit": [], "person": []}
    for record in records:
        lat, lon = ("", "") if record.location is None else map(repr, record.location)
        tables["crash"].append([
            record.crash_id, str(record.year), record.county.title(), lat, lon,
            record.primary_road_name, record.secondary_road_name or "",
            SEVERITY_CODE[record.worst_injury], JUNCTION_CODE[record.junction_relation],
            MANNER_CODE[record.manner_of_collision],
        ])
        airbag = record.airbag_deployed
        for unit in record.units:
            body, desc = BODY_AND_DESC[unit.vehicle_class]
            event = unit.first_contact_event_index
            tables["unit"].append([
                record.crash_id, str(unit.unit_id), body, "N" if unit.in_transport else "Y",
                desc, "", "", "1", "1", "" if event is None else str(event),
            ])
            for _ in range(rng.randint(1 if airbag else 0, 2)):
                injury = INJURY_CODE[rng.choice(list(KabcoLevel))]
                tables["person"].append(
                    [record.crash_id, str(unit.unit_id), injury, "2" if airbag else "1"]
                )
                airbag = False
    return tables


def tiled_table(path, k: int) -> str:
    """A crash, unit or person table's rows k times over, each tile's
    non-empty crash ids suffixed so that the tiles are distinct crashes."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    crash_id = header.index("Crash_ID")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for tile in range(k):
        for row in rows:
            if row and row[crash_id].strip():
                row = row[:crash_id] + [f"{row[crash_id]}~{tile}"] + row[crash_id + 1:]
            writer.writerow(row)
    return out.getvalue()
