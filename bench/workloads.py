"""Seeded input generators for the benchmark workloads.

Each generator writes a complete run directory (run config, crash, unit
and person tables, VMT, shares, segments, aliases, geocoder cache and an
ADS comparison table) and returns an ``Inputs`` whose ``expected`` part
is the oracle the output check uses.  The oracle is derived from what the
generator wrote, never by running crashbench code.

The tables use the Texas CRIS layout bound by the packaged ``builtin:tx``
mapping, so the generators encode that mapping's codes: person injury
4/1/2/3/5 = K/A/B/C/O, person airbag 2 = deployed, ``Unit_Desc_ID`` 3/4 =
cyclist/pedestrian, ``Veh_Parked_Fl`` Y = not in transport, and an
unlisted body style (``ZZ``) = unknown vehicle class.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE = Path(__file__).parent / "fixture"
YEAR = 2023
UNDERREPORT = 0.32

CRASH_HEADER = (
    "Crash_ID", "Crash_Year", "Cnty_Nm", "Latitude", "Longitude", "Rpt_Street_Name",
    "Rpt_Sec_Street_Name", "Crash_Sev_ID", "Intrsct_Relat_ID", "FHE_Collsn_ID",
)
UNIT_HEADER = (
    "Crash_ID", "Unit_Nbr", "Veh_Body_Styl_ID", "Veh_Parked_Fl", "Unit_Desc_ID",
    "Cmv_GVWR", "Cmv_Fiveton_Fl", "Gvwr_Class", "Veh_Trvl_Dir_ID", "First_Contact_Evt_Num",
)
PERSON_HEADER = ("Crash_ID", "Unit_Nbr", "Prsn_Injry_Sev_ID", "Prsn_Airbag_ID")

OUTCOMES = (
    "PoliceReported",
    "AnyInjuryReported",
    "AnyAirbagDeployment",
    "SuspectedSeriousInjuryPlus",
    "Fatal",
)
ROADS = ("Freeway", "SurfaceStreet")
PERSON_INJURY_CODE = {"K": "4", "A": "1", "B": "2", "C": "3", "O": "5"}
SURFACE_NAMES = ("MAIN ST", "ELM AVE", "OAK DR", "CONGRESS AVE", "LAMAR BLVD", "12TH ST")


@dataclass
class Inputs:
    """A generated run directory and the oracle for its outputs."""

    root: Path
    run_config: Path
    ads_table: Path
    expected: dict = field(default_factory=dict)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_run_config(root: Path, areas: dict[str, str], workers: int, source: str) -> Path:
    lines = [
        "[run]", f"year = {YEAR}", "out_dir = out", f"workers = {workers}", "",
        "[params]", f"underreport = {UNDERREPORT}", "",
        "[areas]", *(f"{name} = {spec}" for name, spec in areas.items()), "",
        "[inputs]", "segments = segments.geojson", "aliases = aliases.ini",
        "shares = shares.csv", "geocoder_cache = geocache.tsv", "",
        source,
    ]
    path = root / "run.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_ads(root: Path, rng: random.Random, cells) -> tuple[Path, list[dict]]:
    """ADS comparison rows for the given (geo, road, outcome) cells."""
    rows = [
        {
            "geo": geo,
            "road": road,
            "outcome": outcome,
            "ads_count": str(rng.randint(0, 40)),
            "ads_vmt_miles": repr(rng.uniform(1e6, 5e7)),
        }
        for geo, road, outcome in cells
    ]
    path = root / "ads.csv"
    _write_csv(path, tuple(rows[0]), [list(r.values()) for r in rows])
    return path, rows


_TX_SOURCE = "\n".join(
    (
        "[source.tx]",
        "mapping = builtin:tx",
        "crash_table = crashes.csv",
        "units_table = units.csv",
        "persons_table = persons.csv",
        "vmt_table = vmt.csv",
        "vmt_mapping = builtin:tx_vmt",
    )
)


def _geocache_key(county: str, primary: str, secondary: str) -> str:
    return "|".join(" ".join(p.upper().split()) for p in ("TX", county, primary, secondary))


# --- tiled fixture -------------------------------------------------------------

# Severity-cell counts of the untiled fixture (bench/fixture, a frozen copy
# of tests/fixtures), derived by hand: known passenger units plus unknown
# units imputed at the area's passenger fraction (Austin 40/43, Round Rock
# 8/9), and any-injury counts scaled as nonfatal / (1 - 0.32) + fatal.
_FIXTURE_SEVERITY = {
    ("Austin", "Freeway"): (20 + 40 / 43, 12 / 0.68 + 2, 8, 6, 2),
    ("Austin", "SurfaceStreet"): (20, 10 / 0.68 + 1, 3, 2, 1),
    ("Round Rock", "Freeway"): (5 + 8 / 9, 1 / 0.68 + 1, 2, 1, 1),
    ("Round Rock", "SurfaceStreet"): (3, 3 / 0.68, 0, 1, 0),
}
_FIXTURE_ROWS = {"crash": 35, "unit": 62, "person": 61}


def tiled_fixture(root: Path, seed: int, tiles: int) -> Inputs:
    """The fixture dataset repeated ``tiles`` times with suffixed crash ids.

    The seed picks the suffixes and shuffles row order; neither changes
    any count, so every severity count is ``tiles`` times the fixture's.
    """
    rng = random.Random(seed)
    suffixes = [f"-{s:07d}" for s in rng.sample(range(10**7), tiles)]

    def tile(name: str, out: str) -> None:
        header, rows = _read_csv(FIXTURE / name)
        tiled = [
            [row[0] + suffix if row[0] else "", *row[1:]]
            for suffix in suffixes
            for row in rows
        ]
        rng.shuffle(tiled)
        _write_csv(root / out, header, tiled)

    tile("tx_crashes.csv", "crashes.csv")
    tile("tx_units.csv", "units.csv")
    tile("tx_persons.csv", "persons.csv")
    for name, out in (
        ("tx_vmt.csv", "vmt.csv"),
        ("shares.csv", "shares.csv"),
        ("geocache.tsv", "geocache.tsv"),
        ("roadclass_segments.geojson", "segments.geojson"),
        ("roadclass_aliases.ini", "aliases.ini"),
    ):
        shutil.copyfile(FIXTURE / name, root / out)
    run_config = _write_run_config(
        root,
        {"Austin": "TX: Travis", "Round Rock": "TX: Williamson"},
        workers=1,
        source=_TX_SOURCE,
    )
    severity = {
        (geo, road, outcome): tiles * count
        for (geo, road), counts in _FIXTURE_SEVERITY.items()
        for outcome, count in zip(OUTCOMES, counts)
    }
    ads_table, ads_rows = _write_ads(root, rng, [k for k, v in severity.items() if v > 0])
    return Inputs(
        root,
        run_config,
        ads_table,
        {
            "severity": severity,
            "rows_read": {k: tiles * v for k, v in _FIXTURE_ROWS.items()},
            "ads": ads_rows,
        },
    )



# --- dense freeway network --------------------------------------------------------

M_PER_DEG = 6371000.0 * math.pi / 180.0
# Labelled positions keep these margins from crashbench's 400 m threshold.
INSIDE_MAX_M = 330.0
OUTSIDE_MIN_M = 470.0
SEGMENTS_PER_ROUTE = 10
LEGS_PER_SEGMENT = 5


def _to_plane(lat0: float, lon0: float, lat: float, lon: float) -> tuple[float, float]:
    return (lon - lon0) * M_PER_DEG * math.cos(math.radians(lat0)), (lat - lat0) * M_PER_DEG


def _route_distance_m(lat: float, lon: float, vertices: list[tuple[float, float]]) -> float:
    """Planar point-to-polyline distance in a projection centred on the
    point; independent of crashbench's geometry."""
    best = math.inf
    pts = [_to_plane(lat, lon, a, b) for a, b in vertices]
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        dx, dy = x2 - x1, y2 - y1
        t = max(0.0, min(1.0, -(x1 * dx + y1 * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(x1 + t * dx, y1 + t * dy))
    return best


def _random_route(rng: random.Random, legs: int) -> list[tuple[float, float]]:
    lat, lon = rng.uniform(29.3, 30.2), rng.uniform(-95.9, -94.9)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    vertices = [(lat, lon)]
    for _ in range(legs):
        heading += math.radians(rng.uniform(-10.0, 10.0))
        step = rng.uniform(300.0, 500.0)
        lat += step * math.cos(heading) / M_PER_DEG
        lon += step * math.sin(heading) / (M_PER_DEG * math.cos(math.radians(lat)))
        vertices.append((lat, lon))
    return vertices


def _offset_point(rng, vertices, distance_m: float) -> tuple[float, float]:
    """A point ``distance_m`` to one side of a random interior leg point."""
    i = rng.randrange(len(vertices) - 1)
    (la1, lo1), (la2, lo2) = vertices[i], vertices[i + 1]
    t = rng.uniform(0.15, 0.85)
    lat, lon = la1 + t * (la2 - la1), lo1 + t * (lo2 - lo1)
    dx, dy = _to_plane(la1, lo1, la2, lo2)
    norm = math.hypot(dx, dy)
    side = rng.choice((-1.0, 1.0))
    nx, ny = -dy / norm * side, dx / norm * side
    return (
        lat + ny * distance_m / M_PER_DEG,
        lon + nx * distance_m / (M_PER_DEG * math.cos(math.radians(lat))),
    )


def _labelled_point(rng, vertices, placement: str) -> tuple[float, float, str]:
    """A crash position and its road label, re-drawn until its distance to
    the whole route is clearly on one side of the threshold."""
    low, high = {"inside": (0.0, 300.0), "outside": (550.0, 2500.0), "far": (6000.0, 25000.0)}[
        placement
    ]
    while True:
        lat, lon = _offset_point(rng, vertices, rng.uniform(low, high))
        distance = _route_distance_m(lat, lon, vertices)
        if placement == "inside" and distance <= INSIDE_MAX_M:
            return lat, lon, "Freeway"
        if placement != "inside" and distance >= OUTSIDE_MIN_M:
            return lat, lon, "SurfaceStreet"


def _segments_geojson(routes: list[dict]) -> dict:
    features = []
    for route in routes:
        vertices = route["vertices"]
        for start in range(0, len(vertices) - 1, LEGS_PER_SEGMENT):
            chunk = vertices[start:start + LEGS_PER_SEGMENT + 1]
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": [[lon, lat] for lat, lon in chunk]},
                    "properties": {
                        "route_id": route["id"],
                        "names": [],
                        "always_freeway": route["always"],
                    },
                }
            )
    return {"type": "FeatureCollection", "features": features}


def _name_variants(route_id: str) -> tuple[str, ...]:
    family, number = route_id.split("-")
    if family == "I":
        return (f"I-{number}", f"IH {number} SB", f"INTERSTATE {number}", f"I {number} N/B")
    return (f"SR-{number}", f"SH {number}", f"STATE HWY {number} N/B", f"TX-{number} EB")


def dense_network(root: Path, seed: int, routes: int, crashes: int) -> Inputs:
    """Thousands of multi-vertex freeway segments, mostly on routes that are
    freeway only in part, and one-vehicle crashes naming those routes at
    labelled distances: well inside or outside the 400 m threshold, or far
    from the route (which widens the search)."""
    rng = random.Random(seed)
    network = []
    for i in range(routes):
        always = i % 7 == 0
        network.append(
            {
                "id": f"I-{100 + i}" if always else f"SR-{1000 + i}",
                "always": always,
                "alias": None if always or i % 5 else f"BELTWAY {i} EXPY",
                "vertices": _random_route(rng, SEGMENTS_PER_ROUTE * LEGS_PER_SEGMENT),
            }
        )
    ambiguous = [r for r in network if not r["always"]]
    always = [r for r in network if r["always"]]

    crash_rows, unit_rows, person_rows, cache_lines = [], [], [], []
    labels = {road: 0 for road in ROADS}
    raw = {(road, outcome): 0 for road in ROADS for outcome in OUTCOMES}
    for n in range(crashes):
        crash_id = f"D{seed % 1000:03d}{n:06d}"
        secondary = ""
        draw = rng.random()
        if draw < 0.06:
            name, road = rng.choice(SURFACE_NAMES), "SurfaceStreet"
            lat, lon = rng.uniform(29.3, 30.2), rng.uniform(-95.9, -94.9)
        elif draw < 0.18:
            route = rng.choice(always)
            name, road = rng.choice(_name_variants(route["id"])), "Freeway"
            lat, lon = _offset_point(rng, route["vertices"], rng.uniform(0.0, 3000.0))
        else:
            route = rng.choice(ambiguous)
            name = route["alias"] if route["alias"] and rng.random() < 0.5 else rng.choice(
                _name_variants(route["id"])
            )
            placement = rng.choices(("inside", "outside", "far"), (45, 35, 20))[0]
            lat, lon, road = _labelled_point(rng, route["vertices"], placement)
        located = True
        if draw >= 0.18 and rng.random() < 0.02:
            # Missing coordinates: half replay from the geocoder cache,
            # half stay unlocated (ambiguous without a position: surface).
            located = False
            secondary = f"CROSS ST {n}"
            if n % 2:
                cache_lines.append(f"{_geocache_key('HARRIS', name, secondary)}\t{lat!r}\t{lon!r}")
            else:
                road = "SurfaceStreet"
        injury = rng.choices("KABCO", (2, 5, 10, 15, 68))[0]
        airbag = rng.random() < 0.2
        crash_rows.append(
            [crash_id, YEAR, "Harris", repr(lat) if located else "", repr(lon) if located else "",
             name, secondary, injury if injury != "O" else "N", rng.choice("1345"),
             rng.choice(("10", "24", "25", "40", "50"))]
        )
        unit_rows.append(
            [crash_id, 1, rng.choice(("P2", "P4", "SV", "VN", "PK")), "N", 1, "", "", 1,
             rng.randint(1, 8), 1]
        )
        person_rows.append([crash_id, 1, PERSON_INJURY_CODE[injury], "2" if airbag else "1"])
        labels[road] += 1
        for outcome in _outcomes(injury, airbag):
            raw[(road, outcome)] += 1

    _write_csv(root / "crashes.csv", CRASH_HEADER, crash_rows)
    _write_csv(root / "units.csv", UNIT_HEADER, unit_rows)
    _write_csv(root / "persons.csv", PERSON_HEADER, person_rows)
    _write_csv(
        root / "vmt.csv",
        ("County", "Functional_Class", "Year", "Annual_VMT"),
        [["Harris", "FREEWAY", YEAR, 9_000_000_000], ["Harris", "SURFACE", YEAR, 14_000_000_000]],
    )
    shutil.copyfile(FIXTURE / "shares.csv", root / "shares.csv")
    (root / "geocache.tsv").write_text("".join(line + "\n" for line in cache_lines), encoding="utf-8")
    (root / "segments.geojson").write_text(
        json.dumps(_segments_geojson(network)), encoding="utf-8"
    )
    (root / "aliases.ini").write_text(
        "[aliases]\n" + "".join(f"{r['id']} = {r['alias']}\n" for r in network if r["alias"]),
        encoding="utf-8",
    )
    run_config = _write_run_config(root, {"Metro": "TX: Harris"}, workers=1, source=_TX_SOURCE)
    ads_table, ads_rows = _write_ads(
        root, rng, [("Metro", road, outcome) for (road, outcome), k in raw.items() if k > 0]
    )
    return Inputs(root, run_config, ads_table, {"police_by_road": labels, "ads": ads_rows})


def _outcomes(injury: str, airbag: bool) -> list[str]:
    levels = ["PoliceReported"]
    if injury in "KABC":
        levels.append("AnyInjuryReported")
    if airbag:
        levels.append("AnyAirbagDeployment")
    if injury in "KA":
        levels.append("SuspectedSeriousInjuryPlus")
    if injury == "K":
        levels.append("Fatal")
    return levels


# --- many strata -----------------------------------------------------------------

# (body style, parked flag, Unit_Desc_ID, Cmv_GVWR, Gvwr_Class) per unit kind.
_UNIT_CODES = {
    "passenger": ("P4", "N", 1, "", 1),
    "unknown": ("ZZ", "N", 1, "", ""),
    "motorcycle": ("MC", "N", 1, "", ""),
    "heavy": ("TT", "N", 1, 26000, 8),
    "parked": ("P2", "Y", 1, "", 1),
    "pedestrian": ("", "N", 4, "", ""),
    "cyclist": ("", "N", 3, "", ""),
}
_UNIT_WEIGHTS = {
    "passenger": 50, "unknown": 25, "motorcycle": 5, "heavy": 6,
    "parked": 4, "pedestrian": 5, "cyclist": 5,
}
_FREEWAY_NAMES = ("I-35", "IH 35 N/B", "INTERSTATE 35", "SR-71", "SH 71 EB")
_AMBIGUOUS_NAMES = ("US-183", "US 290 W/B", "MOPAC EXPY", "LOOP 1")
CRASHES_PER_AREA = 20  # plus one fatal anchor crash per road class


def many_strata(root: Path, seed: int, areas: int) -> Inputs:
    """Several hundred single-county areas, all-roads VMT plus a freeway
    sidecar, a high share of unknown-class units and a full mix of
    outcomes and crash types.  Every severity cell of every area is
    non-empty: each (area, road) gets one fatal, airbag-deployed crash."""
    rng = random.Random(seed)
    area_names = {f"Area {i:03d}": f"CNTY{i:03d}" for i in range(areas)}
    kinds, weights = zip(*_UNIT_WEIGHTS.items())
    crash_rows, unit_rows, person_rows, cache_lines = [], [], [], []
    tally = {name: {"known": 0, "unknown": 0, "known_total": 0} for name in area_names}
    n = 0

    def add_crash(area, county, year, name, injury, units, airbag):
        nonlocal n
        n += 1
        crash_id = f"S{n:07d}"
        lat, lon = rng.uniform(30.1, 30.5), rng.uniform(-97.95, -97.6)
        secondary = ""
        located = rng.random() >= 0.01
        if not located:
            secondary = f"CROSS ST {n}"
            if n % 2:
                cache_lines.append(f"{_geocache_key(county, name, secondary)}\t{lat!r}\t{lon!r}")
        crash_rows.append(
            [crash_id, year, county.title(), repr(lat) if located else "",
             repr(lon) if located else "", name, secondary, injury if injury != "O" else "N",
             rng.choice("12345"), rng.choice(("10", "24", "25", "40", "50", "51", "99"))]
        )
        for unit_nbr, kind in enumerate(units, start=1):
            body, parked, desc, gvwr, gvwr_class = _UNIT_CODES[kind]
            event = 1 if unit_nbr == 1 or rng.random() < 0.8 else 2
            unit_rows.append(
                [crash_id, unit_nbr, body, parked, desc, gvwr, "", gvwr_class,
                 rng.randint(1, 8), event]
            )
            person_injury = injury if unit_nbr == 1 else rng.choice("BCOO")
            person_rows.append(
                [crash_id, unit_nbr, PERSON_INJURY_CODE[person_injury],
                 "2" if airbag and unit_nbr == 1 else rng.choice(("1", "1", ""))]
            )
            if area is not None and year == YEAR:
                counts = tally[area]
                counts["known"] += kind == "passenger"
                counts["unknown"] += kind == "unknown"
                counts["known_total"] += kind in ("passenger", "motorcycle", "heavy")

    for area, county in area_names.items():
        add_crash(area, county, YEAR, rng.choice(_FREEWAY_NAMES), "K", ["passenger"], True)
        add_crash(area, county, YEAR, rng.choice(SURFACE_NAMES), "K", ["passenger"], True)
        for _ in range(CRASHES_PER_AREA):
            draw = rng.random()
            names = (
                _FREEWAY_NAMES if draw < 0.45 else SURFACE_NAMES if draw < 0.9 else _AMBIGUOUS_NAMES
            )
            units = rng.choices(kinds, weights, k=rng.choice((1, 2, 2, 3)))
            year = YEAR if rng.random() < 0.97 else YEAR - 1
            add_crash(
                area, county, year, rng.choice(names), rng.choices("KABCO", (3, 7, 15, 20, 55))[0],
                units, rng.random() < 0.25,
            )
    for _ in range(areas // 10):  # outside every configured area
        add_crash(None, "OUTSIDE", YEAR, rng.choice(SURFACE_NAMES), "C", ["passenger"], False)

    _write_csv(root / "crashes.csv", CRASH_HEADER, crash_rows)
    _write_csv(root / "units.csv", UNIT_HEADER, unit_rows)
    _write_csv(root / "persons.csv", PERSON_HEADER, person_rows)
    all_roads, freeway = [], []
    for county in area_names.values():
        total = rng.uniform(2e8, 5e9)
        all_roads.append([county.title(), "ALL", YEAR, repr(total)])
        freeway.append(["TX", county.title(), YEAR, repr(total * rng.uniform(0.2, 0.6))])
    _write_csv(root / "vmt.csv", ("County", "Functional_Class", "Year", "Annual_VMT"), all_roads)
    _write_csv(root / "vmt_freeway.csv", ("State", "County", "Year", "Freeway_VMT"), freeway)
    for name, out in (
        ("shares.csv", "shares.csv"),
        ("roadclass_segments.geojson", "segments.geojson"),
        ("roadclass_aliases.ini", "aliases.ini"),
    ):
        shutil.copyfile(FIXTURE / name, root / out)
    (root / "geocache.tsv").write_text("".join(line + "\n" for line in cache_lines), encoding="utf-8")
    run_config = _write_run_config(
        root,
        {name: f"TX: {county.title()}" for name, county in area_names.items()},
        workers=1,
        source=_TX_SOURCE
        + "\nvmt_sidecar = vmt_freeway.csv\nvmt_sidecar_mapping = builtin:hpms_freeway",
    )
    ads_table, ads_rows = _write_ads(
        root,
        rng,
        [(area, road, outcome) for area in area_names for road in ROADS for outcome in OUTCOMES],
    )
    return Inputs(root, run_config, ads_table, {"area_passengers": tally, "ads": ads_rows})


GENERATORS = {
    "tiled-fixture": tiled_fixture,
    "dense-network": dense_network,
    "many-strata": many_strata,
}
