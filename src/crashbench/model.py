"""Canonical domain types for crash records, exposure data, and geography.

Every downstream stage (road classification, cohort selection, taxonomy,
rates) is defined over these normalized types, never over raw state
schemas.  State-specific semantics live in mapping configs consumed by
:mod:`crashbench.ingest`.

All types are immutable after construction.  The per-crash types,
``CrashRecord``, ``VehicleUnit`` and ``LatLon`` (and
``roadclass.RoadClassification`` and ``rates.RateCell``), are
``typing.NamedTuple`` classes:
one run builds, compares and hashes tens of thousands of them.  A tuple
is built by one call to tuple's constructor and is compared and hashed
in C, where a frozen dataclass sets each field through
``object.__setattr__`` and hashes in Python.  They keep attribute
access, defaults and equality by value, and ``_replace`` makes a
changed copy.  Being tuples, they also equal a plain tuple of the same
fields, so nothing may compare them with other tuples (or mix them in
one set or dict key with other tuples).
"""

from __future__ import annotations

import configparser
import difflib
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional


class CrashBenchError(Exception):
    """Base class for all package errors."""


class ConfigError(CrashBenchError):
    """A configuration file is missing, malformed, or inconsistent."""


class InvalidOptionError(ConfigError, ValueError):
    """A parameter or config option holds a value outside its domain;
    the message names the option.  Also a ValueError, so callers that
    validate arguments the usual way still catch it."""


class DataError(CrashBenchError):
    """Input data violates a hard contract (not a per-row skip)."""


class Memo(dict):
    """The value ``make`` gives for each key, made on the key's first
    lookup only; a key that ``make`` refuses is not stored."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def read_ini(path: str | Path, what: str) -> configparser.ConfigParser:
    """Parse the INI file at ``path``: options keep their case and values
    are read literally (no '%' interpolation), and a byte-order mark is
    dropped.  A missing file is a ConfigError, and so is one that is not
    UTF-8 text or that configparser rejects (a repeated section or
    option, a line outside any section); configparser's message, which
    names the file and line, is kept."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(os.fspath(path), encoding="utf-8-sig")
    except configparser.Error as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed {what}: {path} is not UTF-8 text ({exc})") from None
    if not read:
        raise ConfigError(f"{what} not found: {path}")
    return parser


def ini_sections(parser: configparser.ConfigParser) -> list[str]:
    """The sections ``read_ini`` found, and DEFAULT first when it holds
    options: configparser copies those into every section, so a strict
    reader rejects DEFAULT as an unknown section."""
    default = [parser.default_section] if parser.defaults() else []
    return default + parser.sections()


def check_names(
    path, section: Optional[str], names: Iterable[str], known: Iterable[str], what: str
) -> None:
    """Every name must be one of ``known``.  Another is a ConfigError
    naming the file, the section and the name (with ``section`` None the
    names are sections), and the closest known name or else all of them."""
    known = tuple(known)
    for name in names:
        if name not in known:
            close = difflib.get_close_matches(name, known, n=1)
            hint = f"did you mean {close[0]!r}" if close else f"expected {', '.join(known)}"
            where = f"[{name}]" if section is None else f"[{section}] {name}"
            raise ConfigError(f"{path}: {where}: unknown {what}; {hint}")


class LatLon(NamedTuple):
    lat: float
    lon: float


def valid_coordinate(lat: float, lon: float) -> bool:
    """The one definition of a usable position: lat in [-90, 90] and lon
    in [-180, 180].  The range check also rejects NaN and infinities."""
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


class IdentityEnum(Enum):
    """Base of every crashbench enumeration.  Members hash by identity,
    in C, rather than by name through ``Enum.__hash__``: members are
    singletons, so equal members are the same object.  Iteration order
    over a set of members is therefore per process; no output depends on
    it, because tallies are whole counts and every table is sorted."""

    __hash__ = object.__hash__


class KabcoLevel(IdentityEnum):
    """Police injury scale: K fatal, A suspected serious, B suspected
    minor, C possible, O no injury.  UNKNOWN never participates in
    severity comparisons."""

    K = "K"
    A = "A"
    B = "B"
    C = "C"
    O = "O"  # noqa: E741 - canonical KABCO letter
    UNKNOWN = "U"

    @property
    def severity_rank(self) -> Optional[int]:
        """K > A > B > C > O; None for UNKNOWN."""
        return _KABCO_RANK[self]

    def is_injury(self) -> bool:
        return self in (KabcoLevel.K, KabcoLevel.A, KabcoLevel.B, KabcoLevel.C)


_KABCO_RANK = {
    KabcoLevel.K: 4,
    KabcoLevel.A: 3,
    KabcoLevel.B: 2,
    KabcoLevel.C: 1,
    KabcoLevel.O: 0,
    KabcoLevel.UNKNOWN: None,
}


def worst_injury(levels: Iterable[KabcoLevel]) -> KabcoLevel:
    """Reduce person-level KABCO levels to the crash-level worst injury.

    UNKNOWN entries are ignored; if every entry is UNKNOWN (or the input
    is empty) the result is UNKNOWN.  Idempotent and order-independent.
    """
    best: Optional[KabcoLevel] = None
    for level in levels:
        rank = level.severity_rank
        if rank is None:
            continue
        if best is None or rank > best.severity_rank:
            best = level
    return best if best is not None else KabcoLevel.UNKNOWN


class VehicleClass(IdentityEnum):
    PASSENGER = "Passenger"
    MOTORCYCLE = "Motorcycle"
    HEAVY_VEHICLE = "HeavyVehicle"
    CYCLIST = "Cyclist"
    PEDESTRIAN = "Pedestrian"
    OTHER = "Other"
    UNKNOWN = "Unknown"


VRU_CLASSES = frozenset({VehicleClass.PEDESTRIAN, VehicleClass.CYCLIST})


class RoadClass(IdentityEnum):
    """Binary road type used for rate stratification."""

    FREEWAY = "Freeway"
    SURFACE_STREET = "SurfaceStreet"


class FunctionalClass(IdentityEnum):
    """Functional class of a mileage record; ALL_ROADS appears only in
    sources that do not break VMT down by road type."""

    FREEWAY = "Freeway"
    SURFACE_STREET = "SurfaceStreet"
    ALL_ROADS = "AllRoads"


class JunctionRelation(IdentityEnum):
    INTERSECTION = "Intersection"
    NON_JUNCTION = "NonJunction"
    RAMP_RELATED = "RampRelated"
    UNKNOWN = "Unknown"


class MannerOfCollision(IdentityEnum):
    FRONT_TO_REAR = "FrontToRear"
    LATERAL_SAME_DIRECTION = "LateralSameDirection"
    OPPOSITE_DIRECTION = "OppositeDirection"
    CROSSING_PATH = "CrossingPath"
    SINGLE_VEHICLE = "SingleVehicle"
    OTHER = "Other"
    UNKNOWN = "Unknown"


class VehicleUnit(NamedTuple):
    """One unit (vehicle or non-motorist) involved in a crash."""

    unit_id: int
    vehicle_class: VehicleClass = VehicleClass.UNKNOWN
    in_transport: bool = False
    first_contact_event_index: Optional[int] = None  # 1-based ordinal


class CrashRecord(NamedTuple):
    crash_id: str
    state: str
    county: str
    year: int
    worst_injury: KabcoLevel = KabcoLevel.UNKNOWN
    location: Optional[LatLon] = None
    primary_road_name: str = ""
    secondary_road_name: Optional[str] = None
    units: tuple[VehicleUnit, ...] = ()
    junction_relation: JunctionRelation = JunctionRelation.UNKNOWN
    manner_of_collision: MannerOfCollision = MannerOfCollision.UNKNOWN
    airbag_deployed: bool = False  # any person or unit row flags a deployment


@dataclass(frozen=True)
class GeoArea:
    """A named service area: one state, one or more counties.

    The name, state and counties are written to the report tables as
    free text, so each must read back as written: a blank name or state,
    a control character anywhere, or a ';' (the tables' county
    separator) in a county is a ConfigError."""

    name: str
    state: str
    counties: frozenset[str]

    def __post_init__(self):
        if not self.counties:
            raise ValueError(f"GeoArea {self.name!r} has no counties")
        object.__setattr__(self, "state", _normalized(self.state))
        object.__setattr__(self, "counties", frozenset(map(_normalized, self.counties)))
        if not self.name.strip() or not self.state:
            raise ConfigError(f"area {self.name!r}: the name and the state must not be blank")
        for text in (self.name, self.state, *sorted(self.counties)):
            if _CONTROL_CHARACTER.search(text):
                raise ConfigError(f"area {self.name!r}: {text!r} holds a control character")
        for county in self.counties:
            if ";" in county:
                raise ConfigError(
                    f"area {self.name!r}: county {county!r} holds ';', the county separator"
                )

    def contains(self, state: str, county: str) -> bool:
        state, county = county_key(state, county)
        return state == self.state and county in self.counties


# Unicode category Cc: the C0 and C1 controls and DEL.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")


def _normalized(name: str) -> str:
    return name.strip().upper()


def county_key(state: str, county: str) -> tuple[str, str]:
    """The normalized (state, county) pair that areas match records on."""
    return _normalized(state), _normalized(county)


def county_areas(areas: Iterable[GeoArea]) -> dict[tuple[str, str], GeoArea]:
    """Map each normalized (state, county) pair to the one area that
    contains it; look records up with ``county_key``.

    Two areas sharing a county are a ConfigError: the county's VMT would
    count in both areas' exposure while its crashes counted in one.
    """
    by_county: dict[tuple[str, str], GeoArea] = {}
    for area in areas:
        for county in sorted(area.counties):
            key = (area.state, county)
            if key in by_county:
                raise ConfigError(
                    f"county {area.state}/{county} is in two areas: "
                    f"{by_county[key].name!r} and {area.name!r}"
                )
            by_county[key] = area
    return by_county


# Default study areas: state plus county definitions for the five urban
# regions the benchmarks cover.
DEFAULT_GEO_AREAS = (
    GeoArea("Atlanta", "GA", frozenset({"FULTON", "DEKALB", "CLAYTON"})),
    GeoArea("Austin", "TX", frozenset({"TRAVIS"})),
    GeoArea("Los Angeles", "CA", frozenset({"LOS ANGELES"})),
    GeoArea("Phoenix", "AZ", frozenset({"MARICOPA"})),
    GeoArea(
        "San Francisco to San Jose",
        "CA",
        frozenset({"SAN FRANCISCO", "SAN MATEO", "SANTA CLARA"}),
    ),
)


@dataclass(frozen=True)
class VmtRecord:
    """Annual vehicle-miles for one county and functional class."""

    state: str
    county: str
    functional_class: FunctionalClass
    year: int
    vmt_miles: float

    def __post_init__(self):
        if not 0.0 < self.vmt_miles < math.inf:
            raise DataError(
                f"vmt_miles must be a finite number > 0, got {self.vmt_miles} "
                f"({self.state}/{self.county}/{self.year})"
            )
        object.__setattr__(self, "state", self.state.strip().upper())
        object.__setattr__(self, "county", self.county.strip().upper())


class MissingShareError(CrashBenchError):
    """No passenger-VMT share for the requested key."""


@dataclass(frozen=True)
class PassengerShareTable:
    """Fraction of VMT attributable to passenger vehicles, keyed by
    (state, functional class, urban flag).  States are stored stripped
    and upper-cased; two keys that are then the same are a ConfigError
    naming both."""

    shares: Mapping[tuple[str, FunctionalClass, bool], float] = field(
        default_factory=dict
    )

    def __post_init__(self):
        normalized = {}
        given = {}
        for (state, fclass, urban), fraction in self.shares.items():
            if not (0.0 < fraction <= 1.0):
                raise ConfigError(
                    f"passenger share must be in (0, 1], got {fraction} for "
                    f"({state}, {fclass.value}, urban={urban})"
                )
            key = (state.strip().upper(), fclass, bool(urban))
            if key in given:
                first_state, first_urban = given[key]
                raise ConfigError(
                    f"passenger share keys ({first_state!r}, {fclass.value}, "
                    f"urban={first_urban}) and ({state!r}, {fclass.value}, urban={urban}) "
                    f"are the same key ({key[0]}, {fclass.value}, urban={key[2]})"
                )
            given[key] = (state, urban)
            normalized[key] = float(fraction)
        object.__setattr__(self, "shares", normalized)

    def share_for(self, state: str, fclass: FunctionalClass, urban: bool) -> float:
        key = (state.strip().upper(), fclass, bool(urban))
        try:
            return self.shares[key]
        except KeyError:
            raise MissingShareError(
                f"no passenger share for state={key[0]} class={fclass.value} "
                f"urban={urban}"
            ) from None
