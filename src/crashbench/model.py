"""Canonical domain types for crash records, exposure data, and geography.

Every downstream stage (road classification, cohort selection, taxonomy,
rates) is defined over these normalized types, never over raw state
schemas.  State-specific semantics live in mapping configs consumed by
:mod:`crashbench.ingest`.

All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional


class CrashBenchError(Exception):
    """Base class for all package errors."""


class ConfigError(CrashBenchError):
    """A configuration file is missing, malformed, or inconsistent."""


class DataError(CrashBenchError):
    """Input data violates a hard contract (not a per-row skip)."""


class LatLon(NamedTuple):
    lat: float
    lon: float


class KabcoLevel(Enum):
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


class VehicleClass(Enum):
    PASSENGER = "Passenger"
    MOTORCYCLE = "Motorcycle"
    HEAVY_VEHICLE = "HeavyVehicle"
    CYCLIST = "Cyclist"
    PEDESTRIAN = "Pedestrian"
    OTHER = "Other"
    UNKNOWN = "Unknown"


VRU_CLASSES = frozenset({VehicleClass.PEDESTRIAN, VehicleClass.CYCLIST})


class RoadClass(Enum):
    """Binary road type used for rate stratification."""

    FREEWAY = "Freeway"
    SURFACE_STREET = "SurfaceStreet"


class FunctionalClass(Enum):
    """Functional class of a mileage record; ALL_ROADS appears only in
    sources that do not break VMT down by road type."""

    FREEWAY = "Freeway"
    SURFACE_STREET = "SurfaceStreet"
    ALL_ROADS = "AllRoads"

    @property
    def road_class(self) -> RoadClass:
        if self is FunctionalClass.FREEWAY:
            return RoadClass.FREEWAY
        if self is FunctionalClass.SURFACE_STREET:
            return RoadClass.SURFACE_STREET
        raise ValueError("AllRoads does not map to a single road class")


class JunctionRelation(Enum):
    INTERSECTION = "Intersection"
    NON_JUNCTION = "NonJunction"
    RAMP_RELATED = "RampRelated"
    UNKNOWN = "Unknown"


class MannerOfCollision(Enum):
    FRONT_TO_REAR = "FrontToRear"
    LATERAL_SAME_DIRECTION = "LateralSameDirection"
    OPPOSITE_DIRECTION = "OppositeDirection"
    CROSSING_PATH = "CrossingPath"
    SINGLE_VEHICLE = "SingleVehicle"
    OTHER = "Other"
    UNKNOWN = "Unknown"


COMPASS_OCTANTS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")


@dataclass(frozen=True)
class VehicleUnit:
    """One unit (vehicle or non-motorist) involved in a crash."""

    unit_id: int
    vehicle_class: VehicleClass = VehicleClass.UNKNOWN
    in_transport: bool = False
    airbag_deployed: Optional[bool] = None  # None = unknown
    maneuver: str = ""
    travel_direction: Optional[str] = None  # compass octant
    first_contact_event_index: Optional[int] = None  # 1-based ordinal


@dataclass(frozen=True)
class ContactEvent:
    """One contact event in a crash sequence and the units involved."""

    index: int  # 1-based position in the sequence
    unit_ids: tuple[int, ...]


@dataclass(frozen=True)
class CrashRecord:
    crash_id: str
    state: str
    county: str
    year: int
    worst_injury: KabcoLevel = KabcoLevel.UNKNOWN
    location: Optional[LatLon] = None
    primary_road_name: str = ""
    secondary_road_name: Optional[str] = None
    units: tuple[VehicleUnit, ...] = ()
    event_sequence: tuple[ContactEvent, ...] = ()
    junction_relation: JunctionRelation = JunctionRelation.UNKNOWN
    manner_of_collision: MannerOfCollision = MannerOfCollision.UNKNOWN

    def unit_by_id(self, unit_id: int) -> Optional[VehicleUnit]:
        for unit in self.units:
            if unit.unit_id == unit_id:
                return unit
        return None


def build_event_sequence(units: Iterable[VehicleUnit]) -> tuple[ContactEvent, ...]:
    """Derive the ordered contact-event list from per-unit first-contact
    ordinals.  Units with no recorded ordinal do not appear in any event."""
    by_index: dict[int, list[int]] = {}
    for unit in units:
        idx = unit.first_contact_event_index
        if idx is not None and idx >= 1:
            by_index.setdefault(idx, []).append(unit.unit_id)
    return tuple(
        ContactEvent(index=idx, unit_ids=tuple(sorted(by_index[idx])))
        for idx in sorted(by_index)
    )


@dataclass(frozen=True)
class GeoArea:
    """A named service area: one state, one or more counties."""

    name: str
    state: str
    counties: frozenset[str]

    def __post_init__(self):
        if not self.counties:
            raise ValueError(f"GeoArea {self.name!r} has no counties")
        object.__setattr__(self, "state", self.state.strip().upper())
        object.__setattr__(
            self, "counties", frozenset(c.strip().upper() for c in self.counties)
        )

    def contains(self, state: str, county: str) -> bool:
        return (
            state.strip().upper() == self.state
            and county.strip().upper() in self.counties
        )


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
        if self.vmt_miles <= 0:
            raise DataError(
                f"vmt_miles must be positive, got {self.vmt_miles} "
                f"({self.state}/{self.county}/{self.year})"
            )
        object.__setattr__(self, "state", self.state.strip().upper())
        object.__setattr__(self, "county", self.county.strip().upper())


class MissingShareError(CrashBenchError):
    """No passenger-VMT share for the requested key."""


@dataclass(frozen=True)
class PassengerShareTable:
    """Fraction of VMT attributable to passenger vehicles, keyed by
    (state, functional class, urban flag)."""

    shares: Mapping[tuple[str, FunctionalClass, bool], float] = field(
        default_factory=dict
    )

    def __post_init__(self):
        normalized = {}
        for (state, fclass, urban), fraction in self.shares.items():
            if not (0.0 < fraction <= 1.0):
                raise ConfigError(
                    f"passenger share must be in (0, 1], got {fraction} for "
                    f"({state}, {fclass.value}, urban={urban})"
                )
            normalized[(state.strip().upper(), fclass, bool(urban))] = float(fraction)
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


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a record.  Violations are data,
    not exceptions: validation never raises."""

    rule: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}({self.field}): {self.message}"


def validate_record(record: CrashRecord) -> list[Violation]:
    """Check a crash record against the type invariants.

    Returns an empty list iff every invariant holds.
    """
    violations: list[Violation] = []
    if not record.units:
        violations.append(Violation("NoUnits", "units", "record has no units"))
    if record.location is not None:
        lat, lon = record.location
        if not -90.0 <= lat <= 90.0:
            violations.append(
                Violation("LatitudeOutOfRange", "location.lat", f"{lat} not in [-90, 90]")
            )
        if not -180.0 <= lon <= 180.0:
            violations.append(
                Violation(
                    "LongitudeOutOfRange", "location.lon", f"{lon} not in [-180, 180]"
                )
            )
    seen_ids = set()
    for unit in record.units:
        if unit.unit_id in seen_ids:
            violations.append(
                Violation("DuplicateUnitId", "units", f"unit_id {unit.unit_id} repeats")
            )
        seen_ids.add(unit.unit_id)
        if unit.vehicle_class in VRU_CLASSES and unit.in_transport:
            violations.append(
                Violation(
                    "VruInTransport",
                    f"units[{unit.unit_id}].in_transport",
                    f"{unit.vehicle_class.value} unit flagged as in-transport vehicle",
                )
            )
        if (
            unit.first_contact_event_index is not None
            and unit.first_contact_event_index < 1
        ):
            violations.append(
                Violation(
                    "BadEventIndex",
                    f"units[{unit.unit_id}].first_contact_event_index",
                    "event ordinals are 1-based",
                )
            )
        if unit.travel_direction is not None and unit.travel_direction not in COMPASS_OCTANTS:
            violations.append(
                Violation(
                    "BadTravelDirection",
                    f"units[{unit.unit_id}].travel_direction",
                    f"{unit.travel_direction!r} is not a compass octant",
                )
            )
    return violations
