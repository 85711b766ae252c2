"""Outcome-level sets and crash-type classification.

Outcome levels nest: Fatal ⊆ SuspectedSeriousInjuryPlus ⊆
AnyInjuryReported ⊆ PoliceReported.  AnyAirbagDeployment is also a
subset of PoliceReported but independent of the injury chain; it reads
the crash's own airbag flag, not its units.

Crash types are assigned per (crash, ego unit) by a fixed decision
cascade; the intersection bucket applies on surface streets only, and a
vehicle first involved in a second-or-later contact event is a
secondary crash regardless of its collision partner.  Contact events
are read from the units' first-contact ordinals: the crash's first
contact is the smallest ordinal any unit holds, and a unit's collision
partners are the other units with its ordinal.

``CrashTypeCascade`` resolves a gate order to its gates once and types
all the counted units of a crash in one call, deriving what the gates
read from the crash (first contact, units by id, in-transport units)
in one walk over its units rather than per unit and per gate.
``classify_crash_type`` is the same cascade for a single unit.

Records are typed as ingest emits them, meeting the record contract
(see ``ingest.load_crash_table``).  A record that repeats a unit id,
which ingest never emits (it skips the repeated unit row), may type
otherwise than the same record without the repeat: the id looks up its
last copy, while the gates still read every copy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .model import (
    CrashBenchError,
    CrashRecord,
    IdentityEnum,
    JunctionRelation,
    KabcoLevel,
    MannerOfCollision,
    RoadClass,
    VehicleClass,
    VehicleUnit,
)


class OutcomeLevel(IdentityEnum):
    POLICE_REPORTED = "PoliceReported"
    ANY_INJURY_REPORTED = "AnyInjuryReported"
    ANY_AIRBAG_DEPLOYMENT = "AnyAirbagDeployment"
    SUSPECTED_SERIOUS_INJURY_PLUS = "SuspectedSeriousInjuryPlus"
    FATAL = "Fatal"


# Declaration order is the order of outcome cells in every table.
OUTCOME_RANK = {outcome: rank for rank, outcome in enumerate(OutcomeLevel)}


class CrashType(IdentityEnum):
    V2V_FRONT_TO_REAR = "V2VFrontToRear"
    V2V_LATERAL = "V2VLateral"
    V2V_OPPOSITE_DIRECTION = "V2VOppositeDirection"
    INTERSECTION = "Intersection"
    SINGLE_VEHICLE = "SingleVehicle"
    PEDESTRIAN = "Pedestrian"
    CYCLIST = "Cyclist"
    MOTORCYCLIST = "Motorcyclist"
    SECONDARY_CRASH = "SecondaryCrash"
    UNKNOWN_OTHER = "UnknownOther"


# The string of each stratum member, as the tables print it, read once:
# ``Enum.value`` is a Python-level property on every access.
LABEL = {
    member: member.value for enum in (RoadClass, OutcomeLevel, CrashType) for member in enum
}


class UnknownEgoError(CrashBenchError):
    """The requested ego unit id is not present in the record."""


def classify_outcome(record: CrashRecord) -> set[OutcomeLevel]:
    """Return the set of outcome levels the crash qualifies for.

    PoliceReported is always present.  Unknown worst injury contributes
    no injury level (a documented conservative default).  Airbag
    deployment is a fact of the whole crash (``record.airbag_deployed``).
    """
    levels = {OutcomeLevel.POLICE_REPORTED}
    worst = record.worst_injury
    if worst.is_injury():
        levels.add(OutcomeLevel.ANY_INJURY_REPORTED)
    if worst in (KabcoLevel.K, KabcoLevel.A):
        levels.add(OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS)
    if worst is KabcoLevel.K:
        levels.add(OutcomeLevel.FATAL)
    if record.airbag_deployed:
        levels.add(OutcomeLevel.ANY_AIRBAG_DEPLOYMENT)
    return levels


# In precedence order: a pedestrian partner outranks a cyclist, and a
# cyclist a motorcyclist.
_VRU_TYPE = {
    VehicleClass.PEDESTRIAN: CrashType.PEDESTRIAN,
    VehicleClass.CYCLIST: CrashType.CYCLIST,
    VehicleClass.MOTORCYCLE: CrashType.MOTORCYCLIST,
}

_MANNER_TYPE = {
    MannerOfCollision.OPPOSITE_DIRECTION: CrashType.V2V_OPPOSITE_DIRECTION,
    MannerOfCollision.FRONT_TO_REAR: CrashType.V2V_FRONT_TO_REAR,
    MannerOfCollision.LATERAL_SAME_DIRECTION: CrashType.V2V_LATERAL,
}


class _CrashFacts:
    """What the gates read from one crash, derived in one walk over its
    units: the first contact (the smallest first-contact ordinal, None
    when no unit has one), the units by id and the in-transport units."""

    __slots__ = ("record", "first_contact", "units", "in_transport")

    def __init__(self, record: CrashRecord):
        self.record = record
        self.units = units = {}
        self.in_transport = in_transport = []
        first_contact = None
        for unit in record.units:
            units[unit.unit_id] = unit
            if unit.in_transport:
                in_transport.append(unit)
            ordinal = unit.first_contact_event_index
            if ordinal is not None and (first_contact is None or ordinal < first_contact):
                first_contact = ordinal
        self.first_contact = first_contact


def _collision_partners(facts: _CrashFacts, ego: VehicleUnit) -> list[VehicleUnit]:
    """The other units with the ego's first-contact ordinal; every other
    unit when the ego has none."""
    ordinal = ego.first_contact_event_index
    return [
        u
        for u in facts.record.units
        if u.unit_id != ego.unit_id
        and (ordinal is None or u.first_contact_event_index == ordinal)
    ]


# Each gate inspects the crash and either claims it for the ego or
# passes (returns None); a gate whose required fields are missing passes.


def _gate_secondary(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Ego not involved in the crash's first contact: a first contact is
    recorded and the ego's ordinal is absent or later."""
    first = facts.first_contact
    ordinal = ego.first_contact_event_index
    if first is not None and (ordinal is None or ordinal > first):
        return CrashType.SECONDARY_CRASH
    return None


def _gate_vru(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Vulnerable-road-user collision partners."""
    partner_classes = {p.vehicle_class for p in _collision_partners(facts, ego)}
    for cls, crash_type in _VRU_TYPE.items():
        if cls in partner_classes:
            return crash_type
    return None


def _gate_intersection(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Crossing paths at a surface-street junction.  Freeways have no
    cross traffic, so the bucket never applies there."""
    record = facts.record
    if (
        road is RoadClass.SURFACE_STREET
        and record.junction_relation is JunctionRelation.INTERSECTION
        and record.manner_of_collision is MannerOfCollision.CROSSING_PATH
    ):
        return CrashType.INTERSECTION
    return None


def _gate_single_vehicle(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Single in-transport vehicle: fixed object, rollover, departure."""
    in_transport = facts.in_transport
    if len(in_transport) == 1 and in_transport[0].unit_id == ego.unit_id:
        return CrashType.SINGLE_VEHICLE
    if (
        not in_transport
        and facts.record.manner_of_collision is MannerOfCollision.SINGLE_VEHICLE
    ):
        return CrashType.SINGLE_VEHICLE
    return None


def _gate_v2v_geometry(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Two or more vehicles: collision geometry from the manner code."""
    if len(facts.in_transport) >= 2:
        return _MANNER_TYPE.get(facts.record.manner_of_collision)
    return None


_GATES = {
    "secondary": _gate_secondary,
    "vru": _gate_vru,
    "intersection": _gate_intersection,
    "single_vehicle": _gate_single_vehicle,
    "v2v_geometry": _gate_v2v_geometry,
}

GATE_NAMES = frozenset(_GATES)

# Default precedence: secondary contact first, then collision-partner
# VRU buckets, the surface-street intersection bucket, single-vehicle,
# and the vehicle-to-vehicle geometry buckets.
DEFAULT_GATE_ORDER = ("secondary", "vru", "intersection", "single_vehicle", "v2v_geometry")


class CrashTypeCascade:
    """The crash-type decision cascade for one gate order, whose names
    are resolved to gates once; an unknown name is a CrashBenchError.

    Gates run in the given precedence order (the default resolves, for
    example, a VRU struck in a secondary contact as SecondaryCrash);
    anything no gate claims lands in UnknownOther.
    """

    def __init__(self, gate_order: tuple[str, ...] = DEFAULT_GATE_ORDER):
        gates = []
        for name in gate_order:
            gate = _GATES.get(name)
            if gate is None:
                raise CrashBenchError(f"unknown crash-type gate {name!r}")
            gates.append(gate)
        self._gates = tuple(gates)

    def classify_units(
        self, record: CrashRecord, unit_ids: Iterable[int], road: RoadClass
    ) -> list[CrashType]:
        """The crash type of each given unit of this crash, in order.
        What the gates read from the crash is derived once for all the
        units.  A unit id not in the record is an UnknownEgoError."""
        facts = _CrashFacts(record)
        types = []
        for unit_id in unit_ids:
            ego = facts.units.get(unit_id)
            if ego is None:
                raise UnknownEgoError(f"unit {unit_id} not in crash {record.crash_id}")
            for gate in self._gates:
                result = gate(facts, ego, road)
                if result is not None:
                    break
            else:
                result = CrashType.UNKNOWN_OTHER
            types.append(result)
        return types


def classify_crash_type(
    record: CrashRecord,
    ego: int,
    road: RoadClass,
    gate_order: tuple[str, ...] = DEFAULT_GATE_ORDER,
) -> CrashType:
    """Assign exactly one crash type to the ego unit in this crash: the
    ``CrashTypeCascade`` of ``gate_order`` for that one unit.  Total:
    never raises for a valid ego and gate order, always returns an
    enumeration member."""
    (crash_type,) = _cascade(tuple(gate_order)).classify_units(record, (ego,), road)
    return crash_type


@lru_cache(maxsize=128)
def _cascade(gate_order: tuple[str, ...]) -> CrashTypeCascade:
    return CrashTypeCascade(gate_order)
