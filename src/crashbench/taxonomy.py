"""Outcome-level sets and crash-type classification.

Outcome levels nest: Fatal ⊆ SuspectedSeriousInjuryPlus ⊆
AnyInjuryReported ⊆ PoliceReported.  AnyAirbagDeployment is also a
subset of PoliceReported but independent of the injury chain.

Crash types are assigned per (crash, ego unit) by a fixed decision
cascade; the intersection bucket applies on surface streets only, and a
vehicle first involved in a second-or-later contact event is a
secondary crash regardless of its collision partner.

``CrashTypeCascade`` resolves a gate order to its gates once and types
all the counted units of a crash in one call, deriving what the gates
read from the crash (first contact event, events and units by id,
in-transport units) once per crash rather than per unit and per gate.
``classify_crash_type`` is the same cascade for a single unit.
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
    deployment in any involved vehicle applies to the whole crash.
    """
    levels = {OutcomeLevel.POLICE_REPORTED}
    worst = record.worst_injury
    if worst.is_injury():
        levels.add(OutcomeLevel.ANY_INJURY_REPORTED)
    if worst in (KabcoLevel.K, KabcoLevel.A):
        levels.add(OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS)
    if worst is KabcoLevel.K:
        levels.add(OutcomeLevel.FATAL)
    if any(unit.airbag_deployed is True for unit in record.units):
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
    """What the gates read from one crash, derived once for all its
    units: the first contact event, events and units by id (the first
    copy of a repeated id wins, as in ``CrashRecord.unit_by_id``) and
    the in-transport units."""

    __slots__ = ("record", "first_event", "events", "units", "in_transport")

    def __init__(self, record: CrashRecord):
        self.record = record
        self.first_event = record.event_sequence[0] if record.event_sequence else None
        # Built in reverse, so that the first copy of a key is stored last.
        self.events = {event.index: event for event in reversed(record.event_sequence)}
        self.units = {unit.unit_id: unit for unit in reversed(record.units)}
        self.in_transport = [u for u in record.units if u.in_transport]


def _collision_partners(facts: _CrashFacts, ego: VehicleUnit) -> list[VehicleUnit]:
    """Units sharing the ego's first contact event; every other unit if
    no event data is recorded."""
    event = facts.events.get(ego.first_contact_event_index)
    if event is not None:
        return [
            u
            for uid in event.unit_ids
            if uid != ego.unit_id
            for u in (facts.units.get(uid),)
            if u is not None
        ]
    return [u for u in facts.record.units if u.unit_id != ego.unit_id]


# Each gate inspects the crash and either claims it for the ego or
# passes (returns None); a gate whose required fields are missing passes.


def _gate_secondary(facts: _CrashFacts, ego: VehicleUnit, road: RoadClass):
    """Ego not involved in the first contact event of the sequence."""
    first = facts.first_event
    if first is None:
        return None
    if ego.first_contact_event_index is not None:
        if ego.first_contact_event_index > first.index:
            return CrashType.SECONDARY_CRASH
    elif ego.unit_id not in first.unit_ids:
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
