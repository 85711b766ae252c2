"""Outcome-level sets and crash-type classification.

Outcome levels nest: Fatal ⊆ SuspectedSeriousInjuryPlus ⊆
AnyInjuryReported ⊆ PoliceReported.  AnyAirbagDeployment is also a
subset of PoliceReported but independent of the injury chain.

Crash types are assigned per (crash, ego unit) by a fixed decision
cascade; the intersection bucket applies on surface streets only, and a
vehicle first involved in a second-or-later contact event is a
secondary crash regardless of its collision partner.
"""

from __future__ import annotations

from enum import Enum

from .model import (
    CrashBenchError,
    CrashRecord,
    JunctionRelation,
    KabcoLevel,
    MannerOfCollision,
    RoadClass,
    VehicleClass,
    VehicleUnit,
)


class OutcomeLevel(Enum):
    POLICE_REPORTED = "PoliceReported"
    ANY_INJURY_REPORTED = "AnyInjuryReported"
    ANY_AIRBAG_DEPLOYMENT = "AnyAirbagDeployment"
    SUSPECTED_SERIOUS_INJURY_PLUS = "SuspectedSeriousInjuryPlus"
    FATAL = "Fatal"


# Declaration order is the order of outcome cells in every table.
OUTCOME_RANK = {outcome: rank for rank, outcome in enumerate(OutcomeLevel)}

# Severity chain, least to most severe; AnyAirbagDeployment sits outside it.
INJURY_CHAIN = (
    OutcomeLevel.POLICE_REPORTED,
    OutcomeLevel.ANY_INJURY_REPORTED,
    OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
    OutcomeLevel.FATAL,
)


class CrashType(Enum):
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


def _collision_partners(record: CrashRecord, ego: VehicleUnit) -> list[VehicleUnit]:
    """Units sharing the ego's first contact event; every other unit if
    no event data is recorded."""
    if record.event_sequence and ego.first_contact_event_index is not None:
        for event in record.event_sequence:
            if event.index == ego.first_contact_event_index:
                return [
                    u
                    for uid in event.unit_ids
                    if uid != ego.unit_id
                    for u in (record.unit_by_id(uid),)
                    if u is not None
                ]
    return [u for u in record.units if u.unit_id != ego.unit_id]


# Each gate inspects the record and either claims the crash or passes
# (returns None); a gate whose required fields are missing passes.


def _gate_secondary(record: CrashRecord, ego: VehicleUnit, road: RoadClass):
    """Ego not involved in the first contact event of the sequence."""
    if not record.event_sequence:
        return None
    first = record.event_sequence[0]
    if ego.first_contact_event_index is not None:
        if ego.first_contact_event_index > first.index:
            return CrashType.SECONDARY_CRASH
    elif ego.unit_id not in first.unit_ids:
        return CrashType.SECONDARY_CRASH
    return None


def _gate_vru(record: CrashRecord, ego: VehicleUnit, road: RoadClass):
    """Vulnerable-road-user collision partners."""
    partners = _collision_partners(record, ego)
    for cls in (VehicleClass.PEDESTRIAN, VehicleClass.CYCLIST, VehicleClass.MOTORCYCLE):
        if any(p.vehicle_class is cls for p in partners):
            return _VRU_TYPE[cls]
    return None


def _gate_intersection(record: CrashRecord, ego: VehicleUnit, road: RoadClass):
    """Crossing paths at a surface-street junction.  Freeways have no
    cross traffic, so the bucket never applies there."""
    if (
        road is RoadClass.SURFACE_STREET
        and record.junction_relation is JunctionRelation.INTERSECTION
        and record.manner_of_collision is MannerOfCollision.CROSSING_PATH
    ):
        return CrashType.INTERSECTION
    return None


def _gate_single_vehicle(record: CrashRecord, ego: VehicleUnit, road: RoadClass):
    """Single in-transport vehicle: fixed object, rollover, departure."""
    in_transport = [u for u in record.units if u.in_transport]
    if len(in_transport) == 1 and in_transport[0].unit_id == ego.unit_id:
        return CrashType.SINGLE_VEHICLE
    if not in_transport and record.manner_of_collision is MannerOfCollision.SINGLE_VEHICLE:
        return CrashType.SINGLE_VEHICLE
    return None


def _gate_v2v_geometry(record: CrashRecord, ego: VehicleUnit, road: RoadClass):
    """Two or more vehicles: collision geometry from the manner code."""
    in_transport = [u for u in record.units if u.in_transport]
    if len(in_transport) >= 2:
        return _MANNER_TYPE.get(record.manner_of_collision)
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


def classify_crash_type(
    record: CrashRecord,
    ego: int,
    road: RoadClass,
    gate_order: tuple[str, ...] = DEFAULT_GATE_ORDER,
) -> CrashType:
    """Assign exactly one crash type to the ego unit in this crash.

    Gates run in the given precedence order (the default resolves, for
    example, a VRU struck in a secondary contact as SecondaryCrash);
    anything no gate claims lands in UnknownOther.  Total: never raises
    for a valid ego, always returns an enumeration member.
    """
    ego_unit = record.unit_by_id(ego)
    if ego_unit is None:
        raise UnknownEgoError(f"unit {ego} not in crash {record.crash_id}")
    for name in gate_order:
        gate = _GATES.get(name)
        if gate is None:
            raise CrashBenchError(f"unknown crash-type gate {name!r}")
        result = gate(record, ego_unit, road)
        if result is not None:
            return result
    return CrashType.UNKNOWN_OTHER
