import itertools
import random

import pytest

from crashbench.model import (
    CrashBenchError,
    CrashRecord,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    RoadClass,
    VehicleClass,
    VehicleUnit,
)
from crashbench.taxonomy import (
    DEFAULT_GATE_ORDER,
    CrashType,
    CrashTypeCascade,
    OutcomeLevel,
    UnknownEgoError,
    _collision_partners,
    _CrashFacts,
    classify_crash_type,
    classify_outcome,
)

from corpus import make_corpus


def vehicle(uid, cls=VehicleClass.PASSENGER, in_transport=True, event=1):
    return VehicleUnit(
        unit_id=uid,
        vehicle_class=cls,
        in_transport=in_transport,
        first_contact_event_index=event,
    )


def crash(units, worst=KabcoLevel.O, junction=JunctionRelation.NON_JUNCTION,
          manner=MannerOfCollision.UNKNOWN, airbag=False):
    units = tuple(units)
    return CrashRecord(
        crash_id="T1",
        state="TX",
        county="TRAVIS",
        year=2023,
        worst_injury=worst,
        location=LatLon(30.3, -97.7),
        primary_road_name="X",
        units=units,
        junction_relation=junction,
        manner_of_collision=manner,
        airbag_deployed=airbag,
    )


class TestOutcomes:
    def test_fatal_with_airbag_hits_all_levels(self):
        record = crash([vehicle(1), vehicle(2)], worst=KabcoLevel.K, airbag=True)
        assert classify_outcome(record) == set(OutcomeLevel)

    def test_no_injury_no_airbag_is_police_reported_only(self):
        record = crash([vehicle(1)], worst=KabcoLevel.O)
        assert classify_outcome(record) == {OutcomeLevel.POLICE_REPORTED}

    def test_airbag_flag_of_the_crash_counts(self):
        record = crash([vehicle(1), vehicle(2)], worst=KabcoLevel.B, airbag=True)
        assert classify_outcome(record) == {
            OutcomeLevel.POLICE_REPORTED,
            OutcomeLevel.ANY_INJURY_REPORTED,
            OutcomeLevel.ANY_AIRBAG_DEPLOYMENT,
        }

    def test_outcomes_do_not_read_the_units(self):
        class Unread(tuple):
            def __iter__(self):
                raise AssertionError("classify_outcome walked the units")

        for airbag in (False, True):
            record = crash([vehicle(1)], airbag=airbag)._replace(units=Unread())
            assert (OutcomeLevel.ANY_AIRBAG_DEPLOYMENT in classify_outcome(record)) is airbag

    def test_unknown_injury_contributes_no_injury_level(self):
        record = crash([vehicle(1)], worst=KabcoLevel.UNKNOWN)
        assert classify_outcome(record) == {OutcomeLevel.POLICE_REPORTED}

    @pytest.mark.parametrize(
    "worst,expected_chain",
        [
            (KabcoLevel.K, 4),
            (KabcoLevel.A, 3),
            (KabcoLevel.B, 2),
            (KabcoLevel.C, 2),
            (KabcoLevel.O, 1),
        ],
    )
    def test_injury_chain_depth(self, worst, expected_chain):
        record = crash([vehicle(1)], worst=worst)
        outcomes = classify_outcome(record)
        chain = [
            OutcomeLevel.POLICE_REPORTED,
            OutcomeLevel.ANY_INJURY_REPORTED,
            OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
            OutcomeLevel.FATAL,
        ]
        assert [level in outcomes for level in chain] == [
            i < expected_chain for i in range(4)
        ]


class TestCrashTypeCascade:
    def test_front_to_rear(self):
        record = crash([vehicle(1), vehicle(2)], manner=MannerOfCollision.FRONT_TO_REAR)
        assert classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.V2V_FRONT_TO_REAR

    def test_lateral_and_opposite(self):
        lateral = crash([vehicle(1), vehicle(2)],
                        manner=MannerOfCollision.LATERAL_SAME_DIRECTION)
        assert classify_crash_type(lateral, 1, RoadClass.FREEWAY) is CrashType.V2V_LATERAL
        opposite = crash([vehicle(1), vehicle(2)],
                         manner=MannerOfCollision.OPPOSITE_DIRECTION)
        assert (
            classify_crash_type(opposite, 2, RoadClass.FREEWAY)
            is CrashType.V2V_OPPOSITE_DIRECTION
        )

    def test_secondary_crash_for_later_contact(self):
        record = crash(
            [vehicle(1, event=1), vehicle(2, event=1), vehicle(3, event=2)],
            manner=MannerOfCollision.FRONT_TO_REAR,
        )
        assert classify_crash_type(record, 3, RoadClass.FREEWAY) is CrashType.SECONDARY_CRASH
        assert classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.V2V_FRONT_TO_REAR

    def test_vru_struck_in_secondary_contact_is_secondary(self):
        record = crash(
            [vehicle(1, event=1), vehicle(2, event=1),
             vehicle(3, cls=VehicleClass.PEDESTRIAN, in_transport=False, event=2),
             vehicle(4, event=2)],
            manner=MannerOfCollision.FRONT_TO_REAR,
        )
        # The ego in the second contact is secondary even though it struck a pedestrian.
        assert classify_crash_type(record, 4, RoadClass.FREEWAY) is CrashType.SECONDARY_CRASH

    def test_vru_partners(self):
        ped = crash([vehicle(1), vehicle(2, cls=VehicleClass.PEDESTRIAN, in_transport=False)])
        assert classify_crash_type(ped, 1, RoadClass.SURFACE_STREET) is CrashType.PEDESTRIAN
        cyc = crash([vehicle(1), vehicle(2, cls=VehicleClass.CYCLIST, in_transport=False)])
        assert classify_crash_type(cyc, 1, RoadClass.SURFACE_STREET) is CrashType.CYCLIST
        moto = crash([vehicle(1), vehicle(2, cls=VehicleClass.MOTORCYCLE)])
        assert classify_crash_type(moto, 1, RoadClass.FREEWAY) is CrashType.MOTORCYCLIST

    def test_intersection_only_on_surface_streets(self):
        units = [vehicle(1), vehicle(2)]
        record = crash(units, junction=JunctionRelation.INTERSECTION,
                       manner=MannerOfCollision.CROSSING_PATH)
        assert (
            classify_crash_type(record, 1, RoadClass.SURFACE_STREET)
            is CrashType.INTERSECTION
        )
        # Same record on a freeway falls through the manner gates instead.
        assert (
            classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.UNKNOWN_OTHER
        )

    def test_single_vehicle_into_barrier_on_freeway(self):
        record = crash([vehicle(1)], manner=MannerOfCollision.SINGLE_VEHICLE)
        assert classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.SINGLE_VEHICLE

    def test_parked_partner_still_single_vehicle(self):
        record = crash([vehicle(1), vehicle(2, in_transport=False)])
        assert classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.SINGLE_VEHICLE

    def test_missing_fields_fall_to_unknown_other(self):
        record = crash([vehicle(1, event=None), vehicle(2, event=None)])
        assert classify_crash_type(record, 1, RoadClass.FREEWAY) is CrashType.UNKNOWN_OTHER

    def test_unknown_ego_raises(self):
        record = crash([vehicle(1)])
        with pytest.raises(UnknownEgoError):
            classify_crash_type(record, 99, RoadClass.FREEWAY)

    def test_gate_order_is_overridable(self):
        record = crash(
            [vehicle(1, event=1), vehicle(2, event=1),
             vehicle(3, cls=VehicleClass.PEDESTRIAN, in_transport=False, event=2),
             vehicle(4, event=2)],
            manner=MannerOfCollision.FRONT_TO_REAR,
        )
        # Default order resolves the later-contact ego as secondary; a
        # VRU-first order attributes it to the struck pedestrian instead.
        assert classify_crash_type(record, 4, RoadClass.FREEWAY) is CrashType.SECONDARY_CRASH
        vru_first = ("vru", "secondary", "intersection", "single_vehicle", "v2v_geometry")
        assert (
            classify_crash_type(record, 4, RoadClass.FREEWAY, gate_order=vru_first)
            is CrashType.PEDESTRIAN
        )

    def test_unknown_gate_name_rejected(self):
        record = crash([vehicle(1)])
        with pytest.raises(Exception):
            classify_crash_type(record, 1, RoadClass.FREEWAY, gate_order=("nope",))

    def test_partners_and_first_contact_from_ordinals(self):
        # Out of id order: two units in the first contact, one in a later
        # contact and one with no ordinal.
        units = (
            VehicleUnit(unit_id=3, first_contact_event_index=2),
            VehicleUnit(unit_id=1, first_contact_event_index=1),
            VehicleUnit(unit_id=2, first_contact_event_index=1),
            VehicleUnit(unit_id=4, first_contact_event_index=None),
        )
        record = crash(units)
        facts = _CrashFacts(record)
        assert facts.first_contact == 1
        assert {
            unit.unit_id: sorted(p.unit_id for p in _collision_partners(facts, unit))
            for unit in units
        } == {3: [], 1: [2], 2: [1], 4: [1, 2, 3]}
        assert CrashTypeCascade(("secondary",)).classify_units(
            record, [3, 1, 2, 4], RoadClass.FREEWAY
        ) == [CrashType.SECONDARY_CRASH, CrashType.UNKNOWN_OTHER, CrashType.UNKNOWN_OTHER,
              CrashType.SECONDARY_CRASH]


class TestInvariants:
    def test_nesting_on_small_corpus(self):
        for record in make_corpus(500, seed=11):
            outcomes = classify_outcome(record)
            assert OutcomeLevel.POLICE_REPORTED in outcomes
            if OutcomeLevel.FATAL in outcomes:
                assert OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS in outcomes
            if OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS in outcomes:
                assert OutcomeLevel.ANY_INJURY_REPORTED in outcomes
            if OutcomeLevel.ANY_INJURY_REPORTED in outcomes:
                assert OutcomeLevel.POLICE_REPORTED in outcomes

    def test_classification_total_on_small_corpus(self):
        rng = random.Random(5)
        for record in make_corpus(500, seed=13):
            road = rng.choice([RoadClass.FREEWAY, RoadClass.SURFACE_STREET])
            for unit in record.units:
                result = classify_crash_type(record, unit.unit_id, road)
                assert isinstance(result, CrashType)


# --- oracle: the cascade as it ran per unit and per gate ---------------------
# Each gate re-derives what it reads from the record, and contact groups are
# found by linear scans, so nothing is shared between units or gates.


def _oracle_contact_groups(record):
    """The units of each contact, by first-contact ordinal, in ordinal order."""
    groups = {}
    for unit in record.units:
        if unit.first_contact_event_index is not None:
            groups.setdefault(unit.first_contact_event_index, []).append(unit)
    return dict(sorted(groups.items()))


def _oracle_partners(record, ego):
    group = _oracle_contact_groups(record).get(ego.first_contact_event_index, record.units)
    return [u for u in group if u.unit_id != ego.unit_id]


def _oracle_secondary(record, ego, road):
    groups = _oracle_contact_groups(record)
    if groups and ego.unit_id not in [u.unit_id for u in next(iter(groups.values()))]:
        return CrashType.SECONDARY_CRASH
    return None


def _oracle_vru(record, ego, road):
    partners = _oracle_partners(record, ego)
    for cls, crash_type in (
        (VehicleClass.PEDESTRIAN, CrashType.PEDESTRIAN),
        (VehicleClass.CYCLIST, CrashType.CYCLIST),
        (VehicleClass.MOTORCYCLE, CrashType.MOTORCYCLIST),
    ):
        if any(p.vehicle_class is cls for p in partners):
            return crash_type
    return None


def _oracle_intersection(record, ego, road):
    if (
        road is RoadClass.SURFACE_STREET
        and record.junction_relation is JunctionRelation.INTERSECTION
        and record.manner_of_collision is MannerOfCollision.CROSSING_PATH
    ):
        return CrashType.INTERSECTION
    return None


def _oracle_single_vehicle(record, ego, road):
    in_transport = [u for u in record.units if u.in_transport]
    if len(in_transport) == 1 and in_transport[0].unit_id == ego.unit_id:
        return CrashType.SINGLE_VEHICLE
    if not in_transport and record.manner_of_collision is MannerOfCollision.SINGLE_VEHICLE:
        return CrashType.SINGLE_VEHICLE
    return None


def _oracle_v2v_geometry(record, ego, road):
    in_transport = [u for u in record.units if u.in_transport]
    if len(in_transport) >= 2:
        return {
            MannerOfCollision.OPPOSITE_DIRECTION: CrashType.V2V_OPPOSITE_DIRECTION,
            MannerOfCollision.FRONT_TO_REAR: CrashType.V2V_FRONT_TO_REAR,
            MannerOfCollision.LATERAL_SAME_DIRECTION: CrashType.V2V_LATERAL,
        }.get(record.manner_of_collision)
    return None


_ORACLE_GATES = {
    "secondary": _oracle_secondary,
    "vru": _oracle_vru,
    "intersection": _oracle_intersection,
    "single_vehicle": _oracle_single_vehicle,
    "v2v_geometry": _oracle_v2v_geometry,
}


def _oracle_crash_type(record, ego, road, gate_order):
    ego_unit = next(unit for unit in record.units if unit.unit_id == ego)
    for name in gate_order:
        result = _ORACLE_GATES[name](record, ego_unit, road)
        if result is not None:
            return result
    return CrashType.UNKNOWN_OTHER


def _typing_corpus():
    """Corpus records, in which unit 1 is in the first contact (ordinal 1)
    whenever any unit has an ordinal, plus copies in which every ordinal
    is one higher and unit 1 has none, so that the first contact is some
    other ordinal or absent."""
    records = make_corpus(80, seed=17)
    extra = []
    for record in records[:30]:
        first, *others = record.units
        raised = [
            unit._replace(first_contact_event_index=unit.first_contact_event_index + 1)
            if unit.first_contact_event_index is not None
            else unit
            for unit in others
        ]
        units = (first._replace(first_contact_event_index=None), *raised)
        extra.append(record._replace(units=units))
    return records + extra


class TestPerRecordTyping:
    @pytest.mark.parametrize("road", list(RoadClass))
    def test_every_gate_order_matches_per_unit_oracle(self, road):
        records = _typing_corpus()
        orders = list(itertools.permutations(DEFAULT_GATE_ORDER))
        assert len(orders) == 120
        for order in orders:
            cascade = CrashTypeCascade(order)
            for record in records:
                unit_ids = [unit.unit_id for unit in record.units]
                expected = [_oracle_crash_type(record, uid, road, order) for uid in unit_ids]
                assert cascade.classify_units(record, unit_ids, road) == expected
                assert [
                    classify_crash_type(record, uid, road, gate_order=order) for uid in unit_ids
                ] == expected

    def test_unknown_unit_raises(self):
        record = crash([vehicle(1), vehicle(2)])
        with pytest.raises(UnknownEgoError, match="unit 9 not in crash T1"):
            CrashTypeCascade().classify_units(record, [1, 9], RoadClass.FREEWAY)

    def test_unknown_gate_name_rejected_when_resolved(self):
        with pytest.raises(CrashBenchError, match="unknown crash-type gate 'nope'"):
            CrashTypeCascade(("secondary", "nope"))
