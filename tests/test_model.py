import math
import random

import pytest

from crashbench.model import (
    ConfigError,
    CrashRecord,
    DataError,
    FunctionalClass,
    GeoArea,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    MissingShareError,
    PassengerShareTable,
    RoadClass,
    VehicleClass,
    VehicleUnit,
    VmtRecord,
    worst_injury,
)
from crashbench.roadclass import Provenance, RoadClassification


def make_record(**overrides) -> CrashRecord:
    base = dict(
        crash_id="X1",
        state="TX",
        county="TRAVIS",
        year=2023,
        worst_injury=KabcoLevel.O,
        location=LatLon(30.3, -97.7),
        primary_road_name="MAIN ST",
        units=(VehicleUnit(unit_id=1, vehicle_class=VehicleClass.PASSENGER, in_transport=True),),
    )
    base.update(overrides)
    return CrashRecord(**base)


# Per value type: a builder of one value, and for each field a value
# other than the one the builder gives it.
VALUE_TYPES = {
    "record": (
        lambda: make_record(secondary_road_name="ELM AVE"),
        dict(
            crash_id="X2",
            state="CA",
            county="WILLIAMSON",
            year=2022,
            worst_injury=KabcoLevel.K,
            location=LatLon(30.4, -97.7),
            primary_road_name="I-35",
            secondary_road_name=None,
            units=(),
            junction_relation=JunctionRelation.INTERSECTION,
            manner_of_collision=MannerOfCollision.CROSSING_PATH,
            airbag_deployed=True,
        ),
    ),
    "unit": (
        lambda: VehicleUnit(2, VehicleClass.CYCLIST, False, 1),
        dict(
            unit_id=3,
            vehicle_class=VehicleClass.PASSENGER,
            in_transport=True,
            first_contact_event_index=None,
        ),
    ),
    "classification": (
        lambda: RoadClassification(RoadClass.FREEWAY, Provenance.BY_PROXIMITY, "US-101", 12.5),
        dict(
            road_class=RoadClass.SURFACE_STREET,
            provenance=Provenance.UNRESOLVABLE,
            route_id="I-280",
            distance_m=None,
        ),
    ),
}


@pytest.mark.parametrize("kind", VALUE_TYPES)
class TestValueContract:
    """Records, units and road classifications are immutable values:
    equal and hashing equal when their fields are, whoever built them."""

    def test_every_field_is_covered(self, kind):
        build, others = VALUE_TYPES[kind]
        assert tuple(others) == build()._fields

    def test_assigning_an_attribute_raises(self, kind):
        build, others = VALUE_TYPES[kind]
        value = build()
        for name, other in others.items():
            with pytest.raises(AttributeError):
                setattr(value, name, other)
        with pytest.raises(AttributeError):
            value.note = "new attribute"
        assert value == build()

    def test_values_built_apart_are_equal_and_hash_equal(self, kind):
        build, _ = VALUE_TYPES[kind]
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_replace_changes_exactly_one_field(self, kind):
        build, others = VALUE_TYPES[kind]
        value = build()
        for name, other in others.items():
            changed = value._replace(**{name: other})
            assert type(changed) is type(value)
            assert getattr(changed, name) == other != getattr(value, name)
            for kept in value._fields:
                if kept != name:
                    assert getattr(changed, kept) is getattr(value, kept)
            assert changed != value
        assert value == build()


class TestKabco:
    def test_severity_order(self):
        ranks = [KabcoLevel.K, KabcoLevel.A, KabcoLevel.B, KabcoLevel.C, KabcoLevel.O]
        values = [level.severity_rank for level in ranks]
        assert values == sorted(values, reverse=True)
        assert KabcoLevel.UNKNOWN.severity_rank is None

    def test_worst_injury_reduction(self):
        levels = [KabcoLevel.C, KabcoLevel.K, KabcoLevel.O, KabcoLevel.B]
        assert worst_injury(levels) is KabcoLevel.K

    def test_worst_injury_order_independent_and_idempotent(self):
        rng = random.Random(7)
        levels = [rng.choice(list(KabcoLevel)) for _ in range(30)]
        baseline = worst_injury(levels)
        for _ in range(20):
            rng.shuffle(levels)
            assert worst_injury(levels) is baseline
        assert worst_injury([baseline]) is baseline

    def test_unknown_never_compares(self):
        assert worst_injury([KabcoLevel.UNKNOWN, KabcoLevel.C]) is KabcoLevel.C
        assert worst_injury([KabcoLevel.UNKNOWN]) is KabcoLevel.UNKNOWN
        assert worst_injury([]) is KabcoLevel.UNKNOWN


class TestGeoArea:
    def test_counties_required(self):
        with pytest.raises(ValueError):
            GeoArea("Nowhere", "TX", frozenset())

    @pytest.mark.parametrize(
        "name,state,counties,message",
        [
            ("X", "C\rA", {"LA"}, r"'C\\rA' holds a control character"),
            ("Line\nbreak", "CA", {"LA"}, "holds a control character"),
            ("X", "CA", {"LOS\x00ANGELES"}, "holds a control character"),
            ("X", "CA", {"SAN\x85DIEGO"}, "holds a control character"),
            ("", "TX", {"TRAVIS"}, "must not be blank"),
            ("  ", "TX", {"TRAVIS"}, "must not be blank"),
            ("X", " ", {"TRAVIS"}, "must not be blank"),
            ("X", "TX", {"TRAVIS;HAYS"}, "holds ';'"),
        ],
    )
    def test_names_that_would_not_read_back_rejected(self, name, state, counties, message):
        with pytest.raises(ConfigError, match=message):
            GeoArea(name, state, frozenset(counties))

    def test_contains_normalizes_case(self):
        area = GeoArea("Austin", "tx", frozenset({"Travis"}))
        assert area.contains("TX", "travis")
        assert not area.contains("TX", "HAYS")
        assert not area.contains("CA", "TRAVIS")


class TestVmtAndShares:
    def test_vmt_must_be_positive(self):
        with pytest.raises(DataError):
            VmtRecord("TX", "TRAVIS", FunctionalClass.FREEWAY, 2023, 0.0)

    @pytest.mark.parametrize("miles", [math.inf, math.nan])
    def test_vmt_must_be_finite(self, miles):
        with pytest.raises(DataError, match="vmt_miles must be a finite number > 0"):
            VmtRecord("TX", "TRAVIS", FunctionalClass.FREEWAY, 2023, miles)

    def test_share_lookup(self):
        table = PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 0.92})
        assert table.share_for("tx", FunctionalClass.FREEWAY, True) == 0.92

    def test_missing_share_raises(self):
        table = PassengerShareTable({})
        with pytest.raises(MissingShareError):
            table.share_for("TX", FunctionalClass.FREEWAY, True)

    def test_share_range_enforced(self):
        with pytest.raises(ConfigError):
            PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 1.5})
        with pytest.raises(ConfigError):
            PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 0.0})

    @pytest.mark.parametrize("state", ["tx", " TX", "Tx "])
    def test_keys_differing_only_in_state_case_or_spacing_are_config_error(self, state):
        # Both keys store as (TX, Freeway, True); the second share used to
        # replace the first silently.
        shares = {("TX", FunctionalClass.FREEWAY, True): 0.9,
                  (state, FunctionalClass.FREEWAY, True): 0.5}
        with pytest.raises(ConfigError) as err:
            PassengerShareTable(shares)
        assert "('TX', Freeway, urban=True)" in str(err.value)
        assert f"({state!r}, Freeway, urban=True)" in str(err.value)

    def test_keys_of_other_classes_or_flags_load(self):
        table = PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 0.9,
                                     ("tx", FunctionalClass.FREEWAY, False): 0.8})
        assert table.share_for("TX", FunctionalClass.FREEWAY, False) == 0.8
