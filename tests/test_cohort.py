import pytest

from crashbench.cohort import (
    ImputationBasisMissingError,
    filter_in_transport_passenger,
    known_class_histogram,
    passenger_fraction,
    passenger_vmt,
)
from crashbench.model import (
    FunctionalClass,
    MissingShareError,
    PassengerShareTable,
    VehicleClass,
    VmtRecord,
)

from corpus import make_corpus
from test_model import make_record
from test_taxonomy import vehicle


class TestFilter:
    def test_parked_passenger_excluded(self):
        record = make_record(units=(vehicle(1, in_transport=False),))
        selection = filter_in_transport_passenger([record])[0]
        assert selection.passenger_units == ()
        assert selection.unknown_units == ()

    def test_in_transport_motorcycle_excluded(self):
        record = make_record(units=(vehicle(1, cls=VehicleClass.MOTORCYCLE),))
        selection = filter_in_transport_passenger([record])[0]
        assert selection.passenger_units == ()

    def test_in_transport_sedan_included(self):
        record = make_record(units=(vehicle(1),))
        selection = filter_in_transport_passenger([record])[0]
        assert [u.unit_id for u in selection.passenger_units] == [1]

    def test_unknown_class_separated(self):
        record = make_record(
            units=(vehicle(1), vehicle(2, cls=VehicleClass.UNKNOWN))
        )
        selection = filter_in_transport_passenger([record])[0]
        assert [u.unit_id for u in selection.passenger_units] == [1]
        assert [u.unit_id for u in selection.unknown_units] == [2]

    def test_order_invariant_totals(self):
        records = make_corpus(300, seed=3)
        forward = filter_in_transport_passenger(records)
        backward = filter_in_transport_passenger(list(reversed(records)))
        count = lambda sels: (
            sum(len(s.passenger_units) for s in sels),
            sum(len(s.unknown_units) for s in sels),
        )
        assert count(forward) == count(backward)


class TestImputation:
    def test_proportional_allocation(self):
        hist = {VehicleClass.PASSENGER: 90, VehicleClass.HEAVY_VEHICLE: 10}
        assert 10 * passenger_fraction(hist) == pytest.approx(9.0)

    def test_all_passenger_degenerate(self):
        assert passenger_fraction({VehicleClass.PASSENGER: 12}) == 1.0

    def test_empty_histogram_with_unknowns_raises(self):
        with pytest.raises(ImputationBasisMissingError):
            passenger_fraction({})

    def test_final_counts_bounded(self):
        hist = {VehicleClass.PASSENGER: 30, VehicleClass.MOTORCYCLE: 10}
        known = hist[VehicleClass.PASSENGER]
        unknown = 8
        imputed = unknown * passenger_fraction(hist)
        assert known <= known + imputed <= known + unknown

    def test_histogram_counts_in_transport_known_only(self):
        record = make_record(
            units=(
                vehicle(1),
                vehicle(2, cls=VehicleClass.UNKNOWN),
                vehicle(3, cls=VehicleClass.HEAVY_VEHICLE, in_transport=False),
                vehicle(4, cls=VehicleClass.MOTORCYCLE),
            )
        )
        hist = known_class_histogram([record])
        assert hist == {VehicleClass.PASSENGER: 1, VehicleClass.MOTORCYCLE: 1}
        assert passenger_fraction(hist) == pytest.approx(0.5)


class TestPassengerVmt:
    def test_share_applied(self):
        vmt = VmtRecord("TX", "TRAVIS", FunctionalClass.FREEWAY, 2023, 1_000e6)
        shares = PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 0.92})
        assert passenger_vmt(vmt, shares) == pytest.approx(920e6)

    def test_share_of_one_is_identity(self):
        vmt = VmtRecord("TX", "TRAVIS", FunctionalClass.FREEWAY, 2023, 123.0)
        shares = PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 1.0})
        assert passenger_vmt(vmt, shares) == 123.0

    def test_missing_key_raises(self):
        vmt = VmtRecord("GA", "FULTON", FunctionalClass.FREEWAY, 2023, 10.0)
        shares = PassengerShareTable({("TX", FunctionalClass.FREEWAY, True): 0.9})
        with pytest.raises(MissingShareError):
            passenger_vmt(vmt, shares)
