"""In-transport passenger-vehicle cohort selection and VMT conversion.

Counts are vehicle-level: each qualifying unit in a crash contributes
one crashed vehicle.  Units whose class could not be determined are
imputed fractionally from the distribution of known classes at the
geographic level, and total VMT is scaled to passenger-vehicle VMT by
the configured share table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    CrashBenchError,
    CrashRecord,
    FunctionalClass,
    PassengerShareTable,
    VehicleClass,
    VehicleUnit,
    VmtRecord,
)


class ImputationBasisMissingError(CrashBenchError):
    """Unknown-class units exist but there are no known classes to
    impute from."""


@dataclass(frozen=True)
class UnitSelection:
    """Qualifying and unknown-class in-transport units for one crash."""

    crash_id: str
    passenger_units: tuple[VehicleUnit, ...]
    unknown_units: tuple[VehicleUnit, ...]


@dataclass(frozen=True)
class CohortCounts:
    """Stratum tally: known passenger vehicles, unknown-class vehicles,
    and the passenger share imputed to the unknowns."""

    known_passenger_count: float
    unknown_count: int
    imputed_passenger_count: float

    def __post_init__(self):
        if self.imputed_passenger_count > self.unknown_count + 1e-9:
            raise ValueError(
                f"imputed {self.imputed_passenger_count} exceeds "
                f"unknown count {self.unknown_count}"
            )

    @property
    def final_count(self) -> float:
        return self.known_passenger_count + self.imputed_passenger_count


def filter_in_transport_passenger(
    records: Iterable[CrashRecord],
) -> list[UnitSelection]:
    """Select in-transport passenger vehicles per record.

    In-transport units of unknown class are returned separately (they
    feed imputation).  Motorcycles, heavy vehicles, non-motorists, and
    parked or otherwise not-in-transport units are excluded outright.
    Output order matches input order.
    """
    selections = []
    for record in records:
        passenger = []
        unknown = []
        for unit in record.units:
            if not unit.in_transport:
                continue
            if unit.vehicle_class is VehicleClass.PASSENGER:
                passenger.append(unit)
            elif unit.vehicle_class is VehicleClass.UNKNOWN:
                unknown.append(unit)
        selections.append(
            UnitSelection(record.crash_id, tuple(passenger), tuple(unknown))
        )
    return selections


def known_class_histogram(
    records: Iterable[CrashRecord],
) -> dict[VehicleClass, int]:
    """Histogram of known vehicle classes among in-transport units."""
    hist: dict[VehicleClass, int] = {}
    for record in records:
        for unit in record.units:
            if unit.in_transport and unit.vehicle_class is not VehicleClass.UNKNOWN:
                hist[unit.vehicle_class] = hist.get(unit.vehicle_class, 0) + 1
    return hist


def passenger_fraction(known_histogram: Mapping[VehicleClass, int]) -> float:
    """Fraction of known in-transport units that are passenger vehicles.

    Each unknown-class unit counts as this fraction of a passenger
    vehicle, so the imputed passenger mass of n unknowns is n times it.
    """
    total = sum(known_histogram.values())
    if total <= 0:
        raise ImputationBasisMissingError("empty known-class histogram")
    return known_histogram.get(VehicleClass.PASSENGER, 0) / total


def passenger_vmt(
    vmt: VmtRecord, shares: PassengerShareTable, urban: bool = True
) -> float:
    """Convert total VMT to passenger-vehicle VMT via the share table.

    Raises MissingShareError when no share is configured for the
    record's (state, functional class, urban) key.
    """
    share = shares.share_for(vmt.state, vmt.functional_class, urban)
    return vmt.vmt_miles * share
