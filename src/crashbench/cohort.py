"""In-transport passenger-vehicle cohort selection and VMT conversion.

Counts are vehicle-level: each qualifying unit in a crash contributes
one crashed vehicle.  ``select_units`` is the one place that decides
which units qualify.  Units whose class could not be determined count
as the passenger fraction of the known classes at the geographic level
(optionally split by road class): counts stay whole numbers, and the
fraction is applied once per cell, to its number of unknowns.  Total
VMT is scaled to passenger-vehicle VMT by the configured share table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import (
    CrashBenchError,
    CrashRecord,
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
    """One crash's in-transport units by cohort role: passenger vehicles
    (counted), units of unknown class (imputed) and units of another
    known class (the imputation basis only)."""

    crash_id: str
    passenger_units: tuple[VehicleUnit, ...]
    unknown_units: tuple[VehicleUnit, ...]
    other_known_units: tuple[VehicleUnit, ...]

    def add_known_classes(self, histogram: dict[VehicleClass, int]) -> None:
        """Add this crash's known-class units to a class histogram."""
        for unit in self.passenger_units + self.other_known_units:
            histogram[unit.vehicle_class] = histogram.get(unit.vehicle_class, 0) + 1


@dataclass(frozen=True)
class CohortCounts:
    """One cell's tally: whole counts of known passenger vehicles and of
    unknown-class vehicles, and the passenger fraction of the cell's
    imputation key.  The unknowns' imputed passenger mass is one product,
    ``unknown * passenger_fraction``."""

    known: int
    unknown: int
    passenger_fraction: float

    @property
    def imputed(self) -> float:
        return self.unknown * self.passenger_fraction

    @property
    def final_count(self) -> float:
        return self.known + self.imputed


def select_units(record: CrashRecord) -> UnitSelection:
    """The cohort rule for one crash: of its in-transport units, passenger
    vehicles count, units of unknown class are imputed, and other known
    classes (motorcycles, heavy vehicles) only inform the imputation
    basis.  Parked units and non-motorists count nowhere."""
    passenger = []
    unknown = []
    other = []
    for unit in record.units:
        if not unit.in_transport:
            continue
        if unit.vehicle_class is VehicleClass.PASSENGER:
            passenger.append(unit)
        elif unit.vehicle_class is VehicleClass.UNKNOWN:
            unknown.append(unit)
        else:
            other.append(unit)
    return UnitSelection(record.crash_id, tuple(passenger), tuple(unknown), tuple(other))


def filter_in_transport_passenger(
    records: Iterable[CrashRecord],
) -> list[UnitSelection]:
    """``select_units`` of each record, in input order."""
    return [select_units(record) for record in records]


def known_class_histogram(
    records: Iterable[CrashRecord],
) -> dict[VehicleClass, int]:
    """Histogram of known vehicle classes among in-transport units."""
    hist: dict[VehicleClass, int] = {}
    for record in records:
        select_units(record).add_known_classes(hist)
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
