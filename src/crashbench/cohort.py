"""In-transport passenger-vehicle cohort selection and VMT conversion.

Counts are vehicle-level: each qualifying unit in a crash contributes
one crashed vehicle.  ``select_units`` is the cohort rule: it decides
which of a crash's units qualify, and ``pipeline`` takes each
configuration's imputation basis, unknowns and counted units from it.
Units whose class could not be determined count as the passenger
fraction of the known classes at the geographic level (optionally split
by road class): counts stay whole numbers, and the fraction is applied
once per cell, to its number of unknowns.  Total VMT is scaled to
passenger-vehicle VMT by the configured share table.
"""

from __future__ import annotations

from collections import Counter
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

    passenger_units: tuple[VehicleUnit, ...]
    unknown_units: tuple[VehicleUnit, ...]
    other_known_units: tuple[VehicleUnit, ...]


@dataclass(frozen=True)
class CohortCounts:
    """One cell's tally: whole counts of known passenger vehicles and of
    unknown-class vehicles, and the passenger fraction of the cell's
    imputation key.  The cell counts ``known + unknown *
    passenger_fraction`` vehicles."""

    known: int
    unknown: int
    passenger_fraction: float


def select_units(record: CrashRecord) -> UnitSelection:
    """The cohort rule for one crash's units, each group in unit order:
    an in-transport passenger vehicle is counted, one of unknown class
    is imputed, and one of another known class (a motorcycle, a heavy
    vehicle) only informs the imputation basis.  Parked units and
    non-motorists count nowhere."""
    passengers, unknowns, others = [], [], []
    group = {VehicleClass.PASSENGER: passengers, VehicleClass.UNKNOWN: unknowns}
    for unit in record.units:
        if unit.in_transport:
            group.get(unit.vehicle_class, others).append(unit)
    return UnitSelection(tuple(passengers), tuple(unknowns), tuple(others))


def filter_in_transport_passenger(
    records: Iterable[CrashRecord],
) -> list[UnitSelection]:
    """``select_units`` of each record, in input order."""
    return [select_units(record) for record in records]


def known_class_histogram(
    records: Iterable[CrashRecord],
) -> dict[VehicleClass, int]:
    """Histogram of the known classes among ``select_units``' passenger
    and other-known units."""
    return dict(
        Counter(
            unit.vehicle_class
            for selection in map(select_units, records)
            for unit in selection.passenger_units + selection.other_known_units
        )
    )


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
