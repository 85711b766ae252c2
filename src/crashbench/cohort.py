"""In-transport passenger-vehicle cohort selection and VMT conversion.

Counts are vehicle-level: each qualifying unit in a crash contributes
one crashed vehicle.  ``unit_role`` is the one place that decides
which units qualify, and ``select_units`` the one walk that applies it
to a crash's units; ``pipeline`` takes each configuration's imputation
basis, unknowns and counted units from it.  Units whose class could
not be determined count as the passenger fraction of the known classes
at the geographic level (optionally split by road class): counts stay
whole numbers, and the fraction is applied once per cell, to its
number of unknowns.  Total VMT is scaled to passenger-vehicle VMT by
the configured share table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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


@dataclass(frozen=True)
class CohortCounts:
    """One cell's tally: whole counts of known passenger vehicles and of
    unknown-class vehicles, and the passenger fraction of the cell's
    imputation key.  The cell counts ``known + unknown *
    passenger_fraction`` vehicles."""

    known: int
    unknown: int
    passenger_fraction: float


# Cohort roles, in the order of UnitSelection's unit groups.
PASSENGER, UNKNOWN, OTHER_KNOWN = range(3)
_ROLE_OF_CLASS = {cls: OTHER_KNOWN for cls in VehicleClass} | {
    VehicleClass.PASSENGER: PASSENGER,
    VehicleClass.UNKNOWN: UNKNOWN,
}


def unit_role(unit: VehicleUnit) -> Optional[int]:
    """The cohort rule for one unit: an in-transport passenger vehicle is
    counted (PASSENGER), one of unknown class is imputed (UNKNOWN), and
    one of another known class (a motorcycle, a heavy vehicle) only
    informs the imputation basis (OTHER_KNOWN).  Parked units and
    non-motorists count nowhere (None)."""
    return _ROLE_OF_CLASS[unit.vehicle_class] if unit.in_transport else None


def select_units(record: CrashRecord) -> UnitSelection:
    """One crash's units grouped by ``unit_role``, each group in unit
    order."""
    groups: tuple[list, list, list] = ([], [], [])
    for unit in record.units:
        role = unit_role(unit)
        if role is not None:
            groups[role].append(unit)
    return UnitSelection(record.crash_id, *map(tuple, groups))


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
        for unit in record.units:
            if unit_role(unit) in (PASSENGER, OTHER_KNOWN):
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
