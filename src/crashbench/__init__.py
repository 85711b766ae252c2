"""Crashed-vehicle rate benchmarks for ADS safety evaluation.

Builds geographically specific, road-type and severity stratified crash
rate benchmarks from police-reported crash records and VMT tables, and
provides the safety-impact and power-analysis machinery to compare an
ADS deployment against them.
"""

from .cohort import filter_in_transport_passenger, passenger_vmt
from .model import (
    CrashRecord,
    DEFAULT_GEO_AREAS,
    GeoArea,
    KabcoLevel,
    LatLon,
    PassengerShareTable,
    RoadClass,
    VehicleClass,
    VehicleUnit,
    VmtRecord,
    worst_injury,
)
from .power import (
    PowerQuery,
    PowerResult,
    mileage_for_power,
    mileage_grid,
    monte_carlo_power,
    power_curve,
    required_mileage,
)
from .rates import (
    RateCell,
    adjust_underreporting,
    compute_rate,
    crash_type_distribution,
    poisson_ci,
    poisson_intervals,
    safety_impact,
)
from .roadclass import FreewaySegment, FreewaySegmentIndex, classify_road
from .taxonomy import CrashType, OutcomeLevel, classify_crash_type, classify_outcome

__version__ = "0.1.0"

__all__ = [
    "CrashRecord",
    "CrashType",
    "DEFAULT_GEO_AREAS",
    "FreewaySegment",
    "FreewaySegmentIndex",
    "GeoArea",
    "KabcoLevel",
    "LatLon",
    "OutcomeLevel",
    "PassengerShareTable",
    "PowerQuery",
    "PowerResult",
    "RateCell",
    "RoadClass",
    "VehicleClass",
    "VehicleUnit",
    "VmtRecord",
    "adjust_underreporting",
    "classify_crash_type",
    "classify_outcome",
    "classify_road",
    "compute_rate",
    "crash_type_distribution",
    "filter_in_transport_passenger",
    "mileage_for_power",
    "mileage_grid",
    "monte_carlo_power",
    "passenger_vmt",
    "poisson_ci",
    "poisson_intervals",
    "power_curve",
    "required_mileage",
    "safety_impact",
    "worst_injury",
]
