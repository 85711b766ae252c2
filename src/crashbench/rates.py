"""Crashed-vehicle rates, confidence intervals, and safety impact.

Rates are incidents per million miles (IPMM): count / VMT * 1e6, with
counts possibly fractional after unknown-class imputation and the
any-injury underreporting adjustment.  Confidence intervals are exact
Poisson (Garwood) intervals generalized to fractional counts through
gamma quantiles; on integer counts the generalization coincides with
the classic chi-square construction.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np
from scipy.special import gammaincinv

from .model import CrashBenchError, DataError, GeoArea, RoadClass
from .taxonomy import CrashType, OutcomeLevel

MILLION = 1e6


class InvalidExposureError(CrashBenchError):
    """VMT must be finite, strictly positive and large enough that the
    rate is finite."""


class InvalidFractionError(CrashBenchError):
    """Underreporting fraction must lie in [0, 1)."""


class UndefinedBaselineError(CrashBenchError):
    """Safety impact is undefined for a zero baseline rate."""


class EmptyStratumError(CrashBenchError):
    """A crash-type distribution needs a positive total count."""


def _check_cell(count: float, vmt_miles: float) -> None:
    """The domain of a rate: finite VMT > 0, a finite count >= 0, and a
    finite count / VMT * 1e6."""
    if not 0.0 < vmt_miles < math.inf:
        rule = "finite" if vmt_miles == math.inf else "> 0"
        raise InvalidExposureError(f"vmt_miles must be {rule}, got {vmt_miles}")
    if not 0.0 <= count < math.inf:
        raise ValueError(f"count must be {'finite' if count == math.inf else '>= 0'}, got {count}")
    if count / vmt_miles * MILLION == math.inf:
        raise InvalidExposureError(
            f"count / vmt_miles * 1e6 must be finite, got count {count} over vmt_miles {vmt_miles}"
        )


def compute_rate(count: float, vmt_miles: float) -> float:
    """Crashed vehicles per million miles."""
    _check_cell(count, vmt_miles)
    return count / vmt_miles * MILLION


def adjust_underreporting(
    nonfatal_injury_count: float, fatal_count: float, underreport_fraction: float
) -> float:
    """Scale the non-fatal portion of an any-injury count up for crashes
    never reported to police; the fatal portion is passed through.

    adjusted = nonfatal / (1 - u) + fatal.  Applies only to the
    any-injury-reported outcome; no other level is ever adjusted.
    """
    u = underreport_fraction
    if not 0.0 <= u < 1.0:
        raise InvalidFractionError(f"underreport fraction must be in [0, 1), got {u}")
    if nonfatal_injury_count < 0 or fatal_count < 0:
        raise ValueError("counts must be non-negative")
    return nonfatal_injury_count / (1.0 - u) + fatal_count


def poisson_intervals(
    counts, vmts, level: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Poisson intervals for many rates at once, in IPMM: arrays
    ``(low, high)`` with one entry per (count, VMT) pair.

    Garwood construction on the mean scale: the lower bound is the mean
    whose upper tail P(X >= count) equals (1-level)/2, the upper bound
    the mean whose lower tail P(X <= count) equals (1-level)/2.  Via the
    gamma-quantile identity this is gammaincinv(count, a/2) and
    gammaincinv(count + 1, 1 - a/2), which extends to fractional counts.
    A zero or subnormal count has a zero lower bound, the limit that
    gammaincinv reaches below about 1e-10 (it is NaN on subnormals).
    Every other bound is the same float that a scalar gammaincinv call
    on that count gives.  The first bad cell raises ``compute_rate``'s error,
    and the first pair whose bounds are not finite (a VMT so small that
    1e6 / VMT, or a bound over it, overflows: zero counts included) an
    InvalidExposureError naming its count and VMT.
    """
    counts = np.asarray(counts, dtype=float)
    vmts = np.asarray(vmts, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rates = counts / vmts * MILLION
    bad = ~(
        (vmts > 0) & (vmts < math.inf) & (counts >= 0) & (counts < math.inf) & (rates < math.inf)
    )
    if bad.any():
        first = bad.argmax()
        _check_cell(counts[first].item(), vmts[first].item())
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    alpha = 1.0 - level
    low = np.zeros_like(counts)
    normal = counts >= np.finfo(float).tiny
    low[normal] = gammaincinv(counts[normal], alpha / 2.0)
    high = gammaincinv(counts + 1.0, 1.0 - alpha / 2.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = MILLION / vmts
        low, high = low * scale, high * scale
    unbounded = ~(np.isfinite(low) & np.isfinite(high))
    if unbounded.any():
        first = unbounded.argmax()
        raise InvalidExposureError(
            f"the rate's {level!r} interval must be finite, got count "
            f"{counts[first].item()} over vmt_miles {vmts[first].item()}"
        )
    return low, high


def poisson_ci(
    count: float, vmt_miles: float, level: float = 0.95
) -> tuple[float, float]:
    """Exact Poisson interval for one rate, in IPMM (see
    ``poisson_intervals``)."""
    low, high = poisson_intervals([count], [vmt_miles], level)
    return low.item(), high.item()


def safety_impact(ads_rate: float, baseline_rate: float) -> float:
    """Percent difference of the ADS rate relative to the benchmark.

    (ads / baseline - 1) * 100; negative means lower ADS crash risk.
    """
    if baseline_rate <= 0:
        raise UndefinedBaselineError(
            f"baseline rate must be > 0, got {baseline_rate}"
        )
    return (ads_rate / baseline_rate - 1.0) * 100.0


def stratum_name(
    geo_name: str, road: RoadClass, outcome: OutcomeLevel, crash_type: Optional[CrashType] = None
) -> str:
    """How an error names a cell's stratum: its area, road and outcome,
    and its crash type when it has one."""
    name = f"area {geo_name}, road {road.value}, outcome {outcome.value}"
    return name if crash_type is None else f"{name}, crash type {crash_type.value}"


# RateCell's fields.  A NamedTuple class body may not define ``__new__``
# or ``_make``, so the subclass below adds the checks.
class _RateCellFields(NamedTuple):
    geo: GeoArea
    road: RoadClass
    outcome: OutcomeLevel
    count: float
    vmt_miles: float
    crash_type: Optional[CrashType] = None


class RateCell(_RateCellFields):
    """One benchmark cell: a stratum, its count, exposure, and rate.

    A ``typing.NamedTuple``, like ``model``'s per-crash types: a run
    builds one per stratum and crash type, and a tuple is built and
    compared in C.  Like them it equals a plain tuple of its fields.
    Every way of making a cell checks its count and VMT
    (``_check_cell``): the constructor; ``_make``, which on a plain
    NamedTuple skips ``__new__``, and through it ``_replace`` and
    ``copy.replace``; and unpickling and ``copy``, which call the class
    (``__reduce__``; pickle protocols 0 and 1 would skip ``__new__``).
    """

    __slots__ = ()

    def __new__(cls, geo, road, outcome, count, vmt_miles, crash_type=None):
        _check_cell(count, vmt_miles)
        return tuple.__new__(cls, (geo, road, outcome, count, vmt_miles, crash_type))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def rate_ipmm(self) -> float:
        return compute_rate(self.count, self.vmt_miles)

    @property
    def ci95(self) -> tuple[float, float]:
        return poisson_ci(self.count, self.vmt_miles, level=0.95)


def refuse_unbounded_interval(cells: Iterable[RateCell], where: str = "") -> None:
    """Raise a DataError naming, after ``where``, the stratum of the first
    cell whose 0.95 interval is not finite (``poisson_ci``); return if
    every cell's is.  A ``poisson_intervals`` call over many cells calls
    this on its InvalidExposureError, which names only a count and VMT."""
    for cell in cells:
        try:
            poisson_ci(cell.count, cell.vmt_miles)
        except InvalidExposureError as exc:
            name = stratum_name(cell.geo.name, cell.road, cell.outcome, cell.crash_type)
            raise DataError(f"{where}{name}: {exc}") from None


def crash_type_distribution(counts: Mapping[CrashType, float]) -> dict[CrashType, float]:
    """Fractions per crash type within one (geo, road, outcome) stratum,
    from its crash type -> count map.  The total is summed in the map's
    order.  Fractions sum to one; UnknownOther is included like any
    other bucket.
    """
    total = sum(counts.values())
    if total <= 0:
        raise EmptyStratumError("zero total count in stratum")
    return {ctype: count / total for ctype, count in counts.items()}


def format_rate(rate_ipmm: float) -> str:
    """Fixed, locale-independent rate formatting: three decimals, or
    scientific notation below 0.001."""
    if rate_ipmm != 0.0 and abs(rate_ipmm) < 0.001:
        return f"{rate_ipmm:.3e}"
    return f"{rate_ipmm:.3f}"
