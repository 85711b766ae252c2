import copy
import math
import pickle
import random
import struct
import sys
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import gammaincinv

from crashbench.model import GeoArea, RoadClass
from crashbench.rates import (
    EmptyStratumError,
    InvalidExposureError,
    InvalidFractionError,
    RateCell,
    UndefinedBaselineError,
    adjust_underreporting,
    compute_rate,
    crash_type_distribution,
    format_rate,
    poisson_ci,
    poisson_intervals,
    safety_impact,
)
from crashbench.taxonomy import CrashType, OutcomeLevel


# --- independent oracle: Garwood bounds by direct Poisson tail summation ----

def _tail_ge(n: int, mu: float) -> float:
    """P(X >= n | mu) via direct pmf summation (no gamma shortcuts)."""
    term = math.exp(-mu)
    acc = term
    for k in range(1, n):
        term *= mu / k
        acc += term
    return 1.0 - acc


def _tail_le(n: int, mu: float) -> float:
    term = math.exp(-mu)
    acc = term
    for k in range(1, n + 1):
        term *= mu / k
        acc += term
    return acc


def brute_force_garwood(n: int, alpha: float = 0.05) -> tuple[float, float]:
    def bisect(fn, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fn(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    low = 0.0 if n == 0 else bisect(lambda mu: alpha / 2 - _tail_ge(n, mu), 1e-12, 10.0 * n + 10)
    high = bisect(lambda mu: _tail_le(n, mu) - alpha / 2, 1e-12, 10.0 * n + 50)
    return low, high


class TestComputeRate:
    def test_atlanta_police_reported(self):
        assert compute_rate(57103, 10_180e6) == pytest.approx(5.609, abs=1e-3)

    def test_phoenix_airbag(self):
        assert compute_rate(11122, 31_285e6) == pytest.approx(0.355, abs=1e-3)

    def test_zero_count(self):
        assert compute_rate(0, 12345.0) == 0.0

    def test_invalid_exposure(self):
        with pytest.raises(InvalidExposureError):
            compute_rate(1, 0.0)
        with pytest.raises(InvalidExposureError):
            compute_rate(1, -5.0)

    def test_linearity(self):
        rng = random.Random(1)
        for _ in range(25):
            count = rng.uniform(0, 1e5)
            vmt = rng.uniform(1e3, 1e10)
            scale = rng.uniform(0.1, 10)
            assert compute_rate(scale * count, vmt) == pytest.approx(
                scale * compute_rate(count, vmt), rel=1e-12
            )
            assert compute_rate(count, scale * vmt) == pytest.approx(
                compute_rate(count, vmt) / scale, rel=1e-12
            )


class TestUnderreporting:
    def test_reference_value(self):
        assert adjust_underreporting(100, 0, 0.32) == pytest.approx(147.06, abs=0.01)

    def test_zero_fraction_is_identity(self):
        assert adjust_underreporting(123.4, 5.0, 0.0) == pytest.approx(128.4)

    def test_fatal_portion_unadjusted(self):
        assert adjust_underreporting(0, 5, 0.32) == pytest.approx(5.0)

    def test_invalid_fraction(self):
        with pytest.raises(InvalidFractionError):
            adjust_underreporting(10, 0, 1.0)
        with pytest.raises(InvalidFractionError):
            adjust_underreporting(10, 0, -0.1)


class TestPoissonCi:
    def test_zero_count_lower_bound(self):
        low, high = poisson_ci(0, 1e6)
        assert low == 0.0
        assert high > 0.0

    def test_matches_brute_force_oracle_at_100(self):
        low, high = poisson_ci(100, 1e6)  # exposure 1e6 -> IPMM equals the mean scale
        oracle_low, oracle_high = brute_force_garwood(100)
        assert low == pytest.approx(oracle_low, abs=1e-6)
        assert high == pytest.approx(oracle_high, abs=1e-6)

    @pytest.mark.parametrize("count", [1, 3, 17, 250])
    def test_matches_brute_force_oracle_small_counts(self, count):
        low, high = poisson_ci(count, 1e6)
        oracle_low, oracle_high = brute_force_garwood(count)
        assert low == pytest.approx(oracle_low, abs=1e-6)
        assert high == pytest.approx(oracle_high, abs=1e-6)

    def test_relative_width_shrinks_with_count(self):
        widths = []
        for count in (10, 100, 1000, 10000):
            low, high = poisson_ci(count, float(count) * 1e3)  # fixed rate
            rate = compute_rate(count, float(count) * 1e3)
            widths.append((high - low) / rate)
        assert widths == sorted(widths, reverse=True)

    def test_fractional_counts_interpolate(self):
        low2, high2 = poisson_ci(2.0, 1e6)
        lowf, highf = poisson_ci(2.5, 1e6)
        low3, high3 = poisson_ci(3.0, 1e6)
        assert low2 < lowf < low3
        assert high2 < highf < high3

    def test_interval_contains_point_estimate(self):
        rng = random.Random(4)
        for _ in range(40):
            count = rng.uniform(0.0, 500.0)
            vmt = rng.uniform(1e4, 1e9)
            low, high = poisson_ci(count, vmt)
            assert low <= compute_rate(count, vmt) <= high


# Zero, whole and fractional counts, as the rate tables hold them, and
# subnormal ones, whose lower bound is 0.
interval_counts = st.one_of(
    st.just(0.0),
    st.integers(0, 10**6).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(0.0, sys.float_info.min, exclude_max=True),
)


class TestPoissonIntervals:
    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(interval_counts, st.floats(1.0, 1e13)), min_size=1, max_size=40
        ),
        level=st.sampled_from([0.8, 0.9, 0.95, 0.99, 0.999]),
    )
    def test_arrays_equal_scalar_gammaincinv_bit_for_bit(self, cells, level):
        counts = [count for count, _ in cells]
        vmts = [vmt for _, vmt in cells]
        lows, highs = poisson_intervals(counts, vmts, level)
        alpha = 1.0 - level
        for (count, vmt), low, high in zip(cells, lows.tolist(), highs.tolist()):
            scale = 1e6 / vmt
            expected_low = (
                0.0 if count < sys.float_info.min
                else float(gammaincinv(count, alpha / 2.0)) * scale
            )
            expected_high = float(gammaincinv(count + 1.0, 1.0 - alpha / 2.0)) * scale
            bits = (low.hex(), high.hex())
            assert bits == (expected_low.hex(), expected_high.hex())
            assert bits == tuple(bound.hex() for bound in poisson_ci(count, vmt, level))

    def test_results_are_python_floats(self):
        assert all(type(bound) is float for bound in poisson_ci(3.5, 1e6))

    def test_empty_input(self):
        lows, highs = poisson_intervals([], [])
        assert lows.shape == highs.shape == (0,)

    def test_validation_names_the_bad_entry(self):
        with pytest.raises(InvalidExposureError, match="got -1.0"):
            poisson_intervals([1.0, 2.0], [1e6, -1.0])
        with pytest.raises(ValueError, match="count must be >= 0, got -2.0"):
            poisson_intervals([1.0, -2.0], [1e6, 1e6])
        with pytest.raises(ValueError, match="level"):
            poisson_intervals([1.0], [1e6], level=1.0)

    @pytest.mark.parametrize("count", [5e-324, 1e-310, 1e-300, 1e-12])
    def test_tiny_count_has_zero_lower_bound(self, count):
        # Subnormal counts get the limit that gammaincinv reaches on normal ones.
        low, high = poisson_ci(count, 1e6)
        assert low == 0.0 and 0.0 < high < math.inf

    @pytest.mark.parametrize("count,vmt", [(0.0, 1e-320), (1.0, 1e-302), (0.0, 5e-324)])
    def test_interval_that_overflows_is_refused(self, count, vmt):
        # 1e6 / VMT, or the upper bound over it, overflows although the
        # rate is finite: the interval used to be (nan, inf) or (x, inf),
        # with a numpy overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidExposureError,
                match=rf"interval must be finite, got count {count!r} over vmt_miles {vmt!r}",
            ):
                poisson_intervals([2.0, count], [1e6, vmt])

    @pytest.mark.parametrize(
        "count,vmt,error,match",
        [
            (math.nan, 1e6, ValueError, "count must be >= 0, got nan"),
            (math.inf, 1e6, ValueError, "count must be finite, got inf"),
            (1.0, math.nan, InvalidExposureError, "vmt_miles must be > 0, got nan"),
            (1.0, math.inf, InvalidExposureError, "vmt_miles must be finite, got inf"),
        ],
    )
    def test_non_finite_cell_is_rejected(self, count, vmt, error, match):
        with pytest.raises(error, match=match):
            poisson_intervals([2.0, count], [1e6, vmt])
        with pytest.raises(error, match=match):
            RateCell(GeoArea("Austin", "TX", frozenset({"TRAVIS"})), RoadClass.FREEWAY,
                     OutcomeLevel.FATAL, count, vmt)
        with pytest.raises(error, match=match):
            compute_rate(count, vmt)


class TestSafetyImpact:
    def test_identity(self):
        assert safety_impact(1.0, 1.0) == 0.0

    def test_half_rate(self):
        assert safety_impact(0.5, 1.0) == pytest.approx(-50.0)

    def test_phoenix_fatal_example(self):
        assert safety_impact(0.015, 0.005) == pytest.approx(200.0)

    def test_zero_baseline_undefined(self):
        with pytest.raises(UndefinedBaselineError):
            safety_impact(1.0, 0.0)

    def test_argument_swap_identity(self):
        rng = random.Random(8)
        for _ in range(30):
            a = rng.uniform(0.01, 10)
            b = rng.uniform(0.01, 10)
            x = safety_impact(a, b)
            swapped = safety_impact(b, a)
            assert swapped == pytest.approx(100.0 * (1.0 / (1.0 + x / 100.0) - 1.0), rel=1e-12)


class TestDistribution:
    def test_degenerate_single_type(self):
        dist = crash_type_distribution({CrashType.SINGLE_VEHICLE: 12.0})
        assert dist == {CrashType.SINGLE_VEHICLE: 1.0}

    def test_simple_fractions(self):
        dist = crash_type_distribution(
            {
                CrashType.V2V_FRONT_TO_REAR: 50,
                CrashType.V2V_LATERAL: 30,
                CrashType.SINGLE_VEHICLE: 20,
            }
        )
        assert dist[CrashType.V2V_FRONT_TO_REAR] == pytest.approx(0.5)
        assert dist[CrashType.V2V_LATERAL] == pytest.approx(0.3)
        assert dist[CrashType.SINGLE_VEHICLE] == pytest.approx(0.2)

    def test_zero_total_raises(self):
        with pytest.raises(EmptyStratumError):
            crash_type_distribution({CrashType.SINGLE_VEHICLE: 0.0})

    def test_normalization_under_random_counts(self):
        rng = random.Random(2)
        for _ in range(50):
            counts = {t: rng.uniform(0, 100) for t in CrashType}
            counts[CrashType.UNKNOWN_OTHER] += 1.0  # keep total positive
            dist = crash_type_distribution(counts)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


class TestRateCell:
    def test_rate_consistency_invariant(self):
        geo = GeoArea("Austin", "TX", frozenset({"TRAVIS"}))
        cell = RateCell(geo, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED, 57103.0, 10_180e6)
        assert cell.rate_ipmm == pytest.approx(cell.count / cell.vmt_miles * 1e6, rel=1e-12)
        low, high = cell.ci95
        assert low <= cell.rate_ipmm <= high

    def test_invalid_cell_rejected(self):
        geo = GeoArea("Austin", "TX", frozenset({"TRAVIS"}))
        with pytest.raises(InvalidExposureError):
            RateCell(geo, RoadClass.FREEWAY, OutcomeLevel.FATAL, 1.0, 0.0)
        with pytest.raises(ValueError):
            RateCell(geo, RoadClass.FREEWAY, OutcomeLevel.FATAL, -1.0, 1.0)
        # count / VMT * 1e6 overflows: the rate would be inf.
        with pytest.raises(InvalidExposureError, match="must be finite"):
            RateCell(geo, RoadClass.FREEWAY, OutcomeLevel.FATAL, 1.0, 1e-320)

    # A valid cell whose count and VMT floats each occur once in its pickle.
    BASE = (GeoArea("Austin", "TX", frozenset({"TRAVIS"})), RoadClass.FREEWAY,
            OutcomeLevel.FATAL, 12345.5, 98765432.25, CrashType.PEDESTRIAN)

    @staticmethod
    def _ways_to_make(count: float, vmt: float) -> dict:
        """Each way of making a cell of the given count and VMT, by name."""
        base = RateCell(*TestRateCell.BASE)
        fields = (*base[:3], count, vmt, base.crash_type)
        ways = {
            "constructor": lambda: RateCell(*fields),
            "keywords": lambda: RateCell(**dict(zip(RateCell._fields, fields))),
            "_make": lambda: RateCell._make(fields),
            "_replace": lambda: base._replace(count=count, vmt_miles=vmt),
        }
        if hasattr(copy, "replace"):  # Python 3.13
            ways["copy.replace"] = lambda: copy.replace(base, count=count, vmt_miles=vmt)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            # The pickle of the base cell with its count and VMT rewritten:
            # each float is a FLOAT opcode (text) or a BINFLOAT (8 bytes).
            encode = (lambda x: b"F" + repr(x).encode() + b"\n") if protocol == 0 else (
                lambda x: b"G" + struct.pack(">d", x))
            data = pickle.dumps(base, protocol)
            for old, new in ((base.count, count), (base.vmt_miles, vmt)):
                assert data.count(encode(old)) == 1
                data = data.replace(encode(old), encode(new))
            ways[f"pickle {protocol}"] = lambda data=data: pickle.loads(data)
        return ways

    @settings(max_examples=150, deadline=None)
    @given(
        count=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e300])),
        vmt=st.one_of(st.floats(), st.sampled_from([1e-320, 1e-300, 5e-324, 1e9])),
    )
    def test_every_way_of_making_a_cell_checks_it(self, count, vmt):
        # The pickle rewrite must not find the new count where the VMT was.
        assume(count != self.BASE[4])
        try:
            compute_rate(count, vmt)
        except (ValueError, InvalidExposureError) as exc:
            refused = type(exc)
        else:
            refused = None
        for name, make in self._ways_to_make(count, vmt).items():
            if refused is None:
                cell = make()
                assert type(cell) is RateCell, name
                assert tuple(cell) == (*self.BASE[:3], count, vmt, self.BASE[5]), name
            else:
                with pytest.raises(refused):
                    make()

    @pytest.mark.parametrize(
        "count,vmt,error",
        [(-1.0, 1e9, ValueError), (1.0, 0.0, InvalidExposureError),
         (1.0, 1e-320, InvalidExposureError)],
    )
    def test_invalid_count_or_vmt_refused_by_every_way(self, count, vmt, error):
        ways = self._ways_to_make(count, vmt)
        assert {"constructor", "_make", "_replace", f"pickle {pickle.HIGHEST_PROTOCOL}"} <= set(ways)
        for name, make in ways.items():
            with pytest.raises(error):
                make()

    def test_copies_are_equal_cells(self):
        cell = RateCell(*self.BASE)
        for copied in (copy.copy(cell), copy.deepcopy(cell),
                       *(pickle.loads(pickle.dumps(cell, p))
                         for p in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(copied) is RateCell and copied == cell

    def test_fields_are_read_only(self):
        cell = RateCell(*self.BASE)
        for name in (*RateCell._fields, "rate_ipmm", "ci95", "other"):
            with pytest.raises(AttributeError):
                setattr(cell, name, 1.0)
        assert tuple(cell) == self.BASE


class TestFormatting:
    def test_three_decimals(self):
        assert format_rate(5.6093320) == "5.609"

    def test_scientific_below_threshold(self):
        assert format_rate(0.0005) == "5.000e-04"
        assert format_rate(0.014) == "0.014"

    def test_zero(self):
        assert format_rate(0.0) == "0.000"
