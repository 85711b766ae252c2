"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import csv
import json
import random
import time

import pytest

from crashbench import pipeline
from crashbench.model import CrashRecord, KabcoLevel, LatLon, RoadClass
from crashbench.power import (
    PowerQuery,
    mileage_for_power,
    monte_carlo_power,
    required_mileage,
)
from crashbench.rates import adjust_underreporting, compute_rate, poisson_ci
from crashbench.report import (
    NOTE_MILEAGE_SCALE,
    NOTE_PHOENIX_FATAL,
    parse_rate_table,
)
from crashbench.roadclass import FreewaySegment, FreewaySegmentIndex, classify_road, polyline_distance_m
from crashbench.taxonomy import OutcomeLevel, CrashType, classify_crash_type, classify_outcome

from corpus import make_corpus
from test_rates import brute_force_garwood


class criterion:
    """Prints one ACCEPTANCE line per criterion, pass or fail."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"\nACCEPTANCE {self.number} ({self.title}): {status}")
        return False


# Freeway benchmark table: mileage in million miles, then per-outcome
# (crashed vehicle count, published IPMM) per geography.
TABLE5_MILEAGE_MMI = {
    "Atlanta": 10_180.0,
    "Austin": 4_279.0,
    "Los Angeles": 30_700.0,
    "Phoenix": 31_285.0,
    "San Francisco to San Jose": 9_965.0,
}
TABLE5_CELLS = {
    "PoliceReported": {
        "Atlanta": (57_103, 5.609),
        "Austin": (6_722, 1.571),
        "Los Angeles": (72_034, 2.346),
        "Phoenix": (48_501, 1.550),
        "San Francisco to San Jose": (20_648, 2.072),
    },
    "AnyInjuryReported": {
        "Atlanta": (23_398, 2.298),
        "Austin": (4_176, 0.976),
        "Los Angeles": (36_445, 1.187),
        "Phoenix": (23_342, 0.746),
        "San Francisco to San Jose": (9_562, 0.960),
    },
    "AnyAirbagDeployment": {
        "Atlanta": (10_519, 1.033),
        "Austin": (3_157, 0.738),
        "Los Angeles": (20_786, 0.677),
        "Phoenix": (11_122, 0.355),
        "San Francisco to San Jose": (6_695, 0.672),
    },
    "SuspectedSeriousInjuryPlus": {
        "Atlanta": (812, 0.080),
        "Austin": (199, 0.046),
        "Los Angeles": (1_093, 0.036),
        "Phoenix": (491, 0.016),
        "San Francisco to San Jose": (337, 0.034),
    },
    "Fatal": {
        "Atlanta": (140, 0.014),
        "Austin": (47, 0.011),
        "Los Angeles": (179, 0.006),
        "Phoenix": (169, 0.005),
        "San Francisco to San Jose": (71, 0.007),
    },
}


def test_criterion_1_benchmark_table_arithmetic():
    with criterion(1, "benchmark table arithmetic, 25 cells to +/-0.001"):
        start = time.perf_counter()
        checked = 0
        for outcome, cells in TABLE5_CELLS.items():
            for geo, (count, published_ipmm) in cells.items():
                vmt_miles = TABLE5_MILEAGE_MMI[geo] * 1e6
                assert compute_rate(count, vmt_miles) == pytest.approx(
                    published_ipmm, abs=1e-3
                ), f"{geo}/{outcome}"
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 25
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_percent_difference_check():
    with criterion(2, "percent-difference formula and sign convention"):
        from crashbench.rates import safety_impact

        assert safety_impact(0.015, 0.005) == pytest.approx(200.0, abs=0.0)
        assert safety_impact(0.5, 1.0) < 0  # below benchmark -> negative
        assert safety_impact(1.5, 1.0) > 0


def test_criterion_3_power_formula_properties():
    with criterion(3, "power formula scaling, monotonicity, geographic ratios"):
        # Exact 1/lambda scaling to 1e-9 relative across the rate range.
        reference = required_mileage(PowerQuery(1e-9, 0.75)).required_miles
        lam = 1e-9
        while lam <= 1e-5:
            miles = required_mileage(PowerQuery(lam, 0.75)).required_miles
            assert miles * (lam / 1e-9) == pytest.approx(reference, rel=1e-9)
            lam *= 3.1623
        # Monotone decrease in |r - 1| on both sides of 1.
        down = [required_mileage(PowerQuery(2e-6, r)).required_miles
                for r in (0.9, 0.75, 0.5, 0.25, 0.1)]
        up = [required_mileage(PowerQuery(2e-6, r)).required_miles
              for r in (1.1, 1.25, 1.5, 2.0)]
        assert down == sorted(down, reverse=True)
        assert up == sorted(up, reverse=True)
        # Geographic ratio structure across the five freeway rates.
        rates_ipmm = [cells for cells in TABLE5_CELLS["PoliceReported"].values()]
        miles = [
            required_mileage(PowerQuery(ipmm * 1e-6, 0.75)).required_miles
            for _, ipmm in rates_ipmm
        ]
        ratio = max(miles) / min(miles)
        assert ratio == pytest.approx(5.609 / 1.550, abs=0.01)
        assert abs(ratio - 75.0 / 21.0) / (75.0 / 21.0) < 0.05


def test_criterion_4_monte_carlo_oracle():
    with criterion(4, "Monte Carlo power oracle and null calibration"):
        start = time.perf_counter()
        lam = 5.609e-6
        # Mileage analytically required for 80% rejection under the
        # two-sided benchmark-known test.
        miles = mileage_for_power(lam, 0.75, alpha=0.05, power=0.8)
        fraction = monte_carlo_power(lam, 0.75, miles, alpha=0.05, trials=10_000, seed=2023)
        assert fraction == pytest.approx(0.80, abs=0.02), f"power {fraction}"
        null_fraction = monte_carlo_power(lam, 1.0, miles, alpha=0.05, trials=10_000, seed=2023)
        assert null_fraction == pytest.approx(0.05, abs=0.01), f"null {null_fraction}"
        # Documented gap: at the verbatim displayed-formula mileage the
        # rejection fraction sits near 0.2, not the nominal target.
        displayed = required_mileage(PowerQuery(lam, 0.75)).required_miles
        gap_fraction = monte_carlo_power(lam, 0.75, displayed, alpha=0.05,
                                         trials=10_000, seed=2023)
        assert 0.15 < gap_fraction < 0.25
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_road_classifier(road_index, fixtures_dir):
    with criterion(5, "labeled road fixture 50/50 and index-vs-brute-force"):
        with open(fixtures_dir / "roadclass_cases.csv", newline="") as fh:
            cases = list(csv.DictReader(fh))
        assert len(cases) == 50
        for case in cases:
            location = (
                LatLon(float(case["lat"]), float(case["lon"])) if case["lat"] else None
            )
            record = CrashRecord(
                crash_id=case["case_id"],
                state="TX",
                county="TRAVIS",
                year=2023,
                worst_injury=KabcoLevel.O,
                location=location,
                primary_road_name=case["road_name"],
            )
            result = classify_road(record, road_index)
            assert result.road_class.value == case["expected_class"], case
            assert result.provenance.value == case["expected_provenance"], case

        # Spatial index equals exhaustive minimum on randomized instances.
        rng = random.Random(42)
        queries = 0
        while queries < 200:
            segments = []
            for i in range(rng.randint(3, 80)):
                lat = rng.uniform(29.5, 31.0)
                lon = rng.uniform(-98.5, -97.0)
                poly = [LatLon(lat, lon)]
                for _ in range(rng.randint(1, 4)):
                    last = poly[-1]
                    poly.append(LatLon(last.lat + rng.uniform(-0.03, 0.03),
                                       last.lon + rng.uniform(-0.03, 0.03)))
                segments.append(FreewaySegment(f"SR-{i}", tuple(poly)))
            rng.choice([0.01, 0.02, 0.05])  # unused: keeps the random stream fixed
            index = FreewaySegmentIndex(segments)
            for _ in range(5):
                point = LatLon(rng.uniform(29.3, 31.2), rng.uniform(-98.7, -96.8))
                brute = min(polyline_distance_m(point, s.polyline) for s in segments)
                indexed = index.distance_to_nearest(point)
                assert indexed == pytest.approx(brute, abs=1e-6)
                queries += 1


def test_criterion_6_taxonomy_invariants():
    with criterion(6, "outcome nesting, total typing, stratum sums on 10k fuzz"):
        records = make_corpus(10_000, seed=77)
        rng = random.Random(78)
        outcome_counts: dict = {}
        type_counts: dict = {}
        for record in records:
            outcomes = classify_outcome(record)
            if OutcomeLevel.FATAL in outcomes:
                assert OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS in outcomes
            if OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS in outcomes:
                assert OutcomeLevel.ANY_INJURY_REPORTED in outcomes
            if OutcomeLevel.ANY_INJURY_REPORTED in outcomes:
                assert OutcomeLevel.POLICE_REPORTED in outcomes

            road = rng.choice([RoadClass.FREEWAY, RoadClass.SURFACE_STREET])
            for unit in record.units:
                if not unit.in_transport:
                    continue
                crash_type = classify_crash_type(record, unit.unit_id, road)
                assert isinstance(crash_type, CrashType)  # total, never raises
                for outcome in outcomes:
                    outcome_counts[(road, outcome)] = outcome_counts.get((road, outcome), 0) + 1
                    key = (road, outcome, crash_type)
                    type_counts[key] = type_counts.get(key, 0) + 1
        for (road, outcome), total in outcome_counts.items():
            typed_total = sum(
                count for (r, o, _), count in type_counts.items()
                if r == road and o == outcome
            )
            assert typed_total == total


def test_criterion_7_underreporting_adjustment():
    with criterion(7, "underreporting adjustment values"):
        assert adjust_underreporting(100, 0, 0.32) == pytest.approx(147.06, abs=0.01)
        assert adjust_underreporting(0, 5, 0.32) == pytest.approx(5.0)  # fatal invariant
        assert adjust_underreporting(123.0, 4.5, 0.0) == pytest.approx(127.5)  # identity


def test_criterion_8_poisson_interval():
    with criterion(8, "exact interval vs brute force; empirical coverage"):
        low, high = poisson_ci(100, 1e6)  # exposure 1e6 puts IPMM on the mean scale
        oracle_low, oracle_high = brute_force_garwood(100, alpha=0.05)
        assert low == pytest.approx(oracle_low, abs=1e-6)
        assert high == pytest.approx(oracle_high, abs=1e-6)

        import numpy as np

        rng = np.random.default_rng(314)
        draws = rng.poisson(lam=30.0, size=5000)
        interval_cache: dict[int, tuple[float, float]] = {}
        covered = 0
        for draw in draws:
            key = int(draw)
            if key not in interval_cache:
                interval_cache[key] = poisson_ci(key, 1e6)
            ci_low, ci_high = interval_cache[key]
            if ci_low <= 30.0 <= ci_high:
                covered += 1
        assert covered / 5000 >= 0.94


def test_criterion_9_end_to_end_determinism(fixtures_dir, tmp_path):
    with criterion(9, "byte-identical runs across repeats and worker counts"):
        outputs = {}
        for name, workers in (("a", 1), ("b", 1), ("c", 8)):
            out_dir = tmp_path / name
            config = pipeline.load_run_config(
                fixtures_dir / "run.ini", out_dir=out_dir, workers=workers
            )
            report = pipeline.run(config)
            outputs[name] = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        assert outputs["a"] == outputs["b"]  # repeat run
        assert outputs["a"] == outputs["c"]  # worker count 1 vs 8

        # Round trip: parsing the emitted tables recovers every cell exactly.
        recovered = parse_rate_table(tmp_path / "a" / "benchmark_rates_2023.csv")
        recovered += parse_rate_table(tmp_path / "a" / "crash_type_rates_2023.csv")
        sort_key = lambda c: (
            c.geo.name, c.road.value, c.outcome.value,
            c.crash_type.value if c.crash_type else "",
        )
        assert sorted(recovered, key=sort_key) == sorted(report.cells, key=sort_key)


def test_criterion_10_documented_discrepancies(fixtures_dir, tmp_path):
    with criterion(10, "methodology notes present in the emitted report"):
        config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path)
        pipeline.run(config)
        doc = json.loads((tmp_path / "report_2023.json").read_text())
        notes = doc["methodology_notes"]
        assert NOTE_MILEAGE_SCALE in notes  # required-mileage absolute-scale note
        assert NOTE_PHOENIX_FATAL in notes  # 4-vs-5 incidents-per-billion note
        assert any("4.77x" in note for note in notes)
        assert any("5.4 per billion" in note for note in notes)
