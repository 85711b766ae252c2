import json
import shutil

import pytest
from hypothesis import given, reject, settings, strategies as st

from crashbench import pipeline
from crashbench.model import (
    ConfigError,
    DataError,
    FunctionalClass,
    GeoArea,
    PassengerShareTable,
    VehicleClass,
    VmtRecord,
)
from crashbench.taxonomy import CrashType, OutcomeLevel

from corpus import make_corpus


@pytest.fixture(scope="module")
def fixture_report(fixtures_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline_out")
    config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=out)
    return pipeline.run(config), out


def cell_map(report):
    return {
        (c.geo.name, c.road.value, c.outcome): c
        for c in report.cells
        if c.crash_type is None
    }


class TestAggregation:
    def test_hand_computed_anchor_counts(self, fixture_report):
        report, _ = fixture_report
        cells = cell_map(report)
        austin_fwy = lambda o: cells[("Austin", "Freeway", o)]
        # 20 known passenger vehicles plus one unknown-class unit imputed
        # at the Austin-wide passenger fraction 40/43.
        assert austin_fwy(OutcomeLevel.POLICE_REPORTED).count == pytest.approx(20 + 40 / 43)
        # 14 any-injury vehicles, 2 of them fatal: (14-2)/0.68 + 2.
        assert austin_fwy(OutcomeLevel.ANY_INJURY_REPORTED).count == pytest.approx(
            12 / 0.68 + 2
        )
        assert austin_fwy(OutcomeLevel.ANY_AIRBAG_DEPLOYMENT).count == pytest.approx(8.0)
        assert austin_fwy(OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS).count == pytest.approx(6.0)
        assert austin_fwy(OutcomeLevel.FATAL).count == pytest.approx(2.0)
        # Passenger VMT: 2e9 freeway miles at a 0.92 passenger share.
        assert austin_fwy(OutcomeLevel.FATAL).vmt_miles == pytest.approx(1.84e9)

        round_rock = cells[("Round Rock", "Freeway", OutcomeLevel.POLICE_REPORTED)]
        assert round_rock.count == pytest.approx(5 + 8 / 9)

    def test_crash_type_anchors(self, fixture_report):
        report, _ = fixture_report
        typed = {
            (c.geo.name, c.road.value, c.outcome, c.crash_type): c.count
            for c in report.cells
            if c.crash_type is not None
        }
        pr = OutcomeLevel.POLICE_REPORTED
        assert typed[("Austin", "Freeway", pr, CrashType.SINGLE_VEHICLE)] == pytest.approx(3.0)
        assert typed[("Austin", "Freeway", pr, CrashType.SECONDARY_CRASH)] == pytest.approx(1.0)
        assert typed[("Austin", "Freeway", pr, CrashType.PEDESTRIAN)] == pytest.approx(1.0)
        assert typed[("Austin", "Freeway", pr, CrashType.MOTORCYCLIST)] == pytest.approx(1.0)
        assert typed[("Austin", "SurfaceStreet", pr, CrashType.INTERSECTION)] == pytest.approx(8.0)

    def test_type_counts_sum_to_outcome_counts(self, fixture_report):
        report, _ = fixture_report
        cells = cell_map(report)
        sums: dict = {}
        for cell in report.cells:
            if cell.crash_type is None:
                continue
            key = (cell.geo.name, cell.road.value, cell.outcome)
            sums[key] = sums.get(key, 0.0) + cell.count
        for key, total in sums.items():
            assert total == pytest.approx(cells[key].count, abs=1e-9)

    def test_distributions_normalized(self, fixture_report):
        report, _ = fixture_report
        for _, _, _, fractions in report.distributions:
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_severity_monotonicity(self, fixture_report):
        # Fatal <= SSI+ <= adjusted any-injury, and the adjustment can
        # push any-injury above its raw value but never past
        # police-reported / (1 - u).
        report, _ = fixture_report
        cells = cell_map(report)
        strata = {(geo, road) for geo, road, _ in cells}
        for geo, road in strata:
            fatal = cells[(geo, road, OutcomeLevel.FATAL)].count
            ssi = cells[(geo, road, OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS)].count
            any_injury = cells[(geo, road, OutcomeLevel.ANY_INJURY_REPORTED)].count
            police = cells[(geo, road, OutcomeLevel.POLICE_REPORTED)].count
            assert fatal <= ssi <= any_injury + 1e-9
            assert any_injury <= police / (1.0 - 0.32) + 1e-9

    def test_power_grid_covers_nonzero_cells(self, fixture_report):
        report, _ = fixture_report
        nonzero = [c for c in report.cells if c.crash_type is None and c.count > 0]
        assert len(report.power_grid) == 6 * len(nonzero)
        row = report.power_grid[0]
        assert row["target_power_miles"] > row["required_miles"]

    def test_cohort_count_invariants(self, fixtures_dir, tmp_path):
        config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path)
        base = config.config_path.parent
        mapping = pipeline.resolve_mapping("builtin:tx", base)
        from crashbench.ingest import (
            FileCachedGeocoder,
            geocode_missing,
            load_crash_table,
            load_share_table,
            load_vmt_table,
        )
        from crashbench.roadclass import (
            FreewaySegmentIndex, load_alias_table, load_segments_geojson,
        )

        records, _ = load_crash_table(
            base / "tx_crashes.csv", mapping,
            units_source=base / "tx_units.csv", persons_source=base / "tx_persons.csv",
        )
        records, _ = geocode_missing(records, FileCachedGeocoder(base / "geocache.tsv"))
        index = FreewaySegmentIndex(
            load_segments_geojson(base / "roadclass_segments.geojson"),
            aliases=load_alias_table(base / "roadclass_aliases.ini"),
        )
        vmt = load_vmt_table(base / "tx_vmt.csv",
                             pipeline.resolve_mapping("builtin:tx_vmt", base))
        shares = load_share_table(base / "shares.csv")
        tables = pipeline.build_benchmark(
            records, index, vmt, shares, config.areas, 2023, config.params
        )
        assert tables.cohort_counts
        for cc in tables.cohort_counts.values():
            assert cc.imputed_passenger_count <= cc.unknown_count + 1e-9
            assert cc.final_count == pytest.approx(
                cc.known_passenger_count + cc.imputed_passenger_count
            )
        pr = tables.cohort_counts[
            ("Austin", pipeline.RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED)
        ]
        assert pr.known_passenger_count == pytest.approx(20.0)
        assert pr.unknown_count == 1
        assert pr.imputed_passenger_count == pytest.approx(40 / 43)

    def test_diagnostics_reconcile_with_ingest(self, fixture_report):
        report, _ = fixture_report
        diag = report.diagnostics
        ingest = diag["ingest"][0]
        assert ingest["rows_read"]["crash"] == 35
        assert ingest["records_emitted"] == 33
        assert ingest["rows_skipped"] == 2
        assert ingest["rows_read"]["crash"] == (
            ingest["records_emitted"] + ingest["rows_skipped"]
        )
        assert diag["records_in_year"] == 32  # one 2022 crash excluded
        assert diag["records_outside_areas"] == 1  # the Hays county crash
        assert diag["unknown_class_units"] == 2
        assert diag["geocoding"] == {"resolved": 1, "unresolved": 1, "failed": 0}
        assert diag["unresolvable_road_records"] == 1
        assert diag["imputed_passenger_mass"]["Austin"] == pytest.approx(40 / 43)
        assert diag["imputed_passenger_mass"]["Round Rock"] == pytest.approx(8 / 9)

    def test_metadata_digests_present(self, fixture_report):
        report, out = fixture_report
        meta = report.metadata
        assert meta["tool_version"] == "0.1.0"
        assert len(meta["config_digest"]) == 64
        assert "crash:tx" in meta["input_digests"]
        assert "segments" in meta["input_digests"]
        doc = json.loads((out / "report_2023.json").read_text())
        assert doc["metadata"]["config_digest"] == meta["config_digest"]


class TestRunConfig:
    def test_missing_input_file_is_config_error(self, fixtures_dir, tmp_path):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(tmp_path / "nope.ini")

    def test_default_areas_used_when_section_absent(self, fixtures_dir, tmp_path):
        text = (fixtures_dir / "run.ini").read_text()
        stripped = text.replace("[areas]\nAustin = TX: Travis\nRound Rock = TX: Williamson\n", "")
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text(stripped)
        for name in ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv", "tx_vmt.csv",
                     "shares.csv", "geocache.tsv", "roadclass_segments.geojson",
                     "roadclass_aliases.ini"):
            (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
        config = pipeline.load_run_config(cfg_path)
        assert {a.name for a in config.areas} == {
            "Atlanta", "Austin", "Los Angeles", "Phoenix", "San Francisco to San Jose"
        }

    def test_area_syntax_validation(self):
        with pytest.raises(ConfigError):
            pipeline._parse_area("X", "TX")

    def test_workers_validated(self, fixtures_dir):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(fixtures_dir / "run.ini", workers=0)

    def test_unknown_gate_order_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.RunParams(type_gate_order=("secondary", "bogus"))

    def test_ca_style_source_with_vmt_sidecar(self, tmp_path):
        # CA-shaped source: all-roads VMT plus a freeway-only sidecar,
        # surface VMT derived by subtraction inside the run.
        (tmp_path / "ca_crashes.csv").write_text(
            "CASE_ID,ACCIDENT_YEAR,CNTY_CITY_LOC,LATITUDE,LONGITUDE,PRIMARY_RD,"
            "SECONDARY_RD,COLLISION_SEVERITY,INTERSECTION,TYPE_OF_COLLISION\n"
            "K1,2023,1900,34.05,-118.25,I-110,,2,N,C\n"
            "K2,2023,1900,34.06,-118.26,MAIN ST,,0,Y,D\n"
        )
        (tmp_path / "ca_parties.csv").write_text(
            "CASE_ID,PARTY_NUMBER,PARTY_TYPE,STWD_VEHICLE_TYPE,MOVE_PRE_ACC,"
            "CHP_VEH_TYPE_TOWING,DIR_OF_TRAVEL\n"
            "K1,1,1,A,B,,N\nK1,2,1,A,B,,N\nK2,1,1,D,B,,E\nK2,2,1,A,B,,W\n"
        )
        (tmp_path / "ca_victims.csv").write_text(
            "CASE_ID,PARTY_NUMBER,VICTIM_DEGREE_OF_INJURY,VICTIM_SAFETY_EQUIP_2\n"
            "K1,1,2,L\nK2,1,0,M\n"
        )
        (tmp_path / "ca_vmt.csv").write_text(
            "County,Year,Total_VMT\nLos Angeles,2023,1000000000\n"
        )
        (tmp_path / "hpms.csv").write_text(
            "State,County,Year,Freeway_VMT\nCA,Los Angeles,2023,400000000\n"
        )
        (tmp_path / "segments.geojson").write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature",'
            '"properties": {"route_id": "I-110", "names": [], "always_freeway": true},'
            '"geometry": {"type": "LineString",'
            '"coordinates": [[-118.25, 33.9], [-118.25, 34.2]]}}]}\n'
        )
        (tmp_path / "shares.csv").write_text(
            "state,functional_class,urban,share\n"
            "CA,Freeway,true,0.9\nCA,SurfaceStreet,true,0.9\n"
        )
        (tmp_path / "run.ini").write_text(
            "[run]\nyear = 2023\nseed = 1\n\n"
            "[areas]\nLos Angeles = CA: Los Angeles\n\n"
            "[inputs]\nsegments = segments.geojson\nshares = shares.csv\n\n"
            "[source.ca]\nmapping = builtin:ca\n"
            "crash_table = ca_crashes.csv\nunits_table = ca_parties.csv\n"
            "persons_table = ca_victims.csv\n"
            "vmt_table = ca_vmt.csv\nvmt_mapping = builtin:ca_vmt\n"
            "vmt_sidecar = hpms.csv\nvmt_sidecar_mapping = builtin:hpms_freeway\n"
        )
        config = pipeline.load_run_config(tmp_path / "run.ini", out_dir=tmp_path / "out")
        report = pipeline.run(config)
        cells = cell_map(report)
        freeway_pr = cells[("Los Angeles", "Freeway", OutcomeLevel.POLICE_REPORTED)]
        surface_pr = cells[("Los Angeles", "SurfaceStreet", OutcomeLevel.POLICE_REPORTED)]
        assert freeway_pr.count == pytest.approx(2.0)  # the I-110 crash, two cars
        assert freeway_pr.vmt_miles == pytest.approx(400e6 * 0.9)
        # Surface VMT derived: (1e9 - 4e8) * 0.9 passenger share.
        assert surface_pr.vmt_miles == pytest.approx(600e6 * 0.9)
        assert surface_pr.count == pytest.approx(2.0)
        # SWITRS-style severity: K1 worst A (victim degree 2), airbag deployed.
        assert cells[
            ("Los Angeles", "Freeway", OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS)
        ].count == pytest.approx(2.0)
        assert cells[
            ("Los Angeles", "Freeway", OutcomeLevel.ANY_AIRBAG_DEPLOYMENT)
        ].count == pytest.approx(2.0)

    @pytest.mark.parametrize("case", ["repeated row", "sidecar repeats a class"])
    def test_duplicate_vmt_key_is_data_error(self, fixtures_dir, tmp_path, case):
        # A 5-mile repeat of Travis freeway VMT must not replace the 2e9
        # miles of the first row.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        repeat = "Travis,FREEWAY,2023,5\n"
        if case == "repeated row":
            with open(inputs / "tx_vmt.csv", "a", encoding="utf-8") as fh:
                fh.write(repeat)
        else:
            (inputs / "sidecar.csv").write_text(
                "County,Functional_Class,Year,Annual_VMT\n" + repeat
            )
            with open(inputs / "run.ini", "a", encoding="utf-8") as fh:
                fh.write("vmt_sidecar = sidecar.csv\n")  # [source.tx] is last
        config = pipeline.load_run_config(inputs / "run.ini", out_dir=tmp_path / "out")
        with pytest.raises(DataError, match="duplicate Freeway VMT for TX/TRAVIS in 2023"):
            pipeline.run(config)

    def test_vru_first_gate_order_changes_typing(self, fixtures_dir, tmp_path):
        from dataclasses import replace

        config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path)
        config = replace(
            config,
            params=replace(
                config.params,
                type_gate_order=("vru", "secondary", "intersection",
                                 "single_vehicle", "v2v_geometry"),
            ),
        )
        report = pipeline.run(config)
        assert report.metadata["params"]["type_gate_order"][0] == "vru"


# A two-area world over the corpus counties (HAYS falls outside both).
PROPERTY_AREAS = (
    GeoArea("Austin", "TX", frozenset({"TRAVIS"})),
    GeoArea("Round Rock", "TX", frozenset({"WILLIAMSON"})),
)
PROPERTY_VMT = [
    VmtRecord("TX", county, fclass, 2023, miles)
    for county, miles in (("TRAVIS", 3e9), ("WILLIAMSON", 1e9))
    for fclass in (FunctionalClass.FREEWAY, FunctionalClass.SURFACE_STREET)
]
PROPERTY_SHARES = PassengerShareTable(
    {
        ("TX", FunctionalClass.FREEWAY, True): 0.92,
        ("TX", FunctionalClass.SURFACE_STREET, True): 0.9,
    }
)
corpora = st.builds(make_corpus, st.integers(1, 40), st.integers(0, 2**32 - 1))


def _property_tables(records, road_index, **params):
    try:
        return pipeline.build_benchmark(
            records, road_index, PROPERTY_VMT, PROPERTY_SHARES, PROPERTY_AREAS, 2023,
            pipeline.RunParams(**params),
        )
    except DataError as exc:
        if "no known classes to impute from" not in str(exc):
            raise
        reject()


class TestBuildBenchmarkProperties:
    @settings(max_examples=40, deadline=None)
    @given(records=corpora, rng=st.randoms(use_true_random=False))
    def test_input_order_invariance(self, road_index, records, rng):
        shuffled = list(records)
        rng.shuffle(shuffled)
        forward = _property_tables(records, road_index, impute_by_road=False)
        permuted = _property_tables(shuffled, road_index, impute_by_road=False)
        assert permuted.cells == forward.cells
        assert permuted.typed_cells == forward.typed_cells
        assert permuted.distributions == forward.distributions

    @settings(max_examples=40, deadline=None)
    @given(records=corpora, impute_by_road=st.booleans())
    def test_severity_cells_sum_typed_cells(self, road_index, records, impute_by_road):
        tables = _property_tables(records, road_index, impute_by_road=impute_by_road)
        typed_sums: dict = {}
        for cell in tables.typed_cells:
            key = (cell.geo.name, cell.road, cell.outcome)
            typed_sums[key] = typed_sums.get(key, 0.0) + cell.count
        for cell in tables.cells:
            typed = typed_sums.get((cell.geo.name, cell.road, cell.outcome), 0.0)
            assert cell.count == pytest.approx(typed, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(records=corpora, impute_by_road=st.booleans())
    def test_mass_conservation(self, road_index, records, impute_by_road):
        # PoliceReported is never adjusted and every crash qualifies, so
        # per area it counts each known in-transport passenger vehicle
        # once plus the passenger mass imputed to unknown-class units.
        tables = _property_tables(records, road_index, impute_by_road=impute_by_road)
        imputed = tables.diagnostics["imputed_passenger_mass"]
        for area in PROPERTY_AREAS:
            known = sum(
                1
                for record in records
                if area.contains(record.state, record.county)
                for unit in record.units
                if unit.in_transport and unit.vehicle_class is VehicleClass.PASSENGER
            )
            police_reported = sum(
                cell.count
                for cell in tables.cells
                if cell.geo == area and cell.outcome is OutcomeLevel.POLICE_REPORTED
            )
            assert police_reported == pytest.approx(
                known + imputed.get(area.name, 0.0), rel=1e-12
            )
