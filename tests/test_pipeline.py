import copy
import csv
import gc
import io
import itertools
import json
import math
import re
import shutil
from dataclasses import replace
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import Phase, given, reject, settings, strategies as st

from crashbench import ingest, pipeline
from crashbench.model import (
    ConfigError,
    CrashRecord,
    DataError,
    FunctionalClass,
    GeoArea,
    InvalidOptionError,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    PassengerShareTable,
    VehicleClass,
    VehicleUnit,
    VmtRecord,
)
from crashbench.ingest import load_crash_table
from crashbench.power import DEFAULT_EFFECT_RATIOS
from crashbench.roadclass import classify_road
from crashbench.rates import adjust_underreporting
from crashbench.taxonomy import (
    DEFAULT_GATE_ORDER,
    LABEL,
    CrashType,
    OutcomeLevel,
    classify_crash_type,
    classify_outcome,
)

from corpus import make_corpus, texas_tables, tiled_table


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

    @pytest.mark.parametrize("unit", ["", "7"])
    def test_person_airbag_flag_counts_without_its_unit_row(self, fixtures_dir, tmp_path, unit):
        # A person's flag used to reach the crash only through the unit row
        # it names, so a blank unit number, or one with no unit row, was lost.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        with open(inputs / "tx_persons.csv", "a", encoding="utf-8") as fh:
            fh.write(f"C002,{unit},2,2\n")
        config = pipeline.load_run_config(inputs / "run.ini", out_dir=tmp_path / "out")
        cells = cell_map(pipeline.run(config))
        # C002's two in-transport passenger cars join the fixture's 8.
        airbag = cells[("Austin", "Freeway", OutcomeLevel.ANY_AIRBAG_DEPLOYMENT)]
        assert airbag.count == pytest.approx(10.0)

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
        # Built once in emit order: strata by their labels, each with the
        # effect ratios in numeric order.
        assert report.power_grid == sorted(report.power_grid)
        lambdas = {
            (c.geo.name, c.road.value, c.outcome.value): c.count / c.vmt_miles for c in nonzero
        }
        effects = {}
        for geo, road, outcome, effect, required, expected, target in report.power_grid:
            effects.setdefault((geo, road, outcome), []).append(effect)
            assert 0.0 < required < target
            assert expected == effect * lambdas[(geo, road, outcome)] * required
        assert effects == {key: sorted(DEFAULT_EFFECT_RATIOS) for key in lambdas}

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
        counts = {(c.geo.name, c.road, c.outcome): c.count for c in tables.cells}
        for key, cc in tables.cohort_counts.items():
            assert type(cc.known) is int and type(cc.unknown) is int
            if key[2] is not OutcomeLevel.ANY_INJURY_REPORTED:
                # Not adjusted: the cell's count is the tally's, bit for bit.
                assert counts[key] == cc.known + cc.unknown * cc.passenger_fraction
                assert cc.known <= counts[key] <= cc.known + cc.unknown
        pr = tables.cohort_counts[
            ("Austin", pipeline.RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED)
        ]
        assert (pr.known, pr.unknown, pr.passenger_fraction) == (20, 1, 40 / 43)

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

    def test_overlapping_areas_rejected(self, fixtures_dir):
        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        metro = GeoArea("Metro", "TX", frozenset({"Williamson", " travis"}))
        message = "TX/TRAVIS is in two areas: 'Austin' and 'Metro'"
        with pytest.raises(ConfigError, match=message):
            replace(config, areas=(*config.areas, metro))
        with pytest.raises(ConfigError, match=message):
            pipeline.build_benchmark(
                [], None, [], PROPERTY_SHARES, (*config.areas, metro), 2023, config.params
            )

    def test_area_syntax_validation(self):
        with pytest.raises(ConfigError):
            pipeline._parse_area("X", "TX")
        with pytest.raises(ConfigError, match="'X' must look like"):
            pipeline._parse_area("X", "TX: , ")

    def test_empty_params_section_loads_the_defaults(self, fixtures_dir, tmp_path):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        path = inputs / "run.ini"
        text = path.read_text()
        params = text[text.index("[params]\n"):text.index("[areas]")]
        path.write_text(text.replace(params, "[params]\n\n"))
        assert pipeline.load_run_config(path).params == pipeline.RunParams()

    def test_unknown_override_is_type_error(self, fixtures_dir):
        with pytest.raises(TypeError, match="unexpected keyword argument 'threshold'"):
            pipeline.load_run_config(fixtures_dir / "run.ini", threshold=5.0)

    def test_workers_validated(self, fixtures_dir):
        with pytest.raises(ConfigError):
            pipeline.load_run_config(fixtures_dir / "run.ini", workers=0)

    @pytest.mark.parametrize(
        "section,option,old,new",
        [
            ("run", "year", "year = 2023", "year = 2023.5"),
            ("run", "seed", "seed = 7", "seed = seven"),
            ("run", "workers", "workers = 1", "workers = two"),
            ("params", "threshold_m", "threshold_m = 400", "threshold_m = far"),
            ("params", "underreport", "underreport = 0.32", "underreport = 32%"),
            ("params", "alpha", "alpha = 0.05", "alpha = 5e-2x"),
            ("params", "power", "power = 0.8", "power = high"),
            ("params", "effects", "effects = 0.75, 0.5,", "effects = 0.75, half,"),
            ("params", "any_route", "power = 0.8", "power = 0.8\nany_route = maybe"),
        ],
    )
    def test_bad_option_value_is_config_error_naming_it(
        self, fixtures_dir, tmp_path, section, option, old, new
    ):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        path = inputs / "run.ini"
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(InvalidOptionError, match=rf"run.ini: \[{section}\] {option}: "):
            pipeline.load_run_config(path)

    @pytest.mark.parametrize(
        "field,value", [("effects", (0.75, float("nan"))), ("effects", (math.inf,)),
                        ("threshold_m", math.nan), ("threshold_m", math.inf)],
    )
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field.rstrip("s")):
            pipeline.RunParams(**{field: value})

    @pytest.mark.parametrize(
        "effects,repeated", [((0.75, 0.75, 0.5), 0.75), ((2.0, 0.75, 2.0, 0.5, 0.5), 0.5)]
    )
    def test_repeated_effect_ratio_rejected(self, effects, repeated):
        # Each repeat used to add a second copy of its power-grid rows.
        with pytest.raises(ConfigError, match=f"effect ratio {repeated} is given more than once"):
            pipeline.RunParams(effects=effects)

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


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test, whatever it set."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """``run`` and ``load_crashes`` pause the cyclic collector and restore it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("stage", ["run", "load_crashes"])
    def test_state_restored_after_success(
        self, fixtures_dir, tmp_path, collector, stage, enabled
    ):
        config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path)
        (gc.enable if enabled else gc.disable)()
        getattr(pipeline, stage)(config)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "case,error",
        [("unknown mapping", ConfigError), ("missing VMT", DataError)],
    )
    def test_state_restored_after_failure(
        self, fixtures_dir, tmp_path, collector, case, error, enabled
    ):
        config = pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path)
        if case == "unknown mapping":
            source = replace(config.sources[0], mapping="builtin:nope")
            config = replace(config, sources=(source,))
        else:
            config = replace(config, areas=(GeoArea("Nowhere", "TX", frozenset({"NOWHERE"})),))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(error):
            pipeline.run(config)
        assert gc.isenabled() is enabled
        assert not any(tmp_path.iterdir())

    def test_paused_during_a_stage(self, fixtures_dir, tmp_path, collector, monkeypatch):
        seen = []
        build = pipeline.build_benchmark
        monkeypatch.setattr(
            pipeline, "build_benchmark", lambda *a: seen.append(gc.isenabled()) or build(*a)
        )
        gc.enable()
        pipeline.run(pipeline.load_run_config(fixtures_dir / "run.ini", out_dir=tmp_path))
        assert seen == [False]
        assert gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_input(self, fixtures_dir, tmp_path, collector):
        # With the collector paused, cycles a run leaves behind pile up
        # until the run ends; they may come from the config (mappings are
        # ConfigParser cycles), never from the rows.
        def garbage_after_run(k: int) -> int:
            inputs = tmp_path / f"x{k}"
            shutil.copytree(fixtures_dir, inputs)
            for name in ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv"):
                (inputs / name).write_text(tiled_table(fixtures_dir / name, k), encoding="utf-8")
            config = pipeline.load_run_config(inputs / "run.ini", out_dir=inputs / "out")
            gc.collect()
            gc.disable()
            report = pipeline.run(config)
            assert report.diagnostics["ingest"][0]["rows_read"]["crash"] == 35 * k
            return gc.collect()

        assert garbage_after_run(4) <= garbage_after_run(1)


class TestRowOrder:
    """Whole-run property: the report tables do not depend on the order
    of crash, unit and person rows once no key repeats.  Ingest shares
    one unit value among all units with equal fields, keeping the first
    it builds, so this also checks that nothing a unit holds is left out
    of what makes two units equal."""

    TABLES = {  # run-config field, fixture table, key columns
        "crash_table": ("tx_crashes.csv", ("Crash_ID",)),
        "units_table": ("tx_units.csv", ("Crash_ID", "Unit_Nbr")),
        "persons_table": ("tx_persons.csv", ()),
    }

    # A shuffle has nothing to shrink, so a failure is reported as found.
    @settings(max_examples=6, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(rng=st.randoms(use_true_random=False))
    def test_shuffled_rows_give_identical_tables(self, fixtures_dir, tmp_path_factory, rng):
        work = tmp_path_factory.mktemp("row_order")
        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        tables = {}  # field -> (header, rows with the first copy of each key)
        for attr, (name, key_columns) in self.TABLES.items():
            header, *rows = csv.reader(io.StringIO(tiled_table(fixtures_dir / name, 2)))
            if key_columns:
                key = itemgetter(*map(header.index, key_columns))
                first = {}
                for row in rows:
                    first.setdefault(key(row), row)
                rows = list(first.values())
            tables[attr] = header, rows

        def run(name: str, order) -> dict[str, bytes]:
            paths = {}
            for attr, (header, rows) in tables.items():
                paths[attr] = work / f"{name}-{attr}.csv"
                with open(paths[attr], "w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh, lineterminator="\n").writerows([header, *order(rows)])
            (source,) = config.sources
            out = work / name
            pipeline.run(replace(config, sources=(replace(source, **paths),), out_dir=out))
            return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}

        shuffled = run("shuffled", lambda rows: rng.sample(rows, len(rows)))
        assert run("ordered", list) == shuffled
        assert len(shuffled) == 4


class TestIrrelevantRows:
    """Whole-run property: a crash from another year or from a county
    outside every area, and VMT rows for another year or county, leave
    the four CSVs byte-identical and move only the diagnostics that count
    them."""

    EXTRA_ROWS = {
        "tx_crashes.csv": ["Z001,2022,Travis,30.25,-97.735,I-35,,K,3,24",
                           "Z002,2023,Harris,29.76,-95.36,I-45,,K,3,24"],
        "tx_units.csv": ["Z001,1,P4,N,1,,,1,1,1", "Z002,1,P4,N,1,,,1,1,1"],
        "tx_vmt.csv": ["Travis,FREEWAY,2022,9000000000", "Travis,SURFACE,2022,9000000000",
                       "Harris,FREEWAY,2023,9000000000", "Harris,SURFACE,2023,9000000000"],
    }

    def test_rows_outside_the_year_and_areas_change_no_table(self, fixtures_dir, tmp_path):
        def run(name: str, extra: dict) -> tuple[dict, dict]:
            inputs = tmp_path / name
            shutil.copytree(fixtures_dir, inputs)
            for table, rows in extra.items():
                with open(inputs / table, "a", encoding="utf-8") as fh:
                    fh.writelines(f"{row}\n" for row in rows)
            out = inputs / "out"
            report = pipeline.run(pipeline.load_run_config(inputs / "run.ini", out_dir=out))
            tables = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
            return tables, report.diagnostics

        tables, diagnostics = run("plain", {})
        extra_tables, extra_diagnostics = run("extra", self.EXTRA_ROWS)
        assert len(tables) == 4
        assert extra_tables == tables
        expected = copy.deepcopy(diagnostics)
        expected["records_in_year"] += 1  # the Harris crash
        expected["records_outside_areas"] += 1
        (ingest,) = expected["ingest"]
        ingest["rows_read"]["crash"] += 2
        ingest["rows_read"]["unit"] += 2
        ingest["records_emitted"] += 2
        assert extra_diagnostics == expected


class TestRelabelling:
    """Whole-run property: renaming an area changes only its name in the
    four CSVs.  Where the new name sorts differently from the other
    area's, the order of the rows changes too, and nothing else."""

    @staticmethod
    def _tables(config, out) -> dict[str, list[list[str]]]:
        pipeline.run(replace(config, out_dir=out))
        return {
            path.name: list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
            for path in sorted(out.glob("*.csv"))
        }

    @settings(max_examples=8, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        renamed=st.sampled_from(["Austin", "Round Rock"]),
        # Quotes, commas and spaces put the name through CSV quoting.
        name=st.text(alphabet="ABRZaz ,'\"é-", min_size=1, max_size=12),
    )
    def test_renaming_an_area_changes_only_its_name(
        self, fixtures_dir, tmp_path_factory, renamed, name
    ):
        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        (other,) = {area.name for area in config.areas} - {renamed}
        if not name.strip() or name == other:
            reject()
        work = tmp_path_factory.mktemp("relabel")
        before = self._tables(config, work / "before")
        areas = tuple(replace(a, name=name) if a.name == renamed else a for a in config.areas)
        after = self._tables(replace(config, areas=areas), work / "after")
        assert len(before) == 4 and after.keys() == before.keys()
        for table, (header, *rows) in before.items():
            assert header[0] == "geo"
            expected = [[name, *row[1:]] if row[0] == renamed else row for row in rows]
            assert after[table][0] == header
            got = after[table][1:]
            assert sorted(got) == sorted(expected), table
            for area in (name, other):  # each area's rows keep their order
                assert [r for r in got if r[0] == area] == [r for r in expected if r[0] == area]
            if (name < other) == (renamed < other):
                assert got == expected, table


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


def _with_repeats(records, rng):
    """The records, then copies of some of them under fresh crash ids, so
    that shapes repeat unevenly."""
    copies = rng.choices(records, k=rng.randint(0, 2 * len(records)))
    return records + [r._replace(crash_id=f"{r.crash_id}~{i}") for i, r in enumerate(copies)]


corpora_with_repeats = st.builds(_with_repeats, corpora, st.randoms(use_true_random=False))
REVERSED_GATE_ORDER = DEFAULT_GATE_ORDER[::-1]


def _property_tables(records, road_index, vmt=PROPERTY_VMT, **params):
    try:
        return pipeline.build_benchmark(
            records, road_index, vmt, PROPERTY_SHARES, PROPERTY_AREAS, 2023,
            pipeline.RunParams(**params),
        )
    except DataError as exc:
        if "no known classes to impute from" not in str(exc):
            raise
        reject()


def _assert_tables_match_recount(tables, records, road_index, impute_by_road, gate_order):
    """Recount every severity and typed cell of ``tables`` one record and
    one unit at a time, by a cohort rule of its own: of the in-transport
    units, a passenger vehicle is counted, one of unknown class is
    imputed, and one of another class only joins the imputation basis.
    Cells keep whole unit counts; the imputation key's passenger
    fraction is applied once to a cell's unknowns, and then the
    any-injury adjustment."""
    known: dict = {}
    unknown: dict = {}
    # Per imputation key: [passenger units, known-class units].
    basis: dict = {}
    for record in records:
        areas = [a for a in PROPERTY_AREAS if a.contains(record.state, record.county)]
        if not areas:
            continue
        (area,) = areas
        road = classify_road(record, road_index).road_class
        key_basis = basis.setdefault((area.name, road if impute_by_road else None), [0, 0])
        for unit in record.units:
            if not unit.in_transport:
                continue
            if unit.vehicle_class is VehicleClass.UNKNOWN:
                tally = unknown
            else:
                key_basis[1] += 1
                if unit.vehicle_class is not VehicleClass.PASSENGER:
                    continue
                key_basis[0] += 1
                tally = known
            crash_type = classify_crash_type(record, unit.unit_id, road, gate_order)
            for outcome in classify_outcome(record):
                severity_key = (area.name, road, outcome)
                for key in (severity_key, (*severity_key, crash_type)):
                    tally[key] = tally.get(key, 0) + 1

    def fraction(key) -> float:
        passengers, known_units = basis[key[0], key[1] if impute_by_road else None]
        return passengers / known_units

    cells = known.keys() | unknown.keys()
    severity = {key for key in cells if len(key) == 3}
    assert tables.cohort_counts.keys() == severity
    for key, counts in tables.cohort_counts.items():
        assert (counts.known, counts.unknown) == (known.get(key, 0), unknown.get(key, 0))
        assert counts.passenger_fraction == fraction(key)
    # Every cell: the same whole counts and fraction, then the any-injury
    # adjustment against the fatal cell of the same stratum and type.
    final = {key: known.get(key, 0) + unknown.get(key, 0) * fraction(key) for key in cells}
    expected = {}
    for key, count in final.items():
        if key[2] is OutcomeLevel.ANY_INJURY_REPORTED:
            fatal = final.get((*key[:2], OutcomeLevel.FATAL, *key[3:]), 0.0)
            count = adjust_underreporting(
                count - fatal, fatal, pipeline.RunParams().underreport_fraction
            )
        expected[key] = count
    assert {
        (c.geo.name, c.road, c.outcome, c.crash_type): c.count for c in tables.typed_cells
    } == {key: count for key, count in expected.items() if key not in severity}
    assert {(c.geo.name, c.road, c.outcome): c.count for c in tables.cells} == {
        (area.name, road, outcome): expected.get((area.name, road, outcome), 0.0)
        for area in PROPERTY_AREAS
        for road in (pipeline.RoadClass.FREEWAY, pipeline.RoadClass.SURFACE_STREET)
        for outcome in OutcomeLevel
    }


class _CorpusRun:
    """A whole ``pipeline.run`` of the fixture run config, its crash, unit
    and person tables replaced by rows in the fixture's Texas layout and
    its VMT scaled by a whole factor.  A run gives its four CSVs (bytes),
    its report JSON and the tables ``build_benchmark`` returned."""

    FIELDS = {"crash_table": "crash", "units_table": "unit", "persons_table": "person",
              "vmt_table": "vmt"}

    def __init__(self, fixtures_dir, work):
        self.config = pipeline.load_run_config(fixtures_dir / "run.ini")
        self.work = work
        self.fixture_rows = {}  # run-config field -> the fixture table's rows
        for field_name in self.FIELDS:
            path = getattr(self.config.sources[0], field_name)
            with open(path, newline="", encoding="utf-8") as fh:
                self.fixture_rows[field_name] = list(csv.reader(fh))

    def __call__(self, name: str, tables: dict, vmt_factor: int = 1):
        paths = {}
        vmt_header, *vmt_rows = self.fixture_rows["vmt_table"]
        tables = {
            **tables, "vmt": [[*row[:3], str(vmt_factor * int(row[3]))] for row in vmt_rows]
        }
        for field_name, table in self.FIELDS.items():
            header = self.fixture_rows[field_name][0]
            rows = tables[table]
            paths[field_name] = self.work / f"{name}-{table}.csv"
            with open(paths[field_name], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        (source,) = self.config.sources
        out = self.work / name
        built = []
        build_benchmark = pipeline.build_benchmark

        def keep(*args):
            built.append(build_benchmark(*args))
            return built[-1]

        with mock.patch.object(pipeline, "build_benchmark", keep):
            pipeline.run(replace(self.config, sources=(replace(source, **paths),), out_dir=out))
        csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
        report = json.loads((out / "report_2023.json").read_text(encoding="utf-8"))
        return csvs, report, built[0]


class TestCrashRelabelling:
    """Whole-run property: new crash ids (a bijection) and new unit
    numbers within each crash that keep the units' order change no
    table.  The four CSVs are byte-identical, and in the report only the
    digests of the three relabelled inputs differ."""

    @settings(max_examples=30, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(records=corpora, rng=st.randoms(use_true_random=False))
    def test_relabelled_ids_give_identical_outputs(
        self, fixtures_dir, tmp_path_factory, records, rng
    ):
        tables = texas_tables(records, rng)
        crash_ids = [row[0] for row in tables["crash"]]
        numbers = rng.sample(range(10**6), len(crash_ids))
        new_crash_id = {crash_id: f"R{n}" for crash_id, n in zip(crash_ids, numbers)}
        units_of: dict[str, set[int]] = {}
        for crash_id, unit_id, *_ in tables["unit"]:
            units_of.setdefault(crash_id, set()).add(int(unit_id))
        new_unit_id = {}  # (crash id, unit number) -> new unit number, in order
        for crash_id, unit_ids in units_of.items():
            numbers = sorted(rng.sample(range(1, 1000), len(unit_ids)))
            new_unit_id.update(((crash_id, u), n) for u, n in zip(sorted(unit_ids), numbers))
        relabelled = {
            "crash": [[new_crash_id[row[0]], *row[1:]] for row in tables["crash"]],
            **{
                table: [
                    [new_crash_id[row[0]], str(new_unit_id[row[0], int(row[1])]), *row[2:]]
                    for row in tables[table]
                ]
                for table in ("unit", "person")
            },
        }
        run = _CorpusRun(fixtures_dir, tmp_path_factory.mktemp("crash_relabel"))
        try:
            csvs, report, _ = run("plain", tables)
        except DataError as exc:  # an area with units to impute but none known
            with pytest.raises(DataError, match=re.escape(str(exc))):
                run("relabelled", relabelled)
            return
        relabelled_csvs, relabelled_report, _ = run("relabelled", relabelled)
        assert len(csvs) == 4
        assert relabelled_csvs == csvs
        digests = report["metadata"].pop("input_digests")
        relabelled_digests = relabelled_report["metadata"].pop("input_digests")
        assert relabelled_report == report
        changed = {k for k in digests if digests[k] != relabelled_digests[k]}
        assert changed <= {"crash:tx", "units:tx", "persons:tx"}
        assert relabelled_digests.keys() == digests.keys()


class TestCountyRelabelling:
    """Whole-run property: every crash row's county written in another
    case, with spaces around it, changes no table.  The four CSVs are
    byte-identical, and in the report only the crash table's digest
    differs.  Ingest reads each rewritten county as the corpus's own."""

    @staticmethod
    def _rewritten(county: str, rng) -> str:
        text = "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in county)
        return rng.choice(["", " ", "  "]) + text + rng.choice(["", " ", "  "])

    @settings(max_examples=25, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(records=corpora, rng=st.randoms(use_true_random=False))
    def test_county_case_and_padding_change_no_table(
        self, fixtures_dir, tmp_path_factory, records, rng
    ):
        tables = texas_tables(records, rng)
        rewritten = {**tables, "crash": [
            [*row[:2], self._rewritten(row[2], rng), *row[3:]] for row in tables["crash"]
        ]}
        run = _CorpusRun(fixtures_dir, tmp_path_factory.mktemp("county_relabel"))
        crash_rows = io.StringIO()
        csv.writer(crash_rows, lineterminator="\n").writerows(
            [run.fixture_rows["crash_table"][0], *rewritten["crash"]]
        )
        crash_rows.seek(0)
        mapping = pipeline.resolve_mapping("builtin:tx", fixtures_dir)
        loaded, _ = load_crash_table(crash_rows, mapping)
        assert [r.county for r in loaded] == [r.county for r in records]
        try:
            csvs, report, _ = run("plain", tables)
        except DataError as exc:  # an area with units to impute but none known
            with pytest.raises(DataError, match=re.escape(str(exc))):
                run("rewritten", rewritten)
            return
        rewritten_csvs, rewritten_report, _ = run("rewritten", rewritten)
        assert len(csvs) == 4
        assert rewritten_csvs == csvs
        digests = report["metadata"].pop("input_digests")
        rewritten_digests = rewritten_report["metadata"].pop("input_digests")
        assert rewritten_report == report
        assert rewritten_digests.keys() == digests.keys()
        assert {k for k in digests if digests[k] != rewritten_digests[k]} <= {"crash:tx"}


class TestExposureScaling:
    """Whole-run property: every VMT row times 2, an exact float scaling,
    halves every rate and interval bound bit for bit, doubles every
    passenger VMT bit for bit and every power-grid mileage to a relative
    1e-12, and keeps the power grid's expected ADS crashes (half the
    rate over twice the miles) to a relative 1e-12.  The counts and the
    crash-type distributions are byte-identical."""

    STRATUM = ("geo", "state", "counties", "road", "outcome", "crash_type", "count")

    @settings(max_examples=20, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(records=corpora, rng=st.randoms(use_true_random=False))
    def test_doubled_vmt_halves_every_rate(self, fixtures_dir, tmp_path_factory, records, rng):
        tables = texas_tables(records, rng)
        run = _CorpusRun(fixtures_dir, tmp_path_factory.mktemp("exposure_scaling"))
        try:
            csvs, _, _ = run("once", tables)
        except DataError as exc:  # an area with units to impute but none known
            with pytest.raises(DataError, match=re.escape(str(exc))):
                run("doubled", tables, vmt_factor=2)
            return
        doubled, _, _ = run("doubled", tables, vmt_factor=2)
        assert doubled.keys() == csvs.keys() and len(csvs) == 4
        name = "crash_type_distribution_2023.csv"
        assert doubled[name] == csvs[name]

        def rows(data: bytes) -> list[dict]:
            return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))

        for name in ("benchmark_rates_2023.csv", "crash_type_rates_2023.csv"):
            base, got = rows(csvs[name]), rows(doubled[name])
            assert len(got) == len(base)
            for g, b in zip(got, base):
                assert [g[k] for k in self.STRATUM] == [b[k] for k in self.STRATUM]
                assert float(g["vmt_miles"]) == 2 * float(b["vmt_miles"]), (name, g, b)
                for column in ("rate_ipmm", "ci_low_ipmm", "ci_high_ipmm"):
                    assert float(g[column]) == float(b[column]) / 2, (name, column, g, b)
        base, got = rows(csvs["power_grid_2023.csv"]), rows(doubled["power_grid_2023.csv"])
        assert len(got) == len(base)
        for g, b in zip(got, base):
            key = ("geo", "road", "outcome", "effect_ratio")
            assert [g[k] for k in key] == [b[k] for k in key]
            for column, factor in (("required_miles", 2), ("target_power_miles", 2),
                                   ("expected_ads_crashes", 1)):
                assert math.isclose(float(g[column]), factor * float(b[column]),
                                    rel_tol=1e-12), (column, g, b)


class TestOutOfScopePadding:
    """Whole-run property: crashes from another year, or from 2023
    outside every area, with their units and persons, change no table.
    The four CSVs are byte-identical.  In the report only the input
    digests move, and the diagnostics counts of those rows: rows read,
    records emitted and, for 2023 crashes outside every area, records in
    the year and records outside areas, each by exactly the rows added.
    The padding codes nothing as unknown and every crash has a location,
    so no other count may move."""

    @staticmethod
    def _padding(records, rng) -> tuple[dict, int]:
        """The records as out-of-scope table rows under fresh crash ids:
        the first in 2022 in an area's county, the second in 2023 in a
        county of no area, the rest either way.  Returns the rows and the
        number of 2023 crashes."""
        placed = []
        for i, record in enumerate(records):
            another_year = i == 0 or (i > 1 and rng.random() < 0.5)
            placed.append(record._replace(
                crash_id=f"P{i}",
                year=2022 if another_year else 2023,
                county=rng.choice(["TRAVIS", "WILLIAMSON"] if another_year else ["HAYS", "BEXAR"]),
                location=record.location or LatLon(30.3, -97.7),
                worst_injury=rng.choice([k for k in KabcoLevel if k is not KabcoLevel.UNKNOWN]),
                junction_relation=JunctionRelation.INTERSECTION,
                manner_of_collision=MannerOfCollision.FRONT_TO_REAR,
                units=tuple(
                    u._replace(vehicle_class=VehicleClass.PASSENGER)
                    if u.vehicle_class in (VehicleClass.UNKNOWN, VehicleClass.OTHER) else u
                    for u in record.units
                ),
            ))
        tables = texas_tables(placed, rng)
        for row in tables["person"]:
            row[2] = "5" if row[2] == "9" else row[2]  # a known injury
        return tables, sum(record.year == 2023 for record in placed)

    @settings(max_examples=30, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(records=corpora,
           padding=st.builds(make_corpus, st.integers(2, 8), st.integers(0, 2**32 - 1)),
           rng=st.randoms(use_true_random=False))
    def test_padding_moves_only_its_own_counts(
        self, fixtures_dir, tmp_path_factory, records, padding, rng
    ):
        tables = texas_tables(records, rng)
        extra, in_year = self._padding(padding, rng)
        padded = {table: list(rows) for table, rows in tables.items()}
        for table, rows in extra.items():
            for row in rows:
                padded[table].insert(rng.randint(0, len(padded[table])), row)
        run = _CorpusRun(fixtures_dir, tmp_path_factory.mktemp("padding"))
        try:
            csvs, report, _ = run("plain", tables)
        except DataError as exc:  # an area with units to impute but none known
            with pytest.raises(DataError, match=re.escape(str(exc))):
                run("padded", padded)
            return
        padded_csvs, padded_report, _ = run("padded", padded)
        assert len(csvs) == 4
        assert padded_csvs == csvs

        digests = report["metadata"].pop("input_digests")
        padded_digests = padded_report["metadata"].pop("input_digests")
        assert padded_digests.keys() == digests.keys()
        changed = {k for k in digests if digests[k] != padded_digests[k]}
        assert changed == {"crash:tx", "units:tx", "persons:tx"} - (
            set() if extra["person"] else {"persons:tx"}
        )
        diagnostics = report["diagnostics"]
        (ingest,) = diagnostics["ingest"]
        for table, rows in extra.items():
            if rows:
                ingest["rows_read"][table] = ingest["rows_read"].get(table, 0) + len(rows)
        ingest["records_emitted"] += len(extra["crash"])
        diagnostics["records_in_year"] += in_year
        diagnostics["records_outside_areas"] += in_year
        assert padded_report == report


class TestReEncodedInputs:
    """Whole-run property: how the crash, unit, person and VMT tables are
    written as CSV changes no output.  Each field quoted, CRLF line ends,
    or one quoted field in a later block of a table tiled past one block
    (so that csv takes over from the split blocks) give the four CSVs
    byte-identical to the plain copy's, and in the report only the input
    digests differ (see ``ingest._open_table``)."""

    TABLES = ("crash_table", "units_table", "persons_table", "vmt_table")
    # Tiles that put each of the fixture's crash, unit and person tables
    # past one block of ``ingest._BLOCK_CHARS`` characters.
    TILES = 40

    @staticmethod
    def _run(config, tables: dict[str, list[list[str]]], work, name, encode):
        """The four CSVs (bytes) and report of a run on ``tables``, each
        written by ``encode`` into ``work``."""
        (source,) = config.sources
        paths = {}
        for field_name, rows in tables.items():
            paths[field_name] = work / f"{name}-{field_name}.csv"
            paths[field_name].write_bytes(encode(field_name, rows).encode("utf-8"))
        out = work / name
        pipeline.run(replace(config, sources=(replace(source, **paths),), out_dir=out))
        report = json.loads((out / "report_2023.json").read_text(encoding="utf-8"))
        report["metadata"].pop("input_digests")
        return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}, report

    @staticmethod
    def _written(rows, quoting=csv.QUOTE_MINIMAL, line_end="\n") -> str:
        text = io.StringIO()
        csv.writer(text, quoting=quoting, lineterminator=line_end).writerows(rows)
        return text.getvalue()

    @pytest.mark.parametrize("encoding", ["quoted", "crlf", "tiled, quoted in a later block"])
    def test_re_encoded_tables_give_identical_outputs(
        self, fixtures_dir, tmp_path_factory, encoding
    ):
        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        tables = {}
        for field_name in self.TABLES:
            path = getattr(config.sources[0], field_name)
            with open(path, newline="", encoding="utf-8") as fh:
                tables[field_name] = list(csv.reader(fh))
        if encoding.startswith("tiled"):
            for field_name in ("crash_table", "units_table", "persons_table"):
                header, *rows = tables[field_name]
                tables[field_name] = [header] + [
                    [f"{row[0]}~{t}", *row[1:]] for t in range(self.TILES) for row in rows
                ]
        work = tmp_path_factory.mktemp("re_encoded")
        plain = self._run(config, tables, work, "plain", lambda _, rows: self._written(rows))

        def encode(field_name, rows):
            if encoding == "quoted":
                return self._written(rows, quoting=csv.QUOTE_ALL)
            if encoding == "crlf":
                return self._written(rows, line_end="\r\n")
            lines = self._written(rows).split("\n")
            if field_name != "vmt_table":
                at = 3 * len(lines) // 4
                assert len("\n".join(lines[:at])) > ingest._BLOCK_CHARS
                first, rest = lines[at].split(",", 1)
                lines[at] = f'"{first}",{rest}'
            return "\n".join(lines)

        csvs, report = self._run(config, tables, work, "re-encoded", encode)
        assert len(plain[0]) == 4
        assert csvs == plain[0]
        assert report == plain[1]


class TestWholeRunTiling:
    """Whole-run property: k copies of every crash, unit and person row
    under fresh crash ids, with every VMT value k times over, give every
    severity and typed count k times the untiled one, and every rate and
    type fraction equal to it, each to a relative 1e-12.  Each passenger
    fraction is the correctly rounded ratio of two whole counts that are
    both k times over, so it is equal bit for bit."""

    @settings(max_examples=30, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(records=corpora, rng=st.randoms(use_true_random=False), k=st.integers(2, 4))
    def test_tiled_run_multiplies_every_count(
        self, fixtures_dir, tmp_path_factory, records, rng, k
    ):
        tables = texas_tables(records, rng)
        tiled = {
            table: [[f"{row[0]}~{t}", *row[1:]] for t in range(k) for row in rows]
            for table, rows in tables.items()
        }
        run = _CorpusRun(fixtures_dir, tmp_path_factory.mktemp("whole_run_tiling"))
        try:
            csvs, _, once = run("once", tables)
        except DataError as exc:  # an area with units to impute but none known
            with pytest.raises(DataError, match=re.escape(str(exc))):
                run("tiled", tiled, vmt_factor=k)
            return
        tiled_csvs, _, tiled_tables = run("tiled", tiled, vmt_factor=k)
        assert tiled_csvs.keys() == csvs.keys() and len(csvs) == 4

        def rows(data: bytes) -> list[dict]:
            return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))

        def close(a: str, b: str, factor: int = 1) -> bool:
            return math.isclose(float(a), factor * float(b), rel_tol=1e-12)

        def strata(rows: list[dict]) -> list[tuple]:
            return [(r["geo"], r["road"], r["outcome"], r["crash_type"]) for r in rows]

        for name in ("benchmark_rates_2023.csv", "crash_type_rates_2023.csv"):
            base, got = rows(csvs[name]), rows(tiled_csvs[name])
            assert strata(got) == strata(base)
            for tiled_row, row in zip(got, base):
                assert close(tiled_row["count"], row["count"], k), (name, tiled_row, row)
                assert close(tiled_row["rate_ipmm"], row["rate_ipmm"]), (name, tiled_row, row)
        name = "crash_type_distribution_2023.csv"
        base, got = rows(csvs[name]), rows(tiled_csvs[name])
        assert strata(got) == strata(base)
        assert all(close(g["fraction"], b["fraction"]) for g, b in zip(got, base))
        assert tiled_tables.cohort_counts.keys() == once.cohort_counts.keys()
        for key, counts in tiled_tables.cohort_counts.items():
            base = once.cohort_counts[key]
            assert (counts.known, counts.unknown) == (k * base.known, k * base.unknown)
            assert counts.passenger_fraction == base.passenger_fraction


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

    @settings(max_examples=40, deadline=None)
    @given(
        records=corpora_with_repeats,
        impute_by_road=st.booleans(),
        gate_order=st.sampled_from([DEFAULT_GATE_ORDER, REVERSED_GATE_ORDER]),
    )
    def test_cohort_counts_match_recount(self, road_index, records, impute_by_road, gate_order):
        # build_benchmark walks each distinct record shape's units once for
        # all of it, so some records repeat.
        tables = _property_tables(
            records, road_index, impute_by_road=impute_by_road, type_gate_order=gate_order
        )
        _assert_tables_match_recount(tables, records, road_index, impute_by_road, gate_order)

    @settings(max_examples=25, deadline=None)
    @given(records=corpora, k=st.integers(2, 4), impute_by_road=st.booleans())
    def test_tiling_multiplies_tallies(self, road_index, records, k, impute_by_road):
        # The corpus k times over, each tile with fresh crash ids: every
        # whole count is k times the untiled one and the passenger
        # fractions are equal.  With VMT k times over as well, every rate
        # and type fraction is the untiled one within a few ulp.
        tiled = [r._replace(crash_id=f"{r.crash_id}~{t}") for t in range(k) for r in records]
        vmt = [replace(rec, vmt_miles=k * rec.vmt_miles) for rec in PROPERTY_VMT]
        once = _property_tables(records, road_index, impute_by_road=impute_by_road)
        tables = _property_tables(tiled, road_index, vmt, impute_by_road=impute_by_road)
        assert tables.cohort_counts.keys() == once.cohort_counts.keys()
        for key, counts in tables.cohort_counts.items():
            base = once.cohort_counts[key]
            assert (counts.known, counts.unknown) == (k * base.known, k * base.unknown)
            assert counts.passenger_fraction == base.passenger_fraction
        for name in ("records_in_year", "records_outside_areas", "unknown_class_units",
                     "unresolvable_road_records"):
            assert tables.diagnostics[name] == k * once.diagnostics[name]

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= 8 * math.ulp(b)

        for tiled_cells, cells in ((tables.cells, once.cells),
                                   (tables.typed_cells, once.typed_cells)):
            assert [(c.geo, c.road, c.outcome, c.crash_type) for c in tiled_cells] == [
                (c.geo, c.road, c.outcome, c.crash_type) for c in cells
            ]
            for tiled_cell, cell in zip(tiled_cells, cells):
                assert close(tiled_cell.rate_ipmm, cell.rate_ipmm), (tiled_cell, cell)
        assert [d[:3] for d in tables.distributions] == [d[:3] for d in once.distributions]
        for (*_, fractions), (*_, base_fractions) in zip(
            tables.distributions, once.distributions
        ):
            assert fractions.keys() == base_fractions.keys()
            assert all(close(fractions[t], base_fractions[t]) for t in fractions)

    @settings(max_examples=40, deadline=None)
    @given(records=corpora, rng=st.randoms(use_true_random=False))
    def test_unnormalized_state_and_county(self, road_index, records, rng):
        # Stray case and whitespace in a record's state or county must not
        # move it to another area, or out of every area.
        messy = [
            r._replace(
                state=rng.choice([" tx", "Tx ", "TX", "\ttx"]),
                county=rng.choice([r.county.lower() + " ", " " + r.county.title(), r.county]),
            )
            for r in records
        ]
        clean = _property_tables(records, road_index)
        tables = _property_tables(messy, road_index)
        assert tables.cells == clean.cells
        assert tables.typed_cells == clean.typed_cells
        assert tables.distributions == clean.distributions
        assert tables.diagnostics == clean.diagnostics
        outside = sum(
            1 for r in messy if not any(a.contains(r.state, r.county) for a in PROPERTY_AREAS)
        )
        assert tables.diagnostics["records_outside_areas"] == outside

    def test_road_names_normalized_once(self, fixtures_dir, monkeypatch):
        # The index keeps each raw name's match, so a name that recurs
        # across crashes is normalized once per index.
        from collections import Counter

        from crashbench import roadclass

        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        records, _, _ = pipeline.load_crashes(config)
        vmt_records, shares = pipeline.load_exposure(config)
        index = pipeline.build_index(config)  # registers its own names first
        calls = Counter()
        normalize = roadclass.normalize_road_name
        monkeypatch.setattr(
            roadclass, "normalize_road_name", lambda n: calls.update([n]) or normalize(n)
        )
        tables = pipeline.build_benchmark(
            records, index, vmt_records, shares, config.areas, config.year, config.params
        )
        classified = tables.diagnostics["records_in_year"] - tables.diagnostics[
            "records_outside_areas"
        ]
        assert calls and max(calls.values()) == 1
        assert len(calls) < classified  # the fixture repeats names

    def test_power_grid_quantiles_once_per_cell(self, road_index, monkeypatch):
        from crashbench import power

        calls = []
        quantile = power.ndtri
        monkeypatch.setattr(power, "ndtri", lambda p: calls.append(p) or quantile(p))
        tables = _property_tables(make_corpus(40), road_index)
        positive = sum(1 for cell in tables.cells if cell.count > 0)
        assert positive > 1
        assert len(tables.power_grid) == len(DEFAULT_EFFECT_RATIOS) * positive
        # One mileage grid per run: the three quantiles once, not per cell.
        assert len(calls) == 3

    def test_each_configuration_typed_once(self, road_index, monkeypatch):
        # Every corpus record again in the other area, and each of those
        # again with another worst injury and airbag flag: the same
        # (road class, units, junction, manner) configurations recur
        # across areas and severities, and outcome keys across both.
        # Copies with another manner alone are configurations of their own.
        from crashbench.taxonomy import CrashTypeCascade

        records = make_corpus(40, seed=11)
        other = {"TRAVIS": "WILLIAMSON", "WILLIAMSON": "TRAVIS", "HAYS": "HAYS"}
        moved = [r._replace(crash_id=f"{r.crash_id}~a", county=other[r.county]) for r in records]
        records += moved + [
            r._replace(crash_id=f"{r.crash_id}~s", worst_injury=injury,
                       airbag_deployed=not r.airbag_deployed)
            for r, injury in zip(moved, itertools.cycle(KabcoLevel))
        ] + [
            r._replace(crash_id=f"{r.crash_id}~m", manner_of_collision=manner)
            for r, manner in zip(records, itertools.cycle(MannerOfCollision))
            if manner is not r.manner_of_collision
        ]
        configuration = {
            r.crash_id: (classify_road(r, road_index).road_class, r.units,
                         r.junction_relation, r.manner_of_collision)
            for r in records
            if r.county != "HAYS"  # outside both areas
        }
        counted = [r for r in records if r.crash_id in configuration]
        configurations = set(configuration.values())
        outcome_keys = {(r.worst_injury, r.airbag_deployed) for r in counted}
        # Configurations recur across areas and across outcome keys.
        assert len({(r.county, configuration[r.crash_id]) for r in counted}) > len(configurations)
        assert len(
            {(r.worst_injury, r.airbag_deployed, configuration[r.crash_id]) for r in counted}
        ) > len(configurations)

        calls = {"classify_units": 0, "classify_outcome": 0}
        classify_units, outcome = CrashTypeCascade.classify_units, pipeline.classify_outcome

        def counting_units(self, *args):
            calls["classify_units"] += 1
            return classify_units(self, *args)

        def counting_outcome(record):
            calls["classify_outcome"] += 1
            return outcome(record)

        monkeypatch.setattr(CrashTypeCascade, "classify_units", counting_units)
        monkeypatch.setattr(pipeline, "classify_outcome", counting_outcome)
        tables = _property_tables(records, road_index, impute_by_road=True)
        assert calls == {
            "classify_units": len(configurations), "classify_outcome": len(outcome_keys)
        }
        monkeypatch.undo()
        _assert_tables_match_recount(tables, records, road_index, True, DEFAULT_GATE_ORDER)


def test_distribution_sums_each_stratum_in_label_order(road_index):
    # Each fraction is the typed count over the stratum's total, summed
    # left to right in crash-type label order, the order the rate table
    # lists the stratum's types.  Imputed and adjusted counts are
    # fractional, so another order (reversed, fsum) moves some bits.
    tables = _property_tables(make_corpus(400, seed=7), road_index, impute_by_road=False)
    strata: dict = {}
    for cell in sorted(tables.typed_cells, key=lambda c: LABEL[c.crash_type]):
        strata.setdefault((cell.geo, cell.road, cell.outcome), []).append(cell)
    expected = {}
    order_matters = False
    for stratum, cells in strata.items():
        total = 0.0
        for cell in cells:
            total += cell.count
        if total > 0:
            expected[stratum] = {c.crash_type: c.count / total for c in cells}
        order_matters |= total != sum(c.count for c in reversed(cells))
    assert order_matters, "no stratum whose total depends on the order of its sum"
    assert max(len(cells) for cells in strata.values()) >= 4
    assert {(geo, road, outcome): dist for geo, road, outcome, dist in tables.distributions} == (
        expected
    )


def _shape_record(crash_id: str, unit_changes=({}, {}), **changes) -> CrashRecord:
    """Two in-transport passenger cars crossing paths at a surface-street
    intersection in Austin, with ``changes`` to the crash and
    ``unit_changes`` to each unit."""
    units = tuple(
        VehicleUnit(
            unit_id, VehicleClass.PASSENGER, in_transport=True, first_contact_event_index=1
        )._replace(**unit_change)
        for unit_id, unit_change in enumerate(unit_changes, start=1)
    )
    record = CrashRecord(
        crash_id=crash_id,
        state="TX",
        county="TRAVIS",
        year=2023,
        worst_injury=KabcoLevel.O,
        primary_road_name="MAIN ST",
        units=units,
        junction_relation=JunctionRelation.INTERSECTION,
        manner_of_collision=MannerOfCollision.CROSSING_PATH,
    )
    return record._replace(**changes)


def _tallies(tables) -> dict:
    """Every severity and typed cell's count, by stratum and crash type."""
    return {
        (c.geo.name, c.road, c.outcome, c.crash_type): c.count
        for c in tables.cells + tables.typed_cells
    }


class TestShapeKey:
    """``build_benchmark`` types each distinct record shape once and
    multiplies its tallies by the shape's count.  Two records that differ
    in any one field the shape holds must each be tallied as themselves."""

    # Each differs from the base record in exactly one shape field.
    VARIANTS = {
        "area": dict(county="WILLIAMSON"),
        "road": dict(primary_road_name="I-35"),
        "junction": dict(junction_relation=JunctionRelation.NON_JUNCTION),
        "manner": dict(manner_of_collision=MannerOfCollision.FRONT_TO_REAR),
        "worst_injury": dict(worst_injury=KabcoLevel.K),
        "unit_first_contact": dict(unit_changes=({}, {"first_contact_event_index": 2})),
        "airbag": dict(airbag_deployed=True),
        "unit_class": dict(
            unit_changes=({}, {"vehicle_class": VehicleClass.PEDESTRIAN, "in_transport": False})
        ),
    }

    @pytest.mark.parametrize("field", VARIANTS)
    def test_records_one_field_apart_tally_apart(self, road_index, field):
        base = _shape_record("A")
        variant = _shape_record("B", **self.VARIANTS[field])
        alone = [_tallies(_property_tables([record], road_index)) for record in (base, variant)]
        assert alone[0] != alone[1]  # the field moves the record to other cells
        both = _tallies(_property_tables([base, variant], road_index))
        assert both.keys() == alone[0].keys() | alone[1].keys()
        assert both == pytest.approx(
            {key: alone[0].get(key, 0.0) + alone[1].get(key, 0.0) for key in both}, rel=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(records=corpora, k=st.integers(2, 3))
    def test_equal_units_built_apart_tally_as_shared(self, road_index, records, k):
        # Ingest shares each distinct unit; records whose units are equal
        # but built separately must give the same tables, to the bit.
        shared = [r._replace(crash_id=f"{r.crash_id}~{t}") for t in range(k) for r in records]
        apart = [r._replace(units=tuple(unit._replace() for unit in r.units)) for r in shared]
        assert all(a.units == s.units and a.units[0] is not s.units[0]
                   for a, s in zip(apart, shared) if s.units)
        expected = _property_tables(shared, road_index)
        tables = _property_tables(apart, road_index)
        assert tables.cells == expected.cells
        assert tables.typed_cells == expected.typed_cells
        assert tables.distributions == expected.distributions
        assert tables.cohort_counts == expected.cohort_counts
        assert tables.diagnostics == expected.diagnostics
