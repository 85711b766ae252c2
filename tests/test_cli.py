import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import crashbench
from crashbench import cli
from crashbench.cli import main
from crashbench.power import PowerQuery, required_mileage
from crashbench.report import parse_rate_table

# Every file the fixture run reads.
BOM_INPUTS = (
    "run.ini", "roadclass_aliases.ini", "roadclass_segments.geojson", "geocache.tsv",
    "shares.csv", "tx_crashes.csv", "tx_units.csv", "tx_persons.csv", "tx_vmt.csv",
)


@pytest.fixture()
def run_args(fixtures_dir, tmp_path):
    out = tmp_path / "out"
    return ["--config", str(fixtures_dir / "run.ini"), "--out", str(out)], out


class TestRun:
    def test_golden_path_exit_zero(self, run_args, capsys):
        args, out = run_args
        assert main(["run", *args]) == 0
        assert (out / "benchmark_rates_2023.csv").exists()
        assert (out / "crash_type_rates_2023.csv").exists()
        assert (out / "crash_type_distribution_2023.csv").exists()
        assert (out / "power_grid_2023.csv").exists()
        assert (out / "report_2023.json").exists()
        assert "run complete" in capsys.readouterr().out

    def test_missing_vmt_file_exit_config_error(self, fixtures_dir, tmp_path, capsys):
        for name in (
            "tx_crashes.csv", "tx_units.csv", "tx_persons.csv", "shares.csv",
            "geocache.tsv", "roadclass_segments.geojson", "roadclass_aliases.ini",
            "run.ini",
        ):
            shutil.copy(fixtures_dir / name, tmp_path / name)
        # tx_vmt.csv deliberately absent
        code = main(["run", "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # single machine-parseable line
        assert "crashbench-error" in err and "kind=config" in err
        assert "tx_vmt.csv" in err  # names the missing path

    def test_overlapping_areas_exit_config_error(self, fixtures_dir, tmp_path, capsys):
        # Metro's exposure would include Travis VMT while every Travis
        # crash counted in Austin.
        shutil.copytree(fixtures_dir, tmp_path / "inputs")
        config = tmp_path / "inputs" / "run.ini"
        config.write_text(
            config.read_text().replace(
                "Round Rock = TX: Williamson", "Metro = TX: Travis, Williamson"
            )
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err
        assert "TX/TRAVIS is in two areas: 'Austin' and 'Metro'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,old,new,line,option",
        [
            ("run.ini", "Round Rock = TX: Williamson", "Austin = TX: Williamson", 16,
             "'Austin' in section 'areas'"),
            ("roadclass_aliases.ini", "[aliases]\n", "[aliases]\nLOOP-1 = LOOP ONE\n", 3,
             "'LOOP-1' in section 'aliases'"),
        ],
    )
    def test_repeated_ini_option_exit_config_error(self, fixtures_dir, tmp_path, capsys,
                                                   name, old, new, line, option):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        path = inputs / name
        path.write_text(path.read_text().replace(old, new, 1))
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "crashbench-error" in err and "kind=config" in err
        assert f"{name}' [line {line:2d}]: option {option} already exists" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "line",
        [
            "no tabs on this line",
            "TX|TRAVIS|I-35|\tnorth\t-97.74",
            # Parseable but not a location: non-finite, out of range, or
            # written in (lon, lat) order.
            "TX|TRAVIS|FOO|\tnan\tinf",
            "TX|TRAVIS|FOO|\t30.3\t-197.7",
            "TX|TRAVIS|FOO|\t-97.7\t30.3",
            # Numbers to float() but not to the crash-table readers:
            # underscores and non-ASCII (Arabic-Indic) digits.
            "TX|TRAVIS|FOO|\t3_0.25\t-9_7.5",
            "TX|TRAVIS|FOO|\t\u0663\u0660.25\t-97.5",
        ],
    )
    def test_malformed_geocoder_cache_exit_data_error(self, fixtures_dir, tmp_path, capsys,
                                                      line):
        shutil.copytree(fixtures_dir, tmp_path / "inputs")
        cache = tmp_path / "inputs" / "geocache.tsv"
        line_no = len(cache.read_text().splitlines()) + 1
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        config = tmp_path / "inputs" / "run.ini"
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert f"geocache.tsv: line {line_no}: malformed geocoder cache line" in err

    @pytest.mark.parametrize("share", ["abc", "", "nan"])
    def test_non_numeric_share_exit_data_error(self, fixtures_dir, tmp_path, capsys, share):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        shares = inputs / "shares.csv"
        shares.write_text(shares.read_text().replace("TX,Freeway,true,0.92",
                                                     f"TX,Freeway,true,{share}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=data" in err
        assert f"shares.csv: row 1: share {share!r} is not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("share", ["0", "1.5"])
    def test_share_out_of_range_exit_data_error(self, fixtures_dir, tmp_path, capsys, share):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        shares = inputs / "shares.csv"
        shares.write_text(shares.read_text().replace("TX,Freeway,true,0.92",
                                                     f"TX,Freeway,true,{share}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert f"shares.csv: row 1: share {share!r} is not a finite number in (0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row,message",
        [("TX,Frwy,true", "unknown functional class 'Frwy'"),
         ("TX,Freeway,ture", "urban 'ture' is not true/false or urban/rural")],
    )
    def test_bad_share_key_exit_data_error(self, fixtures_dir, tmp_path, capsys, row, message):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        shares = inputs / "shares.csv"
        shares.write_text(shares.read_text().replace("TX,Freeway,true", row))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err and f"shares.csv: row 1: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,edit,message",
        [
            # A field longer than csv's field_size_limit, in a data row.
            (2, lambda row: row.replace("I-35", "I" * 200_000),
             "tx_crashes.csv: row 2: field larger than field limit (131072)"),
            # The header names Crash_Year twice, so the year column is ambiguous.
            (0, lambda row: row.replace("Crash_Sev_ID", "Crash_Year"),
             "tx/crash: header repeats column 'Crash_Year' (positions 2 and 8), "
             "which year reads"),
            # A bare CR in an unquoted field, which once split C001 into two rows.
            (1, lambda row: row.replace("Travis", "Tra\rvis"),
             "tx_crashes.csv: row 1: carriage return outside quotes (lines end at LF or CRLF)"),
        ],
        ids=["field-past-csv-limit", "repeated-read-column", "bare-cr"],
    )
    def test_unreadable_crash_table_exit_data_error(self, fixtures_dir, tmp_path, capsys,
                                                    line, edit, message):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        crashes = inputs / "tx_crashes.csv"
        rows = crashes.read_text().splitlines(keepends=True)
        rows[line] = edit(rows[line])
        crashes.write_text("".join(rows))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=data" in err and message in err
        assert not out.exists()

    def test_mapping_token_outside_vocabulary_exit_config_error(self, fixtures_dir, tmp_path,
                                                                capsys):
        from importlib import resources

        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        tx = resources.files("crashbench").joinpath("configs", "tx.ini").read_text()
        assert "1 = Intersection\n" in tx
        (inputs / "tx.ini").write_text(tx.replace("1 = Intersection\n", "1 = Intersecton\n"))
        config = inputs / "run.ini"
        config.write_text(config.read_text().replace("mapping = builtin:tx\n",
                                                     "mapping = tx.ini\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err
        assert "tx.ini: [dictionary.junction_relation] 'Intersecton' is not a" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "builtin,old,new,message",
        [
            ("tx", "unit.vehicle_class = ", "unit.vehical_class = ",
             "tx.ini: [columns] unit.vehical_class: unknown field"),
            ("tx_vmt", "vmt_scale = 1\n", "vmt_scale = abc\n",
             "tx_vmt.ini: [source] vmt_scale must be a finite number > 0, got 'abc'"),
            ("tx", "unit.crash_id = Crash_ID\n", "",
             "mapping 'tx': required fields unbound: unit.crash_id"),
            # Neither is a mapping field: no stage read them.
            ("tx", "unit.vehicle_class = ", "unit.travel_direction = Veh_Trvl_Dir_ID\n"
             "unit.vehicle_class = ", "tx.ini: [columns] unit.travel_direction: unknown field"),
            ("tx", "unit.vehicle_class = ", "unit.maneuver = Veh_Parked_Fl\nunit.vehicle_class = ",
             "tx.ini: [columns] unit.maneuver: unknown field"),
        ],
    )
    def test_bad_mapping_name_or_scale_exit_config_error(self, fixtures_dir, tmp_path, capsys,
                                                         builtin, old, new, message):
        # A misspelt field used to run with its column unread: an all-zero
        # benchmark, exit 0; a bad vmt_scale ended in a traceback.
        from importlib import resources

        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        text = resources.files("crashbench").joinpath("configs", f"{builtin}.ini").read_text()
        assert old in text
        (inputs / f"{builtin}.ini").write_text(text.replace(old, new, 1))
        config = inputs / "run.ini"
        config.write_text(config.read_text().replace(f"builtin:{builtin}\n", f"{builtin}.ini\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=config" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("miles", ["nan", "inf"])
    def test_non_finite_vmt_exit_data_error(self, fixtures_dir, tmp_path, capsys, miles):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        vmt = inputs / "tx_vmt.csv"
        vmt.write_text(vmt.read_text().replace("2023,2000000000", f"2023,{miles}", 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert f"vmt row 1: vmt_miles {miles!r} is not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "miles,message",
        [
            ("1e200", "rate gap (effect_ratio - 1) * lambda_human whose square does not underflow"),
            ("1e-300", "lambda_human must have a finite square"),
        ],
        ids=["gap-underflows", "square-overflows"],
    )
    def test_vmt_outside_power_grid_range_exit_data_error(self, fixtures_dir, tmp_path, capsys,
                                                          miles, message):
        # A finite VMT can still give a freeway rate whose power-grid terms
        # underflow or overflow: that used to exit 2 as a configuration
        # error naming no stratum.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        vmt = inputs / "tx_vmt.csv"
        vmt.write_text(vmt.read_text().replace("2023,2000000000", f"2023,{miles}", 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert "area Austin, road Freeway, outcome " in err
        assert "outside the power grid's range" in err and message in err
        assert not out.exists()

    def test_vmt_whose_rate_overflows_names_the_stratum(self, fixtures_dir, tmp_path, capsys):
        # Austin's freeway rate, about 21 over 9.2e-321 miles, overflows:
        # the error used to name no area, road or outcome.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        vmt = inputs / "tx_vmt.csv"
        vmt.write_text(vmt.read_text().replace("2023,2000000000", "2023,1e-320", 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert ("area Austin, road Freeway, outcome PoliceReported: "
                "count / vmt_miles * 1e6 must be finite") in err
        assert not out.exists()

    def test_zero_count_stratum_whose_interval_overflows_names_it(self, fixtures_dir,
                                                                   tmp_path, capsys):
        # An area with no crashes: its rates are 0, but the upper bound of
        # each interval over 9.2e-321 freeway miles is not finite.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        config = inputs / "run.ini"
        config.write_text(config.read_text().replace(
            "Round Rock = TX: Williamson\n", "Round Rock = TX: Williamson\nHays = TX: Hays\n", 1))
        with open(inputs / "tx_vmt.csv", "a", encoding="utf-8") as fh:
            fh.write("Hays,FREEWAY,2023,1e-320\nHays,SURFACE,2023,1000000000\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert ("area Hays, road Freeway, outcome PoliceReported: "
                "the rate's 0.95 interval must be finite, got count 0.0 over vmt_miles") in err
        assert not out.exists()

    def test_non_numeric_segment_coordinate_exit_config_error(self, fixtures_dir, tmp_path,
                                                              capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        segments = inputs / "roadclass_segments.geojson"
        segments.write_text(segments.read_text().replace("-97.735", '"-97.735"', 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err
        assert "roadclass_segments.geojson: feature 0 (I-35): position 0" in err

    @pytest.mark.parametrize(
        "coordinates,message",
        [
            ([[-97.735, 30.1], [-97.735, 30.1]], "position 1 [-97.735, 30.1] repeats"),
            ([[-97.735, 30.1]], "1 position(s)"),
        ],
        ids=["repeat", "one-position"],
    )
    def test_short_or_repeating_segment_exit_config_error(self, fixtures_dir, tmp_path,
                                                          capsys, coordinates, message):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        segments = inputs / "roadclass_segments.geojson"
        doc = json.loads(segments.read_text())
        doc["features"][0]["geometry"]["coordinates"] = coordinates
        segments.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err
        assert f"roadclass_segments.geojson: feature 0 (I-35): {message}" in err

    @pytest.mark.parametrize(
        "properties,message",
        [
            ({"always_freeway": "false"}, "always_freeway 'false' is not true or false"),
            ({"names": [5]}, "names [5] are not a list of strings"),
        ],
        ids=["flag-string", "names-number"],
    )
    def test_mistyped_segment_property_exit_config_error(self, fixtures_dir, tmp_path,
                                                         capsys, properties, message):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        segments = inputs / "roadclass_segments.geojson"
        doc = json.loads(segments.read_text())
        doc["features"][0]["properties"].update(properties)
        segments.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err
        assert f"roadclass_segments.geojson: feature 0 (I-35): {message}" in err
        assert not out.exists()

    def test_no_config_given(self, capsys, monkeypatch):
        monkeypatch.delenv("CRASHBENCH_CONFIG", raising=False)
        assert main(["run"]) == 2
        assert "kind=config" in capsys.readouterr().err

    def test_out_of_range_param_override(self, run_args, capsys):
        args, _ = run_args
        assert main(["run", *args, "--underreport", "1.5"]) == 2

    @pytest.mark.parametrize(
        "old,new,option",
        [
            ("workers = 1", "workers = two", "[run] workers: bad value 'two'"),
            ("effects = 0.75, 0.5,", "effects = 0.75, half,", "[params] effects: bad value"),
            ("alpha = 0.05", "alpha = 5%", "[params] alpha: bad value '5%'"),
            ("units_table =", "units_tabel =",
             "[source.tx] units_tabel: unknown option; did you mean 'units_table'"),
            ("threshold_m =", "threshhold_m =",
             "[params] threshhold_m: unknown option; did you mean 'threshold_m'"),
            ("[params]", "[param]", "[param]: unknown section; did you mean 'params'"),
            ("[run]", "[DEFAULT]\nseed = 3\n[run]", "[DEFAULT]: unknown section"),
            ("units_table = tx_units.csv", "units_table =",
             "[source.tx] units_table: input file not found"),
            ("vmt_table = tx_vmt.csv", "vmt_table = .",
             "[source.tx] vmt_table: input file not found"),
            ("aliases = roadclass_aliases.ini", "aliases = nowhere.ini",
             "[inputs] aliases: input file not found"),
        ],
    )
    def test_bad_config_value_exit_config_error(self, fixtures_dir, tmp_path, capsys,
                                                old, new, option):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        config = inputs / "run.ini"
        config.write_text(config.read_text().replace(old, new, 1))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=config" in err and f"run.ini: {option}" in err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("effects = 0.75, 0.5,", "effects = 0.75, 0.75, 0.5,",
             "effect ratio 0.75 is given more than once"),
            ("Austin = TX: Travis", "Austin = T\x1fX: Travis",
             r"run.ini: [areas] area 'Austin': 'T\x1fX' holds a control character"),
        ],
        ids=["repeated-effect", "area-control-character"],
    )
    def test_config_that_would_repeat_or_garble_rows_exit_config_error(
        self, fixtures_dir, tmp_path, capsys, old, new, message
    ):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        config = inputs / "run.ini"
        config.write_text(config.read_text().replace(old, new, 1))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "kind=config" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,code,kind",
        [("run.ini", 2, "config"), ("roadclass_aliases.ini", 2, "config"),
         ("roadclass_segments.geojson", 2, "config"), ("shares.csv", 3, "data"),
         ("tx_crashes.csv", 3, "data"), ("geocache.tsv", 3, "data")],
    )
    def test_input_not_utf8_names_the_file(self, fixtures_dir, tmp_path, capsys, name, code,
                                           kind):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        path = inputs / name
        path.write_bytes(path.read_bytes() + "# PE\u00d1A\n".encode("latin-1"))
        config = inputs / "run.ini"
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"kind={kind}" in err and name in err and "UTF-8" in err

    def test_malformed_geojson_exit_config_error(self, fixtures_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        segments = inputs / "roadclass_segments.geojson"
        segments.write_text(segments.read_text()[:-20])
        assert main(["run", "--config", str(inputs / "run.ini"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err and "roadclass_segments.geojson: malformed GeoJSON" in err

    def test_env_overrides(self, fixtures_dir, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("CRASHBENCH_CONFIG", str(fixtures_dir / "run.ini"))
        monkeypatch.setenv("CRASHBENCH_OUT", str(out))
        assert main(["run"]) == 0
        assert (out / "report_2023.json").exists()

    @pytest.mark.parametrize(
        "flag,variable,value,field,expected",
        [
            ("--out", "OUT", "elsewhere", "out_dir", Path("elsewhere")),
            ("--workers", "WORKERS", "3", "workers", 3),
            ("--seed", "SEED", "11", "seed", 11),
            ("--threshold-m", "THRESHOLD_M", "250.5", "params.threshold_m", 250.5),
            ("--underreport", "UNDERREPORT", "0.25", "params.underreport_fraction", 0.25),
            ("--alpha", "ALPHA", "0.1", "params.alpha", 0.1),
            ("--power", "POWER", "0.9", "params.power", 0.9),
        ],
    )
    def test_each_shared_flag_and_its_variable_set_one_field(self, fixtures_dir, monkeypatch,
                                                             flag, variable, value, field,
                                                             expected):
        def load(argv):
            return cli._load_config(
                cli.build_parser().parse_args(["run", "--config", str(config), *argv])
            )

        config = fixtures_dir / "run.ini"
        for name in ("OUT", "WORKERS", "SEED", "THRESHOLD_M", "UNDERREPORT", "ALPHA", "POWER"):
            monkeypatch.delenv(f"CRASHBENCH_{name}", raising=False)
        from_file = load([])
        if field.startswith("params."):
            params = replace(from_file.params, **{field[len("params."):]: expected})
            changed = replace(from_file, params=params)
        else:
            changed = replace(from_file, **{field: expected})
        from_flag = load([flag, value])
        monkeypatch.setenv(f"CRASHBENCH_{variable}", value)
        assert from_flag == load([]) == changed != from_file

    def test_flag_beats_env(self, fixtures_dir, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        flag_out = tmp_path / "flag_out"
        monkeypatch.setenv("CRASHBENCH_OUT", str(env_out))
        assert main(["run", "--config", str(fixtures_dir / "run.ini"),
                     "--out", str(flag_out)]) == 0
        assert (flag_out / "report_2023.json").exists()
        assert not env_out.exists()


class TestStageCommands:
    def test_ingest(self, run_args, capsys):
        args, _ = run_args
        assert main(["ingest", *args]) == 0
        out = capsys.readouterr().out
        assert "records=33" in out and "skipped=2" in out

    def test_classify_roads(self, run_args, capsys):
        args, out = run_args
        assert main(["classify-roads", *args]) == 0
        path = out / "road_classes_2023.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = {row["crash_id"]: row for row in csv.DictReader(fh)}
        assert rows["C001"]["road"] == "Freeway"
        assert rows["C001"]["provenance"] == "ByNameAlways"
        assert rows["C012"]["road"] == "SurfaceStreet"
        assert rows["C014"]["provenance"] == "Unresolvable"

    def test_rates_without_power_grid(self, run_args):
        args, out = run_args
        assert main(["rates", *args]) == 0
        grid = (out / "power_grid_2023.csv").read_text().splitlines()
        assert len(grid) == 1  # header only
        rates = (out / "benchmark_rates_2023.csv").read_text().splitlines()
        assert len(rates) > 1


    def test_rates_refuses_a_full_runs_directory(self, run_args, fixtures_dir, capsys):
        # rates would replace the power grid and report with grid-less ones.
        args, out = run_args
        assert main(["run", *args]) == 0
        before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert main(["rates", *args]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err and "power_grid_2023.csv" in err
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == before
        pinned = _pinned_digests(fixtures_dir)
        for path in out.iterdir():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name]

    def test_rates_rewrites_its_own_output(self, run_args):
        args, out = run_args
        assert main(["rates", *args]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["rates", *args]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def _pinned_digests(fixtures_dir, golden: str = "golden_outputs.sha256") -> dict[str, str]:
    lines = (fixtures_dir / golden).read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


class TestGoldenOutputs:
    """The fixture run's files must match the SHA-256 digests pinned in
    tests/fixtures/golden_outputs.sha256.  A change to any fixture input,
    to TOOL_VERSION or to what the pipeline computes changes them; only
    the last needs a reason beyond regenerating the file."""

    def test_run_outputs(self, run_args, fixtures_dir):
        args, out = run_args
        assert main(["run", *args]) == 0
        pinned = _pinned_digests(fixtures_dir)
        emitted = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        }
        assert emitted == {k: v for k, v in pinned.items() if k != "road_classes_2023.csv"}

    def test_same_bytes_in_fresh_interpreters_under_two_hash_seeds(self, fixtures_dir,
                                                                   tmp_path):
        # Enum members hash by identity and strings by the hash seed, so
        # set order differs between processes; the outputs must not.
        src = Path(crashbench.__file__).resolve().parents[1]
        emitted = []
        for seed in ("0", "1"):
            out = tmp_path / f"seed{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            for command in ("run", "classify-roads"):
                subprocess.run(
                    [sys.executable, "-m", "crashbench.cli", command,
                     "--config", str(fixtures_dir / "run.ini"), "--out", str(out)],
                    env=env, check=True, capture_output=True,
                )
            emitted.append(
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            )
        assert emitted[0] == emitted[1] == _pinned_digests(fixtures_dir)

    @pytest.mark.parametrize(
        "marked",
        [("run.ini",), ("roadclass_aliases.ini",), ("roadclass_segments.geojson",),
         ("geocache.tsv",), BOM_INPUTS],
    )
    def test_byte_order_mark_on_an_input_keeps_the_rate_tables(self, fixtures_dir, tmp_path,
                                                                marked):
        # As an editor or spreadsheet saves UTF-8: a BOM before the text.
        # A cache key read with the BOM would leave its crash unlocated.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        for name in marked:
            (inputs / name).write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / name).read_bytes())
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 0
        pinned = _pinned_digests(fixtures_dir)
        for path in out.glob("*.csv"):  # the report JSON carries the input digests
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name]
        diagnostics = json.loads((out / "report_2023.json").read_text())["diagnostics"]
        assert diagnostics["geocoding"] == {"failed": 0, "resolved": 1, "unresolved": 1}

    def test_crlf_line_ends_keep_the_rate_tables(self, fixtures_dir, tmp_path):
        # As a Windows editor saves text: every input with CRLF line ends.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        for name in BOM_INPUTS:
            text = (fixtures_dir / name).read_bytes()
            assert b"\r" not in text
            (inputs / name).write_bytes(text.replace(b"\n", b"\r\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 0
        pinned = _pinned_digests(fixtures_dir)
        for path in out.glob("*.csv"):  # the report JSON carries the input digests
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name]
        diagnostics = json.loads((out / "report_2023.json").read_text())["diagnostics"]
        assert diagnostics["geocoding"] == {"failed": 0, "resolved": 1, "unresolved": 1}

    def test_classify_roads_output(self, run_args, fixtures_dir):
        args, out = run_args
        assert main(["classify-roads", *args]) == 0
        name = "road_classes_2023.csv"
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == _pinned_digests(fixtures_dir)[name]

    def test_compare_output(self, run_args, fixtures_dir, tmp_path):
        # The committed ADS table names every severity cell of the fixture
        # run with a count above zero; the digest of compare's output is
        # pinned apart from the run's, since it lands in another directory.
        args, out = run_args
        assert main(["run", *args]) == 0
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--benchmark", str(out / "benchmark_rates_2023.csv"),
                     "--ads", str(fixtures_dir / "ads_compare.csv"), "--out", str(cmp_out)]) == 0
        emitted = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in cmp_out.iterdir()
        }
        assert emitted == _pinned_digests(fixtures_dir, "golden_compare.sha256")
        with open(out / "benchmark_rates_2023.csv", newline="") as fh:
            severity = {
                (row["geo"], row["road"], row["outcome"])
                for row in csv.DictReader(fh)
                if not row["crash_type"] and float(row["count"]) > 0
            }
        with open(fixtures_dir / "ads_compare.csv", newline="") as fh:
            covered = [(row["geo"], row["road"], row["outcome"]) for row in csv.DictReader(fh)]
        assert sorted(covered) == sorted(severity)


    def test_repeated_unit_row_counts_once(self, fixtures_dir, tmp_path):
        # A copied unit row is skipped, so the rate tables are the clean
        # fixture's: C001's first unit is not counted twice.
        inputs = tmp_path / "inputs"
        shutil.copytree(fixtures_dir, inputs)
        with open(inputs / "tx_units.csv", "a", encoding="utf-8") as fh:
            fh.write("C001,1,P4,N,1,,,1,1,1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(inputs / "run.ini"), "--out", str(out)]) == 0
        pinned = _pinned_digests(fixtures_dir)
        for path in out.glob("*.csv"):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name]
        diagnostics = json.loads((out / "report_2023.json").read_text())["diagnostics"]
        assert diagnostics["ingest"][0]["rows_skipped"] == 3

class TestPowerCommand:
    def test_matches_library_exactly(self, capsys):
        assert main(["power", "--lambda-human", "5.609e-6", "--effect", "0.75"]) == 0
        out = capsys.readouterr().out.strip()
        expected = required_mileage(PowerQuery(5.609e-6, 0.75)).required_miles
        assert f"required_miles={expected!r}" in out

    def test_multiple_effects(self, capsys):
        assert main(["power", "--lambda-human", "1e-6",
                     "--effect", "0.75", "--effect", "0.5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_zero_effect_data_error(self, capsys):
        assert main(["power", "--lambda-human", "1e-6", "--effect", "1.0"]) == 3
        assert "kind=data" in capsys.readouterr().err

    def test_mc_validation_flag(self, capsys):
        assert main(["power", "--lambda-human", "5.609e-6", "--effect", "0.75",
                     "--validate", "2000", "--seed", "11"]) == 0
        assert "mc_power=" in capsys.readouterr().out

    def test_out_of_range_alpha_is_config_error(self, capsys):
        assert main(["power", "--lambda-human", "1e-6", "--effect", "0.75",
                     "--alpha", "1.5"]) == 2
        assert "kind=config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,option",
        [
            (["--lambda-human", "0"], "lambda_human"),
            (["--lambda-human", "nan"], "lambda_human"),
            (["--lambda-human", "1e-6", "--effect", "-0.5"], "effect_ratio"),
            (["--lambda-human", "1e-6", "--power", "1"], "power"),
            (["--lambda-human", "1e-6", "--validate", "500"], "trials"),
            (["--lambda-human", "1e-6", "--validate", "2000", "--seed", "-1"], "seed"),
            (["--lambda-human", "inf"], "lambda_human"),
            (["--lambda-human", "1e-6", "--effect", "inf"], "effect_ratio"),
            (["--lambda-human", "1e300", "--effect", "10"], "lambda_human"),
            (["--lambda-human", "1e153", "--effect", "100"], "lambda_ads"),
            (["--lambda-human", "1e-200", "--effect", "0.75"], "lambda_human"),
            (["--lambda-human", "1e-160", "--effect", "1.0000001"], "lambda_human"),
        ],
    )
    def test_out_of_range_input_is_config_error_naming_it(self, capsys, args, option):
        assert main(["power", *args]) == 2
        err = capsys.readouterr().err
        assert "kind=config" in err and f'message="{option}' in err

    def test_stray_value_error_is_not_reported_as_config_error(self, monkeypatch):
        # Only typed errors become exit codes; anything else is a bug.
        def broken(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "power_curve", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["power", "--lambda-human", "1e-6"])

    def test_junk_env_value_is_config_error(self, fixtures_dir, monkeypatch, capsys):
        monkeypatch.setenv("CRASHBENCH_WORKERS", "many")
        code = main(["run", "--config", str(fixtures_dir / "run.ini")])
        assert code == 2
        assert "CRASHBENCH_WORKERS" in capsys.readouterr().err


class TestCompare:
    def test_eq1_outputs(self, run_args, tmp_path, capsys):
        args, out = run_args
        assert main(["run", *args]) == 0
        ads = tmp_path / "ads.csv"
        ads.write_text(
            "geo,road,outcome,ads_count,ads_vmt_miles\n"
            "Austin,Freeway,PoliceReported,10,1000000000\n"  # above benchmark
            "Austin,Freeway,Fatal,1,1000000000\n"
        )
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--benchmark", str(out / "benchmark_rates_2023.csv"),
                     "--ads", str(ads), "--out", str(cmp_out)]) == 0
        with open(cmp_out / "safety_impact.csv", newline="") as fh:
            rows = {row["outcome"]: row for row in csv.DictReader(fh)}
        # Austin freeway PR benchmark: (20 + 40/43) / 1.84e9 * 1e6 IPMM.
        bench = (20 + 40 / 43) / 1.84e9 * 1e6
        assert float(rows["PoliceReported"]["benchmark_rate_ipmm"]) == pytest.approx(bench)
        impact = float(rows["PoliceReported"]["percent_difference"])
        assert impact == pytest.approx((0.01 / bench - 1.0) * 100.0)
        # ADS fatal rate 0.001 IPMM vs benchmark 2/1.84e9*1e6: below -> negative.
        assert float(rows["Fatal"]["percent_difference"]) < 0

    def test_missing_stratum_is_data_error(self, run_args, tmp_path, capsys):
        args, out = run_args
        assert main(["run", *args]) == 0
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\nNowhere,Freeway,Fatal,1,1e6\n")
        assert main(["compare", "--benchmark", str(out / "benchmark_rates_2023.csv"),
                     "--ads", str(ads), "--out", str(tmp_path / "c")]) == 3
        assert "kind=data" in capsys.readouterr().err
        assert not (tmp_path / "c" / "safety_impact.csv").exists()

    def _compare_fails(self, run_args, tmp_path, capsys, table: str) -> str:
        """Run compare on an ADS table whose last row fails; it must exit
        3 as a data error and write no file.  Returns the error line."""
        args, out = run_args
        assert main(["run", *args]) == 0
        ads = tmp_path / "ads.csv"
        ads.write_text(table)
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--benchmark", str(out / "benchmark_rates_2023.csv"),
                     "--ads", str(ads), "--out", str(cmp_out)]) == 3
        assert not (cmp_out / "safety_impact.csv").exists()
        err = capsys.readouterr().err
        assert "kind=data" in err
        return err

    def test_missing_ads_column_is_data_error(self, run_args, tmp_path, capsys):
        err = self._compare_fails(run_args, tmp_path, capsys,
                                  "geo,road,outcome,ads_count\nAustin,Freeway,Fatal,1\n")
        assert "ads.csv: ADS table lacks column(s) ads_vmt_miles" in err

    @pytest.mark.parametrize("count", ["abc", "", "nan", "inf", "-1"])
    def test_bad_ads_count_is_data_error(self, run_args, tmp_path, capsys, count):
        err = self._compare_fails(
            run_args, tmp_path, capsys,
            "geo,road,outcome,ads_count,ads_vmt_miles\n"
            "Austin,Freeway,PoliceReported,10,1e9\n"
            f"Austin,Freeway,Fatal,{count},1e9\n",
        )
        assert f"ads.csv: row 2: ads_count {count!r} is not a finite number >= 0" in err

    @pytest.mark.parametrize("miles", ["abc", "nan", "inf", "0", "-5"])
    def test_bad_ads_vmt_is_data_error(self, run_args, tmp_path, capsys, miles):
        err = self._compare_fails(
            run_args, tmp_path, capsys,
            "geo,road,outcome,ads_count,ads_vmt_miles\n"
            "Austin,Freeway,PoliceReported,10,1e9\n"
            f"Austin,Freeway,Fatal,1,{miles}\n",
        )
        assert f"ads.csv: row 2: ads_vmt_miles {miles!r} is not a finite number > 0" in err

    def test_overflowing_ads_rate_is_data_error(self, run_args, tmp_path, capsys):
        # 1 / 1e-320 * 1e6 is inf: compare used to write inf and exit 0.
        err = self._compare_fails(
            run_args, tmp_path, capsys,
            "geo,road,outcome,ads_count,ads_vmt_miles\n"
            "Austin,Freeway,PoliceReported,10,1e9\n"
            "Austin,Freeway,Fatal,1,1e-320\n",
        )
        assert "ads.csv: row 2: count / vmt_miles * 1e6 must be finite" in err

    def test_overflowing_benchmark_rate_is_data_error(self, run_args, tmp_path, capsys):
        # The benchmark rate and interval used to be inf, the percent
        # difference -100.0, with a numpy overflow warning, and exit 0.
        args, out = run_args
        assert main(["run", *args]) == 0
        with open(out / "benchmark_rates_2023.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        number, row = next(
            (n, r) for n, r in enumerate(rows, 1) if r["crash_type"] == "" and float(r["count"]) > 0
        )
        row["vmt_miles"] = "1e-320"
        benchmark = tmp_path / "benchmark.csv"
        with open(benchmark, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       f"{row['geo']},{row['road']},{row['outcome']},10,1e9\n")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                     "--out", str(cmp_out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert f"benchmark.csv: row {number}: count / vmt_miles * 1e6 must be finite" in err
        assert not (cmp_out / "safety_impact.csv").exists()

    @pytest.mark.parametrize("count,miles", [("1.0", "1e-302"), ("0.0", "1e-320")])
    def test_benchmark_interval_that_overflows_is_data_error(self, run_args, tmp_path, capsys,
                                                             count, miles):
        # The rate is finite (1e308 or 0) but the interval's upper bound
        # is not: compare used to write inf with a numpy overflow warning.
        args, out = run_args
        assert main(["run", *args]) == 0
        with open(out / "benchmark_rates_2023.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0].update(count=count, vmt_miles=miles)
        benchmark = tmp_path / "benchmark.csv"
        with open(benchmark, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       f"{rows[0]['geo']},{rows[0]['road']},{rows[0]['outcome']},10,1e9\n")
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                     "--out", str(cmp_out)]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert f"interval must be finite, got count {count} over vmt_miles {miles}" in err
        # The refusal names the benchmark file and the cell's stratum.
        stratum = f"area {rows[0]['geo']}, road {rows[0]['road']}, outcome {rows[0]['outcome']}"
        assert f"{benchmark}: {stratum}: the rate's 0.95 interval must be finite" in err
        assert not (cmp_out / "safety_impact.csv").exists()

    @pytest.mark.parametrize(
        "column,value", [("count", "many"), ("road", "Tollway"), ("vmt_miles", "0")]
    )
    def test_malformed_benchmark_row_is_data_error(self, run_args, tmp_path, capsys, column,
                                                   value):
        args, out = run_args
        assert main(["run", *args]) == 0
        with open(out / "benchmark_rates_2023.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1][column] = value
        benchmark = tmp_path / "benchmark.csv"
        with open(benchmark, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       "Austin,Freeway,PoliceReported,10,1e9\n")
        assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                     "--out", str(tmp_path / "cmp")]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err and "benchmark.csv: row 2:" in err

    def test_repeated_benchmark_cell_is_data_error(self, run_args, tmp_path, capsys):
        # A copy of the first severity row with another count, right after
        # it: compare used to take the copy's count and exit 0.
        args, out = run_args
        assert main(["run", *args]) == 0
        with open(out / "benchmark_rates_2023.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows.insert(1, dict(rows[0], count="999.0"))
        benchmark = tmp_path / "benchmark.csv"
        with open(benchmark, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       "Austin,Freeway,PoliceReported,10,1e9\n")
        assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                     "--out", str(tmp_path / "cmp")]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert (f"benchmark.csv: rows 1 and 2 are the same cell: geo {rows[0]['geo']!r}, "
                f"road {rows[0]['road']}, outcome {rows[0]['outcome']}, crash type none") in err
        assert not (tmp_path / "cmp").exists()

    def test_benchmark_field_past_csv_limit_is_data_error(self, run_args, tmp_path, capsys):
        args, out = run_args
        assert main(["run", *args]) == 0
        rows = (out / "benchmark_rates_2023.csv").read_text().splitlines(keepends=True)
        rows[2] = rows[2].replace("Austin", "A" * 200_000, 1)
        benchmark = tmp_path / "benchmark.csv"
        benchmark.write_text("".join(rows))
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       "Austin,Freeway,PoliceReported,10,1e9\n")
        assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                     "--out", str(tmp_path / "cmp")]) == 3
        err = capsys.readouterr().err
        assert "kind=data" in err
        assert "benchmark.csv: row 2: field larger than field limit (131072)" in err
        assert not (tmp_path / "cmp").exists()

    def test_benchmark_with_byte_order_mark_compares_alike(self, run_args, tmp_path):
        # A rate table re-saved with a byte-order mark reads as the same
        # cells, and compare writes the same comparison from it.
        args, out = run_args
        assert main(["run", *args]) == 0
        rates = out / "benchmark_rates_2023.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + rates.read_bytes())
        assert parse_rate_table(marked) == parse_rate_table(rates)
        ads = tmp_path / "ads.csv"
        ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                       "Austin,Freeway,PoliceReported,10,1e9\n"
                       "Austin,Freeway,Fatal,1,1e9\n")
        compared = []
        for benchmark in (rates, marked):
            cmp_out = tmp_path / f"cmp-{benchmark.stem}"
            assert main(["compare", "--benchmark", str(benchmark), "--ads", str(ads),
                         "--out", str(cmp_out)]) == 0
            compared.append((cmp_out / "safety_impact.csv").read_bytes())
        assert compared[0] == compared[1]

    def test_zero_benchmark_rate_writes_no_file(self, run_args, tmp_path, capsys):
        # The fixture has no fatal surface-street crash in Round Rock.
        err = self._compare_fails(
            run_args, tmp_path, capsys,
            "geo,road,outcome,ads_count,ads_vmt_miles\n"
            "Austin,Freeway,PoliceReported,10,1e9\n"
            "Round Rock,SurfaceStreet,Fatal,1,1e9\n",
        )
        assert "baseline rate must be > 0" in err
