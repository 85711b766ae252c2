import csv
import hashlib
import shutil

import pytest

from crashbench.cli import main
from crashbench.power import PowerQuery, required_mileage


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

    def test_no_config_given(self, capsys, monkeypatch):
        monkeypatch.delenv("CRASHBENCH_CONFIG", raising=False)
        assert main(["run"]) == 2
        assert "kind=config" in capsys.readouterr().err

    def test_out_of_range_param_override(self, run_args, capsys):
        args, _ = run_args
        assert main(["run", *args, "--underreport", "1.5"]) == 2

    def test_env_overrides(self, fixtures_dir, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("CRASHBENCH_CONFIG", str(fixtures_dir / "run.ini"))
        monkeypatch.setenv("CRASHBENCH_OUT", str(out))
        assert main(["run"]) == 0
        assert (out / "report_2023.json").exists()

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


def _pinned_digests(fixtures_dir) -> dict[str, str]:
    lines = (fixtures_dir / "golden_outputs.sha256").read_text().splitlines()
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

    def test_classify_roads_output(self, run_args, fixtures_dir):
        args, out = run_args
        assert main(["classify-roads", *args]) == 0
        name = "road_classes_2023.csv"
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == _pinned_digests(fixtures_dir)[name]


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
