"""Hostile-input property: one bounded mutation of one delimited table.

A copy of the fixture inputs has one table drifted or damaged in one
way: a header column dropped (from every line), renamed or repeated, a
row truncated, widened or repeated, a NUL, a bare CR or a
200,000-character field inserted, bytes that are not UTF-8 added, or a
byte-order mark put in front.  ``crashbench run`` then exits 0, 2 or 3, never with a traceback
(``cli.main`` returns the code; anything it raises would be exit 1),
and on exit 0 every table's rows read equal rows used plus rows skipped.

The rate-table arm damages a copy of the fixture run's severity rate
table the same way: ``crashbench compare`` exits 0 or 3, and on exit 0
the table held only rows of its header's width, since every field of a
rate row was written.  A repeated rate row always exits 3: either
count could be the one meant.
"""

import csv
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashbench import pipeline
from crashbench.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
TABLES = ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv", "tx_vmt.csv", "shares.csv")
MUTATIONS = (
    "drop column", "rename column", "repeat column", "truncate row", "widen row",
    "repeat row", "NUL", "bare CR", "long field", "not UTF-8", "byte-order mark",
)
ADS = "geo,road,outcome,ads_count,ads_vmt_miles\nAustin,Freeway,PoliceReported,3,1000000\n"


def _mutated(data: bytes, mutation: str, draw) -> bytes:
    """``data``, a comma-delimited table of a header and at least one row,
    with ``mutation`` applied at the places ``draw`` picks."""
    if mutation == "byte-order mark":
        return b"\xef\xbb\xbf" + data
    if mutation == "not UTF-8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3("])) + data[at:]
    text = data.decode("utf-8")
    if mutation in ("NUL", "bare CR"):
        at = draw(st.integers(0, len(text)))
        return (text[:at] + ("\0" if mutation == "NUL" else "\r") + text[at:]).encode("utf-8")
    lines = [line.split(",") for line in text.splitlines()]
    header = lines[0]
    column = draw(st.integers(0, len(header) - 1))
    at = draw(st.integers(1, len(lines) - 1))
    row = lines[at]
    if mutation == "drop column":
        lines = [line[:column] + line[column + 1:] for line in lines]
    elif mutation == "rename column":
        header[column] += "_renamed"
    elif mutation == "repeat column":
        other = draw(st.integers(0, len(header) - 1).filter(lambda i: i != column))
        header[other] = header[column]
    elif mutation == "truncate row":
        del row[len(row) - draw(st.integers(1, len(row) - 1)):]
    elif mutation == "widen row":
        row.append("EXTRA")
    elif mutation == "repeat row":
        lines.insert(at + 1, list(row))
    else:  # long field: past csv's default field_size_limit
        row[column] = "X" * 200_000
    return "".join(",".join(line) + "\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=5, deadline=None)
@given(table=st.sampled_from(TABLES), data=st.data())
def test_run_on_a_damaged_table_exits_cleanly_and_accounts_for_its_rows(
    mutation, table, data
):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        shutil.copytree(FIXTURES, inputs)
        path = inputs / table
        path.write_bytes(_mutated(path.read_bytes(), mutation, data.draw))
        config = inputs / "run.ini"
        code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3)
        if code == 0:
            _, reports, _ = pipeline.load_crashes(pipeline.load_run_config(config))
            for report in reports:
                for name in ("crash", "unit", "person"):
                    assert report.conserves_rows(name), (name, report)


@pytest.fixture(scope="module")
def fixture_rates(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--config", str(FIXTURES / "run.ini"), "--out", str(out)]) == 0
    return out / "benchmark_rates_2023.csv"


@pytest.mark.parametrize("mutation", MUTATIONS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_compare_on_a_damaged_rate_table_exits_cleanly(fixture_rates, mutation, data):
    with tempfile.TemporaryDirectory() as tmp:
        rates, ads = Path(tmp) / "rates.csv", Path(tmp) / "ads.csv"
        rates.write_bytes(_mutated(fixture_rates.read_bytes(), mutation, data.draw))
        ads.write_text(ADS)
        code = main(["compare", "--benchmark", str(rates), "--ads", str(ads),
                     "--out", str(Path(tmp) / "out")])
        assert code in ((3,) if mutation == "repeat row" else (0, 3))
        if code == 0:
            with open(rates, newline="", encoding="utf-8-sig") as fh:
                header, *rows = (row for row in csv.reader(fh) if row)
            assert all(len(row) == len(header) for row in rows)
