import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crashbench.model import ConfigError, DataError, GeoArea, RoadClass
from crashbench.rates import RateCell, format_rate, poisson_ci
from crashbench.report import (
    BenchmarkReport,
    DISTRIBUTION_COLUMNS,
    METHODOLOGY_NOTES,
    NOTE_MILEAGE_SCALE,
    NOTE_PHOENIX_FATAL,
    POWER_GRID_COLUMNS,
    RATE_COLUMNS,
    emit_report,
    parse_rate_table,
)
from crashbench.taxonomy import LABEL, OUTCOME_RANK, CrashType, OutcomeLevel

ATLANTA = GeoArea("Atlanta", "GA", frozenset({"FULTON", "DEKALB", "CLAYTON"}))
AUSTIN = GeoArea("Austin", "TX", frozenset({"TRAVIS"}))


def sample_cells() -> list[RateCell]:
    return [
        RateCell(ATLANTA, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED, 57103.0, 10_180e6),
        RateCell(ATLANTA, RoadClass.FREEWAY, OutcomeLevel.FATAL, 140.0, 10_180e6),
        RateCell(AUSTIN, RoadClass.FREEWAY, OutcomeLevel.ANY_INJURY_REPORTED,
                 19.647058823529413, 1.84e9),
        RateCell(AUSTIN, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED, 20.930232558139537,
                 1.84e9, crash_type=CrashType.V2V_FRONT_TO_REAR),
    ]


def sample_report(cells=None) -> BenchmarkReport:
    return BenchmarkReport(
        metadata={"tool_version": "0.1.0", "config_digest": "abc", "input_digests": {}},
        cells=cells if cells is not None else sample_cells(),
        distributions=[
            (ATLANTA, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED,
             {CrashType.V2V_FRONT_TO_REAR: 0.5, CrashType.SINGLE_VEHICLE: 0.5})
        ],
        power_grid=[
            ("Atlanta", "Freeway", "PoliceReported", 0.5,
             1083520.7186493927, 30.38, 4883306.573938446),
            ("Atlanta", "Freeway", "PoliceReported", 0.75,
             4323348.338954176, 18.18, 20623436.022149596),
            ("Austin", "Freeway", "Fatal", 0.75, 2.5e9, 1.4, 1.2e10),
        ],
        diagnostics={"records_outside_areas": 0},
    )


def read_all(paths) -> dict[str, bytes]:
    return {name: path.read_bytes() for name, path in paths.items()}


class TestEmission:
    def test_same_inputs_twice_identical_bytes(self, tmp_path):
        first = emit_report(sample_report(), tmp_path / "a", tag="2023")
        second = emit_report(sample_report(), tmp_path / "b", tag="2023")
        assert read_all(first) == read_all(second)

    def test_cell_order_does_not_matter(self, tmp_path):
        cells = sample_cells()
        first = emit_report(sample_report(cells), tmp_path / "a", tag="x")
        second = emit_report(sample_report(list(reversed(cells))), tmp_path / "b", tag="x")
        assert read_all(first) == read_all(second)

    def test_power_grid_order_does_not_matter(self, tmp_path):
        grid = sample_report().power_grid
        first = emit_report(sample_report(), tmp_path / "a", tag="x")
        reversed_grid = sample_report()
        reversed_grid.power_grid = list(reversed(grid))
        second = emit_report(reversed_grid, tmp_path / "b", tag="x")
        assert read_all(first) == read_all(second)
        lines = first["power_grid"].read_text().splitlines()
        assert lines[1].startswith("Atlanta,Freeway,PoliceReported,0.5,")
        assert lines[3].startswith("Austin,Freeway,Fatal,0.75,")

    def test_table5_style_display_cell(self, tmp_path):
        paths = emit_report(sample_report(), tmp_path, tag="2023")
        text = paths["rates"].read_text()
        assert "57103 (5.609)" in text

    def test_fatal_formats_scientific_below_threshold(self, tmp_path):
        cells = [RateCell(AUSTIN, RoadClass.FREEWAY, OutcomeLevel.FATAL, 1.0, 2e9)]
        paths = emit_report(sample_report(cells), tmp_path, tag="t")
        assert "(5.000e-04)" in paths["rates"].read_text()

    def test_empty_cells_header_only(self, tmp_path):
        report = BenchmarkReport(metadata={}, cells=[], distributions=[], power_grid=[])
        paths = emit_report(report, tmp_path, tag="e")
        rates = paths["rates"].read_text().splitlines()
        assert len(rates) == 1
        assert rates[0].startswith("geo,")

    @pytest.mark.parametrize("crash_type", [None, CrashType.PEDESTRIAN])
    def test_cell_whose_interval_overflows_names_it_and_writes_nothing(self, tmp_path,
                                                                       crash_type):
        # A zero count over 1e-320 miles is a valid cell with an infinite
        # upper bound; either table's cell is refused before any file.
        cells = sample_cells() + [
            RateCell(AUSTIN, RoadClass.SURFACE_STREET, OutcomeLevel.FATAL, 0.0, 1e-320, crash_type)
        ]
        stratum = "area Austin, road SurfaceStreet, outcome Fatal"
        if crash_type is not None:
            stratum += ", crash type Pedestrian"
        sink = tmp_path / "report"
        with pytest.raises(DataError, match=f"^{stratum}: the rate's 0.95 interval must be finite"):
            emit_report(sample_report(cells), sink, tag="x")
        assert not sink.exists()

    def test_file_names_carry_tag(self, tmp_path):
        paths = emit_report(sample_report(), tmp_path, tag="2023")
        assert paths["rates"].name == "benchmark_rates_2023.csv"
        assert paths["report"].name == "report_2023.json"


class TestRoundTrip:
    def test_rate_table_round_trips_exactly(self, tmp_path):
        cells = sample_cells()
        paths = emit_report(sample_report(cells), tmp_path, tag="rt")
        recovered = parse_rate_table(paths["rates"]) + parse_rate_table(paths["typed_rates"])
        original = sorted(cells, key=lambda c: (c.geo.name, c.outcome.value,
                                                c.crash_type.value if c.crash_type else ""))
        recovered = sorted(recovered, key=lambda c: (c.geo.name, c.outcome.value,
                                                     c.crash_type.value if c.crash_type else ""))
        assert recovered == original  # exact: counts, VMT, geography, strata

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=12),
        state=st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=4),
        counties=st.frozensets(
            st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=";"),
                    max_size=10),
            min_size=1, max_size=3,
        ),
    )
    def test_any_valid_area_round_trips(self, name, state, counties):
        try:
            area = GeoArea(name, state, counties)
        except ConfigError:  # a blank name or state
            assert not name.strip() or not state.strip()
            return
        cells = [
            RateCell(area, RoadClass.FREEWAY, OutcomeLevel.FATAL, 2.0, 3e8),
            RateCell(area, RoadClass.SURFACE_STREET, OutcomeLevel.POLICE_REPORTED, 0.5, 7e8,
                     crash_type=CrashType.PEDESTRIAN),
        ]
        with tempfile.TemporaryDirectory() as out:
            paths = emit_report(sample_report(cells), Path(out), tag="any")
            recovered = parse_rate_table(paths["rates"]) + parse_rate_table(paths["typed_rates"])
        assert recovered == cells

    def test_row_of_another_width_is_data_error(self, tmp_path):
        paths = emit_report(sample_report(), tmp_path, tag="w")
        header, first, *rest = paths["rates"].read_text().splitlines(keepends=True)
        for row, words in (
            (first.rstrip("\n") + ",EXTRA\n", "more"),
            (first.rsplit(",", 1)[0] + "\n", "fewer"),
        ):
            paths["rates"].write_text("".join([header, row, *rest]))
            with pytest.raises(DataError, match=rf"rates_w\.csv: row 1: {words} fields than"):
                parse_rate_table(paths["rates"])

    def test_fractional_counts_survive(self, tmp_path):
        fractional = RateCell(
            AUSTIN, RoadClass.SURFACE_STREET, OutcomeLevel.ANY_INJURY_REPORTED,
            15.705882352941176, 2.85e9,
        )
        paths = emit_report(sample_report([fractional]), tmp_path, tag="f")
        (cell,) = parse_rate_table(paths["rates"])
        assert cell.count == fractional.count
        assert cell.rate_ipmm == fractional.rate_ipmm


# Areas as a hand-edited rate table may spell them: each draw writes the
# state and counties in some case, order and padding.
SPELLED_AREAS = (
    ("Austin", "TX", ("TRAVIS", "HAYS")),
    ("Round Rock", "tx", ("Williamson",)),
    ("Bay", "Ca", ("San Mateo", "santa clara", "SAN FRANCISCO")),
)


@st.composite
def area_texts(draw) -> tuple[str, str, str]:
    """The raw (geo, state, counties) text of one of SPELLED_AREAS."""
    name, state, counties = draw(st.sampled_from(SPELLED_AREAS))
    spelled = [
        draw(st.sampled_from([county.upper(), county.lower(), county.title(), f" {county} "]))
        for county in draw(st.permutations(counties))
    ]
    return name, draw(st.sampled_from([state, state.lower(), f" {state} "])), ";".join(spelled)


rate_rows = st.lists(
    st.tuples(
        area_texts(),
        st.sampled_from(list(RoadClass)),
        st.sampled_from(list(OutcomeLevel)),
        st.sampled_from([None, *CrashType]),
        st.floats(0.0, 1e6),
        st.floats(1.0, 1e12),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda row: (row[0][0], *row[1:4]),  # one row per cell
)


def _rate_table_text(rows) -> list[list[str]]:
    """The rate-table fields of each row; parse_rate_table reads the
    first eight columns, so the figures after them are left empty."""
    return [
        [*area, LABEL[road], LABEL[outcome], LABEL[crash_type] if crash_type else "",
         repr(count), repr(vmt), "", "", "", ""]
        for area, road, outcome, crash_type, count, vmt in rows
    ]


def _parse_fields(fields: list[list[str]]) -> list[RateCell]:
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "rates.csv"
        path.write_bytes(_csv_bytes(RATE_COLUMNS, fields))
        return parse_rate_table(path)


class TestReadBack:
    """``parse_rate_table`` reads each distinct area text and label once."""

    @settings(max_examples=80, deadline=None)
    @given(rows=rate_rows)
    def test_repeated_areas_read_back_as_one_shared_area_each(self, rows):
        cells = _parse_fields(_rate_table_text(rows))
        assert cells == [
            RateCell(GeoArea(name, state, frozenset(counties.split(";"))), road, outcome,
                     count, vmt, crash_type)
            for (name, state, counties), road, outcome, crash_type, count, vmt in rows
        ]
        for (text, *_), cell in zip(rows, cells):
            for (other_text, *_), other in zip(rows, cells):
                assert (cell.geo is other.geo) == (text == other_text)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=rate_rows,
        bad=st.sampled_from([
            (0, "Aus\x01tin", "holds a control character"),
            (1, " ", "the name and the state must not be blank"),
            (2, "TRAVIS;HA\x7fYS", "holds a control character"),
            (3, "Tollway", "'Tollway' is not a valid RoadClass"),
            (4, "fatal", "'fatal' is not a valid OutcomeLevel"),
            (5, "Unknown", "'Unknown' is not a valid CrashType"),
            (6, "many", "could not convert string to float: 'many'"),
            (7, "0", "vmt_miles must be > 0"),
        ]),
        data=st.data(),
    )
    def test_malformed_field_names_the_first_row_holding_it(self, rows, bad, data):
        # The same bad text on one or more rows, the first of them the
        # table's first row or a later one.
        column, text, message = bad
        marked = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
        fields = _rate_table_text(rows)
        for position in marked:
            fields[position][column] = text
        with pytest.raises(DataError) as raised:
            _parse_fields(fields)
        assert f"rates.csv: row {min(marked) + 1}: " in str(raised.value)
        assert message in str(raised.value)


class TestMethodologyNotes:
    def test_notes_in_report_json(self, tmp_path):
        paths = emit_report(sample_report(), tmp_path, tag="n")
        doc = json.loads(paths["report"].read_text())
        assert NOTE_MILEAGE_SCALE in doc["methodology_notes"]
        assert NOTE_PHOENIX_FATAL in doc["methodology_notes"]

    def test_note_content_anchors(self):
        assert "4.77x" in NOTE_MILEAGE_SCALE
        assert "target_power_miles" in NOTE_MILEAGE_SCALE
        assert "21-75 million" in NOTE_MILEAGE_SCALE
        assert "5.4 per billion" in NOTE_PHOENIX_FATAL
        assert len(METHODOLOGY_NOTES) == 2


# Free text that the csv module must quote or keep as it is: separators,
# quotes, surrounding spaces (the name keeps them; state and counties are
# stripped) and non-ASCII text.
ODD_AREAS = (
    GeoArea("Dallas, Fort Worth", "TX", frozenset({"DALLAS", "TARRANT"})),
    GeoArea('The "Hub"', 'M"A', frozenset({"SUFFOLK", 'NORFOLK "SOUTH"'})),
    GeoArea("  padded  ", " tx ", frozenset({" bexar ", "SAN, DIEGO"})),
    GeoArea("São Paulo – Zürich", "ÑY", frozenset({"KÖLN", "ÅRE"})),
)


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _expected_rate_rows(cells):
    rows = []
    for cell in sorted(cells, key=lambda c: (
        c.geo.name, LABEL[c.road], OUTCOME_RANK[c.outcome],
        LABEL[c.crash_type] if c.crash_type else "",
    )):
        low, high = poisson_ci(cell.count, cell.vmt_miles)
        count = str(int(cell.count)) if float(cell.count).is_integer() else f"{cell.count:.3f}"
        rows.append([
            cell.geo.name, cell.geo.state, ";".join(sorted(cell.geo.counties)),
            LABEL[cell.road], LABEL[cell.outcome],
            LABEL[cell.crash_type] if cell.crash_type else "",
            repr(cell.count), repr(cell.vmt_miles), repr(cell.rate_ipmm),
            repr(low), repr(high), f"{count} ({format_rate(cell.rate_ipmm)})",
        ])
    return rows


class TestCsvWriting:
    """The tables are written line by line; each must be the bytes that
    ``csv.writer(lineterminator="\\n")`` writes for the same rows."""

    def odd_report(self) -> BenchmarkReport:
        cells, distributions, grid = [], [], []
        for n, area in enumerate(ODD_AREAS):
            vmt = 1e8 * (n + 1)
            for road in RoadClass:
                for outcome in (OutcomeLevel.POLICE_REPORTED, OutcomeLevel.FATAL):
                    cells.append(RateCell(area, road, outcome, 3.0 * n + 0.25 * n, vmt))
            cells.append(RateCell(area, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED,
                                  2.0, vmt, crash_type=CrashType.SINGLE_VEHICLE))
            distributions.append((area, RoadClass.FREEWAY, OutcomeLevel.POLICE_REPORTED,
                                  {CrashType.SINGLE_VEHICLE: 0.75, CrashType.PEDESTRIAN: 0.25}))
            for effect in (1.5, 0.5):
                grid.append((area.name, "SurfaceStreet", "Fatal", effect,
                             1e6 * effect, 3.0 / effect, 4e6 * effect))
        return BenchmarkReport(metadata={}, cells=cells, distributions=distributions,
                               power_grid=grid)

    @staticmethod
    def expected_tables(report: BenchmarkReport) -> dict[str, bytes]:
        """The bytes of each table as ``csv.writer`` writes its rows."""
        severity = [c for c in report.cells if c.crash_type is None]
        typed = [c for c in report.cells if c.crash_type is not None]
        distribution = [
            [geo.name, LABEL[road], LABEL[outcome], LABEL[ctype], repr(fractions[ctype])]
            for geo, road, outcome, fractions in sorted(
                report.distributions, key=lambda d: (d[0].name, LABEL[d[1]], OUTCOME_RANK[d[2]])
            )
            for ctype in sorted(fractions, key=LABEL.__getitem__)
        ]
        grid = [
            [geo, road, outcome, *map(repr, figures)]
            for geo, road, outcome, *figures in sorted(report.power_grid)
        ]
        expected = {
            "rates": _csv_bytes(RATE_COLUMNS, _expected_rate_rows(severity)),
            "typed_rates": _csv_bytes(RATE_COLUMNS, _expected_rate_rows(typed)),
            "distribution": _csv_bytes(DISTRIBUTION_COLUMNS, distribution),
            "power_grid": _csv_bytes(POWER_GRID_COLUMNS, grid),
        }
        return expected

    def test_same_bytes_as_csv_writer(self, tmp_path):
        report = self.odd_report()
        paths = emit_report(report, tmp_path, tag="odd")
        expected = self.expected_tables(report)
        assert {name: paths[name].read_bytes() for name in expected} == expected
        assert b'"Dallas, Fort Worth"' in expected["rates"]  # quoting is exercised

    def test_equal_figures_with_other_reprs_written_as_their_own(self, tmp_path):
        # 0.0 and -0.0, and 2 and 2.0, are equal keys whose reprs differ.
        # Every column whose figures may be formatted once per distinct
        # value (count, VMT, type fraction, effect ratio, expected ADS
        # crashes) holds both of each twin, in both orders; none may take
        # the other's text.
        cells, distributions, grid = [], [], []
        for n, geo in enumerate(ODD_AREAS[:2]):
            twins = [(2.0, 2), (0.0, -0.0), (1e8, 100_000_000)]
            if n:
                twins = [pair[::-1] for pair in twins]
            counts, zeros, vmts = twins
            for road, vmt in zip(RoadClass, vmts):
                for crash_type in (None, CrashType.SINGLE_VEHICLE):
                    for outcome, count in zip(OutcomeLevel, (*counts, *zeros, 2.0)):
                        cells.append(RateCell(geo, road, outcome, count, vmt, crash_type))
            for outcome, (first, second) in zip(OutcomeLevel, (counts, zeros)):
                fractions = {CrashType.PEDESTRIAN: first, CrashType.SINGLE_VEHICLE: second}
                distributions.append((geo, RoadClass.FREEWAY, outcome, fractions))
                grid += [
                    (geo.name, "Freeway", LABEL[outcome], effect, 1e6, expected, 4e6)
                    for effect in counts
                    for expected in (first, second, 3.0)
                ]
        report = BenchmarkReport(metadata={}, cells=cells, distributions=distributions,
                                 power_grid=grid)
        paths = emit_report(report, tmp_path, tag="twins")
        expected = self.expected_tables(report)
        assert {name: paths[name].read_bytes() for name in expected} == expected
        for name in ("rates", "typed_rates"):
            for count in (b"2.0", b"2"):
                for vmt in (b"100000000.0", b"100000000"):
                    assert b",%s,%s," % (count, vmt) in expected[name]
            assert b",0.0,1" in expected[name] and b",-0.0,1" in expected[name]
        for figure in (b"2.0", b"2", b"0.0", b"-0.0"):
            assert b",%s\n" % figure in expected["distribution"]
            assert b",%s,4000000.0\n" % figure in expected["power_grid"]
        for effect in (b"2.0", b"2"):
            assert b",%s,1000000.0,3.0," % effect in expected["power_grid"]

    def test_labels_and_headers_need_no_quoting(self):
        texts = [*LABEL.values(), *RATE_COLUMNS, *DISTRIBUTION_COLUMNS, *POWER_GRID_COLUMNS]
        for text in texts:
            assert text
            assert _csv_bytes((text, "x"), []) == f"{text},x\n".encode()
