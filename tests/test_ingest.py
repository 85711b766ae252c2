import csv
import io
import math
import random
import re
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from crashbench import ingest
from crashbench.ingest import (
    FileCachedGeocoder,
    GeocodeRequest,
    GeocodeTransportError,
    InconsistentVmtError,
    StubGeocoder,
    geocode_missing,
    load_ads_table,
    load_crash_table,
    load_share_table,
    load_vmt_table,
)
from crashbench.mapping import (
    UNIT_FIELDS,
    UNIT_REQUIRED,
    AbsentColumnWarning,
    Column,
    MappingConfig,
    float_or_none,
)
from crashbench.model import (
    ConfigError,
    CrashRecord,
    DataError,
    FunctionalClass,
    InvalidOptionError,
    JunctionRelation,
    KabcoLevel,
    LatLon,
    MannerOfCollision,
    VehicleClass,
    VmtRecord,
    valid_coordinate,
)
from crashbench.pipeline import resolve_mapping
from crashbench.taxonomy import OutcomeLevel, classify_outcome

import ingest_oracle
from corpus import (
    BODY_AND_DESC,
    INJURY_CODE,
    JUNCTION_CODE,
    MANNER_CODE,
    SEVERITY_CODE,
    make_corpus,
    tiled_table,
)
from test_model import make_record

CRASH_HEADER = (
    "Crash_ID,Crash_Year,Cnty_Nm,Latitude,Longitude,Rpt_Street_Name,"
    "Rpt_Sec_Street_Name,Crash_Sev_ID,Intrsct_Relat_ID,FHE_Collsn_ID"
)
UNIT_HEADER = (
    "Crash_ID,Unit_Nbr,Veh_Body_Styl_ID,Veh_Parked_Fl,Unit_Desc_ID,Cmv_GVWR,"
    "Cmv_Fiveton_Fl,Gvwr_Class,Veh_Trvl_Dir_ID,First_Contact_Evt_Num"
)
PERSON_HEADER = "Crash_ID,Unit_Nbr,Prsn_Injry_Sev_ID,Prsn_Airbag_ID"


def contract_breaches(record: CrashRecord) -> list[str]:
    """Each rule of the crash-record contract that ``record`` breaks,
    written out independently of the loader: ingest emits only records
    for which this is empty."""
    breaches = []
    if record.location is not None:
        lat, lon = record.location
        if not (math.isfinite(lat) and math.isfinite(lon)):
            breaches.append("non-finite location")
        elif abs(lat) > 90.0 or abs(lon) > 180.0:
            breaches.append("location out of range")
    unit_ids = [unit.unit_id for unit in record.units]
    if len(unit_ids) != len(set(unit_ids)):
        breaches.append("repeated unit_id")
    for unit in record.units:
        if unit.in_transport and unit.vehicle_class in (
            VehicleClass.PEDESTRIAN, VehicleClass.CYCLIST
        ):
            breaches.append(f"unit {unit.unit_id}: non-motorist in transport")
        if unit.first_contact_event_index is not None and unit.first_contact_event_index < 1:
            breaches.append(f"unit {unit.unit_id}: ordinal below 1")
    return breaches


# Every packaged template, found by listing the package's configs/.
BUILTIN_MAPPINGS = tuple(
    sorted(
        path.name[: -len(".ini")]
        for path in resources.files("crashbench").joinpath("configs").iterdir()
        if path.name.endswith(".ini")
    )
)
# The templates that map a VMT table.
VMT_TEMPLATES = tuple(
    name
    for name in BUILTIN_MAPPINGS
    if "vmt_miles" in resolve_mapping(f"builtin:{name}", Path(".")).columns
)


@pytest.fixture(scope="module")
def builtin_mappings() -> dict[str, MappingConfig]:
    return {name: resolve_mapping(f"builtin:{name}", Path(".")) for name in BUILTIN_MAPPINGS}


@pytest.fixture(scope="module")
def tx_mapping() -> MappingConfig:
    from pathlib import Path

    return resolve_mapping("builtin:tx", Path("."))


@pytest.fixture(scope="module")
def tx_vmt_mapping() -> MappingConfig:
    from pathlib import Path

    return resolve_mapping("builtin:tx_vmt", Path("."))


class TestMappingConfig:
    def test_builtin_templates_load(self, builtin_mappings):
        assert len(BUILTIN_MAPPINGS) == 9
        for name, config in builtin_mappings.items():
            assert config.name == name
            # Each template maps a crash table or a VMT table.
            assert ("crash_id" in config.columns) != ("vmt_miles" in config.columns), name
        assert {name for name in BUILTIN_MAPPINGS if name.endswith("_vmt")} <= set(VMT_TEMPLATES)

    def test_unknown_builtin_rejected(self):
        from pathlib import Path

        with pytest.raises(ConfigError):
            resolve_mapping("builtin:nope", Path("."))

    def test_dictionary_requires_fallback(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[source]\nname = bad\n[columns]\ncrash_id = ID\n"
            "[dictionary.worst_injury]\nK = K\n"
        )
        with pytest.raises(ConfigError):
            MappingConfig.load(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "[source]\nname = bad\n[columns]\ncrash_id = ID\ncrash_id = OTHER\n",
            "[source]\nname = bad\n[source]\nname = again\n",
            "name = bad\n",
        ],
    )
    def test_ini_syntax_errors_are_config_errors(self, tmp_path, text):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match=r"(?s)malformed mapping config: .*'.*bad\.ini'"):
            MappingConfig.load(bad)

    @pytest.mark.parametrize(
        "section,entry,token",
        [
            ("dictionary.junction_relation", "1 = Intersecton", "Intersecton"),
            ("dictionary.unit.vehicle_class", "P2 = Passengr", "Passengr"),
            ("dictionary.worst_injury", "* = unknown", "unknown"),
            ("dictionary.person.airbag", "1 = deployed", "deployed"),
            ("derive.manner_of_collision", "rule.1 = Sideswipe when X == 1", "Sideswipe"),
            ("derive.unit.in_transport", "rule.1 = parked when X in Y", "parked"),
            ("columns", "junction_relation = const:Intersecton", "Intersecton"),
        ],
    )
    def test_token_outside_vocabulary_fails_load(self, tmp_path, section, entry, token):
        # Such a typo used to move every crash it matched to Unknown, uncounted.
        bad = tmp_path / "bad.ini"
        fallback = "* = Unknown\n" if section.startswith("dictionary.") and "*" not in entry else ""
        bad.write_text(f"[source]\nname = bad\n[{section}]\n{entry}\n{fallback}")
        message = rf"bad\.ini: \[{re.escape(section)}\] '{token}' is not a .* token"
        with pytest.raises(ConfigError, match=message):
            MappingConfig.load(bad)

    def test_vocabulary_tokens_load_in_their_case_rules(self, tmp_path):
        good = tmp_path / "good.ini"
        good.write_text(
            "[source]\nname = good\n"
            "[dictionary.unit.in_transport]\nP = No\n* = TRUE\n"
            "[derive.person.airbag]\nrule.1 = Yes when X in 1\n"
            "[dictionary.worst_injury]\n9 = U\n* = Unknown\n"
            "[columns]\nunit.airbag = const:no\nmanner_of_collision = const:3\n"
            "[dictionary.manner_of_collision]\n3 = Other\n* = Unknown\n"
        )
        config = MappingConfig.load(good)
        assert config.resolve("person.airbag", {"X": "1"}) == (True, False)
        assert config.resolve("unit.airbag", {}) == (False, False)
        assert config.resolve("manner_of_collision", {}) == (MannerOfCollision.OTHER, False)

    def test_derive_rule_syntax_errors(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            "[source]\nname = bad\n[derive.unit.vehicle_class]\nrule.1 = Passenger whenever X in Y\n"
        )
        with pytest.raises(ConfigError):
            MappingConfig.load(bad)

    def test_required_fields_enforced(self, tmp_path):
        partial = tmp_path / "partial.ini"
        partial.write_text("[source]\nname = partial\n[columns]\ncrash_id = ID\n")
        config = MappingConfig.load(partial)
        with pytest.raises(ConfigError):
            config.validate(("crash_id", "state", "county", "year"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[columns]\nunit.vehical_class = Veh\n",
             r"\[columns\] unit\.vehical_class: unknown field; "
             r"did you mean 'unit\.vehicle_class'"),
            ("[dictionary.unit.vehical_class]\n* = Unknown\n",
             r"\[dictionary\.unit\.vehical_class\] unit\.vehical_class: unknown field"),
            ("[derive.person.injry]\nrule.1 = K when X in 1\n",
             r"\[derive\.person\.injry\] person\.injry: unknown field"),
            ("[colums]\ncrash_id = ID\n", r"\[colums\]: unknown section; did you mean 'columns'"),
            ("[dictionary]\n* = Unknown\n", r"\[dictionary\]: unknown section"),
            ("[DEFAULT]\ncrash_id = ID\n", r"\[DEFAULT\]: unknown section"),
        ],
    )
    def test_unknown_field_or_section_fails_load(self, tmp_path, text, message):
        # A misspelt field used to be dropped, leaving its column unread.
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[source]\nname = bad\n{text}")
        with pytest.raises(ConfigError, match=rf"bad\.ini: {message}"):
            MappingConfig.load(bad)

    @pytest.mark.parametrize(
        "entry,error,message",
        [
            ("delimter = ,", ConfigError, "delimter: unknown option; did you mean 'delimiter'"),
            *(
                (f"vmt_scale = {raw}", InvalidOptionError,
                 f"vmt_scale must be a finite number > 0, got '{raw}'")
                for raw in ("abc", "0", "-1e6", "nan", "inf")
            ),
        ],
    )
    def test_bad_source_option_fails_load(self, tmp_path, entry, error, message):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[source]\nname = bad\n{entry}\n")
        with pytest.raises(error, match=rf"bad\.ini: \[source\] {re.escape(message)}"):
            MappingConfig.load(bad)


def _raw_values(config: MappingConfig) -> dict[str, list[str]]:
    """Each source column the mapping reads, with the codes it names for it."""
    values: dict[str, set[str]] = {}
    for fname, binding in config.columns.items():
        if isinstance(binding, Column):
            codes = values.setdefault(binding.name, set())
            codes.update(k for k in config.dictionaries.get(fname, {}) if k != "*")
    for rules in config.derives.values():
        for rule in rules:
            for cond in rule.conditions:
                values.setdefault(cond.column, set()).update(cond.values)
    return {column: sorted(codes) for column, codes in values.items()}


def _raw_value(codes: list[str]):
    """A code as a source might write it (any case, padded), or junk."""
    junk = st.sampled_from(["", " ", "Y", "N", "0", "3", "4", "9999", "10000", "x"]) | st.text(
        alphabet="0123456789 .-abYN", max_size=5
    )
    if not codes:
        return junk
    written = st.tuples(st.sampled_from(codes), st.sampled_from(["", " "]), st.booleans()).map(
        lambda t: t[1] + (t[0].lower() if t[2] else t[0]) + t[1]
    )
    return written | junk


@pytest.mark.filterwarnings("ignore::crashbench.mapping.AbsentColumnWarning")
@pytest.mark.parametrize("name", BUILTIN_MAPPINGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_resolvers_match_resolve(builtin_mappings, name, data):
    config = builtin_mappings[name]
    raw = _raw_values(config)
    # Headers may lack columns, repeat them or carry extras.  Every column
    # but Extra is read, so repeating one is a data error.
    header = data.draw(st.lists(st.sampled_from(sorted(raw) + ["Extra"]), max_size=len(raw) + 2))
    fields = sorted(set(config.columns) | set(config.derives))
    repeated = sorted({column for column in header if column != "Extra" and header.count(column) > 1})
    if repeated:
        with pytest.raises(DataError, match="header repeats column"):
            config.compile(header, fields)
        return
    compiled = config.compile(header, fields)
    rows = st.tuples(*(_raw_value(raw.get(column, [])) for column in header))
    for row in data.draw(st.lists(rows, min_size=1, max_size=6)):
        row = list(row)
        as_dict = dict(zip(header, row))
        *values, degraded = compiled(row)
        for fname, value in zip(fields, values, strict=True):
            assert (value, fname in degraded) == config.resolve(fname, as_dict), fname


@pytest.mark.filterwarnings("ignore::crashbench.mapping.AbsentColumnWarning")
@pytest.mark.parametrize("name", BUILTIN_MAPPINGS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fields_decided_apart_match_resolve(builtin_mappings, name, data):
    # Each field decided apart, whatever its binding, gives what its
    # function makes of its resolve value, and its columns leave the
    # decision memo's key unless a decided field reads them too.
    config = builtin_mappings[name]
    raw = _raw_values(config)
    header = data.draw(st.lists(st.sampled_from(sorted(raw) + ["Extra"]), unique=True))
    fields = sorted(set(config.columns) | set(config.derives))
    apart = data.draw(st.lists(st.sampled_from(fields), unique=True, max_size=3))
    decided = [f for f in fields if f not in apart]
    compiled = config.compile(
        header, (), (), "table", decided, lambda *values: values, {f: repr for f in apart}
    )
    rows = st.tuples(*(_raw_value(raw.get(column, [])) for column in header))
    for row in data.draw(st.lists(rows, min_size=1, max_size=6)):
        row = list(row)
        as_dict = dict(zip(header, row))
        *apart_values, (*values, degraded) = compiled(row)
        assert apart_values == [repr(config.resolve(f, as_dict)[0]) for f in apart]
        for fname, value in zip(decided, values, strict=True):
            assert (value, fname in degraded) == config.resolve(fname, as_dict), fname
        # The key holds the decided fields' columns only: a row that differs
        # in no decided field's column looks up the same decision.
        read = {column for fname in decided for column in _columns_of(config, fname)}
        blanked = [value if column in read else "" for column, value in zip(header, row)]
        assert compiled.key_of(blanked) == compiled.key_of(row)


def _columns_of(config: MappingConfig, fname: str) -> list[str]:
    """The columns ``fname`` reads: its bound column and its derive rules'."""
    binding = config.columns.get(fname)
    read = [cond.column for rule in config.derives.get(fname, ()) for cond in rule.conditions]
    return read + ([binding.name] if isinstance(binding, Column) else [])


# Coordinate fields as a source might write them: numbers in and out of
# range, padded, non-finite, with underscores or non-ASCII digits, or junk.
_COORDINATE_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(-200, 200).map(lambda v: f" {v!r}\xa0"),
    st.sampled_from(
        ["", " ", "nan", "-inf", "1_0", "\u0663\u0660", "30.", ".5", "+30", "1e1", "0x1"]
    ),
    st.text(alphabet="0123456789.-+e_ \xa0\u0663", max_size=6),
)


class TestCrashLoading:
    def test_fixture_tables_load(self, tx_mapping, fixtures_dir):
        records, report = load_crash_table(
            fixtures_dir / "tx_crashes.csv",
            tx_mapping,
            units_source=fixtures_dir / "tx_units.csv",
            persons_source=fixtures_dir / "tx_persons.csv",
        )
        assert report.rows_read["crash"] == 35
        assert report.records_emitted == 33
        assert len(report.skipped) == 2
        assert report.conserves_rows()
        assert report.missing_location == 2

        by_id = {r.crash_id: r for r in records}
        c001 = by_id["C001"]
        assert c001.worst_injury is KabcoLevel.B  # reduced from person rows
        assert c001.airbag_deployed is True
        assert by_id["C002"].airbag_deployed is False

        c005 = by_id["C005"]
        assert [(u.unit_id, u.first_contact_event_index) for u in c005.units] == [
            (1, 1), (2, 1), (3, 2)
        ]

        c007 = by_id["C007"]
        assert c007.units[0].vehicle_class is VehicleClass.UNKNOWN

        c008 = by_id["C008"]
        assert c008.units[1].in_transport is False  # parked flag set

        c009 = by_id["C009"]
        assert c009.units[1].vehicle_class is VehicleClass.HEAVY_VEHICLE  # GVWR override

        c010 = by_id["C010"]
        assert c010.units[1].vehicle_class is VehicleClass.PEDESTRIAN
        assert c010.units[1].in_transport is False

    def test_parked_flag_unset_means_in_transport(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1"]
        records, _ = load_crash_table(crash, tx_mapping, units_source=units)
        unit = records[0].units[0]
        assert unit.vehicle_class is VehicleClass.PASSENGER
        assert unit.in_transport is True

    def test_unmapped_body_style_degrades_to_unknown(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "X1,1,WEIRD,N,1,,,1,1,1"]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert records[0].units[0].vehicle_class is VehicleClass.UNKNOWN
        assert report.unknown_counts["unit.vehicle_class"] == 1

    def test_missing_coordinate_columns_leave_location_absent(self, tmp_path):
        config_path = tmp_path / "mini.ini"
        config_path.write_text(
            "[source]\nname = mini\n"
            "[columns]\ncrash_id = ID\nstate = const:TX\ncounty = County\nyear = Year\n"
        )
        config = MappingConfig.load(config_path)
        records, report = load_crash_table(
            ["ID,County,Year", "A,Travis,2023"], config
        )
        assert records[0].location is None
        assert report.missing_location == 1

    @pytest.mark.parametrize(
        "lat,lon",
        [("nan", "-97.7"), ("30.1", "inf"), ("-inf", "-97.7"), ("NaN", "nan"),
         ("3_0.25", "-97.7"), ("30.1", "-\u0669\u0667")],
    )
    def test_non_finite_coordinates_leave_location_absent(self, tx_mapping, lat, lon):
        crash = [CRASH_HEADER, f"X1,2023,Travis,{lat},{lon},MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1"]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert records[0].location is None
        assert report.missing_location == 1
        assert contract_breaches(records[0]) == []

    @settings(max_examples=200, deadline=None)
    @given(lat=_COORDINATE_TEXT, lon=_COORDINATE_TEXT)
    def test_coordinates_read_by_the_number_rule(self, tx_mapping, lat, lon):
        """The crash reader's coordinates are ``float_or_none`` of each
        stripped field, kept when ``valid_coordinate`` accepts the pair."""
        text = io.StringIO(newline="")
        row = ["X1", "2023", "Travis", lat, lon, "MAIN ST", "", "N", "3", "24"]
        csv.writer(text, lineterminator="\n").writerows([CRASH_HEADER.split(","), row])
        text.seek(0)
        (record,), report = load_crash_table(text, tx_mapping)
        numbers = float_or_none(lat.strip()), float_or_none(lon.strip())
        valid = None not in numbers and valid_coordinate(*numbers)
        assert repr(record.location) == repr(LatLon(*numbers) if valid else None)
        assert report.missing_location == (not valid)

    def test_malformed_header_is_hard_error(self, tx_mapping):
        with pytest.raises(DataError):
            load_crash_table(["Nope,Header", "x,y"], tx_mapping)
        with pytest.raises(DataError):
            load_crash_table([], tx_mapping)

    def test_determinism(self, tx_mapping, fixtures_dir):
        load = lambda: load_crash_table(
            fixtures_dir / "tx_crashes.csv",
            tx_mapping,
            units_source=fixtures_dir / "tx_units.csv",
            persons_source=fixtures_dir / "tx_persons.csv",
        )
        records_a, report_a = load()
        records_b, report_b = load()
        assert records_a == records_b
        assert report_a.unknown_counts == report_b.unknown_counts
        assert [s.reason for s in report_a.skipped] == [s.reason for s in report_b.skipped]

    def test_emission_order_matches_input_order(self, tx_mapping, fixtures_dir):
        records, _ = load_crash_table(fixtures_dir / "tx_crashes.csv", tx_mapping)
        ids = [r.crash_id for r in records]
        assert ids[:3] == ["C001", "C002", "C003"]
        assert ids == sorted(ids, key=ids.index)  # stable, no reordering


def _mini_mapping(tmp_path, delimiter: str = ",") -> MappingConfig:
    config_path = tmp_path / "mini.ini"
    config_path.write_text(
        f"[source]\nname = mini\ndelimiter = {delimiter}\n"
        "[columns]\ncrash_id = ID\nstate = const:TX\ncounty = County\nyear = Year\n"
    )
    return MappingConfig.load(config_path)


class TestLoaderEdges:
    """Reader behaviour that any rewrite of the loader must keep."""

    def test_blank_lines_skipped_without_advancing_row_numbers(self, tx_mapping):
        crash = [CRASH_HEADER, "", "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24", "",
                 "X2,20x3,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "", "X1,,P4,,1,,,1,1,1", "", "X1,2,P4,,1,,,1,1,1"]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert report.rows_read == {"crash": 2, "unit": 2}
        assert [(s.table, s.row_number) for s in report.skipped] == [
            ("unit", 1), ("crash", 2),
        ]
        assert [u.unit_id for u in records[0].units] == [2]

    def test_short_rows_read_missing_trailing_fields_as_absent(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST"]
        units = [UNIT_HEADER, "X1,1,P4"]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        record = records[0]
        assert record.secondary_road_name is None
        assert record.worst_injury is KabcoLevel.UNKNOWN
        assert record.junction_relation is JunctionRelation.UNKNOWN
        assert record.manner_of_collision is MannerOfCollision.UNKNOWN
        unit = record.units[0]
        assert unit.vehicle_class is VehicleClass.PASSENGER
        assert unit.in_transport is True  # parked flag missing
        assert unit.first_contact_event_index is None
        assert report.unknown_counts == {
            "worst_injury": 1, "junction_relation": 1, "manner_of_collision": 1,
        }

    def test_repeated_header_column_is_data_error_when_read(self, tmp_path):
        with pytest.raises(
            DataError,
            match=r"mini/crash: header repeats column 'County' \(positions 2 and 4\), "
                  r"which county reads",
        ):
            load_crash_table(["ID,County,Year,County", "A,Travis,2023,Hays"],
                             _mini_mapping(tmp_path))
        # A repeated column that nothing reads may stay.
        records, _ = load_crash_table(
            ["ID,Note,County,Year,Note", "A,x,Travis,2023,y"], _mini_mapping(tmp_path)
        )
        assert records[0].county == "TRAVIS"

    def test_stream_and_generator_sources_match_paths(self, tx_mapping, fixtures_dir):
        paths = [fixtures_dir / n for n in ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv")]
        from_paths = load_crash_table(paths[0], tx_mapping, paths[1], paths[2])
        texts = [path.read_text(encoding="utf-8") for path in paths]
        from_streams = load_crash_table(
            io.StringIO(texts[0], newline=""), tx_mapping,
            io.StringIO(texts[1], newline=""), io.StringIO(texts[2], newline=""),
        )
        from_generators = load_crash_table(
            (line for line in texts[0].splitlines()), tx_mapping,
            (line for line in texts[1].splitlines()),
            (line for line in texts[2].splitlines()),
        )
        for records, report in (from_streams, from_generators):
            assert records == from_paths[0]
            assert report == from_paths[1]

    @pytest.mark.parametrize("marked", [0, 1, 2])
    def test_byte_order_mark_is_not_part_of_the_header(
        self, tx_mapping, fixtures_dir, tmp_path, marked
    ):
        # As a spreadsheet exports UTF-8: a BOM before the header.
        paths = [fixtures_dir / n for n in ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv")]
        plain = load_crash_table(paths[0], tx_mapping, paths[1], paths[2])
        paths[marked] = tmp_path / paths[marked].name
        paths[marked].write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / paths[marked].name).read_bytes())
        assert load_crash_table(paths[0], tx_mapping, paths[1], paths[2]) == plain

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_line_ends_and_quoted_line_breaks_read_as_the_csv_module_does(
        self, tx_mapping, tmp_path, line_end
    ):
        crash = [CRASH_HEADER] + [
            f'X{i},2023,Travis,30.1,-97.7,"MAIN{brk}ST",,N,3,24'
            for i, brk in enumerate(("\r", "\n", "\r\n", " "))
        ]
        text = line_end.join(crash) + line_end
        path = tmp_path / "crashes.csv"
        path.write_bytes(text.encode("utf-8"))
        records, report = load_crash_table(path, tx_mapping)
        expected, expected_report = load_crash_table(io.StringIO(text, newline=""), tx_mapping)
        assert records == expected and len(records) == 4
        assert report.rows_read == expected_report.rows_read == {"crash": 4}

    @pytest.mark.parametrize("at,where", [(0, "header"), (2, "row 2")])
    def test_field_past_the_csv_limit_is_data_error(self, tx_mapping, at, where):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
                 "X2,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        crash[at] = crash[at].replace("MAIN ST", "M" * 200_000).replace("Cnty_Nm", "C" * 200_000)
        with pytest.raises(DataError, match=rf"{where}: field larger than field limit \(131072\)"):
            load_crash_table(crash, tx_mapping)

    def test_optional_bound_column_may_be_missing_from_header(self, tx_mapping):
        crash = [
            "Crash_ID,Crash_Year,Cnty_Nm,Latitude,Longitude,Rpt_Street_Name",
            "X1,2023,Travis,30.1,-97.7,MAIN ST",
        ]
        records, report = load_crash_table(crash, tx_mapping)
        assert records[0].secondary_road_name is None
        assert records[0].junction_relation is JunctionRelation.UNKNOWN
        assert report.unknown_counts["junction_relation"] == 1

    def test_derive_condition_column_may_be_missing_from_header(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = ["Crash_ID,Unit_Nbr,Veh_Body_Styl_ID", "X1,1,P4", "X1,2,MC"]
        records, _ = load_crash_table(crash, tx_mapping, units_source=units)
        classes = [(u.vehicle_class, u.in_transport) for u in records[0].units]
        assert classes == [
            (VehicleClass.PASSENGER, True),  # 'Veh_Parked_Fl missing' rule fires
            (VehicleClass.MOTORCYCLE, True),
        ]

    def test_derive_comparison_reads_numbers_as_ingest_does(self, tx_mapping):
        # float() read an underscore, Arabic-Indic digits and inf as numbers
        # of at least 10000, so each made a HeavyVehicle.
        values = ["1_0000", "\u0661\u0660\u0660\u0660\u0660", "inf", "12000", "10000.0"]
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER] + [f"X1,{i},P4,,1,{v},,1,1,1" for i, v in enumerate(values, 1)]
        (record,), _ = load_crash_table(crash, tx_mapping, units_source=units)
        assert [u.vehicle_class for u in record.units] == (
            [VehicleClass.PASSENGER] * 3 + [VehicleClass.HEAVY_VEHICLE] * 2
        )

    def test_ca_county_dictionary_applies(self):
        from pathlib import Path

        ca = resolve_mapping("builtin:ca", Path("."))
        crash = [
            "CASE_ID,ACCIDENT_YEAR,CNTY_CITY_LOC,PRIMARY_RD",
            "1,2023,1942,US-101",
            "2,2023,4300,I-280",
            "3,2023,9999,MAIN ST",
        ]
        records, _ = load_crash_table(crash, ca)
        assert [(r.state, r.county) for r in records] == [
            ("CA", "SAN FRANCISCO"), ("CA", "SANTA CLARA"), ("CA", "UNKNOWN"),
        ]


class TestRowAccounting:
    """Every crash, unit and person row is either used or reported."""

    def test_duplicate_crash_id_keeps_first_copy(self, tx_mapping):
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X2,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X1,2023,Hays,30.1,-97.7,ELM ST,,K,3,24",
        ]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1", "X1,2,P4,,1,,,1,1,1"]
        persons = [PERSON_HEADER, "X1,1,5,1"]
        records, report = load_crash_table(
            crash, tx_mapping, units_source=units, persons_source=persons
        )
        assert [r.crash_id for r in records] == ["X1", "X2"]
        first = records[0]
        assert (first.county, first.primary_road_name) == ("TRAVIS", "MAIN ST")
        assert [u.unit_id for u in first.units] == [1, 2]
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("crash", 3, "duplicate crash_id"),
        ]
        assert all(report.conserves_rows(t) for t in ("crash", "unit", "person"))

    def test_rows_wider_than_the_header_are_skipped(self, tx_mapping):
        # An unquoted comma in a street name used to shift every later
        # field: severity, junction and manner all fell to Unknown.
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST, EXTRA,,N,3,24",
            "X2,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X3,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24,,",
        ]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1", "X2,1,P4,,1,,,1,1,1,9",
                 "X2,2,P4,,1,,,1,1,1"]
        persons = [PERSON_HEADER, "X2,1,5,1", "X2,2,5,1,1"]
        records, report = load_crash_table(
            crash, tx_mapping, units_source=units, persons_source=persons
        )
        assert [(r.crash_id, [u.unit_id for u in r.units]) for r in records] == [("X2", [2])]
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 1, "crash row skipped"),
            ("unit", 2, "11 fields, header has 10"),
            ("person", 2, "5 fields, header has 4"),
            ("crash", 1, "11 fields, header has 10"),
            ("crash", 3, "12 fields, header has 10"),
        ]
        # A wide last row is read and skipped like any other.
        assert report.rows_read == {"crash": 3, "unit": 3, "person": 2}
        assert all(report.conserves_rows(t) for t in ("crash", "unit", "person"))

    def test_duplicate_unit_row_keeps_first_copy(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [
            UNIT_HEADER,
            "X1,1,P4,,1,,,1,1,1",
            "X1,2,P4,,1,,,1,1,1",
            "X1,1,SV,Y,1,,,1,1,1",
        ]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert [(u.unit_id, u.vehicle_class, u.in_transport) for u in records[0].units] == [
            (1, VehicleClass.PASSENGER, True),
            (2, VehicleClass.PASSENGER, True),
        ]
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 3, "duplicate unit_id"),
        ]
        assert report.rows_read["unit"] == 3
        assert all(report.conserves_rows(t) for t in ("crash", "unit"))

    # A non-integral year used to be truncated: 2023.9 read as 2023; and
    # int() reads an underscore or non-ASCII digits as a number.
    @pytest.mark.parametrize(
        "year",
        ["inf", "1e400", "nan", "2023.9", "2022.5", "2023.0000001", "2_023",
         "\u0662\u0660\u0662\u0663"],
    )
    def test_non_finite_year_is_skipped_as_unparseable(self, tx_mapping, year):
        crash = [CRASH_HEADER, f"X1,{year},Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        records, report = load_crash_table(crash, tx_mapping)
        assert records == []
        assert [s.reason for s in report.skipped] == [f"unparseable year {year!r}"]

    def test_integral_numbers_read_as_integers(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023.0,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "X1,1.0,P4,,1,,,1,1,2.0", "X1,2,P4,,1,,,1,1,1"]
        persons = [PERSON_HEADER, "X1,2.0,5,2"]
        records, report = load_crash_table(
            crash, tx_mapping, units_source=units, persons_source=persons
        )
        (record,) = records
        assert record.year == 2023 and type(record.year) is int
        assert [(u.unit_id, u.first_contact_event_index) for u in record.units] == [
            (1, 2), (2, 1),
        ]
        assert record.airbag_deployed is True
        assert report.skipped == []

    def test_non_integral_unit_id_is_skipped_naming_the_value(self, tx_mapping):
        # Truncated, 1.5 would collide with unit 1 as a "duplicate unit_id";
        # read by int(), 1_0 would be unit 10 and an Arabic-Indic 1 unit 1.
        for unit_id in ("1.5", "1_0", "\u0661"):
            crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
            units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1", f"X1,{unit_id},SV,,1,,,1,1,1"]
            persons = [PERSON_HEADER, "X1,1,5,1", f"X1,{unit_id},1,2", "X1,,5,"]
            records, report = load_crash_table(
                crash, tx_mapping, units_source=units, persons_source=persons
            )
            (record,) = records
            assert [(u.unit_id, u.vehicle_class) for u in record.units] == [
                (1, VehicleClass.PASSENGER),
            ]
            assert record.airbag_deployed is False
            assert record.worst_injury is KabcoLevel.O
            assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
                ("unit", 2, f"unparseable unit_id {unit_id!r}"),
                ("person", 2, f"unparseable unit_id {unit_id!r}"),
            ]
            assert all(report.conserves_rows(t) for t in ("crash", "unit", "person"))

    def test_orphan_unit_and_person_rows_are_reported(self, tx_mapping):
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X2,20x3,Travis,30.1,-97.7,MAIN ST,,N,3,24",
        ]
        units = [
            UNIT_HEADER,
            "X2,1,P4,,1,,,1,1,1",
            "X1,1,P4,,1,,,1,1,1",
            "X9,1,WEIRD,,1,,,1,1,1",
            "X1,,P4,,1,,,1,1,1",
        ]
        persons = [PERSON_HEADER, "X9,1,4,1", "X1,1,5,1", "X2,1,4,1"]
        records, report = load_crash_table(
            crash, tx_mapping, units_source=units, persons_source=persons
        )
        assert [u.unit_id for u in records[0].units] == [1]
        assert records[0].worst_injury is KabcoLevel.O
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 1, "crash row skipped"),
            ("unit", 3, "no crash row"),
            ("unit", 4, "missing crash or unit key"),
            ("person", 1, "no crash row"),
            ("person", 3, "crash row skipped"),
            ("crash", 2, "unparseable year '20x3'"),
        ]
        assert report.rows_read == {"crash": 2, "unit": 4, "person": 3}
        assert all(report.conserves_rows(t) for t in ("crash", "unit", "person"))
        assert "unit.vehicle_class" not in report.unknown_counts  # orphan not parsed

    @pytest.mark.parametrize("fname", ["unit.crash_id", "unit.unit_id", "person.crash_id"])
    def test_unbound_key_field_is_config_error(self, tmp_path, fixtures_dir, fname):
        # A units or persons table used to load with every row skipped.
        from importlib import resources

        text = resources.files("crashbench").joinpath("configs", "tx.ini").read_text()
        kept = [line for line in text.splitlines() if not line.startswith(f"{fname} =")]
        assert len(kept) == len(text.splitlines()) - 1
        path = tmp_path / "nokey.ini"
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ConfigError, match=rf"mapping 'tx': required fields unbound: {fname}"):
            load_crash_table(
                fixtures_dir / "tx_crashes.csv",
                MappingConfig.load(path),
                units_source=fixtures_dir / "tx_units.csv",
                persons_source=fixtures_dir / "tx_persons.csv",
            )

    @pytest.mark.parametrize("k", [2, 3])
    def test_tiling_multiplies_every_count(self, tx_mapping, fixtures_dir, k):
        # Ingest decides each distinct coded row once; its counts must
        # still follow the rows, so k copies of the tables count k times.
        names = ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv")

        def counts(tables) -> dict:
            crashes, units, persons = tables
            _, report = load_crash_table(crashes, tx_mapping, units, persons)
            return {
                "rows_read": report.rows_read,
                "rows_attached": report.rows_attached,
                "records_emitted": report.records_emitted,
                "skipped": Counter((s.table, s.reason) for s in report.skipped),
                "unknown_counts": report.unknown_counts,
                "missing_location": report.missing_location,
                "crashes_without_units": report.crashes_without_units,
            }

        once = counts([fixtures_dir / name for name in names])
        assert once["unknown_counts"] and once["skipped"] and once["missing_location"]
        tiled = counts([io.StringIO(tiled_table(fixtures_dir / name, k)) for name in names])
        assert tiled == {
            name: {key: k * n for key, n in count.items()} if isinstance(count, dict)
            else k * count
            for name, count in once.items()
        }


class TestAirbagDeployment:
    """Airbag deployment is a fact of the crash: a record is
    ``airbag_deployed`` when any attached person or unit row flags one."""

    @pytest.mark.parametrize("unit", ["1", "", "7"])
    def test_person_flag_counts_whatever_unit_it_names(self, tx_mapping, unit):
        # A blank unit number, or one with no unit row, used to lose the flag
        # although the person row counted as attached.
        crash = [CRASH_HEADER, "C1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, "C1,1,P4,,1,,,1,1,1"]
        persons = [PERSON_HEADER, f"C1,{unit},2,2"]  # injury B, airbag deployed
        (record,), report = load_crash_table(crash, tx_mapping, units, persons)
        assert record.airbag_deployed is True
        assert OutcomeLevel.ANY_AIRBAG_DEPLOYMENT in classify_outcome(record)
        assert report.skipped == []
        assert report.rows_attached == {"unit": 1, "person": 1}

    def test_any_unit_or_person_flag_counts(self, tmp_path):
        config_path = tmp_path / "bags.ini"
        config_path.write_text(
            "[source]\nname = bags\n"
            "[columns]\ncrash_id = ID\nstate = const:TX\ncounty = County\nyear = Year\n"
            "unit.crash_id = ID\nunit.unit_id = Unit\nunit.airbag = Bag\n"
            "person.crash_id = ID\nperson.unit_id = Unit\nperson.airbag = Bag\n"
        )
        crashes = ["ID,County,Year"] + [f"{c},Travis,2023" for c in "ABCD"]
        units = ["ID,Unit,Bag", "A,1,false", "A,2,true", "B,1,false", "C,1,false", "D,1,"]
        # A unit's false flag no longer hides its person's deployed one.
        persons = ["ID,Unit,Bag", "B,1,true", "C,1,false", "D,1,unknown"]
        records, _ = load_crash_table(crashes, MappingConfig.load(config_path), units, persons)
        assert [(r.crash_id, r.airbag_deployed) for r in records] == [
            ("A", True), ("B", True), ("C", False), ("D", False),
        ]


class TestRecordContract:
    """Ingest decides the crash-record contract where each row is read:
    a row that would break it is skipped, read as absent or counted, so
    every emitted record meets it and no later stage checks it again."""

    def test_fixture_records_meet_contract(self, tx_mapping, fixtures_dir):
        records, report = load_crash_table(
            fixtures_dir / "tx_crashes.csv",
            tx_mapping,
            units_source=fixtures_dir / "tx_units.csv",
            persons_source=fixtures_dir / "tx_persons.csv",
        )
        assert [contract_breaches(r) for r in records] == [[]] * len(records)
        assert report.crashes_without_units == 0

    @pytest.mark.parametrize("lat", ["91.0", "-90.5", "1e308"])
    def test_latitude_out_of_range_reads_as_absent(self, tx_mapping, lat):
        crash = [
            CRASH_HEADER,
            f"X1,2023,Travis,{lat},-97.7,MAIN ST,,N,3,24",
            "X2,2023,Travis,90,-97.7,MAIN ST,,N,3,24",  # the bounds are inclusive
        ]
        records, report = load_crash_table(crash, tx_mapping)
        assert [r.location for r in records] == [None, LatLon(90.0, -97.7)]
        assert report.missing_location == 1

    @pytest.mark.parametrize("lon", ["-200", "180.5", "-1e400"])
    def test_longitude_out_of_range_reads_as_absent(self, tx_mapping, lon):
        crash = [
            CRASH_HEADER,
            f"X1,2023,Travis,30.3,{lon},MAIN ST,,N,3,24",
            "X2,2023,Travis,30.3,-180,MAIN ST,,N,3,24",
        ]
        records, report = load_crash_table(crash, tx_mapping)
        assert [r.location for r in records] == [None, LatLon(30.3, -180.0)]
        assert report.missing_location == 1

    def test_crash_without_units_is_emitted_and_counted(self, tx_mapping):
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X2,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X3,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
        ]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1", "X3,,P4,,1,,,1,1,1"]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert [(r.crash_id, len(r.units)) for r in records] == [("X1", 1), ("X2", 0), ("X3", 0)]
        assert report.crashes_without_units == 2
        _, without_table = load_crash_table(crash, tx_mapping)
        assert without_table.crashes_without_units == 3

    def test_pedestrian_and_cyclist_never_in_transport(self, tx_mapping):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        # Unit_Desc_ID 4 is a pedestrian and 3 a cyclist; with the parked
        # flag unset the mapping derives them in transport.
        units = [UNIT_HEADER, "X1,1,P4,,4,,,1,1,1", "X1,2,P4,,3,,,1,1,1", "X1,3,P4,,1,,,1,1,1"]
        records, _ = load_crash_table(crash, tx_mapping, units_source=units)
        assert [(u.vehicle_class, u.in_transport) for u in records[0].units] == [
            (VehicleClass.PEDESTRIAN, False),
            (VehicleClass.CYCLIST, False),
            (VehicleClass.PASSENGER, True),
        ]

    @pytest.mark.parametrize("ordinal", ["0", "-2", "0.5", "inf", "x", "2.5", "1.0000001"])
    def test_ordinal_below_one_reads_as_absent(self, tx_mapping, ordinal):
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        units = [UNIT_HEADER, f"X1,1,P4,,1,,,1,1,{ordinal}", "X1,2,P4,,1,,,1,1,1"]
        records, _ = load_crash_table(crash, tx_mapping, units_source=units)
        record = records[0]
        assert [(u.unit_id, u.first_contact_event_index) for u in record.units] == [
            (1, None), (2, 1)
        ]

    def test_junction_outside_vocabulary_and_explicit_unknown_are_counted(self, tmp_path):
        # A raw token outside the vocabulary, read with no dictionary, and
        # an explicit "= Unknown" entry both count, like the '*' fallback.
        config_path = tmp_path / "coded.ini"
        config_path.write_text(
            "[source]\nname = coded\n"
            "[columns]\ncrash_id = ID\nstate = const:TX\ncounty = County\nyear = Year\n"
            "junction_relation = J\nmanner_of_collision = M\n"
            "[dictionary.manner_of_collision]\n1 = FrontToRear\n9 = Unknown\n* = Other\n"
        )
        config = MappingConfig.load(config_path)
        records, report = load_crash_table(
            [
                "ID,County,Year,J,M",
                "A,Travis,2023,Intersection,1",
                "B,Travis,2023,Intersecton,9",
                "C,Travis,2023,intersection,7",
                "D,Travis,2023,,1",
            ],
            config,
        )
        assert [r.junction_relation for r in records] == [
            JunctionRelation.INTERSECTION, JunctionRelation.UNKNOWN,
            JunctionRelation.UNKNOWN, JunctionRelation.UNKNOWN,
        ]
        assert [r.manner_of_collision for r in records] == [
            MannerOfCollision.FRONT_TO_REAR, MannerOfCollision.UNKNOWN,
            MannerOfCollision.OTHER, MannerOfCollision.FRONT_TO_REAR,
        ]
        assert report.unknown_counts["junction_relation"] == 3
        assert report.unknown_counts["manner_of_collision"] == 2

    def test_repeated_unit_id_is_kept_once_per_crash(self, tx_mapping):
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "X2,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
        ]
        # Unit numbers restart in each crash; only a repeat within one
        # crash breaks the contract, and the repeat need not be adjacent.
        units = [
            UNIT_HEADER,
            "X2,1,P4,,1,,,1,1,1",
            "X1,1,P4,,1,,,1,1,1",
            "X2,2,P4,,1,,,1,1,1",
            "X2,1,P4,,4,,,1,1,1",
        ]
        records, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert [[u.unit_id for u in r.units] for r in records] == [[1], [1, 2]]
        assert [contract_breaches(r) for r in records] == [[], []]
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 4, "duplicate unit_id"),
        ]

    def test_skipped_row_names_table_row_and_reason(self, tx_mapping):
        # Row numbers are 1-based after the header, and a blank line does
        # not advance them, so a reported row can be found in the source.
        crash = [
            CRASH_HEADER,
            "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24",
            "",
            "X2,20x3,Travis,30.1,-97.7,MAIN ST,,N,3,24",
        ]
        units = [UNIT_HEADER, "X1,1,P4,,1,,,1,1,1", "", "X1,1,P4,,1,,,1,1,1"]
        _, report = load_crash_table(crash, tx_mapping, units_source=units)
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 2, "duplicate unit_id"),
            ("crash", 2, "unparseable year '20x3'"),
        ]


# A mapping that reads every contract-relevant field straight from its
# column, so generated tables can hold any raw value.
_GENERATED_MAPPING = """[source]
name = generated
[columns]
crash_id = ID
state = const:TX
county = County
year = Year
latitude = Lat
longitude = Lon
unit.crash_id = ID
unit.unit_id = Unit
unit.vehicle_class = Class
unit.in_transport = Moving
unit.first_contact_event = Event
person.crash_id = ID
person.unit_id = Unit
person.injury = Injury
person.airbag = Airbag
"""

_IDS = ["C1", "C2", "C3"]
_COORDINATES = st.sampled_from(
    ["30.3", "-97.7", "90", "-180", "91", "-90.01", "180.5", "-200", "1e308",
     "nan", "inf", "-inf", "", "abc"]
)
_CRASH_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_IDS + [""]),
        st.sampled_from(["2023", "2023", "2023", "20x3", "inf"]),
        st.sampled_from(["Travis", "Travis", ""]),
        _COORDINATES,
        _COORDINATES,
    ),
    max_size=6,
)
_UNIT_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_IDS + ["", "Z9"]),  # Z9 never has a crash row
        st.sampled_from(["1", "2", "3", "4", ""]),
        st.sampled_from(["Passenger", "Pedestrian", "Cyclist", "Motorcycle", "Junk", ""]),
        st.sampled_from(["true", "false", "", "maybe"]),
        st.sampled_from(["1", "2", "0", "-1", "0.5", "inf", "x", ""]),
    ),
    max_size=12,
)
_PERSON_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_IDS + ["", "Z9"]),
        st.sampled_from(["1", "2", ""]),
        st.sampled_from(["K", "A", "O", "Q", ""]),
        st.sampled_from(["true", "false", ""]),
    ),
    max_size=8,
)


@pytest.fixture(scope="module")
def generated_mapping(tmp_path_factory) -> MappingConfig:
    path = tmp_path_factory.mktemp("mapping") / "generated.ini"
    path.write_text(_GENERATED_MAPPING)
    return MappingConfig.load(path)


def _table(header: str, rows) -> list[str]:
    return [header] + [",".join(row) for row in rows]


class TestGeneratedTables:
    """Properties over generated crash, unit and person tables that hold
    every kind of contract breach: out-of-range and non-finite
    coordinates, ordinals of 0 or less, repeated (crash, unit) pairs,
    non-motorists flagged in transport, crashes without units, and unit
    or person rows with no crash."""

    # Hypothesis's explain phase takes minutes on a failing example of
    # these tables, so a failure is reported once shrunk.
    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(crash_rows=_CRASH_ROWS, unit_rows=_UNIT_ROWS, person_rows=_PERSON_ROWS,
           rng=st.randoms())
    def test_ingest_decides_the_contract(
        self, generated_mapping, crash_rows, unit_rows, person_rows, rng
    ):
        def load(units, persons):
            return load_crash_table(
                _table("ID,Year,County,Lat,Lon", crash_rows),
                generated_mapping,
                units_source=_table("ID,Unit,Class,Moving,Event", units),
                persons_source=_table("ID,Unit,Injury,Airbag", persons),
            )

        records, report = load(unit_rows, person_rows)
        assert [contract_breaches(r) for r in records] == [[]] * len(records)
        for table, rows in (("crash", crash_rows), ("unit", unit_rows), ("person", person_rows)):
            assert report.rows_read.get(table, 0) == len(rows)
            assert report.conserves_rows(table), table
        assert report.rows_attached.get("unit", 0) == sum(len(r.units) for r in records)
        assert report.crashes_without_units == sum(1 for r in records if not r.units)

        # Once no (crash, unit) pair repeats, row order changes no record.
        first_rows = {}
        for row in unit_rows:
            first_rows.setdefault(row[:2], row)
        unique_units = list(first_rows.values())
        shuffled = load(
            rng.sample(unique_units, len(unique_units)),
            rng.sample(person_rows, len(person_rows)),
        )
        assert shuffled[0] == load(unique_units, person_rows)[0]


class TestSharedUnits:
    """A load builds each distinct unit once and shares it among the
    records that hold it: the records equal those a fresh unit per row
    would give, and nothing downstream can tell them apart."""

    @staticmethod
    def _tables(fixtures_dir, tiles: int) -> list[list[str]]:
        """The fixture tables, or tiled copies from the corpus module."""
        names = ("tx_crashes.csv", "tx_units.csv", "tx_persons.csv")
        if tiles == 1:
            return [(fixtures_dir / name).read_text().splitlines() for name in names]
        return [tiled_table(fixtures_dir / name, tiles).splitlines() for name in names]

    @pytest.mark.parametrize("tiles", [1, 3])
    def test_records_equal_those_with_a_fresh_unit_per_row(
        self, tx_mapping, fixtures_dir, tiles
    ):
        crashes, units, persons = self._tables(fixtures_dir, tiles)
        records, _ = load_crash_table(crashes, tx_mapping, units, persons)
        # Each unit row loaded in a call of its own is built from its row
        # alone; of a repeated (crash, unit) pair the first row wins.
        fresh: dict[str, dict] = {}
        for row in units[1:]:
            alone, _ = load_crash_table(crashes, tx_mapping, [units[0], row], persons)
            for record in alone:
                for unit in record.units:
                    fresh.setdefault(record.crash_id, {}).setdefault(unit.unit_id, unit)
        assert sum(map(len, fresh.values())) == sum(len(r.units) for r in records) > 0
        for record in records:
            by_id = fresh.get(record.crash_id, {})
            assert record == record._replace(units=tuple(by_id[i] for i in sorted(by_id)))

    def test_equal_units_are_one_value_per_load(self, tx_mapping, fixtures_dir):
        crashes, units_table, persons = self._tables(fixtures_dir, 3)
        records, _ = load_crash_table(crashes, tx_mapping, units_table, persons)
        units = [unit for record in records for unit in record.units]
        shared: dict[tuple, object] = {}
        for unit in units:
            assert shared.setdefault(tuple(unit), unit) is unit
        assert len(shared) < len(units) / 3
        # The memo lives for one call: another load builds its own units.
        again, _ = load_crash_table(crashes, tx_mapping, units_table, persons)
        assert again == records
        assert not {id(u) for u in units} & {id(u) for r in again for u in r.units}

    def test_equal_road_names_are_one_string_per_load(self, tx_mapping, fixtures_dir):
        crashes, units, persons = self._tables(fixtures_dir, 3)
        # Padding around a name makes a new string that strips to an old one.
        crashes = [line.replace(",MAIN ST,", ", MAIN ST ,") for line in crashes]
        records, _ = load_crash_table(crashes, tx_mapping, units, persons)
        names = [
            name for record in records
            for name in (record.primary_road_name, record.secondary_road_name) if name
        ]
        shared: dict[str, str] = {}
        for name in names:
            assert shared.setdefault(name, name) is name
        assert "MAIN ST" in shared
        assert len(shared) < len(names) / 3
        again, _ = load_crash_table(crashes, tx_mapping, units, persons)
        assert again == records

    def test_geocoding_keeps_units_shared(self, tx_mapping, fixtures_dir):
        crashes, units, persons = self._tables(fixtures_dir, 1)
        records, _ = load_crash_table(crashes, tx_mapping, units, persons)
        geocoder = FileCachedGeocoder(fixtures_dir / "geocache.tsv")
        located, report = geocode_missing(records, geocoder)
        assert report.resolved > 0
        for before, after in zip(records, located):
            assert len(after.units) == len(before.units)
            assert all(a is b for a, b in zip(after.units, before.units))


# The packaged Texas mapping with a bound unit airbag flag, and with a
# parked-flag rule that leaves a unit's transport status unknown unless
# the flag is Y or N, so generated unit rows reach every decision the
# unit reader makes.
def _oracle_mapping_text() -> str:
    tx = resources.files("crashbench").joinpath("configs", "tx.ini").read_text()
    edits = {
        "unit.first_contact_event = First_Contact_Evt_Num\n":
            "unit.first_contact_event = First_Contact_Evt_Num\nunit.airbag = Veh_Airbag_Fl\n",
        "rule.2 = true when Veh_Parked_Fl not in Y\nrule.3 = true when Veh_Parked_Fl missing\n":
            "rule.2 = true when Veh_Parked_Fl in N\n",
    }
    for old, new in edits.items():
        assert old in tx
        tx = tx.replace(old, new)
    return tx


_ORACLE_UNIT_HEADER = UNIT_HEADER + ",Veh_Airbag_Fl"


def _corpus_tables(rng: random.Random, size: int) -> dict[str, list[list[str]]]:
    """Crash, unit and person rows in the Texas layout written from a
    corpus of ``size`` records, with random cases, weights, flags and
    person injuries.  Half the crash and unit rows copy the coded columns
    of an earlier one, as most rows of a real table do."""
    tables = {"crash": [], "unit": [], "person": []}
    for record in make_corpus(size, rng.randrange(2**32)):
        lat, lon = ("", "") if record.location is None else map(repr, record.location)
        row = [
            record.crash_id, str(record.year), rng.choice([record.county, " travis "]), lat, lon,
            record.primary_road_name, record.secondary_road_name or "",
            SEVERITY_CODE[record.worst_injury], JUNCTION_CODE[record.junction_relation],
            MANNER_CODE[record.manner_of_collision],
        ]
        if tables["crash"] and rng.random() < 0.5:
            earlier = rng.choice(tables["crash"])
            row[1:3], row[7:] = earlier[1:3], earlier[7:]
        tables["crash"].append(row)
        for unit in record.units:
            body, desc = BODY_AND_DESC[unit.vehicle_class]
            event = unit.first_contact_event_index
            row = [
                record.crash_id, str(unit.unit_id), body,
                rng.choice(["N", "N", "", "X"]) if unit.in_transport else "Y", desc,
                rng.choice(["", "", "8000", "12000"]), "", rng.choice(["", "1", "3"]), "1",
                "" if event is None else str(event), rng.choice(["", "0", "1"]),
            ]
            if tables["unit"] and rng.random() < 0.5:
                row[2:] = rng.choice(tables["unit"])[2:]
            tables["unit"].append(row)
            for _ in range(rng.randint(0, 2)):
                tables["person"].append([
                    record.crash_id, str(unit.unit_id),
                    INJURY_CODE[rng.choice(list(KabcoLevel))], rng.choice(["1", "2", ""]),
                ])
    return tables


def _mutate(rng: random.Random, tables: dict[str, list[list[str]]], mutation: str) -> None:
    """Apply one bounded row mutation to one or a few random rows."""
    crashes, units, persons = tables["crash"], tables["unit"], tables["person"]
    table = tables[rng.choice(list(tables))]
    keyed = tables[rng.choice(["unit", "person"])]  # the tables with a unit number

    def pick(rows: list[list[str]]) -> list[str]:
        return rng.choice(rows) if rows else []

    def put(row: list[str], column: int, value: str) -> None:
        if len(row) > column:
            row[column] = value

    def copy_of(rows: list[list[str]]) -> list[str]:
        copy = list(pick(rows))
        rows.insert(rng.randint(0, len(rows)), copy)
        return copy

    if mutation == "wide row":
        pick(table).append("EXTRA")
    elif mutation == "short row":
        row = pick(table)
        del row[rng.randint(1, max(1, len(row) - 1)):]
    elif mutation == "blank crash id":
        put(pick(table), 0, rng.choice(["", " "]))
    elif mutation == "blank unit number":
        put(pick(keyed), 1, rng.choice(["", " "]))
    elif mutation == "repeated crash id":
        put(copy_of(crashes), 2, "Hays")
    elif mutation == "repeated unit id":
        put(copy_of(units), 2, rng.choice(["MC", "ZZ"]))
    elif mutation == "orphan of an absent crash":
        units.append(["Z9", "1", "P4", "N", "1", "", "", "1", "1", "1", "1"])
        persons.append(["Z9", "1", "4", "2"])
    elif mutation == "orphan of a skipped crash":
        put(pick(crashes), 1, "20x3")
    elif mutation == "unparseable year":
        put(pick(crashes), 1, rng.choice(["2023.5", "x", "", "inf", "2023.0"]))
    elif mutation == "unparseable unit number":
        put(pick(keyed), 1, rng.choice(["1.5", "x", "2.0", "1_0"]))
    elif mutation == "ordinal below 1":
        put(pick(units), 9, rng.choice(["0", "-1"]))
    elif mutation == "degraded code":
        rows, column, code = rng.choice(
            [(crashes, 7, "Q"), (crashes, 8, "Q"), (crashes, 9, "Q"), (units, 2, "QQ"),
             (persons, 2, "7"), (persons, 3, "9")]
        )
        put(pick(rows), column, code)
    elif mutation == "all injuries unknown":
        crash_id = pick(crashes)[:1]
        for row in [row for row in persons if row[:1] == crash_id] or [copy_of(persons)]:
            put(row, 2, "9")
    elif mutation == "airbag twin":
        # Equal to a unit row in every field but the airbag flag, in the
        # same crash (a repeated unit) or in another one.
        copy = copy_of(units)
        if len(copy) == 11:
            copy[10] = "0" if copy[10] == "1" else "1"
            copy[0] = rng.choice([copy[0], *pick(crashes)[:1]])
    elif mutation == "crowded crash":
        # 20 to 40 more unit rows for one crash, more than the loader
        # scans for a repeated unit: ids up to 30, so that some repeat,
        # and twins of an earlier extra row but for the airbag flag.
        crash_id = pick(crashes)[:1] or [""]
        extra: list[list[str]] = []
        for _ in range(rng.randint(20, 40)):
            if extra and rng.random() < 0.25:
                row = list(rng.choice(extra))
                put(row, 10, "0" if row[10:] == ["1"] else "1")
            else:
                row = list(pick(units)) or ["", "1", "P4", "N", "1", "", "", "1", "1", "1", "1"]
                row[:1] = crash_id
                put(row, 1, str(rng.randint(1, 30)))
            extra.append(row)
        for row in extra:
            units.insert(rng.randint(0, len(units)), row)
    else:
        raise ValueError(mutation)


_MUTATIONS = (
    "wide row", "short row", "blank crash id", "blank unit number", "repeated crash id",
    "repeated unit id", "orphan of an absent crash", "orphan of a skipped crash",
    "unparseable year", "unparseable unit number", "ordinal below 1", "degraded code",
    "all injuries unknown", "airbag twin", "crowded crash",
)


def _source(table: str, rows: list[list[str]]) -> io.StringIO:
    header = {"crash": CRASH_HEADER, "unit": _ORACLE_UNIT_HEADER, "person": PERSON_HEADER}[table]
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator="\n").writerows([header.split(","), *rows])
    text.seek(0)
    return text


@pytest.fixture(scope="module")
def oracle_mapping(tmp_path_factory) -> MappingConfig:
    path = tmp_path_factory.mktemp("mapping") / "tx_oracle.ini"
    path.write_text(_oracle_mapping_text())
    return MappingConfig.load(path)


class TestRowOracle:
    """The loader decides each distinct tuple of coded columns once; the
    row-at-a-time reference in ``ingest_oracle`` decides every row from
    scratch.  On tables written from the corpus and then mutated, both
    give equal records and an equal report: skips in order, rows read and
    attached, unknown counts, missing locations and crashes without
    units."""

    @settings(max_examples=150, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10),
           mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=10))
    def test_loader_matches_row_oracle(self, oracle_mapping, seed, size, mutations):
        rng = random.Random(seed)
        tables = _corpus_tables(rng, size)
        for mutation in mutations:
            _mutate(rng, tables, mutation)

        def load(loader):
            return loader(_source("crash", tables["crash"]), oracle_mapping,
                          _source("unit", tables["unit"]), _source("person", tables["person"]))

        records, report = load(load_crash_table)
        expected_records, expected_report = load(ingest_oracle.load_crash_table)
        assert records == expected_records
        assert report == expected_report
        shared: dict[tuple, object] = {}
        for unit in (unit for record in records for unit in record.units):
            assert shared.setdefault(tuple(unit), unit) is unit


# Variants of the oracle mapping that read a per-row crash field other
# than through a plain column.  The secondary-road dictionary maps one
# name to an empty value, which reads as absent.
_BINDING_VARIANTS = {
    "derived primary road": (
        {},
        "[derive.primary_road]\nrule.1 = INTERSTATE-35 when Rpt_Street_Name in I-35|IH-35\n"
        "rule.2 = LOOP-1 when Rpt_Street_Name == MOPAC\n"
        "rule.3 = UNNAMED when Rpt_Street_Name missing\n",
    ),
    "constant secondary road": (
        {"secondary_road = Rpt_Sec_Street_Name\n": "secondary_road = const:FRONTAGE RD\n"}, ""
    ),
    "secondary road dictionary": (
        {},
        "[dictionary.secondary_road]\nMAIN ST = MAIN STREET\nELM AVE =\n* = OTHER ROAD\n",
    ),
    "unbound coordinates": ({"latitude = Latitude\n": "", "longitude = Longitude\n": ""}, ""),
    # Mixed-case values, decided apart from the codes (``ingest._APART``);
    # one county maps to an empty value, which reads as absent.
    "county dictionary": (
        {},
        "[dictionary.county]\nTRAVIS = travis\nWILLIAMSON = Williamson\nHAYS = hAyS\n"
        "BEXAR =\n* = Unlisted\n",
    ),
}


@pytest.fixture(scope="module")
def variant_mappings(tmp_path_factory) -> dict[str, MappingConfig]:
    mappings = {}
    for name, (edits, sections) in _BINDING_VARIANTS.items():
        text = _oracle_mapping_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path_factory.mktemp("mapping") / "tx_variant.ini"
        path.write_text(text + "\n" + sections)
        mappings[name] = MappingConfig.load(path)
    return mappings


class TestRowOracleBindings:
    """``TestRowOracle``'s comparison on mappings whose per-row crash
    fields are derived, constant, read through a dictionary or unbound,
    with road names that reach each rule and dictionary entry."""

    @pytest.mark.parametrize("variant", _BINDING_VARIANTS)
    @settings(max_examples=40, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10),
           mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=6))
    def test_loader_matches_row_oracle(self, variant_mappings, variant, seed, size, mutations):
        mapping = variant_mappings[variant]
        rng = random.Random(seed)
        tables = _corpus_tables(rng, size)
        names = ["", " ", "I-35", " ih-35 ", "MOPAC", "MAIN ST", " elm ave ", "US-290"]
        for row in tables["crash"]:
            row[5], row[6] = rng.choice(names), rng.choice(names)
        for mutation in mutations:
            _mutate(rng, tables, mutation)

        def load(loader):
            return loader(_source("crash", tables["crash"]), mapping,
                          _source("unit", tables["unit"]), _source("person", tables["person"]))

        records, report = load(load_crash_table)
        assert (records, report) == load(ingest_oracle.load_crash_table)

    @settings(max_examples=40, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 10),
           mutations=st.lists(st.sampled_from(_MUTATIONS), max_size=6))
    def test_county_dictionary_matches_row_oracle(self, variant_mappings, seed, size,
                                                  mutations):
        # Counties that reach each dictionary entry, the fallback and the
        # empty value, in any case and padding, or blank.
        mapping = variant_mappings["county dictionary"]
        rng = random.Random(seed)
        tables = _corpus_tables(rng, size)
        names = ["", " ", "Travis", " travis ", "WILLIAMSON", "wiLLiamson ", "hays", "Bexar",
                 " BEXAR", "Harris"]
        for row in tables["crash"]:
            row[2] = rng.choice(names)
        for mutation in mutations:
            _mutate(rng, tables, mutation)

        def load(loader):
            return loader(_source("crash", tables["crash"]), mapping,
                          _source("unit", tables["unit"]), _source("person", tables["person"]))

        records, report = load(load_crash_table)
        assert (records, report) == load(ingest_oracle.load_crash_table)
        assert {r.county for r in records} <= {"TRAVIS", "WILLIAMSON", "HAYS", "UNLISTED"}


class TestCountyApart:
    """The crash reader decides the county apart from the other coded
    columns, so a statewide table's many counties do not multiply the
    keys of its decision memo."""

    def test_one_code_combination_in_many_counties_is_one_decision(self, tx_mapping):
        counties = [f"County {i}" for i in range(40)]
        rows = [CRASH_HEADER] + [
            f"X{i},2023,{counties[i % len(counties)]},30.1,-97.7,MAIN ST,,B,3,24"
            for i in range(3 * len(counties))
        ]
        report = ingest.IngestReport("tx")
        with ingest._mapped_table(
            "crash", rows, tx_mapping, ingest.CRASH_REQUIRED, ingest.CRASH_FIELDS,
            ingest._decide_crash, report,
        ) as (table, numbered):
            crashes = ingest._read_crash_rows(table, numbered, set(), report)
        ((_, county_memo),) = table.apart
        assert len(table.decisions) == 1
        assert sorted(county_memo) == sorted(counties)
        assert [entry[2] for entry in crashes.values()] == [
            counties[i % len(counties)].upper() for i in range(3 * len(counties))
        ]

    def test_missing_county_is_skipped_after_the_decisions_reason(self, tx_mapping):
        crash = [
            CRASH_HEADER,
            "X1,20x3,,30.1,-97.7,MAIN ST,,B,3,24",  # the year's reason comes first
            "X2,2023, ,30.1,-97.7,MAIN ST,,B,3,24",
            "X3,2023,hays ,30.1,-97.7,MAIN ST,,B,3,24",
        ]
        records, report = load_crash_table(crash, tx_mapping)
        assert [(s.row_number, s.reason) for s in report.skipped] == [
            (1, "unparseable year '20x3'"), (2, "missing state or county"),
        ]
        assert [r.county for r in records] == ["HAYS"]


class TestAbsentColumns:
    """A column the mapping binds, or a derive rule reads, that the
    header lacks reads as empty, and compiling the table warns once,
    naming the source, the table and the columns."""

    def test_lacking_columns_warn_once_naming_them(self, tx_mapping):
        header = ["Crash_ID", "Unit_Nbr", "Veh_Parked_Fl", "Unit_Desc_ID", "Cmv_GVWR",
                  "Cmv_Fiveton_Fl", "First_Contact_Evt_Num"]
        with pytest.warns(AbsentColumnWarning) as caught:
            tx_mapping.compile(header, ("unit.crash_id",), UNIT_REQUIRED, "unit",
                               UNIT_FIELDS[1:])
        (warning,) = caught
        assert str(warning.message) == (
            "tx/unit: header lacks 'Gvwr_Class' (read by unit.vehicle_class), "
            "'Veh_Body_Styl_ID' (read by unit.vehicle_class); each reads as empty"
        )


class TestCrowdedCrash:
    """A crash with thousands of unit rows: the check for a repeated
    unit stays linear in the crash's units."""

    def test_twenty_thousand_units_attach_once_in_id_order(self, oracle_mapping):
        rng = random.Random(31)
        ids = list(range(1, 20_001))
        rng.shuffle(ids)
        repeat = rng.choice(ids)
        rows = [["X1", str(i), "P4", "N", "1", "", "", "1", "1", "1", "0"] for i in ids]
        # The last row repeats an id, with the airbag flag the first copy lacks.
        rows.append(["X1", str(repeat), "P4", "N", "1", "", "", "1", "1", "1", "1"])
        crash = [CRASH_HEADER, "X1,2023,Travis,30.1,-97.7,MAIN ST,,N,3,24"]
        records, report = load_crash_table(
            crash, oracle_mapping, units_source=_source("unit", rows)
        )
        (record,) = records
        assert [u.unit_id for u in record.units] == list(range(1, 20_001))
        assert record.airbag_deployed is False
        assert [(s.table, s.row_number, s.reason) for s in report.skipped] == [
            ("unit", 20_001, "duplicate unit_id"),
        ]
        assert report.rows_attached["unit"] == 20_000
        assert all(report.conserves_rows(t) for t in ("crash", "unit"))


class TestGeocoding:
    def test_stub_contract(self):
        request = GeocodeRequest("CA", "SF", "US-101", "CESAR CHAVEZ")
        client = StubGeocoder({request: LatLon(37.75, -122.405)})
        record = make_record(location=None, primary_road_name="US-101",
                             secondary_road_name="CESAR CHAVEZ", state="CA", county="SF")
        out, report = geocode_missing([record], client)
        assert out[0].location == LatLon(37.75, -122.405)
        assert report.resolved == 1

    def test_present_location_untouched(self):
        client = StubGeocoder({})
        record = make_record()
        out, report = geocode_missing([record], client)
        assert out[0] is record
        assert report.resolved == report.unresolved == 0

    def test_unresolved_counted(self):
        client = StubGeocoder({})
        record = make_record(location=None)
        out, report = geocode_missing([record], client)
        assert out[0].location is None
        assert report.unresolved == 1

    def test_transport_failure_recorded_and_run_continues(self):
        class FailingClient:
            def locate(self, request):
                raise GeocodeTransportError("backend unavailable")

        records = [make_record(location=None), make_record(crash_id="X2", location=None)]
        out, report = geocode_missing(records, FailingClient())
        assert len(out) == 2
        assert [crash_id for crash_id, _ in report.failed] == ["X1", "X2"]

    def test_file_cache_appends_and_replays(self, tmp_path):
        cache_path = tmp_path / "cache.tsv"
        request = GeocodeRequest("TX", "TRAVIS", "US-290", "SPRINGDALE RD")
        inner = StubGeocoder({request: LatLon(30.32, -97.66)})
        caching = FileCachedGeocoder(cache_path, inner=inner)
        assert caching.locate(request) == LatLon(30.32, -97.66)
        assert cache_path.exists()

        replay = FileCachedGeocoder(cache_path)  # no inner client
        assert replay.locate(request) == LatLon(30.32, -97.66)
        assert replay.locate(GeocodeRequest("TX", "TRAVIS", "ELSEWHERE", "")) is None

    @pytest.mark.parametrize(
        "answer", [LatLon(95.0, -97.7), LatLon(30.3, 180.5), LatLon(float("nan"), -97.7)]
    )
    def test_out_of_range_inner_answer_is_unresolved_and_not_cached(self, tmp_path, answer):
        cache_path = tmp_path / "cache.tsv"
        request = GeocodeRequest("TX", "TRAVIS", "MAIN ST", "")
        caching = FileCachedGeocoder(cache_path, inner=StubGeocoder({request: answer}))
        record = make_record(location=None, primary_road_name="MAIN ST")
        out, report = geocode_missing([record], caching)
        assert out[0].location is None
        assert (report.resolved, report.unresolved) == (0, 1)
        assert not cache_path.exists()
        FileCachedGeocoder(cache_path)  # replay still loads

    def test_out_of_range_answer_of_any_client_is_unresolved(self):
        record = make_record(location=None, primary_road_name="MAIN ST")
        client = StubGeocoder({GeocodeRequest("TX", "TRAVIS", "MAIN ST"): LatLon(30.3, -200.0)})
        out, report = geocode_missing([record], client)
        assert out[0].location is None
        assert report.unresolved == 1

    def test_conflicting_cache_lines_are_data_error(self, tmp_path):
        # The later line used to replace the earlier one silently.
        cache_path = tmp_path / "cache.tsv"
        key = GeocodeRequest("TX", "TRAVIS", "US-290", "SPRINGDALE RD").key()
        other = GeocodeRequest("TX", "TRAVIS", "MAIN ST", "").key()
        cache_path.write_text(
            f"{key}\t30.32\t-97.66\n{other}\t30.1\t-97.1\n\n{key}\t30.33\t-97.66\n"
        )
        message = (
            rf"cache\.tsv: lines 1 and 4 give different coordinates for {re.escape(repr(key))}"
        )
        with pytest.raises(DataError, match=message):
            FileCachedGeocoder(cache_path)

    @pytest.mark.parametrize(
        "lat, lon", [("3_0.25", "-9_7.5"), ("\u0663\u0660.25", "-97.5"), ("30.25", "-\u0669\u0667")]
    )
    def test_cache_coordinates_read_as_table_numbers(self, tmp_path, lat, lon):
        # float() reads "3_0.25" as 30.25 and Arabic-Indic digits as their
        # values; a crash table reads neither, and neither does the cache.
        cache_path = tmp_path / "cache.tsv"
        cache_path.write_text(f"TX|TRAVIS|FOO|\t30.1\t-97.7\nTX|TRAVIS|BAR|\t{lat}\t{lon}\n",
                              encoding="utf-8")
        with pytest.raises(DataError, match=r"cache\.tsv: line 2: malformed geocoder cache line"):
            FileCachedGeocoder(cache_path)

    def test_exact_repeat_cache_line_loads(self, tmp_path):
        cache_path = tmp_path / "cache.tsv"
        request = GeocodeRequest("TX", "TRAVIS", "US-290", "SPRINGDALE RD")
        cache_path.write_text(f"{request.key()}\t30.32\t-97.66\n" * 2)
        assert FileCachedGeocoder(cache_path).locate(request) == LatLon(30.32, -97.66)

    def test_key_normalization(self):
        a = GeocodeRequest("tx", " travis ", "us-290", "springdale  rd").key()
        b = GeocodeRequest("TX", "TRAVIS", "US-290", "SPRINGDALE RD").key()
        assert a == b


class TestVmtLoading:
    @pytest.mark.parametrize("name", VMT_TEMPLATES)
    def test_template_reads_a_table_in_its_own_columns_and_codes(self, builtin_mappings, name):
        config = builtin_mappings[name]
        columns = config.columns
        const = {f: b.value for f, b in columns.items() if not isinstance(b, Column)}
        if "functional_class" in const:
            codes = {const["functional_class"]: const["functional_class"]}
        else:
            codes = {k: v for k, v in config.dictionaries["functional_class"].items() if k != "*"}
        header = [b.name for b in columns.values() if isinstance(b, Column)]
        rows, expected = [], []
        for n, (code, value) in enumerate(sorted(codes.items())):
            written = {"state": "GA", "county": f"County {n}", "functional_class": code,
                       "year": "2023", "vmt_miles": str(1000 + n)}
            rows.append(config.delimiter.join(
                written[f] for f, b in columns.items() if isinstance(b, Column)
            ))
            expected.append(VmtRecord(
                const.get("state", "GA"), f"COUNTY {n}", FunctionalClass(value), 2023,
                (1000 + n) * config.vmt_scale,
            ))
        records = load_vmt_table([config.delimiter.join(header), *rows], config)
        assert records == expected

    def test_fixture_passthrough(self, tx_vmt_mapping, fixtures_dir):
        records = load_vmt_table(fixtures_dir / "tx_vmt.csv", tx_vmt_mapping)
        assert len(records) == 4
        travis_fwy = next(
            r for r in records
            if r.county == "TRAVIS" and r.functional_class is FunctionalClass.FREEWAY
        )
        assert travis_fwy.vmt_miles == 2_000_000_000.0

    def test_all_roads_minus_freeway_sidecar(self, tmp_path):
        primary_cfg = tmp_path / "all.ini"
        primary_cfg.write_text(
            "[source]\nname = ca_all\nvmt_scale = 1000000\n"
            "[columns]\nstate = const:CA\ncounty = County\n"
            "functional_class = const:AllRoads\nyear = Year\nvmt_miles = Total\n"
        )
        sidecar_cfg = tmp_path / "fwy.ini"
        sidecar_cfg.write_text(
            "[source]\nname = hpms\nvmt_scale = 1000000\n"
            "[columns]\nstate = const:CA\ncounty = County\n"
            "functional_class = const:Freeway\nyear = Year\nvmt_miles = Fwy\n"
        )
        records = load_vmt_table(
            ["County,Year,Total", "Los Angeles,2023,100"],
            MappingConfig.load(primary_cfg),
            sidecar_source=["County,Year,Fwy", "Los Angeles,2023,30"],
            sidecar_config=MappingConfig.load(sidecar_cfg),
        )
        surface = next(
            r for r in records if r.functional_class is FunctionalClass.SURFACE_STREET
        )
        assert surface.vmt_miles == pytest.approx(70e6)
        assert surface.county == "LOS ANGELES"

    def test_inconsistent_subtraction_is_hard_error(self, tmp_path):
        config_path = tmp_path / "pair.ini"
        config_path.write_text(
            "[source]\nname = pair\n"
            "[columns]\nstate = const:CA\ncounty = County\n"
            "functional_class = Class\nyear = Year\nvmt_miles = V\n"
            "[dictionary.functional_class]\nALL = AllRoads\nFWY = Freeway\n"
            "SURF = SurfaceStreet\n* = Unknown\n"
        )
        config = MappingConfig.load(config_path)
        # Freeway exceeding the total; then given parts that miss it (the
        # parts used to be kept unchecked).
        for classes in (
            ["X,ALL,2023,90", "X,FWY,2023,100"],
            ["Travis,ALL,2023,9e9", "Travis,FWY,2023,2e9", "Travis,SURF,2023,3e9"],
            ["Travis,ALL,2023,5e9", "Travis,FWY,2023,2e9", "Travis,SURF,2023,3.01e9"],
        ):
            county = classes[0].split(",")[0].upper()
            with pytest.raises(InconsistentVmtError, match=f"CA/{county}/2023: freeway VMT"):
                load_vmt_table(["County,Class,Year,V", *classes], config)
        # Parts that agree within rounding are kept as given.
        rows = ["County,Class,Year,V", "Travis,ALL,2023,5.001e9", "Travis,FWY,2023,2e9",
                "Travis,SURF,2023,3e9"]
        records = load_vmt_table(rows, config)
        assert [(r.functional_class, r.vmt_miles) for r in records] == [
            (FunctionalClass.ALL_ROADS, 5.001e9),
            (FunctionalClass.FREEWAY, 2e9),
            (FunctionalClass.SURFACE_STREET, 3e9),
        ]

    @pytest.mark.parametrize("miles", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_vmt_is_data_error(self, tx_vmt_mapping, miles):
        rows = [
            "County,Functional_Class,Year,Annual_VMT",
            "Travis,FREEWAY,2023,10",
            f"Travis,SURFACE,2023,{miles}",
        ]
        with pytest.raises(DataError, match=f"vmt row 2: vmt_miles {miles!r} is not a finite"):
            load_vmt_table(rows, tx_vmt_mapping)

    @pytest.mark.parametrize(
        "miles,scale,scaled",
        [("0", "1", "0.0"), ("-5", "1", "-5.0"), ("1e300", "1e10", "inf"),
         ("1e-300", "1e-30", "0.0")],
        ids=["zero", "negative", "overflow", "underflow"],
    )
    def test_vmt_outside_zero_to_infinity_is_data_error(self, tmp_path, miles, scale, scaled):
        # A finite row times a finite scale can still leave (0, inf): a
        # row of 1e300 at vmt_scale 1e10 used to load as inf miles, and a
        # non-positive row's error named neither the table nor the row.
        config_path = tmp_path / "scaled.ini"
        config_path.write_text(
            f"[source]\nname = scaled\nvmt_scale = {scale}\n"
            "[columns]\nstate = const:TX\ncounty = County\n"
            "functional_class = const:Freeway\nyear = Year\nvmt_miles = V\n"
        )
        rows = ["County,Year,V", "Travis,2023,10", f"Hays,2023,{miles}"]
        message = (
            f"scaled/vmt row 2: vmt_miles {miles!r} times vmt_scale {float(scale)!r} "
            f"is {scaled}, not a finite number > 0"
        )
        with pytest.raises(DataError, match=re.escape(message)):
            load_vmt_table(rows, MappingConfig.load(config_path))

    def test_vmt_row_wider_than_the_header_is_data_error(self, tx_vmt_mapping, tmp_path):
        path = tmp_path / "vmt.csv"
        path.write_text("County,Functional_Class,Year,Annual_VMT\nTravis,FREEWAY,2023,10\n"
                        "Travis,SURFACE,2023,1,000\n")
        with pytest.raises(DataError, match=r"vmt\.csv: row 2: 5 fields, header has 4"):
            load_vmt_table(path, tx_vmt_mapping)

    def test_source_that_is_not_a_path_is_named_by_its_type(self, tx_vmt_mapping):
        # A message names such a source by its type, not by its repr: for
        # this 3,002-line list the repr made a 75,108-character message.
        rows = ["County,Functional_Class,Year,Annual_VMT"]
        rows += [f"County {n},FREEWAY,2023,10" for n in range(3000)]
        rows.append("Travis,SURFACE,2023,1,000")
        with pytest.raises(DataError) as wide:
            load_vmt_table(rows, tx_vmt_mapping)
        assert str(wide.value) == "<list>: row 3001: 5 fields, header has 4"
        assert len(str(wide.value)) < 200
        # Likewise a row the csv module cannot parse, from a text stream.
        text = io.StringIO(f"{rows[0]}\nTravis,FREEWAY,2023,{'9' * 200_000}\n")
        with pytest.raises(DataError) as oversized:
            load_vmt_table(text, tx_vmt_mapping)
        assert str(oversized.value) == (
            "<StringIO>: row 1: field larger than field limit (131072)"
        )

    def test_non_integral_vmt_year_is_data_error(self, tx_vmt_mapping):
        rows = ["County,Functional_Class,Year,Annual_VMT", "Travis,FREEWAY,2023.5,10"]
        with pytest.raises(DataError, match="vmt row 1: year '2023.5' is not an integer"):
            load_vmt_table(rows, tx_vmt_mapping)

    def test_unknown_functional_class_is_data_error(self, tx_vmt_mapping):
        rows = ["County,Functional_Class,Year,Annual_VMT", "Travis,GRAVEL,2023,10"]
        with pytest.raises(DataError):
            load_vmt_table(rows, tx_vmt_mapping)


def test_load_share_table(fixtures_dir):
    table = load_share_table(fixtures_dir / "shares.csv")
    assert table.share_for("TX", FunctionalClass.FREEWAY, True) == 0.92
    assert table.share_for("TX", FunctionalClass.SURFACE_STREET, True) == 0.95


@pytest.mark.parametrize("share", ["0", "-0.1", "1.5"])
def test_share_out_of_range_is_data_error(tmp_path, share):
    path = tmp_path / "shares.csv"
    path.write_text(f"state,functional_class,urban,share\nTX,Freeway,true,0.9\n"
                    f"TX,SurfaceStreet,true,{share}\n")
    with pytest.raises(DataError, match=rf"shares.csv: row 2: share '{share}' .* in \(0, 1\]"):
        load_share_table(path)


def test_share_row_wider_than_the_header_is_data_error(tmp_path):
    path = tmp_path / "shares.csv"
    path.write_text("state,functional_class,urban,share\nTX,Freeway,true,0.92\n"
                    "TX,SurfaceStreet,true,0,95\n")
    with pytest.raises(DataError, match=r"shares\.csv: row 2: 5 fields, header has 4"):
        load_share_table(path)


def test_repeated_share_row_is_data_error(tmp_path):
    # The last copy used to win silently.
    path = tmp_path / "shares.csv"
    path.write_text("state,functional_class,urban,share\nTX,Freeway,true,0.92\n"
                    "TX,SurfaceStreet,true,0.95\nTX,Freeway,true,0.5\n")
    message = r"shares.csv: rows 1 and 3 both give the share for \(TX, Freeway, urban=True\)"
    with pytest.raises(DataError, match=message):
        load_share_table(path)


@pytest.mark.parametrize("state", ["tx", "Tx "])
def test_share_rows_differing_only_in_state_case_are_data_error(tmp_path, state):
    # The table keys states stripped and upper-cased, so the second row
    # used to replace the first silently.
    path = tmp_path / "shares.csv"
    path.write_text(f"state,functional_class,urban,share\nTX,Freeway,true,0.9\n"
                    f"{state},Freeway,true,0.5\n")
    message = r"shares.csv: rows 1 and 2 both give the share for \(TX, Freeway, urban=True\)"
    with pytest.raises(DataError, match=message):
        load_share_table(path)


@pytest.mark.parametrize(
    "row,message",
    [
        ("TX,Frwy,true,0.9", "unknown functional class 'Frwy'"),
        ("TX,Freeway,ture,0.9", "urban 'ture' is not true/false or urban/rural"),
        ("TX,Freeway,,0.9", "urban '' is not true/false or urban/rural"),
        ("TX,Freeway,unknown,0.9", "urban 'unknown' is not"),
    ],
)
def test_bad_share_key_is_data_error(tmp_path, row, message):
    # A bad class was a ConfigError naming no file; a bad urban read as rural.
    path = tmp_path / "shares.csv"
    path.write_text(f"state,functional_class,urban,share\nTX,SurfaceStreet,true,0.95\n{row}\n")
    with pytest.raises(DataError, match=rf"shares\.csv: row 2: {re.escape(message)}"):
        load_share_table(path)


@pytest.mark.parametrize("urban,expected", [("Urban", True), ("RURAL", False), ("1", True),
                                            ("no", False), ("TRUE", True)])
def test_share_urban_reads_flags_and_urban_rural(tmp_path, urban, expected):
    path = tmp_path / "shares.csv"
    path.write_text(f"state,functional_class,urban,share\nTX,Freeway,{urban},0.9\n")
    assert load_share_table(path).share_for("TX", FunctionalClass.FREEWAY, expected) == 0.9


def test_short_share_and_ads_rows_read_missing_trailing_fields_as_absent(tmp_path):
    # A row that stops early is padded, so its missing fields read as
    # empty values: refused by value, naming the row.
    shares = tmp_path / "shares.csv"
    shares.write_text("state,functional_class,urban,share\nTX,Freeway,true,0.92\n"
                      "TX,SurfaceStreet,true\n")
    with pytest.raises(DataError, match=r"shares\.csv: row 2: share '' is not a finite number"):
        load_share_table(shares)
    ads = tmp_path / "ads.csv"
    ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\n"
                   "Austin,Freeway,PoliceReported,3,1e6\nAustin,Freeway,Fatal,1\n")
    with pytest.raises(DataError, match=r"ads\.csv: row 2: ads_vmt_miles '' is not a finite"):
        load_ads_table(ads)
    # The full rows before them read as written.
    shares.write_text("state,functional_class,urban,share\nTX,Freeway,true,0.92\n")
    assert load_share_table(shares).share_for("TX", FunctionalClass.FREEWAY, True) == 0.92
    ads.write_text("geo,road,outcome,ads_count,ads_vmt_miles\nAustin,Freeway,Fatal,1,2e6\n")
    assert load_ads_table(ads) == [(("Austin", "Freeway", "Fatal"), 1.0, 2e6)]


def test_share_table_missing_column_is_data_error(tmp_path):
    path = tmp_path / "shares.csv"
    path.write_text("state,functional_class,share\nTX,Freeway,0.9\n")
    with pytest.raises(DataError, match="urban"):
        load_share_table(path)


def test_tab_delimited_source_accepted(tmp_path):
    config = _mini_mapping(tmp_path, delimiter="tab")
    assert config.delimiter == "\t"
    records, report = load_crash_table(
        ["ID\tCounty\tYear", "T1\tTravis\t2023", "T,2\tHays, North\t2023"], config
    )
    assert [(r.crash_id, r.county) for r in records] == [
        ("T1", "TRAVIS"), ("T,2", "HAYS, NORTH"),
    ]
    assert report.records_emitted == 2


def test_bad_delimiter_rejected(tmp_path):
    config_path = tmp_path / "bad.ini"
    config_path.write_text("[source]\nname = b\ndelimiter = ;\n")
    with pytest.raises(ConfigError):
        MappingConfig.load(config_path)
