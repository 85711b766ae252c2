"""End-to-end benchmark construction from a single run configuration.

Stages, which ``run`` and the CLI subcommands compose: ``load_crashes``
(ingest and geocode), ``load_exposure`` (VMT and passenger shares),
``build_index`` (freeway segments), ``build_benchmark`` (road
classification, cohort selection, outcome/type taxonomy, rates and the
power grid), then report emission.  ``build_benchmark`` takes each
stratum input from the module that owns it: a crash's area from
``model.county_areas`` (areas that share a county are a ConfigError),
the outcome order from ``taxonomy.OutcomeLevel``'s declaration order,
and the grid's mileages from one ``power.mileage_grid`` call over every
severity cell with a positive count.  The run is single-threaded and
deterministic: cells tally whole unit counts and apply their passenger
fraction once, so no float sum depends on record or set order, and
reports are byte-identical across runs and hash seeds.
``build_benchmark`` counts the in-area records by shape (area, road
class, units, junction relation, manner of collision, worst injury,
airbag flag).  The cohort rule (``cohort.select_units``) and the
crash-type cascade read only a shape's configuration (road class,
units, junction relation, manner of collision), so the rule runs once
per distinct configuration; its groups give the known classes for the
imputation basis, the unknown-class units and the units the cascade
types.
``classify_outcome`` runs once per distinct (worst injury, airbag
flag).  Each shape adds its configuration's tallies, every increment
times the shape's count, and one loop over the integer tallies then
gives each cell its count.  Units are shared immutable values (see
``ingest``), but shapes and configurations compare them by value, so
nothing here relies on their identity; records, units and road
classifications are tuples (see ``model``), so both keys are built and
hashed in C.  Each distinct raw (state, county) pair of the in-year
records is placed in its area once per call.  Typing reads the contact
events from the units' first-contact ordinals, so a configuration's
units cover them.
``RunConfig.workers`` is validated but has no effect, and
``RunConfig.seed`` is only recorded in the report metadata.  Ingest
decides the crash-record contract, so no later stage validates a record.

``run`` and ``load_crashes`` pause Python's cyclic garbage collector
while they last and then restore the state the caller had, also when
they raise.  The records a run builds hold no reference cycles, so the
collector's repeated passes over them would free nothing; reference
counting frees everything else as before.  The collector's state belongs
to the process, so other threads in the same process share the pause
while the run lasts.
"""

from __future__ import annotations

import configparser
import contextlib
import gc
import hashlib
import math
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import report as report_mod
from .cohort import CohortCounts, passenger_fraction, passenger_vmt, select_units
from .ingest import (
    FileCachedGeocoder,
    IngestReport,
    geocode_missing,
    load_crash_table,
    load_share_table,
    load_vmt_table,
)
from .mapping import MappingConfig
from .model import (
    ConfigError,
    CrashRecord,
    DataError,
    DEFAULT_GEO_AREAS,
    FunctionalClass,
    GeoArea,
    InvalidOptionError,
    PassengerShareTable,
    RoadClass,
    VehicleClass,
    VmtRecord,
    check_names,
    county_areas,
    county_key,
    ini_sections,
    read_ini,
)
from .power import DEFAULT_ALPHA, DEFAULT_EFFECT_RATIOS, DEFAULT_POWER, mileage_grid
from .rates import (
    InvalidExposureError,
    RateCell,
    adjust_underreporting,
    crash_type_distribution,
    stratum_name,
)
from .report import PowerRow
from .roadclass import (
    DEFAULT_PROXIMITY_THRESHOLD_M,
    FreewaySegmentIndex,
    Provenance,
    decide_road,
    load_alias_table,
    load_segments_geojson,
)
from .taxonomy import (
    DEFAULT_GATE_ORDER,
    GATE_NAMES,
    LABEL,
    OUTCOME_RANK,
    CrashType,
    CrashTypeCascade,
    OutcomeLevel,
    classify_outcome,
)


@dataclass(frozen=True)
class RunParams:
    threshold_m: float = DEFAULT_PROXIMITY_THRESHOLD_M
    underreport_fraction: float = 0.32
    alpha: float = DEFAULT_ALPHA
    power: float = DEFAULT_POWER
    effects: tuple[float, ...] = DEFAULT_EFFECT_RATIOS
    any_route: bool = False
    impute_by_road: bool = False
    urban: bool = True
    type_gate_order: tuple[str, ...] = DEFAULT_GATE_ORDER

    def __post_init__(self):
        if not 0.0 < self.threshold_m < math.inf:
            raise ConfigError(f"threshold_m must be a finite number > 0, got {self.threshold_m}")
        if not 0.0 <= self.underreport_fraction < 1.0:
            raise ConfigError(
                f"underreport fraction must be in [0, 1), got {self.underreport_fraction}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.power < 1.0:
            raise ConfigError(f"power must be in (0, 1), got {self.power}")
        for effect in self.effects:
            if not 0.0 < effect < math.inf or effect == 1.0:
                raise ConfigError(
                    f"effect ratios must be finite, positive and != 1, got {effect}"
                )
        repeated = sorted({effect for effect in self.effects if self.effects.count(effect) > 1})
        if repeated:
            raise ConfigError(f"effect ratio {repeated[0]} is given more than once")
        unknown_gates = set(self.type_gate_order) - GATE_NAMES
        if unknown_gates:
            raise ConfigError(f"unknown crash-type gates: {sorted(unknown_gates)}")


@dataclass(frozen=True)
class SourceSpec:
    name: str
    mapping: str
    crash_table: Path
    units_table: Optional[Path] = None
    persons_table: Optional[Path] = None
    vmt_table: Optional[Path] = None
    vmt_mapping: Optional[str] = None
    vmt_sidecar: Optional[Path] = None
    vmt_sidecar_mapping: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    year: int
    areas: tuple[GeoArea, ...]
    sources: tuple[SourceSpec, ...]
    segments_path: Path
    shares_path: Path
    out_dir: Path = Path("out")
    aliases_path: Optional[Path] = None
    geocoder_cache: Optional[Path] = None
    seed: int = 0
    workers: int = 1
    params: RunParams = field(default_factory=RunParams)
    config_path: Optional[Path] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not self.areas:
            raise ConfigError("no geographic areas configured")
        county_areas(self.areas)  # rejects areas that share a county
        if not self.sources:
            raise ConfigError("no crash data sources configured")


def resolve_mapping(reference: str, base_dir: Path) -> MappingConfig:
    """A mapping reference is either 'builtin:<name>' (a packaged
    template) or a path relative to the run config."""
    if reference.startswith("builtin:"):
        name = reference[len("builtin:"):]
        packaged = resources.files("crashbench").joinpath("configs", f"{name}.ini")
        with resources.as_file(packaged) as path:
            if not path.exists():
                raise ConfigError(f"no builtin mapping named {name!r}")
            return MappingConfig.load(path)
    path = base_dir / reference
    if not path.exists():
        raise ConfigError(f"mapping config not found: {path}")
    return MappingConfig.load(path)


def _parse_area(name: str, raw: str) -> GeoArea:
    state, _, listed = raw.partition(":")
    counties = frozenset(c.strip() for c in listed.split(",") if c.strip())
    if not counties:
        raise ConfigError(f"area {name!r} must look like 'ST: County, County'")
    return GeoArea(name=name, state=state.strip(), counties=counties)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _names(raw))


def _names(raw: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _input_file(raw: str) -> Path:
    """An input file: resolved against the run config's directory, and it must be a file."""
    return Path(raw)


@dataclass(frozen=True)
class Option:
    """One run-config option: its section and name in the INI, the
    converter its text goes through and the field it sets (on RunConfig
    for [run] and [inputs], RunParams for [params], SourceSpec for each
    [source.NAME]).  An option with a ``flag`` is shared: the keyword of
    its name overrides it in ``load_run_config``, and so do the CLI flag
    ``--<flag>`` (with ``help``) and the CRASHBENCH_<FLAG> variable."""

    section: str
    name: str
    convert: Callable[[str], Any]
    attr: str
    required: bool = False
    flag: Optional[str] = None
    help: Optional[str] = None


OPTIONS = (
    Option("run", "year", int, "year"),
    Option("run", "out_dir", Path, "out_dir", flag="out",
           help="output directory (overrides config)"),
    Option("run", "workers", int, "workers", flag="workers",
           help="validated (must be >= 1) but has no effect: runs are single-threaded"),
    Option("run", "seed", int, "seed", flag="seed",
           help="recorded in the report metadata; nothing in the run is random"),
    Option("params", "threshold_m", float, "threshold_m", flag="threshold_m",
           help="freeway proximity threshold, meters"),
    Option("params", "underreport", float, "underreport_fraction", flag="underreport",
           help="non-fatal injury underreporting fraction"),
    Option("params", "alpha", float, "alpha", flag="alpha", help="two-sided type-I level"),
    Option("params", "power", float, "power", flag="power", help="target statistical power"),
    Option("params", "effects", _floats, "effects"),
    Option("params", "any_route", _boolean, "any_route"),
    Option("params", "impute_by_road", _boolean, "impute_by_road"),
    Option("params", "urban", _boolean, "urban"),
    Option("params", "type_gate_order", _names, "type_gate_order"),
    Option("inputs", "segments", _input_file, "segments_path", required=True),
    Option("inputs", "shares", _input_file, "shares_path", required=True),
    Option("inputs", "aliases", _input_file, "aliases_path"),
    Option("inputs", "geocoder_cache", _input_file, "geocoder_cache"),
    Option("source", "mapping", str, "mapping", required=True),
    Option("source", "crash_table", _input_file, "crash_table", required=True),
    Option("source", "units_table", _input_file, "units_table"),
    Option("source", "persons_table", _input_file, "persons_table"),
    Option("source", "vmt_table", _input_file, "vmt_table"),
    Option("source", "vmt_mapping", str, "vmt_mapping"),
    Option("source", "vmt_sidecar", _input_file, "vmt_sidecar"),
    Option("source", "vmt_sidecar_mapping", str, "vmt_sidecar_mapping"),
)
SHARED_OPTIONS = tuple(option for option in OPTIONS if option.flag)


def load_run_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a run config INI, each option as ``OPTIONS`` declares it.

    A keyword naming a shared option overrides the file's value; an
    out_dir override is taken as given, while the file's out_dir (or the
    default) is resolved against the config's directory, like every
    input file.  An empty ``effects`` or ``type_gate_order`` means the
    default.  Referenced input files must be files at load time.  A
    section other than [run], [params], [inputs], [areas] and
    [source.NAME], or an option its section does not declare, is a
    ConfigError naming the file, the section and the name.
    """
    unknown = overrides.keys() - {option.name for option in SHARED_OPTIONS}
    if unknown:
        raise TypeError(f"load_run_config() got an unexpected keyword argument {min(unknown)!r}")
    path = Path(path)
    parser = read_ini(path, "run config")
    base = path.parent

    def read(section: str) -> dict[str, Any]:
        """The options of ``section`` that are set, converted, by the field each sets."""
        declared = [o for o in OPTIONS if o.section == section.partition(".")[0]]
        if parser.has_section(section):
            names = [o.name for o in declared]
            check_names(path, section, parser.options(section), names, "option")
        values = {}
        for option in declared:
            given = overrides.get(option.name)
            raw = given if given is not None else parser.get(section, option.name, fallback=None)
            if raw is None:
                if option.required:
                    raise ConfigError(f"{path}: [{section}] missing {option.name}")
                continue
            try:
                value = option.convert(raw)
            except ValueError:
                raise InvalidOptionError(
                    f"{path}: [{section}] {option.name}: bad value {raw!r}"
                ) from None
            if given is None and isinstance(value, Path):
                value = base / value
                if option.convert is _input_file and not value.is_file():
                    raise ConfigError(
                        f"{path}: [{section}] {option.name}: input file not found: {value}"
                    )
            if value != ():
                values[option.attr] = value
        return values

    check_names(
        path,
        None,
        (section for section in ini_sections(parser) if not section.startswith("source.")),
        ("run", "params", "inputs", "areas", "source.NAME"),
        "section",
    )
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    run = read("run")
    if "year" not in run:
        raise ConfigError(f"{path}: [run] needs a year")
    run.setdefault("out_dir", base / RunConfig.out_dir)

    areas = DEFAULT_GEO_AREAS
    if parser.has_section("areas"):
        try:
            areas = tuple(_parse_area(n, v) for n, v in parser.items("areas"))
        except ConfigError as exc:
            raise ConfigError(f"{path}: [areas] {exc}") from None

    sources = tuple(
        SourceSpec(name=section[len("source."):], **read(section))
        for section in parser.sections()
        if section.startswith("source.")
    )
    return RunConfig(
        areas=areas,
        sources=sources,
        params=RunParams(**read("params")),
        config_path=path,
        **run,
        **read("inputs"),
    )


# --- input stages ------------------------------------------------------------


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off, then back to the state it
    had, so nested pauses each restore what they found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _base_dir(config: RunConfig) -> Path:
    return Path(".") if config.config_path is None else config.config_path.parent


@_collector_paused()
def load_crashes(
    config: RunConfig,
) -> tuple[list[CrashRecord], list[IngestReport], dict[str, int]]:
    """Ingest every source's crash, unit and person tables in config
    order, geocoding location-less records when a geocoder cache is
    configured.  Returns the records, one IngestReport per source and
    the geocoding tallies.  The cyclic collector is paused meanwhile."""
    base = _base_dir(config)
    geocoder = (
        FileCachedGeocoder(config.geocoder_cache)
        if config.geocoder_cache is not None
        else None
    )
    records: list[CrashRecord] = []
    ingest_reports: list[IngestReport] = []
    geocode_stats = {"resolved": 0, "unresolved": 0, "failed": 0}
    for source in config.sources:
        source_records, ingest_report = load_crash_table(
            source.crash_table,
            resolve_mapping(source.mapping, base),
            units_source=source.units_table,
            persons_source=source.persons_table,
        )
        if geocoder is not None:
            source_records, geo_report = geocode_missing(source_records, geocoder)
            geocode_stats["resolved"] += geo_report.resolved
            geocode_stats["unresolved"] += geo_report.unresolved
            geocode_stats["failed"] += len(geo_report.failed)
        records.extend(source_records)
        ingest_reports.append(ingest_report)
    return records, ingest_reports, geocode_stats


def load_exposure(config: RunConfig) -> tuple[list[VmtRecord], PassengerShareTable]:
    """Every source's VMT table, merged with its freeway sidecar if it
    has one, and the passenger share table."""
    base = _base_dir(config)
    vmt_records: list[VmtRecord] = []
    for source in config.sources:
        if source.vmt_table is None:
            continue
        vmt_mapping = resolve_mapping(source.vmt_mapping or source.mapping, base)
        sidecar_mapping = (
            resolve_mapping(source.vmt_sidecar_mapping, base)
            if source.vmt_sidecar_mapping
            else None
        )
        vmt_records.extend(
            load_vmt_table(
                source.vmt_table,
                vmt_mapping,
                sidecar_source=source.vmt_sidecar,
                sidecar_config=sidecar_mapping,
            )
        )
    return vmt_records, load_share_table(config.shares_path)


def build_index(config: RunConfig) -> FreewaySegmentIndex:
    """The freeway segment index, with the alias table if one is configured."""
    segments = load_segments_geojson(config.segments_path)
    aliases = load_alias_table(config.aliases_path) if config.aliases_path else None
    return FreewaySegmentIndex(segments, aliases=aliases)


# --- aggregation -------------------------------------------------------------


@dataclass
class BenchmarkTables:
    cells: list[RateCell]
    typed_cells: list[RateCell]
    distributions: list[tuple[GeoArea, RoadClass, OutcomeLevel, dict]]
    power_grid: list[PowerRow]
    diagnostics: dict
    cohort_counts: dict = field(default_factory=dict)


def _type_configuration(
    record: CrashRecord, road: RoadClass, cascade: CrashTypeCascade
) -> tuple[list[VehicleClass], int, tuple[tuple[CrashType, int], ...]]:
    """One crash configuration's units as ``cohort.select_units`` groups
    them: the known classes of its passenger and other-known units (the
    imputation basis), its number of unknown-class units, and one (crash
    type, tally column) pair per counted unit, passenger units first in
    column 0, then unknown-class units in column 1."""
    selection = select_units(record)
    passengers, unknowns = selection.passenger_units, selection.unknown_units
    known = [unit.vehicle_class for unit in passengers + selection.other_known_units]
    counted_ids = [unit.unit_id for unit in passengers + unknowns]
    crash_types = cascade.classify_units(record, counted_ids, road)
    columns = [0] * len(passengers) + [1] * len(unknowns)
    return known, len(unknowns), tuple(zip(crash_types, columns))


def _rate_cell(
    area: GeoArea,
    road: RoadClass,
    outcome: OutcomeLevel,
    count: float,
    vmt_miles: float,
    crash_type: Optional[CrashType] = None,
) -> RateCell:
    """The stratum's cell; a count and VMT outside a rate's domain is a
    DataError naming the stratum."""
    try:
        return RateCell(area, road, outcome, count, vmt_miles, crash_type)
    except (ValueError, InvalidExposureError) as exc:
        raise DataError(f"{stratum_name(area.name, road, outcome, crash_type)}: {exc}") from None


def build_benchmark(
    records: list[CrashRecord],
    index: FreewaySegmentIndex,
    vmt_records: list[VmtRecord],
    shares: PassengerShareTable,
    areas: tuple[GeoArea, ...],
    year: int,
    params: RunParams,
) -> BenchmarkTables:
    """Aggregate normalized records into rate cells, type distributions,
    and the required-mileage grid.

    A first pass over ``records`` road-classifies (``decide_road``: the
    road class by threshold, without the distance) and places each
    in-year record and counts it by shape: its area, road class, units,
    junction relation, manner of collision, worst injury and airbag flag,
    which are all the cohort walk, ``classify_outcome`` and the crash-type
    cascade read.  A second pass takes the shapes in first-seen order and
    adds each one's tallies times its count.  The cohort walk and the
    cascade run once per distinct configuration (road class, units,
    junction relation, manner of collision; ``_type_configuration``),
    and ``classify_outcome`` once per distinct (worst injury, airbag
    flag), each on the first record of its kind.  The tallies are
    integers, so the multiplication is exact, and the first-seen order
    keeps every later float sum in record order.
    Records are taken as ``ingest.load_crash_table`` emits them, already
    meeting the record contract, so none is validated here.  The tallies
    hold whole unit counts only.  One loop over them then applies each
    cell's passenger fraction once and the any-injury adjustment, and
    keeps a ``CohortCounts`` for each severity cell (``cohort_counts``).
    """
    by_county = county_areas(areas)
    records_in_year = outside = unresolved_road = 0
    # Per imputation key (area name, and road class with impute_by_road,
    # else None): the known-class histogram and the unknown-class units.
    imputation_key = lambda area_name, road: (
        area_name, road if params.impute_by_road else None
    )
    known_classes: dict[tuple, dict[VehicleClass, int]] = {}
    unknowns: dict[tuple, int] = {}
    # Per (area, road, outcome, crash type) cell: known passenger and
    # unknown-class units.
    tallies: dict[tuple, list[int]] = {}
    cascade = CrashTypeCascade(params.type_gate_order)

    # First pass: count the in-area records by shape, everything the
    # cohort walk, the outcome set and the crash-type cascade read.
    # Each shape keeps its first record and its count.
    shapes: dict[tuple, list] = {}
    # Each distinct raw (state, county) pair's area, or None outside every area.
    area_of: dict[tuple[str, str], Optional[GeoArea]] = {}
    for record in records:
        if record.year != year:
            continue
        records_in_year += 1
        place = (record.state, record.county)
        if place in area_of:
            area = area_of[place]
        else:
            area = area_of[place] = by_county.get(county_key(*place))
        if area is None:
            outside += 1
            continue
        cls = decide_road(
            record, index, threshold_m=params.threshold_m, any_route=params.any_route
        )
        if cls.provenance is Provenance.UNRESOLVABLE:
            unresolved_road += 1
        shape = (
            area.name,
            cls.road_class,
            record.units,
            record.junction_relation,
            record.manner_of_collision,
            record.worst_injury,
            record.airbag_deployed,
        )
        # The key hashes in C (units are tuples), and only a new shape
        # allocates its entry.
        entry = shapes.get(shape)
        if entry is None:
            shapes[shape] = [record, 1]
        else:
            entry[1] += 1

    # Second pass, over the shapes in first-seen order: each shape's
    # configuration (shape[1:5]) and outcome key (shape[5:]) are decided
    # once, and every increment is times the shape's count.
    configurations: dict[tuple, tuple] = {}
    outcome_sets: dict[tuple, set[OutcomeLevel]] = {}
    for shape, (record, n) in shapes.items():
        area_name, road = shape[:2]
        configuration = shape[1:5]
        typed = configurations.get(configuration)
        if typed is None:
            typed = configurations[configuration] = _type_configuration(record, road, cascade)
        known, n_unknown, typed_units = typed
        key = imputation_key(area_name, road)
        histogram = known_classes.setdefault(key, {})
        for vehicle_class in known:
            histogram[vehicle_class] = histogram.get(vehicle_class, 0) + n
        if n_unknown:
            unknowns[key] = unknowns.get(key, 0) + n * n_unknown
        outcome_key = shape[5:]
        outcomes = outcome_sets.get(outcome_key)
        if outcomes is None:
            outcomes = outcome_sets[outcome_key] = classify_outcome(record)
        for crash_type, column in typed_units:
            for outcome in outcomes:
                cell = (area_name, road, outcome, crash_type)
                tallies.setdefault(cell, [0, 0])[column] += n

    fractions = {key: passenger_fraction(hist) for key, hist in known_classes.items() if hist}
    imputed_mass: dict[str, float] = {}
    for key, n in unknowns.items():
        area_name = key[0]
        fraction = fractions.get(key)
        if fraction is None:
            raise DataError(
                f"area {area_name}: unknown-class units present but no known "
                f"classes to impute from"
            )
        imputed_mass[area_name] = imputed_mass.get(area_name, 0.0) + n * fraction

    # Each severity cell (crash type None) sums the units of its typed cells.
    for (area_name, road, outcome, _), (known, unknown) in list(tallies.items()):
        entry = tallies.setdefault((area_name, road, outcome, None), [0, 0])
        entry[0] += known
        entry[1] += unknown

    # Each cell's count is its known units plus its unknowns times the
    # imputation key's passenger fraction.  An any-injury cell is then
    # adjusted for underreporting, its fatal part (the fatal cell of the
    # same type, under the same fraction) passed through untouched.
    u = params.underreport_fraction
    adjusted: dict = {}
    severity_counts: dict = {}
    for key, (known, unknown) in tallies.items():
        area_name, road, outcome, crash_type = key
        fraction = fractions[imputation_key(area_name, road)]
        count = known + unknown * fraction
        if outcome is OutcomeLevel.ANY_INJURY_REPORTED:
            fatal_known, fatal_unknown = tallies.get(
                (area_name, road, OutcomeLevel.FATAL, crash_type), (0, 0)
            )
            fatal = fatal_known + fatal_unknown * fraction
            count = adjust_underreporting(count - fatal, fatal, u)
        adjusted[key] = count
        if crash_type is None:
            severity_counts[key[:3]] = CohortCounts(known, unknown, fraction)

    # Passenger VMT per (area, road class).
    vmt_by_key: dict[tuple[str, str, FunctionalClass], VmtRecord] = {}
    for rec in vmt_records:
        if rec.year != year:
            continue
        key = (rec.state, rec.county, rec.functional_class)
        if key in vmt_by_key:
            raise DataError(
                f"duplicate {rec.functional_class.value} VMT for {rec.state}/{rec.county} "
                f"in {year}: {vmt_by_key[key].vmt_miles!r} and {rec.vmt_miles!r} miles"
            )
        vmt_by_key[key] = rec
    area_by_name = {a.name: a for a in areas}
    exposure: dict[tuple[str, RoadClass], float] = {}
    for area in areas:
        for road in (RoadClass.FREEWAY, RoadClass.SURFACE_STREET):
            fclass = FunctionalClass(road.value)
            total = 0.0
            missing = []
            for county in sorted(area.counties):
                rec = vmt_by_key.get((area.state, county, fclass))
                if rec is None:
                    missing.append(county)
                    continue
                total += passenger_vmt(rec, shares, urban=params.urban)
            if missing:
                raise DataError(
                    f"no {fclass.value} VMT for {area.state}/{', '.join(missing)} in {year}"
                )
            exposure[(area.name, road)] = total

    cells: list[RateCell] = []
    for area in areas:
        for road in (RoadClass.FREEWAY, RoadClass.SURFACE_STREET):
            vmt = exposure[(area.name, road)]
            for outcome in OutcomeLevel:
                count = adjusted.get((area.name, road, outcome, None), 0.0)
                cells.append(_rate_cell(area, road, outcome, count, vmt))

    # Typed cells sort by stratum first, so each stratum's counts are
    # mapped in crash-type label order as its cells are built.
    typed_cells: list[RateCell] = []
    strata: dict[tuple[str, RoadClass, OutcomeLevel], dict[CrashType, float]] = {}
    for key in sorted(
        (key for key in adjusted if key[3] is not None),
        key=lambda k: (k[0], LABEL[k[1]], OUTCOME_RANK[k[2]], LABEL[k[3]]),
    ):
        area_name, road, outcome, crash_type = key
        cell = _rate_cell(
            area_by_name[area_name], road, outcome, adjusted[key], exposure[(area_name, road)],
            crash_type,
        )
        typed_cells.append(cell)
        strata.setdefault(key[:3], {})[crash_type] = cell.count

    # Counts are >= 0, so a stratum with any nonzero count has a
    # positive total.
    distributions = [
        (area_by_name[area_name], road, outcome, crash_type_distribution(counts))
        for (area_name, road, outcome), counts in strata.items()
        if any(counts.values())
    ]

    # One mileage grid over every severity cell with a positive rate,
    # its rows built in emit order: strata by (area name, road label,
    # outcome label), each with the effect ratios in numeric order.
    powered = sorted(
        (cell for cell in cells if cell.count > 0),
        key=lambda c: (c.geo.name, LABEL[c.road], LABEL[c.outcome]),
    )
    lambdas = np.array([cell.count / cell.vmt_miles for cell in powered])  # crashes per mile
    effects = sorted(params.effects)
    try:
        required, target = mileage_grid(lambdas, effects, params.alpha, params.power)
    except InvalidOptionError:
        # RunParams has checked alpha, power and every effect ratio, so
        # what the grid refuses is a stratum's rate: name the first one.
        for cell, lam in zip(powered, lambdas.tolist()):
            try:
                mileage_grid([lam], effects, params.alpha, params.power)
            except InvalidOptionError as exc:
                raise DataError(
                    f"{stratum_name(cell.geo.name, cell.road, cell.outcome)}: rate outside the "
                    f"power grid's range: {exc}"
                ) from None
        raise
    # lambda_ads * miles, evaluated as effect * lambda_human * miles
    expected = np.array(effects) * lambdas[:, np.newaxis] * required
    power_grid = [
        (cell.geo.name, LABEL[cell.road], LABEL[cell.outcome], *figures)
        for cell, required_row, expected_row, target_row in zip(
            powered, required.tolist(), expected.tolist(), target.tolist()
        )
        for figures in zip(effects, required_row, expected_row, target_row)
    ]

    diagnostics = {
        "records_in_year": records_in_year,
        "records_outside_areas": outside,
        "unknown_class_units": sum(unknowns.values()),
        "imputed_passenger_mass": {k: imputed_mass[k] for k in sorted(imputed_mass)},
        "unresolvable_road_records": unresolved_road,
    }
    return BenchmarkTables(
        cells, typed_cells, distributions, power_grid, diagnostics, severity_counts
    )


# --- full run -----------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _input_digests(config: RunConfig) -> dict[str, str]:
    """SHA-256 of every input table the run reads, for the report metadata."""
    digests = {}
    for source in config.sources:
        tables = {
            "crash": source.crash_table,
            "units": source.units_table,
            "persons": source.persons_table,
        }
        if source.vmt_table is not None:
            tables.update(vmt=source.vmt_table, vmt_sidecar=source.vmt_sidecar)
        for kind, path in tables.items():
            if path is not None:
                digests[f"{kind}:{source.name}"] = _sha256(path)
    for kind, path in (
        ("segments", config.segments_path),
        ("aliases", config.aliases_path),
        ("shares", config.shares_path),
    ):
        if path is not None:
            digests[kind] = _sha256(path)
    return digests


@_collector_paused()
def run(config: RunConfig) -> report_mod.BenchmarkReport:
    """Execute the full pipeline and write the report files, with the
    cyclic collector paused until it returns or raises.

    Raises ConfigError for configuration problems and DataError for
    data-contract violations.  Report files are written only after every
    stage before emission has succeeded, so a failed run writes none.
    """
    records, ingest_reports, geocode_stats = load_crashes(config)
    vmt_records, shares = load_exposure(config)
    index = build_index(config)
    tables = build_benchmark(
        records, index, vmt_records, shares, config.areas, config.year, config.params
    )

    diagnostics = dict(tables.diagnostics)
    diagnostics["geocoding"] = geocode_stats
    diagnostics["ingest"] = [
        {
            "source": r.source,
            "rows_read": dict(sorted(r.rows_read.items())),
            "records_emitted": r.records_emitted,
            "rows_skipped": len(r.skipped),
            "unknown_counts": dict(sorted(r.unknown_counts.items())),
            "missing_location": r.missing_location,
            "crashes_without_units": r.crashes_without_units,
        }
        for r in ingest_reports
    ]

    metadata = {
        "tool_version": report_mod.TOOL_VERSION,
        "config_digest": _sha256(config.config_path) if config.config_path else "",
        "input_digests": _input_digests(config),
        "year": config.year,
        "seed": config.seed,
        "params": asdict(config.params),
    }

    benchmark = report_mod.BenchmarkReport(
        metadata=metadata,
        cells=tables.cells + tables.typed_cells,
        distributions=tables.distributions,
        power_grid=tables.power_grid,
        diagnostics=diagnostics,
    )
    report_mod.emit_report(benchmark, config.out_dir, tag=str(config.year))
    return benchmark
