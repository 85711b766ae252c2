"""End-to-end benchmark construction from a single run configuration.

Stages, which ``run`` and the CLI subcommands compose: ``load_crashes``
(ingest and geocode), ``load_exposure`` (VMT and passenger shares),
``build_index`` (freeway segments), ``build_benchmark`` (road
classification, cohort selection, outcome/type taxonomy, rates and the
power grid), then report emission.  The run is single-threaded and
deterministic: record order follows the input files and fractional sums
reduce in a fixed order, so reports are byte-identical across runs.
``RunConfig.workers`` is validated but has no effect, and
``RunConfig.seed`` is only recorded in the report metadata.
"""

from __future__ import annotations

import hashlib
from configparser import ConfigParser
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from . import report as report_mod
from .cohort import (
    CohortCounts,
    filter_in_transport_passenger,
    known_class_histogram,
    passenger_fraction,
    passenger_vmt,
)
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
    PassengerShareTable,
    RoadClass,
    VmtRecord,
    validate_record,
)
from .power import DEFAULT_EFFECT_RATIOS, PowerQuery, mileage_for_power, required_mileage
from .rates import RateCell, adjust_underreporting, crash_type_distribution
from .roadclass import (
    DEFAULT_PROXIMITY_THRESHOLD_M,
    FreewaySegmentIndex,
    classify_road,
    load_alias_table,
    load_segments_geojson,
)
from .taxonomy import (
    DEFAULT_GATE_ORDER,
    GATE_NAMES,
    OutcomeLevel,
    classify_crash_type,
    classify_outcome,
)

OUTCOME_ORDER = (
    OutcomeLevel.POLICE_REPORTED,
    OutcomeLevel.ANY_INJURY_REPORTED,
    OutcomeLevel.ANY_AIRBAG_DEPLOYMENT,
    OutcomeLevel.SUSPECTED_SERIOUS_INJURY_PLUS,
    OutcomeLevel.FATAL,
)


@dataclass(frozen=True)
class RunParams:
    threshold_m: float = DEFAULT_PROXIMITY_THRESHOLD_M
    underreport_fraction: float = 0.32
    alpha: float = 0.05
    power: float = 0.8
    effects: tuple[float, ...] = DEFAULT_EFFECT_RATIOS
    any_route: bool = False
    impute_by_road: bool = False
    urban: bool = True
    type_gate_order: tuple[str, ...] = DEFAULT_GATE_ORDER

    def __post_init__(self):
        if self.threshold_m <= 0:
            raise ConfigError(f"threshold_m must be > 0, got {self.threshold_m}")
        if not 0.0 <= self.underreport_fraction < 1.0:
            raise ConfigError(
                f"underreport fraction must be in [0, 1), got {self.underreport_fraction}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.power < 1.0:
            raise ConfigError(f"power must be in (0, 1), got {self.power}")
        for effect in self.effects:
            if effect <= 0 or effect == 1.0:
                raise ConfigError(f"effect ratios must be positive and != 1, got {effect}")
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
    out_dir: Path
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
    state, _, counties = raw.partition(":")
    if not counties:
        raise ConfigError(f"area {name!r} must look like 'ST: County, County'")
    return GeoArea(
        name=name,
        state=state.strip(),
        counties=frozenset(c.strip() for c in counties.split(",") if c.strip()),
    )


def load_run_config(
    path: str | Path,
    out_dir: Optional[str | Path] = None,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    threshold_m: Optional[float] = None,
    underreport: Optional[float] = None,
    alpha: Optional[float] = None,
    power: Optional[float] = None,
) -> RunConfig:
    """Parse a run config INI; keyword arguments override file values.

    Referenced input files must exist at load time.
    """
    path = Path(path)
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    if not parser.read(path, encoding="utf-8"):
        raise ConfigError(f"run config not found: {path}")
    base = path.parent

    def input_path(option: str, required: bool = True) -> Optional[Path]:
        raw = parser.get("inputs", option, fallback=None)
        if raw is None:
            if required:
                raise ConfigError(f"{path}: [inputs] missing {option}")
            return None
        resolved = base / raw
        if not resolved.exists():
            raise ConfigError(f"{path}: input file not found: {resolved}")
        return resolved

    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    year = parser.getint("run", "year", fallback=None)
    if year is None:
        raise ConfigError(f"{path}: [run] needs a year")

    if parser.has_section("areas"):
        areas = tuple(_parse_area(n, v) for n, v in parser.items("areas"))
    else:
        areas = DEFAULT_GEO_AREAS

    sources = []
    for section in parser.sections():
        if not section.startswith("source."):
            continue
        name = section[len("source."):]

        def src_path(option: str, required: bool = False) -> Optional[Path]:
            raw = parser.get(section, option, fallback=None)
            if raw is None:
                if required:
                    raise ConfigError(f"{path}: [{section}] missing {option}")
                return None
            resolved = base / raw
            if not resolved.exists():
                raise ConfigError(f"{path}: input file not found: {resolved}")
            return resolved

        mapping = parser.get(section, "mapping", fallback=None)
        if mapping is None:
            raise ConfigError(f"{path}: [{section}] missing mapping")
        sources.append(
            SourceSpec(
                name=name,
                mapping=mapping,
                crash_table=src_path("crash_table", required=True),
                units_table=src_path("units_table"),
                persons_table=src_path("persons_table"),
                vmt_table=src_path("vmt_table"),
                vmt_mapping=parser.get(section, "vmt_mapping", fallback=None),
                vmt_sidecar=src_path("vmt_sidecar"),
                vmt_sidecar_mapping=parser.get(section, "vmt_sidecar_mapping", fallback=None),
            )
        )

    def param(option: str, override, convert, default):
        if override is not None:
            return convert(override)
        raw = parser.get("params", option, fallback=None)
        return convert(raw) if raw is not None else default

    effects_raw = parser.get("params", "effects", fallback=None)
    effects = (
        tuple(float(e.strip()) for e in effects_raw.split(",") if e.strip())
        if effects_raw
        else DEFAULT_EFFECT_RATIOS
    )
    gates_raw = parser.get("params", "type_gate_order", fallback=None)
    gate_order = (
        tuple(g.strip() for g in gates_raw.split(",") if g.strip())
        if gates_raw
        else DEFAULT_GATE_ORDER
    )
    params = RunParams(
        threshold_m=param("threshold_m", threshold_m, float, DEFAULT_PROXIMITY_THRESHOLD_M),
        underreport_fraction=param("underreport", underreport, float, 0.32),
        alpha=param("alpha", alpha, float, 0.05),
        power=param("power", power, float, 0.8),
        effects=effects,
        any_route=parser.getboolean("params", "any_route", fallback=False),
        impute_by_road=parser.getboolean("params", "impute_by_road", fallback=False),
        urban=parser.getboolean("params", "urban", fallback=True),
        type_gate_order=gate_order,
    )

    raw_out = out_dir if out_dir is not None else parser.get("run", "out_dir", fallback="out")
    resolved_out = Path(raw_out)
    if not resolved_out.is_absolute() and out_dir is None:
        resolved_out = base / resolved_out

    return RunConfig(
        year=year,
        areas=areas,
        sources=tuple(sources),
        segments_path=input_path("segments"),
        shares_path=input_path("shares"),
        aliases_path=input_path("aliases", required=False),
        geocoder_cache=input_path("geocoder_cache", required=False),
        out_dir=resolved_out,
        seed=seed if seed is not None else parser.getint("run", "seed", fallback=0),
        workers=workers if workers is not None else parser.getint("run", "workers", fallback=1),
        params=params,
        config_path=path,
    )


# --- input stages ------------------------------------------------------------


def _base_dir(config: RunConfig) -> Path:
    return Path(".") if config.config_path is None else config.config_path.parent


def load_crashes(
    config: RunConfig,
) -> tuple[list[CrashRecord], list[IngestReport], dict[str, int]]:
    """Ingest every source's crash, unit and person tables in config
    order, geocoding location-less records when a geocoder cache is
    configured.  Returns the records, one IngestReport per source and
    the geocoding tallies."""
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
    power_grid: list[dict]
    diagnostics: dict
    cohort_counts: dict = field(default_factory=dict)


def _area_for(record: CrashRecord, areas: tuple[GeoArea, ...]) -> Optional[GeoArea]:
    for area in areas:
        if area.contains(record.state, record.county):
            return area
    return None


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
    and the required-mileage grid."""
    in_year = [r for r in records if r.year == year]
    classifications = [
        classify_road(r, index, threshold_m=params.threshold_m, any_route=params.any_route)
        for r in in_year
    ]

    area_of: list[Optional[GeoArea]] = [_area_for(r, areas) for r in in_year]
    outside = sum(1 for a in area_of if a is None)

    # Imputation basis: known-class histogram at the geographic level
    # (optionally split by road class).
    hist_key = lambda area, road: (area.name, road) if params.impute_by_road else area.name
    histograms: dict = {}
    for record, area, cls in zip(in_year, area_of, classifications):
        if area is None:
            continue
        histograms.setdefault(hist_key(area, cls.road_class), []).append(record)
    fractions = {}
    for key, recs in histograms.items():
        hist = known_class_histogram(recs)
        fractions[key] = passenger_fraction(hist) if hist else None

    selections = filter_in_transport_passenger(in_year)

    # Tallies per (area, road, outcome, crash type) as (known, unknown,
    # imputed) triples.  Crash type None is the severity cell: every unit
    # bumps it and then its own typed cell, so each severity count sums
    # its typed counts.  Known units carry weight one, unknown-class
    # units the area's passenger fraction.
    tallies: dict = {}
    imputed_mass: dict[str, float] = {}
    unknown_units = 0
    unresolved_road = 0

    for record, area, cls, selection in zip(in_year, area_of, classifications, selections):
        if area is None:
            continue
        road = cls.road_class
        if cls.provenance.value == "Unresolvable":
            unresolved_road += 1
        outcomes = classify_outcome(record)
        weighted_units = [(unit, 1.0, False) for unit in selection.passenger_units]
        if selection.unknown_units:
            fraction = fractions.get(hist_key(area, road))
            if fraction is None:
                raise DataError(
                    f"area {area.name}: unknown-class units present but no known "
                    f"classes to impute from"
                )
            for unit in selection.unknown_units:
                weighted_units.append((unit, fraction, True))
                imputed_mass[area.name] = imputed_mass.get(area.name, 0.0) + fraction
                unknown_units += 1
        for unit, weight, is_unknown in weighted_units:
            crash_type = classify_crash_type(
                record, unit.unit_id, road, gate_order=params.type_gate_order
            )
            for outcome in outcomes:
                for key in (
                    (area.name, road, outcome, None),
                    (area.name, road, outcome, crash_type),
                ):
                    entry = tallies.setdefault(key, [0.0, 0, 0.0])
                    if is_unknown:
                        entry[1] += 1
                        entry[2] += weight
                    else:
                        entry[0] += weight

    cohort_counts = {key: CohortCounts(*entry) for key, entry in tallies.items()}
    counts = {key: cc.final_count for key, cc in cohort_counts.items()}

    # Underreporting adjustment: any-injury counts only, fatal portion
    # passed through untouched.
    u = params.underreport_fraction
    adjusted: dict = {}
    for key, count in counts.items():
        area_name, road, outcome, crash_type = key
        if outcome is OutcomeLevel.ANY_INJURY_REPORTED:
            fatal = counts.get((area_name, road, OutcomeLevel.FATAL, crash_type), 0.0)
            adjusted[key] = adjust_underreporting(count - fatal, fatal, u)
        else:
            adjusted[key] = count

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
            for outcome in OUTCOME_ORDER:
                cells.append(
                    RateCell(
                        geo=area,
                        road=road,
                        outcome=outcome,
                        count=adjusted.get((area.name, road, outcome, None), 0.0),
                        vmt_miles=vmt,
                    )
                )

    # Typed cells sort by stratum first, so each stratum's cells are
    # grouped as they are built.
    typed_cells: list[RateCell] = []
    strata: dict[tuple[str, RoadClass, OutcomeLevel], list[RateCell]] = {}
    for key in sorted(
        (key for key in adjusted if key[3] is not None),
        key=lambda k: (k[0], k[1].value, OUTCOME_ORDER.index(k[2]), k[3].value),
    ):
        area_name, road, outcome, crash_type = key
        cell = RateCell(
            geo=area_by_name[area_name],
            road=road,
            outcome=outcome,
            count=adjusted[key],
            vmt_miles=exposure[(area_name, road)],
            crash_type=crash_type,
        )
        typed_cells.append(cell)
        strata.setdefault(key[:3], []).append(cell)

    distributions = [
        (area_by_name[area_name], road, outcome, crash_type_distribution(stratum))
        for (area_name, road, outcome), stratum in strata.items()
        if sum(c.count for c in stratum) > 0
    ]

    power_grid = []
    for cell in cells:
        if cell.count <= 0:
            continue
        lam = cell.count / cell.vmt_miles  # crashes per mile
        for effect in params.effects:
            query = PowerQuery(lam, effect, params.alpha, params.power)
            result = required_mileage(query)
            power_grid.append(
                {
                    "geo": cell.geo.name,
                    "road": cell.road.value,
                    "outcome": cell.outcome.value,
                    "effect_ratio": effect,
                    "required_miles": result.required_miles,
                    "expected_ads_crashes": result.expected_ads_crashes,
                    "target_power_miles": mileage_for_power(
                        lam, effect, params.alpha, params.power
                    ),
                }
            )

    violation_rules: dict[str, int] = {}
    for record in in_year:
        for violation in validate_record(record):
            violation_rules[violation.rule] = violation_rules.get(violation.rule, 0) + 1

    diagnostics = {
        "records_in_year": len(in_year),
        "records_outside_areas": outside,
        "unknown_class_units": unknown_units,
        "imputed_passenger_mass": {k: imputed_mass[k] for k in sorted(imputed_mass)},
        "unresolvable_road_records": unresolved_road,
        "invariant_violations": dict(sorted(violation_rules.items())),
    }
    severity_counts = {key[:3]: cc for key, cc in cohort_counts.items() if key[3] is None}
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


def run(config: RunConfig) -> report_mod.BenchmarkReport:
    """Execute the full pipeline and write the report files.

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
        }
        for r in ingest_reports
    ]

    metadata = {
        "tool_version": report_mod.TOOL_VERSION,
        "config_digest": _sha256(config.config_path) if config.config_path else "",
        "input_digests": _input_digests(config),
        "year": config.year,
        "seed": config.seed,
        "params": {
            "threshold_m": config.params.threshold_m,
            "underreport_fraction": config.params.underreport_fraction,
            "alpha": config.params.alpha,
            "power": config.params.power,
            "effects": list(config.params.effects),
            "any_route": config.params.any_route,
            "impute_by_road": config.params.impute_by_road,
            "urban": config.params.urban,
            "type_gate_order": list(config.params.type_gate_order),
        },
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
