"""Declarative per-source field mappings.

A mapping config is an INI file describing how one source's delimited
tables translate into the canonical schema:

    [source]
    name = tx
    delimiter = ,

    [columns]
    crash_id = Crash_ID          ; canonical field = source column
    state = const:TX             ; or a declared constant
    unit.vehicle_class = Veh_Body_Styl_ID
    person.injury = Prsn_Injry_Sev_ID

    [dictionary.unit.vehicle_class]
    P2 = Passenger               ; source code -> canonical member
    * = Unknown                  ; explicit fallback, required

    [derive.unit.vehicle_class]
    rule.1 = HeavyVehicle when Cmv_GVWR >= 10000
    rule.2 = Passenger when Veh_Body_Styl_ID in P2|P4|SV

Unprefixed fields are crash-level; ``unit.`` and ``person.`` prefixes
bind the vehicle and person tables.  Derive rules are evaluated in
order against the raw row; the first match wins, and a miss falls back
to the column/dictionary path.  A comparison reads both sides as
``float_or_none`` numbers (ingest's rule too); if either is not one,
only ``==`` and ``!=`` match, comparing text.  A coded field's
dictionary values and derive results must be tokens of its vocabulary
(``VOCABULARIES``), and ``resolve`` returns its value.  Normalization never fails: unmapped codes
degrade to the field's unknown value and are counted.  A config is
checked when it loads: [columns], [dictionary.F] and [derive.F] name
only ``CANONICAL_FIELDS``, [source] holds only ``SOURCE_OPTIONS``, and
any other field, option or section is a ConfigError naming it.
``compile`` checks a table's mapping against its header and makes its
one row converter, which reads the fields that differ per row and
decides the others once per distinct tuple of the columns they read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import eq, ge, gt, itemgetter, le, lt, ne
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .model import (
    ConfigError,
    DataError,
    InvalidOptionError,
    JunctionRelation,
    KabcoLevel,
    MannerOfCollision,
    VehicleClass,
    check_names,
    ini_sections,
    read_ini,
)

CRASH_REQUIRED = ("crash_id", "state", "county", "year")
UNIT_REQUIRED = ("unit.crash_id", "unit.unit_id")
PERSON_REQUIRED = ("person.crash_id",)
VMT_REQUIRED = ("state", "county", "functional_class", "year", "vmt_miles")
CRASH_FIELDS = CRASH_REQUIRED + (
    "latitude", "longitude", "primary_road", "secondary_road",
    "worst_injury", "junction_relation", "manner_of_collision",
)
UNIT_FIELDS = UNIT_REQUIRED + (
    "unit.vehicle_class", "unit.in_transport", "unit.airbag", "unit.first_contact_event",
)
PERSON_FIELDS = PERSON_REQUIRED + ("person.unit_id", "person.injury", "person.airbag")
# Every field a mapping config may bind, read by ingest for one of the
# four tables (a VMT table reads exactly its required fields).
CANONICAL_FIELDS = tuple(dict.fromkeys(CRASH_FIELDS + UNIT_FIELDS + PERSON_FIELDS + VMT_REQUIRED))
SOURCE_OPTIONS = ("name", "delimiter", "vmt_scale")

UNKNOWN_TOKEN = "Unknown"
FALLBACK_KEY = "*"


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class Const:
    value: str


Binding = Union[Column, Const]
# A table's mapping compiled against its header: raw row values -> the
# values of the fields read per row, then what its decide function made of
# the others (see ``MappingConfig.compile``).
RowConverter = Callable[[Sequence[str]], list]


@dataclass(frozen=True)
class Vocabulary:
    """The canonical tokens of one coded field: token -> value, and the
    value that any other token degrades to.  With ``ignore_case`` the
    tokens are matched upper-cased."""

    values: Mapping[str, Any]
    unknown: Any
    ignore_case: bool = False

    def key(self, token: str) -> str:
        return token.upper() if self.ignore_case else token

    def read(self, token: str) -> Any:
        return self.values.get(self.key(token), self.unknown)


def _members(enum) -> Vocabulary:
    """An enum's values, exact case, plus ``Unknown`` for its UNKNOWN member."""
    return Vocabulary({m.value: m for m in enum} | {UNKNOWN_TOKEN: enum.UNKNOWN}, enum.UNKNOWN)


# true/1/yes, false/0/no and unknown, in any case.
_FLAG_VALUES = {"TRUE": True, "1": True, "YES": True, "FALSE": False, "0": False, "NO": False}
FLAGS = Vocabulary(_FLAG_VALUES | {"UNKNOWN": None}, None, ignore_case=True)
_KABCO = _members(KabcoLevel)

# Every coded field and its vocabulary.  functional_class is not here: it
# has no unknown value, so a VMT row holding another token is an error.
VOCABULARIES: dict[str, Vocabulary] = {
    "worst_injury": _KABCO,
    "junction_relation": _members(JunctionRelation),
    "manner_of_collision": _members(MannerOfCollision),
    "unit.vehicle_class": _members(VehicleClass),
    "unit.in_transport": FLAGS,
    "unit.airbag": FLAGS,
    "person.injury": _KABCO,
    "person.airbag": FLAGS,
}

_COMPARE = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq, "!=": ne}


def float_or_none(raw: Optional[str]) -> Optional[float]:
    """The finite number a field holds; None when it is empty,
    unparseable, infinite or NaN.  An underscore or a non-ASCII
    character makes a field unparseable, though ``float`` and ``int``
    accept them: ``1_0`` would read as 10, and Arabic-Indic digits as
    their values."""
    if not raw or "_" in raw or not raw.isascii():
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class Condition:
    column: str
    op: str
    values: tuple[str, ...] = ()

    def matches(self, row: Mapping[str, str]) -> bool:
        raw = row.get(self.column)
        raw = raw.strip() if raw is not None else ""
        if self.op == "missing":
            return raw == ""
        if self.op == "present":
            return raw != ""
        if raw == "":
            return False
        if self.op == "in":
            return raw.upper() in self.values
        if self.op == "not in":
            return raw.upper() not in self.values
        compare = _COMPARE[self.op]
        number, bound = float_or_none(raw), float_or_none(self.values[0])
        if number is None or bound is None:  # not numbers: only (in)equality compares text
            return self.op in ("==", "!=") and compare(raw.upper(), self.values[0])
        return compare(number, bound)


@dataclass(frozen=True)
class DeriveRule:
    result: str
    conditions: tuple[Condition, ...]

    def matches(self, row: Mapping[str, str]) -> bool:
        return all(cond.matches(row) for cond in self.conditions)


_COND_RX = re.compile(
    r"^(?P<col>\S+)\s+(?:(?P<setop>not\s+in|in)\s+(?P<set>\S+)"
    r"|(?P<cmp><=|>=|==|!=|<|>)\s*(?P<val>\S+)"
    r"|(?P<nullop>missing|present))$"
)


def _parse_condition(text: str) -> Condition:
    m = _COND_RX.match(text.strip())
    if not m:
        raise ConfigError(f"cannot parse derive condition: {text!r}")
    col = m.group("col")
    if m.group("setop"):
        op = "not in" if m.group("setop").startswith("not") else "in"
        values = tuple(v.strip().upper() for v in m.group("set").split("|") if v.strip())
        return Condition(col, op, values)
    if m.group("cmp"):
        return Condition(col, m.group("cmp"), (m.group("val").upper(),))
    return Condition(col, m.group("nullop"))


def _parse_rule(text: str) -> DeriveRule:
    if " when " not in text:
        raise ConfigError(f"derive rule needs '<result> when <conditions>': {text!r}")
    result, _, conds = text.partition(" when ")
    conditions = tuple(_parse_condition(c) for c in conds.split(" and "))
    return DeriveRule(result.strip(), conditions)


@dataclass
class MappingConfig:
    """Parsed mapping config for one source."""

    name: str
    delimiter: str = ","
    vmt_scale: float = 1.0
    columns: dict[str, Binding] = field(default_factory=dict)
    dictionaries: dict[str, dict[str, str]] = field(default_factory=dict)
    derives: dict[str, tuple[DeriveRule, ...]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "MappingConfig":
        parser = read_ini(path, "mapping config")  # column names keep their case
        check_names(
            path,
            None,
            (s for s in ini_sections(parser) if not s.startswith(("dictionary.", "derive."))),
            ("source", "columns", "dictionary.FIELD", "derive.FIELD"),
            "section",
        )
        if not parser.has_section("source"):
            raise ConfigError(f"{path}: missing [source] section")
        check_names(path, "source", parser.options("source"), SOURCE_OPTIONS, "option")
        name = parser.get("source", "name", fallback=None)
        if not name:
            raise ConfigError(f"{path}: [source] needs a name")
        delimiter = parser.get("source", "delimiter", fallback=",")
        if delimiter == "tab":
            delimiter = "\t"
        if delimiter not in (",", "\t"):
            raise ConfigError(f"{path}: delimiter must be ',' or tab")
        raw_scale = parser.get("source", "vmt_scale", fallback="1")
        try:
            vmt_scale = float(raw_scale)
        except ValueError:
            vmt_scale = math.nan
        if not 0.0 < vmt_scale < math.inf:
            raise InvalidOptionError(
                f"{path}: [source] vmt_scale must be a finite number > 0, got {raw_scale!r}"
            )

        columns: dict[str, Binding] = {}
        if parser.has_section("columns"):
            check_names(path, "columns", parser.options("columns"), CANONICAL_FIELDS, "field")
            for fname, raw in parser.items("columns"):
                raw = raw.strip()
                if raw.startswith("const:"):
                    columns[fname] = Const(raw[len("const:"):].strip())
                elif raw:
                    columns[fname] = Column(raw)

        dictionaries: dict[str, dict[str, str]] = {}
        derives: dict[str, tuple[DeriveRule, ...]] = {}
        for section in parser.sections():
            fname = section.partition(".")[2]
            if section.startswith(("dictionary.", "derive.")):
                check_names(path, section, (fname,), CANONICAL_FIELDS, "field")
            if section.startswith("dictionary."):
                mapping = {
                    key.strip().upper() if key != FALLBACK_KEY else FALLBACK_KEY: val.strip()
                    for key, val in parser.items(section)
                }
                if FALLBACK_KEY not in mapping:
                    raise ConfigError(
                        f"{path}: [dictionary.{fname}] needs an explicit '*' fallback"
                    )
                _check_tokens(path, section, fname, mapping.values())
                dictionaries[fname] = mapping
            elif section.startswith("derive."):
                rules = [
                    _parse_rule(parser.get(section, key))
                    for key in sorted(
                        parser.options(section),
                        key=lambda k: [
                            (0, int(p)) if p.isdigit() else (1, p) for p in k.split(".")
                        ],
                    )
                ]
                _check_tokens(path, section, fname, (rule.result for rule in rules))
                derives[fname] = tuple(rules)
        for fname, binding in columns.items():
            if isinstance(binding, Const) and fname not in dictionaries:
                _check_tokens(path, "columns", fname, (binding.value,))
        return cls(
            name=name,
            delimiter=delimiter,
            vmt_scale=vmt_scale,
            columns=columns,
            dictionaries=dictionaries,
            derives=derives,
        )

    def validate(self, required: tuple[str, ...]) -> None:
        """Every required canonical field needs a binding or constant."""
        missing = [f for f in required if f not in self.columns]
        if missing:
            raise ConfigError(
                f"mapping {self.name!r}: required fields unbound: {', '.join(missing)}"
            )

    def resolve(self, fname: str, row: Mapping[str, str]) -> tuple[Any, bool]:
        """Resolve one canonical field from a raw row.

        Returns (value, degraded): the value (None when the field is
        absent for this row) and whether the '*' fallback fired.  A coded
        field's value is read from its vocabulary, and it is also
        degraded when it is the field's unknown value.
        """
        token, degraded = self._token(fname, row)
        vocabulary = VOCABULARIES.get(fname)
        if vocabulary is None or token is None:
            return token, degraded
        value = vocabulary.read(token)
        return value, degraded or value is vocabulary.unknown

    def _token(self, fname: str, row: Mapping[str, str]) -> tuple[Optional[str], bool]:
        for rule in self.derives.get(fname, ()):
            if rule.matches(row):
                return rule.result, False

        binding = self.columns.get(fname)
        if binding is None:
            return None, False
        if isinstance(binding, Const):
            raw = binding.value
        else:
            raw = row.get(binding.name)
            raw = raw.strip() if raw is not None else ""
        if raw == "":
            return None, False

        dictionary = self.dictionaries.get(fname)
        if dictionary is not None:
            mapped = dictionary.get(raw.upper())
            if mapped is None:
                return dictionary[FALLBACK_KEY], True
            return mapped, False
        return raw, False

    def compile(
        self,
        header: Sequence[str],
        fields: Sequence[str],
        required: Sequence[str] = (),
        table: str = "table",
        decided: Sequence[str] = (),
        decide: Callable[..., Any] = lambda degraded: degraded,
    ) -> RowConverter:
        """Check a table against this mapping and compile its row converter.

        A required field left unbound is a ConfigError (``validate``); no
        header, none with the column bound to one, or one that repeats a
        column that ``fields`` or ``decided`` read (bound or named by a
        derive rule), is a DataError naming the mapping and ``table``.
        The converter takes a row of raw values in header order and
        returns a list: the values of ``fields``, in order, as ``resolve``
        gives them for the row as a dict, then ``decide`` called with the
        values of ``decided`` and the tuple of the names of the compiled
        fields that came out degraded (by default, that tuple alone).  A
        row shorter than the header is padded with empty values, so its
        missing trailing fields read as absent, as they do in the dict.

        Only a field of ``fields`` bound to a header column with no
        dictionary, derive rule or vocabulary (ids, coordinates, road
        names) is read per row.  The other fields, and what ``decide``
        makes of them, are decided once per distinct tuple of the raw
        values of the columns they read, in one memo that lives as long
        as the converter, so ``decide`` must depend on its arguments
        alone.  A column that only per-row fields read is never part of
        the memo key.
        """
        self.validate(required)
        if required and not header:
            raise DataError(f"{self.name}/{table}: empty or malformed header")
        index: dict[str, int] = {}
        repeated: dict[str, tuple[int, int]] = {}  # column -> its first two positions
        for position, name in enumerate(header):
            if name in index:
                repeated.setdefault(name, (index[name], position))
            index.setdefault(name, position)
        for fname in required:
            binding = self.columns[fname]
            if isinstance(binding, Column) and binding.name not in index:
                raise DataError(
                    f"{self.name}/{table}: header missing column {binding.name!r} "
                    f"(bound to {fname})"
                )

        names = (*fields, *decided)
        width = len(fields)
        per_row: list[tuple[int, int]] = []  # (slot, position of its column)
        keyed: dict[str, int] = {}  # column -> its place in the memo key
        # (slot, field, the columns it reads, their places in the key, and
        # its resolutions by the values of those columns)
        coded: list[tuple[int, str, list[str], Callable, dict]] = []
        for slot, fname in enumerate(names):
            binding = self.columns.get(fname)
            rules = self.derives.get(fname, ())
            read = [cond.column for rule in rules for cond in rule.conditions]
            read += [binding.name] if isinstance(binding, Column) else []
            for column in read:
                if column in repeated:
                    first, second = repeated[column]
                    raise DataError(
                        f"{self.name}/{table}: header repeats column {column!r} "
                        f"(positions {first + 1} and {second + 1}), which {fname} reads"
                    )
            read = [column for column in dict.fromkeys(read) if column in index]
            if slot < width and read and not (
                rules or fname in self.dictionaries or fname in VOCABULARIES
            ):
                per_row.append((slot, index[binding.name]))
            else:
                places = [keyed.setdefault(column, len(keyed)) for column in read]
                coded.append((slot, fname, read, _picker(places), {}))
        read_key = _picker([index[column] for column in keyed])
        memo: dict[tuple, list] = {}
        header_width = len(header)

        def convert(row: Sequence[str]) -> list:
            if len(row) < header_width:
                row = [*row, *[""] * (header_width - len(row))]
            key = read_key(row)
            entry = memo.get(key)
            if entry is None:
                values: list = [None] * len(names)
                degraded: tuple[str, ...] = ()
                # Keys repeat most values of each field: a field is resolved
                # once per distinct tuple of its own columns.
                for slot, fname, columns, pick, resolved in coded:
                    own = pick(key)
                    value = resolved.get(own)
                    if value is None:
                        value = resolved[own] = self.resolve(fname, dict(zip(columns, own)))
                    values[slot], bad = value
                    if bad:
                        degraded += (fname,)
                entry = memo[key] = values[:width] + [decide(*values[width:], degraded)]
            values = entry.copy()
            for slot, position in per_row:
                values[slot] = row[position].strip() or None
            return values

        return convert


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*positions)``, returning a tuple for any number of positions."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions) if positions else lambda row: ()


def _check_tokens(path, section: str, fname: str, tokens: Iterable[str]) -> None:
    """Every token a config gives a coded field must be in its vocabulary."""
    vocabulary = VOCABULARIES.get(fname)
    if vocabulary is None:
        return
    for token in tokens:
        if vocabulary.key(token) not in vocabulary.values:
            raise ConfigError(
                f"{path}: [{section}] {token!r} is not a {fname} token; expected one of "
                f"{', '.join(vocabulary.values)}"
            )
