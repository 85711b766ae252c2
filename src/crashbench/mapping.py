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
``compile`` checks a table's mapping against its header and hands its
reader the pieces of a ``CompiledTable``: an ``itemgetter`` of the memo
key, the table's one decision memo, which decides the other fields once
per distinct tuple of the columns they read, one picker of the fields
that differ per row, and for each field decided apart (a crash table's
county) an ``itemgetter`` of its own columns and a memo of its own, so
that its many values do not multiply the decision memo's keys.  Columns
that the mapping reads and the header lacks read as empty, and
``compile`` names them in an ``AbsentColumnWarning``.
"""

from __future__ import annotations

import math
import re
import warnings
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
    Memo,
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


class AbsentColumnWarning(UserWarning):
    """A table's header lacks columns that its mapping binds or that a
    derive rule reads; fields read them as empty (``MappingConfig.compile``)."""


@dataclass(frozen=True)
class Column:
    name: str


@dataclass(frozen=True)
class Const:
    value: str


Binding = Union[Column, Const]


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
        absent for this row: unbound, or an empty column, constant or
        dictionary value) and whether the '*' fallback fired.  A coded
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
                return dictionary[FALLBACK_KEY] or None, True
            return mapped or None, False
        return raw, False

    def compile(
        self,
        header: Sequence[str],
        fields: Sequence[str],
        required: Sequence[str] = (),
        table: str = "table",
        decided: Sequence[str] = (),
        decide: Callable[..., Any] = lambda degraded: degraded,
        apart: Mapping[str, Callable[[Any], Any]] = {},
    ) -> CompiledTable:
        """Check a table against this mapping and compile it for its reader.

        A required field left unbound is a ConfigError (``validate``); no
        header, none with the column bound to one, or one that repeats a
        column that ``fields``, ``decided`` or ``apart`` read (bound or
        named by a derive rule), is a DataError naming the mapping and
        ``table``.  Any other column they read that the header lacks reads
        as empty, and one ``AbsentColumnWarning`` names them all.

        ``fields`` are read per row, through the table's picker.  The
        other fields, ``decided``, and what ``decide`` makes of them, are
        decided once per distinct tuple of the raw values of the columns
        they read, in the table's one decision memo: ``decide`` is called
        with the values of ``decided``, as ``resolve`` gives them for the
        row as a dict, and the tuple of the names of the compiled fields
        that came out degraded (by default, that tuple alone), so it must
        depend on its arguments alone.  A field of ``fields`` that is not
        bound to a plain column (see ``CompiledTable``) is decided from
        the memo's key too, so its degraded flag reaches ``decide``; a
        column that only plain per-row fields read is never part of the
        key.

        Each field of ``apart`` is decided apart: its function is called
        with the field's ``resolve`` value (its degraded flag reaches no
        decision), once per distinct tuple of the field's own columns, in
        a memo of its own.  Its columns are part of the decision memo's
        key only if a field of ``decided`` reads them too.  The memo key
        holds every column it reads, so a column with many distinct values,
        such as a statewide table's county, would multiply the distinct
        keys by its values; decided apart, it costs one key per value.
        See ``CompiledTable`` for how a reader uses the pieces.
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
        absent: dict[str, list[str]] = {}  # column -> the fields that read it

        def columns_read(fname: str) -> list[str]:
            """The columns ``fname`` reads that the header has, in order,
            each once.  A repeated one is a DataError; an absent one joins
            ``absent``."""
            binding = self.columns.get(fname)
            rules = self.derives.get(fname, ())
            read = [cond.column for rule in rules for cond in rule.conditions]
            read += [binding.name] if isinstance(binding, Column) else []
            for column in dict.fromkeys(read):
                if column in repeated:
                    first, second = repeated[column]
                    raise DataError(
                        f"{self.name}/{table}: header repeats column {column!r} "
                        f"(positions {first + 1} and {second + 1}), which {fname} reads"
                    )
                if column not in index:
                    absent.setdefault(column, []).append(fname)
            return [column for column in dict.fromkeys(read) if column in index]

        names = (*fields, *decided)
        plain: list[int] = []  # the positions of the per-row fields bound to plain columns
        # Each per-row field's value, as the single-row call gives it.
        values: list[Callable[[Sequence[str]], Any]] = []
        keyed: dict[str, int] = {}  # column -> its place in the memo key
        # (slot, field, the places of its columns in the memo key, and its
        # resolutions by the values of those columns)
        coded: list[tuple[int, str, Callable, Memo]] = []
        for slot, fname in enumerate(names):
            read = columns_read(fname)
            if slot < len(fields) and read and not (
                self.derives.get(fname) or fname in self.dictionaries or fname in VOCABULARIES
            ):
                position = index[self.columns[fname].name]
                plain.append(position)
                values.append(lambda row, position=position: row[position].strip() or None)
                continue
            places = [keyed.setdefault(column, len(keyed)) for column in read]
            resolved = Memo(
                lambda own, fname=fname, read=read: self.resolve(fname, dict(zip(read, own)))
            )
            coded.append((slot, fname, _picker(places), resolved))
            if slot < len(fields):
                own = _picker([index[column] for column in read])
                values.append(lambda row, own=own, resolved=resolved: resolved[own(row)][0])

        def decide_key(key) -> Any:
            if len(keyed) == 1:
                key = (key,)
            decided_values: list = [None] * len(names)
            degraded: tuple[str, ...] = ()
            # Keys repeat most values of each field: a field is resolved
            # once per distinct tuple of its own columns.
            for slot, fname, own, resolved in coded:
                decided_values[slot], bad = resolved[own(key)]
                if bad:
                    degraded += (fname,)
            return decide(*decided_values[len(fields):], degraded)

        apart_memos = []
        for fname, make in apart.items():
            read = columns_read(fname)
            one = len(read) == 1  # then the key is the column's value, not a tuple
            apart_memos.append((
                _getter([index[column] for column in read]),
                Memo(lambda key, fname=fname, read=read, one=one, make=make: make(
                    self.resolve(fname, dict(zip(read, (key,) if one else key)))[0]
                )),
            ))
        if absent:
            lacking = ", ".join(
                f"{column!r} (read by {', '.join(by)})" for column, by in absent.items()
            )
            warnings.warn(AbsentColumnWarning(
                f"{self.name}/{table}: header lacks {lacking}; each reads as empty"
            ), stacklevel=2)

        if len(plain) == len(fields):
            pick = _getter(plain)
        elif len(fields) == 1:
            pick = lambda row: _text(values[0](row))  # noqa: E731
        else:
            pick = lambda row: tuple(_text(value(row)) for value in values)  # noqa: E731
        key_of = _getter([index[column] for column in keyed])
        return CompiledTable(
            key_of, Memo(decide_key), pick, len(header), tuple(values), tuple(apart_memos)
        )


@dataclass(frozen=True)
class CompiledTable:
    """A table's mapping compiled against its header (``MappingConfig.compile``).

    A reader takes each row, of raw values in header order, in three
    steps, and a fourth for each field decided apart.  When the row's
    decisions are known and its per-row fields are bound to plain
    columns, none but the first makes a Python-level call:

    - a row shorter than ``width`` is ``padded`` with empty values, so its
      missing trailing fields read as absent;
    - ``decisions[key_of(row)]`` is the decision on the row's coded
      columns: ``key_of`` is an ``itemgetter`` of the columns the memo key
      holds, and ``decisions`` the table's decision memo, a dict that
      decides a key on its first lookup and keeps it;
    - ``pick(row)`` gives the per-row fields, one value for one field and
      a tuple for more, as ``itemgetter`` does.  The reader reads each as
      ``value.strip() or None``.  A field bound to a plain header column is
      picked raw, by one ``itemgetter`` over them all; in a mapping where a
      per-row field is unbound, absent from the header, a constant, or read
      through a dictionary or derive rule, the picker is Python-level and
      gives each field's ``resolve`` value, ``""`` for None (it serves text
      fields, not coded ones);
    - ``memo[key_of(row)]``, for each ``(key_of, memo)`` of ``apart``, is
      the decision on a field decided apart, whatever its binding:
      ``key_of`` is an ``itemgetter`` of the field's own columns (the
      value itself for one column) and ``memo`` decides each distinct
      key once.  Apart from the table's other coded columns, such a key
      has as many values as the field, not as many as the combinations
      of every coded column.

    Called on a row, it gives the single-row list those steps make: the
    values of the per-row fields, in order, as ``resolve`` gives them
    (``values``, one function per field), the decisions on the fields
    decided apart, in order, then the row's decision.
    """

    key_of: Callable[[Sequence[str]], Any]
    decisions: Memo
    pick: Callable[[Sequence[str]], Any]
    width: int
    values: tuple[Callable[[Sequence[str]], Any], ...]
    apart: tuple[tuple[Callable[[Sequence[str]], Any], Memo], ...] = ()

    def padded(self, row: Sequence[str]) -> list[str]:
        return [*row, *[""] * (self.width - len(row))]

    def __call__(self, row: Sequence[str]) -> list:
        if len(row) < self.width:
            row = self.padded(row)
        return [
            *(value(row) for value in self.values),
            *(memo[key_of(row)] for key_of, memo in self.apart),
            self.decisions[self.key_of(row)],
        ]


def _text(value: Optional[str]) -> str:
    """A resolved text value as a picker gives it: None reads as ``""``."""
    return "" if value is None else value


def _getter(positions: Sequence[int]) -> Callable[[Sequence], Any]:
    """``itemgetter(*positions)``, with ``()`` for no positions."""
    return itemgetter(*positions) if positions else lambda row: ()


def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``_getter``, returning a tuple for one position too."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return _getter(positions)


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
