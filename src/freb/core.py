"""Table and QA-instance data model shared by every other module.

All types are immutable after construction and safe to share across workers,
except that a Cell fills its parsed number and its normalized answer key
lazily, each on first read; both are derived from the raw text alone and take
no part in equality, hashing or repr.  That is what lets one Cell stand for
every position holding its text: a CellPool, kept for one dataset load,
builds each distinct text's cell once and hands it to every table in the
file, so each text is parsed and normalized at most once per load.
``normalize_answer`` is pure and remembers its last 65,536 distinct texts,
so an answer or gold text normalized again, by any caller, is looked up.
Tables are flat rectangular grids of text cells with a single header row;
blank cells are empty strings, never None.  Dates are plain text; only
decimal numbers get a parsed representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from functools import lru_cache

EQ = "EQ"
RQ = "RQ"
UNKNOWN = "UNKNOWN"
QUESTION_TYPES = frozenset({EQ, RQ, UNKNOWN})

ARGMAX = "ARGMAX"
ARGMIN = "ARGMIN"
COUNT = "COUNT"
SUM = "SUM"
AVG = "AVG"
DIFF = "DIFF"
COMPARE_TWO = "COMPARE_TWO"
AGGREGATION_KINDS = frozenset({ARGMAX, ARGMIN, COUNT, SUM, AVG, DIFF, COMPARE_TWO})

_WS_RUN = re.compile(r"\s+")
_CURRENCY = "$€£¥"
_PLAIN_EXPONENT_BOUND = 1000


def parse_number(text: str) -> Decimal | None:
    """Parse ``text`` as a finite decimal after stripping formatting noise.

    Strips thousands-separator commas, a leading currency symbol (before or
    after the sign) and one trailing percent sign.  The percent sign is
    dropped, not divided out: "2.50%" parses as 2.5.  Returns None when the
    remainder is not a finite decimal.
    """
    s = text.strip()
    if s.endswith("%"):
        s = s[:-1].rstrip()
    sign, signed = "", False
    if s and s[0] in "+-−":
        sign, signed = ("-" if s[0] in "-−" else ""), True
        s = s[1:]
    s = s.lstrip(_CURRENCY)
    if s and not signed and s[0] in "+-−":
        sign = "-" if s[0] in "-−" else ""
        s = s[1:]
    s = s.replace(",", "")
    if not s or s != s.strip():
        return None
    try:
        value = Decimal(sign + s)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def canonical_decimal(value: Decimal) -> str:
    """Exact text rendering of a finite decimal: no trailing zeros, leading
    plus or -0, and no exponent while the magnitude is within 10**±1000.

    Never rounds, so distinct values always render differently.  Past the
    bound the plain form would be huge ("1e-999999999" is a gigabyte of
    zeros), so such values keep Decimal's exponent form, e.g. "1E+1001".
    """
    if value == 0:
        return "0"
    sign, digits, exponent = value.as_tuple()
    kept = len("".join(map(str, digits)).rstrip("0"))
    value = Decimal((sign, digits[:kept], exponent + len(digits) - kept))
    if abs(value.adjusted()) > _PLAIN_EXPONENT_BOUND:
        return str(value)
    return format(value, "f")


@lru_cache(maxsize=1 << 16)
def normalize_answer(raw: str) -> str:
    """Canonical form used for every exact-match comparison in the toolkit.

    Lowercase, strip, collapse whitespace runs; numeric-looking strings are
    replaced by their canonical decimal rendering so "1,500", "$1500" and
    "1500.0" all compare equal.
    """
    s = _WS_RUN.sub(" ", raw.strip()).lower()
    number = parse_number(s)
    return canonical_decimal(number) if number is not None else s


def answer_keys(answers) -> frozenset[str]:
    """The normalized forms of a set of gold answers.

    Perturbed instances share their original's answers tuple, so the result
    is cached per tuple (strings only, never an instance).
    """
    return _answer_keys(tuple(answers))


@lru_cache(maxsize=1 << 16)
def _answer_keys(answers: tuple[str, ...]) -> frozenset[str]:
    return frozenset(normalize_answer(a) for a in answers)


@dataclass(frozen=True, slots=True)
class Cell:
    """One grid cell: raw text plus its parsed decimal value when numeric.

    Building a cell parses nothing: the number and the normalized key are
    computed on first read and cached here.  Perturbed tables share their
    original's cells, and within one dataset load equal texts share one cell
    (see CellPool), so each is computed at most once per distinct text,
    whichever instance, kind or seed reads it.  ``...`` marks a number not
    parsed yet (None means "not numeric"); being a singleton, it survives
    pickle and copy.
    """

    raw: str
    _number: Decimal | None = field(init=False, compare=False, repr=False)
    _key: str | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_number", ...)

    @property
    def parsed_number(self) -> Decimal | None:
        """``parse_number(self.raw)``, computed on first read."""
        number = self._number
        if number is ...:
            number = parse_number(self.raw)
            object.__setattr__(self, "_number", number)
        return number

    @property
    def key(self) -> str:
        """``normalize_answer(self.raw)``, computed on first read."""
        key = self._key
        if key is None:
            key = normalize_answer(self.raw)
            object.__setattr__(self, "_key", key)
        return key


class CellPool(dict):
    """Raw text -> the one Cell built for it; looking up a new text builds
    its cell.  Kept for one dataset load only, so no parsed state outlives it."""

    def __missing__(self, raw: str) -> Cell:
        cell = self[raw] = Cell(raw)
        return cell


@dataclass(frozen=True)
class CellCoord:
    """0-based (row, col) position; row indices exclude the header row."""

    row: int
    col: int


@dataclass(frozen=True)
class Table:
    headers: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    @staticmethod
    def from_values(headers, grid, pool: CellPool | None = None) -> Table:
        """Build a table from plain strings (the usual entry point).

        Without ``pool`` every position gets a cell of its own; with one,
        equal texts share the pool's cell."""
        make = Cell if pool is None else pool.__getitem__
        return Table(
            headers=tuple(map(str, headers)),
            rows=tuple(tuple(map(make, map(str, row))) for row in grid),
        )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def grid_values(self) -> list[list[str]]:
        return [[cell.raw for cell in row] for row in self.rows]

    def cell(self, coord: CellCoord) -> Cell:
        return self.rows[coord.row][coord.col]

    def column_values(self, col: int) -> list[str]:
        return [row[col].raw for row in self.rows]


@dataclass(frozen=True)
class AggregationDescriptor:
    """Machine-readable recipe for how an RQ's answer is derived.

    value_col is the column the operation runs over; label_col names the
    column whose cell is reported for extremal/comparison kinds; filter is a
    (column, match text) predicate for COUNT; operands are the two cells
    DIFF / COMPARE_TWO act on.
    """

    kind: str
    value_col: int
    label_col: int | None = None
    filter: tuple[int, str] | None = None
    operands: tuple[CellCoord, CellCoord] | None = None


@dataclass(frozen=True)
class QAInstance:
    id: str
    question: str
    answers: tuple[str, ...]
    table: Table
    question_type: str = UNKNOWN
    relevant_cells: tuple[CellCoord, ...] | None = None
    aggregation: AggregationDescriptor | None = None
    source: str = ""

    def with_table(self, table: Table, **changes) -> QAInstance:
        return replace(self, table=table, **changes)


def _validate_coord(coord: CellCoord, table: Table, what: str) -> list[str]:
    problems = []
    if not (0 <= coord.row < table.n_rows):
        problems.append(
            f"{what} row {coord.row} out of range for {table.n_rows}-row table"
        )
    if not (0 <= coord.col < table.n_cols):
        problems.append(
            f"{what} col {coord.col} out of range for {table.n_cols}-column table"
        )
    return problems


def _validate_aggregation(agg: AggregationDescriptor, table: Table) -> list[str]:
    problems = []
    if agg.kind not in AGGREGATION_KINDS:
        problems.append(f"unknown aggregation kind {agg.kind!r}")
        return problems
    if not (0 <= agg.value_col < table.n_cols):
        problems.append(f"aggregation value_col {agg.value_col} out of range")
    if agg.label_col is not None and not (0 <= agg.label_col < table.n_cols):
        problems.append(f"aggregation label_col {agg.label_col} out of range")
    if agg.kind in (ARGMAX, ARGMIN) and agg.label_col is None:
        problems.append(f"{agg.kind} requires label_col")
    if agg.kind == COUNT:
        if agg.filter is None:
            problems.append("COUNT requires filter")
        elif not (0 <= agg.filter[0] < table.n_cols):
            problems.append(f"aggregation filter column {agg.filter[0]} out of range")
    if agg.kind in (DIFF, COMPARE_TWO):
        if agg.operands is None:
            problems.append(f"{agg.kind} requires operands")
        else:
            for i, op in enumerate(agg.operands):
                problems.extend(_validate_coord(op, table, f"aggregation operand {i}"))
    return problems


def validate(instance: QAInstance) -> list[str]:
    """Return one human-readable entry per violated invariant; [] when valid."""
    problems = []
    table = instance.table
    for i, row in enumerate(table.rows):
        if len(row) != table.n_cols:
            problems.append(f"row {i} has {len(row)} cells, expected {table.n_cols}")
    if not instance.answers:
        problems.append("answers list is empty")
    for i, answer in enumerate(instance.answers):
        if answer == "":
            problems.append(f"answer {i} is an empty string")
    if instance.question_type not in QUESTION_TYPES:
        problems.append(f"unknown question_type {instance.question_type!r}")
    if instance.relevant_cells is not None:
        for coord in instance.relevant_cells:
            problems.extend(_validate_coord(coord, table, "relevant cell"))
    if instance.aggregation is not None:
        problems.extend(_validate_aggregation(instance.aggregation, table))
    return problems
