"""Aggregation-aware value edits, checked by an executable oracle.

The oracle (``evaluate_aggregation``) computes the answer an aggregation
descriptor implies, so every generated edit can be re-checked mechanically:
answer-changing (AC) edits must flip the oracle's answer, answer-preserving
(NC) edits must not.  The cells that decide an answer (the extremal row,
the rows matching a COUNT filter, the two operands) are found by one helper
each, shared by the oracle and both edit searches.  The SHORTENED kind
projects a table down to the rows and columns the descriptor actually
reads; value edits are searched for on that projection and recorded in the
full table's coordinates.  An edit is the dict its params record:
``{"row", "col", "old", "new", "class"}``, with class NUMERIC, STRING or
ROW_REMOVAL.  Each kind's ``prepare`` does the seed-independent work (the
projection, and the oracle's answer on it, which must be a gold answer),
its ``plan`` holds every draw and the oracle calls on edited tables, and
its ``realize`` rebuilds the perturbed instance from the recorded params
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, localcontext

from ..core import (
    ARGMAX,
    ARGMIN,
    AVG,
    COMPARE_TWO,
    COUNT,
    DIFF,
    SUM,
    AggregationDescriptor,
    Cell,
    QAInstance,
    Table,
    answer_keys,
    canonical_decimal,
    normalize_answer,
)
from ..errors import (
    CannotPerturb,
    GoldMismatch,
    MissingAnnotation,
    NonNumericCell,
    TieDetected,
    UnsupportedKind,
)
from ..rng import Rng
from .structure import select

VALUE_AC = "VALUE_AC"
VALUE_NC = "VALUE_NC"
SHORTENED = "SHORTENED"

NUMERIC = "NUMERIC"
STRING = "STRING"
ROW_REMOVAL = "ROW_REMOVAL"

_MAX_ATTEMPTS = 10
_MAX_EXACT_DIGITS = 10_000
_EXACT = Context(prec=_MAX_EXACT_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN)
_MEAN_DIGITS = 28


def _numeric(table: Table, row: int, col: int) -> Decimal:
    cell = table.rows[row][col]
    if cell.parsed_number is None:
        raise NonNumericCell(f"cell ({row}, {col}) is not numeric: {cell.raw!r}")
    return cell.parsed_number


def _column_values(table: Table, col: int) -> list[Decimal]:
    return [_numeric(table, r, col) for r in range(table.n_rows)]


def _extremal(table: Table, d: AggregationDescriptor) -> tuple[list[Decimal], int]:
    """An ARGMAX/ARGMIN's value column and its unique extremal row;
    TieDetected if the extremal value appears in more than one row."""
    if table.n_rows == 0:
        raise ValueError(f"{d.kind} over an empty table")
    values = _column_values(table, d.value_col)
    best = max(values) if d.kind == ARGMAX else min(values)
    hits = [r for r, v in enumerate(values) if v == best]
    if len(hits) > 1:
        raise TieDetected(f"{d.kind}: value {best} appears in rows {hits}")
    return values, hits[0]


def _matching_rows(table: Table, d: AggregationDescriptor) -> list[int]:
    """The rows whose COUNT filter cell matches the needle under answer
    normalization."""
    col, needle = d.filter
    target = normalize_answer(needle)
    return [r for r, row in enumerate(table.rows) if row[col].key == target]


def _operands(table: Table, d: AggregationDescriptor):
    """A DIFF/COMPARE_TWO's two operand coordinates, each with its value."""
    a, b = d.operands
    return (a, _numeric(table, a.row, a.col)), (b, _numeric(table, b.row, b.col))


def _exact_sum(values: list[Decimal]) -> Decimal:
    """sum(values), never rounded.

    A sum whose running total needs more than _MAX_EXACT_DIGITS digits
    (e.g. 1E+99999 + 1) is refused as NonNumericCell rather than rounded:
    no QA answer is written that way.
    """
    with localcontext(_EXACT) as context:
        total = sum(values, start=Decimal(0))
    if context.flags[Inexact]:
        raise NonNumericCell(f"values too far apart to add exactly in {_MAX_EXACT_DIGITS} digits")
    return total


def _mean(total: Decimal, n: int) -> Decimal:
    """total / n: exact when it terminates, else rounded to _MEAN_DIGITS."""
    # A terminating total / n has at most len(total's digits) + 2 * bit_length(n)
    # digits, so a quotient that is inexact at this precision never terminates.
    wide = Context(
        prec=len(total.as_tuple().digits) + 2 * n.bit_length(), Emax=MAX_EMAX, Emin=MIN_EMIN
    )
    mean = wide.divide(total, Decimal(n))
    if wide.flags[Inexact]:
        mean = Context(prec=_MEAN_DIGITS, Emax=MAX_EMAX, Emin=MIN_EMIN).divide(total, Decimal(n))
    return mean


def evaluate_aggregation(table: Table, descriptor: AggregationDescriptor) -> str:
    """Answer implied by the descriptor.

    ARGMAX/ARGMIN return the label cell of the unique extremal row; COUNT
    counts filter-column matches under answer normalization; SUM/AVG/DIFF
    return canonical decimals, computed exactly (AVG whenever the mean
    terminates; a non-terminating mean is rounded half-even to 28
    significant digits, e.g. 1/3 gives "0.3333333333333333333333333333");
    COMPARE_TWO returns the label of the larger operand's row.  Ties among
    extremal values (or equal operands) raise TieDetected so callers can
    skip the instance.
    """
    kind = descriptor.kind
    if kind in (ARGMAX, ARGMIN):
        if descriptor.label_col is None:
            raise MissingAnnotation(f"{kind} needs a label column")
        _, row = _extremal(table, descriptor)
        return table.rows[row][descriptor.label_col].raw
    if kind == COUNT:
        if descriptor.filter is None:
            raise MissingAnnotation("COUNT needs a filter")
        return str(len(_matching_rows(table, descriptor)))
    if kind in (SUM, AVG):
        if table.n_rows == 0:
            raise ValueError(f"{kind} over an empty table")
        total = _exact_sum(_column_values(table, descriptor.value_col))
        if kind == SUM:
            return canonical_decimal(total)
        return canonical_decimal(_mean(total, table.n_rows))
    if kind == DIFF:
        if not descriptor.operands:
            raise MissingAnnotation("DIFF needs two operands")
        (_, minuend), (_, subtrahend) = _operands(table, descriptor)
        return canonical_decimal(_exact_sum([minuend, subtrahend.copy_negate()]))
    if kind == COMPARE_TWO:
        if not descriptor.operands:
            raise MissingAnnotation("COMPARE_TWO needs two operands")
        if descriptor.label_col is None:
            raise MissingAnnotation("COMPARE_TWO needs a label column")
        (a, va), (b, vb) = _operands(table, descriptor)
        if va == vb:
            raise TieDetected(f"COMPARE_TWO: operands both equal {va}")
        winner = a.row if va > vb else b.row
        return table.rows[winner][descriptor.label_col].raw
    raise UnsupportedKind(f"no oracle for aggregation kind {kind!r}")


def realize_shortened(instance: QAInstance, params: dict) -> QAInstance:
    # The shortened table keeps no relevant cells; dropping them before
    # select spares it remapping them.
    return select(replace(instance, relevant_cells=None), params["rows"], params["cols"])


@dataclass(frozen=True)
class Projection:
    """A value edit's seed-independent part: the shortened instance, the
    full table's ``rows`` and ``cols`` it keeps, and the normalized oracle
    answer on it."""

    rows: list[int]
    cols: list[int]
    shortened: QAInstance
    answer_key: str


def prepare_value_edit(instance: QAInstance) -> Projection:
    """The shortened instance: the rows and columns the descriptor reads.

    Column-wide aggregations keep every row; DIFF/COMPARE_TWO keep only the
    operand rows.  Kept columns are the value column plus any label, filter,
    and operand columns, in their original order.  GoldMismatch if the
    descriptor's answer is not a gold answer: edits certified against it
    would score the model against answers nobody checked.
    """
    agg = instance.aggregation
    if agg.kind in (DIFF, COMPARE_TWO):
        rows = sorted({o.row for o in (agg.operands or ())})
    else:
        rows = list(range(instance.table.n_rows))
    cols = {agg.value_col}
    if agg.label_col is not None:
        cols.add(agg.label_col)
    if agg.filter is not None:
        cols.add(agg.filter[0])
    for o in agg.operands or ():
        cols.add(o.col)
    cols = sorted(cols)
    shortened = realize_shortened(instance, {"rows": rows, "cols": cols})
    answer = evaluate_aggregation(shortened.table, shortened.aggregation)
    answer_key = normalize_answer(answer)
    if answer_key not in answer_keys(instance.answers):
        raise GoldMismatch(
            f"the descriptor's answer {answer!r} is not a gold answer: {list(instance.answers)!r}"
        )
    return Projection(rows, cols, shortened, answer_key)


def prepare_shortened(instance: QAInstance) -> dict:
    """The params of SHORTENED: the projection's ``rows`` and ``cols``."""
    projection = prepare_value_edit(instance)
    return {"rows": projection.rows, "cols": projection.cols}


def plan_value_edit(answer_changes: bool):
    """Plan for VALUE_AC (``answer_changes``) or VALUE_NC: search the
    shortened table for edits, then map them back onto the full table, which
    holds the same cells at their original spots."""
    candidate = _ac_candidate if answer_changes else _nc_candidate

    def plan(projection: Projection, rng: Rng) -> dict:
        shortened, rows, cols = projection.shortened, projection.rows, projection.cols
        edits, new_answer = _search_edits(
            shortened.table,
            shortened.aggregation,
            projection.answer_key,
            rng,
            candidate,
            answer_changes,
        )
        params = {
            "edits": [{**e, "row": rows[e["row"]], "col": cols[e["col"]]} for e in edits],
            "original_answers": list(shortened.answers),
        }
        if answer_changes:
            params["new_answer"] = new_answer
        return params

    return plan


def realize_value_edit(instance: QAInstance, params: dict) -> QAInstance:
    edits = params["edits"]
    table = apply_edits(instance.table, edits)
    removed = {e["row"] for e in edits if e["class"] == ROW_REMOVAL}
    if removed:
        # Annotations follow the kept rows; apply_edits dropped the same rows.
        kept = [r for r in range(instance.table.n_rows) if r not in removed]
        instance = select(instance, kept, range(instance.table.n_cols))
    answers = (params["new_answer"],) if "new_answer" in params else instance.answers
    return replace(instance, table=table, answers=answers)


def apply_edits(table: Table, edits: list[dict]) -> Table:
    """Value edits first, then row removals from the bottom up; cells no
    edit touches are shared with ``table``, not parsed again."""
    grid = [list(row) for row in table.rows]
    for e in edits:
        if e["class"] != ROW_REMOVAL:
            grid[e["row"]][e["col"]] = Cell(e["new"])
    for row in sorted((e["row"] for e in edits if e["class"] == ROW_REMOVAL), reverse=True):
        del grid[row]
    return Table(headers=table.headers, rows=tuple(tuple(row) for row in grid))


def _delta(rng: Rng, values: list[Decimal]) -> Decimal:
    """Integer step scaled to the column's spread (at least 1)."""
    if values:
        spread = max(values) - min(values)
        hi = max(10, int(10 * spread))
    else:
        hi = 10
    return Decimal(rng.randint(1, hi))


def _replacement_string(pool, avoid: str, rng: Rng) -> str:
    """A value from the pool that does not normalize-match ``avoid``."""
    target = normalize_answer(avoid)
    candidates = sorted({v for v in pool if v.strip() and normalize_answer(v) != target})
    if candidates:
        return rng.choice(candidates)
    return f"{avoid} alt" if avoid.strip() else "alt"


def _edit(table: Table, row: int, col: int, new: str, edit_class: str) -> dict:
    """One edit as its params record it."""
    old = table.rows[row][col].raw
    return {"row": row, "col": col, "old": old, "new": new, "class": edit_class}


def _ac_candidate(table: Table, d: AggregationDescriptor, rng: Rng) -> list[dict]:
    kind = d.kind
    if kind in (ARGMAX, ARGMIN):
        if table.n_rows < 2:
            raise CannotPerturb(f"{kind} needs >= 2 rows to change the answer")
        values, extremal = _extremal(table, d)
        others = [v for r, v in enumerate(values) if r != extremal]
        runner = max(others) if kind == ARGMAX else min(others)
        step = _delta(rng, values)
        new_value = runner - step if kind == ARGMAX else runner + step
        return [_edit(table, extremal, d.value_col, canonical_decimal(new_value), NUMERIC)]
    if kind == COUNT:
        col, needle = d.filter
        matching = _matching_rows(table, d)
        if not matching:
            if table.n_rows == 0:
                raise CannotPerturb("COUNT over an empty table cannot change")
            row = rng.randrange(0, table.n_rows)
            return [_edit(table, row, col, needle, STRING)]
        row = rng.choice(matching)
        if rng.random() < 0.5:
            return [_edit(table, row, col, "", ROW_REMOVAL)]
        new = _replacement_string(table.column_values(col), needle, rng)
        return [_edit(table, row, col, new, STRING)]
    if kind in (SUM, AVG):
        if table.n_rows == 0:
            raise CannotPerturb(f"{kind} over an empty table")
        values = _column_values(table, d.value_col)
        row = rng.randrange(0, table.n_rows)
        step = _delta(rng, values) * (1 if rng.random() < 0.5 else -1)
        return [_edit(table, row, d.value_col, canonical_decimal(values[row] + step), NUMERIC)]
    if kind == DIFF:
        a, b = _operands(table, d)
        pick, value = a if rng.random() < 0.5 else b
        step = _delta(rng, [value]) * (1 if rng.random() < 0.5 else -1)
        return [_edit(table, pick.row, pick.col, canonical_decimal(value + step), NUMERIC)]
    if kind == COMPARE_TWO:
        (a, va), (b, vb) = _operands(table, d)
        small, large = (b, va) if va > vb else (a, vb)
        new_value = large + _delta(rng, [va, vb])
        return [_edit(table, small.row, small.col, canonical_decimal(new_value), NUMERIC)]
    raise UnsupportedKind(f"no answer-changing strategy for {kind!r}")


def _nc_candidate(table: Table, d: AggregationDescriptor, rng: Rng) -> list[dict]:
    kind = d.kind
    if kind in (ARGMAX, ARGMIN):
        if table.n_rows < 2:
            raise CannotPerturb(f"{kind} has no non-extremal row to edit")
        values, extremal = _extremal(table, d)
        row = rng.choice([r for r in range(table.n_rows) if r != extremal])
        old = values[row]
        factor = Decimal(rng.randint(10, 1000))
        if kind == ARGMIN:
            new_value = old * factor if old > 0 else old + factor
        else:
            new_value = old / factor if old > 0 else old - factor
        return [_edit(table, row, d.value_col, canonical_decimal(new_value), NUMERIC)]
    if kind == COUNT:
        col, needle = d.filter
        matching = set(_matching_rows(table, d))
        non_matching = [r for r in range(table.n_rows) if r not in matching]
        other_cols = [c for c in range(table.n_cols) if c != col]
        options = []
        if other_cols and table.n_rows:
            options.append("attribute")
        if non_matching:
            options.append("filter_cell")
        if not options:
            raise CannotPerturb("COUNT table has no cell that can change safely")
        choice = rng.choice(options)
        if choice == "attribute":
            row = rng.randrange(0, table.n_rows)
            c = rng.choice(other_cols)
            new = _replacement_string(table.column_values(c), table.rows[row][c].raw, rng)
            return [_edit(table, row, c, new, STRING)]
        row = rng.choice(non_matching)
        pool = [table.rows[r][col].raw for r in non_matching]
        new = _replacement_string(pool, table.rows[row][col].raw, rng)
        if normalize_answer(new) == normalize_answer(needle):
            raise CannotPerturb("no non-matching replacement available")
        return [_edit(table, row, col, new, STRING)]
    if kind in (SUM, AVG, DIFF):
        # Any numeric operand change moves the result, so only cells outside
        # the operand set — and not parseable as numbers — are fair game.
        if kind == DIFF:
            operand_cells = {(o.row, o.col) for o in d.operands}
        else:
            operand_cells = {(r, d.value_col) for r in range(table.n_rows)}
        candidates = [
            (r, c)
            for r in range(table.n_rows)
            for c in range(table.n_cols)
            if (r, c) not in operand_cells and table.rows[r][c].parsed_number is None
        ]
        if not candidates:
            raise CannotPerturb(f"{kind} table has no non-operand string cell")
        row, c = rng.choice(candidates)
        new = _replacement_string(table.column_values(c), table.rows[row][c].raw, rng)
        return [_edit(table, row, c, new, STRING)]
    if kind == COMPARE_TWO:
        (a, va), (b, vb) = _operands(table, d)
        larger, value = (a, va) if va > vb else (b, vb)
        new_value = value + _delta(rng, [va, vb])
        return [_edit(table, larger.row, larger.col, canonical_decimal(new_value), NUMERIC)]
    raise UnsupportedKind(f"no answer-preserving strategy for {kind!r}")


def _search_edits(table, descriptor, original_key, rng, candidate, answer_changes: bool):
    """Draw up to _MAX_ATTEMPTS candidate edits until one changes (or keeps)
    the oracle's answer, ``original_key`` when normalized; returns (edits,
    new answer)."""
    for _ in range(_MAX_ATTEMPTS):
        edits = candidate(table, descriptor, rng)
        edited = apply_edits(table, edits)
        try:
            new = evaluate_aggregation(edited, descriptor)
        except TieDetected:
            continue
        if (normalize_answer(new) != original_key) == answer_changes:
            return edits, new
    goal = "change the {} answer" if answer_changes else "keep the {} answer stable"
    raise CannotPerturb(f"could not {goal.format(descriptor.kind)} in {_MAX_ATTEMPTS} attempts")
