"""Answer-preserving table-structure perturbations for extraction questions.

Shuffling, target-row/column shifting, and transposing never change the
question or answers; they only rearrange where the evidence sits.  Each kind
has a seed-independent ``prepare`` (the target shifts locate the target and
the part's slots there; transpose's params are all known there), a ``plan``
that makes every random draw and returns JSON-able params, and a pure
``realize`` that rebuilds the perturbed instance from those params alone.
``select`` is the row/column selector most realizes (structure, relevance
and value alike) go through; it is the one place annotation coordinates are
re-expressed in a perturbed table's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import AggregationDescriptor, Cell, CellCoord, QAInstance, Table, answer_keys
from ..errors import NoTargetFound, TooFewRows
from ..rng import Rng

SHUFFLE_ROWS = "SHUFFLE_ROWS"
SHUFFLE_COLS = "SHUFFLE_COLS"
TARGET_ROW_TOP = "TARGET_ROW_TOP"
TARGET_ROW_MIDDLE = "TARGET_ROW_MIDDLE"
TARGET_ROW_BOTTOM = "TARGET_ROW_BOTTOM"
TARGET_COL_FRONT = "TARGET_COL_FRONT"
TARGET_COL_BACK = "TARGET_COL_BACK"
TRANSPOSE = "TRANSPOSE"

ROW_PARTS = {"TOP": 0, "MIDDLE": 1, "BOTTOM": 2}
COL_PARTS = {"FRONT": 0, "BACK": 1}


@dataclass(frozen=True)
class TargetLocation:
    row: int
    col: int
    ambiguous: bool


@dataclass(frozen=True)
class Partition:
    part_count: int
    boundaries: tuple[tuple[int, int], ...]


def locate_target(instance: QAInstance) -> TargetLocation:
    """First data cell (row-major) whose value matches a gold answer.

    Header cells are never targets.  More than one match sets the ambiguous
    flag; no match raises NoTargetFound.
    """
    gold = answer_keys(instance.answers)
    matches = []
    for r, row in enumerate(instance.table.rows):
        for c, cell in enumerate(row):
            if cell.key in gold:
                matches.append((r, c))
    if not matches:
        raise NoTargetFound(f"instance {instance.id}: answer not in table")
    return TargetLocation(*matches[0], ambiguous=len(matches) > 1)


def partition_indices(n: int, parts: int) -> Partition:
    """Contiguous near-equal ranges covering [0, n); remainder goes to the front."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < parts:
        raise TooFewRows(f"cannot split {n} into {parts} parts")
    base, remainder = divmod(n, parts)
    boundaries = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < remainder else 0)
        boundaries.append((start, start + size))
        start += size
    return Partition(part_count=parts, boundaries=tuple(boundaries))


def select(instance: QAInstance, rows, cols) -> QAInstance:
    """``instance`` over its table's ``rows`` and ``cols``, in that order.

    Cells are shared with the original, not built again.  Relevant cells and
    the aggregation descriptor follow the cells they point at: a relevant
    cell that is left out is dropped, and a descriptor that reads a left-out
    row or column becomes None.
    """
    rows, cols = list(rows), list(cols)
    row_of, col_of = _positions(rows), _positions(cols)
    relevant = instance.relevant_cells
    if relevant is not None:
        relevant = tuple(
            CellCoord(row_of[c.row], col_of[c.col])
            for c in relevant
            if c.row in row_of and c.col in col_of
        )
    return instance.with_table(
        _select_table(instance.table, rows, cols),
        relevant_cells=relevant,
        aggregation=_select_descriptor(instance.aggregation, row_of, col_of),
    )


def _select_table(table: Table, rows: list[int], cols: list[int]) -> Table:
    """``table`` over ``rows`` and ``cols``, in that order, sharing its cells."""
    if cols == list(range(table.n_cols)):  # whole rows, so share them too
        grid = tuple(table.rows[r] for r in rows)
    else:
        grid = tuple(tuple(table.rows[r][c] for c in cols) for r in rows)
    return Table(headers=tuple(table.headers[c] for c in cols), rows=grid)


def _positions(indices: list[int]) -> dict[int, int]:
    return dict(zip(indices, range(len(indices))))


def _select_descriptor(
    agg: AggregationDescriptor | None, row_of: dict, col_of: dict
) -> AggregationDescriptor | None:
    if agg is None:
        return None
    try:
        return AggregationDescriptor(
            agg.kind,
            col_of[agg.value_col],
            None if agg.label_col is None else col_of[agg.label_col],
            None if agg.filter is None else (col_of[agg.filter[0]], agg.filter[1]),
            None
            if agg.operands is None
            else tuple(CellCoord(row_of[o.row], col_of[o.col]) for o in agg.operands),
        )
    except KeyError:  # it reads a row or column that was left out
        return None


def _axes(instance: QAInstance) -> tuple[list[int], list[int]]:
    return list(range(instance.table.n_rows)), list(range(instance.table.n_cols))


def plan_shuffle_rows(instance: QAInstance, rng: Rng) -> dict:
    # perm[i] is the original row now at position i.
    return {"permutation": rng.shuffle(list(range(instance.table.n_rows)))}


def realize_shuffle_rows(instance: QAInstance, params: dict) -> QAInstance:
    return select(instance, params["permutation"], range(instance.table.n_cols))


def plan_shuffle_cols(instance: QAInstance, rng: Rng) -> dict:
    return {"permutation": rng.shuffle(list(range(instance.table.n_cols)))}


def realize_shuffle_cols(instance: QAInstance, params: dict) -> QAInstance:
    return select(instance, range(instance.table.n_rows), params["permutation"])


@dataclass(frozen=True)
class TargetSlots:
    """What a target shift knows before its draw: the answer-bearing row or
    column (``key`` names it in the params) and the part's slots
    ``[start, stop)``."""

    key: str
    target: int
    start: int
    stop: int
    ambiguous: bool


def prepare_target_shift(axis: str, part: str):
    """Seed-independent step for moving the answer-bearing row (``axis``
    "row", to a ROW_PARTS third) or column ("col", to a COL_PARTS half)."""
    parts, noun = (ROW_PARTS, "rows") if axis == "row" else (COL_PARTS, "columns")

    def prepare(instance: QAInstance) -> TargetSlots:
        location = locate_target(instance)
        n = instance.table.n_rows if axis == "row" else instance.table.n_cols
        if n < len(parts):
            raise TooFewRows(f"instance {instance.id}: {n} {noun}, need >= {len(parts)}")
        start, stop = partition_indices(n, len(parts)).boundaries[parts[part]]
        return TargetSlots(
            f"target_{axis}", getattr(location, axis), start, stop, location.ambiguous
        )

    return prepare


def plan_target_shift(slots: TargetSlots, rng: Rng) -> dict:
    """Draw the slot the target moves to; everything else keeps its
    relative order."""
    return {
        slots.key: slots.target,
        "insert_at": rng.randrange(slots.start, slots.stop),
        "part_range": [slots.start, slots.stop],
        "ambiguous": slots.ambiguous,
    }


def realize_target_row(instance: QAInstance, params: dict) -> QAInstance:
    rows, cols = _axes(instance)
    rows.remove(params["target_row"])
    rows.insert(params["insert_at"], params["target_row"])
    return select(instance, rows, cols)


def realize_target_col(instance: QAInstance, params: dict) -> QAInstance:
    rows, cols = _axes(instance)
    cols.remove(params["target_col"])
    cols.insert(params["insert_at"], params["target_col"])
    return select(instance, rows, cols)


def prepare_transpose(instance: QAInstance) -> dict:
    # transpose writes one layout, index headers; the params still name it so
    # that existing records and ``freb perturb`` output stay byte-identical.
    return {
        "index_headers": True,
        "original_shape": [instance.table.n_rows, instance.table.n_cols],
        "annotations_dropped": bool(instance.relevant_cells or instance.aggregation),
    }


def realize_transpose(instance: QAInstance, params: dict) -> QAInstance:
    # Rows and columns swap roles, so cell annotations no longer describe a
    # grid this schema can express; they are dropped and noted.
    return replace(
        instance, table=transpose(instance.table), relevant_cells=None, aggregation=None
    )


def transpose(table: Table) -> Table:
    """Rotate the table: original cell (r, c) lands at (c, r + 1).

    The new header row is "0", "1", ... and the original headers become the
    first data column.
    """
    n_rows, n_cols = table.n_rows, table.n_cols
    # Cells move, so they are reused rather than parsed again.
    rotated = [
        (Cell(table.headers[c]),) + tuple(table.rows[r][c] for r in range(n_rows))
        for c in range(n_cols)
    ]
    return Table(headers=tuple(str(i) for i in range(n_rows + 1)), rows=tuple(rotated))
