"""Answer-preserving table-structure perturbations for extraction questions.

Shuffling, target-row/column shifting, and transposing never change the
question or answers; they only rearrange where the evidence sits.  Every
operation records enough parameters to replay its output without the
generator (see ``replay_table``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core import Cell, QAInstance, Table, normalize_answer
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
class PerturbationRecord:
    """Provenance of one derived instance; params fully determine the output."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    source_id: str = ""

    def for_instance(self, instance_id: str) -> PerturbationRecord:
        return replace(self, source_id=instance_id)


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
    gold = {normalize_answer(a) for a in instance.answers}
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


def shuffle_rows(table: Table, rng: Rng) -> tuple[Table, PerturbationRecord]:
    rows = list(table.rows)
    perm = rng.shuffle(rows)
    record = PerturbationRecord(SHUFFLE_ROWS, rng.seed, {"permutation": perm})
    return Table(headers=table.headers, rows=tuple(rows)), record


def shuffle_cols(table: Table, rng: Rng) -> tuple[Table, PerturbationRecord]:
    cols = list(range(table.n_cols))
    perm = rng.shuffle(cols)
    headers = tuple(table.headers[j] for j in cols)
    rows = tuple(tuple(row[j] for j in cols) for row in table.rows)
    record = PerturbationRecord(SHUFFLE_COLS, rng.seed, {"permutation": perm})
    return Table(headers=headers, rows=rows), record


def _move_index_map(n: int, removed: int, inserted: int) -> list[int]:
    """old index -> new index after removing ``removed`` and re-inserting at
    ``inserted`` (an index into the final n-element sequence)."""
    mapping = [0] * n
    for old in range(n):
        if old == removed:
            mapping[old] = inserted
        else:
            shifted = old - (1 if old > removed else 0)
            mapping[old] = shifted + (1 if shifted >= inserted else 0)
    return mapping


def _shift_row(table: Table, target_row: int, insert_at: int) -> Table:
    rows = list(table.rows)
    moved = rows.pop(target_row)
    rows.insert(insert_at, moved)
    return Table(headers=table.headers, rows=tuple(rows))


def _shift_col(table: Table, target_col: int, insert_at: int) -> Table:
    order = list(range(table.n_cols))
    order.pop(target_col)
    order.insert(insert_at, target_col)
    headers = tuple(table.headers[j] for j in order)
    rows = tuple(tuple(row[j] for j in order) for row in table.rows)
    return Table(headers=headers, rows=rows)


def remap_annotations(instance: QAInstance, row_map=None, col_map=None) -> QAInstance:
    """Keep relevant-cell and aggregation coordinates pointing at the same
    content after rows/columns move."""

    def map_row(r):
        return row_map[r] if row_map is not None else r

    def map_col(c):
        return col_map[c] if col_map is not None else c

    changes = {}
    if instance.relevant_cells is not None:
        changes["relevant_cells"] = tuple(
            type(c)(map_row(c.row), map_col(c.col)) for c in instance.relevant_cells
        )
    agg = instance.aggregation
    if agg is not None:
        changes["aggregation"] = replace(
            agg,
            value_col=map_col(agg.value_col),
            label_col=None if agg.label_col is None else map_col(agg.label_col),
            filter=None if agg.filter is None else (map_col(agg.filter[0]), agg.filter[1]),
            operands=None
            if agg.operands is None
            else tuple(type(o)(map_row(o.row), map_col(o.col)) for o in agg.operands),
        )
    return replace(instance, **changes) if changes else instance


def shift_target_row(
    instance: QAInstance, part: str, rng: Rng
) -> tuple[QAInstance, PerturbationRecord]:
    """Move the answer-bearing row to a random slot of the top/middle/bottom
    third of the table; all other rows keep their relative order."""
    if part not in ROW_PARTS:
        raise ValueError(f"part must be one of {sorted(ROW_PARTS)}, got {part!r}")
    location = locate_target(instance)
    n = instance.table.n_rows
    if n < 3:
        raise TooFewRows(f"instance {instance.id}: {n} rows, need >= 3")
    start, stop = partition_indices(n, 3).boundaries[ROW_PARTS[part]]
    insert_at = rng.randrange(start, stop)
    table = _shift_row(instance.table, location.row, insert_at)
    row_map = _move_index_map(n, location.row, insert_at)
    perturbed = remap_annotations(instance, row_map=row_map).with_table(table)
    record = PerturbationRecord(
        kind={"TOP": TARGET_ROW_TOP, "MIDDLE": TARGET_ROW_MIDDLE,
              "BOTTOM": TARGET_ROW_BOTTOM}[part],
        seed=rng.seed,
        params={
            "target_row": location.row,
            "insert_at": insert_at,
            "part_range": [start, stop],
            "ambiguous": location.ambiguous,
        },
        source_id=instance.id,
    )
    return perturbed, record


def shift_target_col(
    instance: QAInstance, part: str, rng: Rng
) -> tuple[QAInstance, PerturbationRecord]:
    """Column analogue of shift_target_row with a front/back split."""
    if part not in COL_PARTS:
        raise ValueError(f"part must be one of {sorted(COL_PARTS)}, got {part!r}")
    location = locate_target(instance)
    n = instance.table.n_cols
    if n < 2:
        raise TooFewRows(f"instance {instance.id}: {n} columns, need >= 2")
    start, stop = partition_indices(n, 2).boundaries[COL_PARTS[part]]
    insert_at = rng.randrange(start, stop)
    table = _shift_col(instance.table, location.col, insert_at)
    col_map = _move_index_map(n, location.col, insert_at)
    perturbed = remap_annotations(instance, col_map=col_map).with_table(table)
    record = PerturbationRecord(
        kind={"FRONT": TARGET_COL_FRONT, "BACK": TARGET_COL_BACK}[part],
        seed=rng.seed,
        params={
            "target_col": location.col,
            "insert_at": insert_at,
            "part_range": [start, stop],
            "ambiguous": location.ambiguous,
        },
        source_id=instance.id,
    )
    return perturbed, record


def transpose(table: Table, index_headers: bool = True) -> tuple[Table, PerturbationRecord]:
    """Rotate the table: original cell (r, c) lands at (c, r + 1).

    With index_headers (the default) the new header row is "0", "1", ... and
    the original headers become the first data column.  With it off, the
    first row of the rotated grid is promoted to headers instead.
    """
    n_rows, n_cols = table.n_rows, table.n_cols
    # Cells move, so they are reused rather than parsed again.
    rotated = [
        (Cell(table.headers[c]),) + tuple(table.rows[r][c] for r in range(n_rows))
        for c in range(n_cols)
    ]
    if index_headers:
        headers = tuple(str(i) for i in range(n_rows + 1))
        grid = rotated
    else:
        headers = tuple(cell.raw for cell in rotated[0]) if rotated else ()
        grid = rotated[1:]
    record = PerturbationRecord(
        TRANSPOSE, 0, {"index_headers": index_headers, "original_shape": [n_rows, n_cols]}
    )
    return Table(headers=headers, rows=tuple(grid)), record


def replay_table(table: Table, record: PerturbationRecord) -> Table:
    """Re-apply a structure perturbation from its recorded params alone."""
    kind, params = record.kind, record.params
    if kind == SHUFFLE_ROWS:
        perm = params["permutation"]
        return Table(headers=table.headers, rows=tuple(table.rows[j] for j in perm))
    if kind == SHUFFLE_COLS:
        perm = params["permutation"]
        headers = tuple(table.headers[j] for j in perm)
        rows = tuple(tuple(row[j] for j in perm) for row in table.rows)
        return Table(headers=headers, rows=rows)
    if kind in (TARGET_ROW_TOP, TARGET_ROW_MIDDLE, TARGET_ROW_BOTTOM):
        return _shift_row(table, params["target_row"], params["insert_at"])
    if kind in (TARGET_COL_FRONT, TARGET_COL_BACK):
        return _shift_col(table, params["target_col"], params["insert_at"])
    if kind == TRANSPOSE:
        replayed, _ = transpose(table, index_headers=params["index_headers"])
        return replayed
    raise ValueError(f"cannot replay kind {kind!r}")
