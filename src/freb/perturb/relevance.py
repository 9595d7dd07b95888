"""Evidence-attention probes: blank the relevant cells, drop the table, or
displace the relevant rows.

These operations target reasoning questions annotated with the cells the
answer depends on.  Blanking and table removal make instances unanswerable
on purpose — a model that still answers "correctly" is not reading the
table.  Row displacement keeps the instance answerable but moves the
evidence, exposing positional shortcuts.  As with every kind, ``prepare``
does the seed-independent work (for the two removals, all of it), ``plan``
makes the draws and ``realize`` rebuilds the instance from the params alone.
"""

from __future__ import annotations

from dataclasses import replace

from ..core import Cell, QAInstance, Table
from ..errors import MissingAnnotation
from ..rng import Rng
from .structure import select

REMOVE_RELEVANT = "REMOVE_RELEVANT"
REMOVE_TABLE = "REMOVE_TABLE"
SHIFT_RELEVANT_ROWS = "SHIFT_RELEVANT_ROWS"

DUMMY_VALUE = "None"


def prepare_remove_relevant(instance: QAInstance) -> dict:
    if not instance.relevant_cells:
        raise MissingAnnotation(f"instance {instance.id}: no relevant cells")
    return {"blanked": sorted({(c.row, c.col) for c in instance.relevant_cells})}


def realize_remove_relevant(instance: QAInstance, params: dict) -> QAInstance:
    """Blank every listed cell; the grid keeps its shape."""
    blanked = {(r, c) for r, c in params["blanked"]}
    rows = tuple(
        tuple(Cell("") if (r, c) in blanked else cell for c, cell in enumerate(row))
        for r, row in enumerate(instance.table.rows)
    )
    return instance.with_table(Table(headers=instance.table.headers, rows=rows))


def prepare_remove_table(instance: QAInstance) -> dict:
    return {"original_shape": [instance.table.n_rows, instance.table.n_cols]}


def realize_remove_table(instance: QAInstance, params: dict) -> QAInstance:
    """Replace the table with a 1x1 placeholder; question and answers stay."""
    dummy = Table.from_values([DUMMY_VALUE], [[DUMMY_VALUE]])
    # Cell annotations would dangle on the placeholder, so they are dropped.
    return replace(instance, table=dummy, relevant_cells=None, aggregation=None)


def prepare_shift_relevant_rows(instance: QAInstance) -> tuple[list[int], int]:
    """The relevant rows, in order, and how many other rows there are."""
    relevant = sorted({c.row for c in instance.relevant_cells})
    return relevant, instance.table.n_rows - len(relevant)


def plan_shift_relevant_rows(prepared: tuple[list[int], int], rng: Rng) -> dict:
    """Pull out the rows holding relevant cells and re-insert them, still in
    order and contiguous, at a uniformly random offset among the rest.

    When every row is relevant there is nowhere to move: nothing is drawn,
    ``insert_at`` is None and the params are marked a no-op.
    """
    relevant, others = prepared
    return {
        "relevant_rows": relevant,
        "insert_at": rng.randrange(0, others + 1) if others else None,
        "noop": not others,
    }


def realize_shift_relevant_rows(instance: QAInstance, params: dict) -> QAInstance:
    relevant, at = params["relevant_rows"], params["insert_at"]
    moved = set(relevant)
    others = [r for r in range(instance.table.n_rows) if r not in moved]
    return select(instance, others[:at] + relevant + others[at:], range(instance.table.n_cols))
