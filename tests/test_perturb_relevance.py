"""Evidence-removal and evidence-displacement perturbations."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.core import (
    EQ,
    RQ,
    SUM,
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
)
from freb.errors import MissingAnnotation, NotEligible
from freb.perturb import (
    DUMMY_VALUE,
    KINDS,
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHIFT_RELEVANT_ROWS,
    apply_perturbation,
)
from freb.rng import Rng

SPECS = {spec.name: spec for spec in KINDS}


def _perturb(instance, kind, rng=None):
    """A kind's prepare, plan and realize under ``rng``: (perturbed instance,
    params)."""
    spec = SPECS[kind]
    params = spec.plan(spec.prepare(instance), rng)
    return spec.realize(instance, params), params


def _rq(n_rows=6, relevant=((1, 1), (3, 0))):
    table = Table.from_values(
        ["Name", "Score"], [[f"n{r}", str(10 + r)] for r in range(n_rows)]
    )
    return QAInstance(
        id="rq-1",
        question="What is the combined score?",
        answers=("99",),
        table=table,
        question_type=RQ,
        relevant_cells=tuple(CellCoord(r, c) for r, c in relevant),
    )


# --- blanking ----------------------------------------------------------------


def test_remove_relevant_blanks_exactly_annotated_cells():
    inst = _rq()
    out, params = _perturb(inst, REMOVE_RELEVANT)
    assert out.table.n_rows == inst.table.n_rows
    assert out.table.n_cols == inst.table.n_cols
    assert out.table.headers == inst.table.headers
    changed = [
        (r, c)
        for r in range(inst.table.n_rows)
        for c in range(inst.table.n_cols)
        if out.table.rows[r][c] != inst.table.rows[r][c]
    ]
    assert sorted(changed) == [(1, 1), (3, 0)]
    for r, c in changed:
        assert out.table.rows[r][c].raw == ""
    assert params["blanked"] == [(1, 1), (3, 0)]


def test_remove_relevant_requires_annotation():
    inst = _rq()
    bare = QAInstance(
        id=inst.id,
        question=inst.question,
        answers=inst.answers,
        table=inst.table,
        question_type=RQ,
    )
    with pytest.raises(MissingAnnotation):
        _perturb(bare, REMOVE_RELEVANT)


def test_remove_relevant_keeps_question_and_answers():
    inst = _rq()
    out, _ = _perturb(inst, REMOVE_RELEVANT)
    assert out.question == inst.question
    assert out.answers == inst.answers
    assert out.id == inst.id


# --- table removal -------------------------------------------------------------


def test_remove_table_yields_dummy_grid():
    inst = _rq()
    out, params = _perturb(inst, REMOVE_TABLE)
    assert out.table.headers == (DUMMY_VALUE,)
    assert out.table.grid_values() == [[DUMMY_VALUE]]
    assert out.answers == inst.answers
    assert params["original_shape"] == [6, 2]


def test_remove_table_drops_cell_annotations():
    inst = _rq()
    out, _ = _perturb(inst, REMOVE_TABLE)
    assert out.relevant_cells is None
    assert out.aggregation is None


def test_remove_table_idempotent_shape():
    inst = _rq()
    once, _ = _perturb(inst, REMOVE_TABLE)
    twice, _ = _perturb(once, REMOVE_TABLE)
    assert twice.table == once.table


# --- row displacement -----------------------------------------------------------


def test_shift_relevant_rows_contiguous_and_ordered():
    inst = _rq(n_rows=8, relevant=((2, 0), (5, 1), (5, 0)))
    out, params = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(4))
    assert Counter(out.table.rows) == Counter(inst.table.rows)
    # the two relevant rows must sit adjacent, original order preserved
    names = [row[0].raw for row in out.table.rows]
    block_start = names.index("n2")
    assert names[block_start : block_start + 2] == ["n2", "n5"]
    # non-relevant rows keep their relative order
    rest = [n for n in names if n not in ("n2", "n5")]
    assert rest == ["n0", "n1", "n3", "n4", "n6", "n7"]
    assert params["relevant_rows"] == [2, 5]
    assert params["noop"] is False


def test_shift_relevant_rows_remaps_annotations():
    inst = _rq(n_rows=8, relevant=((2, 0), (5, 1)))
    out, _ = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(12))
    assert {out.table.cell(c).raw for c in out.relevant_cells} == {
        inst.table.cell(c).raw for c in inst.relevant_cells
    }


def test_shift_relevant_rows_remaps_operands():
    inst = replace(
        _rq(n_rows=6, relevant=((0, 1), (4, 1))),
        aggregation=AggregationDescriptor(
            kind=SUM, value_col=1, operands=(CellCoord(0, 1), CellCoord(4, 1))
        ),
    )
    out, _ = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(2))
    for before, after in zip(inst.aggregation.operands, out.aggregation.operands):
        assert out.table.cell(after).raw == inst.table.cell(before).raw


def test_shift_relevant_rows_noop_when_all_relevant():
    inst = _rq(n_rows=2, relevant=((0, 0), (1, 0)))
    out, params = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(0))
    assert out == inst
    assert params["noop"] is True
    assert params["insert_at"] is None


def test_shift_relevant_rows_covers_every_offset():
    inst = _rq(n_rows=5, relevant=((2, 0),))
    # 4 non-relevant rows -> 5 legal insertion offsets; a healthy stream
    # hits them all within a few hundred draws.
    seen = set()
    for seed in range(300):
        _, params = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(seed))
        seen.add(params["insert_at"])
    assert seen == {0, 1, 2, 3, 4}


@given(st.integers(0, 2**32))
def test_shift_relevant_rows_block_is_contiguous(seed):
    inst = _rq(n_rows=9, relevant=((1, 0), (4, 0), (7, 1)))
    out, params = _perturb(inst, SHIFT_RELEVANT_ROWS, Rng(seed))
    names = [row[0].raw for row in out.table.rows]
    positions = [names.index(f"n{r}") for r in (1, 4, 7)]
    assert positions == [positions[0], positions[0] + 1, positions[0] + 2]
    assert 0 <= params["insert_at"] <= 6


# --- dispatch eligibility --------------------------------------------------------


@pytest.mark.parametrize("kind", [REMOVE_RELEVANT, REMOVE_TABLE])
def test_removal_kinds_reject_extraction_questions(kind, toy_instances):
    eq = next(i for i in toy_instances if i.question_type == EQ)
    with pytest.raises(NotEligible):
        apply_perturbation(eq, kind, global_seed=0)


def test_shift_relevant_rows_requires_annotation_via_dispatch():
    inst = _rq()
    bare = QAInstance(
        id=inst.id,
        question=inst.question,
        answers=inst.answers,
        table=inst.table,
        question_type=RQ,
    )
    with pytest.raises(MissingAnnotation):
        apply_perturbation(bare, SHIFT_RELEVANT_ROWS, global_seed=0)


def test_dispatch_remove_relevant_matches_direct_call():
    inst = _rq()
    via_dispatch, record = apply_perturbation(inst, REMOVE_RELEVANT, global_seed=123)
    direct, _ = _perturb(inst, REMOVE_RELEVANT)
    assert via_dispatch.table == direct.table
    assert record.source_id == inst.id
