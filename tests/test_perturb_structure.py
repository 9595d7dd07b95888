"""Row/column rearrangement perturbations: invariants, annotation remaps,
and replay of every kind from its recorded params."""

import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.core import (
    DIFF,
    EQ,
    RQ,
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
    validate,
)
from freb.errors import NoTargetFound, NotEligible, PerturbSkip, TooFewRows, UnsupportedKind
from freb.perturb import (
    ALL_KINDS,
    KINDS,
    RELEVANCE_KINDS,
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHORTENED,
    SHUFFLE_COLS,
    SHUFFLE_ROWS,
    STRUCTURE_KINDS,
    TARGET_COL_BACK,
    TARGET_COL_FRONT,
    TARGET_ROW_BOTTOM,
    TARGET_ROW_MIDDLE,
    TARGET_ROW_TOP,
    TRANSPOSE,
    apply_perturbation,
    kind_from_name,
    locate_target,
    partition_indices,
    replay,
    transpose,
)
from freb.rng import Rng

SPECS = {spec.name: spec for spec in KINDS}
ROW_KINDS = {"TOP": TARGET_ROW_TOP, "MIDDLE": TARGET_ROW_MIDDLE, "BOTTOM": TARGET_ROW_BOTTOM}
COL_KINDS = {"FRONT": TARGET_COL_FRONT, "BACK": TARGET_COL_BACK}


def _perturb(instance, kind, rng):
    """A kind's prepare, plan and realize under ``rng``: (perturbed instance,
    params)."""
    spec = SPECS[kind]
    params = spec.plan(spec.prepare(instance), rng)
    return spec.realize(instance, params), params


def _grid(n_rows, n_cols):
    return [[f"r{r}c{c}" for c in range(n_cols)] for r in range(n_rows)]


def _table(n_rows, n_cols):
    return Table.from_values([f"h{c}" for c in range(n_cols)], _grid(n_rows, n_cols))


def _on(table):
    return QAInstance(id="s-0", question="q", answers=("x",), table=table, question_type=EQ)


def _eq_instance(answer_cell=(2, 1), n_rows=6, n_cols=3, **overrides):
    table = _table(n_rows, n_cols)
    base = dict(
        id="s-1",
        question="What is in the grid?",
        answers=(table.rows[answer_cell[0]][answer_cell[1]].raw,),
        table=table,
        question_type=EQ,
    )
    base.update(overrides)
    return QAInstance(**base)


# --- target location -------------------------------------------------------


def test_locate_target_first_row_major_match():
    t = Table.from_values(["A", "B"], [["x", "15"], ["15", "y"]])
    inst = QAInstance(id="l1", question="q", answers=("15",), table=t)
    loc = locate_target(inst)
    assert (loc.row, loc.col) == (0, 1)
    assert loc.ambiguous is True


def test_locate_target_unique():
    loc = locate_target(_eq_instance())
    assert (loc.row, loc.col, loc.ambiguous) == (2, 1, False)


def test_locate_target_normalizes():
    t = Table.from_values(["A"], [["1,500"]])
    inst = QAInstance(id="l2", question="q", answers=("1500.0",), table=t)
    assert locate_target(inst).row == 0


def test_locate_target_ignores_headers():
    t = Table.from_values(["15"], [["x"]])
    inst = QAInstance(id="l3", question="q", answers=("15",), table=t)
    with pytest.raises(NoTargetFound):
        locate_target(inst)


# --- partitioning ----------------------------------------------------------


def test_partition_remainder_goes_to_front():
    assert partition_indices(10, 3).boundaries == ((0, 4), (4, 7), (7, 10))
    assert partition_indices(5, 2).boundaries == ((0, 3), (3, 5))
    assert partition_indices(3, 3).boundaries == ((0, 1), (1, 2), (2, 3))


def test_partition_too_few_rows():
    with pytest.raises(TooFewRows):
        partition_indices(2, 3)


@given(st.integers(1, 200), st.integers(1, 7))
def test_partition_covers_range_without_gaps(n, parts):
    if n < parts:
        with pytest.raises(TooFewRows):
            partition_indices(n, parts)
        return
    bounds = partition_indices(n, parts).boundaries
    assert bounds[0][0] == 0
    assert bounds[-1][1] == n
    sizes = [stop - start for start, stop in bounds]
    assert all(s >= 1 for s in sizes)
    assert max(sizes) - min(sizes) <= 1
    # sizes are non-increasing front to back (remainder sits at the front)
    assert sizes == sorted(sizes, reverse=True)
    for (_, prev_stop), (start, _) in zip(bounds, bounds[1:]):
        assert prev_stop == start


# --- shuffles ---------------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(0, 8), st.integers(1, 5))
def test_shuffle_rows_preserves_row_multiset(seed, n_rows, n_cols):
    table = _table(n_rows, n_cols)
    out, params = _perturb(_on(table), SHUFFLE_ROWS, Rng(seed))
    shuffled = out.table
    assert shuffled.headers == table.headers
    assert Counter(shuffled.rows) == Counter(table.rows)
    perm = params["permutation"]
    assert [table.rows[j] for j in perm] == list(shuffled.rows)


@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(1, 8))
def test_shuffle_cols_keeps_header_cell_pairing(seed, n_rows, n_cols):
    table = _table(n_rows, n_cols)
    shuffled = _perturb(_on(table), SHUFFLE_COLS, Rng(seed))[0].table
    assert sorted(shuffled.headers) == sorted(table.headers)
    original_cols = {h: table.column_values(j) for j, h in enumerate(table.headers)}
    for j, h in enumerate(shuffled.headers):
        assert shuffled.column_values(j) == original_cols[h]


def test_shuffle_remaps_relevant_cells():
    inst = _eq_instance(relevant_cells=(CellCoord(2, 1), CellCoord(0, 0)))
    out, _ = apply_perturbation(inst, SHUFFLE_ROWS, global_seed=5)
    originals = {inst.table.cell(c).raw for c in inst.relevant_cells}
    remapped = {out.table.cell(c).raw for c in out.relevant_cells}
    assert remapped == originals


# --- target shifts ----------------------------------------------------------


@pytest.mark.parametrize("part,part_index", [("TOP", 0), ("MIDDLE", 1), ("BOTTOM", 2)])
def test_shift_target_row_lands_in_part(part, part_index):
    inst = _eq_instance(answer_cell=(4, 2), n_rows=10)
    for seed in range(30):
        out, params = _perturb(inst, ROW_KINDS[part], Rng(seed))
        start, stop = partition_indices(10, 3).boundaries[part_index]
        landed = params["insert_at"]
        assert start <= landed < stop
        assert out.table.rows[landed][2].raw == inst.answers[0]
        assert params["part_range"] == [start, stop]


def test_shift_target_row_keeps_other_rows_ordered():
    inst = _eq_instance(answer_cell=(3, 0), n_rows=7)
    out, _ = _perturb(inst, TARGET_ROW_TOP, Rng(9))
    target = inst.table.rows[3]
    others = [r for r in inst.table.rows if r != target]
    assert [r for r in out.table.rows if r != target] == others
    assert Counter(out.table.rows) == Counter(inst.table.rows)


def test_shift_target_row_remaps_annotations():
    inst = _eq_instance(
        answer_cell=(5, 1),
        n_rows=9,
        relevant_cells=(CellCoord(5, 1), CellCoord(1, 0)),
    )
    out, _ = _perturb(inst, TARGET_ROW_TOP, Rng(3))
    assert {out.table.cell(c).raw for c in out.relevant_cells} == {
        inst.table.cell(c).raw for c in inst.relevant_cells
    }


def test_shift_target_row_too_few_rows():
    inst = _eq_instance(answer_cell=(1, 0), n_rows=2)
    with pytest.raises(TooFewRows):
        _perturb(inst, TARGET_ROW_TOP, Rng(0))


@pytest.mark.parametrize("part,part_index", [("FRONT", 0), ("BACK", 1)])
def test_shift_target_col_lands_in_part(part, part_index):
    inst = _eq_instance(answer_cell=(1, 2), n_rows=4, n_cols=5)
    for seed in range(20):
        out, params = _perturb(inst, COL_KINDS[part], Rng(seed))
        start, stop = partition_indices(5, 2).boundaries[part_index]
        landed = params["insert_at"]
        assert start <= landed < stop
        assert out.table.rows[1][landed].raw == inst.answers[0]
        assert out.table.headers[landed] == "h2"


def test_shift_target_col_single_column_fails():
    inst = _eq_instance(answer_cell=(0, 0), n_rows=3, n_cols=1)
    with pytest.raises(TooFewRows):
        _perturb(inst, TARGET_COL_FRONT, Rng(0))


# --- transpose ---------------------------------------------------------------


def test_transpose_maps_cells():
    t = Table.from_values(["A", "B"], [["1", "2"], ["3", "4"], ["5", "6"]])
    out = transpose(t)
    params = _perturb(_on(t), TRANSPOSE, Rng(0))[1]
    assert out.headers == ("0", "1", "2", "3")
    assert out.grid_values() == [["A", "1", "3", "5"], ["B", "2", "4", "6"]]
    assert params["original_shape"] == [3, 2]
    # (r, c) -> (c, r + 1)
    for r in range(t.n_rows):
        for c in range(t.n_cols):
            assert out.rows[c][r + 1] is t.rows[r][c]  # moved, not parsed again


def test_transpose_zero_rows():
    t = Table.from_values(["A", "B"], [])
    out = transpose(t)
    assert out.headers == ("0",)
    assert out.grid_values() == [["A"], ["B"]]


def _recover(transposed: Table) -> Table:
    """Undo an index-headered transpose."""
    headers = [row[0].raw for row in transposed.rows]
    grid = [
        [transposed.rows[c][r + 1].raw for c in range(transposed.n_rows)]
        for r in range(transposed.n_cols - 1)
    ]
    return Table.from_values(headers, grid)


@given(st.integers(0, 6), st.integers(1, 6))
def test_transpose_recovery(n_rows, n_cols):
    t = _table(n_rows, n_cols)
    out = transpose(t)
    assert _recover(out) == t


# --- replay and dispatch ------------------------------------------------------


def _assert_replays(inst, out, record):
    assert validate(out) == []
    assert replay(inst, record) == out
    through_json = replace(record, params=json.loads(json.dumps(record.params)))
    assert replay(inst, through_json) == out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_replay_reproduces_table(kind, toy_instances, sorted_instances):
    replayed = 0
    for inst in [*toy_instances, *sorted_instances]:
        for seed in range(5):
            try:
                out, record = apply_perturbation(inst, kind, global_seed=seed)
            except PerturbSkip:
                continue
            _assert_replays(inst, out, record)
            replayed += 1
    assert replayed > 0


_CELLS = st.sampled_from(["", "x", "15", "1,500", "-3.5", "a b"])


@st.composite
def _annotated_instances(draw):
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    grid = [[draw(_CELLS) for _ in range(n_cols)] for _ in range(n_rows)]
    coords = st.builds(CellCoord, st.integers(0, max(0, n_rows - 1)), st.integers(0, n_cols - 1))
    relevant = None
    aggregation = None
    if n_rows:
        relevant = tuple(draw(st.lists(coords, max_size=4, unique=True)))
        operands = (draw(coords), draw(coords))
        aggregation = draw(st.sampled_from([None, AggregationDescriptor(DIFF, 0, operands=operands)]))
    return QAInstance(
        id=f"h-{n_rows}-{n_cols}",
        question="q",
        answers=(draw(st.sampled_from(["x", "1500", "zz"])),),
        table=Table.from_values([f"h{c}" for c in range(n_cols)], grid),
        relevant_cells=relevant,
        aggregation=aggregation,
    )


@given(
    _annotated_instances(),
    st.sampled_from(STRUCTURE_KINDS + RELEVANCE_KINDS),
    st.integers(0, 2**32),
)
def test_replay_reproduces_hypothesis_tables(inst, kind, seed):
    inst = replace(inst, question_type=EQ if kind in STRUCTURE_KINDS else RQ)
    try:
        out, record = apply_perturbation(inst, kind, global_seed=seed)
    except PerturbSkip:
        return
    _assert_replays(inst, out, record)


def test_seed_invariant_kinds_are_those_whose_plans_draw_nothing(
    toy_instances, sorted_instances
):
    def outcome(inst, kind, seed):
        try:
            return apply_perturbation(inst, kind, seed)[1].params
        except PerturbSkip as exc:
            return type(exc).__name__

    varies = {
        kind
        for inst in [*toy_instances, *sorted_instances]
        for kind in ALL_KINDS
        if outcome(inst, kind, 0) != outcome(inst, kind, 1)
    }
    assert set(ALL_KINDS) - varies == {TRANSPOSE, REMOVE_RELEVANT, REMOVE_TABLE, SHORTENED}


def test_apply_perturbation_is_deterministic():
    inst = _eq_instance()
    a, rec_a = apply_perturbation(inst, SHUFFLE_ROWS, global_seed=7)
    b, rec_b = apply_perturbation(inst, SHUFFLE_ROWS, global_seed=7)
    assert a == b
    assert rec_a == rec_b
    c, _ = apply_perturbation(inst, SHUFFLE_ROWS, global_seed=8)
    assert a != c or inst.table.n_rows <= 1


def test_kind_streams_are_independent():
    inst = _eq_instance(n_rows=8)
    top, _ = apply_perturbation(inst, TARGET_ROW_TOP, global_seed=7)
    bottom, _ = apply_perturbation(inst, TARGET_ROW_BOTTOM, global_seed=7)
    assert top != bottom


@pytest.mark.parametrize("kind", STRUCTURE_KINDS)
def test_structure_kinds_reject_reasoning_questions(kind):
    inst = _eq_instance(question_type=RQ)
    with pytest.raises(NotEligible):
        apply_perturbation(inst, kind, global_seed=0)


def test_transpose_drops_cell_annotations():
    inst = _eq_instance(relevant_cells=(CellCoord(0, 0),))
    out, record = apply_perturbation(inst, TRANSPOSE, global_seed=0)
    assert out.relevant_cells is None
    assert record.params["annotations_dropped"] is True


def test_kind_table_fixes_families_and_canonical_order():
    from freb.perturb import ALL_KINDS, KINDS, RELEVANCE_KINDS, VALUE_KINDS

    assert len(KINDS) == 14
    assert ALL_KINDS == tuple(spec.name for spec in KINDS)
    assert ALL_KINDS == STRUCTURE_KINDS + RELEVANCE_KINDS + VALUE_KINDS
    assert STRUCTURE_KINDS[0] == SHUFFLE_ROWS and STRUCTURE_KINDS[-1] == TRANSPOSE
    assert {spec.family for spec in KINDS} == {"structure", "relevance", "value"}


def test_apply_perturbation_rejects_unknown_kind():
    with pytest.raises(UnsupportedKind, match="unknown perturbation kind 'ROTATE'"):
        apply_perturbation(_eq_instance(), "ROTATE", global_seed=0)


def test_kind_from_name():
    assert kind_from_name("shuffle_rows") == SHUFFLE_ROWS
    assert kind_from_name(" Transpose ") == TRANSPOSE
    with pytest.raises(ValueError, match="unknown perturbation kind"):
        kind_from_name("rotate")


@pytest.mark.parametrize(
    "kind",
    [TARGET_ROW_TOP, TARGET_ROW_MIDDLE, TARGET_ROW_BOTTOM, TARGET_COL_FRONT, TARGET_COL_BACK],
)
def test_target_kinds_need_answer_in_table(kind):
    inst = _eq_instance(answers=("not in grid",))
    with pytest.raises(NoTargetFound):
        apply_perturbation(inst, kind, global_seed=1)
