"""Aggregation oracle, table projection and answer-change/no-change edits."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.core import (
    ARGMAX,
    ARGMIN,
    AVG,
    COMPARE_TWO,
    COUNT,
    DIFF,
    RQ,
    SUM,
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
    normalize_answer,
)
from freb.errors import (
    CannotPerturb,
    GoldMismatch,
    MissingAnnotation,
    NonNumericCell,
    TieDetected,
)
from freb.perturb import (
    KINDS,
    ROW_REMOVAL,
    SHORTENED,
    VALUE_AC,
    VALUE_NC,
    apply_edits,
    apply_perturbation,
    evaluate_aggregation,
)
from freb.perturb.value import plan_value_edit, prepare_value_edit, realize_value_edit
from freb.rng import Rng

SHORTENED_SPEC = next(spec for spec in KINDS if spec.name == SHORTENED)


def _shorten(instance):
    """The SHORTENED kind's prepare, plan and realize: (shortened instance,
    params)."""
    params = SHORTENED_SPEC.plan(SHORTENED_SPEC.prepare(instance), Rng(0))
    return SHORTENED_SPEC.realize(instance, params), params

SCORES = Table.from_values(
    ["Player", "Team", "Points"],
    [
        ["Ayola", "Reds", "31"],
        ["Brant", "Blues", "24"],
        ["Cusk", "Reds", "19"],
        ["Dorn", "Greens", "8"],
    ],
)


def _desc(kind, **kw):
    return AggregationDescriptor(kind=kind, **kw)


# --- oracle -------------------------------------------------------------------


def test_oracle_argmax_argmin():
    assert evaluate_aggregation(SCORES, _desc(ARGMAX, value_col=2, label_col=0)) == "Ayola"
    assert evaluate_aggregation(SCORES, _desc(ARGMIN, value_col=2, label_col=0)) == "Dorn"


def test_oracle_argmax_tie():
    tied = Table.from_values(["P", "V"], [["a", "5"], ["b", "5"]])
    with pytest.raises(TieDetected):
        evaluate_aggregation(tied, _desc(ARGMAX, value_col=1, label_col=0))


def test_oracle_argmax_needs_label():
    with pytest.raises(MissingAnnotation):
        evaluate_aggregation(SCORES, _desc(ARGMAX, value_col=2))


def test_oracle_argmax_empty_table():
    empty = Table.from_values(["P", "V"], [])
    with pytest.raises(ValueError):
        evaluate_aggregation(empty, _desc(ARGMAX, value_col=1, label_col=0))


def test_oracle_rejects_non_numeric_value():
    with pytest.raises(NonNumericCell):
        evaluate_aggregation(SCORES, _desc(ARGMAX, value_col=1, label_col=0))


def test_oracle_count():
    assert evaluate_aggregation(SCORES, _desc(COUNT, value_col=1, filter=(1, "Reds"))) == "2"
    assert evaluate_aggregation(SCORES, _desc(COUNT, value_col=1, filter=(1, "Golds"))) == "0"


def test_oracle_count_normalizes_matches():
    t = Table.from_values(["N"], [["1,500"], ["1500"], ["x"]])
    assert evaluate_aggregation(t, _desc(COUNT, value_col=0, filter=(0, "1500.0"))) == "2"


def test_oracle_sum_avg():
    assert evaluate_aggregation(SCORES, _desc(SUM, value_col=2)) == "82"
    assert evaluate_aggregation(SCORES, _desc(AVG, value_col=2)) == "20.5"


def _column(*cells):
    return Table.from_values(["V"], [[c] for c in cells])


def test_oracle_sum_diff_are_exact_past_28_digits():
    wide = "1" * 30
    assert evaluate_aggregation(_column(wide, "1"), _desc(SUM, value_col=0)) == "1" * 29 + "2"
    d = _desc(DIFF, value_col=0, operands=(CellCoord(0, 0), CellCoord(1, 0)))
    assert evaluate_aggregation(_column(wide, "1"), d) == "1" * 29 + "0"
    assert evaluate_aggregation(_column("1e40", "1e-40"), d) == "9" * 40 + "." + "9" * 40


def test_oracle_avg_is_exact_when_the_mean_terminates():
    table = _column("1" * 30, "0", "0", "0", "0")
    assert evaluate_aggregation(table, _desc(AVG, value_col=0)) == "2" * 29 + ".2"
    assert evaluate_aggregation(_column("1" * 30, "0"), _desc(AVG, value_col=0)) == "5" * 29 + ".5"


def test_oracle_avg_rounds_a_non_terminating_mean_to_28_digits():
    assert evaluate_aggregation(_column("1", "0", "0"), _desc(AVG, value_col=0)) == (
        "0." + "3" * 28
    )
    assert evaluate_aggregation(_column("2", "0", "0"), _desc(AVG, value_col=0)) == (
        "0." + "6" * 27 + "7"
    )


def test_oracle_refuses_values_too_far_apart_to_add_exactly():
    with pytest.raises(NonNumericCell, match="too far apart"):
        evaluate_aggregation(_column("1e99999", "1"), _desc(SUM, value_col=0))


_CELL = st.decimals(allow_nan=False, allow_infinity=False, places=3, min_value=-(10**35), max_value=10**35)


@given(st.lists(_CELL, min_size=1, max_size=8))
def test_oracle_sum_avg_match_exact_fractions(values):
    table = _column(*(str(v) for v in values))
    total = sum(Fraction(v) for v in values)
    assert Fraction(Decimal(evaluate_aggregation(table, _desc(SUM, value_col=0)))) == total
    mean = total / len(values)
    got = Fraction(Decimal(evaluate_aggregation(table, _desc(AVG, value_col=0))))
    if len(values) in (1, 2, 4, 5, 8):
        assert got == mean
    else:
        assert abs(got - mean) <= abs(mean) * Fraction(1, 10**27)


def test_oracle_diff_signed():
    d = _desc(DIFF, value_col=2, operands=(CellCoord(3, 2), CellCoord(0, 2)))
    assert evaluate_aggregation(SCORES, d) == "-23"
    d = _desc(DIFF, value_col=2, operands=(CellCoord(0, 2), CellCoord(3, 2)))
    assert evaluate_aggregation(SCORES, d) == "23"


def test_oracle_compare_two():
    d = _desc(
        COMPARE_TWO,
        value_col=2,
        label_col=0,
        operands=(CellCoord(1, 2), CellCoord(2, 2)),
    )
    assert evaluate_aggregation(SCORES, d) == "Brant"


def test_oracle_compare_two_tie():
    tied = Table.from_values(["P", "V"], [["a", "5"], ["b", "5"]])
    d = _desc(
        COMPARE_TWO,
        value_col=1,
        label_col=0,
        operands=(CellCoord(0, 1), CellCoord(1, 1)),
    )
    with pytest.raises(TieDetected):
        evaluate_aggregation(tied, d)


# --- shorten -------------------------------------------------------------------


def _rq_instance(descriptor, answers, relevant=None, table=SCORES):
    return QAInstance(
        id="v-1",
        question="How many points in total?",
        answers=answers,
        table=table,
        question_type=RQ,
        relevant_cells=relevant,
        aggregation=descriptor,
    )


def test_shorten_column_aggregation_keeps_all_rows():
    inst = _rq_instance(_desc(SUM, value_col=2), ("82",))
    short, params = _shorten(inst)
    assert short.table.headers == ("Points",)
    assert short.table.n_rows == 4
    assert tuple(params["rows"]) == (0, 1, 2, 3)
    assert tuple(params["cols"]) == (2,)
    assert params["cols"] == [2]


def test_shorten_pairwise_keeps_operand_rows_only():
    d = _desc(
        COMPARE_TWO,
        value_col=2,
        label_col=0,
        operands=(CellCoord(1, 2), CellCoord(3, 2)),
    )
    inst = _rq_instance(d, ("Brant",))
    short, params = _shorten(inst)
    assert short.table.headers == ("Player", "Points")
    assert short.table.grid_values() == [["Brant", "24"], ["Dorn", "8"]]
    assert tuple(params["rows"]) == (1, 3)
    assert tuple(params["cols"]) == (0, 2)


def test_shorten_descriptor_is_remapped_and_oracle_invariant():
    cases = [
        (_desc(ARGMAX, value_col=2, label_col=0), "Ayola"),
        (_desc(COUNT, value_col=1, filter=(1, "Reds")), "2"),
        (_desc(SUM, value_col=2), "82"),
        (_desc(DIFF, value_col=2, operands=(CellCoord(0, 2), CellCoord(1, 2))), "7"),
    ]
    for descriptor, expected in cases:
        inst = _rq_instance(descriptor, (expected,))
        short, _ = _shorten(inst)
        assert evaluate_aggregation(short.table, short.aggregation) == expected


def test_shorten_requires_descriptor():
    inst = QAInstance(
        id="v-2", question="q", answers=("x",), table=SCORES, question_type=RQ
    )
    with pytest.raises(MissingAnnotation):
        apply_perturbation(inst, SHORTENED, global_seed=0)


# --- edits ----------------------------------------------------------------------


def _entry(row, col, old, new, edit_class):
    return {"row": row, "col": col, "old": old, "new": new, "class": edit_class}


def test_apply_edits_value_and_removal():
    edits = [
        _entry(0, 2, "31", "40", "NUMERIC"),
        _entry(2, 0, "", "", ROW_REMOVAL),
    ]
    out = apply_edits(SCORES, edits)
    assert out.n_rows == 3
    assert out.rows[0][2].raw == "40"
    assert out.rows[0][2].parsed_number == Decimal(40)
    assert [r[0].raw for r in out.rows] == ["Ayola", "Brant", "Dorn"]
    # untouched cells are shared, not parsed again
    assert out.rows[0][0] is SCORES.rows[0][0]
    assert out.rows[2][2] is SCORES.rows[3][2]


def test_apply_edits_two_removals_bottom_up():
    edits = [
        _entry(1, 0, "", "", ROW_REMOVAL),
        _entry(3, 0, "", "", ROW_REMOVAL),
    ]
    out = apply_edits(SCORES, edits)
    assert [r[0].raw for r in out.rows] == ["Ayola", "Cusk"]


# SUM, AVG and DIFF name a label column so that the projection the value
# kinds search keeps a non-operand column for VALUE_NC to edit.
ALL_DESCRIPTORS = [
    (_desc(ARGMAX, value_col=2, label_col=0), ("Ayola",)),
    (_desc(ARGMIN, value_col=2, label_col=0), ("Dorn",)),
    (_desc(COUNT, value_col=1, filter=(1, "Reds")), ("2",)),
    (_desc(SUM, value_col=2, label_col=0), ("82",)),
    (_desc(AVG, value_col=2, label_col=0), ("20.5",)),
    (
        _desc(DIFF, value_col=2, label_col=0, operands=(CellCoord(0, 2), CellCoord(1, 2))),
        ("7",),
    ),
    (
        _desc(
            COMPARE_TWO,
            value_col=2,
            label_col=0,
            operands=(CellCoord(0, 2), CellCoord(1, 2)),
        ),
        ("Ayola",),
    ),
]


def _value_edit(descriptor, answers, answer_changes, seed, table=SCORES):
    """VALUE_AC (``answer_changes``) or VALUE_NC as the kind table runs it:
    prepare, plan, realize.  Returns (perturbed instance, edits in the full
    table's coordinates, params)."""
    instance = _rq_instance(descriptor, answers, table=table)
    params = plan_value_edit(answer_changes)(prepare_value_edit(instance), Rng(seed))
    return realize_value_edit(instance, params), params["edits"], params


def test_value_edit_json_round_trip():
    # value_ac and value_nc record each edit as exactly these keys, in this
    # order, and replay the same instance from params that went through JSON.
    for descriptor, answers in ALL_DESCRIPTORS:
        for answer_changes in (True, False):
            for seed in range(6):
                edited, edits, params = _value_edit(descriptor, answers, answer_changes, seed)
                assert edits
                for edit in edits:
                    assert list(edit) == ["row", "col", "old", "new", "class"]
                instance = _rq_instance(descriptor, answers)
                replayed = realize_value_edit(instance, json.loads(json.dumps(params)))
                assert replayed == edited


@pytest.mark.parametrize("descriptor,answers", ALL_DESCRIPTORS, ids=lambda v: getattr(v, "kind", ""))
def test_modify_answer_change_all_kinds(descriptor, answers):
    before = evaluate_aggregation(SCORES, descriptor)
    for seed in range(6):
        edited, edits, params = _value_edit(descriptor, answers, True, seed)
        new = params["new_answer"]
        assert 1 <= len(edits) <= 2
        assert normalize_answer(new) != normalize_answer(before)
        assert edited.answers == (new,)
        assert evaluate_aggregation(edited.table, edited.aggregation) == new


@pytest.mark.parametrize("descriptor,answers", ALL_DESCRIPTORS, ids=lambda v: getattr(v, "kind", ""))
def test_modify_no_change_all_kinds(descriptor, answers):
    before = evaluate_aggregation(SCORES, descriptor)
    for seed in range(6):
        edited, edits, _ = _value_edit(descriptor, answers, False, seed)
        assert 1 <= len(edits) <= 2
        assert edited.table != SCORES  # something really was edited
        assert edited.answers == answers
        assert normalize_answer(
            evaluate_aggregation(edited.table, edited.aggregation)
        ) == normalize_answer(before)


def test_count_answer_change_can_remove_rows():
    descriptor = _desc(COUNT, value_col=1, filter=(1, "Reds"))
    classes = set()
    for seed in range(40):
        _, edits, _ = _value_edit(descriptor, ("2",), True, seed)
        classes.update(e["class"] for e in edits)
    assert ROW_REMOVAL in classes
    assert classes - {ROW_REMOVAL}  # cell edits appear too


def test_count_answer_change_from_zero():
    descriptor = _desc(COUNT, value_col=1, filter=(1, "Golds"))
    edited, _, params = _value_edit(descriptor, ("0",), True, 1)
    assert params["new_answer"] == "1"
    assert evaluate_aggregation(edited.table, edited.aggregation) == "1"


def test_sum_no_change_leaves_operand_column_alone():
    descriptor = _desc(SUM, value_col=2, label_col=0)
    for seed in range(10):
        edited, edits, _ = _value_edit(descriptor, ("82",), False, seed)
        for edit in edits:
            assert edit["col"] != 2
        assert evaluate_aggregation(edited.table, edited.aggregation) == "82"


def test_extremal_no_change_keeps_winner_label():
    descriptor = _desc(ARGMIN, value_col=2, label_col=0)
    for seed in range(10):
        edited, edits, _ = _value_edit(descriptor, ("Dorn",), False, seed)
        assert evaluate_aggregation(edited.table, edited.aggregation) == "Dorn"
        # the winning row's cells are off-limits
        for edit in edits:
            assert edit["row"] != 3


def test_cannot_perturb_single_row_extremal():
    single = Table.from_values(["P", "V"], [["a", "5"]])
    with pytest.raises(CannotPerturb):
        _value_edit(_desc(ARGMAX, value_col=1, label_col=0), ("a",), False, 0, table=single)


def test_modify_is_deterministic_per_seed():
    descriptor = _desc(SUM, value_col=2)
    a = _value_edit(descriptor, ("82",), True, 17)
    b = _value_edit(descriptor, ("82",), True, 17)
    assert a == b


# --- dispatch ---------------------------------------------------------------------


def test_apply_value_ac_updates_answers():
    inst = _rq_instance(_desc(SUM, value_col=2), ("82",))
    out, record = apply_perturbation(inst, VALUE_AC, global_seed=3)
    new_answer = record.params["new_answer"]
    assert out.answers == (new_answer,)
    assert record.params["original_answers"] == ["82"]
    assert normalize_answer(new_answer) != "82"
    # edits recorded in full-table coordinates
    for edit in record.params["edits"]:
        assert 0 <= edit["row"] < SCORES.n_rows or edit["class"] == ROW_REMOVAL
        assert 0 <= edit["col"] < SCORES.n_cols
    assert evaluate_aggregation(out.table, out.aggregation) == new_answer


def test_apply_value_nc_keeps_answers():
    inst = _rq_instance(_desc(ARGMAX, value_col=2, label_col=0), ("Ayola",))
    out, record = apply_perturbation(inst, VALUE_NC, global_seed=3)
    assert out.answers == ("Ayola",)
    assert out.table != inst.table
    assert evaluate_aggregation(out.table, out.aggregation) == "Ayola"
    assert record.params["edits"]


def test_apply_value_requires_descriptor():
    inst = QAInstance(
        id="v-3", question="q", answers=("x",), table=SCORES, question_type=RQ
    )
    with pytest.raises(MissingAnnotation):
        apply_perturbation(inst, VALUE_AC, global_seed=0)


# Each descriptor of ALL_DESCRIPTORS with a gold answer it does not give.
WRONG_GOLD = ["Brant", "Ayola", "3", "81", "20", "-7", "Brant"]


@pytest.mark.parametrize("kind", [VALUE_AC, VALUE_NC, SHORTENED])
def test_value_kinds_skip_an_instance_whose_descriptor_disagrees_with_gold(kind):
    for (descriptor, answers), wrong in zip(ALL_DESCRIPTORS, WRONG_GOLD):
        instance = _rq_instance(descriptor, (wrong,))
        for seed in range(3):
            with pytest.raises(GoldMismatch) as raised:
                apply_perturbation(instance, kind, global_seed=seed)
            # The detail names the descriptor's answer and the gold.
            assert str(raised.value) == (
                f"the descriptor's answer {evaluate_aggregation(SCORES, descriptor)!r} "
                f"is not a gold answer: {[wrong]!r}"
            )
        # Gold that agrees once normalized, beside one that does not, is kept.
        agreeing = _rq_instance(descriptor, ("wrong", answers[0].upper()))
        apply_perturbation(agreeing, kind, global_seed=0)


def test_apply_value_ac_row_removal_remaps(toy_instances):
    # COUNT instances are the ones that can draw ROW_REMOVAL edits; the
    # perturbed instance must stay self-consistent (descriptor in range).
    from freb.core import validate

    count_insts = [
        i for i in toy_instances if i.aggregation and i.aggregation.kind == COUNT
    ]
    assert count_insts
    for inst in count_insts:
        for seed in range(3):
            out, record = apply_perturbation(inst, VALUE_AC, global_seed=seed)
            assert validate(out) == []
            assert evaluate_aggregation(out.table, out.aggregation) == out.answers[0]
