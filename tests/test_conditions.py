"""The shared condition loop against the one-instance path.

``iter_conditions`` runs each (instance, kind)'s seed-independent prepare
step once and realizes each distinct params of an (instance, kind) once;
these tests check that it still gives exactly what ``apply_perturbation``
gives, and that the work it saves is really done only once.
"""

import gc
import importlib
import weakref
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from freb.core import ARGMAX, EQ, RQ, AggregationDescriptor, CellCoord, QAInstance, Table
from freb.errors import CannotPerturb, MissingAnnotation, NotEligible, PerturbSkip
from freb.ingest import load_dataset
from freb.perturb import (
    ALL_KINDS,
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHIFT_RELEVANT_ROWS,
    SHORTENED,
    SHUFFLE_COLS,
    SHUFFLE_ROWS,
    TARGET_COL_BACK,
    TARGET_COL_FRONT,
    TARGET_ROW_BOTTOM,
    TARGET_ROW_MIDDLE,
    TARGET_ROW_TOP,
    TRANSPOSE,
    VALUE_AC,
    VALUE_NC,
    apply_perturbation,
    iter_conditions,
)
from freb.rng import derive_seed

SEEDS = range(5)
TARGET_KINDS = {
    TARGET_ROW_TOP, TARGET_ROW_MIDDLE, TARGET_ROW_BOTTOM, TARGET_COL_FRONT, TARGET_COL_BACK
}
NO_DRAW_KINDS = {TRANSPOSE, REMOVE_RELEVANT, REMOVE_TABLE, SHORTENED}

apply_module = importlib.import_module("freb.perturb.apply")
structure_module = importlib.import_module("freb.perturb.structure")


def _one_at_a_time(instances, kinds, seeds):
    """(kind, seed, perturbed, skipped) per condition via apply_perturbation."""
    for kind in kinds:
        for seed in seeds:
            perturbed, skipped = [], []
            for inst in instances:
                try:
                    perturbed.append(apply_perturbation(inst, kind, seed))
                except PerturbSkip as exc:
                    skipped.append(
                        {"id": inst.id, "reason": type(exc).__name__, "detail": str(exc)}
                    )
            yield kind, seed, perturbed, skipped


@pytest.mark.parametrize("dataset", ["toy_instances", "sorted_instances"])
def test_iter_conditions_equals_apply_perturbation(dataset, request):
    instances = request.getfixturevalue(dataset)
    shared = [
        (c.kind, c.seed, c.perturbed, c.skipped)
        for c in iter_conditions(instances, ALL_KINDS, SEEDS)
    ]
    expected = list(_one_at_a_time(instances, ALL_KINDS, SEEDS))
    assert [c[:2] for c in shared] == [c[:2] for c in expected]
    for got, want in zip(shared, expected):
        # Instances, records (kind, seed, params, source id) and skip entries.
        assert got == want, got[:2]


def _counting_specs(monkeypatch, calls):
    """Wrap every kind's prepare and realize to count (step, id, kind) and
    locate_target to count (id, kind of the prepare it runs in)."""
    current = {}

    def counted_prepare(spec):
        def prepare(instance):
            current["kind"] = spec.name
            calls[("prepare", instance.id, spec.name)] += 1
            return spec.prepare(instance)

        return prepare

    def counted_realize(spec):
        def realize(instance, params):
            calls[("realize", instance.id, spec.name)] += 1
            return spec.realize(instance, params)

        return realize

    plain_locate = structure_module.locate_target

    def locate_target(instance):
        calls[("locate_target", instance.id, current.get("kind"))] += 1
        return plain_locate(instance)

    monkeypatch.setattr(structure_module, "locate_target", locate_target)
    for name, spec in list(apply_module._SPECS.items()):
        monkeypatch.setitem(
            apply_module._SPECS,
            name,
            replace(spec, prepare=counted_prepare(spec), realize=counted_realize(spec)),
        )


def test_seed_independent_work_runs_once(monkeypatch, toy_instances, sorted_instances):
    instances = [*toy_instances, *sorted_instances]
    calls = Counter()
    _counting_specs(monkeypatch, calls)
    perturbed = Counter()
    # (source id, kind) -> repr(params) -> ids of the instances given for them.
    # A kind's perturbed instances live until the kind ends, so their ids
    # are distinct within it.
    shared = defaultdict(lambda: defaultdict(set))
    for condition in iter_conditions(instances, ALL_KINDS, SEEDS):
        for out, record in condition.perturbed:
            key = (record.source_id, record.kind)
            perturbed[key] += 1
            assert record.seed == derive_seed(condition.seed, *key)
            shared[key][repr(record.params)].add(id(out))

    for inst in instances:
        for kind in ALL_KINDS:
            key = (inst.id, kind)
            assert calls[("prepare", *key)] == 1, key
            located = kind in TARGET_KINDS and inst.question_type == EQ
            assert calls[("locate_target", *key)] == located, key
            # Seeds with equal params share one realized instance.
            assert calls[("realize", *key)] == len(shared[key]), key
            assert all(len(ids) == 1 for ids in shared[key].values()), key
            if kind in NO_DRAW_KINDS and perturbed[key]:
                assert perturbed[key] == len(SEEDS) and len(shared[key]) == 1, key
    # Reuse really occurs for kinds whose plans draw: fewer realizes than
    # perturbed instances.
    for kind in (SHUFFLE_ROWS, SHIFT_RELEVANT_ROWS, *TARGET_KINDS):
        keys = [key for key in perturbed if key[1] == kind]
        assert sum(len(shared[key]) for key in keys) < sum(perturbed[key] for key in keys), kind


# Perturbed instances equal to their original on the toy set over SEEDS.
TOY_NO_OPS = {
    SHIFT_RELEVANT_ROWS: 285,
    TARGET_COL_BACK: 122,
    TARGET_ROW_BOTTOM: 87,
    TARGET_ROW_TOP: 66,
    TARGET_COL_FRONT: 65,
    TARGET_ROW_MIDDLE: 52,
    SHUFFLE_COLS: 15,
    SHUFFLE_ROWS: 5,
}


def test_a_no_op_is_the_original_instance(toy_instances):
    by_id = {inst.id: inst for inst in toy_instances}
    no_ops = Counter()
    expected = _one_at_a_time(toy_instances, ALL_KINDS, SEEDS)
    for condition, (_, _, want, _) in zip(
        iter_conditions(toy_instances, ALL_KINDS, SEEDS), expected, strict=True
    ):
        assert len(condition.perturbed) == len(want)
        for (out, record), (want_out, want_record) in zip(condition.perturbed, want):
            assert (out, record) == (want_out, want_record)
            original = by_id[record.source_id]
            # Equal to the original exactly when it is the original object.
            assert (out == original) is (out is original), record
            no_ops[condition.kind] += out is original
    assert sum(no_ops.values()) == 697
    assert {kind: no_ops[kind] for kind in ALL_KINDS} == {
        kind: TOY_NO_OPS.get(kind, 0) for kind in ALL_KINDS
    }


def test_a_skip_the_plan_raises_is_listed_for_every_seed(monkeypatch):
    # One row: prepare projects the table and keys its answer, but without a
    # second row no edit can move or keep an ARGMAX answer, so the plan raises.
    lone = QAInstance(
        id="lone-argmax",
        question="Which team scored the most points?",
        answers=("Comets",),
        table=Table.from_values(["Team", "Points"], [["Comets", "12"]]),
        question_type=RQ,
        relevant_cells=(CellCoord(0, 0), CellCoord(0, 1)),
        aggregation=AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0),
    )
    kinds = (VALUE_AC, VALUE_NC)
    expected = {}
    for kind in kinds:
        with pytest.raises(CannotPerturb) as raised:
            apply_perturbation(lone, kind, 0)
        exc = raised.value
        expected[kind] = {"id": lone.id, "reason": type(exc).__name__, "detail": str(exc)}

    calls = Counter()
    _counting_specs(monkeypatch, calls)
    conditions = list(iter_conditions([lone], kinds, SEEDS))
    assert [(c.kind, c.seed) for c in conditions] == [(k, s) for k in kinds for s in SEEDS]
    for condition in conditions:
        assert condition.perturbed == []
        assert condition.skipped == [expected[condition.kind]]
    for kind in kinds:
        assert calls[("prepare", lone.id, kind)] == 1
        assert calls[("realize", lone.id, kind)] == 0


def test_iter_conditions_keeps_no_instance_alive(toy_path):
    instances = load_dataset(toy_path)
    refs = [weakref.ref(inst) for inst in instances]
    for condition in iter_conditions(instances, ALL_KINDS, SEEDS):
        assert condition.perturbed or condition.skipped
    del instances, condition
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


# A reasoning question with every annotation, and what each requirement
# takes away from it to leave an instance that lacks it.
ANNOTATED = QAInstance(
    id="annotated",
    question="Which team scored the most points?",
    answers=("Comets",),
    table=Table.from_values(
        ["Team", "Points"], [["Owls", "7"], ["Comets", "12"], ["Hawks", "9"]]
    ),
    question_type=RQ,
    relevant_cells=(CellCoord(1, 0), CellCoord(1, 1)),
    aggregation=AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0),
)
LACKS = {
    "EQ": {"question_type": RQ},
    "RQ": {"question_type": EQ},
    "relevant_cells": {"relevant_cells": None},
    "aggregation": {"aggregation": None},
}
EXTRACTION_ONLY = "applies to extraction questions only"
SKIPS = {
    SHUFFLE_ROWS: ("EQ", NotEligible, f"shuffle_rows {EXTRACTION_ONLY}"),
    SHUFFLE_COLS: ("EQ", NotEligible, f"shuffle_cols {EXTRACTION_ONLY}"),
    TARGET_ROW_TOP: ("EQ", NotEligible, f"target_row_top {EXTRACTION_ONLY}"),
    TARGET_ROW_MIDDLE: ("EQ", NotEligible, f"target_row_middle {EXTRACTION_ONLY}"),
    TARGET_ROW_BOTTOM: ("EQ", NotEligible, f"target_row_bottom {EXTRACTION_ONLY}"),
    TARGET_COL_FRONT: ("EQ", NotEligible, f"target_col_front {EXTRACTION_ONLY}"),
    TARGET_COL_BACK: ("EQ", NotEligible, f"target_col_back {EXTRACTION_ONLY}"),
    TRANSPOSE: ("EQ", NotEligible, f"transpose {EXTRACTION_ONLY}"),
    REMOVE_RELEVANT: (
        "RQ", NotEligible, "remove_relevant applies to reasoning questions only"
    ),
    REMOVE_TABLE: ("RQ", NotEligible, "remove_table applies to reasoning questions only"),
    SHIFT_RELEVANT_ROWS: (
        "relevant_cells", MissingAnnotation, "shift_relevant_rows needs relevant-cell annotations"
    ),
    VALUE_AC: ("aggregation", MissingAnnotation, "value_ac needs an aggregation descriptor"),
    VALUE_NC: ("aggregation", MissingAnnotation, "value_nc needs an aggregation descriptor"),
    SHORTENED: ("aggregation", MissingAnnotation, "shortened needs an aggregation descriptor"),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_kind_skips_an_instance_that_lacks_its_requirement(kind):
    requirement, skip, detail = SKIPS[kind]
    lacking = replace(ANNOTATED, **LACKS[requirement])
    for seed in SEEDS:
        with pytest.raises(PerturbSkip) as raised:
            apply_perturbation(lacking, kind, seed)
        assert type(raised.value) is skip
        assert str(raised.value) == detail
    entry = {"id": lacking.id, "reason": skip.__name__, "detail": detail}
    for condition in iter_conditions([lacking], [kind], SEEDS):
        assert condition.perturbed == []
        assert condition.skipped == [entry]


def test_shift_relevant_rows_perturbs_an_annotated_extraction_question():
    extraction = replace(ANNOTATED, question_type=EQ, aggregation=None)
    for condition in iter_conditions([extraction], [SHIFT_RELEVANT_ROWS], SEEDS):
        assert condition.skipped == []
        [(perturbed, record)] = condition.perturbed
        assert (perturbed, record) == apply_perturbation(
            extraction, SHIFT_RELEVANT_ROWS, condition.seed
        )
        assert perturbed.question_type == EQ
        assert record.params["relevant_rows"] == [1]
