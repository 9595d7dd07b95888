"""Single entry point for applying any perturbation kind to an instance.

``KINDS`` is the one table of perturbation kinds: each row names a kind,
its family, its requirement (the question type or annotation an instance
must have), a seed-independent ``prepare`` step that does the work that
needs no random draw once the requirement is met (locating the target, the
value kinds' shortened projection and its oracle answer), a ``plan`` that
makes every random draw on top of that and returns the kind's params, and a
pure ``realize`` that builds the perturbed instance from the original and
those params alone.
``apply_perturbation`` runs prepare, plan and realize for one instance under
its random stream and records the provenance; ``replay`` rebuilds any
perturbed instance from its record.  ``iter_conditions`` is the kinds x seeds
x instances loop that ``freb perturb`` and ``freb evaluate`` share, in two
stages.  The plan stage (``plan_conditions``) runs each (instance, kind)'s
prepare once for all seeds and every plan, and gives plain data: each
instance's derived seed and params, or its skip entry.  The realize stage
(``realize_conditions``) builds the conditions from that data alone, so the
two may run in different processes: it realizes each distinct params of an
(instance, kind) once, so a seed whose plan returns params an earlier seed
returned gets that seed's perturbed instance object, and a perturbation that
changes nothing gives the original object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..core import EQ, RQ, QAInstance
from ..errors import MissingAnnotation, NotEligible, PerturbSkip, UnsupportedKind
from ..rng import Rng, derive_rng
from .relevance import (
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHIFT_RELEVANT_ROWS,
    plan_shift_relevant_rows,
    prepare_remove_relevant,
    prepare_remove_table,
    prepare_shift_relevant_rows,
    realize_remove_relevant,
    realize_remove_table,
    realize_shift_relevant_rows,
)
from .structure import (
    SHUFFLE_COLS,
    SHUFFLE_ROWS,
    TARGET_COL_BACK,
    TARGET_COL_FRONT,
    TARGET_ROW_BOTTOM,
    TARGET_ROW_MIDDLE,
    TARGET_ROW_TOP,
    TRANSPOSE,
    plan_shuffle_cols,
    plan_shuffle_rows,
    plan_target_shift,
    prepare_target_shift,
    prepare_transpose,
    realize_shuffle_cols,
    realize_shuffle_rows,
    realize_target_col,
    realize_target_row,
    realize_transpose,
)
from .value import (
    SHORTENED,
    VALUE_AC,
    VALUE_NC,
    plan_value_edit,
    prepare_shortened,
    prepare_value_edit,
    realize_shortened,
    realize_value_edit,
)


@dataclass(frozen=True)
class PerturbationRecord:
    """Provenance of one derived instance: ``replay`` rebuilds it from the
    source instance and ``params`` alone.  ``seed`` is the kind's derived
    per-instance seed, whether or not its plan draws from it."""

    kind: str
    seed: int
    params: dict
    source_id: str


@dataclass(frozen=True)
class KindSpec:
    """One perturbation kind.

    ``prepare(instance)`` is the seed-independent step: it raises a
    PerturbSkip subclass for instances the kind does not apply to, and
    returns what ``plan`` needs (the instance itself, for the shuffles).
    ``plan(prepared, rng)`` makes every draw and may raise a PerturbSkip too;
    a plan that draws nothing returns the same params for every seed.
    ``realize(instance, params)`` is pure and returns the perturbed instance,
    so equal params may share one.
    """

    name: str
    family: str
    prepare: Callable[[QAInstance], Any]
    plan: Callable[[Any, Rng], dict]
    realize: Callable[[QAInstance, dict], QAInstance]


# What a kind requires of an instance: the test, the skip it raises on an
# instance that fails it, and the skip's text after the kind's name.
# Structure kinds rearrange lookup evidence, so they need extraction
# questions; the removals need reasoning questions, and the other kinds the
# annotation they read.
_REQUIREMENTS = {
    EQ: (lambda i: i.question_type == EQ, NotEligible, "applies to extraction questions only"),
    RQ: (lambda i: i.question_type == RQ, NotEligible, "applies to reasoning questions only"),
    "relevant_cells": (
        lambda i: i.relevant_cells, MissingAnnotation, "needs relevant-cell annotations"
    ),
    "aggregation": (lambda i: i.aggregation, MissingAnnotation, "needs an aggregation descriptor"),
}


def _kind(name: str, family: str, requirement: str, prepare, plan, realize) -> KindSpec:
    """A kind whose prepare step checks ``requirement``, then runs
    ``prepare`` (or passes the instance on when it is None)."""
    meets, skip, detail = _REQUIREMENTS[requirement]
    message = f"{name.lower()} {detail}"

    def checked(instance: QAInstance):
        if not meets(instance):
            raise skip(message)
        return instance if prepare is None else prepare(instance)

    return KindSpec(name, family, checked, plan, realize)


def _drawless(params: dict, rng: Rng) -> dict:
    """The plan of a kind whose prepare step already made its params."""
    return params


# Canonical order: reports, output files and the group aliases follow it.
# Each row: kind, family, requirement, prepare, plan, realize.
KINDS = (
    _kind(SHUFFLE_ROWS, "structure", EQ, None, plan_shuffle_rows, realize_shuffle_rows),
    _kind(SHUFFLE_COLS, "structure", EQ, None, plan_shuffle_cols, realize_shuffle_cols),
    _kind(TARGET_ROW_TOP, "structure", EQ,
          prepare_target_shift("row", "TOP"), plan_target_shift, realize_target_row),
    _kind(TARGET_ROW_MIDDLE, "structure", EQ,
          prepare_target_shift("row", "MIDDLE"), plan_target_shift, realize_target_row),
    _kind(TARGET_ROW_BOTTOM, "structure", EQ,
          prepare_target_shift("row", "BOTTOM"), plan_target_shift, realize_target_row),
    _kind(TARGET_COL_FRONT, "structure", EQ,
          prepare_target_shift("col", "FRONT"), plan_target_shift, realize_target_col),
    _kind(TARGET_COL_BACK, "structure", EQ,
          prepare_target_shift("col", "BACK"), plan_target_shift, realize_target_col),
    _kind(TRANSPOSE, "structure", EQ, prepare_transpose, _drawless, realize_transpose),
    _kind(REMOVE_RELEVANT, "relevance", RQ,
          prepare_remove_relevant, _drawless, realize_remove_relevant),
    _kind(REMOVE_TABLE, "relevance", RQ, prepare_remove_table, _drawless, realize_remove_table),
    _kind(SHIFT_RELEVANT_ROWS, "relevance", "relevant_cells",
          prepare_shift_relevant_rows, plan_shift_relevant_rows, realize_shift_relevant_rows),
    _kind(VALUE_AC, "value", "aggregation",
          prepare_value_edit, plan_value_edit(answer_changes=True), realize_value_edit),
    _kind(VALUE_NC, "value", "aggregation",
          prepare_value_edit, plan_value_edit(answer_changes=False), realize_value_edit),
    _kind(SHORTENED, "value", "aggregation", prepare_shortened, _drawless, realize_shortened),
)

_SPECS = {spec.name: spec for spec in KINDS}
FAMILIES = ("structure", "relevance", "value")
FAMILY_KINDS = {
    family: tuple(spec.name for spec in KINDS if spec.family == family) for family in FAMILIES
}
STRUCTURE_KINDS = FAMILY_KINDS["structure"]
RELEVANCE_KINDS = FAMILY_KINDS["relevance"]
VALUE_KINDS = FAMILY_KINDS["value"]
ALL_KINDS = tuple(_SPECS)


def kind_from_name(name: str) -> str:
    """Resolve a case-insensitive kind name; raises ValueError on unknowns."""
    kind = name.strip().upper()
    if kind not in _SPECS:
        known = ", ".join(k.lower() for k in ALL_KINDS)
        raise ValueError(f"unknown perturbation kind {name!r}; expected one of: {known}")
    return kind


def _spec(kind: str) -> KindSpec:
    spec = _SPECS.get(kind)
    if spec is None:
        raise UnsupportedKind(f"unknown perturbation kind {kind!r}")
    return spec


def apply_perturbation(
    instance: QAInstance, kind: str, global_seed: int
) -> tuple[QAInstance, PerturbationRecord]:
    """Perturb one instance; raises a PerturbSkip subclass when it cannot."""
    spec = _spec(kind)
    prepared = spec.prepare(instance)
    rng = derive_rng(global_seed, instance.id, kind)
    params = spec.plan(prepared, rng)
    return spec.realize(instance, params), PerturbationRecord(kind, rng.seed, params, instance.id)


def replay(original: QAInstance, record: PerturbationRecord) -> QAInstance:
    """The perturbed instance ``record`` describes, rebuilt from ``original``
    and the recorded params alone (they may have been through JSON)."""
    return _spec(record.kind).realize(original, record.params)


@dataclass(frozen=True)
class Condition:
    """One (kind, seed) condition: the perturbed instances with their
    provenance, in dataset order, and one {id, reason, detail} entry per
    instance the kind skipped."""

    kind: str
    seed: int
    perturbed: list[tuple[QAInstance, PerturbationRecord]]
    skipped: list[dict]


# What the plan stage gives for one kind: the kind, then per seed the
# seed and one outcome per instance, in dataset order.  An outcome is the
# instance's skip entry (a dict) or its (derived seed, params); a skip the
# prepare step raised is one entry object shared by every seed.  It is
# plain data, so it can be pickled from another process.
KindPlan = tuple[str, list[tuple[int, list]]]


@dataclass(frozen=True)
class _Skipped:
    """A skip the prepare step raised: its report entry serves every seed."""

    entry: dict


def _skip_entry(instance: QAInstance, exc: PerturbSkip) -> dict:
    return {"id": instance.id, "reason": type(exc).__name__, "detail": str(exc)}


def plan_conditions(
    instances: Sequence[QAInstance], kinds: Sequence[str], seeds: Sequence[int]
) -> Iterator[KindPlan]:
    """The plan stage: every draw of every (kind, seed, instance), one kind
    at a time.  Each (instance, kind)'s prepare step runs once for all seeds."""
    for kind in kinds:
        spec = _spec(kind)
        # Per instance: the prepared input of its plan, or its _Skipped.
        prepared: list = []
        for inst in instances:
            try:
                prepared.append(spec.prepare(inst))
            except PerturbSkip as exc:
                prepared.append(_Skipped(_skip_entry(inst, exc)))
        per_seed = []
        for seed in seeds:
            outcomes = []
            for inst, known in zip(instances, prepared):
                if type(known) is _Skipped:
                    outcomes.append(known.entry)
                    continue
                rng = derive_rng(seed, inst.id, kind)
                try:
                    outcomes.append((rng.seed, spec.plan(known, rng)))
                except PerturbSkip as exc:
                    outcomes.append(_skip_entry(inst, exc))
            per_seed.append((seed, outcomes))
        yield kind, per_seed


def realize_conditions(
    instances: Sequence[QAInstance], plans: Iterable[KindPlan]
) -> Iterator[Condition]:
    """The realize stage: each planned (kind, seed) as a ``Condition`` of the
    instances it was planned on.  Each distinct params of an (instance,
    kind) is realized once, so the seeds whose plans return equal params
    share one perturbed instance object, and a perturbed instance equal to
    its original (a no-op) is the original object itself."""
    for kind, per_seed in plans:
        spec = _spec(kind)
        # (instance index, repr(params)) -> the instance realized from them.
        # Params are JSON-able dicts built in a fixed key order, so equal
        # reprs mean equal params.
        realized: dict[tuple[int, str], QAInstance] = {}
        for seed, outcomes in per_seed:
            perturbed = []
            skipped = []
            for i, (inst, outcome) in enumerate(zip(instances, outcomes)):
                if type(outcome) is dict:
                    skipped.append(outcome)
                    continue
                derived, params = outcome
                key = (i, repr(params))
                out = realized.get(key)
                if out is None:
                    out = spec.realize(inst, params)
                    # A no-op is the original itself.  Realized tables share
                    # the original's cells, so this compares mostly by identity.
                    realized[key] = out = inst if out == inst else out
                perturbed.append((out, PerturbationRecord(kind, derived, params, inst.id)))
            yield Condition(kind, seed, perturbed, skipped)


def iter_conditions(
    instances: Sequence[QAInstance], kinds: Sequence[str], seeds: Sequence[int]
) -> Iterator[Condition]:
    """Perturb every instance under each kind x seed, one condition at a time.

    Gives what ``apply_perturbation`` gives for each (kind, seed, instance),
    in that order, with the sharing ``realize_conditions`` describes.  Every
    plan still runs, so every draw and record is as it was.  Nothing is
    kept past the kind that made it.
    """
    return realize_conditions(instances, plan_conditions(instances, kinds, seeds))
