"""Single entry point for applying any perturbation kind to an instance.

``KINDS`` is the one table of perturbation kinds: each entry names a kind's
family, the check that decides which instances it applies to, a ``plan``
that makes every random draw and returns the kind's params, and a pure
``realize`` that builds the perturbed instance from the original and those
params alone.  ``apply_perturbation`` runs check, plan and realize under the
per-instance random stream and records the provenance; ``replay`` rebuilds
any perturbed instance from its record.  ``iter_conditions`` is the kinds x
seeds x instances loop that ``freb perturb`` and ``freb evaluate`` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ..core import EQ, RQ, QAInstance
from ..errors import MissingAnnotation, NotEligible, PerturbSkip, UnsupportedKind
from ..rng import Rng, derive_rng
from .relevance import (
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHIFT_RELEVANT_ROWS,
    plan_remove_relevant,
    plan_remove_table,
    plan_shift_relevant_rows,
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
    plan_transpose,
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
    plan_shortened,
    plan_value_edit,
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
    """One perturbation kind.  ``check(instance)`` raises a PerturbSkip
    subclass for instances the kind does not apply to; ``plan(instance,
    rng)`` makes every draw and may raise one too; ``realize(instance,
    params)`` is pure and returns the perturbed instance."""

    name: str
    family: str
    check: Callable[[QAInstance], None]
    plan: Callable[[QAInstance, Rng], dict]
    realize: Callable[[QAInstance, dict], QAInstance]


# Structure perturbations rearrange lookup evidence, so they apply to
# extraction questions; cell-removal probes and value edits only make sense
# for reasoning questions and annotated instances respectively.


def _question_type(kind: str, question_type: str, label: str):
    def check(instance: QAInstance) -> None:
        if instance.question_type != question_type:
            raise NotEligible(f"{kind.lower()} applies to {label} questions only")

    return check


def _annotated(kind: str, attribute: str, what: str):
    def check(instance: QAInstance) -> None:
        if not getattr(instance, attribute):
            raise MissingAnnotation(f"{kind.lower()} needs {what}")

    return check


def _structure(kind: str, plan, realize) -> KindSpec:
    return KindSpec(kind, "structure", _question_type(kind, EQ, "extraction"), plan, realize)


def _removal(kind: str, plan, realize) -> KindSpec:
    return KindSpec(kind, "relevance", _question_type(kind, RQ, "reasoning"), plan, realize)


def _value(kind: str, plan, realize) -> KindSpec:
    check = _annotated(kind, "aggregation", "an aggregation descriptor")
    return KindSpec(kind, "value", check, plan, realize)


# Canonical order: reports, output files and the group aliases follow it.
KINDS = (
    _structure(SHUFFLE_ROWS, plan_shuffle_rows, realize_shuffle_rows),
    _structure(SHUFFLE_COLS, plan_shuffle_cols, realize_shuffle_cols),
    _structure(TARGET_ROW_TOP, plan_target_shift("row", "TOP"), realize_target_row),
    _structure(TARGET_ROW_MIDDLE, plan_target_shift("row", "MIDDLE"), realize_target_row),
    _structure(TARGET_ROW_BOTTOM, plan_target_shift("row", "BOTTOM"), realize_target_row),
    _structure(TARGET_COL_FRONT, plan_target_shift("col", "FRONT"), realize_target_col),
    _structure(TARGET_COL_BACK, plan_target_shift("col", "BACK"), realize_target_col),
    _structure(TRANSPOSE, plan_transpose, realize_transpose),
    _removal(REMOVE_RELEVANT, plan_remove_relevant, realize_remove_relevant),
    _removal(REMOVE_TABLE, plan_remove_table, realize_remove_table),
    KindSpec(
        SHIFT_RELEVANT_ROWS,
        "relevance",
        _annotated(SHIFT_RELEVANT_ROWS, "relevant_cells", "relevant-cell annotations"),
        plan_shift_relevant_rows,
        realize_shift_relevant_rows,
    ),
    _value(VALUE_AC, plan_value_edit(answer_changes=True), realize_value_edit),
    _value(VALUE_NC, plan_value_edit(answer_changes=False), realize_value_edit),
    _value(SHORTENED, plan_shortened, realize_shortened),
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
    spec.check(instance)
    rng = derive_rng(global_seed, instance.id, kind)
    params = spec.plan(instance, rng)
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


def iter_conditions(
    instances: Sequence[QAInstance], kinds: Sequence[str], seeds: Sequence[int]
) -> Iterator[Condition]:
    """Perturb every instance under each kind x seed, one condition at a time."""
    for kind in kinds:
        for seed in seeds:
            perturbed = []
            skipped = []
            for inst in instances:
                try:
                    perturbed.append(apply_perturbation(inst, kind, seed))
                except PerturbSkip as exc:
                    skipped.append(
                        {"id": inst.id, "reason": type(exc).__name__, "detail": str(exc)}
                    )
            yield Condition(kind, seed, perturbed, skipped)
