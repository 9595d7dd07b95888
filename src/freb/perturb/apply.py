"""Single entry point for applying any perturbation kind to an instance.

``KINDS`` is the one table of perturbation kinds: each entry names a kind's
family, the check that decides which instances it applies to, and how it
is applied.  ``apply_perturbation`` looks a kind up there, derives the
per-instance random stream, and re-expresses cell annotations in the
perturbed table's coordinates so downstream consumers (most importantly
the faithful reference model) keep working.  ``iter_conditions`` is the
kinds x seeds x instances loop that ``freb perturb`` and ``freb evaluate``
share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from ..core import EQ, RQ, QAInstance
from ..errors import MissingAnnotation, NotEligible, PerturbSkip, UnsupportedKind
from ..rng import Rng, derive_rng
from .relevance import (
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    SHIFT_RELEVANT_ROWS,
    remove_relevant_cells,
    remove_table,
    shift_relevant_rows,
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
    PerturbationRecord,
    remap_annotations,
    shift_target_col,
    shift_target_row,
    shuffle_cols,
    shuffle_rows,
    transpose,
)
from .value import (
    SHORTENED,
    VALUE_AC,
    VALUE_NC,
    ValueEdit,
    apply_edits,
    modify_answer_change,
    modify_no_change,
    shorten,
)


@dataclass(frozen=True)
class KindSpec:
    """One perturbation kind.  ``check(instance)`` raises a PerturbSkip
    subclass for instances the kind does not apply to; ``apply(instance,
    rng)`` returns the perturbed instance and its provenance record."""

    name: str
    family: str
    check: Callable[[QAInstance], None]
    apply: Callable[[QAInstance, Rng], tuple[QAInstance, PerturbationRecord]]


# Structure perturbations rearrange lookup evidence, so they apply to
# extraction questions; cell-removal probes and value edits only make sense
# for reasoning questions and annotated instances respectively.


def _question_type(kind: str, question_type: str, label: str):
    def check(instance: QAInstance) -> None:
        if instance.question_type != question_type:
            raise NotEligible(f"{kind.lower()} applies to {label} questions only")

    return check


def _annotated(kind: str, field: str, what: str):
    def check(instance: QAInstance) -> None:
        if not getattr(instance, field):
            raise MissingAnnotation(f"{kind.lower()} needs {what}")

    return check


def _structure(kind: str, apply) -> KindSpec:
    return KindSpec(kind, "structure", _question_type(kind, EQ, "extraction"), apply)


def _removal(kind: str, remove) -> KindSpec:
    check = _question_type(kind, RQ, "reasoning")
    return KindSpec(kind, "relevance", check, lambda instance, rng: remove(instance))


def _value(kind: str, apply) -> KindSpec:
    check = _annotated(kind, "aggregation", "an aggregation descriptor")
    return KindSpec(kind, "value", check, apply)


def _shuffled(shuffle, axis: str):
    def apply(instance: QAInstance, rng: Rng) -> tuple[QAInstance, PerturbationRecord]:
        table, record = shuffle(instance.table, rng)
        mapping = _map_from_permutation(record.params["permutation"])
        perturbed = remap_annotations(instance, **{axis: mapping}).with_table(table)
        return perturbed, record.for_instance(instance.id)

    return apply


def _map_from_permutation(perm: list[int]) -> list[int]:
    mapping = [0] * len(perm)
    for new, old in enumerate(perm):
        mapping[old] = new
    return mapping


def _target_shifted(shift, part: str):
    return lambda instance, rng: shift(instance, part, rng)


def _transposed(instance: QAInstance, rng: Rng) -> tuple[QAInstance, PerturbationRecord]:
    # Rows and columns swap roles, so cell annotations no longer describe a
    # grid this schema can express; they are dropped and noted.
    table, record = transpose(instance.table)
    params = dict(record.params)
    params["annotations_dropped"] = bool(instance.relevant_cells or instance.aggregation)
    perturbed = replace(instance, relevant_cells=None, aggregation=None).with_table(table)
    return perturbed, replace(record, params=params, source_id=instance.id)


def _shortened(instance: QAInstance, rng: Rng) -> tuple[QAInstance, PerturbationRecord]:
    shortened, _ = shorten(instance)
    perturbed = replace(
        instance, relevant_cells=None, aggregation=shortened.descriptor
    ).with_table(shortened.table)
    record = PerturbationRecord(
        SHORTENED,
        rng.seed,
        {"rows": list(shortened.row_map), "cols": list(shortened.col_map)},
        source_id=instance.id,
    )
    return perturbed, record


def _value_edited(
    instance: QAInstance, rng: Rng, answer_changes: bool
) -> tuple[QAInstance, PerturbationRecord]:
    shortened, _ = shorten(instance)
    if answer_changes:
        _, short_edits, new_answer = modify_answer_change(
            shortened.table, shortened.descriptor, rng
        )
    else:
        _, short_edits = modify_no_change(shortened.table, shortened.descriptor, rng)

    # Edits were chosen in shortened coordinates; map them back onto the
    # full table, which contains the same cells at their original spots.
    edits = [
        ValueEdit(
            coord=type(e.coord)(shortened.row_map[e.coord.row], shortened.col_map[e.coord.col]),
            old=e.old,
            new=e.new,
            edit_class=e.edit_class,
        )
        for e in short_edits
    ]
    table = apply_edits(instance.table, edits)
    removed = {e.coord.row for e in edits if e.edit_class == "ROW_REMOVAL"}
    perturbed = _drop_removed_rows(instance, removed).with_table(table)
    params = {
        "edits": [e.to_json() for e in edits],
        "original_answers": list(instance.answers),
    }
    if answer_changes:
        params["new_answer"] = new_answer
        perturbed = replace(perturbed, answers=(new_answer,))
    kind = VALUE_AC if answer_changes else VALUE_NC
    return perturbed, PerturbationRecord(kind, rng.seed, params, source_id=instance.id)


def _drop_removed_rows(instance: QAInstance, removed: set[int]) -> QAInstance:
    if not removed:
        return instance

    def shift(row: int) -> int:
        return row - sum(1 for r in removed if r < row)

    changes = {}
    if instance.relevant_cells is not None:
        changes["relevant_cells"] = tuple(
            type(c)(shift(c.row), c.col) for c in instance.relevant_cells if c.row not in removed
        )
    agg = instance.aggregation
    if agg is not None and agg.operands is not None:
        if any(o.row in removed for o in agg.operands):
            changes["aggregation"] = None  # operands gone; descriptor unusable
        else:
            changes["aggregation"] = replace(
                agg, operands=tuple(type(o)(shift(o.row), o.col) for o in agg.operands)
            )
    return replace(instance, **changes) if changes else instance


# Canonical order: reports, output files and the group aliases follow it.
KINDS = (
    _structure(SHUFFLE_ROWS, _shuffled(shuffle_rows, "row_map")),
    _structure(SHUFFLE_COLS, _shuffled(shuffle_cols, "col_map")),
    _structure(TARGET_ROW_TOP, _target_shifted(shift_target_row, "TOP")),
    _structure(TARGET_ROW_MIDDLE, _target_shifted(shift_target_row, "MIDDLE")),
    _structure(TARGET_ROW_BOTTOM, _target_shifted(shift_target_row, "BOTTOM")),
    _structure(TARGET_COL_FRONT, _target_shifted(shift_target_col, "FRONT")),
    _structure(TARGET_COL_BACK, _target_shifted(shift_target_col, "BACK")),
    _structure(TRANSPOSE, _transposed),
    _removal(REMOVE_RELEVANT, remove_relevant_cells),
    _removal(REMOVE_TABLE, remove_table),
    KindSpec(
        SHIFT_RELEVANT_ROWS,
        "relevance",
        _annotated(SHIFT_RELEVANT_ROWS, "relevant_cells", "relevant-cell annotations"),
        shift_relevant_rows,
    ),
    _value(VALUE_AC, lambda instance, rng: _value_edited(instance, rng, answer_changes=True)),
    _value(VALUE_NC, lambda instance, rng: _value_edited(instance, rng, answer_changes=False)),
    _value(SHORTENED, _shortened),
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


def apply_perturbation(
    instance: QAInstance, kind: str, global_seed: int
) -> tuple[QAInstance, PerturbationRecord]:
    """Perturb one instance; raises a PerturbSkip subclass when it cannot."""
    spec = _SPECS.get(kind)
    if spec is None:
        raise UnsupportedKind(f"unknown perturbation kind {kind!r}")
    spec.check(instance)
    return spec.apply(instance, derive_rng(global_seed, instance.id, kind))


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
