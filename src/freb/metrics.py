"""Scoring: exact match, match delta, variation percentage, seed aggregation.

All scores are computed over normalized answers (see core.normalize_answer),
so case, surrounding whitespace, and numeric formatting differences never
count as mismatches.  Missing predictions count as wrong rather than
erroring, keeping the instance count stable across conditions.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import QAInstance, answer_keys, normalize_answer

ORIGINAL = "ORIGINAL"


@dataclass(frozen=True)
class PredictionSet:
    """One model's answers under one condition (a perturbation kind + seed,
    or ORIGINAL).  entries maps instance id -> predicted text, with None for
    instances the model failed on."""

    model_id: str
    condition: tuple[str, int]
    entries: Mapping[str, str | None]


@dataclass(frozen=True)
class VpResult:
    vp: float
    c2w: int
    w2c: int
    n: int


@dataclass(frozen=True)
class GapResult:
    """VP split by comparative-cue presence; a split with no instances has
    vp_* = None and the gap is undefined."""

    compare: VpResult | None
    noncompare: VpResult | None

    @property
    def gap(self) -> float | None:
        if self.compare is None or self.noncompare is None:
            return None
        return self.compare.vp - self.noncompare.vp


def _gold_map(gold: Iterable[QAInstance]) -> dict[str, tuple[str, ...]]:
    return {inst.id: inst.answers for inst in gold}


def is_correct(prediction: str | None, answers: tuple[str, ...]) -> bool:
    if prediction is None:
        return False
    return normalize_answer(prediction) in answer_keys(answers)


def _check_ids(entries: Mapping[str, str | None], gold_ids: set[str]) -> None:
    unknown = sorted(set(entries) - gold_ids)
    if unknown:
        raise ValueError(f"predictions reference unknown instance ids: {unknown}")


def em(preds: PredictionSet, gold: Iterable[QAInstance]) -> float:
    """Fraction of gold instances whose prediction matches any gold answer."""
    answers = _gold_map(gold)
    if not answers:
        raise ValueError("cannot score an empty dataset")
    _check_ids(preds.entries, set(answers))
    return sum(_correctness(preds, answers).values()) / len(answers)


def emd(em_perturbed: float, em_original: float) -> float:
    """Signed performance change; negative means the perturbation hurt."""
    for value in (em_perturbed, em_original):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"match rate out of range: {value}")
    return em_perturbed - em_original


def vp_from_correctness(
    before: Mapping[str, bool], after: Mapping[str, bool]
) -> VpResult:
    """Flip counting on precomputed per-instance correctness (the two sides
    may be scored against different gold answers, e.g. answer-changing value
    edits)."""
    if set(before) != set(after):
        diff = sorted(set(before) ^ set(after))
        raise ValueError(f"correctness maps cover different instances: {diff}")
    if not before:
        raise ValueError("cannot compute flip rate over zero instances")
    c2w = sum(1 for iid in before if before[iid] and not after[iid])
    w2c = sum(1 for iid in before if not before[iid] and after[iid])
    return VpResult(vp=(c2w + w2c) / len(before), c2w=c2w, w2c=w2c, n=len(before))


def vp(
    preds_before: PredictionSet, preds_after: PredictionSet, gold: Iterable[QAInstance]
) -> VpResult:
    """Variation percentage: fraction of instances whose correctness flipped
    between the two prediction sets."""
    return vp_from_correctness(*_paired_correctness(preds_before, preds_after, gold))


def _paired_correctness(
    preds_before: PredictionSet, preds_after: PredictionSet, gold: Iterable[QAInstance]
) -> tuple[dict[str, bool], dict[str, bool]]:
    answers = _gold_map(gold)
    if not answers:
        raise ValueError("cannot score an empty dataset")
    if set(preds_before.entries) != set(preds_after.entries):
        diff = sorted(set(preds_before.entries) ^ set(preds_after.entries))
        raise ValueError(f"prediction sets cover different instance ids: {diff}")
    _check_ids(preds_before.entries, set(answers))
    return _correctness(preds_before, answers), _correctness(preds_after, answers)


def _correctness(preds: PredictionSet, answers: Mapping[str, tuple[str, ...]]) -> dict[str, bool]:
    return {iid: is_correct(preds.entries.get(iid), golds) for iid, golds in answers.items()}


def aggregate_seeds(values: Iterable[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator, 0 for n=1)."""
    data = list(values)
    if not data:
        raise ValueError("no values to aggregate")
    mean = statistics.fmean(data)
    std = statistics.stdev(data) if len(data) > 1 else 0.0
    return mean, std


def gap_from_correctness(
    before: Mapping[str, bool], after: Mapping[str, bool], compare_ids: Iterable[str]
) -> GapResult:
    """VP over the instances in ``compare_ids`` (questions with comparative
    cues) and over the rest, on precomputed per-instance correctness; the
    gap (compare minus non-compare) exposes models that only wobble when
    cells must be compared."""
    compare = set(compare_ids)

    def split(ids: set[str]) -> VpResult | None:
        if not ids:
            return None
        return vp_from_correctness({i: before[i] for i in ids}, {i: after[i] for i in ids})

    return GapResult(compare=split(compare & set(before)), noncompare=split(set(before) - compare))
