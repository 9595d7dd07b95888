"""Scoring: exact match, match delta, variation percentage, seed aggregation.

A condition is scored from one (correct before, correct after) pair per
perturbed instance; ``em`` and ``vp_from_correctness`` fold those pairs into
the report's scores.  Correctness compares normalized answers (see
core.normalize_answer), so case, surrounding whitespace, and numeric
formatting differences never count as mismatches, and a missing prediction
counts as wrong rather than erroring.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

from .core import answer_keys, normalize_answer

ORIGINAL = "ORIGINAL"


def is_correct(prediction: str | None, answers: tuple[str, ...]) -> bool:
    if prediction is None:
        return False
    return normalize_answer(prediction) in answer_keys(answers)


def em(correct: Sequence[bool]) -> float:
    """Exact match: the fraction of answers that are correct."""
    if not correct:
        raise ValueError("cannot score an empty dataset")
    return sum(correct) / len(correct)


def emd(em_perturbed: float, em_original: float) -> float:
    """Signed performance change; negative means the perturbation hurt."""
    for value in (em_perturbed, em_original):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"match rate out of range: {value}")
    return em_perturbed - em_original


def vp_from_correctness(pairs: Iterable[tuple[bool, bool]]) -> dict | None:
    """Variation percentage: the fraction of (before, after) correctness
    pairs that flipped, with the flips counted by direction, or None when
    there are no pairs.  The two sides may be scored against different gold
    answers (answer-changing value edits); only the flips matter here."""
    pairs = list(pairs)
    if not pairs:
        return None
    c2w = sum(1 for before, after in pairs if before and not after)
    w2c = sum(1 for before, after in pairs if after and not before)
    vp = (c2w + w2c) / len(pairs)
    return {"vp": vp, "vp_pct": 100.0 * vp, "c2w": c2w, "w2c": w2c, "n": len(pairs)}


def aggregate_seeds(values: Iterable[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator, 0 for n=1)."""
    data = list(values)
    if not data:
        raise ValueError("no values to aggregate")
    mean = statistics.fmean(data)
    std = statistics.stdev(data) if len(data) > 1 else 0.0
    return mean, std
