"""Exact match, match delta, flip rate and seed aggregation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.metrics import aggregate_seeds, em, emd, is_correct, vp_from_correctness

GOLD4 = (("Paris",), ("15",), ("Reds", "The Reds"), ("2.5",))


def _correct(*predictions):
    """Correctness of each prediction against GOLD4, in order."""
    return [is_correct(p, golds) for p, golds in zip(predictions, GOLD4)]


def _pairs(before, after):
    return list(zip(_correct(*before), _correct(*after)))


def test_is_correct_normalizes():
    assert is_correct("  PARIS ", ("Paris",))
    assert is_correct("1,500", ("1500.0",))
    assert is_correct(None, ("Paris",)) is False
    assert is_correct("", ("Paris",)) is False


def test_em_counts_matches():
    assert em(_correct("paris", "15.0", "nope", "2.50")) == 0.75


def test_em_any_gold_answer_counts():
    assert em(_correct("x", "x", "the reds", "x")) == 0.25


def test_em_missing_prediction_is_wrong():
    assert em(_correct("Paris", None, None, None)) == 0.25


def test_em_empty_gold_errors():
    with pytest.raises(ValueError, match="empty dataset"):
        em([])


def test_emd_signed():
    assert emd(0.25, 0.75) == -0.5
    assert emd(0.75, 0.25) == 0.5
    assert emd(0.5, 0.5) == 0.0


def test_emd_range_checked():
    with pytest.raises(ValueError):
        emd(1.5, 0.5)
    with pytest.raises(ValueError):
        emd(0.5, -0.1)


@given(st.floats(0, 1), st.floats(0, 1))
def test_emd_antisymmetric(a, b):
    assert emd(a, b) == -emd(b, a)


def test_vp_counts_both_flip_directions():
    pairs = _pairs(("Paris", "15", "zzz", "zzz"), ("Paris", "zzz", "Reds", "zzz"))
    assert vp_from_correctness(pairs) == {"vp": 0.5, "vp_pct": 50.0, "c2w": 1, "w2c": 1, "n": 4}


def test_vp_identical_sets_is_zero():
    predictions = ("Paris", "zzz", "Reds", "zzz")
    result = vp_from_correctness(_pairs(predictions, predictions))
    assert result["vp"] == 0.0
    assert result["c2w"] == 0 and result["w2c"] == 0


def test_vp_all_flipped_is_one():
    pairs = _pairs(("Paris", "15", "Reds", "2.5"), ("x", "x", "x", "x"))
    assert vp_from_correctness(pairs)["vp"] == 1.0


def test_vp_from_correctness_diff_golds():
    # An answer-changing value edit scores each side against its own gold:
    # the second answer is "10" before the edit and "12" after it.
    before = [is_correct("10", ("10",)), is_correct("7", ("10",))]
    after = [is_correct("10", ("10",)), is_correct("12", ("12",))]
    result = vp_from_correctness(zip(before, after))
    assert result == {"vp": 0.5, "vp_pct": 50.0, "c2w": 0, "w2c": 1, "n": 2}


def test_vp_from_correctness_empty_is_none():
    assert vp_from_correctness([]) is None


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
def test_vp_from_correctness_bounds_and_symmetry(pairs):
    fwd = vp_from_correctness(pairs)
    rev = vp_from_correctness([(after, before) for before, after in pairs])
    assert 0.0 <= fwd["vp"] <= 1.0
    assert fwd["c2w"] + fwd["w2c"] == round(fwd["vp"] * fwd["n"])
    assert fwd["vp_pct"] == 100.0 * fwd["vp"]
    # flips are direction-symmetric in total, mirrored in kind
    assert (fwd["c2w"], fwd["w2c"]) == (rev["w2c"], rev["c2w"])
    assert fwd["vp"] == rev["vp"]


def test_aggregate_seeds_mean_and_sample_std():
    mean, std = aggregate_seeds([0.4, 0.6])
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(math.sqrt(((0.4 - 0.5) ** 2 + (0.6 - 0.5) ** 2) / 1))
    mean, std = aggregate_seeds([0.5])
    assert (mean, std) == (0.5, 0.0)


def test_aggregate_seeds_empty_errors():
    with pytest.raises(ValueError):
        aggregate_seeds([])
