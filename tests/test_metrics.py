"""Exact match, match delta, flip rate and seed aggregation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.classify import ComparativeLexicon
from freb.core import QAInstance, Table
from freb.metrics import (
    ORIGINAL,
    GapResult,
    PredictionSet,
    VpResult,
    aggregate_seeds,
    em,
    emd,
    gap_from_correctness,
    is_correct,
    vp,
    vp_from_correctness,
)

_TABLE = Table.from_values(["H"], [["x"]])


def _gold(*pairs):
    return [
        QAInstance(id=iid, question=q, answers=answers, table=_TABLE)
        for iid, q, answers in pairs
    ]


def _preds(entries, condition=(ORIGINAL, 0)):
    return PredictionSet(model_id="m", condition=condition, entries=entries)


GOLD4 = _gold(
    ("a", "q1?", ("Paris",)),
    ("b", "q2?", ("15",)),
    ("c", "q3?", ("Reds", "The Reds")),
    ("d", "q4?", ("2.5",)),
)


def test_is_correct_normalizes():
    assert is_correct("  PARIS ", ("Paris",))
    assert is_correct("1,500", ("1500.0",))
    assert is_correct(None, ("Paris",)) is False
    assert is_correct("", ("Paris",)) is False


def test_em_counts_matches():
    preds = _preds({"a": "paris", "b": "15.0", "c": "nope", "d": "2.50"})
    assert em(preds, GOLD4) == 0.75


def test_em_any_gold_answer_counts():
    preds = _preds({"a": "x", "b": "x", "c": "the reds", "d": "x"})
    assert em(preds, GOLD4) == 0.25


def test_em_missing_prediction_is_wrong():
    preds = _preds({"a": "Paris"})
    assert em(preds, GOLD4) == 0.25
    preds = _preds({"a": "Paris", "b": None, "c": None, "d": None})
    assert em(preds, GOLD4) == 0.25


def test_em_empty_gold_errors():
    with pytest.raises(ValueError, match="empty dataset"):
        em(_preds({}), [])


def test_em_unknown_id_errors():
    with pytest.raises(ValueError, match="unknown instance ids: \\['z'\\]"):
        em(_preds({"z": "x"}), GOLD4)


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
    before = _preds({"a": "Paris", "b": "15", "c": "zzz", "d": "zzz"})
    after = _preds({"a": "Paris", "b": "zzz", "c": "Reds", "d": "zzz"}, ("K", 1))
    result = vp(before, after, GOLD4)
    assert result == VpResult(vp=0.5, c2w=1, w2c=1, n=4)


def test_vp_identical_sets_is_zero():
    preds = _preds({"a": "Paris", "b": "zzz", "c": "Reds", "d": "zzz"})
    result = vp(preds, preds, GOLD4)
    assert result.vp == 0.0
    assert result.c2w == 0 and result.w2c == 0


def test_vp_all_flipped_is_one():
    before = _preds({"a": "Paris", "b": "15", "c": "Reds", "d": "2.5"})
    after = _preds({"a": "x", "b": "x", "c": "x", "d": "x"})
    assert vp(before, after, GOLD4).vp == 1.0


def test_vp_mismatched_ids_error():
    before = _preds({"a": "x", "b": "x", "c": "x", "d": "x"})
    after = _preds({"a": "x", "b": "x", "c": "x"})
    with pytest.raises(ValueError, match="\\['d'\\]"):
        vp(before, after, GOLD4)


def test_vp_from_correctness_diff_golds():
    # Before/after correctness may come from different gold answers (the
    # answer-changing value edits); only the flip structure matters here.
    before = {"a": True, "b": False}
    after = {"a": True, "b": True}
    result = vp_from_correctness(before, after)
    assert result == VpResult(vp=0.5, c2w=0, w2c=1, n=2)


def test_vp_from_correctness_empty_errors():
    with pytest.raises(ValueError, match="zero instances"):
        vp_from_correctness({}, {})


def test_vp_from_correctness_key_mismatch():
    with pytest.raises(ValueError, match="\\['b'\\]"):
        vp_from_correctness({"a": True, "b": True}, {"a": True})


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.booleans(),
        min_size=1,
        max_size=4,
    ),
    st.data(),
)
def test_vp_from_correctness_bounds_and_symmetry(before, data):
    after = {k: data.draw(st.booleans()) for k in before}
    fwd = vp_from_correctness(before, after)
    rev = vp_from_correctness(after, before)
    assert 0.0 <= fwd.vp <= 1.0
    assert fwd.c2w + fwd.w2c == round(fwd.vp * fwd.n)
    # flips are direction-symmetric in total, mirrored in kind
    assert (fwd.c2w, fwd.w2c) == (rev.w2c, rev.c2w)
    assert fwd.vp == rev.vp


def test_aggregate_seeds_mean_and_sample_std():
    mean, std = aggregate_seeds([0.4, 0.6])
    assert mean == pytest.approx(0.5)
    assert std == pytest.approx(math.sqrt(((0.4 - 0.5) ** 2 + (0.6 - 0.5) ** 2) / 1))
    mean, std = aggregate_seeds([0.5])
    assert (mean, std) == (0.5, 0.0)


def test_aggregate_seeds_empty_errors():
    with pytest.raises(ValueError):
        aggregate_seeds([])


def _gap(gold, before, after):
    """The VP gap as the pipeline computes it: correctness from is_correct,
    the compare split from the comparative lexicon."""
    lexicon = ComparativeLexicon()
    return gap_from_correctness(
        {i.id: is_correct(before[i.id], i.answers) for i in gold},
        {i.id: is_correct(after[i.id], i.answers) for i in gold},
        [i.id for i in gold if lexicon.question_has_cue(i.question)],
    )


def test_vp_gap_splits_on_comparative_cue():
    gold = _gold(
        ("a", "Who scored the most points?", ("X",)),  # cue
        ("b", "Which entry is larger?", ("X",)),  # cue
        ("c", "What city is listed?", ("X",)),  # no cue
        ("d", "What is the venue?", ("X",)),  # no cue
    )
    before = {"a": "X", "b": "X", "c": "X", "d": "X"}
    after = {"a": "y", "b": "X", "c": "X", "d": "X"}
    result = _gap(gold, before, after)
    assert result.compare.vp == 0.5
    assert result.compare.n == 2
    assert result.noncompare.vp == 0.0
    assert result.gap == 0.5


def test_vp_gap_empty_split_has_no_gap():
    gold = _gold(("a", "Who scored the most points?", ("X",)))
    preds = {"a": "X"}
    result = _gap(gold, preds, preds)
    assert result.noncompare is None
    assert result.compare.vp == 0.0
    assert result.gap is None


def test_gap_result_property():
    half = VpResult(vp=0.5, c2w=1, w2c=0, n=2)
    zero = VpResult(vp=0.0, c2w=0, w2c=0, n=3)
    assert GapResult(compare=half, noncompare=zero).gap == 0.5
    assert GapResult(compare=None, noncompare=zero).gap is None
    assert GapResult(compare=half, noncompare=None).gap is None
