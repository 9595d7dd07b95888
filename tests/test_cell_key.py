"""Readers of the cached ``Cell.key`` agree with a plain normalize_answer scan.

Target location, the answer-in-table rule and the COUNT oracle (and the
COUNT edit strategies) match cells through ``cell.key``; each is checked
here against a reference that normalizes ``cell.raw`` afresh, over tables
that mix case, spacing, currency and thousands separators.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.classify import _answer_in_table
from freb.core import COUNT, EQ, AggregationDescriptor, QAInstance, Table, normalize_answer
from freb.errors import CannotPerturb, NoTargetFound
from freb.perturb import locate_target
from freb.perturb.value import _ac_candidate, _nc_candidate, apply_edits, evaluate_aggregation
from freb.rng import Rng

# Spellings that normalize together ("Bulls"/" BULLS ", "1,500"/"$1500"/
# "1500.0") or apart ("1500"/"15 points"), so matches are neither rare nor
# trivial.
_SPELLINGS = (
    "Bulls", "bulls", " BULLS ", "Bulls  Arena", "bulls arena", "1,500", "1500",
    "$1,500", "1500.0", "15 points", "", "2,019", "2019", "-3", "−3", "1e30",
)
texts = st.one_of(st.sampled_from(_SPELLINGS), st.text(alphabet="aB1,.$ -", max_size=5))


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    grid = draw(st.lists(st.lists(texts, min_size=n_cols, max_size=n_cols), max_size=6))
    return Table.from_values([f"h{c}" for c in range(n_cols)], grid)


def _instance(table, answers):
    return QAInstance("q", "Which one?", tuple(answers), table, question_type=EQ)


def _reference_matches(table, answers):
    gold = {normalize_answer(a) for a in answers}
    return [
        (r, c)
        for r, row in enumerate(table.rows)
        for c, cell in enumerate(row)
        if normalize_answer(cell.raw) in gold
    ]


def _reference_count(table, col, needle):
    target = normalize_answer(needle)
    return sum(1 for row in table.rows if normalize_answer(row[col].raw) == target)


@given(tables(), st.lists(texts, min_size=1, max_size=3))
def test_locate_target_matches_reference_scan(table, answers):
    matches = _reference_matches(table, answers)
    instance = _instance(table, answers)
    if not matches:
        with pytest.raises(NoTargetFound):
            locate_target(instance)
        return
    found = locate_target(instance)
    assert (found.row, found.col) == matches[0]
    assert found.ambiguous == (len(matches) > 1)


@given(tables(), st.lists(texts, min_size=1, max_size=3))
def test_answer_in_table_matches_reference_scan(table, answers):
    assert _answer_in_table(_instance(table, answers)) == bool(_reference_matches(table, answers))


@given(tables(), texts, st.data())
def test_count_oracle_matches_reference_scan(table, needle, data):
    col = data.draw(st.integers(0, table.n_cols - 1))
    descriptor = AggregationDescriptor(COUNT, value_col=col, filter=(col, needle))
    expected = _reference_count(table, col, needle)
    assert evaluate_aggregation(table, descriptor) == str(expected)


@given(tables(), texts, st.data(), st.integers(0, 2**32))
def test_count_edits_move_the_reference_count_as_promised(table, needle, data, seed):
    col = data.draw(st.integers(0, table.n_cols - 1))
    descriptor = AggregationDescriptor(COUNT, value_col=col, filter=(col, needle))
    before = _reference_count(table, col, needle)
    for candidate, changes in ((_ac_candidate, True), (_nc_candidate, False)):
        try:
            edits = candidate(table, descriptor, Rng(seed))
        except CannotPerturb:
            continue
        after = _reference_count(apply_edits(table, edits), col, needle)
        assert (after != before) == changes, (candidate.__name__, edits)
