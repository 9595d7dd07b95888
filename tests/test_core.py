"""Number parsing, answer normalization and table invariants."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import freb.core
from freb.core import (
    ARGMAX,
    COUNT,
    DIFF,
    EQ,
    RQ,
    AggregationDescriptor,
    Cell,
    CellCoord,
    CellPool,
    QAInstance,
    Table,
    canonical_decimal,
    normalize_answer,
    parse_number,
    validate,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("15", Decimal(15)),
        ("  42 ", Decimal(42)),
        ("1,500", Decimal(1500)),
        ("1,234,567", Decimal(1234567)),
        ("3.50", Decimal("3.50")),
        ("-7", Decimal(-7)),
        ("−7", Decimal(-7)),  # unicode minus
        ("+12", Decimal(12)),
        ("$1500", Decimal(1500)),
        ("$-3.50", Decimal("-3.50")),
        ("-$3.50", Decimal("-3.50")),
        ("€9", Decimal(9)),
        ("2.50%", Decimal("2.50")),
        ("2.50 %", Decimal("2.50")),
        ("1e3", Decimal(1000)),
    ],
)
def test_parse_number_accepts(text, expected):
    assert parse_number(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "   ", "+", "-", "$", "%", "abc", "12 points", "1.2.3", "nan", "inf", "-inf", "1 2"],
)
def test_parse_number_rejects(text):
    assert parse_number(text) is None


@pytest.mark.parametrize(
    "value,expected",
    [
        (Decimal("15.0"), "15"),
        (Decimal("0.500"), "0.5"),
        (Decimal("-0"), "0"),
        (Decimal("0.0"), "0"),
        (Decimal("1E+3"), "1000"),
        (Decimal("1.5E+2"), "150"),
        (Decimal("-2.30"), "-2.3"),
        (Decimal("0.001"), "0.001"),
        (Decimal("1" * 29), "1" * 29),
        (Decimal("1E+30"), "1" + "0" * 30),
        (Decimal("1E+1001"), "1E+1001"),
        (Decimal("-1.20E-1001"), "-1.2E-1001"),
    ],
)
def test_canonical_decimal(value, expected):
    assert canonical_decimal(value) == expected


def test_normalize_answer_text():
    assert normalize_answer("  Leslie   Oddson ") == "leslie oddson"
    assert normalize_answer("UP\tDOWN") == "up down"


def test_normalize_answer_numbers_unify():
    variants = ["1,500", "$1500", "1500.0", " 1500 ", "+1500"]
    assert len({normalize_answer(v) for v in variants}) == 1


def test_normalize_answer_mixed_text_untouched():
    assert normalize_answer("15 points") == "15 points"


@given(st.text(max_size=40))
@example("1e30")
@example("1" * 29)
@example("1e-999999999")
def test_normalize_answer_idempotent(raw):
    once = normalize_answer(raw)
    assert normalize_answer(once) == once
    # The cache answers what the function itself would.
    assert once == normalize_answer.__wrapped__(raw)


@given(st.fractions(max_denominator=1000))
@example(Fraction(10**28))
@example(Fraction(int("1" * 29)))
def test_canonical_decimal_round_trips_through_parse(frac):
    value = Decimal(frac.numerator) / Decimal(frac.denominator)
    text = canonical_decimal(value)
    parsed = parse_number(text)
    assert parsed is not None
    assert Fraction(parsed) == Fraction(value)
    assert canonical_decimal(parsed) == text


@pytest.mark.parametrize("raw", ["1e30", "1" * 29, "1e999999999", "1e-999999999"])
def test_normalize_answer_large_numerals_stay_small(raw):
    assert len(normalize_answer(raw)) < 100


def test_normalize_answer_never_rounds():
    assert normalize_answer("1" * 30) != normalize_answer("1" * 29 + "2")
    assert normalize_answer("1e-999999999") != normalize_answer("0")


@given(st.text(max_size=40))
@example("1e30")
@example("1" * 29)
@example("1e-999999999")
def test_cell_key_is_normalize_answer_and_comparison_neutral(raw):
    cell, twin = Cell(raw), Cell(raw)
    before = (hash(cell), repr(cell))
    assert cell.key == normalize_answer(raw)
    assert cell.key is cell.key  # filled once, then read back
    assert (hash(cell), repr(cell)) == before
    assert cell == twin and hash(cell) == hash(twin) and repr(cell) == repr(twin)
    assert not hasattr(cell, "__dict__")


def test_cell_key_is_read_only():
    cell = Cell("1,500")
    with pytest.raises(FrozenInstanceError):
        cell.raw = "7"
    # Python 3.11 raises TypeError, not AttributeError, for a name that is
    # not a field of a slotted frozen dataclass.
    with pytest.raises((AttributeError, TypeError)):
        cell.key = "7"
    assert cell.key == "1500"


def test_cell_parses_number_once():
    assert Cell("1,500").parsed_number == Decimal(1500)
    assert Cell("Leslie").parsed_number is None
    assert Cell("").parsed_number is None


def test_cell_equality_ignores_parsed_cache():
    assert Cell("15") == Cell("15")
    assert Cell("15") != Cell("15.0")


def _count_parses(monkeypatch):
    """Count calls to freb.core.parse_number from here on."""
    calls = []
    parse = freb.core.parse_number

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(freb.core, "parse_number", counting)
    return calls


def test_load_dataset_parses_no_numbers(toy_path, monkeypatch):
    from freb.ingest import load_dataset

    calls = _count_parses(monkeypatch)
    instances = load_dataset(toy_path)
    assert calls == []
    cell = instances[0].table.rows[0][0]
    cell.parsed_number
    assert calls == [cell.raw]


def _cells(instances):
    return [cell for inst in instances for row in inst.table.rows for cell in row]


def test_load_dataset_shares_one_cell_per_text(toy_path):
    from freb.ingest import load_dataset

    instances = load_dataset(toy_path)
    by_text = {}
    for cell in _cells(instances):
        assert by_text.setdefault(cell.raw, cell) is cell
    # Some of those texts recur in two different instances.
    first, second = ({cell.raw for cell in _cells([inst])} for inst in instances[:2])
    assert first & second


def test_two_loads_share_no_cell(toy_path):
    from freb.ingest import load_dataset

    first, second = _cells(load_dataset(toy_path)), _cells(load_dataset(toy_path))
    assert not {id(cell) for cell in first} & {id(cell) for cell in second}


def test_load_dataset_parses_each_distinct_text_once(toy_path, monkeypatch):
    from freb.ingest import load_dataset

    calls = _count_parses(monkeypatch)
    cells = _cells(load_dataset(toy_path))
    for cell in cells:
        cell.parsed_number
    assert sorted(calls) == sorted({cell.raw for cell in cells})


def test_from_values_without_a_pool_builds_a_cell_per_position():
    table = Table.from_values(["a", "b"], [["7", "7"], ["7", 7]])
    cells = [cell for row in table.rows for cell in row]
    assert [cell.raw for cell in cells] == ["7"] * 4
    assert len({id(cell) for cell in cells}) == 4


def test_from_values_with_a_pool_reuses_its_cells():
    pool = CellPool()
    first = Table.from_values(["a"], [["7"], [7]], pool)
    second = Table.from_values(["b"], [["7"]], pool)
    assert first.rows[0][0] is first.rows[1][0] is second.rows[0][0] is pool["7"]
    assert list(pool) == ["7"]


@pytest.mark.parametrize("raw", ["1,500", "Leslie"])
def test_cell_reads_its_number_twice_and_parses_once(raw, monkeypatch):
    calls = _count_parses(monkeypatch)
    cell = Cell(raw)
    assert calls == []
    first, second = cell.parsed_number, cell.parsed_number
    assert first is second
    assert calls == [raw]


LAZY_RAWS = ["1,500", "$-3", "−4", "2.50%", " 7 ", "", "Leslie", "NaN", "1e30"]


@pytest.mark.parametrize("raw", LAZY_RAWS)
def test_cell_parsed_number_is_parse_number(raw):
    assert Cell(raw).parsed_number == parse_number(raw)


@pytest.mark.parametrize("raw", LAZY_RAWS)
@pytest.mark.parametrize(
    "clone",
    [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_cell_clones_keep_the_number_before_and_after_reading(raw, clone):
    unread = clone(Cell(raw))
    read = Cell(raw)
    read.parsed_number, read.key
    read = clone(read)
    for cell in (unread, read):
        assert cell == Cell(raw)
        assert cell.parsed_number == parse_number(raw)
        assert cell.key == normalize_answer(raw)


@pytest.mark.parametrize("raw", LAZY_RAWS)
def test_cell_equality_and_hash_ignore_what_was_read(raw):
    fresh, read = Cell(raw), Cell(raw)
    before = (hash(read), repr(read))
    read.parsed_number, read.key
    assert (hash(read), repr(read)) == before
    assert fresh == read and hash(fresh) == hash(read)
    assert {fresh: 1}[read] == 1


def test_table_from_values_and_accessors():
    t = Table.from_values(["Name", "Votes"], [["Leslie", "15"], ["Olsson", "4"]])
    assert t.n_rows == 2
    assert t.n_cols == 2
    assert t.cell(CellCoord(1, 0)).raw == "Olsson"
    assert t.column_values(1) == ["15", "4"]
    assert t.grid_values() == [["Leslie", "15"], ["Olsson", "4"]]


def _instance(**overrides):
    base = dict(
        id="t1",
        question="What did Leslie get?",
        answers=("15",),
        table=Table.from_values(["Name", "Votes"], [["Leslie", "15"], ["Olsson", "4"]]),
        question_type=EQ,
    )
    base.update(overrides)
    return QAInstance(**base)


def test_validate_clean_instance():
    assert validate(_instance()) == []


def test_validate_flags_ragged_rows():
    ragged = Table(headers=("A", "B"), rows=((Cell("1"),),))
    problems = validate(_instance(table=ragged, answers=("1",)))
    assert any("row 0" in p for p in problems)


def test_validate_flags_empty_answers():
    assert validate(_instance(answers=())) == ["answers list is empty"]
    assert validate(_instance(answers=("",))) == ["answer 0 is an empty string"]


def test_validate_flags_bad_question_type():
    assert validate(_instance(question_type="MAYBE")) != []


def test_validate_flags_out_of_range_relevant_cell():
    problems = validate(_instance(relevant_cells=(CellCoord(5, 0),)))
    assert any("relevant cell row 5" in p for p in problems)


def test_validate_flags_aggregation_problems():
    inst = _instance(
        question_type=RQ,
        aggregation=AggregationDescriptor(kind=ARGMAX, value_col=1),
    )
    assert any("requires label_col" in p for p in validate(inst))

    inst = _instance(
        question_type=RQ,
        aggregation=AggregationDescriptor(kind=COUNT, value_col=1),
    )
    assert any("requires filter" in p for p in validate(inst))

    inst = _instance(
        question_type=RQ,
        aggregation=AggregationDescriptor(kind=DIFF, value_col=1),
    )
    assert any("requires operands" in p for p in validate(inst))

    inst = _instance(
        question_type=RQ,
        aggregation=AggregationDescriptor(
            kind=DIFF,
            value_col=1,
            operands=(CellCoord(0, 1), CellCoord(9, 1)),
        ),
    )
    assert any("operand 1 row 9 out of range" in p for p in validate(inst))


def test_validate_flags_unknown_aggregation_kind():
    inst = _instance(aggregation=AggregationDescriptor(kind="MEDIAN", value_col=0))
    assert validate(inst) == ["unknown aggregation kind 'MEDIAN'"]


def test_with_table_replaces_only_named_fields():
    inst = _instance()
    new_table = Table.from_values(["X"], [["1"]])
    out = inst.with_table(new_table, relevant_cells=(CellCoord(0, 0),))
    assert out.table is new_table
    assert out.id == inst.id
    assert out.relevant_cells == (CellCoord(0, 0),)
    assert inst.relevant_cells is None  # original untouched
