"""JSONL round-trips, validation failures and the positional-question filter."""

import json
import re
from dataclasses import replace

import pytest

from freb.core import (
    ARGMAX,
    COUNT,
    EQ,
    RQ,
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
)
from freb.errors import DatasetError
from freb.ingest import (
    PositionalWordList,
    filter_positional_questions,
    instance_from_record,
    instance_to_record,
    load_dataset,
    read_records,
    save_dataset,
    tokenize,
    write_records,
)


def _full_instance():
    return QAInstance(
        id="rt-1",
        question="Which team has the most wins?",
        answers=("Reds", "The Reds"),
        table=Table.from_values(
            ["Team", "Wins"], [["Reds", "10"], ["Blues", "7"], ["Greens", "3"]]
        ),
        question_type=RQ,
        relevant_cells=(CellCoord(0, 0), CellCoord(0, 1)),
        aggregation=AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0),
        source="unit",
    )


def test_record_round_trip_full():
    inst = _full_instance()
    assert instance_from_record(instance_to_record(inst)) == inst


def test_record_round_trip_minimal():
    inst = QAInstance(
        id="rt-2",
        question="q",
        answers=("a",),
        table=Table.from_values(["H"], [["a"]]),
    )
    record = instance_to_record(inst)
    assert "question_type" not in record
    assert "relevant_cells" not in record
    assert "aggregation" not in record
    assert instance_from_record(record) == inst


def test_record_round_trip_count_filter():
    inst = QAInstance(
        id="rt-3",
        question="How many?",
        answers=("2",),
        table=Table.from_values(["City"], [["Kyoto"], ["Kyoto"], ["Lyon"]]),
        question_type=RQ,
        aggregation=AggregationDescriptor(
            kind=COUNT, value_col=0, filter=(0, "Kyoto")
        ),
    )
    assert instance_from_record(instance_to_record(inst)) == inst


def test_instance_from_record_reports_missing_key():
    with pytest.raises(DatasetError, match="malformed record"):
        instance_from_record({"id": "x", "question": "q"})


def test_dataset_file_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    instances = [_full_instance()]
    save_dataset(instances, path)
    assert load_dataset(path) == instances


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_load_dataset_digests_the_bytes_it_reads(tmp_path, ending):
    import hashlib

    path = tmp_path / "data.jsonl"
    instances = [_full_instance(), replace(_full_instance(), id="rt-2", question="Qui a gagné ?")]
    lines = [json.dumps(instance_to_record(i), ensure_ascii=False) for i in instances]
    data = ending.join(["", *lines, ""]).encode("utf-8")
    path.write_bytes(data)
    digest = hashlib.sha256()
    assert load_dataset(path, digest) == instances
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


def test_read_records_cites_bad_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "a"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DatasetError, match="broken.jsonl:2"):
        read_records(path)


def test_read_records_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n{"id": "a"}\n\n{"id": "b"}\n', encoding="utf-8")
    assert [r["id"] for r in read_records(path)] == ["a", "b"]


def test_load_dataset_cites_the_file_line_past_blank_lines(tmp_path):
    path = tmp_path / "bl.jsonl"
    good = [json.dumps(dict(instance_to_record(_full_instance()), id=i)) for i in ("a", "b")]
    bad = json.dumps({"id": "c", "question": "q", "answers": ["x"]})
    path.write_text("\n".join([*good, "", "", bad]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"bl\.jsonl:5: malformed record: 'table'"):
        load_dataset(path)


@pytest.mark.parametrize(
    "change,message",
    [
        ({"id": None}, "id must be a string or number, not null"),
        ({"question": None}, "question must be a string or number, not null"),
        ({"source": None}, "source must be a string or number, not null"),
        ({"answers": "Leslie"}, 'answers must be a JSON array, not "Leslie"'),
        ({"answers": None}, "answers must be a JSON array, not null"),
        ({"answers": ["1", None]}, "answers must hold strings or numbers, not null"),
        ({"table": {"headers": "AB", "rows": [["1", "2"]]}}, 'headers must be a JSON array, not "AB"'),
        (
            {"table": {"headers": ["A", None], "rows": [["1", "2"]]}},
            "headers must hold strings or numbers, not null",
        ),
        ({"table": {"headers": ["A", "B"], "rows": "12"}}, 'rows must be a JSON array, not "12"'),
        ({"table": {"headers": ["A", "B"], "rows": ["12"]}}, 'row 0 must be a JSON array, not "12"'),
        (
            {"table": {"headers": ["A", "B"], "rows": [["1", "2"], ["3", None]]}},
            "row 1 must hold strings or numbers, not null",
        ),
    ],
)
def test_load_dataset_rejects_text_or_null_for_an_array(tmp_path, change, message):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(instance_to_record(_full_instance()))
    record = {"id": "b", "question": "What is A?", "answers": ["1"],
              "table": {"headers": ["A", "B"], "rows": [["1", "2"]]}, **change}
    path.write_text(good + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=re.escape(f"bad.jsonl:2: malformed record: {message}")):
        load_dataset(path)


def test_load_dataset_reads_numbers_as_cells_and_answers(tmp_path):
    path = tmp_path / "numbers.jsonl"
    record = {"id": 7, "question": "How many?", "answers": [3],
              "table": {"headers": ["A", "B"], "rows": [[3, 2.5]]}}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (inst,) = load_dataset(path)
    assert (inst.id, inst.answers) == ("7", ("3",))
    assert inst.table.grid_values() == [["3", "2.5"]]


def test_read_records_rejects_non_object(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="not an object"):
        read_records(path)


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    record = instance_to_record(_full_instance())
    path.write_text(
        json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8"
    )
    with pytest.raises(DatasetError, match="duplicate instance id 'rt-1'"):
        load_dataset(path)


def test_load_dataset_rejects_invalid_instance(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = instance_to_record(_full_instance())
    record["answers"] = []
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="answers list is empty"):
        load_dataset(path)


def test_write_records_preserves_extra_keys(tmp_path):
    path = tmp_path / "extra.jsonl"
    record = instance_to_record(_full_instance())
    record["provenance"] = {"kind": "SHUFFLE_ROWS"}
    write_records([record], path)
    back = read_records(path)
    assert back[0]["provenance"] == {"kind": "SHUFFLE_ROWS"}
    # the instance decoder ignores the extra key
    assert instance_from_record(back[0]) == _full_instance()


def test_tokenize_splits_on_punctuation():
    assert tokenize("First-place finisher, 2nd row?") == [
        "first",
        "place",
        "finisher",
        "2nd",
        "row",
    ]


def _question_instance(qid, question):
    return QAInstance(
        id=qid,
        question=question,
        answers=("x",),
        table=Table.from_values(["H"], [["x"]]),
        question_type=EQ,
    )


def test_filter_positional_questions():
    keep = _question_instance("k1", "What is the secondary color?")
    drop_plain = _question_instance("d1", "Who is listed first?")
    drop_hyphen = _question_instance("d2", "Which first-time entrant won?")
    drop_case = _question_instance("d3", "Name the LAST entry.")
    kept, removed = filter_positional_questions([keep, drop_plain, drop_hyphen, drop_case])
    assert [i.id for i in kept] == ["k1"]
    assert [i.id for i in removed] == ["d1", "d2", "d3"]


def test_filter_does_not_match_substrings():
    # "topic" contains "top" as a substring but not as a token.
    kept, removed = filter_positional_questions(
        [_question_instance("k1", "What topic is covered?")]
    )
    assert removed == []
    assert len(kept) == 1


def test_positional_word_list_from_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("Leading\n\nTRAILING\n", encoding="utf-8")
    words = PositionalWordList.from_file(path)
    assert words.words == frozenset({"leading", "trailing"})
    kept, removed = filter_positional_questions(
        [_question_instance("a", "The leading entry?")], words
    )
    assert kept == []
    assert len(removed) == 1


def test_positional_word_list_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="empty"):
        PositionalWordList.from_file(path)
