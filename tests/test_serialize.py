"""Golden serialization format, escape round-trips and the length filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.core import QAInstance, Table
from freb.serialize import length_filter, serialize, token_count


# The inverse of serialize, kept here as the round-trip oracle: no product
# path reads a serialized table back.

_UNESCAPES = {"\\": "\\", "|": "|", "n": "\n"}


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value) and value[i + 1] in _UNESCAPES:
            out.append(_UNESCAPES[value[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _split_fields(segment: str) -> list[str]:
    """Split on " | " separators whose pipe is not escaped."""
    fields = []
    current = []
    i = 0
    while i < len(segment):
        ch = segment[i]
        if ch == "\\" and i + 1 < len(segment):
            current.append(ch)
            current.append(segment[i + 1])
            i += 2
            continue
        if ch == "|" and segment[i - 1 : i] == " " and segment[i + 1 : i + 2] == " ":
            field = "".join(current)
            fields.append(field[:-1] if field.endswith(" ") else field)
            current = []
            i += 2
            continue
        current.append(ch)
        i += 1
    fields.append("".join(current))
    return [_unescape(f) for f in fields]


def parse_serialized(text: str) -> Table:
    """Inverse of serialize for escaped content.

    Row markers are located in order ("row 1 : " then "row 2 : " ...), so a
    cell containing the exact next marker text would mis-split; escaped
    pipes, backslashes and newlines round-trip exactly.
    """
    if not text.startswith("col : "):
        raise ValueError("serialized table must start with 'col : '")
    body = text[len("col : "):]
    segments = []
    row_index = 1
    while True:
        marker = f" row {row_index} : "
        pos = body.find(marker)
        if pos < 0:
            segments.append(body)
            break
        segments.append(body[:pos])
        body = body[pos + len(marker):]
        row_index += 1
    headers = _split_fields(segments[0])
    grid = [_split_fields(seg) for seg in segments[1:]]
    return Table.from_values(headers, grid)


def test_golden_two_row_table():
    t = Table.from_values(["Name", "Votes"], [["Leslie", "15"], ["Olsson", "4"]])
    assert serialize(t) == "col : Name | Votes row 1 : Leslie | 15 row 2 : Olsson | 4"


def test_golden_dummy_table():
    t = Table.from_values(["None"], [["None"]])
    assert serialize(t) == "col : None row 1 : None"


def test_golden_headers_only():
    t = Table.from_values(["A", "B", "C"], [])
    assert serialize(t) == "col : A | B | C"


def test_escapes_stay_on_one_line():
    t = Table.from_values(["a|b"], [["line1\nline2"], ["back\\slash"]])
    rendered = serialize(t)
    assert "\n" not in rendered
    assert parse_serialized(rendered) == t


def test_parse_rejects_bad_prefix():
    with pytest.raises(ValueError, match="col : "):
        parse_serialized("row 1 : x")


@pytest.mark.parametrize(
    "value",
    ["", " ", "  padded  ", "a | b", "\\", "\\n", "|", "||", "row 1 :", "col :"],
)
def test_awkward_cell_round_trip(value):
    t = Table.from_values(["H", "K"], [[value, "x"]])
    assert parse_serialized(serialize(t)) == t


_cell_text = st.text(
    alphabet=st.sampled_from(list("ab|\\ \n:0行")), max_size=8
)


@given(
    st.integers(1, 4),
    st.integers(0, 4),
    st.data(),
)
def test_serialize_round_trip(n_cols, n_rows, data):
    headers = [data.draw(_cell_text) for _ in range(n_cols)]
    grid = [[data.draw(_cell_text) for _ in range(n_cols)] for _ in range(n_rows)]
    t = Table.from_values(headers, grid)
    rendered = serialize(t)
    assert "\n" not in rendered
    assert parse_serialized(rendered) == t


def _inst(question, headers, grid):
    return QAInstance(
        id="s1",
        question=question,
        answers=("x",),
        table=Table.from_values(headers, grid),
    )


def test_token_count():
    inst = _inst("What is it?", ["Name", "Votes"], [["Leslie", "15"]])
    # table: col : Name | Votes row 1 : Leslie | 15  -> 11 tokens
    # question: What is it?                          -> 3 tokens
    assert token_count(inst) == 14


def test_length_filter_partitions():
    small = _inst("Q?", ["H"], [["a"]])
    big = _inst("Q?", ["H"], [[f"cell{i}"] for i in range(50)])
    kept, dropped = length_filter([small, big], max_tokens=20)
    assert kept == [small]
    assert dropped == [big]


def test_length_filter_boundary_is_inclusive():
    inst = _inst("Q?", ["H"], [["a"]])
    n = token_count(inst)
    kept, dropped = length_filter([inst], max_tokens=n)
    assert kept == [inst] and dropped == []
    kept, dropped = length_filter([inst], max_tokens=n - 1)
    assert kept == [] and dropped == [inst]


def test_length_filter_rejects_silly_budget():
    with pytest.raises(ValueError):
        length_filter([], max_tokens=0)
