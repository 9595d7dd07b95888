"""Dataset reading/writing and the table-structure question filter.

The on-disk format is UTF-8 JSON Lines, one QA instance per line:

    {"id": ..., "question": ..., "answers": [...],
     "table": {"headers": [...], "rows": [[...], ...]},
     "question_type"?, "relevant_cells"?, "aggregation"?, "source"?}

Extra keys (e.g. "provenance" on perturbed files) are preserved by the
record-level helpers and ignored by the instance decoder.  Converters from
native dataset formats are expected to emit this format; none are bundled.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .core import (
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
    UNKNOWN,
    validate,
)
from .errors import ConfigError, DatasetError, FrebError

# Positional prepositions and ordinals whose presence marks a question as
# depending on table structure rather than content.
DEFAULT_POSITIONAL_WORDS = frozenset(
    {
        "first",
        "second",
        "third",
        "last",
        "top",
        "bottom",
        "before",
        "previous",
        "latter",
        "after",
        "next",
        "below",
        "above",
    }
)

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class PositionalWordList:
    words: frozenset[str] = DEFAULT_POSITIONAL_WORDS

    @staticmethod
    def from_file(path) -> PositionalWordList:
        words = {line.strip().lower() for _, line in read_lines(path, "positional word list")} - {""}
        if not words:
            raise DatasetError(f"positional word list {path} is empty")
        return PositionalWordList(frozenset(words))


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric boundaries.

    Catches "first-place" and "first," uniformly; substring matches do not
    fire ("secondary" does not contain the token "second").
    """
    return _TOKEN.findall(text.lower())


def filter_positional_questions(
    instances, word_list: PositionalWordList = PositionalWordList()
):
    """Partition instances into (kept, removed) by positional-word tokens."""
    kept, removed = [], []
    for instance in instances:
        tokens = tokenize(instance.question)
        if any(token in word_list.words for token in tokens):
            removed.append(instance)
        else:
            kept.append(instance)
    return kept, removed


def instance_to_record(instance: QAInstance) -> dict:
    record = {
        "id": instance.id,
        "question": instance.question,
        "answers": list(instance.answers),
        "table": {
            "headers": list(instance.table.headers),
            "rows": instance.table.grid_values(),
        },
    }
    if instance.question_type != UNKNOWN:
        record["question_type"] = instance.question_type
    if instance.relevant_cells is not None:
        record["relevant_cells"] = [[c.row, c.col] for c in instance.relevant_cells]
    if instance.aggregation is not None:
        record["aggregation"] = _aggregation_to_json(instance.aggregation)
    if instance.source:
        record["source"] = instance.source
    return record


def _aggregation_to_json(agg: AggregationDescriptor) -> dict:
    out = {"kind": agg.kind, "value_col": agg.value_col}
    if agg.label_col is not None:
        out["label_col"] = agg.label_col
    if agg.filter is not None:
        out["filter"] = {"col": agg.filter[0], "value": agg.filter[1]}
    if agg.operands is not None:
        out["operands"] = [[c.row, c.col] for c in agg.operands]
    return out


def _aggregation_from_json(data) -> AggregationDescriptor:
    _typed(data, dict, "aggregation")
    filt = data.get("filter")
    if filt is not None:
        _typed(filt, dict, "filter")
        filt = (_typed(filt["col"], int, "filter col"), _text(filt["value"], "filter value"))
    operands = None
    if data.get("operands") is not None:
        operands = _coords(data["operands"], "operands")
        if len(operands) != 2:
            raise ValueError(f"operands must hold two cells, not {len(operands)}")
    label_col = data.get("label_col")
    return AggregationDescriptor(
        kind=_text(data["kind"], "aggregation kind"),
        value_col=_typed(data["value_col"], int, "value_col"),
        label_col=None if label_col is None else _typed(label_col, int, "label_col"),
        filter=filt,
        operands=operands,
    )


def _excerpt(value) -> str:
    return json.dumps(value, ensure_ascii=False)[:60]


_JSON_TYPES = {list: "a JSON array", dict: "a JSON object", int: "an integer"}


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, one of _JSON_TYPES;
    ValueError otherwise, so that a string is never split into letters and
    neither text, a fraction nor true/false is read as a row or column."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, not {_excerpt(value)}")
    return value


# The JSON values read as text: strings and numbers, never null or true/false.
_TEXT_TYPES = frozenset({str, int, float})


def _text(value, what: str) -> str:
    """``value`` as text if it is a JSON string or number; ValueError
    otherwise, so that a null is never read as the text "None"."""
    if type(value) not in _TEXT_TYPES:
        raise ValueError(f"{what} must be a string or number, not {_excerpt(value)}")
    return str(value)


def _texts(value, what: str) -> list:
    """``value`` if it is a JSON array of strings and numbers; ValueError otherwise."""
    if not _TEXT_TYPES.issuperset(map(type, _typed(value, list, what))):
        bad = next(item for item in value if type(item) not in _TEXT_TYPES)
        raise ValueError(f"{what} must hold strings or numbers, not {_excerpt(bad)}")
    return value


def _coords(value, what: str) -> tuple[CellCoord, ...]:
    """A JSON array of [row, col] integer pairs as cell coordinates;
    ValueError otherwise, so that "01" is never read as row 0, column 1."""
    pairs = _typed(value, list, what)
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2 or {type(pair[0]), type(pair[1])} != {int}:
            raise ValueError(f"{what} must hold [row, col] integer pairs, not {_excerpt(pair)}")
    return tuple(CellCoord(row, col) for row, col in pairs)


def instance_from_record(record: dict) -> QAInstance:
    try:
        rows = _typed(record["table"]["rows"], list, "rows")
        table = Table.from_values(
            _texts(record["table"]["headers"], "headers"),
            [_texts(row, f"row {i}") for i, row in enumerate(rows)],
        )
        relevant = None
        if record.get("relevant_cells") is not None:
            relevant = _coords(record["relevant_cells"], "relevant_cells")
        aggregation = None
        if record.get("aggregation") is not None:
            aggregation = _aggregation_from_json(record["aggregation"])
        return QAInstance(
            id=_text(record["id"], "id"),
            question=_text(record["question"], "question"),
            answers=tuple(str(a) for a in _texts(record["answers"], "answers")),
            table=table,
            question_type=_text(record.get("question_type", UNKNOWN), "question_type"),
            relevant_cells=relevant,
            aggregation=aggregation,
            source=_text(record.get("source", ""), "source"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed record: {exc}") from exc


def read_lines(path, what: str, error: type[FrebError] = DatasetError, digest=None):
    """(file line number, line) for each line of the UTF-8 file ``path``; every
    input file is read here. An unreadable file raises ``error`` naming ``what``.
    Lines keep their own line endings; ``digest``, a hashlib object, is
    updated with the bytes of each line read."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            for numbered in enumerate(handle, 1):
                if digest is not None:
                    digest.update(numbered[1].encode("utf-8"))
                yield numbered
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from exc


def read_json(path, what: str):
    """The one JSON document in the file ``path``; DatasetError if unreadable."""
    try:
        return json.loads("".join(line for _, line in read_lines(path, what)))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: not valid JSON: {exc}") from exc


def iter_records(path, what: str = "dataset file", digest=None):
    """(file line number, JSON object) for each non-blank line of a JSONL
    file; ``digest`` is as for ``read_lines``."""
    for line_no, line in read_lines(path, what, digest=digest):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{path}:{line_no}: record is not an object")
        yield line_no, record


def read_records(path) -> list[dict]:
    """Raw JSON objects, one per non-blank line; parse errors cite the line."""
    return [record for _, record in iter_records(path)]


@contextmanager
def _writing(path):
    """Every output file is written in here: an output path that cannot be
    written is a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc


def check_output_dir(path) -> None:
    """ConfigError naming ``path`` now when its directory cannot be opened,
    so a long run learns before it starts that its output cannot be written."""
    with _writing(path), os.scandir(Path(path).parent):
        pass


def write_text(path, text: str) -> None:
    """``text`` to the UTF-8 file ``path``, whose directory must exist."""
    with _writing(path):
        Path(path).write_text(text, encoding="utf-8")


def write_records(records, path) -> None:
    """One JSON object per line to the UTF-8 file ``path``, making its directory."""
    path = Path(path)
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_dataset(path, digest=None) -> list[QAInstance]:
    """Load and validate a dataset file; order preserved, ids unique.
    ``digest``, a hashlib object, is updated with every byte of the file."""
    instances = []
    seen_ids = set()
    for line_no, record in iter_records(path, digest=digest):
        try:
            instance = instance_from_record(record)
        except DatasetError as exc:
            raise DatasetError(f"{path}:{line_no}: {exc}") from exc
        problems = validate(instance)
        if problems:
            raise DatasetError(
                f"{path}:{line_no}: instance {instance.id!r} invalid: " + "; ".join(problems)
            )
        if instance.id in seen_ids:
            raise DatasetError(f"{path}:{line_no}: duplicate instance id {instance.id!r}")
        seen_ids.add(instance.id)
        instances.append(instance)
    return instances


def save_dataset(instances, path) -> None:
    write_records((instance_to_record(i) for i in instances), path)
