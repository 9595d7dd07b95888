"""Flat one-line table serialization for model consumption.

Pinned format:

    col : h1 | h2 | ... row 1 : c11 | c12 | ... row 2 : c21 | ...

Separators are single-space padded.  Pipes, backslashes and newlines inside
a value are backslash-escaped ("\\|", "\\\\", "\\n") so the rendering stays
one line and parses back to the exact grid (the tests hold that parser).
Golden tests pin the format bit-exactly; do not restyle it.
"""

from __future__ import annotations

import re

from .core import Table

_ESCAPES = {"\\": "\\\\", "|": "\\|", "\n": "\\n"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def serialize(table: Table) -> str:
    parts = ["col : " + " | ".join(_escape(h) for h in table.headers)]
    for i, row in enumerate(table.rows, 1):
        parts.append(f"row {i} : " + " | ".join(_escape(c.raw) for c in row))
    return " ".join(parts)


_WS = re.compile(r"\s+")


def token_count(instance) -> int:
    """Whitespace-split token count of serialized table plus question."""
    table_tokens = len([t for t in _WS.split(serialize(instance.table)) if t])
    question_tokens = len([t for t in _WS.split(instance.question) if t])
    return table_tokens + question_tokens


def length_filter(instances, max_tokens: int):
    """Partition into (kept, dropped) by the token budget of the flat form."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    kept, dropped = [], []
    for instance in instances:
        (kept if token_count(instance) <= max_tokens else dropped).append(instance)
    return kept, dropped
