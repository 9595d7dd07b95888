"""Extraction-vs-reasoning question labeling.

The rule-based classifier needs no model: an answer that matches no table
cell can only come from reasoning (RQ); otherwise a comparative or
superlative cue in the question still marks it RQ; everything else is EQ.
Comparative cues come from an explicit lexicon plus morphological suffix
rules with an exception list, replacing POS tagging.  The combined strategy
defers borderline EQ calls to a pluggable secondary classifier (typically an
LLM behind a subprocess or HTTP endpoint).
"""

from __future__ import annotations

import json
import subprocess
import urllib.request
from dataclasses import dataclass

from .core import EQ, RQ, QAInstance, Table, normalize_answer
from .errors import BackendError
from .ingest import tokenize
from .serialize import serialize

DEFAULT_EXPLICIT_WORDS = frozenset(
    {
        "most",
        "least",
        "more",
        "less",
        "fewer",
        "fewest",
        "best",
        "worst",
        "greater",
        "smaller",
        "higher",
        "lower",
        "larger",
        "longer",
        "shorter",
        "earlier",
        "later",
        "highest",
        "lowest",
        "largest",
        "smallest",
        "longest",
        "shortest",
        "latest",
        "earliest",
        "biggest",
    }
)

# Common -er/-est words that are not comparatives.
DEFAULT_EXCEPTIONS = frozenset(
    {
        "other",
        "another",
        "number",
        "order",
        "over",
        "under",
        "after",
        "never",
        "water",
        "player",
        "river",
        "per",
        "summer",
        "winter",
    }
)


@dataclass(frozen=True)
class ComparativeLexicon:
    explicit_words: frozenset[str] = DEFAULT_EXPLICIT_WORDS
    exceptions: frozenset[str] = DEFAULT_EXCEPTIONS

    def __post_init__(self):
        overlap = self.explicit_words & self.exceptions
        if overlap:
            raise ValueError(f"lexicon words also listed as exceptions: {overlap}")

    def is_comparative(self, token: str) -> bool:
        if token in self.exceptions:
            return False
        if token in self.explicit_words:
            return True
        # Suffix heuristics; stem-length floors keep "best"/"west" ("b", "w")
        # and "user"-length noise out.
        if token.endswith("est") and len(token) - 3 >= 3:
            return True
        if token.endswith("er") and len(token) - 2 >= 4:
            return True
        return False

    def question_has_cue(self, question: str) -> bool:
        return any(self.is_comparative(t) for t in tokenize(question))

    @staticmethod
    def from_file(path) -> ComparativeLexicon:
        """Load {"explicit_words": [...], "exceptions": [...]} JSON overrides."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        return ComparativeLexicon(
            explicit_words=frozenset(
                w.lower() for w in data.get("explicit_words", DEFAULT_EXPLICIT_WORDS)
            ),
            exceptions=frozenset(
                w.lower() for w in data.get("exceptions", DEFAULT_EXCEPTIONS)
            ),
        )


def _answer_in_table(instance: QAInstance) -> bool:
    gold = {normalize_answer(a) for a in instance.answers}
    for row in instance.table.rows:
        for cell in row:
            if cell.key in gold:
                return True
    return False


def classify_rule_based(
    instance: QAInstance, lexicon: ComparativeLexicon = ComparativeLexicon()
) -> str:
    if not _answer_in_table(instance):
        return RQ
    if lexicon.question_has_cue(instance.question):
        return RQ
    return EQ


def classify_combined(instance: QAInstance, lexicon, secondary) -> str:
    """Rule-based RQ is final; rule-based EQ must be seconded to stay EQ.

    ``secondary`` is any callable (question, table, answers) -> "EQ" | "RQ".
    A secondary failure raises BackendError; callers mark the instance
    UNKNOWN.
    """
    if classify_rule_based(instance, lexicon) == RQ:
        return RQ
    label = secondary(instance.question, instance.table, instance.answers)
    if label not in (EQ, RQ):
        raise BackendError(f"secondary classifier returned {label!r}, expected EQ/RQ")
    return EQ if label == EQ else RQ


class SubprocessSecondary:
    """Secondary classifier behind a shell command.

    The command receives the question on line 1 and the serialized table on
    line 2 of stdin and must print a single EQ/RQ token.
    """

    def __init__(self, command: str, timeout: float = 30.0, retries: int = 0):
        self.command = command
        self.timeout = timeout
        self.retries = retries

    def __call__(self, question: str, table: Table, answers) -> str:
        payload = question + "\n" + serialize(table) + "\n"
        last_error = None
        for _ in range(self.retries + 1):
            try:
                result = subprocess.run(
                    self.command,
                    shell=True,
                    input=payload.encode("utf-8"),
                    capture_output=True,
                    timeout=self.timeout,
                )
                if result.returncode != 0:
                    raise BackendError(
                        f"secondary command exited {result.returncode}: "
                        f"{result.stderr.decode('utf-8', 'replace').strip()}"
                    )
                return result.stdout.decode("utf-8", "replace").strip()
            except (subprocess.TimeoutExpired, BackendError) as exc:
                last_error = exc
        raise BackendError(f"secondary command failed: {last_error}")


class HttpSecondary:
    """Secondary classifier behind an HTTP endpoint.

    POSTs {"question", "table_serialized"} as JSON and expects
    {"label": "EQ"|"RQ"} back.
    """

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 0,
                 auth_token: str | None = None):
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.auth_token = auth_token

    def __call__(self, question: str, table: Table, answers) -> str:
        body = json.dumps(
            {"question": question, "table_serialized": serialize(table)}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        request = urllib.request.Request(self.url, data=body, headers=headers)
        last_error = None
        for _ in range(self.retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    reply = json.loads(resp.read().decode("utf-8"))
                return str(reply["label"])
            except Exception as exc:  # noqa: BLE001 - network errors vary widely
                last_error = exc
        raise BackendError(f"secondary endpoint failed: {last_error}")
