"""Extraction-vs-reasoning question labeling.

The rule-based classifier needs no model: an answer that matches no table
cell can only come from reasoning (RQ); otherwise a comparative or
superlative cue in the question still marks it RQ; everything else is EQ.
Comparative cues come from an explicit lexicon plus morphological suffix
rules with an exception list, replacing POS tagging.  The combined strategy
defers borderline EQ calls to a secondary classifier, a backend whose answer
is "EQ" or "RQ", asked about all of a run's rule-based EQ instances in one
batch; ``freb classify --secondary <spec>`` builds it with
``backends.parse_backend`` from a subprocess: or http(s): spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EQ, RQ, UNKNOWN, QAInstance, answer_keys
from .errors import DatasetError
from .ingest import read_json, tokenize
from .metrics import ORIGINAL

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
        """Load {"explicit_words": [...], "exceptions": [...]} JSON overrides;
        DatasetError if the file is not such an object."""
        data = read_json(path, "lexicon file")
        try:
            explicit = data.get("explicit_words", list(DEFAULT_EXPLICIT_WORDS))
            exceptions = data.get("exceptions", list(DEFAULT_EXCEPTIONS))
            # A string would otherwise be read as a list of its letters.
            if not (isinstance(explicit, list) and isinstance(exceptions, list)):
                raise TypeError("explicit_words and exceptions must be lists")
            # A number, even one read as the text of its spelling, is no word.
            if not all(type(word) is str for word in explicit + exceptions):
                raise TypeError("explicit_words and exceptions must hold strings")
            return ComparativeLexicon(
                explicit_words=frozenset(w.lower() for w in explicit),
                exceptions=frozenset(w.lower() for w in exceptions),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise DatasetError(
                f'{path}: expected {{"explicit_words": [...], "exceptions": [...]}}: {exc}'
            ) from exc


def _answer_in_table(instance: QAInstance) -> bool:
    gold = answer_keys(instance.answers)
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


def classify_combined(instances, lexicon: ComparativeLexicon, secondary) -> list[tuple]:
    """(label, reason) for each instance, the reason None unless the label is UNKNOWN.

    Rule-based RQ is final.  Every rule-based EQ instance goes to ``secondary``
    in one ``predictions_for`` call and takes the label it answers, which must
    be "EQ" or "RQ"; a failure, or any other label, makes it UNKNOWN.
    """
    labels = [classify_rule_based(inst, lexicon) for inst in instances]
    answers, failures = secondary.predictions_for(
        (ORIGINAL, 0), [inst for inst, label in zip(instances, labels) if label == EQ]
    )
    labeled = []
    for inst, label in zip(instances, labels):
        reason = failures.get(inst.id)
        if label == EQ and reason is None:
            label = answers[inst.id]
            if label not in (EQ, RQ):
                reason = f"secondary classifier returned {label!r}, expected EQ/RQ"
        labeled.append((label, None) if reason is None else (UNKNOWN, reason))
    return labeled
