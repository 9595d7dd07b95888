"""Exception taxonomy.

PerturbSkip subclasses mark instances a perturbation legitimately cannot
handle; pipelines catch them, record the instance id, the class name as the
reason and the message as the detail, and move on.
DatasetError / ConfigError are fatal and map to CLI exit codes 2 and 1.
"""

from __future__ import annotations


class FrebError(Exception):
    pass


class DatasetError(FrebError):
    """Unreadable, unparsable, or invariant-violating dataset content."""


class ConfigError(FrebError):
    """Bad CLI arguments or evaluate-config file."""


class BackendError(FrebError):
    """A model backend failed for one instance (timeout, bad output, ...)."""


class PerturbSkip(FrebError):
    """Base for per-instance conditions that skip a perturbation."""


class NoTargetFound(PerturbSkip):
    """No table cell matches any gold answer."""


class TooFewRows(PerturbSkip):
    """The table is too small to partition."""


class MissingAnnotation(PerturbSkip):
    """An annotation the perturbation reads is absent."""


class NonNumericCell(PerturbSkip):
    """A cell of a numeric aggregation column is not a number."""


class TieDetected(PerturbSkip):
    """Extremal values tie."""


class UnsupportedKind(PerturbSkip):
    """The perturbation kind, or the aggregation kind, is not supported."""


class CannotPerturb(PerturbSkip):
    """No valid edit was found within the retry budget."""


class NotEligible(PerturbSkip):
    """The instance's question type does not fit the perturbation."""


class GoldMismatch(PerturbSkip):
    """The aggregation descriptor's answer is not one of the gold answers."""
