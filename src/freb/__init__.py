"""freb: turn table-QA datasets into robustness benchmarks and score models.

The pieces compose as perturb -> serialize -> predict -> score: perturbation
families rearrange table structure, remove evidence, or edit values under an
executable aggregation oracle; metrics compare predictions before and after;
reference models give the harness something honest (and something
dishonest) to certify against.

``import freb`` loads only the data model and ``serialize``; every other
public name, and each submodule (``freb.perturb``, ``freb.rng``, ...),
imports its module on first use (PEP 562).
"""

import importlib

# Bound eagerly: importing the submodule ``freb.serialize`` later (as
# ``pipeline`` does) would otherwise leave the module under this name.
from .serialize import serialize

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AggregationDescriptor", "Cell", "CellCoord", "QAInstance", "Table",
        "canonical_decimal", "normalize_answer", "parse_number", "validate",
    ),
    "errors": ("BackendError", "ConfigError", "DatasetError", "FrebError", "PerturbSkip"),
    "metrics": ("ORIGINAL", "aggregate_seeds", "em", "emd"),
    "perturb": ("apply_perturbation", "evaluate_aggregation"),
    "pipeline": ("RunConfig", "render_report_text", "run_pipeline"),
    "rng": ("Rng", "derive_rng", "derive_seed"),
    "serialize": ("length_filter", "serialize", "token_count"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        if not name.startswith("_"):
            # A submodule: importing it binds it on this package.
            try:
                return importlib.import_module(f".{name}", __name__)
            except ModuleNotFoundError as exc:
                if exc.name != f"{__name__}.{name}":
                    raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
