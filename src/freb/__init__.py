"""freb: turn table-QA datasets into robustness benchmarks and score models.

The pieces compose as perturb -> serialize -> predict -> score: perturbation
families rearrange table structure, remove evidence, or edit values under an
executable aggregation oracle; metrics compare predictions before and after;
reference models give the harness something honest (and something
dishonest) to certify against.
"""

from .core import (
    AggregationDescriptor,
    Cell,
    CellCoord,
    QAInstance,
    Table,
    canonical_decimal,
    normalize_answer,
    parse_number,
    validate,
)
from .errors import (
    BackendError,
    ConfigError,
    DatasetError,
    FrebError,
    PerturbSkip,
)
from .metrics import ORIGINAL, aggregate_seeds, em, emd
from .perturb import apply_perturbation, evaluate_aggregation
from .pipeline import RunConfig, render_report_text, run_pipeline
from .rng import Rng, derive_rng, derive_seed
from .serialize import length_filter, parse_serialized, serialize, token_count

__version__ = "0.1.0"

__all__ = [
    "AggregationDescriptor",
    "BackendError",
    "Cell",
    "CellCoord",
    "ConfigError",
    "DatasetError",
    "FrebError",
    "ORIGINAL",
    "PerturbSkip",
    "QAInstance",
    "Rng",
    "RunConfig",
    "Table",
    "aggregate_seeds",
    "apply_perturbation",
    "canonical_decimal",
    "derive_rng",
    "derive_seed",
    "em",
    "emd",
    "evaluate_aggregation",
    "length_filter",
    "normalize_answer",
    "parse_number",
    "parse_serialized",
    "render_report_text",
    "run_pipeline",
    "serialize",
    "token_count",
    "validate",
    "__version__",
]
