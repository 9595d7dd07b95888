"""The package's public names: each imports its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freb

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports freb from src/."""
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_loading_a_dataset_imports_only_the_data_model():
    code = "import sys, freb, freb.ingest; print(*sorted(m for m in sys.modules if m.startswith('freb')))"
    assert _fresh(code).split() == ["freb", "freb.core", "freb.errors", "freb.ingest", "freb.serialize"]


def test_the_public_names_are_these():
    assert freb.__all__ == [
        "AggregationDescriptor", "BackendError", "Cell", "CellCoord", "ConfigError",
        "DatasetError", "FrebError", "ORIGINAL", "PerturbSkip", "QAInstance", "Rng",
        "RunConfig", "Table", "aggregate_seeds", "apply_perturbation", "canonical_decimal",
        "derive_rng", "derive_seed", "em", "emd", "evaluate_aggregation", "length_filter",
        "normalize_answer", "parse_number", "render_report_text", "run_pipeline", "serialize",
        "token_count", "validate", "__version__",
    ]


@pytest.mark.parametrize("name", [n for n in freb.__all__ if n != "__version__"])
def test_each_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"freb.{freb._MODULE_OF[name]}")
    assert getattr(freb, name) is getattr(module, name)


def test_a_submodule_is_an_attribute_after_a_bare_import():
    code = (
        "import freb; print(freb.perturb.replay.__name__, freb.rng.derive_seed.__name__, "
        "freb.pipeline.run_pipeline.__name__, freb.serialize.__name__)"
    )
    assert _fresh(code).split() == ["replay", "derive_seed", "run_pipeline", "serialize"]


def test_serialize_stays_the_function_after_its_module_is_imported():
    code = "import freb.pipeline, freb; print(callable(freb.serialize), type(freb.serialize).__name__)"
    assert _fresh(code).split() == ["True", "function"]


def test_star_import_binds_every_public_name():
    code = "from freb import *; import freb; print(all(n in globals() for n in freb.__all__))"
    assert _fresh(code).strip() == "True"
    assert freb.__version__ == "0.1.0"
    assert set(freb.__all__) <= set(dir(freb))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        freb.no_such_name
    assert not hasattr(freb, "no_such_name")
    assert not hasattr(freb, "__main__")
