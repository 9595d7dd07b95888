"""The benchmark's tracer still binds every freb name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    # bench/tracing.py rebinds freb functions and methods by name (metrics.em,
    # core.Cell.__post_init__, perturb.apply_perturbation, ...), so renaming
    # or deleting one of them breaks every traced bench round.
    code = 'import sys; sys.path.insert(0, "bench"); from tracing import Tracer; Tracer().install()'
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
