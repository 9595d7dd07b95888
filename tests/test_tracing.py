"""The benchmark's tracer still binds every freb name it wraps, and its
round still counts the reference model's calls where freb makes them."""

import json
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


def test_bench_counts_one_cell_built_per_distinct_text_loaded(tmp_path):
    # core.cells_built counts Cell.__post_init__ runs, and a load builds one
    # cell per distinct cell text in the file.  A cell constructor that
    # skipped __post_init__, or a load without its cell pool, breaks this.
    path = tmp_path / "toy.jsonl"
    code = (
        'import sys; sys.path.insert(0, "bench"); from tracing import Tracer\n'
        "from freb import cli, ingest\n"
        f"assert cli.main(['toydata', '--out', {str(path)!r}]) == 0\n"
        "tracer = Tracer(); tracer.install()\n"
        f"ingest.load_dataset({str(path)!r})\n"
        "print(tracer.summary()['core.cells_built'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    texts = [str(v) for r in records for row in r["table"]["rows"] for v in row]
    assert int(result.stdout.splitlines()[-1]) == len(set(texts)) < len(texts)


def test_bench_counts_the_reference_models_calls_per_kind(tmp_path, toy_path):
    # bench/child.py counts an oracle-mixed round's model calls at
    # ReferenceBackend.predictions_for.  A reference model is asked about each
    # distinct perturbed instance once per kind: toy data x all kinds x five
    # seeds asks 4,143 instances.
    spec = {
        "mode": "oracle-mixed", "src": str(ROOT / "src"), "dataset": str(toy_path),
        "out": str(tmp_path / "report.json"), "backend": "reference:faithful_oracle",
        "workers": 1, "seeds": "0,1,2,3,4", "trace": None,
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["model_calls"] == 4143
