"""One measured step of a workload, run in a fresh interpreter.

``python bench/child.py SPEC_JSON`` where SPEC_JSON holds:

- ``mode``: ``setup`` (import freb and load the dataset once), or a
  workload name: ``oracle-mixed`` and ``remote-model`` run
  ``pipeline.run_pipeline`` and ``pipeline.report_to_json`` and write the
  report to ``out``; ``wide-perturb`` runs ``cli.main(["perturb", ...])``
  into the directory ``out``;
- ``dataset``, ``out``, ``backend``, ``workers``, ``seeds``;
- ``trace``: a path to write spans to, or null for an untraced round.

The last stdout line is a JSON object with the step's timings.  The parent
makes the child's ``PYTHONPATH`` start with the checkout's ``src``, and the
child refuses any other freb.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_freb(src: str):
    import freb

    if not os.path.abspath(freb.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported freb from {freb.__file__}, not from {src}")
    return freb


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(spec: dict) -> dict:
    if spec["mode"] == "setup":
        start = time.perf_counter()
        _import_freb(spec["src"])
        from freb import ingest

        ingest.load_dataset(spec["dataset"])
        return {"setup_s": time.perf_counter() - start}

    _import_freb(spec["src"])
    from freb import backends, cli, pipeline

    tracer = None
    model_calls = [0]
    if spec["trace"]:
        from tracing import Tracer  # bench/ is this script's sys.path[0]

        tracer = Tracer()
        tracer.install()
    elif spec["mode"] == "oracle-mixed":
        # The reference model runs in-process; count the inputs it is asked
        # about at the backend boundary.
        plain = backends.ReferenceBackend.predictions_for

        def counted(self, condition, instances):
            model_calls[0] += len(instances)
            return plain(self, condition, instances)

        backends.ReferenceBackend.predictions_for = counted

    if spec["mode"] == "wide-perturb":
        argv = [
            "perturb", "--in", spec["dataset"], "--out", spec["out"],
            "--kinds", "all", "--seeds", spec["seeds"],
        ]
        start = time.perf_counter()
        status = cli.main(argv)
        run_s = time.perf_counter() - start
        if status != 0:
            sys.exit(f"freb perturb exited with status {status}")
    else:
        config = pipeline.RunConfig(
            dataset=Path(spec["dataset"]),
            kinds=pipeline.parse_kinds("all"),
            seeds=pipeline.parse_seeds(spec["seeds"]),
            backend=spec["backend"],
            workers=spec["workers"],
        )
        start = time.perf_counter()
        report = pipeline.run_pipeline(config)
        Path(spec["out"]).write_text(pipeline.report_to_json(report), encoding="utf-8")
        run_s = time.perf_counter() - start

    result = {"run_s": run_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["model_calls"] = result["layers"]["backends.instances"]
        result["spans"] = tracer.dump(spec["trace"])
    elif spec["mode"] == "oracle-mixed":
        result["model_calls"] = model_calls[0]
    return result


if __name__ == "__main__":
    outcome = main(json.loads(sys.argv[1]))
    sys.stdout.flush()
    print(json.dumps(outcome))
