"""freb's benchmark: generate a workload's inputs, run freb on them in fresh
interpreters, check the outputs, and print every metric by name and unit.

    python3 bench/run.py                      # every workload, seed 0
    python3 bench/run.py --workload oracle-mixed --seed 3 --seconds 20 --trace 0

One run generates the inputs from ``--seed``, times freb's set-up (a fresh
interpreter importing freb and loading the dataset, several times), then
repeats whole rounds of the workload, each in a fresh interpreter, until
``--seconds`` have passed.  It reports medians over the rounds.  With
``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics are reported instead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

freb is imported only from the ``src`` directory beside this one, never
from an installed copy; without it the benchmark exits with status 2.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import checks
import generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Sizes keep one round at 2-6 s on a 2-core machine, so that a 30 s run
# holds five rounds or more: one round's time varies by up to a quarter from
# the next on a shared machine, and only an average over many is steady.
WORKLOADS = {
    "oracle-mixed": {"set": "mixed", "size": 400, "seeds": "0,1,2,3,4",
                     "backend": "reference:faithful_oracle"},
    "remote-model": {"set": "mixed", "size": 25, "seeds": "0,1,2,3,4",
                     "backend": "http"},
    "wide-perturb": {"set": "wide", "size": 20, "seeds": "0,1"},
}
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(spec: dict) -> dict:
    """Run bench/child.py on ``spec``; returns its result, or raises
    RuntimeError with the child's error output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spec = {"src": str(SRC), "trace": None, **spec}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{spec['mode']} timed out after {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{spec['mode']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


class StandInProcess:
    """The stand-in model in a child process, stopped by closing its stdin."""

    def __init__(self, dataset: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "standin.py"), str(dataset)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.stop()
            raise RuntimeError("stand-in model did not start")
        self.url = f"http://127.0.0.1:{port}/"

    def take_stats(self) -> dict:
        """Counts since the last call, which resets them."""
        with urllib.request.urlopen(self.url + "stats?reset=1", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.iterdir()) if path.is_dir() else [path]:
        h.update(file.name.encode() + b"\0" + file.read_bytes())
    return h.hexdigest()


def output_size(path: Path) -> int:
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir())
    return path.stat().st_size


def written_records(outdir: Path) -> int:
    """Perturbed instances written: each is one input a model must answer."""
    return sum(
        sum(1 for line in f.open(encoding="utf-8") if line.strip())
        for f in outdir.glob("*.seed*.jsonl")
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    seeds = [int(s) for s in w["seeds"].split(",")]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    standin = None
    try:
        records = generate.build(w["set"], seed, w["size"])
        dataset = work / "dataset.jsonl"
        generate.write_jsonl(records, dataset)
        per_condition = len(records)
        if name == "wide-perturb":
            attempted_per_round = per_condition * len(generate.ALL_KINDS) * len(seeds)
        else:
            attempted_per_round = per_condition * (1 + len(generate.ALL_KINDS) * len(seeds))

        # The first probe also compiles bytecode, which users pay once.  A
        # traced run reports ingest.load_s from its traced rounds instead.
        setup = [] if trace else [
            run_child({"mode": "setup", "dataset": str(dataset)})["setup_s"]
            for _ in range(SETUP_REPEATS + 1)
        ][1:]

        backend = w.get("backend")
        if backend == "http":
            standin = StandInProcess(dataset)
            backend = standin.url

        rounds, checked, problems = [], {}, []  # checked: output digest -> Verdict
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(rounds) % 2 == 1
            out = work / f"round{len(rounds)}"
            spec = {
                "mode": name, "dataset": str(dataset), "out": str(out),
                "backend": backend, "workers": nproc(), "seeds": w["seeds"],
                "trace": str(work / "spans.jsonl") if traced else None,
            }
            attempted += attempted_per_round
            try:
                result = run_child(spec)
            except RuntimeError as exc:
                failed += attempted_per_round
                problems.append(str(exc))
                result = None
            stats = standin.take_stats() if standin else None
            if result is not None:
                result["traced"] = traced
                # The files perturb writes are large and the same in every
                # round, so each distinct output is checked once.
                key = digest(out) if name == "wide-perturb" else None
                verdict = checked.get(key)
                if verdict is None:
                    if name == "wide-perturb":
                        verdict = checks.check_perturb_dir(out, records, seeds)
                    else:
                        report = json.loads(out.read_text(encoding="utf-8"))
                        expect = checks.STANDIN_EXPECT if standin else checks.ORACLE_EXPECT
                        verdict = checks.check_report(
                            report, records, seeds, expect, flagged=bool(standin),
                            standin=stats,
                        )
                    if key is not None:
                        checked[key] = verdict
                if name == "wide-perturb":
                    result["model_calls"] = written_records(out)
                elif standin:
                    result["model_calls"] = stats["requests"]
                    result["standin"] = stats
                failed += verdict.failed
                problems.extend(verdict.problems)
                result["output_bytes"] = output_size(out)
                rounds.append(result)
            else:
                rounds.append({"traced": traced, "failed": True})
            if out.is_dir():
                shutil.rmtree(out)
            elif out.exists():
                out.unlink()
            if time.perf_counter() >= deadline and not (trace and len(rounds) % 2 == 1):
                break
        spans = work / "spans.jsonl"
        if spans.exists():
            shutil.copy(spans, WORK / f"{name}.spans.jsonl")
    finally:
        if standin is not None:
            standin.stop()
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"] and "run_s" in r]
    traced_rounds = [r for r in rounds if r["traced"] and "run_s" in r]
    metrics = {}
    if plain:
        # The mean, not the median, of the rounds: this machine's speed
        # drifts by up to a quarter over tens of seconds, and the mean
        # integrates the whole measured window where the median samples
        # one point of the drift.
        run_s = statistics.fmean(r["run_s"] for r in plain)
        metrics = {
            "setup_s": statistics.median(setup) if setup else None,
            "run_s": run_s,
            "instances_per_s": attempted_per_round / run_s,
            "model_calls": statistics.median(r["model_calls"] for r in plain),
            "output_bytes": statistics.median(r["output_bytes"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if traced_rounds and plain:
        for key in traced_rounds[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced_rounds)
        metrics["trace.overhead_s"] = (
            statistics.fmean(r["run_s"] for r in traced_rounds) - metrics["run_s"]
        )
    return {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "traced_rounds": len(traced_rounds), "records": len(records),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "round_run_s": [round(r["run_s"], 3) for r in rounds if "run_s" in r],
        "standin": next((r["standin"] for r in reversed(rounds) if "standin" in r), None),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer"] if trace else spec["end_to_end"]


def render(outcome: dict, declared: list[dict]) -> dict:
    """Print the outcome for a reader; return the metrics for the result
    line."""
    print(f"== {outcome['workload']}  seed {outcome['seed']}  "
          f"{outcome['records']} instances  {outcome['rounds']} rounds "
          f"({outcome['traced_rounds']} traced)")
    print(f"   operations attempted {outcome['attempted']}  failed {outcome['failed']}  "
          f"correct {outcome['correct']}")
    print(f"   run_s of each round: {outcome['round_run_s']}")
    for problem in outcome["problems"][:20]:
        print(f"   problem: {problem}")
    if outcome["standin"]:
        s = outcome["standin"]
        print(f"   stand-in: {s['requests']} requests, {s['distinct_inputs']} distinct, "
              f"service ms {s['service_ms']}")
    metrics = {}
    for m in declared:
        if m["name"] in outcome["metrics"]:
            value = outcome["metrics"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"   {m['name']:<28} {value:>16.6f} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freb" / "__init__.py").is_file():
        print(f"freb sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    metrics = {}
    for outcome in results:
        shown = render(outcome, declared)
        prefix = "" if len(results) == 1 else outcome["workload"] + "/"
        metrics.update({prefix + k: v for k, v in shown.items()})
        missing = [m["name"] for m in declared if m["name"] not in shown]
        if missing:
            outcome["correct"] = False
            print(f"   missing metrics: {', '.join(missing)}")
    print(json.dumps({
        "correct": all(o["correct"] for o in results),
        "attempted": sum(o["attempted"] for o in results),
        "failed": sum(o["failed"] for o in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
