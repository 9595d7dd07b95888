"""Per-layer tracing for the traced benchmark round, from outside freb.

``Tracer.install`` wraps freb's public functions in every module binding
that refers to them (``normalize_answer`` is imported into ``metrics``,
``classify``, ``perturb.structure`` and ``perturb.value``; ``serialize``
into ``backends`` and ``classify``; and so on), and a few methods on
their classes.  Each wrapped call is a span: name, start, end and the span
that caused it, kept in memory per thread and written out by ``dump``.

Three kinds of wrapper, by how often the function runs:

- spans: recorded one by one (``apply_perturbation``, ``predictions_for``...);
- timed leaves: timed and counted, not recorded one by one, since they run
  hundreds of thousands of times (``normalize_answer``, ``locate_target``,
  ``evaluate_aggregation``);
- counters: counted only (``parse_number``, ``Cell`` construction).

A layer's busy time is the time inside its outermost calls (for perturb,
inside ``apply_perturbation``); its self time is the time in its functions,
whoever calls them, less the wrapped calls they make.
Bookkeeping a wrapper does after its call ends (such as comparing a
perturbed table with its original) is charged to no layer; it shows only in
the traced round's extra wall time, ``trace.overhead_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

LAYERS = (
    "ingest", "core", "perturb", "serialize", "backends", "metrics", "classify",
    "pipeline", "cli",
)


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # [span id, time spent in wrapped children]
        self.depth = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.time_s: dict[str, float] = {}
        self.own_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._distinct: set[bytes] = set()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # ---- wrappers -------------------------------------------------------

    def span(self, fn, name, layer, record=True, after=None):
        """Time ``fn`` as a span of ``layer``; ``after(state, args, result,
        raised, duration)`` runs after the span ends and is charged to no
        layer."""
        ids = self._ids

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(ids), 0.0]
            stack.append(frame)
            outermost = state.depth[layer] == 0
            state.depth[layer] += 1
            result = raised = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                state.depth[layer] -= 1
                duration = end - start
                state.calls[name] = state.calls.get(name, 0) + 1
                state.time_s[name] = state.time_s.get(name, 0.0) + duration
                own = duration - frame[1]
                state.self_s[layer] += own
                state.own_s[name] = state.own_s.get(name, 0.0) + own
                if outermost:
                    state.busy[layer] += duration
                if record:
                    state.spans.append((frame[0], parent, name, start, end))
                if after is not None:
                    after(state, args, result, raised, duration)
                if stack:
                    stack[-1][1] += perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name):
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, state, name, n=1):
        state.counts[name] = state.counts.get(name, 0) + n

    # ---- installation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every freb module attribute bound to ``original`` at
        ``replacement``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "freb" or module_name.startswith("freb.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        # import_module, since the package re-exports a function named
        # ``serialize`` that hides the submodule of that name.
        backends, classify, cli, core, ingest, metrics, perturb, pipeline, serialize = (
            importlib.import_module(f"freb.{name}") for name in (
                "backends", "classify", "cli", "core", "ingest", "metrics",
                "perturb", "pipeline", "serialize",
            )
        )

        plain_serialize = serialize.serialize
        families = {}
        for family, kinds in (
            ("structure", perturb.STRUCTURE_KINDS),
            ("relevance", perturb.RELEVANCE_KINDS),
            ("value", perturb.VALUE_KINDS),
        ):
            families.update(dict.fromkeys(kinds, family))

        def after_perturb(state, args, result, raised, duration):
            instance, kind = args[0], args[1]
            family = f"perturb.{families[kind]}_s"
            state.time_s[family] = state.time_s.get(family, 0.0) + duration
            if raised is None:
                self._count(state, "perturb.applied")
                if plain_serialize(result[0].table) == plain_serialize(instance.table):
                    self._count(state, "perturb.unchanged_inputs")

        def after_predict(state, args, result, raised, duration):
            instances = args[2]
            self._count(state, "backends.instances", len(instances))
            keys = {
                hashlib.sha256(
                    f"{i.question}\0{plain_serialize(i.table)}".encode("utf-8")
                ).digest()
                for i in instances
            }
            with self._lock:
                self._distinct |= keys

        def counted_records(fn):
            def write_records(records, path):
                state = self._state()

                def counting():
                    for record in records:
                        self._count(state, "ingest.records_written")
                        yield record

                return fn(counting(), path)

            return write_records

        rebinds = [
            (ingest.load_dataset, self.span(ingest.load_dataset, "load_dataset", "ingest")),
            (ingest.write_records, self.span(
                counted_records(ingest.write_records), "write_records", "ingest")),
            (ingest.instance_to_record, self.span(
                ingest.instance_to_record, "instance_to_record", "ingest", record=False)),
            (core.parse_number, self.counter(core.parse_number, "core.parse_number_calls")),
            (core.normalize_answer, self.span(
                core.normalize_answer, "normalize_answer", "core", record=False)),
            (perturb.apply_perturbation, self.span(
                perturb.apply_perturbation, "apply_perturbation", "perturb",
                after=after_perturb)),
            (perturb.locate_target, self.span(
                perturb.locate_target, "locate_target", "perturb", record=False)),
            (perturb.evaluate_aggregation, self.span(
                perturb.evaluate_aggregation, "evaluate_aggregation", "perturb", record=False)),
            (serialize.serialize, self.span(serialize.serialize, "serialize", "serialize")),
            (metrics.is_correct, self.span(metrics.is_correct, "is_correct", "metrics")),
            (metrics.em, self.span(metrics.em, "em", "metrics")),
            (metrics.vp_from_correctness, self.span(
                metrics.vp_from_correctness, "vp_from_correctness", "metrics")),
            (metrics.aggregate_seeds, self.span(
                metrics.aggregate_seeds, "aggregate_seeds", "metrics")),
            (pipeline.run_pipeline, self.span(pipeline.run_pipeline, "run_pipeline", "pipeline")),
            (pipeline.report_to_json, self.span(
                pipeline.report_to_json, "report_to_json", "pipeline")),
            (cli.main, self.span(cli.main, "main", "cli")),
        ]
        for original, replacement in rebinds:
            self._rebind(original, replacement)

        core.Cell.__post_init__ = self.counter(core.Cell.__post_init__, "core.cells_built")
        classify.ComparativeLexicon.question_has_cue = self.span(
            classify.ComparativeLexicon.question_has_cue, "question_has_cue", "classify")
        for cls in (backends.ReferenceBackend, backends.FileBackend,
                    backends.SubprocessBackend, backends.HttpBackend):
            cls.predictions_for = self.span(
                cls.predictions_for, "predictions_for", "backends", after=after_predict)

    # ---- results --------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """The per-layer metrics, in seconds and counts."""
        calls: dict[str, int] = {}
        time_s: dict[str, float] = {}
        own_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        with self._lock:
            states = list(self._states)
        for state in states:
            for src, dst in (
                (state.calls, calls), (state.time_s, time_s),
                (state.own_s, own_s), (state.counts, counts),
            ):
                for key, value in src.items():
                    dst[key] = dst.get(key, 0) + value
            for layer in LAYERS:
                busy[layer] += state.busy[layer]
                self_s[layer] += state.self_s[layer]

        perturb_calls = calls.get("apply_perturbation", 0)
        backend_instances = counts.get("backends.instances", 0)
        backend_busy = busy["backends"]
        return {
            "ingest.load_s": time_s.get("load_dataset", 0.0),
            "ingest.write_s": time_s.get("write_records", 0.0)
            + time_s.get("instance_to_record", 0.0),
            "ingest.records_written": counts.get("ingest.records_written", 0),
            "ingest.self_s": self_s["ingest"],
            "core.parse_number_calls": counts.get("core.parse_number_calls", 0),
            "core.cells_built": counts.get("core.cells_built", 0),
            "core.normalize_calls": calls.get("normalize_answer", 0),
            "core.normalize_s": time_s.get("normalize_answer", 0.0),
            "perturb.calls": perturb_calls,
            "perturb.applied_ratio": counts.get("perturb.applied", 0) / perturb_calls
            if perturb_calls else 0.0,
            "perturb.busy_s": time_s.get("apply_perturbation", 0.0),
            "perturb.self_s": self_s["perturb"],
            "perturb.structure_s": time_s.get("perturb.structure_s", 0.0),
            "perturb.relevance_s": time_s.get("perturb.relevance_s", 0.0),
            "perturb.value_s": time_s.get("perturb.value_s", 0.0),
            "perturb.locate_target_calls": calls.get("locate_target", 0),
            "perturb.oracle_calls": calls.get("evaluate_aggregation", 0),
            "perturb.unchanged_inputs": counts.get("perturb.unchanged_inputs", 0),
            "serialize.calls": calls.get("serialize", 0),
            "serialize.busy_s": busy["serialize"],
            "backends.instances": backend_instances,
            "backends.distinct_inputs": len(self._distinct),
            "backends.useful_ratio": len(self._distinct) / backend_instances
            if backend_instances else 0.0,
            "backends.busy_s": backend_busy,
            "backends.self_s": self_s["backends"],
            "backends.ms_per_instance": 1000 * backend_busy / backend_instances
            if backend_instances else 0.0,
            "metrics.is_correct_calls": calls.get("is_correct", 0),
            "metrics.busy_s": busy["metrics"],
            "metrics.self_s": self_s["metrics"],
            "classify.cue_calls": calls.get("question_has_cue", 0),
            "classify.busy_s": busy["classify"],
            "pipeline.self_s": own_s.get("run_pipeline", 0.0),
            "pipeline.encode_s": time_s.get("report_to_json", 0.0),
            "cli.self_s": own_s.get("main", 0.0),
        }

    def dump(self, path) -> int:
        """Write every recorded span as one JSON line; returns the count."""
        n = 0
        with open(path, "w", encoding="utf-8") as handle:
            for index, state in enumerate(self._states):
                for span_id, parent, name, start, end in state.spans:
                    handle.write(json.dumps({
                        "id": span_id, "parent": parent or None, "name": name,
                        "thread": index, "start": start, "end": end,
                    }) + "\n")
                    n += 1
        return n
