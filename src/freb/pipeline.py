"""End-to-end run: perturb, query a backend, score, and assemble the report.

Every perturbed condition is compared against the original predictions
restricted to the same instances, so Emd and VP always pair like with like
even when eligibility rules shrink a condition's instance set.  The report
is a plain dict with deterministic ordering, rendered to JSON with sorted
keys — identical configs produce byte-identical reports.

The backend is fed one kind ahead: the originals and each kind's
conditions are handed to it (``submit``) before the batch before them is
scored, so a subprocess or HTTP model answers the next kind while this one
is perturbed and scored.  Scoring still runs in condition order, so the
report does not depend on when answers arrive.  A reference or file model
has nothing in flight, and each kind is scored as soon as it is made.

``conditions`` is where ``freb evaluate`` and ``freb perturb`` get their
conditions.  Where the machine offers a second CPU it draws the
perturbation plans (``plan_conditions``) in one forked helper process, a
kind ahead, while this process realizes them, asks the model and scores, so
the model is still asked, and its calls counted, here.  ``report_to_json``
encodes each skip entry a kind shares across seeds once.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn

from .backends import parse_backend
from .classify import ComparativeLexicon
from .errors import ConfigError, DatasetError
from .ingest import JsonFloat, load_dataset, read_lines
from .metrics import ORIGINAL, aggregate_seeds, em, emd, is_correct, vp_from_correctness
from .perturb import (
    ALL_KINDS,
    FAMILY_KINDS,
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    Condition,
    iter_conditions,
    kind_from_name,
    plan_conditions,
    realize_conditions,
)
from .perturb.apply import KindPlan
from .serialize import length_filter

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_BACKEND = "reference:faithful_oracle"

KIND_GROUPS = {"all": ALL_KINDS, **FAMILY_KINDS}

# The largest timeout a model or classifier call accepts, about 11.6 days.
# subprocess refuses timeouts past 2**31 milliseconds (about 24.8 days) with
# OverflowError, so a larger value would abort the run at its first call.
MAX_TIMEOUT_S = 1_000_000

# The most calls a subprocess or HTTP model may have in flight: each call
# takes a thread, and over HTTP a connection, until the run ends.
MAX_WORKERS = 256


@dataclass(frozen=True)
class RunConfig:
    dataset: Path
    kinds: tuple[str, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    backend: str = DEFAULT_BACKEND
    max_tokens: int | None = None
    lexicon: Path | None = None
    timeout: float = 30.0
    retries: int = 0
    workers: int = 1

    def __post_init__(self):
        check_timeout_retries(self.timeout, self.retries)
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.workers > MAX_WORKERS:
            raise ConfigError(f"workers must be at most {MAX_WORKERS}, got {self.workers}")


def check_timeout_retries(timeout: float, retries: int) -> None:
    """A model or classifier call needs a timeout in (0, MAX_TIMEOUT_S]
    seconds and a non-negative retry count; anything else is a ConfigError."""
    if not 0 < timeout <= MAX_TIMEOUT_S:
        raise ConfigError(
            f"timeout must be a positive number of seconds up to {MAX_TIMEOUT_S}, got {timeout}"
        )
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")


def _comma_list(text: str, what: str, parse, bad: str = "{exc}") -> tuple:
    """The distinct items of a comma-separated list, in first-seen order.
    ``parse`` turns one non-empty entry into a list of items; its ValueError
    becomes a ConfigError worded by ``bad.format(entry=..., exc=...)``."""
    items = []
    for entry in filter(None, (chunk.strip() for chunk in text.split(","))):
        try:
            items += parse(entry)
        except ValueError as exc:
            raise ConfigError(bad.format(entry=entry, exc=exc)) from exc
    if not items:
        raise ConfigError(f"no {what} given")
    return tuple(dict.fromkeys(items))


def parse_kinds(text: str) -> tuple[str, ...]:
    """Comma-separated kind names; the group aliases all/structure/relevance/
    value expand in canonical order."""
    return _comma_list(
        text, "perturbation kinds", lambda name: KIND_GROUPS.get(name.lower()) or [kind_from_name(name)]
    )


def parse_seeds(text: str) -> tuple[int, ...]:
    return _comma_list(
        text, "seeds", lambda seed: [int(seed)], "bad seed {entry!r}: seeds must be integers"
    )


# How each config value (a config-file line or an evaluate flag) is read; the
# keys are RunConfig's fields, and RunConfig supplies the defaults of keys
# left out.
CONFIG_CASTS = {
    "dataset": Path,
    "kinds": parse_kinds,
    "seeds": parse_seeds,
    "backend": str,
    "max_tokens": int,
    "lexicon": Path,
    "timeout": float,
    "retries": int,
    "workers": int,
}


def read_config_values(path: str | Path) -> dict[str, str]:
    """Key -> text of a config file's `key = value` lines; # starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in read_lines(path, "config file", ConfigError):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key = key.strip().lower()
        if key not in CONFIG_CASTS:
            raise ConfigError(
                f"{path}: line {lineno}: unknown key {key!r}; known keys: "
                + ", ".join(CONFIG_CASTS)
            )
        values[key] = value.strip()
    return values


def build_run_config(values: dict[str, str], where: str = "") -> RunConfig:
    """Cast each key's text once through CONFIG_CASTS into a RunConfig;
    ``dataset`` and ``kinds`` are required. ``where`` starts the messages raised here."""
    for key in ("dataset", "kinds"):
        if key not in values:
            raise ConfigError(f"{where}missing required key {key!r} (config file or --{key})")
    fields = {}
    for key, value in values.items():
        try:
            fields[key] = CONFIG_CASTS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{where}bad value for {key}: {value!r}") from exc
    try:
        return RunConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def parse_config_file(path: str | Path) -> RunConfig:
    return build_run_config(read_config_values(path), where=f"{path}: ")


def run_pipeline(config: RunConfig) -> dict:
    """Evaluate the configured backend under every (kind, seed) condition."""
    lexicon = (
        ComparativeLexicon.from_file(config.lexicon) if config.lexicon else ComparativeLexicon()
    )
    # A bad backend spec is a config error before the dataset is read.
    backend = parse_backend(
        config.backend,
        lexicon=lexicon,
        timeout=config.timeout,
        retries=config.retries,
        workers=config.workers,
    )

    with closing(backend):
        digest = hashlib.sha256()
        instances = load_dataset(config.dataset, digest)
        if config.max_tokens is not None:
            kept, dropped = length_filter(instances, config.max_tokens)
        else:
            kept, dropped = list(instances), []
        if not kept:
            raise DatasetError("no instances left to evaluate after length filtering")
        # Perturbations never change the question, so its cue is computed once.
        has_cue = {inst.id: lexicon.question_has_cue(inst.question) for inst in kept}
        original_correct, original_failures, scored = _score_all(
            backend, kept, config, has_cue
        )

    report = {
        "model": backend.model_id,
        "config": {
            "dataset": str(config.dataset),
            "dataset_sha256": digest.hexdigest(),
            "kinds": [k.lower() for k in config.kinds],
            "seeds": list(config.seeds),
            "backend": config.backend,
            "max_tokens": config.max_tokens,
            "lexicon": str(config.lexicon) if config.lexicon else None,
        },
        "n_loaded": len(instances),
        "n_scored": len(kept),
        "dropped_by_length": [inst.id for inst in dropped],
        "original": {
            "em": em(list(original_correct.values())),
            "n": len(kept),
            "failures": original_failures,
        },
        "conditions": scored,
        "kind_summaries": [_summarize_kind(kind, scored) for kind in config.kinds],
        "notes": {
            "pairing": "perturbed conditions are scored against the original "
            "predictions restricted to the same instances",
            "serialization": "flat 'col : ... row k : ...' rendering; token counts "
            "are whitespace-split approximations",
            "scoring": "answers are normalized (case, whitespace, numeric "
            "canonicalization) before comparison",
        },
    }
    report["findings"] = _findings(report)
    return report


# The score keys of a condition and of a kind summary, all None when no
# instance was perturbed.
_CONDITION_SCORES = ("em", "em_original_paired", "emd", "vp", "vp_pct", "c2w", "w2c", "gap")
_SUMMARY_SCORES = tuple(
    f"{score}_{stat}" for score in ("em", "emd", "vp", "vp_pct", "gap") for stat in ("mean", "std")
)


class _Asked(NamedTuple):
    """What scoring needs of a ``Condition``: its perturbed instances
    without their provenance, so a kind held for scoring costs no more
    than the instances it holds."""

    kind: str
    seed: int
    perturbed: list
    skipped: list[dict]


def _score_all(backend, kept, config: RunConfig, has_cue) -> tuple[dict, dict, list[dict]]:
    """The originals' outcomes (as ``_outcomes`` gives them) and every
    condition's entry, in condition order.

    The backend is handed each batch, the originals and then each kind's
    conditions, before the batch before it is scored, so a transport
    answers one kind ahead while the caller perturbs and scores.  A backend
    with nothing in flight has each batch scored at once, so an in-process
    model holds one kind at a time, as it is realized.
    """
    # The original outcomes the backend lets a run reuse: a no-op
    # perturbation is the original instance, so each kind starts with these.
    originals: dict = {}
    original: list = []  # (correct, failures) of the originals once scored
    entries: list[dict] = []
    held: deque = deque()  # batches handed to the backend, not yet scored

    def score(batch) -> None:
        if batch is None:
            original.extend(_outcomes(backend, (ORIGINAL, 0), kept, originals))
            return
        known = dict(originals)
        entries.extend(
            _score_condition(backend, condition, original[0], has_cue, known)
            for condition in batch
        )

    def feed(batch) -> None:
        """Hand ``batch`` (None for the originals) to the backend, then score
        each batch held before it, and it too if nothing is in flight."""
        instances = kept if batch is None else [i for c in batch for i in c.perturbed]
        in_flight = backend.submit(instances)
        held.append(batch)
        while len(held) > int(in_flight):
            score(held.popleft())

    # The helper, if any, is forked before the first submit, so before a
    # transport has started a thread or opened a connection.
    with conditions(kept, config.kinds, config.seeds) as realized:
        feed(None)
        for _, same_kind in groupby(realized, key=lambda c: c.kind):
            feed([_Asked(c.kind, c.seed, [inst for inst, _ in c.perturbed], c.skipped)
                  for c in same_kind])
    while held:
        score(held.popleft())
    original_correct, original_failures = original
    return original_correct, original_failures, entries


def _helper_can_run() -> bool:
    """Whether a forked plan helper can run beside this process: ``os.fork``
    exists, this process runs one thread (a fork copies no other), and it
    may run on more than one CPU."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


@contextmanager
def conditions(instances, kinds, seeds) -> Iterator[Iterator[Condition]]:
    """Every (kind, seed) ``Condition`` of ``instances``, as
    ``iter_conditions`` gives them, one kind at a time.

    Where ``_helper_can_run``, the plans are drawn in one forked helper
    process that sends each kind, pickled, through a pipe, so the caller
    realizes and uses one kind while the helper plans the next; otherwise
    ``iter_conditions`` runs in the caller.  However the caller leaves, it
    closes its end of the pipe, so that a helper blocked on a write exits,
    and reaps the helper.  An exception the helper raises is raised again
    here.
    """
    if not _helper_can_run():
        yield iter_conditions(instances, kinds, seeds)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _send_plans(plan_conditions(instances, kinds, seeds), write_fd)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        yield realize_conditions(instances, _received(pipe, len(kinds)))
    finally:
        pipe.close()
        os.waitpid(pid, 0)


def _send_plans(plans: Iterator[KindPlan], fd: int) -> NoReturn:
    """The helper's whole life: pickle each kind's plans, or the exception
    that stopped them, to ``fd``, then leave without running anything the
    parent process set up."""
    try:
        with open(fd, "wb") as pipe:
            try:
                for plan in plans:
                    pipe.write(pickle.dumps(plan, pickle.HIGHEST_PROTOCOL))
                    pipe.flush()
            except BrokenPipeError:
                pass  # the caller has stopped reading
            except BaseException as exc:
                pipe.write(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
                raise
    finally:
        os._exit(0)


def _received(pipe, n_kinds: int) -> Iterator[KindPlan]:
    """The ``n_kinds`` plans the helper sends; the exception it sends instead
    is raised."""
    for _ in range(n_kinds):
        try:
            plan = pickle.load(pipe)
        except EOFError:
            raise RuntimeError("the perturbation helper process ended early") from None
        if isinstance(plan, BaseException):
            raise plan
        yield plan


def _outcomes(backend, condition: tuple[str, int], instances, known: dict) -> tuple[dict, dict]:
    """Whether the backend answers each instance correctly, by id, and the
    failure text of each that it could not answer, sorted by id.

    ``known`` maps id() of each instance whose outcome this run may reuse to
    (the instance, whether it was answered correctly, its failure text or
    None); holding the instance keeps its id from reuse.  Only the other
    instances are asked, and their outcomes join ``known`` if the backend
    ``reuses`` them.
    """
    entries, failures = backend.predictions_for(
        condition, [inst for inst in instances if id(inst) not in known]
    )
    correct = {}
    failed = {}
    for inst in instances:
        outcome = known.get(id(inst))
        if outcome is None:
            failure = failures.get(inst.id)
            outcome = (inst, is_correct(entries.get(inst.id), inst.answers), failure)
            if backend.reuses:
                known[id(inst)] = outcome
        correct[inst.id] = outcome[1]
        if outcome[2] is not None:
            failed[inst.id] = outcome[2]
    return correct, dict(sorted(failed.items()))


def _score_condition(backend, condition: _Asked, original_correct, has_cue, known) -> dict:
    """Score one condition; ``known`` is the kind's memo of ``_outcomes``."""
    perturbed = condition.perturbed
    entry: dict = {
        "kind": condition.kind.lower(),
        "seed": condition.seed,
        "n": len(perturbed),
        "skipped": condition.skipped,
        "failures": {},
    }
    if not perturbed:
        entry.update(dict.fromkeys(_CONDITION_SCORES))
        return entry

    after_correct, failures = _outcomes(
        backend, (condition.kind, condition.seed), perturbed, known
    )
    # One (correct before, correct after, has cue) row per perturbed instance.
    rows = [(original_correct[i.id], after_correct[i.id], has_cue[i.id]) for i in perturbed]
    em_perturbed = em([after for _, after, _ in rows])
    em_before = em([before for before, _, _ in rows])
    compare = vp_from_correctness((before, after) for before, after, cue in rows if cue)
    noncompare = vp_from_correctness((before, after) for before, after, cue in rows if not cue)
    entry.update(
        vp_from_correctness((before, after) for before, after, _ in rows),
        failures=failures,
        em=em_perturbed,
        em_original_paired=em_before,
        emd=emd(em_perturbed, em_before),
        gap={
            "compare": compare,
            "noncompare": noncompare,
            "gap": (
                None if compare is None or noncompare is None
                else compare["vp"] - noncompare["vp"]
            ),
        },
    )
    return entry


def _summarize_kind(kind: str, conditions: list[dict]) -> dict:
    mine = [c for c in conditions if c["kind"] == kind.lower() and c["n"] > 0]
    summary: dict = {
        "kind": kind.lower(),
        "seeds_used": [c["seed"] for c in mine],
        "skipped_total": sum(
            len(c["skipped"]) for c in conditions if c["kind"] == kind.lower()
        ),
        "n": max((c["n"] for c in mine), default=0),
        **dict.fromkeys(_SUMMARY_SCORES),
    }
    if not mine:
        return summary

    for score in ("em", "emd", "vp"):
        summary[f"{score}_mean"], summary[f"{score}_std"] = aggregate_seeds(
            [c[score] for c in mine]
        )
    summary["vp_pct_mean"] = 100.0 * summary["vp_mean"]
    summary["vp_pct_std"] = 100.0 * summary["vp_std"]
    gaps = [c["gap"]["gap"] for c in mine]
    if all(g is not None for g in gaps):
        summary["gap_mean"], summary["gap_std"] = aggregate_seeds(gaps)
    return summary


def _findings(report: dict) -> dict:
    """Cross-condition signals: a model whose answers survive the removal of
    its evidence is not reading the table."""
    removal_kinds = {REMOVE_RELEVANT.lower(), REMOVE_TABLE.lower()}
    relevant = [
        c for c in report["conditions"] if c["kind"] in removal_kinds and c["n"] > 0
    ]
    flagged = bool(relevant) and all(
        c["emd"] == 0.0 and c["vp"] == 0.0 for c in relevant
    )
    if flagged:
        detail = (
            "predictions are unchanged when relevant cells or the entire table "
            "are removed; the model does not depend on table content"
        )
    elif relevant:
        detail = "predictions change when table evidence is removed"
    else:
        detail = "no removal conditions were evaluated"
    return {
        "table_independence": {
            "flagged": flagged,
            "kinds": sorted({c["kind"] for c in relevant}),
            "detail": detail,
        }
    }


# The values json writes without nesting (bool is an int), and its text for
# one: json.dumps(..., ensure_ascii=False) writes them with this encoder.
_SCALARS = (str, int, float, type(None))
_scalar_json = json.JSONEncoder(ensure_ascii=False).encode


def report_to_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
    and a newline, built in one pass into one list of pieces.  A dict whose
    values are all scalars is encoded once per (object, depth), however often
    the report holds it, as it holds each skip entry a prepare step shares
    across seeds.  A key that is not a str, or a value json cannot encode,
    raises TypeError."""
    pieces: list[str] = []
    flat: dict[tuple[int, int], str] = {}  # (id, depth) -> text of an all-scalar dict

    def encode(value, depth: int) -> None:
        if isinstance(value, _SCALARS):
            pieces.append(_scalar_json(value))
            return
        indent = "\n" + "  " * depth
        inner = indent + "  "
        if isinstance(value, dict):
            if not value:
                pieces.append("{}")
                return
            text = flat.get((id(value), depth))
            if text is not None:
                pieces.append(text)
                return
            keys = sorted(value)
            if not all(isinstance(key, str) for key in keys):
                raise TypeError(f"keys must be str, not {keys!r}")
            if all(isinstance(value[key], _SCALARS) for key in keys):
                text = flat[id(value), depth] = "{" + inner + ("," + inner).join(
                    f"{_scalar_json(key)}: {_scalar_json(value[key])}" for key in keys
                ) + indent + "}"
                pieces.append(text)
                return
            separator = "{" + inner
            for key in keys:
                pieces.append(f"{separator}{_scalar_json(key)}: ")
                encode(value[key], depth + 1)
                separator = "," + inner
            pieces.append(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                pieces.append("[]")
                return
            separator = "[" + inner
            for item in value:
                pieces.append(separator)
                encode(item, depth + 1)
                separator = "," + inner
            pieces.append(indent + "]")
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    encode(report, 0)
    pieces.append("\n")
    return "".join(pieces)


def _number(value):
    """A number of a report read back through ``ingest.decode_json`` as a
    float: a JsonFloat is the text of its numeral, any other value is itself,
    so that a string where a number belongs stays an error when formatted."""
    return float(value) if type(value) is JsonFloat else value


def render_report_text(report: dict) -> str:
    """Fixed-width text rendering of a report dict, whether as
    ``run_pipeline`` returns it or as ``ingest.read_json`` reads it back."""
    lines = []
    lines.append(f"model    {report['model']}")
    lines.append(
        f"dataset  {report['config']['dataset']}  "
        f"({report['n_scored']} scored / {report['n_loaded']} loaded)"
    )
    original = report["original"]
    lines.append(f"original Em {_number(original['em']):.4f}  (n={original['n']})")
    lines.append("")

    lines.append("per-kind summary (mean +/- std over seeds)")
    header = f"{'kind':<22}{'n':>6}  {'Em':>15}  {'Emd':>16}  {'VP%':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for s in report["kind_summaries"]:
        if s["em_mean"] is None:
            lines.append(f"{s['kind']:<22}{0:>6}  {'-':>15}  {'-':>16}  {'-':>14}")
            continue
        em_mean, em_std, emd_mean, emd_std, vp_mean, vp_std = map(_number, (
            s["em_mean"], s["em_std"], s["emd_mean"], s["emd_std"], s["vp_pct_mean"],
            s["vp_pct_std"],
        ))
        lines.append(
            f"{s['kind']:<22}{s['n']:>6}  "
            f"{em_mean:.4f}+/-{em_std:.4f}  "
            f"{emd_mean:+.4f}+/-{emd_std:.4f}  "
            f"{vp_mean:5.2f}+/-{vp_std:.2f}"
        )
    lines.append("")

    gapped = [s for s in report["kind_summaries"] if s.get("gap_mean") is not None]
    if gapped:
        lines.append("VP split by comparative cues (gap = compare - non-compare)")
        for s in gapped:
            lines.append(f"{s['kind']:<22}gap {100.0 * _number(s['gap_mean']):+.2f}%")
        lines.append("")

    skip_counts: dict[tuple[str, str], int] = {}
    for c in report["conditions"]:
        for s in c["skipped"]:
            key = (c["kind"], s["reason"])
            skip_counts[key] = skip_counts.get(key, 0) + 1
    if skip_counts:
        lines.append("skipped (kind, reason, count over all seeds)")
        for (kind, reason), count in sorted(skip_counts.items()):
            lines.append(f"{kind:<22}{reason:<20}{count:>6}")
        lines.append("")

    finding = report["findings"]["table_independence"]
    if finding["flagged"]:
        lines.append("FLAG table-independence: " + finding["detail"])
        lines.append("")
    return "\n".join(lines)
