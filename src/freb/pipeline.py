"""End-to-end run: perturb, query a backend, score, and assemble the report.

Every perturbed condition is compared against the original predictions
restricted to the same instances, so Emd and VP always pair like with like
even when eligibility rules shrink a condition's instance set.  The report
is a plain dict with deterministic ordering, rendered to JSON with sorted
keys — identical configs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .backends import parse_backend
from .classify import ComparativeLexicon
from .errors import ConfigError, DatasetError
from .ingest import load_dataset, read_lines
from .metrics import ORIGINAL, aggregate_seeds, em, emd, is_correct, vp_from_correctness
from .perturb import (
    ALL_KINDS,
    FAMILY_KINDS,
    REMOVE_RELEVANT,
    REMOVE_TABLE,
    Condition,
    iter_conditions,
    kind_from_name,
)
from .serialize import length_filter

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_BACKEND = "reference:faithful_oracle"

KIND_GROUPS = {"all": ALL_KINDS, **FAMILY_KINDS}

# The largest timeout a model or classifier call accepts, about 11.6 days.
# subprocess refuses timeouts past 2**31 milliseconds (about 24.8 days) with
# OverflowError, so a larger value would abort the run at its first call.
MAX_TIMEOUT_S = 1_000_000


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
    digest = hashlib.sha256()
    instances = load_dataset(config.dataset, digest)
    lexicon = (
        ComparativeLexicon.from_file(config.lexicon) if config.lexicon else ComparativeLexicon()
    )
    backend = parse_backend(
        config.backend,
        lexicon=lexicon,
        timeout=config.timeout,
        retries=config.retries,
        workers=config.workers,
    )

    if config.max_tokens is not None:
        kept, dropped = length_filter(instances, config.max_tokens)
    else:
        kept, dropped = list(instances), []
    if not kept:
        raise DatasetError("no instances left to evaluate after length filtering")

    # The original outcomes the backend lets a run reuse: a no-op
    # perturbation is the original instance, so each kind starts with these.
    originals: dict = {}
    original_correct, original_failures = _outcomes(backend, (ORIGINAL, 0), kept, originals)
    # Perturbations never change the question, so its cue is computed once.
    has_cue = {inst.id: lexicon.question_has_cue(inst.question) for inst in kept}

    conditions = []
    for _, same_kind in groupby(
        iter_conditions(kept, config.kinds, config.seeds), key=lambda c: c.kind
    ):
        known = dict(originals)
        conditions += [
            _score_condition(backend, condition, original_correct, has_cue, known)
            for condition in same_kind
        ]

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
        "conditions": conditions,
        "kind_summaries": [_summarize_kind(kind, conditions) for kind in config.kinds],
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


def _score_condition(backend, condition: Condition, original_correct, has_cue, known) -> dict:
    """Score one condition; ``known`` is the kind's memo of ``_outcomes``."""
    perturbed = [inst for inst, _ in condition.perturbed]
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


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def render_report_text(report: dict) -> str:
    """Fixed-width text rendering of a report dict."""
    lines = []
    lines.append(f"model    {report['model']}")
    lines.append(
        f"dataset  {report['config']['dataset']}  "
        f"({report['n_scored']} scored / {report['n_loaded']} loaded)"
    )
    original = report["original"]
    lines.append(f"original Em {original['em']:.4f}  (n={original['n']})")
    lines.append("")

    lines.append("per-kind summary (mean +/- std over seeds)")
    header = f"{'kind':<22}{'n':>6}  {'Em':>15}  {'Emd':>16}  {'VP%':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for s in report["kind_summaries"]:
        if s["em_mean"] is None:
            lines.append(f"{s['kind']:<22}{0:>6}  {'-':>15}  {'-':>16}  {'-':>14}")
            continue
        lines.append(
            f"{s['kind']:<22}{s['n']:>6}  "
            f"{s['em_mean']:.4f}+/-{s['em_std']:.4f}  "
            f"{s['emd_mean']:+.4f}+/-{s['emd_std']:.4f}  "
            f"{s['vp_pct_mean']:5.2f}+/-{s['vp_pct_std']:.2f}"
        )
    lines.append("")

    gapped = [s for s in report["kind_summaries"] if s.get("gap_mean") is not None]
    if gapped:
        lines.append("VP split by comparative cues (gap = compare - non-compare)")
        for s in gapped:
            lines.append(f"{s['kind']:<22}gap {100.0 * s['gap_mean']:+.2f}%")
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
