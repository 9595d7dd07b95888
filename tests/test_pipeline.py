"""Config parsing and the perturb-predict-score pipeline."""

import hashlib
import json
import math
import os
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from freb.errors import ConfigError, DatasetError
from freb.pipeline import (
    DEFAULT_SEEDS,
    KIND_GROUPS,
    MAX_TIMEOUT_S,
    MAX_WORKERS,
    RunConfig,
    parse_config_file,
    parse_kinds,
    parse_seeds,
    render_report_text,
    report_to_json,
    run_pipeline,
)


# --- kind/seed parsing ---------------------------------------------------------


def test_parse_kinds_names_and_case():
    assert parse_kinds("shuffle_rows, TRANSPOSE") == ("SHUFFLE_ROWS", "TRANSPOSE")


def test_parse_kinds_group_aliases():
    assert parse_kinds("structure") == KIND_GROUPS["structure"]
    assert parse_kinds("relevance,value") == (
        KIND_GROUPS["relevance"] + KIND_GROUPS["value"]
    )
    assert parse_kinds("all") == KIND_GROUPS["all"]


def test_parse_kinds_dedupes_preserving_order():
    assert parse_kinds("transpose,structure")[0] == "TRANSPOSE"
    assert len(parse_kinds("transpose,structure")) == len(KIND_GROUPS["structure"])


def test_parse_kinds_rejects_unknown():
    with pytest.raises(ConfigError, match="unknown perturbation kind"):
        parse_kinds("shuffle_rows,rotate")
    with pytest.raises(ConfigError, match="^no perturbation kinds given$"):
        parse_kinds(" , ")


def test_parse_seeds():
    assert parse_seeds("0, 1,2") == (0, 1, 2)
    assert parse_seeds("5,5,3") == (5, 3)
    with pytest.raises(ConfigError, match="^bad seed 'x': seeds must be integers$"):
        parse_seeds("0,x")
    with pytest.raises(ConfigError, match="^no seeds given$"):
        parse_seeds("")


# --- config files ----------------------------------------------------------------


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body, encoding="utf-8")
    return path


def test_parse_config_file_full(tmp_path, toy_path):
    path = _write_config(
        tmp_path,
        f"""
        # evaluation run
        dataset = {toy_path}
        kinds = shuffle_rows, remove_table   # trailing comment
        seeds = 0,1
        backend = reference:faithful_oracle
        max_tokens = 900
        timeout = 12.5
        retries = 2
        workers = 3
        """,
    )
    config = parse_config_file(path)
    assert config.dataset == toy_path
    assert config.kinds == ("SHUFFLE_ROWS", "REMOVE_TABLE")
    assert config.seeds == (0, 1)
    assert config.max_tokens == 900
    assert config.timeout == 12.5
    assert config.retries == 2
    assert config.workers == 3


def test_parse_config_file_defaults(tmp_path, toy_path):
    path = _write_config(tmp_path, f"dataset = {toy_path}\nkinds = transpose\n")
    config = parse_config_file(path)
    assert config.seeds == DEFAULT_SEEDS
    assert config.backend == "reference:faithful_oracle"
    assert config.max_tokens is None


def test_parse_config_file_unknown_key(tmp_path, toy_path):
    path = _write_config(
        tmp_path, f"dataset = {toy_path}\nkinds = transpose\ntemperature = 1\n"
    )
    with pytest.raises(ConfigError, match="unknown key 'temperature'"):
        parse_config_file(path)


def test_parse_config_file_missing_required(tmp_path):
    path = _write_config(tmp_path, "kinds = transpose\n")
    with pytest.raises(ConfigError, match="missing required key 'dataset'"):
        parse_config_file(path)
    path = _write_config(tmp_path, "dataset = x.jsonl\n")
    with pytest.raises(ConfigError, match="missing required key 'kinds'"):
        parse_config_file(path)


def test_parse_config_file_bad_number(tmp_path, toy_path):
    path = _write_config(
        tmp_path, f"dataset = {toy_path}\nkinds = transpose\nmax_tokens = many\n"
    )
    with pytest.raises(ConfigError, match="bad value for max_tokens"):
        parse_config_file(path)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("retries", "-3", "retries must be >= 0"),
        ("timeout", "0", "timeout must be a positive number"),
        ("timeout", "-1", "timeout must be a positive number"),
        ("timeout", "1e9", "timeout must be a positive number"),
    ],
)
def test_parse_config_file_rejects_bad_timeout_or_retries(tmp_path, toy_path, key, value, message):
    path = _write_config(
        tmp_path, f"dataset = {toy_path}\nkinds = transpose\n{key} = {value}\n"
    )
    with pytest.raises(ConfigError, match=f"run.cfg: {message}"):
        parse_config_file(path)


@pytest.mark.parametrize(
    "changes",
    [
        {"retries": -1},
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"timeout": float("inf")},
        {"timeout": MAX_TIMEOUT_S + 0.5},
    ],
)
def test_run_config_rejects_bad_timeout_or_retries(toy_path, changes):
    with pytest.raises(ConfigError):
        RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), **changes)
    # overrides go through the same check
    config = RunConfig(dataset=toy_path, kinds=("TRANSPOSE",))
    with pytest.raises(ConfigError):
        replace(config, **changes)


@pytest.mark.parametrize(
    "key,value", [("max_tokens", 0), ("max_tokens", -5), ("workers", 0), ("workers", -3)]
)
def test_run_config_rejects_a_count_below_one(toy_path, key, value):
    message = f"{key} must be >= 1, got {value}"
    with pytest.raises(ConfigError, match=message):
        RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), **{key: value})
    # overrides go through the same check
    config = RunConfig(dataset=toy_path, kinds=("TRANSPOSE",))
    with pytest.raises(ConfigError, match=message):
        replace(config, **{key: value})


def test_run_config_accepts_one_token_and_one_worker(toy_path):
    config = RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), max_tokens=1, workers=1)
    assert (config.max_tokens, config.workers) == (1, 1)


@pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 10_000])
def test_run_config_rejects_too_many_workers(toy_path, workers):
    message = f"^workers must be at most {MAX_WORKERS}, got {workers}$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), workers=workers)
    config = RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), workers=MAX_WORKERS)
    assert config.workers == MAX_WORKERS
    with pytest.raises(ConfigError, match=message):
        replace(config, workers=workers)


def test_run_config_accepts_the_largest_timeout(toy_path):
    assert RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), timeout=MAX_TIMEOUT_S).timeout == MAX_TIMEOUT_S


def test_parse_config_file_not_found(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "nope.cfg")


def test_parse_config_file_bad_line(tmp_path):
    path = _write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config_file(path)


# --- the pipeline ------------------------------------------------------------------


@pytest.fixture(scope="module")
def faithful_report(toy_path):
    config = RunConfig(
        dataset=toy_path,
        kinds=("SHUFFLE_ROWS", "REMOVE_TABLE", "VALUE_NC"),
        seeds=(0, 1),
    )
    return run_pipeline(config)


def test_pipeline_original_block(faithful_report, toy_instances):
    assert faithful_report["original"]["em"] == 1.0
    assert faithful_report["original"]["n"] == len(toy_instances)
    assert faithful_report["original"]["failures"] == {}
    assert faithful_report["n_loaded"] == len(toy_instances)
    assert faithful_report["dropped_by_length"] == []


def test_pipeline_names_the_dataset_path_and_bytes(faithful_report, toy_path):
    config = faithful_report["config"]
    assert config["dataset"] == str(toy_path)
    assert config["dataset_sha256"] == hashlib.sha256(toy_path.read_bytes()).hexdigest()


def test_pipeline_condition_grid(faithful_report):
    conditions = faithful_report["conditions"]
    assert [(c["kind"], c["seed"]) for c in conditions] == [
        ("shuffle_rows", 0),
        ("shuffle_rows", 1),
        ("remove_table", 0),
        ("remove_table", 1),
        ("value_nc", 0),
        ("value_nc", 1),
    ]


def test_pipeline_eligibility_split(faithful_report, toy_instances):
    n_eq = sum(1 for i in toy_instances if i.question_type == "EQ")
    n_rq = sum(1 for i in toy_instances if i.question_type == "RQ")
    by_kind = {(c["kind"], c["seed"]): c for c in faithful_report["conditions"]}
    shuffle = by_kind[("shuffle_rows", 0)]
    assert shuffle["n"] == n_eq
    assert len(shuffle["skipped"]) == n_rq
    assert {s["reason"] for s in shuffle["skipped"]} == {"NotEligible"}
    removal = by_kind[("remove_table", 0)]
    assert removal["n"] == n_rq
    assert len(removal["skipped"]) == n_eq


def test_pipeline_faithful_is_structure_invariant(faithful_report):
    for c in faithful_report["conditions"]:
        if c["kind"] == "shuffle_rows":
            assert c["em"] == 1.0
            assert c["emd"] == 0.0
            assert c["vp"] == 0.0 and c["c2w"] == 0 and c["w2c"] == 0


def test_pipeline_faithful_fails_without_table(faithful_report):
    for c in faithful_report["conditions"]:
        if c["kind"] == "remove_table":
            assert c["em"] == 0.0
            assert c["emd"] == -1.0
            assert c["vp"] == 1.0
            assert len(c["failures"]) == c["n"]


def test_pipeline_value_nc_scored_against_original_answers(faithful_report):
    for c in faithful_report["conditions"]:
        if c["kind"] == "value_nc":
            assert c["n"] > 0
            assert c["em"] == 1.0
            assert c["emd"] == 0.0


def test_pipeline_summaries(faithful_report):
    summaries = {s["kind"]: s for s in faithful_report["kind_summaries"]}
    assert summaries["shuffle_rows"]["em_mean"] == 1.0
    assert summaries["shuffle_rows"]["em_std"] == 0.0
    assert summaries["shuffle_rows"]["seeds_used"] == [0, 1]
    assert summaries["remove_table"]["vp_mean"] == 1.0
    assert summaries["remove_table"]["vp_pct_mean"] == 100.0


def test_pipeline_findings_not_flagged_for_faithful(faithful_report):
    finding = faithful_report["findings"]["table_independence"]
    assert finding["flagged"] is False
    assert finding["kinds"] == ["remove_table"]


def test_pipeline_empty_condition_has_every_score_key(tmp_path, toy_instances):
    # shuffle_rows applies to extraction questions only, so on reasoning
    # questions alone its conditions are empty while remove_table's are not.
    from freb.ingest import save_dataset

    path = tmp_path / "rq.jsonl"
    save_dataset([i for i in toy_instances if i.question_type == "RQ"], path)
    report = run_pipeline(
        RunConfig(dataset=path, kinds=("SHUFFLE_ROWS", "REMOVE_TABLE"), seeds=(0,))
    )
    empty, scored = report["conditions"]
    assert (empty["n"], empty["failures"]) == (0, {})
    assert scored["n"] > 0
    assert empty.keys() == scored.keys()
    for key in ("em", "em_original_paired", "emd", "vp", "vp_pct", "c2w", "w2c", "gap"):
        assert empty[key] is None
    empty_summary, scored_summary = report["kind_summaries"]
    assert empty_summary.keys() == scored_summary.keys()
    assert empty_summary["n"] == 0
    scores = [k for k in scored_summary if k.endswith(("_mean", "_std"))]
    assert len(scores) == 10
    assert all(empty_summary[k] is None for k in scores)


def test_pipeline_gap_matches_metrics(toy_path, toy_instances):
    from freb.backends import LAST_ROW_BIASED, ReferenceBackend
    from freb.classify import ComparativeLexicon
    from freb.core import answer_keys, normalize_answer
    from freb.metrics import ORIGINAL
    from freb.perturb import apply_perturbation

    report = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=("SHIFT_RELEVANT_ROWS",),
            seeds=(1,),
            backend="reference:last_row_biased",
        )
    )
    condition = report["conditions"][0]
    backend = ReferenceBackend(LAST_ROW_BIASED)
    perturbed = [
        apply_perturbation(i, "SHIFT_RELEVANT_ROWS", 1)[0]
        for i in toy_instances
        if i.relevant_cells
    ]
    ids = {i.id for i in perturbed}
    before, _ = backend.predictions_for((ORIGINAL, 0), [i for i in toy_instances if i.id in ids])
    after, _ = backend.predictions_for(("SHIFT_RELEVANT_ROWS", 1), perturbed)

    # Recount both splits by hand; the perturbation keeps answers, so gold
    # is the same on both sides.
    def right(prediction, answers):
        return prediction is not None and normalize_answer(prediction) in answer_keys(answers)

    lexicon = ComparativeLexicon()
    counts = {True: [0, 0, 0], False: [0, 0, 0]}  # c2w, w2c, n by cue
    for inst in perturbed:
        was, now = right(before[inst.id], inst.answers), right(after[inst.id], inst.answers)
        split = counts[lexicon.question_has_cue(inst.question)]
        split[0] += was and not now
        split[1] += now and not was
        split[2] += 1
    expect = {}
    for cue, name in ((True, "compare"), (False, "noncompare")):
        c2w, w2c, n = counts[cue]
        expect[name] = {"vp": (c2w + w2c) / n, "vp_pct": 100.0 * (c2w + w2c) / n,
                        "c2w": c2w, "w2c": w2c, "n": n}
    assert condition["n"] == len(perturbed)
    assert condition["gap"]["compare"] == expect["compare"]
    assert condition["gap"]["noncompare"] == expect["noncompare"]
    assert condition["gap"]["gap"] == expect["compare"]["vp"] - expect["noncompare"]["vp"]
    # last_row_biased flips some cue questions but not every question.
    assert 0 < expect["compare"]["c2w"] < expect["compare"]["n"]


def _write_predictions(path, entries):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for iid, answer in entries.items():
            fh.write(json.dumps({"instance_id": iid, "prediction": answer}) + "\n")


def test_pipeline_gap_splits_on_comparative_cue(tmp_path):
    from freb.core import RQ, QAInstance, Table
    from freb.ingest import save_dataset

    table = Table.from_values(["H"], [["x"], ["y"]])
    questions = {
        "a": "Who scored the most points?",  # cue
        "b": "Which entry is larger?",  # cue
        "c": "What city is listed?",  # no cue
        "d": "What is the venue?",  # no cue
    }
    path = tmp_path / "cues.jsonl"
    save_dataset(
        [QAInstance(id=i, question=q, answers=("X",), table=table, question_type=RQ)
         for i, q in questions.items()],
        path,
    )
    preds = tmp_path / "preds"
    preds.mkdir()
    _write_predictions(preds / "original.jsonl", dict.fromkeys(questions, "X"))
    _write_predictions(preds / "remove_table.seed0.jsonl", {"a": "y", "b": "X", "c": "X", "d": "X"})

    report = run_pipeline(
        RunConfig(dataset=path, kinds=("REMOVE_TABLE",), seeds=(0,), backend=f"file:{preds}")
    )
    gap = report["conditions"][0]["gap"]
    assert gap["compare"] == {"vp": 0.5, "vp_pct": 50.0, "c2w": 1, "w2c": 0, "n": 2}
    assert gap["noncompare"] == {"vp": 0.0, "vp_pct": 0.0, "c2w": 0, "w2c": 0, "n": 2}
    assert gap["gap"] == 0.5
    assert report["kind_summaries"][0]["gap_mean"] == 0.5


def test_pipeline_gap_empty_split_is_null(tmp_path, toy_instances):
    # When every perturbed question carries a comparative cue, the
    # non-compare split has no instances, so it and the gap are null.
    from freb.classify import ComparativeLexicon
    from freb.ingest import save_dataset

    lexicon = ComparativeLexicon()
    path = tmp_path / "cues.jsonl"
    save_dataset([i for i in toy_instances if lexicon.question_has_cue(i.question)], path)
    report = run_pipeline(
        RunConfig(dataset=path, kinds=("REMOVE_TABLE", "VALUE_AC"), seeds=(0, 1))
    )
    assert len(report["conditions"]) == 4
    for condition in report["conditions"]:
        assert condition["n"] > 0
        assert condition["gap"]["compare"]["n"] == condition["n"]
        assert condition["gap"]["noncompare"] is None
        assert condition["gap"]["gap"] is None
    for summary in report["kind_summaries"]:
        assert summary["vp_mean"] is not None
        assert (summary["gap_mean"], summary["gap_std"]) == (None, None)
    assert "comparative cues" not in render_report_text(report)


def test_pipeline_reads_each_question_cue_once(toy_path, monkeypatch):
    from freb.classify import ComparativeLexicon

    calls = []
    has_cue = ComparativeLexicon.question_has_cue

    def counting(self, question):
        calls.append(question)
        return has_cue(self, question)

    monkeypatch.setattr(ComparativeLexicon, "question_has_cue", counting)
    every_kind = RunConfig(dataset=toy_path, kinds=KIND_GROUPS["all"], seeds=(0, 1))
    report = run_pipeline(every_kind)
    # the faithful oracle never reads cues, so every call is the pipeline's
    assert len(calls) == report["n_scored"]

    # cue flags taken once per run score the condition that
    # test_pipeline_gap_matches_metrics checks exactly as a run of that
    # condition alone does
    biased = replace(every_kind, backend="reference:last_row_biased")
    alone = replace(biased, kinds=("SHIFT_RELEVANT_ROWS",), seeds=(1,))
    [condition] = run_pipeline(alone)["conditions"]
    assert condition in run_pipeline(biased)["conditions"]


def test_pipeline_flags_constant_model(toy_path):
    config = RunConfig(
        dataset=toy_path,
        kinds=("REMOVE_RELEVANT", "REMOVE_TABLE"),
        seeds=(0,),
        backend="reference:majority_answer:2019",
    )
    report = run_pipeline(config)
    finding = report["findings"]["table_independence"]
    assert finding["flagged"] is True
    assert finding["kinds"] == ["remove_relevant", "remove_table"]


def test_pipeline_max_tokens_filters(toy_path, toy_instances):
    config = RunConfig(
        dataset=toy_path, kinds=("TRANSPOSE",), seeds=(0,), max_tokens=60
    )
    report = run_pipeline(config)
    assert report["n_scored"] + len(report["dropped_by_length"]) == len(toy_instances)
    assert report["n_scored"] < len(toy_instances)


def test_pipeline_max_tokens_can_empty_dataset(toy_path):
    config = RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), seeds=(0,), max_tokens=1)
    with pytest.raises(DatasetError, match="no instances left"):
        run_pipeline(config)


def test_pipeline_file_backend_round_trip(tmp_path, toy_path):
    # Score the faithful model, save its predictions, then re-evaluate them
    # through the file backend: metrics must agree exactly.
    import json

    from freb.backends import ReferenceBackend
    from freb.ingest import load_dataset
    from freb.metrics import ORIGINAL
    from freb.perturb import apply_perturbation
    from freb.errors import PerturbSkip

    instances = load_dataset(toy_path)
    backend = ReferenceBackend("FAITHFUL_ORACLE")
    preds_dir = tmp_path / "preds"
    preds_dir.mkdir()

    entries, _ = backend.predictions_for((ORIGINAL, 0), instances)
    with open(preds_dir / "original.jsonl", "w", encoding="utf-8") as fh:
        for iid, answer in entries.items():
            fh.write(json.dumps({"instance_id": iid, "prediction": answer}) + "\n")

    perturbed = []
    for inst in instances:
        try:
            out, _ = apply_perturbation(inst, "SHUFFLE_COLS", 0)
            perturbed.append(out)
        except PerturbSkip:
            continue
    entries, _ = backend.predictions_for(("SHUFFLE_COLS", 0), perturbed)
    with open(preds_dir / "shuffle_cols.seed0.jsonl", "w", encoding="utf-8") as fh:
        for iid, answer in entries.items():
            fh.write(json.dumps({"instance_id": iid, "prediction": answer}) + "\n")

    direct = run_pipeline(
        RunConfig(dataset=toy_path, kinds=("SHUFFLE_COLS",), seeds=(0,))
    )
    from_files = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=("SHUFFLE_COLS",),
            seeds=(0,),
            backend=f"file:{preds_dir}",
        )
    )
    for key in ("em", "emd", "vp", "n"):
        assert from_files["conditions"][0][key] == direct["conditions"][0][key]
    assert from_files["original"]["em"] == direct["original"]["em"]


def test_pipeline_asks_a_reference_model_each_perturbed_instance_once_per_kind(
    toy_path, monkeypatch
):
    from collections import Counter

    from freb.backends import ReferenceBackend
    from freb.ingest import load_dataset
    from freb.metrics import ORIGINAL
    from freb.perturb import iter_conditions

    seen = []  # (kind, instance, failed); holding the instance keeps its id
    plain = ReferenceBackend.predictions_for

    def counting(self, condition, instances):
        entries, failures = plain(self, condition, instances)
        seen.extend((condition[0], inst, inst.id in failures) for inst in instances)
        return entries, failures

    monkeypatch.setattr(ReferenceBackend, "predictions_for", counting)
    seeds = (0, 1, 2)
    kinds = ("SHUFFLE_ROWS", "TARGET_ROW_TOP", "REMOVE_TABLE", "SHORTENED")
    report = run_pipeline(RunConfig(dataset=toy_path, kinds=kinds, seeds=seeds))

    asks = Counter((kind, id(inst)) for kind, inst, _ in seen if kind != ORIGINAL)
    failed = {(kind, id(inst)) for kind, inst, was in seen if was}
    # The faithful oracle cannot answer without a table, so every
    # remove_table instance fails; its failure is final, so it is asked once
    # for all the seeds, and listed under every seed.
    assert {kind for kind, _ in failed} == {"REMOVE_TABLE"}
    removals = [c for c in report["conditions"] if c["kind"] == "remove_table"]
    assert all(len(c["failures"]) == c["n"] > 0 for c in removals)
    # Every instance, answered or failed, is asked once for all the seeds
    # that share it.
    assert all(n == 1 for n in asks.values())
    perturbed = sum(c["n"] for c in report["conditions"])
    assert sum(asks.values()) < perturbed
    for kind in ("SHUFFLE_ROWS", "TARGET_ROW_TOP", "SHORTENED"):
        assert sum(1 for k, _ in asks if k == kind) < sum(
            c["n"] for c in report["conditions"] if c["kind"] == kind.lower()
        ), kind
    # A no-op perturbation is the original instance, whose outcome the
    # original call gave: it is never asked again.
    originals = {id(inst) for kind, inst, _ in seen if kind == ORIGINAL}
    assert not any(key in originals for _, key in asks)
    by_id = {inst.id: inst for inst in load_dataset(toy_path)}
    no_ops = sum(
        out is by_id[record.source_id]
        for condition in iter_conditions(list(by_id.values()), kinds, seeds)
        for out, record in condition.perturbed
    )
    assert no_ops > 0


def test_pipeline_asks_a_transport_again_after_a_failure(tmp_path, toy_instances):
    _asks_a_transport_again_after_a_failure(tmp_path, toy_instances, workers=1)


def test_pipeline_asks_a_transport_with_two_workers_again_after_a_failure(
    tmp_path, toy_instances
):
    _asks_a_transport_again_after_a_failure(tmp_path, toy_instances, workers=2)


def _asks_a_transport_again_after_a_failure(tmp_path, toy_instances, workers):
    # A subprocess model that fails the first time it sees an input and
    # answers from then on, counting its calls in one file per input.  A
    # transport's failure may be transient, so it is not reused: the next
    # seed asks again, and the failure is listed under its own seed only.
    import shlex

    from freb.ingest import save_dataset

    dataset = tmp_path / "eq.jsonl"
    save_dataset([i for i in toy_instances if i.question_type == "EQ"][:3], dataset)
    calls = tmp_path / "calls"
    calls.mkdir()
    count = f'{shlex.quote(str(calls))}/$(printf %s "$input" | cksum | tr " " _)'
    model = (
        f'input=$(cat); echo call >> {count}; '
        f'[ $(wc -l < {count}) -gt 1 ] && printf "%s\\n" "$input" | head -1'
    )
    report = run_pipeline(
        RunConfig(
            dataset=dataset, kinds=("TRANSPOSE",), seeds=(0, 1), backend=f"subprocess:{model}",
            workers=workers,
        )
    )
    seed0, seed1 = report["conditions"]
    assert sorted(report["original"]["failures"]) == sorted(seed0["failures"])
    assert len(seed0["failures"]) == seed0["n"] == 3
    assert all(text.startswith("exit code 1") for text in seed0["failures"].values())
    assert (seed1["n"], seed1["failures"]) == (3, {})
    # Each original was asked once, each transposed table once per seed.
    counts = sorted(len(f.read_text().splitlines()) for f in calls.iterdir())
    assert counts == [1, 1, 1, 2, 2, 2]


def _fake_model(sent, lock):
    """A subprocess model's ``_send`` that runs in-process with no socket
    or child: it counts each payload it is sent and answers the last word
    of the payload's table."""

    def send(self, payload: bytes) -> str:
        with lock:
            sent[payload] += 1
        return payload.split()[-1].decode("utf-8")

    return send


def test_pipeline_sends_each_payload_once_under_many_workers(tmp_path, toy_path, monkeypatch):
    # More workers than cores and a thread switch every microsecond: a
    # payload sent twice, or an answer lost or given to the wrong payload,
    # would show in the counts or the report.
    from freb.backends import SubprocessBackend

    dataset = tmp_path / "some.jsonl"
    lines = toy_path.read_text(encoding="utf-8").splitlines(True)
    dataset.write_text("".join(lines[:40]), encoding="utf-8")
    reports = {}
    sends = {}
    for workers in (1, 8):
        sent: Counter = Counter()
        monkeypatch.setattr(SubprocessBackend, "_send", _fake_model(sent, threading.Lock()))
        config = RunConfig(dataset=dataset, kinds=KIND_GROUPS["all"], seeds=(0, 1),
                           backend="subprocess:unused", workers=workers)
        done = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6 if workers > 1 else interval)
        try:
            runner = threading.Thread(
                target=lambda: done.append(report_to_json(run_pipeline(config))), daemon=True
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(done) == 1
        reports[workers] = done[0]
        sends[workers] = sent
        assert set(sent.values()) == {1}
    assert sends[8] == sends[1]
    assert reports[8] == reports[1]


@pytest.mark.parametrize("backend", ["subprocess:unused", "reference:faithful_oracle"])
def test_pipeline_hands_a_transport_the_next_kind_before_scoring_this_one(
    toy_path, monkeypatch, backend
):
    # A transport is handed the originals and the first kind before the
    # originals are scored, and each later kind before the one before it.
    # An in-process model has nothing in flight, so each batch is scored
    # as soon as it is handed over.
    from freb import backends

    events = []
    transport = backend.startswith("subprocess")
    cls = backends.SubprocessBackend if transport else backends.ReferenceBackend
    plain_submit, plain_predictions_for = cls.submit, cls.predictions_for

    def submit(self, instances):
        events.append("submit")
        return plain_submit(self, instances)

    def predictions_for(self, condition, instances):
        events.append(f"{condition[0].lower()}.{condition[1]}")
        return plain_predictions_for(self, condition, instances)

    send = _fake_model(Counter(), threading.Lock())
    monkeypatch.setattr(backends.SubprocessBackend, "_send", send)
    monkeypatch.setattr(cls, "submit", submit)
    monkeypatch.setattr(cls, "predictions_for", predictions_for)
    run_pipeline(RunConfig(dataset=toy_path, kinds=("TRANSPOSE", "SHUFFLE_ROWS"), seeds=(0, 1),
                           backend=backend))
    asked = ["original.0", "transpose.0", "transpose.1", "shuffle_rows.0", "shuffle_rows.1"]
    if transport:
        assert events == ["submit", "submit", asked[0], "submit", *asked[1:]]
    else:
        assert events == ["submit", asked[0], "submit", *asked[1:3], "submit", *asked[3:]]


@pytest.mark.parametrize("fails", [False, True])
def test_pipeline_leaves_no_transport_thread_running(tmp_path, toy_path, monkeypatch, fails):
    from freb.backends import SubprocessBackend

    sent: Counter = Counter()
    send = _fake_model(sent, threading.Lock())

    def slow_send(self, payload):
        time.sleep(0.001)
        # A fault the transport does not catch ends the run mid-way, with
        # the next kind's payloads in flight.
        if fails and len(sent) == 300:
            raise RuntimeError("model crashed")
        return send(self, payload)

    monkeypatch.setattr(SubprocessBackend, "_send", slow_send)
    config = RunConfig(dataset=toy_path, kinds=KIND_GROUPS["structure"], seeds=(0, 1),
                       backend="subprocess:unused", workers=4)
    before = set(threading.enumerate())
    if fails:
        with pytest.raises(RuntimeError, match="model crashed"):
            run_pipeline(config)
    else:
        run_pipeline(config)
    assert set(threading.enumerate()) <= before


# --- the helper process that draws the perturbation plans ------------------------


def _report_bytes(dataset, backend, kinds=KIND_GROUPS["all"], seeds=(0, 1, 2)):
    return report_to_json(run_pipeline(RunConfig(
        dataset=dataset, kinds=kinds, seeds=seeds, backend=backend,
    )))


@contextmanager
def _helper_ruled_out(why):
    """Within this, a run may not fork its plan helper, for the reason ``why``."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    with pytest.MonkeyPatch.context() as patch:
        if why == "no fork":
            patch.delattr(os, "fork")
        elif why == "one cpu":
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif why == "a second thread":
            other.start()
        try:
            yield
        finally:
            release.set()
            if other.is_alive():
                other.join()


@pytest.mark.parametrize("model", ["faithful_oracle", "last_row_biased", "first_row_biased",
                                   "majority_answer"])
@pytest.mark.parametrize("variant", ["toy", "sorted"])
def test_pipeline_report_is_the_same_with_a_helper_process(
    request, forks, variant, model
):
    # With a second CPU, a run draws its plans in one helper process; the
    # report must not tell.
    dataset = request.getfixturevalue(f"{variant}_path")
    assert threading.active_count() == 1
    helped = _report_bytes(dataset, f"reference:{model}")
    assert len(forks) == 1
    with _helper_ruled_out("no fork"):
        assert _report_bytes(dataset, f"reference:{model}") == helped
    assert len(forks) == 1


def test_pipeline_file_model_report_is_the_same_with_a_helper_process(
    tmp_path, toy_path, toy_instances, forks
):
    kinds, seeds = ("TRANSPOSE", "SHUFFLE_ROWS", "VALUE_AC"), (0, 1)
    preds = tmp_path / "preds"
    preds.mkdir()
    names = ["original.jsonl"] + [f"{k.lower()}.seed{s}.jsonl" for k in kinds for s in seeds]
    for n, name in enumerate(names):
        # Some right, some wrong, some missing: each file differs.
        lines = [
            json.dumps({"instance_id": inst.id, "prediction": inst.answers[0] if j % 3 else "x"})
            for j, inst in enumerate(toy_instances) if (j + n) % 7
        ]
        (preds / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    helped = _report_bytes(toy_path, f"file:{preds}", kinds, seeds)
    assert len(forks) == 1
    with _helper_ruled_out("no fork"):
        assert _report_bytes(toy_path, f"file:{preds}", kinds, seeds) == helped
    assert len(forks) == 1


@pytest.mark.parametrize("why", ["no fork", "one cpu", "a second thread"])
def test_pipeline_plans_in_the_caller_when_no_helper_may_run(toy_path, forks, why):
    # Without os.fork, with one CPU, or with a thread a fork would not copy,
    # the plans are drawn in the caller, to the same report.
    kinds, seeds = ("TRANSPOSE", "SHIFT_RELEVANT_ROWS", "VALUE_NC"), (0, 1)
    helped = _report_bytes(toy_path, "reference:last_row_biased", kinds, seeds)
    assert len(forks) == 1
    with _helper_ruled_out(why):
        assert _report_bytes(toy_path, "reference:last_row_biased", kinds, seeds) == helped
    assert len(forks) == 1


@pytest.mark.parametrize("cpus,forked", [(1, 0), (2, 1), (None, 0)])
def test_pipeline_counts_cpus_where_there_is_no_affinity_call(
    toy_path, monkeypatch, forks, cpus, forked
):
    # Where os.sched_getaffinity is missing, os.cpu_count says whether a
    # second CPU is there; a count it cannot tell (None) is one CPU.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _report_bytes(toy_path, "reference:faithful_oracle", ("TRANSPOSE",), (0,))
    assert len(forks) == forked


@pytest.mark.parametrize("cpus", [1, 2])
def test_pipeline_raises_what_a_plan_raises(toy_path, monkeypatch, forks, cpus):
    # A fault inside a plan reaches the caller whether the plan ran in the
    # helper process or in the caller, and the helper is reaped.
    from freb.perturb import apply

    plain = apply.derive_rng

    def derive_rng(seed, instance_id, kind):
        if kind == "SHUFFLE_COLS" and seed == 1:
            raise ValueError(f"no draw for {instance_id}")
        return plain(seed, instance_id, kind)

    monkeypatch.setattr(apply, "derive_rng", derive_rng)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with pytest.raises(ValueError, match="no draw for "):
        _report_bytes(toy_path, "reference:faithful_oracle")
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("stop", [KeyboardInterrupt, RuntimeError])
def test_pipeline_reaps_the_helper_when_the_caller_stops(toy_path, monkeypatch, forks, stop):
    # The caller stops after two kinds, while the helper still has plans to
    # send: closing the pipe ends the helper, and the caller reaps it.
    from freb.backends import ReferenceBackend

    plain = ReferenceBackend.predictions_for
    asked = []

    def predictions_for(self, condition, instances):
        asked.append(condition[0])
        if len(set(asked)) > 2:
            raise stop("stopped")
        return plain(self, condition, instances)

    monkeypatch.setattr(ReferenceBackend, "predictions_for", predictions_for)
    with pytest.raises(stop):
        _report_bytes(toy_path, "reference:faithful_oracle", seeds=(0, 1, 2, 3, 4))
    assert len(forks) == 1


@pytest.mark.parametrize("backend", ["subprocess:unused", "http://127.0.0.1:9/predict"])
def test_pipeline_forks_its_helper_before_a_transport_sends(toy_path, monkeypatch, forks, backend):
    # A subprocess or HTTP run forks its helper before its first payload is
    # sent, so before the transport has a thread or a connection to copy;
    # the report and the payloads sent are those of a run with no helper.
    from freb.backends import HttpBackend, SubprocessBackend

    events = []
    counted = os.fork

    def fork():
        events.append("fork")
        return counted()

    def runs():
        sent: Counter = Counter()
        send = _fake_model(sent, threading.Lock())

        def logged_send(self, payload):
            events.append("send")
            return send(self, payload)

        monkeypatch.setattr(SubprocessBackend, "_send", logged_send)
        monkeypatch.setattr(HttpBackend, "_send", logged_send)
        kinds, seeds = ("TRANSPOSE", "SHUFFLE_ROWS"), (0, 1)
        return _report_bytes(toy_path, backend, kinds, seeds), sent

    monkeypatch.setattr(os, "fork", fork)
    helped = runs()
    assert events[0] == "fork" and events.count("fork") == 1
    assert len(forks) == 1
    assert threading.active_count() == 1
    with _helper_ruled_out("no fork"):
        assert runs() == helped
    assert len(forks) == 1


def test_report_to_json_equals_json_dumps(faithful_report):
    # Each seed's list of prepare-time skips holds the same entry objects.
    entries = [e for c in faithful_report["conditions"] for e in c["skipped"]]
    assert len({id(e) for e in entries}) < len(entries)
    assert report_to_json(faithful_report) == json.dumps(
        faithful_report, indent=2, sort_keys=True, ensure_ascii=False
    ) + "\n"


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 10**300, -(2**64)]),
    st.text(max_size=8), st.sampled_from(["", "\U0001f600", "a\U00010348b", "\x00\"\\\n\u2028"]),
)
_KEYS = st.text(max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_report_to_json_matches_json_dumps_on_shared_trees(data):
    # Dicts reused at several places and depths, as the skip entries are.
    flat = data.draw(st.lists(st.dictionaries(_KEYS, _SCALARS, max_size=4), max_size=4))
    leaves = st.one_of(_SCALARS, st.sampled_from(flat)) if flat else _SCALARS
    tree = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)
        ),
        max_leaves=20,
    )
    shared = data.draw(st.lists(tree, max_size=3))
    value = data.draw(st.recursive(
        st.one_of(tree, st.sampled_from(shared)) if shared else tree,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=3)
        ),
        max_leaves=8,
    ))
    expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert report_to_json(value) == expected


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{"a": object()}], {"a": b"x"}])
def test_report_to_json_refuses_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        report_to_json(value)


@pytest.mark.parametrize("change", ["replaced", "removed"])
def test_pipeline_hashes_the_dataset_bytes_it_loaded(tmp_path, toy_path, monkeypatch, change):
    from freb.backends import ReferenceBackend

    dataset = tmp_path / "toy.jsonl"
    loaded = toy_path.read_bytes()
    dataset.write_bytes(loaded)
    plain = ReferenceBackend.predictions_for

    def changing_the_file(self, condition, instances):
        if change == "removed":
            dataset.unlink(missing_ok=True)
        else:
            dataset.write_bytes(b"\n")
        return plain(self, condition, instances)

    monkeypatch.setattr(ReferenceBackend, "predictions_for", changing_the_file)
    report = run_pipeline(RunConfig(dataset=dataset, kinds=("TRANSPOSE",), seeds=(0,)))
    assert report["config"]["dataset_sha256"] == hashlib.sha256(loaded).hexdigest()


def test_pipeline_reads_a_file_backend_per_condition(tmp_path, toy_path, toy_instances):
    # transpose draws nothing, so both seeds share each perturbed instance;
    # the file backend must still score each seed from its own file.
    import json

    preds_dir = tmp_path / "preds"
    preds_dir.mkdir()
    files = {"original.jsonl": True, "transpose.seed0.jsonl": True, "transpose.seed1.jsonl": False}
    for name, right in files.items():
        with open(preds_dir / name, "w", encoding="utf-8") as fh:
            for inst in toy_instances:
                answer = inst.answers[0] if right else "no such answer"
                fh.write(json.dumps({"instance_id": inst.id, "prediction": answer}) + "\n")
    report = run_pipeline(
        RunConfig(
            dataset=toy_path, kinds=("TRANSPOSE",), seeds=(0, 1), backend=f"file:{preds_dir}"
        )
    )
    seed0, seed1 = report["conditions"]
    assert seed0["n"] == seed1["n"] > 0
    assert (seed0["em"], seed1["em"]) == (1.0, 0.0)
    assert seed1["vp"] == 1.0


def test_pipeline_scores_huge_numeral_predictions_as_wrong(tmp_path, toy_path, toy_instances):
    # Numerals beyond the default 28-digit decimal context, and ones whose
    # plain rendering would be a gigabyte long, must be scored, not crash.
    import json

    hostile = ["1e30", "1" * 30, "1e999999999"]
    preds_dir = tmp_path / "preds"
    preds_dir.mkdir()
    for name in ("original.jsonl", "shuffle_rows.seed0.jsonl"):
        with open(preds_dir / name, "w", encoding="utf-8") as fh:
            for i, inst in enumerate(toy_instances):
                record = {"instance_id": inst.id, "prediction": hostile[i % len(hostile)]}
                fh.write(json.dumps(record) + "\n")

    report = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=("SHUFFLE_ROWS",),
            seeds=(0,),
            backend=f"file:{preds_dir}",
        )
    )
    assert report["original"]["em"] == 0.0
    assert report["original"]["failures"] == {}
    assert report["conditions"][0]["em"] == 0.0
    assert report["conditions"][0]["n"] > 0


# --- rendering ----------------------------------------------------------------------


def test_report_to_json_is_stable(faithful_report):
    a = report_to_json(faithful_report)
    b = report_to_json(faithful_report)
    assert a == b
    assert a.endswith("\n")
    import json

    assert json.loads(a) == faithful_report


def test_render_report_text(faithful_report):
    text = render_report_text(faithful_report)
    assert "original Em 1.0000" in text
    assert "shuffle_rows" in text
    assert "remove_table" in text
    assert "FLAG" not in text  # faithful model is not table-independent


def test_render_report_text_includes_flag(toy_path):
    report = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=("REMOVE_TABLE",),
            seeds=(0,),
            backend="reference:majority_answer:2019",
        )
    )
    assert "FLAG" in render_report_text(report)
