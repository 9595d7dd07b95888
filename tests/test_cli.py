"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

import pytest

from freb.cli import main
from freb.ingest import instance_from_record, load_dataset, read_records
from freb.perturb import PerturbationRecord, kind_from_name, replay
from freb.pipeline import MAX_WORKERS, RunConfig, parse_kinds, report_to_json, run_pipeline
from freb.rng import derive_seed


def test_toydata_writes_dataset(tmp_path, toy_instances):
    out = tmp_path / "toy.jsonl"
    assert main(["toydata", "--out", str(out)]) == 0
    assert len(read_records(out)) == len(toy_instances)


def test_toydata_sorted_variant(tmp_path, sorted_instances):
    out = tmp_path / "sorted.jsonl"
    assert main(["toydata", "--out", str(out), "--variant", "sorted"]) == 0
    assert len(read_records(out)) == len(sorted_instances)


def test_perturb_writes_one_file_per_condition(tmp_path, toy_path, capsys):
    out = tmp_path / "perturbed"
    code = main(
        [
            "perturb",
            "--in",
            str(toy_path),
            "--out",
            str(out),
            "--kinds",
            "shuffle_rows,transpose",
            "--seeds",
            "0,1",
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out.glob("*.jsonl"))
    assert names == [
        "shuffle_rows.seed0.jsonl",
        "shuffle_rows.seed1.jsonl",
        "skipped.jsonl",
        "transpose.seed0.jsonl",
        "transpose.seed1.jsonl",
    ]
    records = read_records(out / "shuffle_rows.seed0.jsonl")
    assert records
    prov = records[0]["provenance"]
    assert prov["kind"] == "shuffle_rows"
    assert prov["global_seed"] == 0
    assert prov["source_id"] == records[0]["id"]
    assert "permutation" in prov["params"]
    # ineligible instances are itemized, not silently dropped
    skipped = read_records(out / "skipped.jsonl")
    assert {s["reason"] for s in skipped} == {"NotEligible"}


def test_perturb_is_deterministic(tmp_path, toy_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        main(["perturb", "--in", str(toy_path), "--out", str(out), "--kinds", "value_ac", "--seeds", "3"])
    file_a = (out_a / "value_ac.seed3.jsonl").read_bytes()
    file_b = (out_b / "value_ac.seed3.jsonl").read_bytes()
    assert file_a == file_b


def test_perturb_writes_the_same_files_with_a_helper_process(
    tmp_path, toy_path, monkeypatch, capsys, forks
):
    # freb perturb gets its conditions as freb evaluate does: with a second
    # CPU, from one helper process, and nothing it writes or prints tells.
    def perturb(out):
        argv = ["perturb", "--in", str(toy_path), "--out", str(out), "--kinds", "all"]
        assert main([*argv, "--seeds", "0,1,2"]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, printed

    helped = perturb(tmp_path / "helped")
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert perturb(tmp_path / "alone") == helped
    assert len(helped[0]) == 14 * 3 + 1


def test_perturb_and_evaluate_share_their_conditions(tmp_path, toy_path):
    # Both commands walk the same kinds x seeds loop: each perturb file holds
    # exactly the instances evaluate scores under that condition, and
    # skipped.jsonl is the report's per-condition skips with kind and seed.
    # Every written instance replays from its provenance, whose derived seed
    # is the kind's per-instance seed for every kind.
    out = tmp_path / "perturbed"
    report_path = tmp_path / "report.json"
    args = ["--kinds", "all", "--seeds", "0,1"]
    assert main(["perturb", "--in", str(toy_path), "--out", str(out), *args]) == 0
    assert main(["evaluate", "--dataset", str(toy_path), "--out", str(report_path), *args]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    all_ids = [r["id"] for r in read_records(toy_path)]
    sources = {inst.id: inst for inst in load_dataset(toy_path)}

    assert len(report["conditions"]) == 14 * 2
    expected_skips = []
    for condition in report["conditions"]:
        kind, seed = condition["kind"], condition["seed"]
        skipped_ids = {s["id"] for s in condition["skipped"]}
        records = read_records(out / f"{kind}.seed{seed}.jsonl")
        ids = [r["id"] for r in records]
        assert len(ids) == condition["n"]
        assert ids == [i for i in all_ids if i not in skipped_ids]
        for record in records:
            prov = record["provenance"]
            assert prov["derived_seed"] == derive_seed(seed, prov["source_id"], kind.upper())
            provenance = PerturbationRecord(
                kind_from_name(prov["kind"]), prov["derived_seed"], prov["params"], prov["source_id"]
            )
            assert replay(sources[prov["source_id"]], provenance) == instance_from_record(record)
        expected_skips += [
            {"id": s["id"], "kind": kind, "seed": seed, "reason": s["reason"], "detail": s["detail"]}
            for s in condition["skipped"]
        ]
    lines = (out / "skipped.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == expected_skips
    assert list(json.loads(lines[0])) == ["id", "kind", "seed", "reason", "detail"]


def test_classify_rule_based(tmp_path, toy_path, capsys):
    out = tmp_path / "labeled.jsonl"
    assert main(["classify", "--in", str(toy_path), "--out", str(out)]) == 0
    records = read_records(out)
    labels = {r["question_type"] for r in records}
    assert labels == {"EQ", "RQ"}
    message = capsys.readouterr().out
    assert " EQ, " in message and " RQ, " in message


def test_classify_combined_secondary_stub(tmp_path, toy_path):
    out = tmp_path / "labeled.jsonl"
    code = main(
        [
            "classify",
            "--in",
            str(toy_path),
            "--out",
            str(out),
            "--secondary",
            "subprocess:echo EQ",
        ]
    )
    assert code == 0
    # constant-EQ secondary cannot flip rule-based RQ labels
    rule_out = tmp_path / "rule.jsonl"
    main(["classify", "--in", str(toy_path), "--out", str(rule_out)])
    rule_rq = {r["id"] for r in read_records(rule_out) if r["question_type"] == "RQ"}
    combined_rq = {r["id"] for r in read_records(out) if r["question_type"] == "RQ"}
    assert combined_rq == rule_rq


@pytest.mark.parametrize(
    "flags",
    [["--combined"], ["--secondary-cmd", "echo EQ"], ["--secondary-url", "http://127.0.0.1:9/"]],
)
def test_classify_old_secondary_flags_are_config_errors(tmp_path, toy_path, capsys, flags):
    out = tmp_path / "labeled.jsonl"
    assert main(["classify", "--in", str(toy_path), "--out", str(out), *flags]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: unrecognized arguments")


# A secondary that is not a subprocess or HTTP model is refused the same way:
# before anything is read or run.
@pytest.mark.parametrize(
    "flags,missing",
    [
        (["--secondary", "reference:faithful_oracle"], "--secondary must be"),
        (["--secondary", "file:{marker}"], "--secondary must be"),
        (["--positional-words", "{marker}"], "--drop-positional"),
    ],
)
def test_classify_flag_without_its_switch_is_a_config_error(
    tmp_path, toy_path, capsys, flags, missing
):
    marker = tmp_path / "marker"
    out = tmp_path / "labeled.jsonl"
    flags = [flag.format(marker=marker) for flag in flags]
    assert main(["classify", "--in", str(toy_path), "--out", str(out), *flags]) == 1
    assert not out.exists()
    assert not marker.exists()  # the secondary command never ran
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert missing in err


def test_classify_drop_positional(tmp_path, capsys):
    from freb.core import EQ, QAInstance, Table
    from freb.ingest import save_dataset

    data = tmp_path / "tiny.jsonl"
    save_dataset(
        [
            QAInstance(
                id="pos-1",
                question="What is the first entry?",
                answers=("x",),
                table=Table.from_values(["H"], [["x"]]),
                question_type=EQ,
            ),
            QAInstance(
                id="neu-1",
                question="What is the entry?",
                answers=("x",),
                table=Table.from_values(["H"], [["x"]]),
                question_type=EQ,
            ),
        ],
        data,
    )
    out = tmp_path / "labeled.jsonl"
    code = main(["classify", "--in", str(data), "--out", str(out), "--drop-positional"])
    assert code == 0
    assert [r["id"] for r in read_records(out)] == ["neu-1"]
    assert "1 dropped as positional" in capsys.readouterr().out


def test_evaluate_with_flags(tmp_path, toy_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--dataset",
            str(toy_path),
            "--kinds",
            "shuffle_rows",
            "--seeds",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["original"]["em"] == 1.0
    assert report["conditions"][0]["kind"] == "shuffle_rows"


def test_evaluate_stdout_and_text(toy_path, capsys):
    code = main(
        [
            "evaluate",
            "--dataset",
            str(toy_path),
            "--kinds",
            "remove_table",
            "--seeds",
            "0",
            "--text",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    json_part = printed[: printed.index("\n}") + 3]
    assert json.loads(json_part)["original"]["em"] == 1.0
    assert "per-kind summary" in printed


def test_evaluate_config_file_with_override(tmp_path, toy_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {toy_path}\nkinds = shuffle_rows\nseeds = 0,1\n", encoding="utf-8"
    )
    out = tmp_path / "report.json"
    code = main(
        ["evaluate", "--config", str(cfg), "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"]["seeds"] == [2]


def test_report_renders_saved_json(tmp_path, toy_path, capsys):
    report_path = tmp_path / "report.json"
    main(
        [
            "evaluate",
            "--dataset",
            str(toy_path),
            "--kinds",
            "transpose",
            "--seeds",
            "0",
            "--out",
            str(report_path),
        ]
    )
    capsys.readouterr()
    assert main(["report", "--in", str(report_path)]) == 0
    assert "transpose" in capsys.readouterr().out


def test_report_to_file(tmp_path, toy_path):
    report_path = tmp_path / "report.json"
    main(
        [
            "evaluate",
            "--dataset",
            str(toy_path),
            "--kinds",
            "transpose",
            "--seeds",
            "0",
            "--out",
            str(report_path),
        ]
    )
    text_path = tmp_path / "report.txt"
    assert main(["report", "--in", str(report_path), "--out", str(text_path)]) == 0
    assert "per-kind summary" in text_path.read_text(encoding="utf-8")


# --- exit codes -----------------------------------------------------------------


def test_exit_code_config_errors(tmp_path, toy_path, capsys):
    # unknown kind
    assert main(["evaluate", "--dataset", str(toy_path), "--kinds", "rotate"]) == 1
    # missing required pairing
    assert main(["evaluate", "--kinds", "transpose"]) == 1
    # missing config file
    assert main(["evaluate", "--config", str(tmp_path / "nope.cfg")]) == 1
    # a backend that is not an http(s)://<host> URL, before the dataset is read
    missing = str(tmp_path / "missing.jsonl")
    evaluate = ["evaluate", "--dataset", missing, "--kinds", "transpose"]
    assert main([*evaluate, "--backend", "http:localhost:9/x"]) == 1
    out = str(tmp_path / "labeled.jsonl")
    assert main(["classify", "--in", missing, "--out", out, "--secondary", "http:localhost:9/x"]) == 1
    # argparse usage errors are config errors too, not exit 2
    assert main(["perturb", "--in", "x"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [["--retries", "-1"], ["--timeout", "-1"], ["--timeout", "0"], ["--timeout", "1e9"]],
)
def test_exit_code_bad_timeout_or_retries(tmp_path, toy_path, capsys, flags):
    out = tmp_path / "out.json"
    evaluate = ["evaluate", "--dataset", str(toy_path), "--kinds", "transpose", "--out", str(out)]
    assert main([*evaluate, "--backend", "subprocess:echo x", *flags]) == 1
    assert not out.exists()
    labeled = tmp_path / "labeled.jsonl"
    classify = ["classify", "--in", str(toy_path), "--out", str(labeled)]
    assert main([*classify, "--secondary", "subprocess:echo EQ", *flags]) == 1
    assert not labeled.exists()
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2
    assert ("retries must be >= 0" if "--retries" in flags else "timeout must be") in err


@pytest.mark.parametrize(
    "key,value", [("max_tokens", "0"), ("max_tokens", "-1"), ("workers", "0"), ("workers", "-3")]
)
def test_exit_code_count_below_one(tmp_path, toy_path, capsys, key, value):
    out = tmp_path / "out.json"
    flag = "--" + key.replace("_", "-")
    evaluate = ["evaluate", "--dataset", str(toy_path), "--kinds", "transpose", "--out", str(out)]
    assert main([*evaluate, flag, value]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {toy_path}\nkinds = transpose\n{key} = {value}\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2
    assert err.count(f"{key} must be >= 1, got {value}") == 2


@pytest.mark.parametrize("value", [str(MAX_WORKERS + 1), "10000"])
def test_exit_code_too_many_workers(tmp_path, toy_path, capsys, value):
    # Too many workers is a config error before any backend is built.
    out = tmp_path / "out.json"
    evaluate = ["evaluate", "--dataset", str(toy_path), "--kinds", "transpose", "--out", str(out)]
    assert main([*evaluate, "--workers", value]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"config error: workers must be at most {MAX_WORKERS}, got {value}\n"
    )


def test_exit_code_config_file_timeout_too_large(tmp_path, toy_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {toy_path}\nkinds = transpose\nbackend = subprocess:echo x\ntimeout = 1e9\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    assert "timeout must be a positive number of seconds up to 1000000" in capsys.readouterr().err


def test_exit_code_data_errors(tmp_path, toy_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n", encoding="utf-8")
    assert main(["evaluate", "--dataset", str(bad), "--kinds", "transpose"]) == 2
    missing_report = tmp_path / "nope.json"
    assert main(["report", "--in", str(missing_report)]) == 2
    not_report = tmp_path / "weird.json"
    not_report.write_text("{}", encoding="utf-8")
    assert main(["report", "--in", str(not_report)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err

    # A number given as a string is a data error too, not a traceback.
    report = run_pipeline(RunConfig(dataset=toy_path, kinds=("TRANSPOSE",), seeds=(0,)))
    report["kind_summaries"][0]["em_mean"] = "0.5"
    string_number = tmp_path / "string_number.json"
    string_number.write_text(report_to_json(report), encoding="utf-8")
    assert main(["report", "--in", str(string_number)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


# Each input file of the CLI: its argv, given the bad file's path, the toy
# dataset and the output path, and the exit code a bad file gives.
_INPUTS = {
    "evaluate --dataset": (2, lambda bad, toy, out: [
        "evaluate", "--dataset", bad, "--kinds", "transpose", "--out", out]),
    "perturb --in": (2, lambda bad, toy, out: [
        "perturb", "--in", bad, "--kinds", "transpose", "--out", out]),
    "classify --in": (2, lambda bad, toy, out: ["classify", "--in", bad, "--out", out]),
    "evaluate --config": (1, lambda bad, toy, out: ["evaluate", "--config", bad, "--out", out]),
    "evaluate --lexicon": (2, lambda bad, toy, out: [
        "evaluate", "--dataset", toy, "--kinds", "transpose", "--lexicon", bad, "--out", out]),
    "classify --lexicon": (2, lambda bad, toy, out: [
        "classify", "--in", toy, "--lexicon", bad, "--out", out]),
    "classify --positional-words": (2, lambda bad, toy, out: [
        "classify", "--in", toy, "--drop-positional", "--positional-words", bad, "--out", out]),
    "file: predictions": (2, lambda bad, toy, out: [
        "evaluate", "--dataset", toy, "--kinds", "transpose",
        "--backend", f"file:{Path(bad).parent}", "--out", out]),
    "report --in": (2, lambda bad, toy, out: ["report", "--in", bad, "--out", out]),
}


@pytest.mark.parametrize("fault", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("name", list(_INPUTS))
def test_bad_input_file_is_one_error_line(tmp_path, toy_path, capsys, name, fault):
    # original.jsonl is the name the file: backend reads first.
    bad = tmp_path / "in" / "original.jsonl"
    if fault == "directory":
        bad.mkdir(parents=True)
    elif fault == "not utf-8":
        bad.parent.mkdir()
        bad.write_bytes(b"\xff\xfe")
    code, argv = _INPUTS[name]
    out = tmp_path / "out"
    assert main(argv(str(bad), str(toy_path), str(out))) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == 1 else "data error: "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert str(bad) in err
    assert not out.exists()


# JSON that json.loads refuses with a plain ValueError (an integer past
# Python's 4,300-digit int-to-string limit) or a RecursionError (nesting
# too deep), not a JSONDecodeError.  The integer is on line 2.
# A report that renders, but whose model name no UTF-8 output can hold.
_SURROGATE_REPORT = {
    "model": "\ud800", "config": {"dataset": "d"}, "n_scored": 0, "n_loaded": 0,
    "original": {"em": 0.0, "n": 0}, "kind_summaries": [], "conditions": [],
    "findings": {"table_independence": {"flagged": False}},
}
_UNREADABLE_JSON = {"huge integer": '\n{"id": ' + "1" * 5000 + "}\n",
                    "deep nesting": "[" * 100_000 + "\n",
                    "lone surrogate": "\n" + json.dumps(_SURROGATE_REPORT) + "\n"}


@pytest.mark.parametrize("fault", list(_UNREADABLE_JSON))
@pytest.mark.parametrize("name", [n for n in _INPUTS if n not in (
    "evaluate --config", "classify --positional-words")])
def test_unreadable_json_is_one_error_line(tmp_path, toy_path, capsys, name, fault):
    bad = tmp_path / "in" / "original.jsonl"
    bad.parent.mkdir()
    bad.write_text(_UNREADABLE_JSON[fault], encoding="utf-8")
    code, argv = _INPUTS[name]
    out = tmp_path / "out"
    assert main(argv(str(bad), str(toy_path), str(out))) == code
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert not out.exists()
    if fault == "huge integer":
        # One data error that names the limit and the numeral's line, with
        # no advice meant for a Python programmer.
        assert f"{bad}:2: " in err
        assert f"5000 digits is past the limit of {sys.get_int_max_str_digits()} digits" in err
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("name", ["evaluate --dataset", "perturb --in", "classify --in",
                                  "file: predictions"])
def test_lone_surrogate_in_json_lines_is_one_error_line(tmp_path, toy_path, capsys, name):
    # UTF-8 cannot hold the text a "\ud800" escape stands for, so no output could be written.
    bad = tmp_path / "in" / "original.jsonl"
    bad.parent.mkdir()
    bad.write_text('\n{"id": "a\\ud800", "instance_id": "a\\ud800"}\n', encoding="utf-8")
    code, argv = _INPUTS[name]
    out = tmp_path / "out"
    assert main(argv(str(bad), str(toy_path), str(out))) == code
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert f"{bad}:2: " in err and "lone surrogate" in err
    assert not out.exists()


def test_flags_complete_a_config_file(tmp_path, toy_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kinds = transpose\nseeds = 0,1\n", encoding="utf-8")
    out = tmp_path / "report.json"
    # An empty flag keeps the file's value.
    argv = ["evaluate", "--config", str(cfg), "--dataset", str(toy_path), "--seeds", ""]
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"]["kinds"] == ["transpose"]
    assert report["config"]["seeds"] == [0, 1]
    # Neither the file nor a flag gives the dataset.
    assert main(["evaluate", "--config", str(cfg), "--kinds", "remove_table"]) == 1
    assert "missing required key 'dataset'" in capsys.readouterr().err


def test_evaluate_help_lists_every_setting_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "--help"])
    printed = capsys.readouterr().out
    for flag in ("--dataset", "--kinds", "--seeds", "--backend", "--max-tokens",
                 "--lexicon", "--timeout", "--retries", "--workers"):
        assert flag in printed
    assert "reference:<model>, file:<dir>, subprocess:<cmd>, or" in printed


def test_console_script_targets_cli_main():
    # `freb ...` and `python -m freb ...` must run the same entry point.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module_name, _, attr = scripts["freb"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main


# Each subcommand that writes an --out path: its argv, given the toy dataset,
# a saved report and the unwritable output path.
_OUTPUTS = {
    "evaluate": lambda toy, report, out: [
        "evaluate", "--dataset", toy, "--kinds", "transpose", "--seeds", "0", "--out", out],
    "report": lambda toy, report, out: ["report", "--in", report, "--out", out],
    "perturb": lambda toy, report, out: [
        "perturb", "--in", toy, "--kinds", "transpose", "--seeds", "0", "--out", out],
    "classify": lambda toy, report, out: ["classify", "--in", toy, "--out", out],
    "toydata": lambda toy, report, out: ["toydata", "--out", out],
}


@pytest.mark.parametrize("name", list(_OUTPUTS))
def test_unwritable_output_is_one_config_error_line(tmp_path, toy_path, capsys, name):
    report = tmp_path / "report.json"
    argv = ["evaluate", "--dataset", str(toy_path), "--kinds", "transpose", "--seeds", "0"]
    assert main([*argv, "--out", str(report)]) == 0
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    # evaluate and report make no directory; the others cannot make one under a file.
    parent = tmp_path / "nodir" if name in ("evaluate", "report") else a_file
    out = parent / "out.txt"
    capsys.readouterr()
    assert main(_OUTPUTS[name](str(toy_path), str(report), str(out))) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(out) in err
    assert not parent.is_dir()


# sha256 of the files `freb perturb --kinds all --seeds 0,1,2,3,4` writes for
# each `freb toydata` variant, concatenated in name order; any change to a
# kind's params or to the perturbed instances shows here.
PERTURB_SHA256 = {
    "main": "acbdd0157532467130daef0d277ecee72304c74698b2613d556d6ef8b6b8aa58",
    "sorted": "c06da9439d811de167fa24b5c77d9d030df9dd8dca0940792e1f72b6b5a46df8",
}


@pytest.mark.parametrize("variant", list(PERTURB_SHA256))
def test_perturb_output_bytes_are_pinned(tmp_path, variant):
    data = tmp_path / f"{variant}.jsonl"
    assert main(["toydata", "--out", str(data), "--variant", variant]) == 0
    out = tmp_path / "perturbed"
    argv = ["perturb", "--in", str(data), "--out", str(out), "--kinds", "all"]
    assert main([*argv, "--seeds", "0,1,2,3,4"]) == 0
    digest = hashlib.sha256()
    for name in sorted(p.name for p in out.iterdir()):
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == PERTURB_SHA256[variant]


def test_evaluate_checks_the_output_directory_before_the_run(tmp_path, toy_path, monkeypatch, capsys):
    cli = importlib.import_module("freb.cli")
    runs = []
    monkeypatch.setattr(cli, "run_pipeline", lambda config: runs.append(config))
    out = tmp_path / "nodir" / "r.json"
    argv = ["evaluate", "--dataset", str(toy_path), "--kinds", "transpose", "--seeds", "0"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot write output {out}: No such file or directory\n"
    )
    assert runs == []
    assert not out.parent.exists()


# sha256 of report_to_json(run_pipeline(...)) for `--kinds all --seeds
# 0,1,2,3,4` on each `freb toydata` variant, by its relative default name
# (the report records the dataset path as given); any change to a
# perturbation, an answer, a score or a skip entry shows here.
REPORT_SHA256 = {
    ("main", "faithful_oracle"): "86601b369e42df973777a96df2b5e5632a629f92045e0d25f0290f04ae79d59c",
    ("main", "last_row_biased"): "10bd9577d32451ba27eeadc3e11679237d9d46d2c702b0cbe1cdfd4a59eeb1d5",
    ("sorted", "faithful_oracle"): "717605053e3e2dc8078309ddcf1ac89e3c268ba5f183065d2a14db0c6dc62a75",
    ("sorted", "last_row_biased"): "7fdd88ae117ba30905bac77cef19c437a7d3f4e54b2556e38220394526c38dea",
}


@pytest.mark.parametrize("variant,model", list(REPORT_SHA256))
def test_evaluate_report_bytes_are_pinned(tmp_path, monkeypatch, variant, model):
    monkeypatch.chdir(tmp_path)
    data = "toy_sorted.jsonl" if variant == "sorted" else "toy.jsonl"
    assert main(["toydata", "--out", data, "--variant", variant]) == 0
    config = RunConfig(
        dataset=Path(data),
        kinds=parse_kinds("all"),
        seeds=(0, 1, 2, 3, 4),
        backend=f"reference:{model}",
    )
    text = report_to_json(run_pipeline(config))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[variant, model]
