"""Tests of the benchmark's own parts: the generator's gold answers and the
output checks.  Run with ``python -m pytest -q bench``."""

from __future__ import annotations

import copy
import io
import json
import sys
import threading
from contextlib import redirect_stdout
from decimal import Decimal, localcontext
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

import checks
import generate
import standin

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from freb import cli, pipeline  # noqa: E402

SEEDS = [0, 1]


def _brute_force(record) -> str:
    """Recount an aggregation with Decimal loops, apart from the generator."""
    rows = record["table"]["rows"]
    agg = record["aggregation"]
    kind, col = agg["kind"], agg["value_col"]
    num = lambda text: Decimal(text.replace(",", ""))  # noqa: E731
    if kind in ("ARGMAX", "ARGMIN"):
        ranked = sorted(rows, key=lambda row: num(row[col]), reverse=kind == "ARGMAX")
        assert num(ranked[0][col]) != num(ranked[1][col]), "tie"
        return ranked[0][agg["label_col"]]
    if kind == "COUNT":
        needle = agg["filter"]["value"].lower()
        return str(sum(1 for row in rows if row[agg["filter"]["col"]].lower() == needle))
    if kind in ("SUM", "AVG"):
        with localcontext() as ctx:
            ctx.prec = 60
            total = sum(num(row[col]) for row in rows)
            return str(total if kind == "SUM" else total / len(rows))
    (ar, ac), (br, bc) = agg["operands"]
    a, b = num(rows[ar][ac]), num(rows[br][bc])
    if kind == "DIFF":
        return str(a - b)
    assert a != b, "tie"
    return rows[ar if a > b else br][agg["label_col"]]


@pytest.mark.parametrize("set_name,n", [("mixed", 100), ("wide", 10)])
def test_generator_gold_matches_brute_force_recount(set_name, n):
    records = generate.build(set_name, 5, n)
    assert len({r["question"] for r in records}) == n
    assert len({r["id"] for r in records}) == n
    for record in records:
        gold = record["answers"][0]
        cells = [c for row in record["table"]["rows"] for c in row]
        assert "None" not in cells and gold != "None"
        for cell in cells:
            if generate.exact_number(cell) is not None:
                assert sum(ch.isdigit() for ch in cell) <= 6, cell
        if record.get("aggregation") is None:
            assert cells.count(gold) == 1, record["id"]
            continue
        recount = _brute_force(record)
        if record["aggregation"]["kind"] in ("SUM", "AVG", "DIFF"):
            assert Decimal(recount) == Decimal(gold), record["id"]
        else:
            assert recount == gold, record["id"]
        if record["aggregation"]["kind"] == "COUNT":
            assert int(gold) >= 1


def test_generator_depends_only_on_seed():
    assert generate.build("mixed", 3, 30) == generate.build("mixed", 3, 30)
    assert generate.build("mixed", 3, 30) != generate.build("mixed", 4, 30)


# ---- evaluate reports -----------------------------------------------------


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    records = generate.build("mixed", 2, 50)
    path = tmp_path_factory.mktemp("mixed") / "mixed.jsonl"
    generate.write_jsonl(records, path)
    return records, path


def _evaluate(path, backend, workers=1):
    config = pipeline.RunConfig(
        dataset=path, kinds=pipeline.parse_kinds("all"), seeds=tuple(SEEDS),
        backend=backend, workers=workers,
    )
    return json.loads(pipeline.report_to_json(pipeline.run_pipeline(config)))


def _condition(report, kind, seed=0):
    return next(c for c in report["conditions"] if c["kind"] == kind and c["seed"] == seed)


@pytest.fixture(scope="module")
def oracle_report(mixed):
    return _evaluate(mixed[1], "reference:faithful_oracle")


def _check_oracle(report, records):
    return checks.check_report(report, records, SEEDS, checks.ORACLE_EXPECT, flagged=False)


def test_oracle_report_passes(oracle_report, mixed):
    verdict = _check_oracle(oracle_report, mixed[0])
    assert verdict.ok, verdict.problems
    assert verdict.failed == 0


def test_oracle_check_rejects_value_ac_answer_reset_to_original(oracle_report, mixed):
    # An answer-changing edit scored against the old answer: the faithful
    # reader now looks wrong on every value_ac instance.
    report = copy.deepcopy(oracle_report)
    c = _condition(report, "value_ac")
    c.update(em=0.0, vp=1.0, c2w=c["n"])
    verdict = _check_oracle(report, mixed[0])
    assert not verdict.ok
    assert verdict.failed == c["n"]


def test_oracle_check_rejects_dropped_skip_entry(oracle_report, mixed):
    report = copy.deepcopy(oracle_report)
    _condition(report, "shuffle_rows")["skipped"].pop()
    verdict = _check_oracle(report, mixed[0])
    assert not verdict.ok
    assert verdict.failed == 2  # one unaccounted instance, one short NotEligible


def test_oracle_check_rejects_flag_and_removal_survivors(oracle_report, mixed):
    report = copy.deepcopy(oracle_report)
    report["findings"]["table_independence"]["flagged"] = True
    _condition(report, "remove_table")["em"] = 0.5
    verdict = _check_oracle(report, mixed[0])
    assert len(verdict.problems) == 2


# ---- the stand-in model ---------------------------------------------------


@pytest.fixture(scope="module")
def remote(mixed):
    model = standin.StandIn(standin.load_gold(mixed[1]))
    server = ThreadingHTTPServer(("127.0.0.1", 0), standin.make_handler(model))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/"
        report = _evaluate(mixed[1], url, workers=2)
        stats = model.stats(reset=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return report, stats


def _check_remote(report, records, stats):
    return checks.check_report(
        report, records, SEEDS, checks.STANDIN_EXPECT, flagged=True, standin=stats
    )


def test_remote_report_passes(remote, mixed):
    report, stats = remote
    assert stats["unknown_questions"] == 0
    assert stats["distinct_inputs"] < stats["requests"]
    verdict = _check_remote(report, mixed[0], stats)
    assert verdict.ok, verdict.problems


def test_remote_check_rejects_value_ac_scored_against_original(remote, mixed):
    report, stats = copy.deepcopy(remote[0]), remote[1]
    c = _condition(report, "value_ac", 1)
    c.update(em=1.0, vp=0.0, c2w=0)
    assert not _check_remote(report, mixed[0], stats).ok


def test_remote_check_rejects_requests_beyond_bound(remote, mixed):
    report, stats = remote
    too_many = dict(stats, requests=report["n_scored"] * 100)
    assert not _check_remote(report, mixed[0], too_many).ok
    too_few = dict(stats, requests=stats["distinct_inputs"] - 1)
    assert not _check_remote(report, mixed[0], too_few).ok


# ---- perturb output -------------------------------------------------------


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide")
    records = generate.build("wide", 4, 10)
    generate.write_jsonl(records, root / "wide.jsonl")
    with redirect_stdout(io.StringIO()):
        status = cli.main([
            "perturb", "--in", str(root / "wide.jsonl"), "--out", str(root / "out"),
            "--kinds", "all", "--seeds", "0",
        ])
    assert status == 0
    return records, root / "out"


def _rewrite(path, edit):
    rows = checks.read_jsonl(path)
    edit(rows)
    generate.write_jsonl(rows, path)


def _corrupted(wide, tmp_path, name, edit):
    records, out = wide
    copy_dir = tmp_path / "out"
    copy_dir.mkdir()
    for f in out.iterdir():
        (copy_dir / f.name).write_bytes(f.read_bytes())
    _rewrite(copy_dir / name, edit)
    return checks.check_perturb_dir(copy_dir, records, [0])


def test_perturb_output_passes(wide):
    verdict = checks.check_perturb_dir(wide[1], wide[0], [0])
    assert verdict.ok, verdict.problems


def test_perturb_check_rejects_value_ac_answer_reset_to_original(wide, tmp_path):
    def reset(rows):
        row = rows[0]
        row["answers"] = list(row["provenance"]["params"]["original_answers"])
        row["provenance"]["params"]["new_answer"] = row["answers"][0]

    verdict = _corrupted(wide, tmp_path, "value_ac.seed0.jsonl", reset)
    assert verdict.failed == 1


def test_perturb_check_rejects_dropped_skip_entry(wide, tmp_path):
    verdict = _corrupted(wide, tmp_path, "skipped.jsonl", lambda rows: rows.pop())
    assert verdict.failed == 1


def _blank_a_kept_cell(rows):
    grid = rows[0]["table"]["rows"]
    r, c = next((r, c) for r, row in enumerate(grid) for c, cell in enumerate(row) if cell)
    grid[r][c] = ""


def _bump_a_summed_cell(rows):
    row = next(r for r in rows if r["aggregation"]["kind"] == "SUM")
    col = row["aggregation"]["value_col"]
    row["table"]["rows"][0][col] = str(int(row["table"]["rows"][0][col]) + 1)


@pytest.mark.parametrize("name,edit", [
    ("transpose.seed0.jsonl", lambda rows: rows[0]["table"]["rows"][1].__setitem__(1, "x")),
    ("remove_relevant.seed0.jsonl", _blank_a_kept_cell),
    ("shuffle_rows.seed0.jsonl", lambda rows: rows[0]["table"]["rows"].pop()),
    ("value_nc.seed0.jsonl", _bump_a_summed_cell),
])
def test_perturb_check_rejects_broken_tables(wide, tmp_path, name, edit):
    assert _corrupted(wide, tmp_path, name, edit).failed == 1
