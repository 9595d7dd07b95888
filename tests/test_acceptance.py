"""Acceptance gate: ten end-to-end guarantees the toolkit must keep.

Each test is numbered (P1-P10) and self-contained; the terminal summary
prints one PASS/FAIL line per number.  Tolerances are part of the contract:
timing budgets are wall-clock on an unloaded machine, statistical checks use
fixed seeds so failures are reproducible, and float comparisons are exact
where both sides are computed from the same integers.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from scipy import stats

import freb
from freb.classify import ComparativeLexicon, classify_combined, classify_rule_based
from freb.core import EQ, RQ, QAInstance, Table, normalize_answer, parse_number
from freb.metrics import em, emd, is_correct, vp_from_correctness
from freb.perturb import (
    KINDS,
    STRUCTURE_KINDS,
    TARGET_ROW_BOTTOM,
    TARGET_ROW_MIDDLE,
    TARGET_ROW_TOP,
    VALUE_AC,
    VALUE_NC,
    apply_perturbation,
    evaluate_aggregation,
    partition_indices,
    transpose,
)
from freb.perturb.structure import ROW_PARTS
from freb.pipeline import RunConfig, report_to_json, run_pipeline
from freb.rng import Rng

pytestmark = pytest.mark.acceptance


# --- P1: structure perturbations never lose or duplicate answer evidence ------------


def test_p1_structure_preserves_answer_cells(toy_instances):
    eqs = [i for i in toy_instances if i.question_type == EQ]

    def answer_cells(table, gold):
        return Counter(
            normalize_answer(cell.raw)
            for row in table.rows
            for cell in row
            if normalize_answer(cell.raw) in gold
        )

    start = time.perf_counter()
    applied = 0
    for inst in eqs:
        gold = {normalize_answer(a) for a in inst.answers}
        before = answer_cells(inst.table, gold)
        assert before, inst.id
        for kind in STRUCTURE_KINDS:
            for seed in (0, 1):
                out, _ = apply_perturbation(inst, kind, seed)
                after = answer_cells(out.table, gold)
                assert after == before, (inst.id, kind, seed)
                applied += 1
    elapsed = time.perf_counter() - start

    assert applied >= 1000, f"only {applied} perturbations exercised"
    assert elapsed < 5.0, f"{applied} perturbations took {elapsed:.2f}s"


# --- P2: target-row shifts are uniform within the requested partition ----------------


def test_p2_shift_lands_in_partition_uniformly():
    table = Table.from_values(
        ["Name", "Score"], [[f"name{r}", str(100 + r)] for r in range(10)]
    )
    inst = QAInstance(
        id="p2",
        question="What score does name4 have?",
        answers=("104",),
        table=table,
        question_type=EQ,
    )
    boundaries = partition_indices(10, 3).boundaries
    counts = {part: Counter() for part in ROW_PARTS}
    kinds = {"TOP": TARGET_ROW_TOP, "MIDDLE": TARGET_ROW_MIDDLE, "BOTTOM": TARGET_ROW_BOTTOM}
    specs = {part: next(s for s in KINDS if s.name == kinds[part]) for part in ROW_PARTS}
    prepared = {part: specs[part].prepare(inst) for part in ROW_PARTS}

    total = 0
    for seed in range(3334):
        for part in ROW_PARTS:
            params = specs[part].plan(prepared[part], Rng(seed * 3 + ROW_PARTS[part]))
            landed = params["insert_at"]
            lo, hi = boundaries[ROW_PARTS[part]]
            assert lo <= landed < hi, (part, seed, landed)
            counts[part][landed] += 1
            total += 1
    assert total >= 10000

    for part, index in ROW_PARTS.items():
        lo, hi = boundaries[index]
        observed = [counts[part][i] for i in range(lo, hi)]
        assert sum(observed) == 3334
        result = stats.chisquare(observed)
        assert result.pvalue > 0.001, (part, observed, result.pvalue)


# --- P3: transposition is recoverable, degenerate shapes included --------------------


def _recover_transposed(table: Table) -> Table:
    headers = [row[0].raw for row in table.rows]
    grid = [
        [table.rows[c][r + 1].raw for c in range(table.n_rows)]
        for r in range(table.n_cols - 1)
    ]
    return Table.from_values(headers, grid)


def test_p3_transpose_round_trips_1000_tables():
    rng = Rng(716253)
    pool = ["", "x", "15", "1,500", "-3.5", "a b", "名前", "cell|pipe", "0"]
    checked = 0
    for i in range(1000):
        n_rows = 0 if i % 10 == 0 else rng.randint(1, 8)
        n_cols = 1 if i % 7 == 0 else rng.randint(1, 6)
        headers = [f"h{c}-{rng.randint(0, 99)}" for c in range(n_cols)]
        grid = [[rng.choice(pool) for _ in range(n_cols)] for _ in range(n_rows)]
        original = Table.from_values(headers, grid)
        transposed = transpose(original)
        assert transposed.n_rows == original.n_cols
        assert transposed.n_cols == original.n_rows + 1
        assert _recover_transposed(transposed) == original, (i, headers, grid)
        checked += 1
    assert checked == 1000


# --- P4: scores agree with a brute-force recount over randomized predictions ---------


def _correct_variant(answer: str, rng: Rng) -> str:
    variants = [answer, answer.upper(), f"  {answer} ", answer.lower()]
    if parse_number(answer) is not None:
        variants.append(answer + "0" if "." in answer else answer + ".0")
    return rng.choice(variants)


def test_p4_metrics_match_brute_force():
    rng = Rng(424242)
    pool = ["alpha", "Beta", "15", "2.5", "Oslo", "two words"]

    for trial in range(1000):
        n = rng.randint(1, 40)
        truth_a, truth_b, correct_a, correct_b = [], [], [], []
        for i in range(n):
            answers = tuple({rng.choice(pool), rng.choice(pool)})
            for truth, correct in ((truth_a, correct_a), (truth_b, correct_b)):
                roll = rng.random()
                if roll < 0.45:  # correct by construction
                    truth.append(True)
                    prediction = _correct_variant(rng.choice(answers), rng)
                elif roll < 0.85:  # wrong by construction
                    truth.append(False)
                    prediction = f"wrong token {trial}-{i}"
                else:  # missing prediction counts as wrong
                    truth.append(False)
                    prediction = None
                correct.append(is_correct(prediction, answers))

        hits_a = sum(truth_a)
        hits_b = sum(truth_b)
        em_a = em(correct_a)
        em_b = em(correct_b)
        assert em_a == hits_a / n
        assert em_b == hits_b / n
        assert abs(em_a - hits_a / n) <= 1e-12  # tolerance bound, trivially met
        assert emd(em_b, em_a) == em_b - em_a

        flips = vp_from_correctness(zip(correct_a, correct_b))
        expect_c2w = sum(1 for a, b in zip(truth_a, truth_b) if a and not b)
        expect_w2c = sum(1 for a, b in zip(truth_a, truth_b) if not a and b)
        assert (flips["c2w"], flips["w2c"], flips["n"]) == (expect_c2w, expect_w2c, n)
        assert abs(flips["vp"] - (expect_c2w + expect_w2c) / n) <= 1e-12
        assert flips["vp_pct"] == 100.0 * flips["vp"]

        assert vp_from_correctness(zip(correct_a, correct_a))["vp"] == 0.0


# --- P5: every value edit is certified by re-running the aggregation oracle ----------


def test_p5_value_edits_certified(toy_instances):
    annotated = [i for i in toy_instances if i.aggregation is not None]
    start = time.perf_counter()
    changed = preserved = 0
    for inst in annotated:
        original = inst.answers[0]
        for seed in (0, 1, 2):
            out, record = apply_perturbation(inst, VALUE_AC, seed)
            rederived = evaluate_aggregation(out.table, out.aggregation)
            assert normalize_answer(rederived) != normalize_answer(original), (
                inst.id,
                seed,
            )
            assert out.answers == (record.params["new_answer"],)
            assert normalize_answer(rederived) == normalize_answer(out.answers[0])
            assert 1 <= len(record.params["edits"]) <= 2
            changed += 1

            out, record = apply_perturbation(inst, VALUE_NC, seed)
            rederived = evaluate_aggregation(out.table, out.aggregation)
            assert normalize_answer(rederived) == normalize_answer(original), (
                inst.id,
                seed,
            )
            assert out.answers == inst.answers
            assert out.table != inst.table
            assert 1 <= len(record.params["edits"]) <= 2
            preserved += 1
    elapsed = time.perf_counter() - start

    assert changed >= 500, f"only {changed} answer-changing edits produced"
    assert preserved >= 500, f"only {preserved} answer-preserving edits produced"
    assert elapsed < 10.0, f"value edits took {elapsed:.2f}s"


# --- P6: the faithful oracle is immune to rearrangement but not to blinding ----------


def test_p6_faithful_oracle_invariances(toy_path):
    report = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=STRUCTURE_KINDS + ("REMOVE_TABLE",),
            seeds=(0, 1, 2, 3, 4),
        )
    )
    assert report["original"]["em"] == 1.0
    structure = {k.lower() for k in STRUCTURE_KINDS}
    seen = Counter()
    for c in report["conditions"]:
        seen[c["kind"]] += 1
        if c["kind"] in structure:
            assert c["n"] > 0
            assert c["emd"] == 0.0, (c["kind"], c["seed"])
            assert c["vp"] == 0.0, (c["kind"], c["seed"])
        else:
            assert c["kind"] == "remove_table"
            assert c["em"] == 0.0, c["seed"]
    assert set(seen) == structure | {"remove_table"}
    assert all(count == 5 for count in seen.values())


# --- P7: displaced evidence exposes the positional reader, not the oracle ------------


def test_p7_row_bias_shows_up_as_gap(sorted_path):
    biased_config = RunConfig(
        dataset=sorted_path,
        kinds=("SHIFT_RELEVANT_ROWS",),
        seeds=(0, 1, 2, 3, 4),
        backend="reference:last_row_biased",
    )
    biased = run_pipeline(biased_config)
    for c in biased["conditions"]:
        assert c["gap"]["gap"] > 0.0, c["seed"]
        assert c["gap"]["noncompare"]["vp"] == 0.0, c["seed"]
    assert biased["kind_summaries"][0]["gap_mean"] > 0.0

    faithful = run_pipeline(
        RunConfig(
            dataset=sorted_path,
            kinds=("SHIFT_RELEVANT_ROWS",),
            seeds=(0, 1, 2, 3, 4),
        )
    )
    for c in faithful["conditions"]:
        assert c["gap"]["gap"] == 0.0, c["seed"]
        assert c["vp"] == 0.0

    again = run_pipeline(biased_config)
    assert report_to_json(again) == report_to_json(biased)


# --- P8: a table-blind constant answerer is caught and flagged -----------------------


def test_p8_constant_model_is_flagged(toy_path):
    report = run_pipeline(
        RunConfig(
            dataset=toy_path,
            kinds=("REMOVE_RELEVANT", "REMOVE_TABLE"),
            seeds=(0, 1),
            backend="reference:majority_answer:2019",
        )
    )
    ems = {c["em"] for c in report["conditions"]}
    assert len(ems) == 1, ems
    for c in report["conditions"]:
        assert c["n"] > 0
        assert c["em"] == c["em_original_paired"], (c["kind"], c["seed"])
        assert c["emd"] == 0.0
        assert c["vp"] == 0.0
    finding = report["findings"]["table_independence"]
    assert finding["flagged"] is True
    assert finding["kinds"] == ["remove_relevant", "remove_table"]


# --- P9: identical configs produce byte-identical report files -----------------------


def test_p9_cli_reports_byte_identical(tmp_path, toy_path):
    # Run the CLI in a fresh interpreter on the same source tree the tests
    # import, so no installed `freb` console script is needed.
    package_root = str(Path(freb.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    config = tmp_path / "run.cfg"
    config.write_text(
        f"dataset = {toy_path}\n"
        "kinds = shuffle_rows, remove_table, value_ac\n"
        "seeds = 0, 1, 2\n"
        "backend = reference:faithful_oracle\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "freb", "evaluate", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0].decode("utf-8"))  # and it is valid JSON


# --- P10: rule-based labels match a hand-checked suite; the secondary can only ------
# --- widen the reasoning set ---------------------------------------------------------

P10_TABLE = Table.from_values(
    ["Player", "City", "Points", "Rating"],
    [
        ["Amara", "Oslo", "31", "4.5"],
        ["Boden", "Kyoto", "24", "3.9"],
        ["Chika", "Lagos", "19", "4.1"],
        ["Dmitri", "Quito", "8", "2.2"],
    ],
)

# (question, answers, expected label) - 30 hand-checked cases
P10_CASES = [
    # answer present, no comparative cue -> EQ
    ("What city does Amara play in?", ("Oslo",), EQ),
    ("What is the rating of Boden?", ("3.9",), EQ),
    ("How many points did Chika score?", ("19",), EQ),
    ("Which player plays in Quito?", ("Dmitri",), EQ),
    ("What rating does Chika hold?", ("4.1",), EQ),
    ("State the points total recorded for Dmitri.", ("8",), EQ),
    ("Which city is home to Boden?", ("Kyoto",), EQ),
    ("Name the player from Lagos.", ("Chika",), EQ),
    ("What did Amara score?", ("31.0",), EQ),  # numeric normalization
    ("What is the rating of Amara?", ("4.50",), EQ),  # trailing zero
    ("In which city does Dmitri appear?", ("QUITO",), EQ),  # case folding
    ("What number of points does Boden have?", ("24",), EQ),  # "number" exception
    # comparative cue, answer still present -> RQ
    ("Who scored the most points?", ("Amara",), RQ),
    ("Which player has the lowest rating?", ("Dmitri",), RQ),
    ("Who is the strongest scorer?", ("Amara",), RQ),
    ("Which player is weaker, Boden or Chika?", ("Chika",), RQ),
    ("Who has the best rating?", ("Amara",), RQ),
    ("Which player scored fewer points, Boden or Chika?", ("Chika",), RQ),
    ("Who ranks higher, Amara or Dmitri?", ("Amara",), RQ),
    ("Which city hosts the biggest score?", ("Oslo",), RQ),
    ("Which player is taller, Amara or Boden?", ("Amara",), RQ),
    # answer absent from the table -> RQ regardless of phrasing
    ("What is the combined point total?", ("82",), RQ),
    ("How many players are listed from Oslo?", ("1",), RQ),
    ("What is the average rating?", ("3.675",), RQ),
    ("What is the point difference between Amara and Dmitri?", ("23",), RQ),
    ("How many cities are represented?", ("4",), RQ),
    ("What is the total of all ratings?", ("14.7",), RQ),
    ("How many players scored above 15 points?", ("3",), RQ),
    ("What is the sum of points for Boden and Chika?", ("43",), RQ),
    ("How many vowels are in the name Chika?", ("2",), RQ),
]


def test_p10_rule_labels_and_secondary_monotonicity():
    assert len(P10_CASES) == 30
    lexicon = ComparativeLexicon()
    instances = [
        QAInstance(id=f"p10-{i}", question=q, answers=a, table=P10_TABLE)
        for i, (q, a, _) in enumerate(P10_CASES)
    ]

    mismatches = [
        (inst.question, expected, classify_rule_based(inst, lexicon))
        for inst, (_, _, expected) in zip(instances, P10_CASES)
        if classify_rule_based(inst, lexicon) != expected
    ]
    assert mismatches == []

    class Always:
        """A fake secondary that answers ``label`` for every instance."""

        def __init__(self, label):
            self.label = label

        def predictions_for(self, condition, batch):
            return {inst.id: self.label for inst in batch}, {}

    always_eq, always_rq = Always(EQ), Always(RQ)
    labels_eq = [label for label, _ in classify_combined(instances, lexicon, always_eq)]
    labels_rq = [label for label, _ in classify_combined(instances, lexicon, always_rq)]

    for inst, (_, _, expected), under_eq, under_rq in zip(
        instances, P10_CASES, labels_eq, labels_rq, strict=True
    ):
        if expected == RQ:
            # rule-based RQ is final: no secondary opinion can soften it
            assert under_eq == RQ and under_rq == RQ, inst.question
        else:
            # rule-based EQ defers: the secondary can only keep or widen RQ
            assert under_eq == EQ, inst.question
            assert under_rq == RQ, inst.question

    rule_rq = {i.id for i in instances if classify_rule_based(i, lexicon) == RQ}
    for stub in (always_eq, always_rq):
        combined_rq = {
            i.id
            for i, (label, _) in zip(instances, classify_combined(instances, lexicon, stub))
            if label == RQ
        }
        assert combined_rq >= rule_rq
