"""Output checks, computed apart from freb.

Each check compares a run's output with the generator's own gold answers,
or with a property the method must have.  None compares with a stored copy
of an earlier output.  A check returns a ``Verdict``: the problems found
and how many operations they touch, where an operation is one (instance,
condition) pair the run was asked for.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from generate import ALL_KINDS, exact_answer, exact_number, match_key, skip_tally

# What each kind must do to the scored answers: keep Em at 1 with no flips,
# lose every answer (Em 0), or change every answer (Em 0, VP 1).
KEEP, LOSE, CHANGE = "keep", "lose", "change"
ORACLE_EXPECT = {kind: KEEP for kind in ALL_KINDS} | {
    "remove_relevant": LOSE, "remove_table": LOSE,
}
STANDIN_EXPECT = {kind: KEEP for kind in ALL_KINDS} | {"value_ac": CHANGE}
REMOVAL_KINDS = ("remove_relevant", "remove_table")


class Verdict:
    def __init__(self):
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, operations: int, problem: str) -> None:
        self.failed += max(1, operations)
        self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_report(report, records, seeds, expect, flagged, standin=None) -> Verdict:
    """Check an ``evaluate`` report against the generated instances.

    ``expect`` maps each kind to KEEP, LOSE or CHANGE; ``flagged`` is the
    table-independence finding the model must produce; ``standin`` holds
    the stand-in model's request counts, when there is one.
    """
    v = Verdict()
    n_total = len(records)
    ids = {r["id"] for r in records}
    tally = skip_tally(records)
    if report["n_loaded"] != n_total or report["n_scored"] != n_total:
        v.fail(abs(n_total - report["n_scored"]),
               f"loaded {report['n_loaded']} / scored {report['n_scored']} of {n_total}")
    n_scored = report["n_scored"]
    original = report["original"]
    wrong = round((1 - original["em"]) * original["n"])
    if original["n"] != n_scored or wrong:
        v.fail(wrong + abs(n_scored - original["n"]),
               f"original: Em {original['em']} over {original['n']} of {n_scored}")

    conditions = {}
    for c in report["conditions"]:
        key = (c["kind"], c["seed"])
        if key in conditions:
            v.fail(c["n"], f"condition {key} reported twice")
        conditions[key] = c
    for kind in ALL_KINDS:
        for seed in seeds:
            c = conditions.get((kind, seed))
            if c is None:
                v.fail(n_scored, f"{kind} seed {seed}: no condition in the report")
                continue
            where = f"{kind} seed {seed}"
            skipped = c["skipped"]
            unaccounted = n_scored - c["n"] - len(skipped)
            if unaccounted:
                v.fail(abs(unaccounted),
                       f"{where}: n {c['n']} + skipped {len(skipped)} != n_scored {n_scored}")
            skip_ids = [s["id"] for s in skipped]
            stray = len(skip_ids) - len(set(skip_ids) & ids)
            if stray:
                v.fail(stray, f"{where}: {stray} skip entries repeat or name unknown ids")
            reasons = Counter(s["reason"] for s in skipped)
            for reason, want in tally[kind].items():
                if reasons[reason] != want:
                    v.fail(abs(reasons[reason] - want),
                           f"{where}: {reasons[reason]} {reason} skips, generator says {want}")
            n = c["n"]
            if n == 0:
                continue
            em, c2w, w2c = c["em"], c["c2w"], c["w2c"]
            if expect[kind] == KEEP:
                bad = max(round((1 - em) * n), c2w + w2c)
            elif expect[kind] == LOSE:
                bad = round(em * n)
            else:
                bad = max(round(em * n), n - c2w)
            if bad:
                v.fail(bad, f"{where}: Em {em}, VP {c['vp']} break '{expect[kind]}'")

    finding = report["findings"]["table_independence"]["flagged"]
    if finding != flagged:
        removal = sum(c["n"] for c in report["conditions"] if c["kind"] in REMOVAL_KINDS)
        v.fail(removal, f"table_independence flagged={finding}, expected {flagged}")

    if standin is not None:
        bound = n_scored + sum(c["n"] for c in report["conditions"])
        requests, distinct = standin["requests"], standin["distinct_inputs"]
        excess = max(requests - bound, distinct - requests)
        if excess > 0:
            v.fail(excess, f"stand-in saw {requests} requests, {distinct} distinct; bound {bound}")
    return v


# ---- perturb output -----------------------------------------------------


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_perturb_dir(outdir, records, seeds) -> Verdict:
    """Check the files ``freb perturb`` wrote against the generated set."""
    v = Verdict()
    outdir = Path(outdir)
    by_id = {r["id"]: r for r in records}
    skips_path = outdir / "skipped.jsonl"
    skipped = read_jsonl(skips_path) if skips_path.exists() else []
    skip_count = Counter((s["kind"], s["seed"]) for s in skipped)
    for kind in ALL_KINDS:
        for seed in seeds:
            path = outdir / f"{kind}.seed{seed}.jsonl"
            written = read_jsonl(path) if path.exists() else []
            total = len(written) + skip_count[(kind, seed)]
            if total != len(records):
                v.fail(abs(total - len(records)),
                       f"{kind} seed {seed}: {len(written)} records + "
                       f"{skip_count[(kind, seed)]} skips != {len(records)} instances")
            for record in written:
                source = by_id.get(record.get("provenance", {}).get("source_id"))
                problem = ("no source instance" if source is None
                           else check_perturbed(kind, source, record))
                if problem:
                    v.fail(1, f"{kind} seed {seed} {record.get('id')}: {problem}")
    return v


def _cells(record):
    return record["table"]["headers"], record["table"]["rows"]


def _find(rows, answer):
    key = match_key(answer)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            if match_key(cell) == key:
                return r, c
    return None


def _part(n: int, parts: int, index: int) -> range:
    """The index-th of ``parts`` contiguous near-equal ranges over n items,
    the remainder going to the front ones."""
    base, extra = divmod(n, parts)
    start = index * base + min(index, extra)
    return range(start, start + base + (1 if index < extra else 0))


_ROW_PART = {"target_row_top": 0, "target_row_middle": 1, "target_row_bottom": 2}
_COL_PART = {"target_col_front": 0, "target_col_back": 1}


def answers_match(text: str, value: Fraction | None, got: str) -> bool:
    """Whether ``got`` is the exact answer; a mean with no terminating
    decimal must agree to the 28 significant digits freb computes with."""
    number = exact_number(got)
    if value is not None and number is not None:
        if text:
            return number == value
        return abs(number - value) <= abs(value) / 10**26
    return match_key(text) == match_key(got)


def check_perturbed(kind: str, source: dict, record: dict) -> str | None:
    """The first property ``record`` breaks as a ``kind`` perturbation of
    ``source``, or None."""
    if record["question"] != source["question"]:
        return "question changed"
    headers, rows = _cells(source)
    new_headers, new_rows = _cells(record)
    gold = source["answers"][0]

    if kind == "transpose":
        if (len(new_rows), len(new_headers)) != (len(headers), len(rows) + 1):
            return (f"shape {len(new_rows)}x{len(new_headers)} is not the swap "
                    f"of {len(rows)}x{len(headers)}")
        for c, header in enumerate(headers):
            if new_rows[c] != [header] + [row[c] for row in rows]:
                return f"column {c} did not become row {c}"
        return None
    if kind in _ROW_PART or kind in _COL_PART or kind in ("shuffle_rows", "shuffle_cols"):
        if sorted(new_headers) != sorted(headers):
            return "header multiset changed"
        if sorted(x for row in new_rows for x in row) != sorted(x for row in rows for x in row):
            return "cell multiset changed"
        if record["answers"] != source["answers"]:
            return "answers changed"
        before, after = _find(rows, gold), _find(new_rows, gold)
        if after is None:
            return "answer cell lost"
        if sorted(new_rows[after[0]]) != sorted(rows[before[0]]):
            return "answer cell moved to another row"
        if kind in _ROW_PART and after[0] not in _part(len(rows), 3, _ROW_PART[kind]):
            return f"answer row {after[0]} outside its third of {len(rows)} rows"
        if kind in _COL_PART and after[1] not in _part(len(headers), 2, _COL_PART[kind]):
            return f"answer column {after[1]} outside its half of {len(headers)} columns"
        return None
    if kind == "remove_relevant":
        blanked = {tuple(cell) for cell in source["relevant_cells"]}
        if new_headers != headers or len(new_rows) != len(rows):
            return "shape changed"
        for r, (row, new_row) in enumerate(zip(rows, new_rows)):
            for c, (cell, new_cell) in enumerate(zip(row, new_row)):
                want = "" if (r, c) in blanked else cell
                if new_cell != want:
                    return f"cell ({r}, {c}) is {new_cell!r}, expected {want!r}"
        return None
    if kind == "remove_table":
        return None if (new_headers, new_rows) == (["None"], [["None"]]) else "table not replaced"
    if kind == "shift_relevant_rows":
        return None if sorted(new_rows) == sorted(rows) else "row multiset changed"

    agg = source["aggregation"] if kind != "shortened" else record["aggregation"]
    try:
        text, value = exact_answer(new_headers, new_rows, agg)
    except ValueError as exc:
        return f"aggregation unreadable: {exc}"
    if kind == "value_ac":
        new = record["answers"][0]
        if record["provenance"]["params"].get("new_answer") != new:
            return "recorded new answer differs from the record's answer"
        if not answers_match(text, value, new):
            return f"table gives {text or value}, record says {new!r}"
        if match_key(new) == match_key(gold):
            return f"answer did not change from {gold!r}"
        return None
    if not answers_match(text, value, gold):
        return f"table gives {text or value}, gold is {gold!r}"
    return None
