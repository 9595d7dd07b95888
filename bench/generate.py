"""Input generator for the benchmark workloads.

Builds freb datasets (JSON Lines in the format the README documents) from a
workload seed, with gold answers computed here by exact rational arithmetic,
never by freb's own oracle.  Nothing in this module imports freb.

Two sets:

- ``mixed``: toy-like instances on 4-9-row tables, cycling through
  extraction lookups and all seven aggregation kinds.
- ``wide``: the same question kinds on tables of hundreds of rows and
  twelve columns.

Guarantees the checks and the stand-in model rely on: every question is
unique in its set; every COUNT answer is at least 1; every numeral the
generator writes has at most six digits, so no aggregate reaches freb's
28-digit decimal context; extremal and compared values are distinct, so no
generated instance ties; no cell or answer reads "None", the text of freb's
removed-table placeholder.

Run as a script to write a set: ``python bench/generate.py mixed 7 500 out.jsonl``.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

EQ, RQ = "EQ", "RQ"
ARGMAX, ARGMIN, COUNT, SUM, AVG, DIFF, COMPARE_TWO = (
    "ARGMAX", "ARGMIN", "COUNT", "SUM", "AVG", "DIFF", "COMPARE_TWO"
)

# freb's perturbation kinds, as its README lists them.
STRUCTURE_KINDS = (
    "shuffle_rows", "shuffle_cols", "target_row_top", "target_row_middle",
    "target_row_bottom", "target_col_front", "target_col_back", "transpose",
)
RELEVANCE_KINDS = ("remove_relevant", "remove_table", "shift_relevant_rows")
VALUE_KINDS = ("value_ac", "value_nc", "shortened")
ALL_KINDS = STRUCTURE_KINDS + RELEVANCE_KINDS + VALUE_KINDS

# One 25-instance block of the mixed set, in the proportions of freb's
# bundled toy set: a third extraction lookups, the rest every aggregation.
MIXED_SCHEDULE = (
    [EQ] * 8 + [ARGMAX] * 4 + [ARGMIN] * 3
    + [COUNT, COUNT, SUM, SUM, AVG, AVG, DIFF, DIFF, COMPARE_TWO, COMPARE_TWO]
)
# The wide set leans towards aggregations, whose oracle reads every row.
WIDE_SCHEDULE = [EQ, EQ, EQ, ARGMAX, ARGMIN, COUNT, SUM, AVG, DIFF, COMPARE_TWO]
# Table heights cycle with the instance's position, so the seed changes a
# set's content but not its size.  Wide heights have no prime factor but 2
# and 5, so every mean terminates.
MIXED_ROWS = (4, 5, 6, 7, 8, 9)
WIDE_ROWS = (160, 200, 250)

_FIRST = (
    "Red", "Blue", "Green", "Gold", "Silver", "Iron", "Stone", "River", "North",
    "South", "East", "West", "Storm", "Frost", "Sun", "Moon", "Star", "Oak",
    "Pine", "Ash", "Wolf", "Bear", "Hawk", "Fox", "Lion",
)
_SECOND = (
    "Rovers", "Rangers", "United", "City", "Athletic", "Wanderers", "Stars",
    "Giants", "Falcons", "Tigers", "Comets", "Pilots", "Miners", "Sailors",
    "Knights", "Royals", "Hornets", "Owls", "Bulls", "Jets",
)
_GIVEN = (
    "Ada", "Ben", "Cleo", "Dev", "Edda", "Finn", "Gia", "Hugo", "Ines", "Jon",
    "Kira", "Liam", "Mona", "Nils", "Oona", "Pia", "Quin", "Rui", "Sana", "Tom",
    "Una", "Vik", "Wren", "Xena", "Yuri", "Zoe",
)
_FAMILY = (
    "Abbott", "Berg", "Costa", "Dahl", "Ekman", "Ferro", "Grant", "Holm", "Iver",
    "Jansen", "Kovac", "Lund", "Moretti", "Novak", "Ortiz", "Pahl", "Quist",
    "Rossi", "Sato", "Toth", "Ueda", "Varga", "Weiss", "Young", "Zeller",
)
_ARENA = (
    "Park", "Field", "Arena", "Dome", "Ground", "Bowl", "Stadium", "Court",
)
CITIES = (
    "Oslo", "Lima", "Cairo", "Quito", "Perth", "Dakar", "Hanoi", "Riga", "Bern",
    "Turin", "Porto", "Kyoto", "Accra", "Minsk", "Tunis", "Sofia", "Lyon",
    "Malmo", "Gent", "Graz",
)
_REGIONS = ("Coastal", "Highland", "Central", "Valley", "Border", "Lakeside")

TEAMS = tuple(f"{a} {b}" for a in _FIRST for b in _SECOND)
PEOPLE = tuple(f"{a} {b}" for a in _GIVEN for b in _FAMILY)
ARENAS = tuple(f"{a} {b}" for a in _FAMILY + _GIVEN for b in _ARENA)


# ---- exact arithmetic ---------------------------------------------------

_NUMERAL = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def exact_number(text: str) -> Fraction | None:
    """The exact value of a plain numeral ("1,204", "-3.50"), else None."""
    s = text.strip().replace(",", "")
    if not _NUMERAL.fullmatch(s):
        return None
    return Fraction(s)


def decimal_text(value: Fraction) -> str:
    """Shortest plain decimal for a value whose expansion terminates."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no terminating decimal expansion")
    places = max(twos, fives)
    scaled = abs(value.numerator) * 10**places // value.denominator
    digits = str(scaled).rjust(places + 1, "0")
    whole, frac = digits[: len(digits) - places], digits[len(digits) - places :]
    frac = frac.rstrip("0")
    text = whole + ("." + frac if frac else "")
    return ("-" if value < 0 else "") + text


def match_key(text: str) -> str:
    """The comparison key of a cell or answer: case and whitespace folded,
    numerals compared by value (the normalization freb's README states)."""
    value = exact_number(text)
    if value is not None:
        return "#" + str(value)
    return " ".join(text.split()).lower()


def exact_answer(headers, rows, agg) -> tuple[str, Fraction | None]:
    """Gold answer of an aggregation over a grid of strings.

    Returns the answer text and, for numeric answers, the exact value
    (which may not terminate, e.g. a mean over three rows).  Raises
    ValueError on a tie or an unreadable operand.
    """
    kind, value_col = agg["kind"], agg["value_col"]

    def number(r, c):
        value = exact_number(rows[r][c])
        if value is None:
            raise ValueError(f"cell ({r}, {c}) is not a number: {rows[r][c]!r}")
        return value

    if kind in (ARGMAX, ARGMIN):
        values = [number(r, value_col) for r in range(len(rows))]
        best = max(values) if kind == ARGMAX else min(values)
        hits = [r for r, v in enumerate(values) if v == best]
        if len(hits) != 1:
            raise ValueError(f"{kind} tie in rows {hits}")
        return rows[hits[0]][agg["label_col"]], None
    if kind == COUNT:
        col, needle = agg["filter"]["col"], agg["filter"]["value"]
        n = sum(1 for row in rows if match_key(row[col]) == match_key(needle))
        return str(n), Fraction(n)
    if kind in (SUM, AVG):
        total = sum((number(r, value_col) for r in range(len(rows))), Fraction(0))
        value = total if kind == SUM else total / len(rows)
        return _text_or_blank(value), value
    (ar, ac), (br, bc) = agg["operands"]
    a, b = number(ar, ac), number(br, bc)
    if kind == DIFF:
        return _text_or_blank(a - b), a - b
    if a == b:
        raise ValueError("COMPARE_TWO operands are equal")
    return rows[ar if a > b else br][agg["label_col"]], None


def _text_or_blank(value: Fraction) -> str:
    try:
        return decimal_text(value)
    except ValueError:
        return ""


# ---- instances ----------------------------------------------------------


class _SetMaker:
    """Draws one set's instances; ``tag`` makes every question unique."""

    def __init__(self, seed: int, wide: bool):
        self.rng = random.Random(f"freb-bench|{seed}|{'wide' if wide else 'mixed'}")
        self.wide = wide

    def distinct_ints(self, n: int, lo: int, hi: int) -> list[int]:
        return self.rng.sample(range(lo, hi + 1), n)

    def table(self, n: int, lookup: bool):
        """Teams with a unique name, arena and points each; points never
        collide with any other numeric column."""
        rng = self.rng
        teams = rng.sample(TEAMS, n)
        if not self.wide:
            if lookup:
                coaches = rng.sample(PEOPLE, n)
                points = self.distinct_ints(n, 5, 40000)
                headers = ["Team", "City", "Points", "Coach"]
                grid = [
                    [teams[r], rng.choice(CITIES), _grouped(points[r]), coaches[r]]
                    for r in range(n)
                ]
                return headers, grid
            points = self.distinct_ints(n, 3, 999)
            headers = ["Team", "City", "Points"]
            return headers, [[teams[r], rng.choice(CITIES), str(points[r])] for r in range(n)]
        headers = [
            "Team", "City", "Coach", "Arena", "Points", "Wins", "Losses", "Goals",
            "Assists", "Rating", "Region", "Founded",
        ]
        coaches = rng.sample(PEOPLE, n)
        arenas = rng.sample(ARENAS, n)
        points = self.distinct_ints(n, 100000, 999999)
        grid = []
        for r in range(n):
            grid.append([
                teams[r],
                rng.choice(CITIES),
                coaches[r],
                arenas[r],
                str(points[r]),
                str(rng.randint(0, 60)),
                str(rng.randint(0, 60)),
                str(rng.randint(0, 999)),
                str(rng.randint(0, 999)),
                f"{rng.randint(10, 99)}.{rng.randint(0, 9)}",
                rng.choice(_REGIONS),
                str(rng.randint(1870, 2020)),
            ])
        return headers, grid

    def instance(self, kind: str, index: int) -> dict:
        rng = self.rng
        heights = WIDE_ROWS if self.wide else MIXED_ROWS
        n = heights[index % len(heights)]
        tag = f"{index:05d}"
        if kind == EQ:
            headers, grid = self.table(n, lookup=True)
            r = rng.randrange(n)
            team = grid[r][0]
            if self.wide:
                col, question = rng.choice((
                    (2, f"Who coaches the {team} in league {tag}?"),
                    (3, f"What is the home ground of the {team} in league {tag}?"),
                    (4, f"How many points did the {team} collect in league {tag}?"),
                ))
            else:
                col, question = rng.choice((
                    (2, f"How many points did the {team} score in league {tag}?"),
                    (3, f"Who coaches the {team} in league {tag}?"),
                ))
            return _record(tag, question, grid[r][col], headers, grid, EQ)

        if kind in (ARGMAX, ARGMIN):
            headers, grid = self.table(n, lookup=False)
            value_col = headers.index("Points")
            agg = {"kind": kind, "value_col": value_col, "label_col": 0}
            word = "highest number of" if kind == ARGMAX else "fewest"
            question = f"Which team scored the {word} points in league {tag}?"
            answer, _ = exact_answer(headers, grid, agg)
            row = [g[0] for g in grid].index(answer)
            cells = [[row, 0], [row, value_col]]
            return _record(tag, question, answer, headers, grid, RQ, cells, agg)

        if kind == COUNT:
            headers, grid = self.table(n, lookup=False)
            city_col = headers.index("City")
            needle = grid[rng.randrange(n)][city_col]
            if not self.wide:
                # Small tables: force one to three matches.
                others = [c for c in CITIES if c != needle]
                hits = set(rng.sample(range(n), rng.randint(1, min(3, n))))
                for r in range(n):
                    grid[r][city_col] = needle if r in hits else rng.choice(others)
            agg = {
                "kind": COUNT, "value_col": city_col, "label_col": 0,
                "filter": {"col": city_col, "value": needle},
            }
            answer, _ = exact_answer(headers, grid, agg)
            cells = [[r, city_col] for r in range(n) if grid[r][city_col] == needle]
            question = f"How many teams of league {tag} play in {needle}?"
            return _record(tag, question, answer, headers, grid, RQ, cells, agg)

        if kind in (SUM, AVG):
            if self.wide:
                headers, grid = self.table(n, lookup=False)
                value_col = headers.index("Goals" if kind == SUM else "Rating")
            else:
                names = rng.sample(TEAMS if kind == SUM else PEOPLE, n)
                values = [rng.randint(0, 300) for _ in range(n)]
                if kind == AVG:
                    # Nudge the last score until the mean terminates.
                    while not _text_or_blank(Fraction(sum(values), n)):
                        values[-1] += 1
                    headers = ["Student", "Score"]
                else:
                    headers = ["Team", "Goals"]
                grid = [[names[r], str(values[r])] for r in range(n)]
                value_col = 1
            agg = {"kind": kind, "value_col": value_col, "label_col": 0}
            answer, _ = exact_answer(headers, grid, agg)
            if kind == SUM:
                question = f"How many goals did the teams of league {tag} score in total?"
            else:
                noun = "rating of the teams" if self.wide else "score of the students"
                question = f"What is the average {noun} in league {tag}?"
            cells = [[r, value_col] for r in range(n)]
            return _record(tag, question, answer, headers, grid, RQ, cells, agg)

        # DIFF and COMPARE_TWO read two cells of one column.
        if self.wide:
            headers, grid = self.table(n, lookup=False)
            value_col = headers.index("Goals" if kind == DIFF else "Points")
        else:
            names = rng.sample(PEOPLE, n)
            values = self.distinct_ints(n, 1, 500)
            headers = ["Player", "Goals" if kind == DIFF else "Points"]
            grid = [[names[r], str(values[r])] for r in range(n)]
            value_col = 1
        a, b = rng.sample(range(n), 2)
        agg = {
            "kind": kind, "value_col": value_col, "label_col": 0,
            "operands": [[a, value_col], [b, value_col]],
        }
        answer, _ = exact_answer(headers, grid, agg)
        x, y = grid[a][0], grid[b][0]
        if kind == DIFF:
            question = f"What is the difference in goals between {x} and {y} in league {tag}?"
        else:
            question = f"Who scored more points, {x} or {y}, in league {tag}?"
        cells = [[a, 0], [a, value_col], [b, 0], [b, value_col]]
        return _record(tag, question, answer, headers, grid, RQ, cells, agg)


def _grouped(value: int) -> str:
    """Thousands separators on some lookups, so normalization has work."""
    return f"{value:,}" if value >= 10000 else str(value)


def _record(tag, question, answer, headers, grid, qtype, cells=None, agg=None) -> dict:
    record = {
        "id": f"i{tag}",
        "question": question,
        "answers": [answer],
        "table": {"headers": headers, "rows": grid},
        "question_type": qtype,
    }
    if cells is not None:
        record["relevant_cells"] = cells
    if agg is not None:
        record["aggregation"] = agg
    return record


def build(set_name: str, seed: int, n: int) -> list[dict]:
    """``n`` instances of the ``mixed`` or ``wide`` set for ``seed``."""
    if set_name not in ("mixed", "wide"):
        raise ValueError(f"unknown set {set_name!r}")
    wide = set_name == "wide"
    schedule = WIDE_SCHEDULE if wide else MIXED_SCHEDULE
    maker = _SetMaker(seed, wide)
    return [
        maker.instance(schedule[i % len(schedule)], i) for i in range(n)
    ]


def skip_tally(records: list[dict]) -> dict[str, dict[str, int]]:
    """Per kind, the NotEligible and MissingAnnotation skips freb must
    report, from the eligibility rules its README states: structure kinds
    take extraction questions, the removal probes reasoning questions,
    row shifting needs relevant cells and value kinds a descriptor."""
    n_eq = sum(1 for r in records if r["question_type"] == EQ)
    n_rq = sum(1 for r in records if r["question_type"] == RQ)
    no_cells = sum(1 for r in records if not r.get("relevant_cells"))
    no_agg = sum(1 for r in records if r.get("aggregation") is None)
    tally = {}
    for kind in STRUCTURE_KINDS:
        tally[kind] = {"NotEligible": n_rq, "MissingAnnotation": 0}
    for kind in ("remove_relevant", "remove_table"):
        tally[kind] = {"NotEligible": n_eq, "MissingAnnotation": 0}
    tally["shift_relevant_rows"] = {"NotEligible": 0, "MissingAnnotation": no_cells}
    for kind in VALUE_KINDS:
        tally[kind] = {"NotEligible": 0, "MissingAnnotation": no_agg}
    return tally


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit("usage: generate.py mixed|wide SEED COUNT OUT.jsonl")
    write_jsonl(build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])), sys.argv[4])
