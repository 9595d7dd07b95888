"""Deterministic synthetic datasets for self-testing the harness.

Two sets are generated (``freb toydata`` writes either one as JSONL):

* the main set — extraction questions plus reasoning questions covering
  every aggregation kind;
* the sorted set — tables ordered by their value column so the extremal row
  is always last, which lets positionally biased readers look competent
  until the relevant rows are moved.

Every reasoning question goes through ``_reasoning``, the one builder that
takes its gold answer from the same executable oracle the faithful
reference model uses and checks the instance; each generator only draws a
table, a descriptor and the relevant cells.  Everything is derived from
fixed seeds; regenerating produces identical files byte for byte.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    ARGMAX,
    ARGMIN,
    AVG,
    COMPARE_TWO,
    COUNT,
    DIFF,
    EQ,
    RQ,
    SUM,
    AggregationDescriptor,
    CellCoord,
    QAInstance,
    Table,
    validate,
)
from .perturb import evaluate_aggregation
from .rng import Rng, derive_seed

GLOBAL_SEED = 716253

TEAMS = (
    "Avalanche", "Barracudas", "Comets", "Dragons", "Emus", "Falcons",
    "Gophers", "Harriers", "Ibises", "Jackals", "Kestrels", "Lynxes",
    "Mavericks", "Nomads", "Orcas", "Pumas", "Quasars", "Ravens",
    "Stingrays", "Titans",
)
CITIES = (
    "Auckland", "Bergen", "Cusco", "Davao", "Esbjerg", "Fresno", "Galway",
    "Haarlem", "Izmir", "Jaipur", "Kigali", "Lagos", "Medellin", "Nagoya",
    "Odense", "Porto", "Quito", "Riga", "Salem", "Tartu",
)
PEOPLE = (
    "Alva Reyes", "Bram Kowalski", "Cleo Mbeki", "Dara Lindqvist",
    "Eitan Moreau", "Farah Okafor", "Gus Tanaka", "Hana Petrov",
    "Ines Duarte", "Jonas Virtanen", "Kiri Haddad", "Liam Quirke",
    "Mireia Fontana", "Nadia Castellanos", "Otto Jansen", "Priya Raman",
    "Quentin Ba", "Rosa Michaels", "Senna Ozturk", "Tove Eriksen",
    "Umar Diallo", "Vera Antonelli", "Wanda Kim", "Yusuf Grant",
)
COACHES = (
    "Ahn", "Bergstrom", "Costa", "Dimitrov", "Egede", "Fierro", "Grahn",
    "Hoxha", "Iqbal", "Jelinek", "Kanu", "Laursen", "Marchetti", "Nakamura",
    "Oyelaran", "Pires",
)


def _rng(tag: str) -> Rng:
    return Rng(derive_seed(GLOBAL_SEED, tag, "toydata"))


def _sample(rng: Rng, pool, k: int) -> list:
    items = list(pool)
    rng.shuffle(items)
    return items[:k]


def _unique_ints(rng: Rng, lo: int, hi: int, k: int) -> list[int]:
    return _sample(rng, range(lo, hi), k)


def _table(headers, *columns) -> Table:
    """A table whose columns are the given equal-length value lists."""
    return Table.from_values(headers, zip(*columns))


def _finish(instance: QAInstance) -> QAInstance:
    problems = validate(instance)
    if problems:
        raise AssertionError(f"generator bug on {instance.id}: {problems}")
    return instance


def _reasoning(iid, question, table, agg, relevant, source="toy") -> QAInstance:
    """A checked reasoning instance whose gold answer is the oracle's."""
    return _finish(
        QAInstance(
            id=iid,
            question=question,
            answers=(evaluate_aggregation(table, agg),),
            table=table,
            question_type=RQ,
            relevant_cells=tuple(relevant),
            aggregation=agg,
            source=source,
        )
    )


def _eq_instances() -> Iterator[QAInstance]:
    for i in range(80):
        rng = _rng(f"eq-{i}")
        n = rng.randint(4, 9)
        teams = _sample(rng, TEAMS, n)
        cities = _sample(rng, CITIES, n)
        points = _unique_ints(rng, 5, 199, n)
        coaches = _sample(rng, COACHES, n)
        table = _table(["Team", "City", "Points", "Coach"], teams, cities, points, coaches)
        row = rng.randrange(0, n)
        variant = i % 3
        if variant == 0:
            question = f"What city does the {teams[row]} team play in?"
            answer = cities[row]
        elif variant == 1:
            question = f"How many points did the {teams[row]} score?"
            answer = str(points[row])
        else:
            question = f"Who coaches the {teams[row]}?"
            answer = coaches[row]
        yield _finish(
            QAInstance(
                id=f"toy-eq-{i:03d}",
                question=question,
                answers=(answer,),
                table=table,
                question_type=EQ,
                source="toy",
            )
        )


def _extremal_instances(kind: str, count: int, prefix: str) -> Iterator[QAInstance]:
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 9)
        teams = _sample(rng, TEAMS, n)
        cities = _sample(rng, CITIES, n)
        points = _unique_ints(rng, 3, 180, n)
        row = points.index(max(points) if kind == ARGMAX else min(points))
        if kind == ARGMAX:
            question = "Which team scored the highest number of points?"
        else:
            question = "Which team scored the fewest points?"
        yield _reasoning(
            f"toy-{prefix}-{i:03d}",
            question,
            _table(["Team", "City", "Points"], teams, cities, points),
            AggregationDescriptor(kind=kind, value_col=2, label_col=0),
            (CellCoord(row, 0), CellCoord(row, 2)),
        )


def _year_instances() -> Iterator[QAInstance]:
    for i in range(15):
        rng = _rng(f"years-{i}")
        n = rng.randint(5, 8)
        years = sorted(_sample(rng, [str(y) for y in range(2012, 2024)], n))
        wins = _unique_ints(rng, 1, 60, n)
        if i < 10:
            # Pin the winning season to 2019 for a block of instances so a
            # constant-answer model scores well above zero on this slice.
            if "2019" not in years:
                years[rng.randrange(0, n)] = "2019"
                years.sort()
            top = wins.index(max(wins))
            target = years.index("2019")
            wins[top], wins[target] = wins[target], wins[top]
        row = wins.index(max(wins))
        yield _reasoning(
            f"toy-years-{i:03d}",
            "In which year did the club record the most wins?",
            _table(["Year", "Wins"], years, wins),
            AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0),
            (CellCoord(row, 0), CellCoord(row, 1)),
        )


def _count_instances(
    tag: str,
    id_prefix: str,
    count: int,
    *,
    names,
    groups,
    values: tuple[int, int],
    ordered: bool,
    headers: list[str],
    question: str,
    source: str,
) -> Iterator[QAInstance]:
    """COUNT questions over a group column in which the asked-about group
    fills two or three rows; ``values`` bounds the third column's distinct
    integers, sorted ascending when ``ordered``."""
    for i in range(count):
        rng = _rng(f"{tag}-{i}")
        n = rng.randint(5, 9)
        m = rng.randint(2, 3)
        labels = _sample(rng, names, n)
        pool = _sample(rng, groups, n - m + 1)
        needle = pool[0]
        group_col = [needle] * m + pool[1:]
        rng.shuffle(group_col)
        numbers = _unique_ints(rng, *values, n)
        if ordered:
            numbers.sort()
        yield _reasoning(
            f"{id_prefix}-{i:03d}",
            question.format(needle),
            _table(headers, labels, group_col, numbers),
            AggregationDescriptor(kind=COUNT, value_col=1, label_col=0, filter=(1, needle)),
            [CellCoord(r, 1) for r in range(n) if group_col[r] == needle],
            source,
        )


def _sum_avg_instances(kind: str, count: int, prefix: str) -> Iterator[QAInstance]:
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 8)
        names = _sample(rng, PEOPLE if kind == AVG else TEAMS, n)
        values = [rng.randint(0, 30) for _ in range(n)]
        if kind == AVG and i % 2 == 0:
            values[-1] += (-sum(values)) % n  # make half the means exact
        if kind == SUM:
            headers, question = ["Team", "Goals"], "How many goals did the teams score in total?"
        else:
            headers, question = ["Student", "Score"], "What is the average score of the students?"
        yield _reasoning(
            f"toy-{prefix}-{i:03d}",
            question,
            _table(headers, names, values),
            AggregationDescriptor(kind=kind, value_col=1, label_col=0),
            [CellCoord(r, 1) for r in range(n)],
        )


def _pairwise_instances(kind: str, count: int, prefix: str) -> Iterator[QAInstance]:
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 8)
        players = _sample(rng, PEOPLE, n)
        values = _unique_ints(rng, 1, 80, n)
        a, b = _sample(rng, range(n), 2)
        if kind == DIFF:
            question = f"What is the difference in goals between {players[a]} and {players[b]}?"
        else:
            question = f"Who scored more points, {players[a]} or {players[b]}?"
        yield _reasoning(
            f"toy-{prefix}-{i:03d}",
            question,
            _table(["Player", "Goals" if kind == DIFF else "Points"], players, values),
            AggregationDescriptor(
                kind=kind,
                value_col=1,
                label_col=0,
                operands=(CellCoord(a, 1), CellCoord(b, 1)),
            ),
            (CellCoord(a, 0), CellCoord(a, 1), CellCoord(b, 0), CellCoord(b, 1)),
        )


def build_toy_dataset() -> list[QAInstance]:
    """Main synthetic set: 250 instances, every aggregation kind covered."""
    return _check_ids(
        [
            *_eq_instances(),
            *_extremal_instances(ARGMAX, 25, "argmax"),
            *_year_instances(),
            *_extremal_instances(ARGMIN, 25, "argmin"),
            *_count_instances(
                "count", "toy-count", 25, names=TEAMS, groups=CITIES, values=(5, 199),
                ordered=False, headers=["Team", "City", "Points"],
                question="How many teams play in {}?", source="toy",
            ),
            *_sum_avg_instances(SUM, 20, "sum"),
            *_sum_avg_instances(AVG, 20, "avg"),
            *_pairwise_instances(DIFF, 20, "diff"),
            *_pairwise_instances(COMPARE_TWO, 20, "compare"),
        ]
    )


def _sorted_extremal(kind: str, count: int, prefix: str) -> Iterator[QAInstance]:
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(5, 9)
        players = _sample(rng, PEOPLE, n)
        values = sorted(_unique_ints(rng, 1, 120, n), reverse=(kind == ARGMIN))
        # Ascending for ARGMAX, descending for ARGMIN: the answer row is
        # always the last one, so a last-row reader starts out looking right.
        yield _reasoning(
            f"sorted-{prefix}-{i:03d}",
            f"Which player has the {'highest' if kind == ARGMAX else 'lowest'} score?",
            _table(["Player", "Score"], players, values),
            AggregationDescriptor(kind=kind, value_col=1, label_col=0),
            (CellCoord(n - 1, 0), CellCoord(n - 1, 1)),
            "toy-sorted",
        )


def build_sorted_dataset() -> list[QAInstance]:
    """Sorted-table set: superlative questions whose answer row is last,
    plus count questions as the non-comparative control group."""
    return _check_ids(
        [
            *_sorted_extremal(ARGMAX, 15, "argmax"),
            *_sorted_extremal(ARGMIN, 15, "argmin"),
            *_count_instances(
                "sorted-count", "sorted-count", 30, names=PEOPLE, groups=TEAMS, values=(1, 120),
                ordered=True, headers=["Player", "Team", "Score"],
                question="How many players play for the {}?", source="toy-sorted",
            ),
        ]
    )


def _check_ids(instances: list[QAInstance]) -> list[QAInstance]:
    ids = [inst.id for inst in instances]
    if len(set(ids)) != len(ids):
        raise AssertionError("generator bug: duplicate instance ids")
    return instances
