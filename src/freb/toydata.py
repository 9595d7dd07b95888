"""Deterministic synthetic datasets for self-testing the harness.

Two sets are generated (``freb toydata`` writes either one as JSONL):

* the main set — extraction questions plus reasoning questions covering
  every aggregation kind, each with gold answers computed by the same
  executable oracle the faithful reference model uses;
* the sorted set — tables ordered by their value column so the extremal row
  is always last, which lets positionally biased readers look competent
  until the relevant rows are moved.

Everything is derived from fixed seeds; regenerating produces identical
files byte for byte.
"""

from __future__ import annotations

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


def _finish(instance: QAInstance) -> QAInstance:
    problems = validate(instance)
    if problems:
        raise AssertionError(f"generator bug on {instance.id}: {problems}")
    return instance


def _eq_instances() -> list[QAInstance]:
    out = []
    for i in range(80):
        rng = _rng(f"eq-{i}")
        n = rng.randint(4, 9)
        teams = _sample(rng, TEAMS, n)
        cities = _sample(rng, CITIES, n)
        points = _unique_ints(rng, 5, 199, n)
        coaches = _sample(rng, COACHES, n)
        grid = [[teams[r], cities[r], str(points[r]), coaches[r]] for r in range(n)]
        table = Table.from_values(["Team", "City", "Points", "Coach"], grid)
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
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-eq-{i:03d}",
                    question=question,
                    answers=(answer,),
                    table=table,
                    question_type=EQ,
                    source="toy",
                )
            )
        )
    return out


def _extremal_instances(kind: str, count: int, prefix: str) -> list[QAInstance]:
    out = []
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 9)
        teams = _sample(rng, TEAMS, n)
        cities = _sample(rng, CITIES, n)
        points = _unique_ints(rng, 3, 180, n)
        grid = [[teams[r], cities[r], str(points[r])] for r in range(n)]
        table = Table.from_values(["Team", "City", "Points"], grid)
        agg = AggregationDescriptor(kind=kind, value_col=2, label_col=0)
        answer = evaluate_aggregation(table, agg)
        extremal = points.index(max(points) if kind == ARGMAX else min(points))
        if kind == ARGMAX:
            question = "Which team scored the highest number of points?"
        else:
            question = "Which team scored the fewest points?"
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-{prefix}-{i:03d}",
                    question=question,
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=(CellCoord(extremal, 0), CellCoord(extremal, 2)),
                    aggregation=agg,
                    source="toy",
                )
            )
        )
    return out


def _year_instances() -> list[QAInstance]:
    out = []
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
        grid = [[years[r], str(wins[r])] for r in range(n)]
        table = Table.from_values(["Year", "Wins"], grid)
        agg = AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0)
        answer = evaluate_aggregation(table, agg)
        extremal = wins.index(max(wins))
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-years-{i:03d}",
                    question="In which year did the club record the most wins?",
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=(CellCoord(extremal, 0), CellCoord(extremal, 1)),
                    aggregation=agg,
                    source="toy",
                )
            )
        )
    return out


def _count_instances() -> list[QAInstance]:
    out = []
    for i in range(25):
        rng = _rng(f"count-{i}")
        n = rng.randint(5, 9)
        m = rng.randint(2, 3)
        teams = _sample(rng, TEAMS, n)
        cities = _sample(rng, CITIES, n - m + 1)
        needle = cities[0]
        city_col = [needle] * m + cities[1:]
        rng.shuffle(city_col)
        points = _unique_ints(rng, 5, 199, n)
        grid = [[teams[r], city_col[r], str(points[r])] for r in range(n)]
        table = Table.from_values(["Team", "City", "Points"], grid)
        agg = AggregationDescriptor(
            kind=COUNT, value_col=1, label_col=0, filter=(1, needle)
        )
        answer = evaluate_aggregation(table, agg)
        matches = tuple(
            CellCoord(r, 1) for r in range(n) if city_col[r] == needle
        )
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-count-{i:03d}",
                    question=f"How many teams play in {needle}?",
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=matches,
                    aggregation=agg,
                    source="toy",
                )
            )
        )
    return out


def _sum_avg_instances(kind: str, count: int, prefix: str) -> list[QAInstance]:
    out = []
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 8)
        names = _sample(rng, PEOPLE if kind == AVG else TEAMS, n)
        values = [rng.randint(0, 30) for _ in range(n)]
        if kind == AVG and i % 2 == 0:
            values[-1] += (-sum(values)) % n  # make half the means exact
        header = "Score" if kind == AVG else "Goals"
        label = "Student" if kind == AVG else "Team"
        grid = [[names[r], str(values[r])] for r in range(n)]
        table = Table.from_values([label, header], grid)
        agg = AggregationDescriptor(kind=kind, value_col=1, label_col=0)
        answer = evaluate_aggregation(table, agg)
        if kind == SUM:
            question = "How many goals did the teams score in total?"
        else:
            question = "What is the average score of the students?"
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-{prefix}-{i:03d}",
                    question=question,
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=tuple(CellCoord(r, 1) for r in range(n)),
                    aggregation=agg,
                    source="toy",
                )
            )
        )
    return out


def _pairwise_instances(kind: str, count: int, prefix: str) -> list[QAInstance]:
    out = []
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(4, 8)
        players = _sample(rng, PEOPLE, n)
        values = _unique_ints(rng, 1, 80, n)
        grid = [[players[r], str(values[r])] for r in range(n)]
        table = Table.from_values(["Player", "Goals" if kind == DIFF else "Points"], grid)
        a, b = _sample(rng, range(n), 2)
        agg = AggregationDescriptor(
            kind=kind,
            value_col=1,
            label_col=0,
            operands=(CellCoord(a, 1), CellCoord(b, 1)),
        )
        answer = evaluate_aggregation(table, agg)
        if kind == DIFF:
            question = f"What is the difference in goals between {players[a]} and {players[b]}?"
        else:
            question = f"Who scored more points, {players[a]} or {players[b]}?"
        out.append(
            _finish(
                QAInstance(
                    id=f"toy-{prefix}-{i:03d}",
                    question=question,
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=(
                        CellCoord(a, 0),
                        CellCoord(a, 1),
                        CellCoord(b, 0),
                        CellCoord(b, 1),
                    ),
                    aggregation=agg,
                    source="toy",
                )
            )
        )
    return out


def build_toy_dataset() -> list[QAInstance]:
    """Main synthetic set: 250 instances, every aggregation kind covered."""
    instances = (
        _eq_instances()
        + _extremal_instances(ARGMAX, 25, "argmax")
        + _year_instances()
        + _extremal_instances(ARGMIN, 25, "argmin")
        + _count_instances()
        + _sum_avg_instances(SUM, 20, "sum")
        + _sum_avg_instances(AVG, 20, "avg")
        + _pairwise_instances(DIFF, 20, "diff")
        + _pairwise_instances(COMPARE_TWO, 20, "compare")
    )
    _check_ids(instances)
    return instances


def _sorted_extremal(kind: str, count: int, prefix: str) -> list[QAInstance]:
    out = []
    for i in range(count):
        rng = _rng(f"{prefix}-{i}")
        n = rng.randint(5, 9)
        players = _sample(rng, PEOPLE, n)
        values = sorted(_unique_ints(rng, 1, 120, n), reverse=(kind == ARGMIN))
        # Ascending for ARGMAX, descending for ARGMIN: the answer row is
        # always the last one, so a last-row reader starts out looking right.
        grid = [[players[r], str(values[r])] for r in range(n)]
        table = Table.from_values(["Player", "Score"], grid)
        agg = AggregationDescriptor(kind=kind, value_col=1, label_col=0)
        answer = evaluate_aggregation(table, agg)
        question = (
            "Which player has the highest score?"
            if kind == ARGMAX
            else "Which player has the lowest score?"
        )
        out.append(
            _finish(
                QAInstance(
                    id=f"sorted-{prefix}-{i:03d}",
                    question=question,
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=(CellCoord(n - 1, 0), CellCoord(n - 1, 1)),
                    aggregation=agg,
                    source="toy-sorted",
                )
            )
        )
    return out


def _sorted_count() -> list[QAInstance]:
    out = []
    for i in range(30):
        rng = _rng(f"sorted-count-{i}")
        n = rng.randint(5, 9)
        m = rng.randint(2, 3)
        players = _sample(rng, PEOPLE, n)
        teams = _sample(rng, TEAMS, n - m + 1)
        needle = teams[0]
        team_col = [needle] * m + teams[1:]
        rng.shuffle(team_col)
        scores = sorted(_unique_ints(rng, 1, 120, n))
        grid = [[players[r], team_col[r], str(scores[r])] for r in range(n)]
        table = Table.from_values(["Player", "Team", "Score"], grid)
        agg = AggregationDescriptor(
            kind=COUNT, value_col=1, label_col=0, filter=(1, needle)
        )
        answer = evaluate_aggregation(table, agg)
        out.append(
            _finish(
                QAInstance(
                    id=f"sorted-count-{i:03d}",
                    question=f"How many players play for the {needle}?",
                    answers=(answer,),
                    table=table,
                    question_type=RQ,
                    relevant_cells=tuple(
                        CellCoord(r, 1) for r in range(n) if team_col[r] == needle
                    ),
                    aggregation=agg,
                    source="toy-sorted",
                )
            )
        )
    return out


def build_sorted_dataset() -> list[QAInstance]:
    """Sorted-table set: superlative questions whose answer row is last,
    plus count questions as the non-comparative control group."""
    instances = (
        _sorted_extremal(ARGMAX, 15, "argmax")
        + _sorted_extremal(ARGMIN, 15, "argmin")
        + _sorted_count()
    )
    _check_ids(instances)
    return instances


def _check_ids(instances: list[QAInstance]) -> None:
    ids = [inst.id for inst in instances]
    if len(set(ids)) != len(ids):
        raise AssertionError("generator bug: duplicate instance ids")

