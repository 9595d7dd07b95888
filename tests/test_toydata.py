"""Built-in synthetic datasets: shape, determinism, and self-consistency."""

import hashlib
from collections import Counter

from freb.backends import FAITHFUL_ORACLE, run_reference_model
from freb.cli import main
from freb.classify import ComparativeLexicon
from freb.core import ARGMAX, ARGMIN, EQ, RQ, validate
from freb.ingest import DEFAULT_POSITIONAL_WORDS, load_dataset, tokenize
from freb.perturb import evaluate_aggregation
from freb.toydata import build_sorted_dataset, build_toy_dataset


def test_toy_dataset_shape(toy_instances):
    assert len(toy_instances) == 250
    by_type = Counter(i.question_type for i in toy_instances)
    assert by_type[EQ] == 80
    assert by_type[RQ] == 170


def test_toy_dataset_covers_every_aggregation(toy_instances):
    kinds = Counter(i.aggregation.kind for i in toy_instances if i.aggregation)
    assert set(kinds) == {
        "ARGMAX",
        "ARGMIN",
        "COUNT",
        "SUM",
        "AVG",
        "DIFF",
        "COMPARE_TWO",
    }
    assert all(count >= 20 for count in kinds.values())


def test_toy_instances_validate_clean(toy_instances, sorted_instances):
    for inst in toy_instances + sorted_instances:
        assert validate(inst) == []


def test_toy_ids_unique(toy_instances, sorted_instances):
    ids = [i.id for i in toy_instances] + [i.id for i in sorted_instances]
    assert len(ids) == len(set(ids))


def test_toy_rqs_fully_annotated(toy_instances):
    # every reasoning question carries both kinds of annotation, so all
    # three relevance probes and the value edits are applicable
    for inst in toy_instances:
        if inst.question_type == RQ:
            assert inst.aggregation is not None
            assert inst.relevant_cells


def test_toy_descriptors_agree_with_answers(toy_instances):
    for inst in toy_instances:
        if inst.aggregation is not None:
            assert evaluate_aggregation(inst.table, inst.aggregation) == inst.answers[0]


def test_faithful_oracle_aces_both_datasets(toy_instances, sorted_instances):
    for inst in toy_instances + sorted_instances:
        assert run_reference_model(FAITHFUL_ORACLE, inst) == inst.answers[0]


def test_generation_is_deterministic():
    again = build_toy_dataset()
    assert again == build_toy_dataset()
    assert build_sorted_dataset() == build_sorted_dataset()


# sha256 of the bytes `freb toydata` writes; any change to the generator or
# to the record format shows here.
TOYDATA_SHA256 = {
    "main": "903794d39ee7e0b2038e06e53755251f0b6d64814d99280ee308930d00cd0cd1",
    "sorted": "6af85d874e5cd14453feac81f8a72bd4628d203b36b3dc120786e967945c4c4b",
}


def _write_toydata(tmp_path, variant):
    path = tmp_path / f"{variant}.jsonl"
    assert main(["toydata", "--out", str(path), "--variant", variant]) == 0
    return path


def test_bundled_files_match_generator(tmp_path):
    # the files `freb toydata` writes are exactly the pinned bytes
    for variant, digest in TOYDATA_SHA256.items():
        path = _write_toydata(tmp_path, variant)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, variant


def test_bundled_files_load(tmp_path, toy_instances, sorted_instances):
    built = {"main": toy_instances, "sorted": sorted_instances}
    for variant in TOYDATA_SHA256:
        assert load_dataset(_write_toydata(tmp_path, variant)) == built[variant], variant


def test_sorted_dataset_bias_bait(sorted_instances):
    # cue instances keep their answer in the final row so a last-row reader
    # looks perfect until the rows move
    lexicon = ComparativeLexicon()
    cued = [i for i in sorted_instances if lexicon.question_has_cue(i.question)]
    assert len(cued) == 30
    for inst in cued:
        assert inst.aggregation.kind in (ARGMAX, ARGMIN)
        values = [
            inst.table.rows[r][inst.aggregation.value_col].parsed_number
            for r in range(inst.table.n_rows)
        ]
        extremal = max(values) if inst.aggregation.kind == ARGMAX else min(values)
        assert values.index(extremal) == inst.table.n_rows - 1
        assert {c.row for c in inst.relevant_cells} == {inst.table.n_rows - 1}
        # relevant rows can actually move: not every row is annotated
        assert inst.table.n_rows >= 3


def test_sorted_dataset_controls_have_no_cue(sorted_instances):
    lexicon = ComparativeLexicon()
    controls = [i for i in sorted_instances if not lexicon.question_has_cue(i.question)]
    assert len(controls) == 30
    for inst in controls:
        assert inst.aggregation.kind == "COUNT"
        assert inst.relevant_cells


def test_questions_avoid_positional_words(toy_instances, sorted_instances):
    # the structure perturbations assume question text never references
    # table positions
    for inst in toy_instances + sorted_instances:
        tokens = set(tokenize(inst.question))
        assert not tokens & DEFAULT_POSITIONAL_WORDS, inst.id


def test_eq_questions_avoid_comparative_cues(toy_instances):
    lexicon = ComparativeLexicon()
    for inst in toy_instances:
        if inst.question_type == EQ:
            assert not lexicon.question_has_cue(inst.question), inst.id


def test_eq_answers_unique_in_table(toy_instances):
    # structure shifts need an unambiguous target cell
    from freb.perturb import locate_target

    for inst in toy_instances:
        if inst.question_type == EQ:
            assert locate_target(inst).ambiguous is False, inst.id
