"""Rule-based and combined question-type classification."""

import json
import shlex
from dataclasses import replace

import pytest

from freb import classify
from freb.backends import HTTP_TOKEN_ENV, SubprocessBackend
from freb.classify import ComparativeLexicon, classify_combined, classify_rule_based
from freb.core import EQ, RQ, UNKNOWN, QAInstance, Table
from freb.cli import main
from freb.errors import BackendError, DatasetError
from freb.ingest import read_records, save_dataset

LEXICON = ComparativeLexicon()

TABLE = Table.from_values(
    ["Player", "Points"],
    [["Ayola", "31"], ["Brant", "24"], ["Cusk", "19"]],
)


def _inst(question, answers):
    return QAInstance(
        id="c1", question=question, answers=tuple(answers), table=TABLE
    )


def test_answer_absent_is_rq():
    # "74" appears nowhere in the table, so the label must be RQ no matter
    # how plain the question reads.
    assert classify_rule_based(_inst("What is the combined score?", ["74"])) == RQ


def test_answer_absent_checks_normalized_match():
    # "31.0" normalizes to "31" which IS a cell, so rule one does not fire.
    assert classify_rule_based(_inst("What did Ayola score?", ["31.0"])) == EQ


def test_cue_with_answer_present_is_rq():
    assert classify_rule_based(_inst("Who scored the most points?", ["Ayola"])) == RQ


def test_no_cue_answer_present_is_eq():
    assert classify_rule_based(_inst("What did Brant score?", ["24"])) == EQ


@pytest.mark.parametrize(
    "token,expected",
    [
        ("most", True),
        ("fewer", True),
        ("best", True),  # explicit list; suffix rule alone would miss it
        ("tallest", True),  # -est with stem "tall"
        ("stronger", True),  # -er with stem "strong"
        ("her", False),  # stem too short for -er
        ("west", False),  # stem too short for -est
        ("user", False),  # stem too short for -er
        ("number", False),  # exception list
        ("player", False),  # exception list
        ("water", False),  # exception list
        ("score", False),
    ],
)
def test_is_comparative(token, expected):
    assert LEXICON.is_comparative(token) is expected


def test_question_has_cue_tokenizes():
    assert LEXICON.question_has_cue("Which is the Tallest?") is True
    assert LEXICON.question_has_cue("List the players in order.") is False


def test_lexicon_rejects_overlap():
    with pytest.raises(ValueError, match="also listed as exceptions"):
        ComparativeLexicon(
            explicit_words=frozenset({"most"}), exceptions=frozenset({"most"})
        )


def test_lexicon_from_file(tmp_path):
    path = tmp_path / "lexicon.json"
    path.write_text(
        json.dumps({"explicit_words": ["BIGLY"], "exceptions": ["water"]}),
        encoding="utf-8",
    )
    lex = ComparativeLexicon.from_file(path)
    assert lex.is_comparative("bigly") is True
    assert lex.is_comparative("most") is False  # overridden away
    assert lex.is_comparative("water") is False


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{",
        '{"explicit_words": ["most"], "exceptions": ["most"]}',
        '{"exceptions": [1]}',
        '{"explicit_words": [1.5]}',
        '{"explicit_words": "most"}',
        '{"exceptions": "water"}',
    ],
)
def test_malformed_lexicon_file_is_a_data_error(tmp_path, text):
    path = tmp_path / "lexicon.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError, match="lexicon.json"):
        ComparativeLexicon.from_file(path)


class _Secondary:
    """A fake secondary that gives each instance it is asked about ``label``
    and records the questions asked."""

    def __init__(self, label):
        self.label = label
        self.asked = []

    def predictions_for(self, condition, instances):
        self.asked += [inst.question for inst in instances]
        return {inst.id: self.label for inst in instances}, {}


def _combined(inst, secondary):
    """``classify_combined`` of one instance: its label, or BackendError
    with the reason when the label is UNKNOWN."""
    [(label, reason)] = classify_combined([inst], LEXICON, secondary)
    if label == UNKNOWN:
        raise BackendError(reason)
    return label


def test_combined_rule_rq_is_final():
    secondary = _Secondary(EQ)
    label = _combined(_inst("Who scored the most?", ["Ayola"]), secondary)
    assert label == RQ
    assert secondary.asked == []  # secondary never consulted


def test_combined_eq_needs_secondary_agreement():
    inst = _inst("What did Cusk score?", ["19"])
    assert _combined(inst, _Secondary(EQ)) == EQ
    assert _combined(inst, _Secondary(RQ)) == RQ


def test_combined_rejects_garbage_label():
    inst = _inst("What did Cusk score?", ["19"])
    with pytest.raises(BackendError, match="expected EQ/RQ"):
        _combined(inst, _Secondary("maybe"))


def test_combined_never_downgrades_rule_rq():
    # Monotonicity: whatever the secondary says, a rule-based RQ stays RQ.
    inst = _inst("What is the combined score?", ["74"])
    for stub in (_Secondary(EQ), _Secondary(RQ)):
        assert _combined(inst, stub) == RQ


def test_subprocess_secondary_round_trip():
    secondary = SubprocessBackend("head -1 >/dev/null; echo EQ")
    inst = _inst("What did Cusk score?", ["19"])
    assert _combined(inst, secondary) == EQ


def test_subprocess_secondary_sees_question_and_table():
    # The command echoes line 1 back; feeding a cue-free question whose
    # text is literally "EQ" proves the payload plumbing.
    assert _combined(_inst("EQ", ["31"]), SubprocessBackend("head -1")) == "EQ"


def test_subprocess_secondary_failure_raises():
    backend = SubprocessBackend("exit 3", retries=1)
    with pytest.raises(BackendError, match="exit code 3"):
        _combined(_inst("q", ["31"]), backend)


# --- classify --secondary through the CLI ------------------------------------------

# Rule-based EQ, so each goes to the secondary.
BRANT = _inst("What did Brant score?", ["24"])


def _classify(tmp_path, instances, secondary, *flags):
    """Labels `freb classify --secondary` writes for ``instances``."""
    data = tmp_path / "in.jsonl"
    save_dataset(instances, data)
    out = tmp_path / "labeled.jsonl"
    argv = ["classify", "--in", str(data), "--out", str(out), "--secondary", secondary]
    code = main([*argv, *flags])
    assert code == 0
    return [r["question_type"] for r in read_records(out)]


def _calls(counter):
    return len(counter.read_text().splitlines()) if counter.exists() else 0


def test_cli_secondary_url_forwards_token(tmp_path, toy_path, loopback, monkeypatch):
    loopback.reply = lambda body: {"label": "EQ"}
    monkeypatch.setenv(HTTP_TOKEN_ENV, "sesame")
    out = tmp_path / "labeled.jsonl"
    code = main(
        [
            "classify",
            "--in",
            str(toy_path),
            "--out",
            str(out),
            "--secondary",
            loopback.url,
        ]
    )
    assert code == 0
    auth = [r["auth"] for r in loopback.seen]
    assert auth and set(auth) == {"Bearer sesame"}
    assert "UNKNOWN" not in {r["question_type"] for r in read_records(out)}


def test_cli_undecodable_secondary_reply_is_unknown(tmp_path):
    # The secondary's reply is not UTF-8 and so not an EQ/RQ label.
    assert _classify(tmp_path, [BRANT], "subprocess:printf '\\377EQ\\n'") == ["UNKNOWN"]


def test_cli_failing_secondary_is_retried_then_unknown(tmp_path, capsys):
    counter = tmp_path / "calls"
    command = f"echo call >> {shlex.quote(str(counter))}; printf 'no\\nlabel\\n' >&2; exit 1"
    labels = _classify(tmp_path, [BRANT], f"subprocess:{command}", "--retries", "2")
    assert labels == ["UNKNOWN"]
    assert _calls(counter) == 3
    # The reason is one line on stderr, not in the output file.
    assert capsys.readouterr().err == f"{BRANT.id}: exit code 1: no label\n"


def test_cli_secondary_asked_once_per_distinct_input(tmp_path):
    counter = tmp_path / "calls"
    command = f"cat >/dev/null; echo call >> {shlex.quote(str(counter))}; echo EQ"
    twins = [BRANT, replace(BRANT, id="c2")]
    assert _classify(tmp_path, twins, f"subprocess:{command}") == [EQ, EQ]
    assert _calls(counter) == 1


def test_cli_secondary_label_is_its_first_line(tmp_path):
    command = "cat >/dev/null; printf 'EQ\\nbecause Brant is named in the question\\n'"
    assert _classify(tmp_path, [BRANT], f"subprocess:{command}") == [EQ]


def test_cli_secondary_is_asked_in_one_batch(tmp_path, monkeypatch):
    batches, ruled = [], []
    ask, rule = SubprocessBackend.predictions_for, classify.classify_rule_based

    def counted_ask(self, condition, instances):
        batches.append([inst.id for inst in instances])
        return ask(self, condition, instances)

    def counted_rule(instance, lexicon):
        ruled.append(instance.id)
        return rule(instance, lexicon)

    monkeypatch.setattr(SubprocessBackend, "predictions_for", counted_ask)
    monkeypatch.setattr(classify, "classify_rule_based", counted_rule)
    instances = [
        BRANT,
        replace(BRANT, id="c2", question="Who scored the most?", answers=("Ayola",)),
        replace(BRANT, id="c3", question="What did Cusk score?", answers=("19",)),
    ]
    command = "subprocess:cat >/dev/null; echo EQ"
    assert _classify(tmp_path, instances, command) == [EQ, RQ, EQ]
    assert batches == [["c1", "c3"]]  # one call, with every rule-based EQ instance
    assert ruled == ["c1", "c2", "c3"]


@pytest.mark.parametrize("reply", ["not json", '["EQ"]', "{}", '{"label": null}'])
def test_cli_hostile_secondary_reply_is_unknown(tmp_path, loopback, capsys, reply):
    loopback.replies = [reply]
    assert _classify(tmp_path, [BRANT], loopback.url) == ["UNKNOWN"]
    assert len(loopback.seen) == 1
    assert "Traceback" not in capsys.readouterr().err
