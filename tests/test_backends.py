"""Reference models and the file/subprocess/HTTP prediction backends."""

import io
import json
import os
import shlex
import subprocess
import sys
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freb.backends import (
    FAITHFUL_ORACLE,
    FIRST_ROW_BIASED,
    HTTP_TOKEN_ENV,
    LAST_ROW_BIASED,
    MAJORITY_ANSWER,
    FileBackend,
    HttpBackend,
    ReferenceBackend,
    SubprocessBackend,
    parse_backend,
    run_reference_model,
)
from freb.cli import main
from freb.core import ARGMAX, EQ, RQ, AggregationDescriptor, QAInstance, Table
from freb.errors import BackendError, ConfigError, DatasetError, PerturbSkip
from freb.ingest import save_dataset
from freb.metrics import ORIGINAL
from freb.perturb import REMOVE_TABLE, TRANSPOSE, apply_perturbation
from freb.pipeline import MAX_TIMEOUT_S, RunConfig, run_pipeline
from freb.serialize import serialize
from freb.toydata import build_toy_dataset

LOOKUP = QAInstance(
    id="eq-1",
    question="How many votes did Olsson get?",
    answers=("4",),
    table=Table.from_values(["Name", "Votes"], [["Leslie", "15"], ["Olsson", "4"]]),
    question_type=EQ,
)

EXTREMAL = QAInstance(
    id="rq-1",
    question="Who got the most votes?",
    answers=("Leslie",),
    table=Table.from_values(["Name", "Votes"], [["Leslie", "15"], ["Olsson", "4"]]),
    question_type=RQ,
    aggregation=AggregationDescriptor(kind=ARGMAX, value_col=1, label_col=0),
)


# --- reference models ---------------------------------------------------------


def test_faithful_oracle_reads_cell():
    assert run_reference_model(FAITHFUL_ORACLE, LOOKUP) == "4"


def test_faithful_oracle_runs_descriptor():
    assert run_reference_model(FAITHFUL_ORACLE, EXTREMAL) == "Leslie"


def test_faithful_oracle_fails_loudly_when_blind():
    gone, _ = apply_perturbation(EXTREMAL, REMOVE_TABLE, global_seed=0)
    with pytest.raises(BackendError):
        run_reference_model(FAITHFUL_ORACLE, gone)


def test_majority_answer_constant():
    assert run_reference_model(MAJORITY_ANSWER, LOOKUP) == "2019"
    assert run_reference_model(MAJORITY_ANSWER, LOOKUP, param="42") == "42"


def test_biased_readers_fire_on_cue_questions():
    assert run_reference_model(LAST_ROW_BIASED, EXTREMAL) == "Olsson"
    assert run_reference_model(FIRST_ROW_BIASED, EXTREMAL) == "Leslie"


def test_biased_readers_defer_without_cue():
    assert run_reference_model(LAST_ROW_BIASED, LOOKUP) == "4"
    assert run_reference_model(FIRST_ROW_BIASED, LOOKUP) == "4"


def test_unknown_reference_model():
    with pytest.raises(BackendError, match="unknown reference model"):
        run_reference_model("COIN_FLIP", LOOKUP)


def test_reference_backend_collects_failures():
    gone, _ = apply_perturbation(EXTREMAL, REMOVE_TABLE, global_seed=0)
    backend = ReferenceBackend(FAITHFUL_ORACLE)
    entries, failures = backend.predictions_for((REMOVE_TABLE, 0), [gone])
    assert entries == {"rq-1": None}
    assert "rq-1" in failures


def test_reference_backend_model_id():
    assert ReferenceBackend(FAITHFUL_ORACLE).model_id == "reference:faithful_oracle"
    assert (
        ReferenceBackend(MAJORITY_ANSWER, param="42").model_id
        == "reference:majority_answer:42"
    )


def test_reference_backend_rejects_unknown():
    with pytest.raises(ConfigError):
        ReferenceBackend("COIN_FLIP")


# --- file backend ---------------------------------------------------------------


def _write_predictions(path, rows):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
    )


def test_file_backend_reads_conditions(tmp_path):
    _write_predictions(
        tmp_path / "original.jsonl", [{"instance_id": "eq-1", "prediction": "4"}]
    )
    _write_predictions(
        tmp_path / "shuffle_rows.seed2.jsonl",
        [{"instance_id": "eq-1", "prediction": "15"}],
    )
    backend = FileBackend(tmp_path)
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": "4"} and failures == {}
    entries, _ = backend.predictions_for(("SHUFFLE_ROWS", 2), [LOOKUP])
    assert entries == {"eq-1": "15"}


def test_file_backend_missing_file_is_fatal(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        FileBackend(tmp_path).predictions_for(("SHUFFLE_ROWS", 0), [LOOKUP])


def test_file_backend_missing_instance_is_recorded(tmp_path):
    _write_predictions(
        tmp_path / "original.jsonl", [{"instance_id": "other", "prediction": "x"}]
    )
    entries, failures = FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert failures == {"eq-1": "no prediction in original.jsonl"}


def test_file_backend_null_prediction_is_a_failure(tmp_path):
    _write_predictions(
        tmp_path / "original.jsonl", [{"instance_id": "eq-1", "prediction": None}]
    )
    entries, failures = FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert failures == {"eq-1": "prediction in original.jsonl must be a string or number, not null"}


@pytest.mark.parametrize("prediction", [True, ["3"], {"answer": "3"}])
def test_file_backend_prediction_that_is_not_text_is_a_failure(tmp_path, prediction):
    _write_predictions(
        tmp_path / "original.jsonl", [{"instance_id": "eq-1", "prediction": prediction}]
    )
    entries, failures = FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert "must be a string or number" in failures["eq-1"]


def test_file_backend_numeric_prediction_and_id_are_text(tmp_path):
    _write_predictions(tmp_path / "original.jsonl", [{"instance_id": 7, "prediction": 4}])
    entries, failures = FileBackend(tmp_path).predictions_for(
        (ORIGINAL, 0), [replace(LOOKUP, id="7")]
    )
    assert entries == {"7": "4"} and failures == {}


def test_file_backend_prediction_keeps_the_spelling_of_its_number(tmp_path):
    (tmp_path / "original.jsonl").write_text(
        '{"instance_id": "eq-1", "prediction": 4.50}\n', encoding="utf-8"
    )
    entries, failures = FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": "4.50"} and failures == {}


def test_in_process_backends_have_nothing_in_flight(tmp_path):
    for backend in (ReferenceBackend(FAITHFUL_ORACLE), FileBackend(tmp_path)):
        assert backend.submit([LOOKUP, EXTREMAL]) is False
        backend.close()


@pytest.mark.parametrize("instance_id", [None, True, ["eq-1"]])
def test_file_backend_id_that_is_not_text_cites_line(tmp_path, instance_id):
    # A null id must not name the instance whose id is "None".
    _write_predictions(
        tmp_path / "original.jsonl",
        [{"instance_id": "a", "prediction": "x"}, {"instance_id": instance_id, "prediction": "4"}],
    )
    with pytest.raises(DatasetError, match="line 2: bad prediction record: instance_id must be"):
        FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [replace(LOOKUP, id="None")])


def test_file_backend_bad_record_cites_line(tmp_path):
    (tmp_path / "original.jsonl").write_text(
        '{"instance_id": "a", "prediction": "x"}\n{"instance_id": "b"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetError, match="line 2"):
        FileBackend(tmp_path).predictions_for((ORIGINAL, 0), [LOOKUP])


# --- subprocess backend -----------------------------------------------------------


def test_subprocess_backend_first_line_wins():
    backend = SubprocessBackend("head -1")
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert failures == {}
    assert entries == {"eq-1": LOOKUP.question}


def test_subprocess_backend_takes_the_largest_timeout():
    backend = SubprocessBackend("head -1", timeout=MAX_TIMEOUT_S)
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert failures == {}
    assert entries == {"eq-1": LOOKUP.question}


def test_subprocess_backend_failure_recorded_not_raised():
    backend = SubprocessBackend("exit 7")
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert "exit code 7" in failures["eq-1"]


def test_subprocess_backend_parallel_workers():
    backend = SubprocessBackend("head -1", workers=4)
    many = [
        QAInstance(
            id=f"q{i}",
            question=f"question {i}",
            answers=("x",),
            table=LOOKUP.table,
        )
        for i in range(8)
    ]
    entries, failures = backend.predictions_for((ORIGINAL, 0), many)
    assert failures == {}
    assert entries == {f"q{i}": f"question {i}" for i in range(8)}


# Nine instances asking three distinct questions about one table.
THREE_QUESTIONS = [
    QAInstance(id=f"q{i}", question=f"question {i % 3}", answers=("x",), table=LOOKUP.table)
    for i in range(9)
]


def _counting_command(counter):
    return f"echo call >> {shlex.quote(str(counter))}; head -1"


def _calls(counter):
    return len(counter.read_text().splitlines()) if counter.exists() else 0


def test_subprocess_backend_sends_duplicate_payloads_once(tmp_path):
    counter = tmp_path / "calls"
    backend = SubprocessBackend(_counting_command(counter))
    batch = [LOOKUP, replace(LOOKUP, id="eq-2"), EXTREMAL]
    entries, failures = backend.predictions_for((ORIGINAL, 0), batch)
    assert failures == {}
    assert entries == {
        "eq-1": LOOKUP.question,
        "eq-2": LOOKUP.question,
        "rq-1": EXTREMAL.question,
    }
    assert _calls(counter) == 2
    later = [replace(EXTREMAL, id="rq-2"), LOOKUP]
    again, _ = backend.predictions_for(("TRANSPOSE", 1), later)
    assert again == {"rq-2": EXTREMAL.question, "eq-1": LOOKUP.question}
    assert _calls(counter) == 2


def test_subprocess_backend_workers_give_same_entries(tmp_path):
    results = []
    for workers in (1, 2):
        counter = tmp_path / f"calls{workers}"
        backend = SubprocessBackend(_counting_command(counter), workers=workers)
        results.append(backend.predictions_for((ORIGINAL, 0), THREE_QUESTIONS))
        assert _calls(counter) == 3
    assert results[0] == results[1]
    assert results[0][0] == {f"q{i}": f"question {i % 3}" for i in range(9)}


def test_subprocess_backend_failure_is_not_memoized(tmp_path):
    # The first call fails, every later one answers.
    counter = tmp_path / "calls"
    path = shlex.quote(str(counter))
    backend = SubprocessBackend(f"echo call >> {path}; [ $(wc -l < {path}) -gt 1 ] && head -1")
    twins = [LOOKUP, replace(LOOKUP, id="eq-2")]
    entries, failures = backend.predictions_for((ORIGINAL, 0), twins)
    assert entries == {"eq-1": None, "eq-2": None}
    assert set(failures) == {"eq-1", "eq-2"} and _calls(counter) == 1
    entries, failures = backend.predictions_for(("TRANSPOSE", 0), [LOOKUP])
    assert failures == {} and entries == {"eq-1": LOOKUP.question}
    assert _calls(counter) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_subprocess_backend_takes_over_what_was_submitted(tmp_path, workers):
    counter = tmp_path / "calls"
    backend = SubprocessBackend(_counting_command(counter), workers=workers)
    try:
        assert backend.submit([LOOKUP, replace(LOOKUP, id="eq-2"), EXTREMAL]) is True
        # In flight already: asking for it sends nothing more.
        assert backend.submit([LOOKUP]) is True
        entries, failures = backend.predictions_for((ORIGINAL, 0), [EXTREMAL, LOOKUP])
        assert entries == {"rq-1": EXTREMAL.question, "eq-1": LOOKUP.question}
        assert failures == {} and _calls(counter) == 2
        # Every payload is answered: nothing is sent or in flight.
        assert backend.submit([LOOKUP, EXTREMAL]) is False
        assert _calls(counter) == 2
    finally:
        backend.close()


def test_subprocess_backend_submitted_failure_is_taken_once(tmp_path):
    # The first call fails, every later one answers.  A failed attempt that
    # was submitted ahead is the failure of the first call that takes it; the
    # next call sends the payload again.
    counter = tmp_path / "calls"
    path = shlex.quote(str(counter))
    backend = SubprocessBackend(f"echo call >> {path}; [ $(wc -l < {path}) -gt 1 ] && head -1")
    try:
        assert backend.submit([LOOKUP]) is True
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
        assert entries == {"eq-1": None} and set(failures) == {"eq-1"}
        entries, failures = backend.predictions_for(("TRANSPOSE", 0), [LOOKUP])
        assert failures == {} and entries == {"eq-1": LOOKUP.question}
        assert _calls(counter) == 2
    finally:
        backend.close()


# --- http backend -------------------------------------------------------------------


def test_http_backend_round_trip(loopback):
    backend = HttpBackend(loopback.url)
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert failures == {}
    assert entries == {"eq-1": LOOKUP.question.upper()}
    sent = loopback.seen[0]["body"]
    assert sent["question"] == LOOKUP.question
    assert sent["table_serialized"].startswith("col : Name | Votes")


def test_http_backend_takes_the_largest_timeout(loopback):
    backend = HttpBackend(loopback.url, timeout=MAX_TIMEOUT_S)
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert failures == {}
    assert entries == {"eq-1": LOOKUP.question.upper()}


def test_http_backend_forwards_token(loopback, monkeypatch):
    monkeypatch.setenv(HTTP_TOKEN_ENV, "sesame")
    HttpBackend(loopback.url).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert loopback.seen[0]["auth"] == "Bearer sesame"


def test_http_backend_no_token_header_by_default(loopback, monkeypatch):
    monkeypatch.delenv(HTTP_TOKEN_ENV, raising=False)
    HttpBackend(loopback.url).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert loopback.seen[0]["auth"] is None


def test_http_backend_unreachable_records_failure():
    backend = HttpBackend("http://127.0.0.1:9/nothing", timeout=0.5)
    entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert "eq-1" in failures


@pytest.mark.parametrize(
    "status, reason",
    [
        (302, "Found"),
        (404, "Not Found"),
        (429, "Too Many Requests"),
        (500, "Internal Server Error"),
        (503, "Service Unavailable"),
    ],
)
def test_http_backend_status_error_is_a_failure(loopback, status, reason):
    loopback.status = status  # a 302 names the endpoint as its Location
    with closing(HttpBackend(loopback.url)) as backend:
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert failures == {"eq-1": f"HTTP Error {status}: {reason}"}
    assert len(loopback.seen) == 1


@pytest.fixture()
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_backend_sends_through_the_proxy(loopback, no_proxy_env):
    proxy = loopback.url.rsplit("/", 1)[0].replace("http://", "http://us%40er:pw@")
    no_proxy_env.setenv("http_proxy", proxy)
    with closing(HttpBackend("http://model.invalid:8080/v1/answer?x=1#top")) as backend:
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": LOOKUP.question.upper()} and failures == {}
    (seen,) = loopback.seen
    assert seen["line"] == "POST http://model.invalid:8080/v1/answer?x=1 HTTP/1.1"
    assert seen["headers"]["Host"] == "model.invalid:8080"
    assert seen["headers"]["Proxy-Authorization"] == "Basic dXNAZXI6cHc="  # us@er:pw


def test_http_backend_tunnels_https_through_the_proxy(loopback, no_proxy_env):
    no_proxy_env.setenv("https_proxy", loopback.url.rsplit("/", 1)[0])
    with closing(HttpBackend("https://model.invalid/predict")) as backend:
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert failures == {"eq-1": "Tunnel connection failed: 502 Bad Gateway"}
    (seen,) = loopback.seen
    assert seen["line"] == "CONNECT model.invalid:443 HTTP/1.0"


def test_http_backend_bypasses_the_proxy_for_no_proxy(loopback, no_proxy_env):
    no_proxy_env.setenv("http_proxy", "http://127.0.0.1:9")  # nothing listens there
    no_proxy_env.setenv("no_proxy", "localhost,127.0.0.1")
    with closing(HttpBackend(loopback.url)) as backend:
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": LOOKUP.question.upper()} and failures == {}
    assert loopback.seen[0]["line"] == "POST /predict HTTP/1.1"


@contextmanager
def _http11_endpoint(close_after_reply=False, drop=0):
    """A threaded HTTP/1.1 endpoint answering each question in upper case.

    ``connections`` lists the connections it accepted, ``open`` those not
    yet closed, and ``questions`` each question it received.  It closes
    the connection of each of the first ``drop`` requests without a reply.
    With ``close_after_reply`` it closes each connection after one reply
    without saying so (no ``Connection: close``), as a server may close a
    kept-alive connection while idle.
    """
    state = SimpleNamespace(connections=[], open=set(), questions=[])

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 10

        def setup(self):
            super().setup()
            state.connections.append(self.client_address)
            state.open.add(self.client_address)

        def finish(self):
            super().finish()
            state.open.discard(self.client_address)

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state.questions.append(body["question"])
            if len(state.questions) <= drop:
                self.close_connection = True
                return
            reply = json.dumps({"answer": body["question"].upper()}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)
            self.close_connection = close_after_reply

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_port}/predict"
    try:
        yield state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


_TWENTY = [replace(LOOKUP, id=f"q{i}", question=f"question {i}?") for i in range(20)]


def _all_closed(endpoint, within_s=5.0):
    deadline = time.monotonic() + within_s
    while endpoint.open and time.monotonic() < deadline:
        time.sleep(0.01)
    return not endpoint.open


def test_http_backend_keeps_at_most_workers_connections():
    with _http11_endpoint() as endpoint:
        backend = HttpBackend(endpoint.url, workers=2)
        entries, failures = backend.predictions_for((ORIGINAL, 0), _TWENTY)
        assert failures == {}
        assert entries == {inst.id: inst.question.upper() for inst in _TWENTY}
        assert sorted(endpoint.questions) == sorted(inst.question for inst in _TWENTY)
        assert 1 <= len(endpoint.connections) <= 2
        assert endpoint.open == set(endpoint.connections)  # kept until close
        backend.close()
        assert _all_closed(endpoint)


def test_http_backend_shares_its_connections_safely_under_stress():
    # More workers than cores, switching threads as often as possible: a
    # connection handed to two attempts at once would cross their replies.
    many = [replace(LOOKUP, id=f"s{i}", question=f"stress {i}?") for i in range(160)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _http11_endpoint() as endpoint:
            with closing(HttpBackend(endpoint.url, workers=8)) as backend:
                entries, failures = backend.predictions_for((ORIGINAL, 0), many)
            assert failures == {}
            assert entries == {inst.id: inst.question.upper() for inst in many}
            assert sorted(endpoint.questions) == sorted(inst.question for inst in many)
            assert len(endpoint.connections) <= 8
            assert _all_closed(endpoint)
    finally:
        sys.setswitchinterval(interval)


def test_http_backend_resends_once_when_an_idle_connection_was_closed():
    with _http11_endpoint(close_after_reply=True) as endpoint:
        with closing(HttpBackend(endpoint.url, retries=0, workers=2)) as backend:
            entries, failures = backend.predictions_for((ORIGINAL, 0), _TWENTY)
        assert failures == {}
        assert entries == {inst.id: inst.question.upper() for inst in _TWENTY}
        assert sorted(endpoint.questions) == sorted(inst.question for inst in _TWENTY)
        assert len(endpoint.connections) == 20


def test_http_backend_does_not_resend_when_a_new_connection_fails():
    with _http11_endpoint(drop=1) as endpoint:
        with closing(HttpBackend(endpoint.url, retries=0)) as backend:
            entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
            assert entries == {"eq-1": None}
            assert failures == {"eq-1": "Remote end closed connection without response"}
            assert len(endpoint.connections) == 1
            entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
            assert entries == {"eq-1": LOOKUP.question.upper()} and failures == {}
        assert endpoint.questions == [LOOKUP.question] * 2


@pytest.mark.parametrize(
    "reply, message",
    [
        ('["x"]', "not a JSON object"),
        ('"x"', "not a JSON object"),
        ('{"answer": null}', "must be a string or number, not null"),
        ('{"answer": ["x"]}', 'must be a string or number, not ["x"]'),
        ('{"answer": true}', "must be a string or number, not true"),
        ('{"answer": {"x": 1}}', "must be a string or number, not {"),
        ('{"label": "x"}', 'no "answer"'),
        ("not json", "Expecting value"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
        ('{"answer": ' + "1" * 5000 + "}", "an integer of 5000 digits is past the limit"),
        # A failure must be writable as UTF-8, and a lone surrogate is not.
        ('{"answer": "\\ud800"}', "lone surrogate"),
        ('{"answer": ' + '{"a": ' * 600 + "1" + "}" * 601, "nested too deep to show"),
    ],
)
def test_http_backend_hostile_reply_is_a_failure(loopback, reply, message):
    loopback.replies = [reply]
    entries, failures = HttpBackend(loopback.url).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": None}
    assert message in failures["eq-1"]


def test_http_backend_numeric_answer_is_text(loopback):
    loopback.replies = ['{"answer": 4}']
    entries, failures = HttpBackend(loopback.url).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": "4"} and failures == {}


@pytest.mark.parametrize("numeral", ["1.50", "1e3", "1e400", "12345678901234567890.5"])
def test_http_backend_numeric_answer_keeps_its_spelling(loopback, numeral):
    loopback.replies = [f'{{"answer": {numeral}}}']
    entries, failures = HttpBackend(loopback.url).predictions_for((ORIGINAL, 0), [LOOKUP])
    assert entries == {"eq-1": numeral} and failures == {}


# Replies to mutate: well-formed, hostile, deep and long.
_REPLIES = [
    b'{"answer": "4"}',
    b'{"answer": 1.50}',
    b'{"answer": -12e-3}',
    b'{"answer": ["x", {"y": null}]}',
    b'{"label": "EQ", "answer": "\\u00e9"}',
    b"[" * 3000 + b"]" * 3000,
    b'{"answer": ' + b'{"a": ' * 600 + b"1" + b"}" * 601,
    b'{"answer": ' + b"9" * 4400 + b"}",
    b'["\\ud800", {"answer": "\\udc00"}]',
]


@st.composite
def _mutated_replies(draw):
    body = bytearray(draw(st.sampled_from(_REPLIES)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(body)))
        byte = draw(st.sampled_from(b'{}[]":,.-+eE019 \\nul\xff\x00') | st.integers(0, 255))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            body.insert(at, byte)
        elif at < len(body):
            if edit == "replace":
                body[at] = byte
            else:
                del body[at]
    return bytes(body)


class _StubSocket:
    """What ``http.client`` uses of a socket, replying ``reply`` to each request."""

    def __init__(self, reply: bytes):
        self.reply = reply

    def sendall(self, data):
        pass

    def makefile(self, mode):
        return io.BytesIO(self.reply)

    def setsockopt(self, *args):
        pass

    def close(self):
        pass


def _stub_connection(body: bytes):
    """Patch every ``http.client`` connection to reply ``body`` with 200,
    through a stub socket: no socket is opened and no host is looked up."""
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)

    def connect(conn):
        conn.sock = _StubSocket(reply)

    return patch("http.client.HTTPConnection.connect", connect)


def test_http_backend_stubbed_connection_answers():
    with _stub_connection(_REPLIES[0]), closing(HttpBackend("http://model/")) as backend:
        assert backend.predictions_for((ORIGINAL, 0), [LOOKUP]) == ({"eq-1": "4"}, {})


def test_http_backend_connects_to_a_bare_ipv6_host():
    addresses, sent = [], []

    def connect(conn):
        addresses.append((conn.host, conn.port))
        conn.sock = _StubSocket(b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n" + _REPLIES[0])
        conn.sock.sendall = sent.append

    with patch("http.client.HTTPConnection.connect", connect):
        with closing(HttpBackend("http://[::1]/predict")) as backend:
            assert backend.predictions_for((ORIGINAL, 0), [LOOKUP]) == ({"eq-1": "4"}, {})
    assert addresses == [("::1", 80)]
    assert sent[0].startswith(b"POST /predict HTTP/1.1\r\n")
    assert b"\r\nHost: [::1]\r\n" in sent[0]


@settings(max_examples=150, deadline=None)
@given(_mutated_replies())
def test_http_backend_any_reply_is_an_answer_or_a_failure(body):
    with _stub_connection(body), closing(HttpBackend("http://model/")) as backend:
        entries, failures = backend.predictions_for((ORIGINAL, 0), [LOOKUP])
    if "eq-1" in failures:
        assert entries == {"eq-1": None}
        failures["eq-1"].encode("utf-8")  # a failure is written to the report
    else:
        assert type(entries["eq-1"]) is str and failures == {}


def test_http_backend_hostile_reply_does_not_abort_the_batch(loopback):
    loopback.replies = ['["x"]']
    entries, failures = HttpBackend(loopback.url).predictions_for(
        (ORIGINAL, 0), [LOOKUP, EXTREMAL]
    )
    assert entries == {"eq-1": None, "rq-1": EXTREMAL.question.upper()}
    assert set(failures) == {"eq-1"}


def test_http_backend_failure_is_not_memoized(loopback):
    backend = HttpBackend(loopback.url)
    loopback.replies = ['{"answer": null}']
    twins = [LOOKUP, replace(LOOKUP, id="eq-2")]
    entries, failures = backend.predictions_for((ORIGINAL, 0), twins)
    assert entries == {"eq-1": None, "eq-2": None}
    assert set(failures) == {"eq-1", "eq-2"}
    assert len(loopback.seen) == 1
    entries, failures = backend.predictions_for(("TRANSPOSE", 0), [LOOKUP])
    assert entries == {"eq-1": LOOKUP.question.upper()} and failures == {}
    assert len(loopback.seen) == 2


def test_http_backend_sends_each_payload_once(loopback):
    backend = HttpBackend(loopback.url)
    entries, failures = backend.predictions_for(
        (ORIGINAL, 0), [LOOKUP, replace(LOOKUP, id="eq-2"), EXTREMAL]
    )
    assert failures == {}
    assert entries == {
        "eq-1": LOOKUP.question.upper(),
        "eq-2": LOOKUP.question.upper(),
        "rq-1": EXTREMAL.question.upper(),
    }
    assert len(loopback.seen) == 2
    later = [replace(EXTREMAL, id="rq-2"), LOOKUP]
    again, _ = backend.predictions_for(("TRANSPOSE", 1), later)
    assert again == {"rq-2": EXTREMAL.question.upper(), "eq-1": LOOKUP.question.upper()}
    assert len(loopback.seen) == 2


def test_http_backend_workers_give_same_entries(loopback):
    one = HttpBackend(loopback.url, workers=1).predictions_for((ORIGINAL, 0), THREE_QUESTIONS)
    two = HttpBackend(loopback.url, workers=2).predictions_for((ORIGINAL, 0), THREE_QUESTIONS)
    assert one == two
    assert len(loopback.seen) == 6


def test_run_pipeline_over_http_asks_each_distinct_input_once(loopback, tmp_path):
    instances = build_toy_dataset()[:30]
    dataset = tmp_path / "toy.jsonl"
    save_dataset(instances, dataset)
    kinds, seeds = (TRANSPOSE, REMOVE_TABLE), (0, 1, 2)
    inputs = {(i.question, serialize(i.table)) for i in instances}
    asked = len(instances)
    for kind in kinds:
        for seed in seeds:
            for inst in instances:
                try:
                    perturbed, _ = apply_perturbation(inst, kind, seed)
                except PerturbSkip:
                    continue
                inputs.add((perturbed.question, serialize(perturbed.table)))
                asked += 1
    config = RunConfig(
        dataset=dataset, kinds=kinds, seeds=seeds, backend=loopback.url, workers=2
    )
    report = run_pipeline(config)
    assert report["original"]["failures"] == {}
    assert len(loopback.seen) == len(inputs) < asked
    sent = {(r["body"]["question"], r["body"]["table_serialized"]) for r in loopback.seen}
    assert sent == inputs


def test_evaluate_lists_a_too_deep_or_too_long_reply_as_a_failure(loopback, tmp_path):
    dataset = tmp_path / "toy.jsonl"
    save_dataset(build_toy_dataset()[:2], dataset)
    loopback.replies = ["[" * 100_000 + "]" * 100_000, '{"answer": ' + "1" * 5000 + "}"]
    out = tmp_path / "report.json"
    argv = ["evaluate", "--dataset", str(dataset), "--kinds", "transpose", "--seeds", "0"]
    assert main([*argv, "--backend", loopback.url, "--out", str(out)]) == 0
    failures = sorted(json.loads(out.read_text(encoding="utf-8"))["original"]["failures"].values())
    assert len(failures) == 2
    assert "past the limit of" in failures[0] and "maximum recursion depth" in failures[1]


def test_submit_keys_each_instance_object_once(monkeypatch):
    payloads = []
    plain = SubprocessBackend._payload

    def counted(self, inst):
        payloads.append(inst.id)
        return plain(self, inst)

    monkeypatch.setattr(SubprocessBackend, "_payload", counted)
    monkeypatch.setattr(SubprocessBackend, "_send", lambda self, payload: "x")
    twin = replace(LOOKUP, id="eq-2")  # equal, but another object: keyed too
    with closing(SubprocessBackend("unused")) as backend:
        assert backend.submit([LOOKUP, EXTREMAL, LOOKUP, twin, LOOKUP]) is True
        assert payloads == ["eq-1", "rq-1", "eq-2"]
        payloads.clear()
        entries, failures = backend.predictions_for((ORIGINAL, 0), [EXTREMAL, LOOKUP, EXTREMAL])
        assert entries == {"rq-1": "x", "eq-1": "x"} and failures == {}
        # What submit keyed is taken with its key, so nothing is keyed again.
        assert payloads == []


# --- spec parsing ----------------------------------------------------------------------


def test_parse_backend_reference():
    backend = parse_backend("reference:faithful_oracle")
    assert isinstance(backend, ReferenceBackend)
    assert backend.name == FAITHFUL_ORACLE
    backend = parse_backend("reference:majority_answer:7")
    assert backend.param == "7"


def test_parse_backend_file():
    backend = parse_backend("file:/tmp/preds")
    assert isinstance(backend, FileBackend)
    assert str(backend.root) == "/tmp/preds"


def test_parse_backend_subprocess():
    backend = parse_backend("subprocess:mymodel --flag", timeout=3.0, retries=2)
    assert isinstance(backend, SubprocessBackend)
    assert backend.command == "mymodel --flag"
    assert backend.timeout == 3.0
    assert backend.retries == 2


def test_parse_backend_http_keeps_full_url():
    backend = parse_backend("http://host:8080/v1/answer")
    assert isinstance(backend, HttpBackend)
    assert backend.url == "http://host:8080/v1/answer"
    backend = parse_backend("https://host/answer")
    assert backend.url == "https://host/answer"
    assert parse_backend("http:http://[::1]:8080/answer").url == "http://[::1]:8080/answer"


def test_parse_backend_rejects_garbage():
    with pytest.raises(ConfigError, match="unknown backend scheme"):
        parse_backend("carrier_pigeon:coop")
    with pytest.raises(ConfigError, match="missing a target"):
        parse_backend("file:")
    for spec in (
        "http:localhost:9/x",
        "http:///predict",
        "https:ftp://host/x",
        "http://:80/predict",
        "http://[::1/predict",
        "http://host:abc/predict",
        "http://host:99999/predict",
        "http://host:0/predict",
    ):
        with pytest.raises(ConfigError, match=r"is not an http\(s\)://<host> URL"):
            parse_backend(spec)


def test_importing_freb_loads_no_transport_module():
    """The subprocess and HTTP transports import their stdlib modules on
    first use, so a run with any other backend never loads them."""
    transport = ["http.client", "urllib.request", "subprocess", "concurrent.futures"]
    code = f"import sys, freb, freb.cli; print([m for m in {transport!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

