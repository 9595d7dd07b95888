import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest

from freb.ingest import save_dataset
from freb.toydata import build_sorted_dataset, build_toy_dataset

_ACCEPTANCE = {}
_ACCEPTANCE_PATTERN = re.compile(r"test_(p\d+)_")


@pytest.fixture(scope="session")
def toy_instances():
    return build_toy_dataset()


@pytest.fixture(scope="session")
def sorted_instances():
    return build_sorted_dataset()


@pytest.fixture(scope="session")
def toy_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "toy.jsonl"
    save_dataset(build_toy_dataset(), path)
    return path


@pytest.fixture(scope="session")
def sorted_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets-sorted") / "toy_sorted.jsonl"
    save_dataset(build_sorted_dataset(), path)
    return path


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children ``os.fork`` made during the test.  The test
    sees two CPUs, so a run forks its plan helper whenever it runs one
    thread; at the end, no child may be left unreaped."""
    made = []
    plain = os.fork

    def fork():
        pid = plain()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield made
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def loopback():
    """A local HTTP endpoint for the HTTP backend and secondary.

    ``url`` is its address and ``seen`` records each POST's JSON body,
    Authorization header, request line and headers.  Raw strings in
    ``replies`` are sent first to last; after that each reply is
    ``reply(body)`` as JSON, by default the question in upper case as the
    answer.  Every reply has the HTTP ``status``; a 3xx one names the
    endpoint itself as its Location.  A CONNECT is recorded likewise, with
    no body, and refused with 502.
    """
    state = SimpleNamespace(
        seen=[], replies=[], reply=lambda body: {"answer": body["question"].upper()}, status=200
    )

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            state.seen.append(
                {
                    "body": body,
                    "auth": self.headers.get("Authorization"),
                    "line": self.requestline,
                    "headers": dict(self.headers),
                }
            )
            raw = state.replies.pop(0) if state.replies else json.dumps(state.reply(body))
            reply = raw.encode("utf-8")
            self.send_response(state.status)
            if 300 <= state.status < 400:
                self.send_header("Location", state.url)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def do_CONNECT(self):
            state.seen.append(
                {"body": None, "line": self.requestline, "headers": dict(self.headers)}
            )
            self.send_error(502)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_port}/predict"
    yield state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def pytest_runtest_logreport(report):
    # Track acceptance-suite outcomes so the summary can print one
    # pass/fail line per criterion.
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    match = _ACCEPTANCE_PATTERN.match(report.nodeid.rsplit("::", 1)[-1])
    if match:
        _ACCEPTANCE[match.group(1).upper()] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for pid in sorted(_ACCEPTANCE, key=lambda p: int(p[1:])):
        outcome = "PASS" if _ACCEPTANCE[pid] == "passed" else _ACCEPTANCE[pid].upper()
        terminalreporter.write_line(f"{pid}: {outcome}")
