"""Stand-in model for the remote-model workload: a stdlib HTTP server.

It speaks freb's ``http:`` backend protocol: POST {"question",
"table_serialized"} and get back {"answer"}.  It answers every question
with the original gold answer of its instance, looked up by question text
(the generator makes every question unique), and ignores the table.  It is
therefore table-independent by construction, and never answers null.

It counts requests and distinct (question, table) inputs and times each
request's service.  ``GET /stats`` returns those figures, and resets them
when called as ``/stats?reset=1``.  ``SERVICE_S`` adds a fixed service time
per call, so that a call costs what a small local model would.

Run: ``python bench/standin.py DATASET.jsonl`` prints the bound port on its
first stdout line and serves until stdin closes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_S = 0.010


class StandIn:
    """Answer table and counters, shared by the server's handler threads."""

    def __init__(self, gold: dict[str, str]):
        self.gold = gold
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.distinct: set[bytes] = set()
        self.unknown = 0
        self.service_s: list[float] = []

    def answer(self, question: str, table: str) -> str | None:
        time.sleep(SERVICE_S)
        key = hashlib.sha256(f"{question}\0{table}".encode("utf-8")).digest()
        answer = self.gold.get(question)
        with self.lock:
            self.requests += 1
            self.distinct.add(key)
            if answer is None:
                self.unknown += 1
        return answer

    def stats(self, reset: bool) -> dict:
        with self.lock:
            times = sorted(self.service_s)
            out = {
                "requests": self.requests,
                "distinct_inputs": len(self.distinct),
                "unknown_questions": self.unknown,
                "service_ms": {
                    f"p{p}": 1000 * times[min(len(times) - 1, len(times) * p // 100)]
                    for p in (50, 90, 99)
                } if times else {},
            }
            if reset:
                self.reset()
        return out


def make_handler(model: StandIn):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", 0))
            try:
                request = json.loads(self.rfile.read(length))
                question = request["question"]
                table = request["table_serialized"]
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": f"bad request: {exc}"})
                return
            answer = model.answer(question, table)
            if answer is None:
                self._send(404, {"error": "unknown question"})
            else:
                self._send(200, {"answer": answer})
            with model.lock:
                model.service_s.append(time.perf_counter() - start)

        def do_GET(self):
            if not self.path.startswith("/stats"):
                self._send(404, {"error": "not found"})
                return
            self._send(200, model.stats(reset=self.path.endswith("reset=1")))

    return Handler


def load_gold(path) -> dict[str, str]:
    gold = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                gold[record["question"]] = str(record["answers"][0])
    return gold


def main(dataset: str) -> None:
    model = StandIn(load_gold(dataset))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # the parent closes stdin to stop the server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: standin.py DATASET.jsonl")
    main(sys.argv[1])
