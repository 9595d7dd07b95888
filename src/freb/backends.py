"""Model backends: where predictions come from.

Four flavors, each named by one spec string that ``parse_backend`` reads
(``freb evaluate --backend`` and ``freb classify --secondary`` alike):
pre-computed prediction files, a subprocess invoked per distinct input, an
HTTP endpoint, and built-in reference models.  The subprocess and HTTP
backends share one transport, which sends each distinct payload once per
run and remembers its answer, but not its failure.  It sends from one pool
of ``workers`` threads kept until ``close``, and ``submit`` hands it a
run's next instances to send ahead of ``predictions_for``.  The HTTP
backend keeps its connections open from first use to ``close``, at most
``workers`` of them.  Every backend has ``submit`` and ``close``; the file
and reference backends answer when asked, so they never have anything in
flight.  The reference models are deliberately simple probes: a faithful
oracle that actually reads the table, positionally biased readers, and a
constant-answer model.  A harness that cannot distinguish these has no
business judging real systems.

One reply rule: a prediction file's ``prediction`` and ``instance_id`` and
an HTTP reply's answer or label must each be a JSON string or number, read
by ``ingest.decode_json`` and then as text by ``ingest._text``.  Any other
prediction or reply is that instance's failure; any other ``instance_id``
is a data error.  ``predictions_for`` is the one way to ask any backend.

``reuses`` is true only for the reference models, which are in-process and
deterministic: a run may take an outcome they gave, answer or failure,
again for the same instance within a kind instead of asking again.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .classify import ComparativeLexicon
from .core import QAInstance
from .errors import BackendError, ConfigError, DatasetError, FrebError
from .ingest import _excerpt, _text, decode_json, iter_records
from .metrics import ORIGINAL
from .perturb import evaluate_aggregation, locate_target
from .serialize import serialize

if TYPE_CHECKING:
    from concurrent.futures import Future

FAITHFUL_ORACLE = "FAITHFUL_ORACLE"
LAST_ROW_BIASED = "LAST_ROW_BIASED"
FIRST_ROW_BIASED = "FIRST_ROW_BIASED"
MAJORITY_ANSWER = "MAJORITY_ANSWER"
REFERENCE_MODELS = (FAITHFUL_ORACLE, LAST_ROW_BIASED, FIRST_ROW_BIASED, MAJORITY_ANSWER)

HTTP_TOKEN_ENV = "FREB_HTTP_TOKEN"


def run_reference_model(
    name: str,
    instance: QAInstance,
    param: str | None = None,
    lexicon: ComparativeLexicon | None = None,
) -> str:
    """Deterministic answer of a built-in reference model.

    FAITHFUL_ORACLE executes the aggregation descriptor when present and
    otherwise retrieves the cell matching a gold answer; the *_ROW_BIASED
    models answer comparative-cue questions with a fixed row's label and
    defer to the oracle elsewhere; MAJORITY_ANSWER ignores the input.
    """
    if name == MAJORITY_ANSWER:
        return param if param is not None else "2019"
    if name == FAITHFUL_ORACLE:
        return _faithful(instance)
    if name in (LAST_ROW_BIASED, FIRST_ROW_BIASED):
        lexicon = lexicon or ComparativeLexicon()
        if not lexicon.question_has_cue(instance.question):
            return _faithful(instance)
        if instance.table.n_rows == 0:
            raise BackendError("biased reader: table has no rows")
        agg = instance.aggregation
        label_col = agg.label_col if agg is not None and agg.label_col is not None else 0
        row = -1 if name == LAST_ROW_BIASED else 0
        return instance.table.rows[row][label_col].raw
    raise BackendError(f"unknown reference model {name!r}")


def _faithful(instance: QAInstance) -> str:
    try:
        if instance.aggregation is not None:
            return evaluate_aggregation(instance.table, instance.aggregation)
        location = locate_target(instance)
        return instance.table.rows[location.row][location.col].raw
    except (FrebError, ValueError) as exc:
        raise BackendError(f"oracle cannot answer {instance.id}: {exc}") from exc


class _InProcess:
    """What the reference and file backends share: they answer in the
    caller's thread when asked, so nothing is ever in flight."""

    def submit(self, instances: Sequence[QAInstance]) -> bool:
        return False

    def close(self) -> None:
        pass


class ReferenceBackend(_InProcess):
    reuses = True

    def __init__(
        self,
        name: str,
        param: str | None = None,
        lexicon: ComparativeLexicon | None = None,
    ):
        if name not in REFERENCE_MODELS:
            known = ", ".join(m.lower() for m in REFERENCE_MODELS)
            raise ConfigError(f"unknown reference model {name!r}; expected one of: {known}")
        self.name = name
        self.param = param
        self.lexicon = lexicon or ComparativeLexicon()
        self.model_id = f"reference:{name.lower()}" + (f":{param}" if param is not None else "")

    def predictions_for(
        self, condition: tuple[str, int], instances: Sequence[QAInstance]
    ) -> tuple[dict[str, str | None], dict[str, str]]:
        entries: dict[str, str | None] = {}
        failures: dict[str, str] = {}
        for inst in instances:
            try:
                entries[inst.id] = run_reference_model(
                    self.name, inst, param=self.param, lexicon=self.lexicon
                )
            except BackendError as exc:
                entries[inst.id] = None
                failures[inst.id] = str(exc)
        return entries, failures


class FileBackend(_InProcess):
    """Reads pre-computed predictions: one JSONL file per condition, named
    original.jsonl or <kind>.seed<k>.jsonl, lines {"instance_id", "prediction"}.
    A missing prediction, or one that is not text, is that instance's failure."""

    reuses = False

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.model_id = f"file:{self.root}"

    def predictions_for(
        self, condition: tuple[str, int], instances: Sequence[QAInstance]
    ) -> tuple[dict[str, str | None], dict[str, str]]:
        kind, seed = condition
        name = "original.jsonl" if kind == ORIGINAL else f"{kind.lower()}.seed{seed}.jsonl"
        path = self.root / name
        loaded: dict[str, object] = {}
        for lineno, record in iter_records(path, "predictions file"):
            try:
                loaded[_text(record["instance_id"], "instance_id")] = record["prediction"]
            except (KeyError, ValueError) as exc:
                raise DatasetError(f"{path}: line {lineno}: bad prediction record: {exc}")
        entries: dict[str, str | None] = {}
        failures: dict[str, str] = {}
        for inst in instances:
            entries[inst.id] = None
            try:
                entries[inst.id] = _text(loaded[inst.id], f"prediction in {path.name}")
            except KeyError:
                failures[inst.id] = f"no prediction in {path.name}"
            except ValueError as exc:
                failures[inst.id] = str(exc)
        return entries, failures


class _Transport:
    """What the subprocess and HTTP backends share.

    Each distinct payload is sent once per run: answers are remembered by
    the payload's sha256 for the backend's lifetime, failures are not.  This
    memo is the one place a transport's answers are kept; a run does not
    reuse them (``reuses`` is false) but asks again, and the memo answers.

    Payloads are sent by one pool of ``workers`` threads that the backend
    owns until ``close``.  ``submit`` starts sending a run's next instances
    before they are asked for, and ``predictions_for`` takes those attempts
    over, so the model is kept busy while the caller does other work.  Only
    the calling thread reads or writes the memo and the attempts in flight;
    a worker runs ``_attempt`` alone.

    A subclass says how one instance becomes a payload (``_payload``) and
    how one payload is sent and its reply read (``_send``, which raises on
    failure).  What its sends share for the whole run, such as the HTTP
    backend's idle connections, it releases in its own ``close`` after the
    pool has stopped, when no send can be running.  The stdlib modules a
    transport sends with are imported on first use, so building any other
    backend never loads them.
    """

    reuses = False

    def __init__(self, timeout: float, retries: int, workers: int):
        from concurrent.futures import ThreadPoolExecutor

        self.timeout = timeout
        self.retries = retries
        self._answers: dict[str, str] = {}
        # sha256 of a payload -> the Future of its one attempt in flight.
        self._in_flight: dict[str, Future] = {}
        # id() of each instance ``submit`` keyed -> (the instance, its key),
        # until ``predictions_for`` first takes it; holding the instance
        # keeps its id from reuse.
        self._handed: dict[int, tuple[QAInstance, tuple[str, bytes]]] = {}
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def close(self) -> None:
        """Stop the worker threads; attempts not yet started are dropped."""
        self._pool.shutdown(cancel_futures=True)
        self._in_flight.clear()
        self._handed.clear()

    def _attempt(self, payload: bytes) -> tuple[str | None, str | None]:
        """(answer, None) from the first attempt that succeeds, else (None, last error)."""
        last_error = "no attempts made"
        for _ in range(self.retries + 1):
            try:
                return self._send(payload), None
            except (BackendError, OSError, ValueError) as exc:
                last_error = str(exc)
        return None, last_error

    def _keyed(self, instances: Sequence[QAInstance]) -> dict[int, tuple[str, bytes]]:
        """(payload sha256, payload) by id() of each distinct instance object;
        ``instances`` holds the objects, so no id is reused while it is read.
        An instance ``submit`` keyed is not keyed again."""
        keyed = {}
        for inst in instances:
            if id(inst) not in keyed:
                handed = self._handed.get(id(inst))
                if handed is None:
                    payload = self._payload(inst)
                    keyed[id(inst)] = hashlib.sha256(payload).hexdigest(), payload
                else:
                    keyed[id(inst)] = handed[1]
        return keyed

    def _start(self, keyed: dict[int, tuple[str, bytes]]) -> None:
        """Start an attempt for each payload that has no answer and is not in flight."""
        for key, payload in keyed.values():
            if key not in self._answers and key not in self._in_flight:
                self._in_flight[key] = self._pool.submit(self._attempt, payload)

    def submit(self, instances: Sequence[QAInstance]) -> bool:
        """Start sending the instances' payloads without waiting; whether
        any attempt is now in flight."""
        keyed = self._keyed(instances)
        for inst in instances:
            self._handed[id(inst)] = inst, keyed[id(inst)]
        self._start(keyed)
        return bool(self._in_flight)

    def predictions_for(
        self, condition: tuple[str, int], instances: Sequence[QAInstance]
    ) -> tuple[dict[str, str | None], dict[str, str]]:
        """Answer each instance, sending each payload not answered earlier once.

        An answer depends on the payload alone, never on ``condition``.  A
        payload in flight is not sent again: this call takes its attempt
        over, so each attempt is taken by the first call that asks for it.
        Every instance whose attempt failed gets that failure; its payload
        is sent again by the next call that asks for it.
        """
        keyed = self._keyed(instances)
        for inst in instances:
            self._handed.pop(id(inst), None)
        self._start(keyed)
        errors: dict[str, str] = {}
        for key, _ in keyed.values():
            if key in self._in_flight:
                answer, error = self._in_flight.pop(key).result()
                if error is None:
                    self._answers[key] = answer
                else:
                    errors[key] = error
        entries: dict[str, str | None] = {}
        failures: dict[str, str] = {}
        for inst in instances:
            key = keyed[id(inst)][0]
            entries[inst.id] = self._answers.get(key)  # None if its attempt failed
            if key in errors:
                failures[inst.id] = errors[key]
        return entries, failures


class SubprocessBackend(_Transport):
    """Pipes "question\\nserialized table\\n" (UTF-8) to a shell command and
    takes the first stdout line as the answer."""

    def __init__(self, command: str, timeout: float = 30.0, retries: int = 0, workers: int = 1):
        super().__init__(timeout, retries, workers)
        self.command = command
        self.model_id = f"subprocess:{command}"

    def _payload(self, inst: QAInstance) -> bytes:
        return f"{inst.question}\n{serialize(inst.table)}\n".encode("utf-8")

    def _send(self, payload: bytes) -> str:
        import subprocess

        try:
            proc = subprocess.run(
                self.command, shell=True, input=payload, capture_output=True, timeout=self.timeout
            )
        except subprocess.TimeoutExpired:
            raise BackendError(f"timed out after {self.timeout}s") from None
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise BackendError(f"exit code {proc.returncode}: {stderr[:200]}")
        lines = proc.stdout.decode("utf-8", "replace").splitlines()
        return lines[0].strip() if lines else ""


class HttpBackend(_Transport):
    """POSTs {"question", "table_serialized"} as JSON and expects a JSON
    object back whose ``reply_key`` entry ("answer" for models, "label" for
    the classify secondary) is a string or number.  A bearer token is
    forwarded from the FREB_HTTP_TOKEN environment variable.

    Sends go over HTTP/1.1 connections kept for the whole run.  Idle ones
    sit in ``_idle``: a worker pops one, or opens one if none is free, and
    puts it back after a full exchange, so a run holds at most ``workers``
    connections and no two attempts share one.  A connection that failed
    is closed, not put back; ``close`` closes the idle ones once the pool
    has stopped.  The proxy for the URL's scheme, if the environment names
    one (``http_proxy``, ``https_proxy``, ``no_proxy``), is read once: an
    ``http:`` request goes to it with its absolute URL, an ``https:`` one
    through a CONNECT tunnel.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 0,
        workers: int = 1,
        reply_key: str = "answer",
    ):
        import base64
        import socket
        import urllib.request
        from urllib.parse import unquote, urlsplit

        from . import __version__

        super().__init__(timeout, retries, workers)
        self.url = url
        self.reply_key = reply_key
        self.model_id = f"http:{url}"
        self._idle: list = []  # list.pop and list.append are atomic
        # A server that writes a reply's headers and body apart holds the
        # body (Nagle's algorithm) until the headers are ACKed, and on a
        # kept-alive connection Linux may delay that ACK by about 40 ms
        # unless asked for a quick one after each request.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        self._quickack = None if quickack is None else (socket.IPPROTO_TCP, quickack, 1)
        parts = urlsplit(url)
        self._https = parts.scheme.lower() == "https"
        # An explicit port: http.client would read a bare IPv6 host's last
        # group as one.
        default_port = 443 if self._https else 80
        self._address = origin = parts.hostname, parts.port or default_port
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._tunnel = None
        self._headers = {"Content-Type": "application/json", "User-Agent": f"freb/{__version__}"}
        proxy = urllib.request.getproxies().get(parts.scheme.lower())
        if proxy and not urllib.request.proxy_bypass(parts.netloc.rpartition("@")[2]):
            proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._address = proxy_parts.hostname, proxy_parts.port or default_port
            auth = {}
            if proxy_parts.username and proxy_parts.password:
                creds = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    creds.encode("utf-8")
                ).decode("ascii")
            if self._https:
                self._tunnel = (*origin, auth)
            else:
                self._target = url.partition("#")[0]
                self._headers.update(auth)

    def close(self) -> None:
        super().close()
        while self._idle:
            self._idle.pop().close()

    def _payload(self, inst: QAInstance) -> bytes:
        body = {"question": inst.question, "table_serialized": serialize(inst.table)}
        return json.dumps(body).encode("utf-8")

    def _send(self, body: bytes) -> str:
        import http.client

        headers = dict(self._headers)
        token = os.environ.get(HTTP_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            status, reason, reply = self._exchange(body, headers)
        except http.client.HTTPException as exc:
            raise BackendError(str(exc)) from exc
        if not 200 <= status < 300:
            raise BackendError(f"HTTP Error {status}: {reason}")
        return _answer_of(reply, self.reply_key)

    def _exchange(self, body: bytes, headers: dict[str, str]) -> tuple[int, str, bytes]:
        """(status, reason, body) of one POST, over an idle connection if
        there is one.  A reused connection that fails before its reply
        begins was closed by the server while idle: the request is sent
        once more on a new connection, which is not a retry."""
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        while True:
            reused = conn.sock is not None
            try:
                try:
                    conn.request("POST", self._target, body, headers)
                    if self._quickack is not None:
                        conn.sock.setsockopt(*self._quickack)
                    response = conn.getresponse()
                except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected is one
                    if not reused:
                        raise
                    conn.close()
                    conn = self._connect()
                    continue
                reply = response.read()
            except BaseException:
                conn.close()
                raise
            self._idle.append(conn)
            return response.status, response.reason, reply

    def _connect(self):
        """A new connection to the origin or its proxy; it opens on first use."""
        import http.client

        kind = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        conn = kind(*self._address, timeout=self.timeout)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn


def _answer_of(body: bytes, key: str) -> str:
    """The ``key`` entry of an HTTP endpoint's reply; ValueError if there is none."""
    reply = decode_json(body.decode("utf-8"))
    if not isinstance(reply, dict):
        raise ValueError(f"reply is not a JSON object: {_excerpt(reply)}")
    if key not in reply:
        raise ValueError(f'reply has no "{key}" key')
    return _text(reply[key], f'"{key}"')


def parse_backend(
    spec: str,
    lexicon: ComparativeLexicon | None = None,
    timeout: float = 30.0,
    retries: int = 0,
    workers: int = 1,
    reply_key: str = "answer",
):
    """Build a backend from its config string.

    Forms: reference:<model>[:<param>], file:<dir>, subprocess:<command>,
    http:<url>.  ``reply_key`` is the HTTP reply's entry that holds the answer.
    """
    scheme, _, rest = spec.partition(":")
    scheme = scheme.strip().lower()
    if not rest:
        raise ConfigError(f"backend spec {spec!r} is missing a target after the colon")
    if scheme == "reference":
        name, _, param = rest.partition(":")
        return ReferenceBackend(name.strip().upper(), param or None, lexicon=lexicon)
    if scheme == "file":
        return FileBackend(rest)
    if scheme == "subprocess":
        return SubprocessBackend(rest, timeout=timeout, retries=retries, workers=workers)
    if scheme in ("http", "https"):
        from urllib.parse import urlsplit

        # "http://host/path" is the URL itself; "http:<url>" names one.
        url = spec.strip() if rest.startswith("//") else rest
        try:
            parts = urlsplit(url)
            # Port 0 cannot be asked; .port is a ValueError for a port that
            # is not a number up to 65535, as is an unclosed "[" of a host.
            host = parts.hostname if parts.port != 0 else None
        except ValueError:
            host = None
        if not (host and url.lower().startswith(("http://", "https://"))):
            raise ConfigError(f"backend spec {spec!r}: {url!r} is not an http(s)://<host> URL")
        return HttpBackend(
            url, timeout=timeout, retries=retries, workers=workers, reply_key=reply_key
        )
    raise ConfigError(
        f"unknown backend scheme {scheme!r}; expected reference, file, subprocess, or http"
    )
