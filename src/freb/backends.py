"""Model backends: where predictions come from.

Four flavors, each named by one spec string that ``parse_backend`` reads
(``freb evaluate --backend`` and ``freb classify --secondary`` alike):
pre-computed prediction files, a subprocess invoked per distinct input, an
HTTP endpoint, and built-in reference models.  The subprocess and HTTP
backends share one transport, which sends each distinct payload once per
run and remembers its answer, but not its failure.  The reference models
are deliberately simple probes: a faithful oracle that actually reads the
table, positionally biased readers, and a constant-answer model.  A harness
that cannot distinguish these has no business judging real systems.

One reply rule: a prediction file's ``prediction`` and ``instance_id`` and
an HTTP reply's answer or label must each be a JSON string or number,
read as text by ``ingest._text``.  Any other prediction or reply is that
instance's failure; any other ``instance_id`` is a data error.

``reuses`` is true only for the reference models, which are in-process and
deterministic: a run may take an outcome they gave, answer or failure,
again for the same instance within a kind instead of asking again.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

from .classify import ComparativeLexicon
from .core import QAInstance
from .errors import BackendError, ConfigError, DatasetError, FrebError
from .ingest import _text, iter_records
from .metrics import ORIGINAL
from .perturb import evaluate_aggregation, locate_target
from .serialize import serialize

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


class ReferenceBackend:
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


class FileBackend:
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
    reuse them (``reuses`` is false) but asks again, and the memo answers.  A
    subclass says how one instance becomes a payload (``_payload``) and how
    one payload is sent and its reply read (``_send``, which raises on
    failure).  The stdlib modules a transport sends with are imported on
    first use, so building any other backend never loads them.
    """

    reuses = False

    def __init__(self, timeout: float, retries: int, workers: int):
        self.timeout = timeout
        self.retries = retries
        self.workers = workers
        self._answers: dict[str, str] = {}

    def _attempt(self, payload: bytes) -> tuple[str | None, str | None]:
        """(answer, None) from the first attempt that succeeds, else (None, last error)."""
        last_error = "no attempts made"
        for _ in range(self.retries + 1):
            try:
                return self._send(payload), None
            except (BackendError, OSError, ValueError) as exc:
                last_error = str(exc)
        return None, last_error

    def ask(self, instance: QAInstance) -> str:
        """The answer for one instance; BackendError if every attempt failed."""
        entries, failures = self.predictions_for((ORIGINAL, 0), [instance])
        if instance.id in failures:
            raise BackendError(failures[instance.id])
        return entries[instance.id]

    def predictions_for(
        self, condition: tuple[str, int], instances: Sequence[QAInstance]
    ) -> tuple[dict[str, str | None], dict[str, str]]:
        """Answer each instance, sending each payload not answered earlier once.

        An answer depends on the payload alone, never on ``condition``.  New
        answers are remembered after the worker pool returns.  Every
        instance whose payload failed gets that failure.
        """
        payloads = [(inst.id, self._payload(inst)) for inst in instances]
        keys = [hashlib.sha256(payload).hexdigest() for _, payload in payloads]
        new: dict[str, bytes] = {}
        for (_, payload), key in zip(payloads, keys):
            if key not in self._answers:
                new.setdefault(key, payload)
        if self.workers > 1 and len(new) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(self._attempt, new.values()))
        else:
            results = [self._attempt(payload) for payload in new.values()]
        errors: dict[str, str] = {}
        for key, (answer, error) in zip(new, results):
            if error is None:
                self._answers[key] = answer
            else:
                errors[key] = error
        entries: dict[str, str | None] = {}
        failures: dict[str, str] = {}
        for (iid, _), key in zip(payloads, keys):
            if key in errors:
                entries[iid] = None
                failures[iid] = errors[key]
            else:
                entries[iid] = self._answers[key]
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
    forwarded from the FREB_HTTP_TOKEN environment variable."""

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 0,
        workers: int = 1,
        reply_key: str = "answer",
    ):
        super().__init__(timeout, retries, workers)
        self.url = url
        self.reply_key = reply_key
        self.model_id = f"http:{url}"

    def _payload(self, inst: QAInstance) -> bytes:
        body = {"question": inst.question, "table_serialized": serialize(inst.table)}
        return json.dumps(body).encode("utf-8")

    def _send(self, body: bytes) -> str:
        import http.client
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(HTTP_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(self.url, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                reply = json.loads(response.read().decode("utf-8"))
        except http.client.HTTPException as exc:
            raise BackendError(str(exc)) from exc
        return _answer_of(reply, self.reply_key)


def _answer_of(reply, key: str) -> str:
    """The ``key`` entry of an HTTP endpoint's decoded reply; ValueError if there is none."""
    if not isinstance(reply, dict):
        raise ValueError(f"reply is not a JSON object: {json.dumps(reply)[:200]}")
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
        # "http://host/path" is the URL itself; "http:host/path" names one.
        url = spec.strip() if rest.startswith("//") else rest
        return HttpBackend(
            url, timeout=timeout, retries=retries, workers=workers, reply_key=reply_key
        )
    raise ConfigError(
        f"unknown backend scheme {scheme!r}; expected reference, file, subprocess, or http"
    )
