"""Language-model backends: scripted fixtures, an HTTP completion client,
a persistent response cache and the call trace.

A backend implements three primitives (answer-token scoring, text
completion, completion log-likelihood); the public query operations
render prompts, delegate to the primitives and validate what comes
back. Requests are identified by a digest over the rendered prompt and
decoding parameters, which is also the fixture key of the scripted
backend. The caching wrapper digests each request once, derives its
cache key from that digest and hands the digests of its misses on, so
the scripted backend looks them up without digesting them again. A
request's digested JSON is written from its parts, a prompt's
demonstrations escaped once per prompt set, and cache and trace lines
from templates; each is the text ``json.dumps`` writes.
"""
from __future__ import annotations

import atexit
import hashlib
import io
import json
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from functools import partialmethod
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union
from urllib.parse import SplitResult, urlsplit

from . import prompts as prompt_templates
from .core import (DecodingParams, DecodingStrategy, NegationStrategy, PromptSet,
                   json_digest, json_lines, parse_json, read_text, sorted_json)
from .errors import (
    BackendUnavailable,
    CacheCorrupt,
    EmptyGeneration,
    MalformedResponse,
    MissingFixture,
    NotSupported,
)

DEFAULT_NEGATION_DECODING = DecodingParams(DecodingStrategy.GREEDY)
DEFAULT_EXPLANATION_DECODING = DecodingParams(
    DecodingStrategy.GREEDY, stop_sequences=prompt_templates.EXPLANATION_STOP_SEQUENCES)


def truth_request(prompt: str) -> dict:
    return {"kind": "truth", "prompt": prompt}


def completion_request(prompt: str, decoding: DecodingParams) -> dict:
    return {"kind": "completion", "prompt": prompt, "decoding": decoding.to_dict()}


def logprob_request(prompt: str, completion: str) -> dict:
    return {"kind": "logprob", "prompt": prompt, "completion": completion}


# Each request's JSON with sorted keys and no spaces, written from its parts:
# the text that ``json_digest`` writes for the request the builder above makes.
# A prompt's demonstrations are escaped once per prompt set (``prompts.json_prompt``).

def _truth_text(prompt: str) -> str:
    return '{"kind":"truth","prompt":%s}' % prompt_templates.json_prompt(prompt)


def _decoding_text(decoding: DecodingParams) -> str:
    """The JSON of ``decoding.to_dict()``, written once per instance and kept
    in its own ``__dict__``, as ``prompts._prefix`` keeps a prompt set's prefix."""
    try:
        return vars(decoding)["_json"]
    except KeyError:
        text = vars(decoding)["_json"] = json.dumps(
            decoding.to_dict(), sort_keys=True, separators=(",", ":"))
        return text


def _completion_text(prompt: str, decoding: DecodingParams) -> str:
    return '{"decoding":%s,"kind":"completion","prompt":%s}' % (
        _decoding_text(decoding), prompt_templates.json_prompt(prompt))


def _logprob_text(prompt: str, completion: str) -> str:
    return '{"completion":%s,"kind":"logprob","prompt":%s}' % (
        _json_string(completion), prompt_templates.json_prompt(prompt))


def request_digest(request: Union[dict, str]) -> str:
    """Stable identifier of one backend request: the SHA-256 of its JSON
    with sorted keys and no spaces (``core.json_digest``). The request is
    given as a dict, or as that JSON already written (``Form.text``)."""
    if type(request) is str:
        return hashlib.sha256(request.encode("utf-8")).hexdigest()
    return json_digest(request)


def cache_key(backend_id: str, digest: str, seed: Optional[int] = None) -> str:
    """Hash of (backend id, request digest); stochastic requests add the run seed.

    The digest has a fixed length and the seed no newline, so the joined
    text splits back into its three parts in one way only.
    """
    return hashlib.sha256(f"{backend_id}\n{digest}\n{seed}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TruthResponse:
    """Renormalized probabilities of the two answer tokens."""

    true_prob: float
    false_prob: float

    def argmax(self) -> Optional[bool]:
        """Preferred answer; ``None`` when the two probabilities tie exactly,
        since a tie commits to no answer."""
        if self.true_prob == self.false_prob:
            return None
        return self.true_prob > self.false_prob


class Form(NamedTuple):
    """How one primitive's requests and answers are written down."""

    request: Callable[..., dict]  # the request, from the primitive's arguments
    stored: Callable[[Any], Any]  # an answer as the response cache and fixtures store it
    answer: Callable[[Any], Any]  # a stored answer back in the primitive's form
    kind: str  # the request's "kind", the purpose its trace record names
    text: Callable[..., str]  # the request's JSON as its digest hashes it, from the arguments
    # whether the answer depends on the run seed, from the arguments
    seeded: Callable[..., bool] = lambda *args: False


class ModelClient:
    """What the LM backend and the NLI verifier share: sending a batch of
    independent requests, and ``_FORMS``: per primitive (named by its method),
    its :class:`Form`."""

    _FORMS: dict[str, Form] = {}

    def _batch(self, primitive: str, arguments: Sequence[tuple],
               digests: Optional[Sequence[str]] = None) -> Iterator[tuple[Any, float]]:
        """The answer of the primitive (named by its method) to each argument
        tuple, with the seconds it took: independent requests, answered in
        request order. ``digests``, each request's :func:`request_digest`
        where the caller made it, reach the primitive as its ``digest``.

        A plain loop in the calling thread that calls the primitive once per
        request and stops at the first failure. An :class:`HttpClient` sends
        the requests in waves instead, and retries together the ones pending.
        """
        call = getattr(self, primitive)
        for index, args in enumerate(arguments):
            started = time.monotonic()
            answer = call(*args) if digests is None else call(*args, digest=digests[index])
            yield answer, time.monotonic() - started

    def _requests(self, primitive: str, arguments: Sequence[tuple]) -> list:
        """One primitive (named by its method) over many argument tuples, as one batch."""
        return [answer for answer, _ in self._batch(primitive, arguments)]


class LmBackend(ModelClient):
    """Query interface over a completion-style language model.

    The operations a question issues in rounds (truth scores,
    abductions, log-likelihoods, negations) take many queries and send
    them as one batch of independent requests; answers come back in
    request order. Their single forms are batches of one.
    """

    backend_id: str = "lm"
    _FORMS = {
        "_score_answer": Form(truth_request,
                              lambda raw: dict(zip(("true_prob", "false_prob"), raw)),
                              lambda stored: (stored["true_prob"], stored["false_prob"]),
                              "truth", _truth_text),
        "_complete": Form(completion_request,
                          lambda raw: {"completions": raw},
                          lambda stored: stored["completions"],
                          "completion", _completion_text,
                          lambda prompt, decoding: decoding.strategy is DecodingStrategy.NUCLEUS),
        "_completion_logprob": Form(logprob_request,
                                    lambda raw: {"logprob": raw},
                                    lambda stored: stored["logprob"],
                                    "logprob", _logprob_text),
    }

    # --- primitives an in-process backend implements (HTTP clients have only _batch);
    # each also takes its request's digest, where its caller made one ---

    def _score_answer(self, prompt: str, digest: Optional[str] = None) -> tuple[float, float]:
        """Raw (not necessarily normalized) probabilities of the answer tokens."""
        raise NotImplementedError

    def _complete(self, prompt: str, decoding: DecodingParams,
                  digest: Optional[str] = None) -> list[str]:
        raise NotImplementedError

    def _completion_logprob(self, prompt: str, completion: str,
                            digest: Optional[str] = None) -> float:
        raise NotImplementedError

    # --- public operations ---

    def true_probs(self, statements: Sequence[str],
                   prompts: PromptSet) -> list[TruthResponse]:
        """Probability of the True answer token for each bare statement."""
        rendered = [prompt_templates.render_truth_prompt(statement, prompts)
                    for statement in statements]
        return [self._normalized(raw)
                for raw in self._requests("_score_answer", [(p,) for p in rendered])]

    def true_prob(self, statement: str, prompts: PromptSet) -> TruthResponse:
        return self.true_probs([statement], prompts)[0]

    def explained_answer_prob(self, question: str, explanation: str,
                              prompts: PromptSet) -> TruthResponse:
        """Answer probability conditioned on the question plus a sampled explanation."""
        prompt = prompt_templates.render_explained_answer_prompt(
            question, explanation, prompts)
        return self._normalized(self._requests("_score_answer", [(prompt,)])[0])

    def abductive_samples(self, queries: Sequence[tuple[str, bool]], prompts: PromptSet,
                          decoding: DecodingParams) -> list[list[str]]:
        """Explanations rationalizing each (question, answer label) query.

        Whitespace-only completions are dropped, so fewer than
        ``decoding.sample_count`` strings may come back, none at all
        when every completion was blank; duplicates are kept.
        """
        rendered = [prompt_templates.render_abductive_prompt(question, label, prompts)
                    for question, label in queries]
        return self._cleaned_completions(rendered, decoding)

    def sample_abductive(self, question: str, label: bool, prompts: PromptSet,
                         decoding: DecodingParams) -> list[str]:
        """One query of :meth:`abductive_samples`; raises ``EmptyGeneration``
        when every completion was blank."""
        return _nonempty(self.abductive_samples([(question, label)], prompts, decoding)[0])

    def sample_explanations(self, question: str, prompts: PromptSet) -> list[str]:
        """Explanations sampled before any answer label is fixed."""
        prompt = prompt_templates.render_explanation_prompt(question, prompts)
        return _nonempty(self._cleaned_completions([prompt], DEFAULT_EXPLANATION_DECODING)[0])

    def sequence_logprobs(self, queries: Sequence[tuple[str, str, bool]],
                          prompts: PromptSet) -> list[float]:
        """Total log-likelihood of each (explanation, question, label) query's
        explanation under the abductive prompt."""
        if not all(explanation.strip() for explanation, _, _ in queries):
            raise ValueError("explanation must be non-empty")
        arguments = [(prompt_templates.render_abductive_prompt(question, label, prompts),
                      explanation) for explanation, question, label in queries]
        return [_logprob(value) for value in self._requests("_completion_logprob", arguments)]

    def sequence_logprob(self, explanation: str, question: str, label: bool,
                         prompts: PromptSet) -> float:
        return self.sequence_logprobs([(explanation, question, label)], prompts)[0]

    def lm_negations(self, statements: Sequence[str]) -> list[str]:
        """The model's negation of each statement."""
        rendered = [prompt_templates.render_negation_prompt(statement)
                    for statement in statements]
        return [_nonempty(kept)[0] for kept in
                self._cleaned_completions(rendered, DEFAULT_NEGATION_DECODING)]

    # --- shared validation ---

    @staticmethod
    def _normalized(raw: tuple[float, float]) -> TruthResponse:
        p_true, p_false = raw
        for value in (p_true, p_false):
            # false for NaN, the infinities and an integer beyond the float range
            if not (isinstance(value, (int, float)) and 0.0 <= value <= sys.float_info.max):
                raise MalformedResponse(f"answer probability {value!r} is not usable")
        total = p_true + p_false
        if total <= 0.0:
            raise MalformedResponse("both answer tokens carry zero probability")
        return TruthResponse(true_prob=p_true / total, false_prob=p_false / total)

    def _cleaned_completions(self, prompts: Sequence[str],
                             decoding: DecodingParams) -> list[list[str]]:
        raws = self._requests("_complete", [(prompt, decoding) for prompt in prompts])
        for raw in raws:
            if type(raw) is not list or not all(type(text) is str for text in raw):
                raise MalformedResponse(f"completions {raw!r} are not a list of strings")
        return [[text.strip() for text in raw if text and text.strip()][: decoding.sample_count]
                for raw in raws]


def _nonempty(kept: list[str]) -> list[str]:
    if not kept:
        raise EmptyGeneration("every completion was empty")
    return kept


def _answered(form: Form, stored: Any, source: str) -> Any:
    """A stored answer in answer form; ``MalformedResponse`` names the
    request kind when it has the wrong shape."""
    try:
        return form.answer(stored)
    except (KeyError, TypeError) as exc:
        raise MalformedResponse(f"unusable {form.kind} {source} {stored!r}: {exc!r}") from exc


def negate_all(statements: Sequence[str], strategy: NegationStrategy,
               backend: Optional[LmBackend] = None) -> list[str]:
    """Produce the negated surface form of each statement.

    The engine stores each statement together with its negation once
    and treats the pair as an involution; this function is only the
    forward step and must not be applied to an already negated text.
    """
    if strategy is NegationStrategy.PREFIX:
        return [prompt_templates.prefix_negation(statement) for statement in statements]
    if backend is None:
        raise ValueError("lm_generated negation requires a backend")
    return backend.lm_negations(statements)


# --- scripted backend ---

class ScriptedBackend(LmBackend):
    """Deterministic backend answering from a fixture table.

    The table maps request digests to response objects, each in the form
    the response cache stores, and is read-only after construction, so
    instances are safe to share across threads. A fixture file that holds
    anything but a JSON object raises ``ValueError`` naming the file. A
    lookup takes the digest its caller made (``CachedBackend.served``),
    and makes it only when called without one.
    """

    backend_id = "scripted"

    def __init__(self, fixtures: Union[str, Path, Mapping[str, dict]]):
        if isinstance(fixtures, (str, Path)):
            table = parse_json(read_text(fixtures))
            if not isinstance(table, dict):
                raise ValueError(f"fixture file {fixtures} is not a JSON object of responses")
        else:
            table = dict(fixtures)
        self._table: dict[str, dict] = table

    def _lookup(self, primitive: str, *args, digest: Optional[str] = None) -> Any:
        form = self._FORMS[primitive]
        if digest is None:
            digest = request_digest(form.text(*args))
        if digest not in self._table:
            raise MissingFixture(f"no fixture for {form.kind} request {digest[:12]}...")
        return _answered(form, self._table[digest], "fixture")

    _score_answer = partialmethod(_lookup, "_score_answer")
    _complete = partialmethod(_lookup, "_complete")
    _completion_logprob = partialmethod(_lookup, "_completion_logprob")


class FixtureBuilder:
    """Authoring helper that renders prompts exactly as the backends do.

    Collects digest-keyed responses plus a human-readable sidecar of
    the rendered prompts, so a fixture file can be reviewed entry by
    entry.
    """

    def __init__(self):
        self.responses: dict[str, dict] = {}
        self.sidecar: dict[str, dict] = {}

    def _add(self, primitive: str, arguments: tuple, raw: Any) -> str:
        """Record ``raw`` as the primitive's answer to ``arguments``: its
        request and stored form come from ``LmBackend._FORMS``."""
        form = LmBackend._FORMS[primitive]
        request = form.request(*arguments)
        digest = request_digest(request)
        self.responses[digest] = form.stored(raw)
        self.sidecar[digest] = request
        return digest

    def truth(self, statement: str, prompts: PromptSet,
              true_prob: float, false_prob: float) -> str:
        prompt = prompt_templates.render_truth_prompt(statement, prompts)
        return self._add("_score_answer", (prompt,), (true_prob, false_prob))

    def explained_answer(self, question: str, explanation: str, prompts: PromptSet,
                         true_prob: float, false_prob: float) -> str:
        prompt = prompt_templates.render_explained_answer_prompt(
            question, explanation, prompts)
        return self._add("_score_answer", (prompt,), (true_prob, false_prob))

    def abductive(self, question: str, label: bool, prompts: PromptSet,
                  decoding: DecodingParams, completions: list[str]) -> str:
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        return self._add("_complete", (prompt, decoding), list(completions))

    def explanation_samples(self, question: str, prompts: PromptSet,
                            completions: list[str]) -> str:
        prompt = prompt_templates.render_explanation_prompt(question, prompts)
        return self._add("_complete", (prompt, DEFAULT_EXPLANATION_DECODING),
                         list(completions))

    def logprob(self, explanation: str, question: str, label: bool,
                prompts: PromptSet, value: float) -> str:
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        return self._add("_completion_logprob", (prompt, explanation), value)

    def negation(self, statement: str, completion: str) -> str:
        prompt = prompt_templates.render_negation_prompt(statement)
        return self._add("_complete", (prompt, DEFAULT_NEGATION_DECODING), [completion])

    def merge(self, other: "FixtureBuilder") -> None:
        self.responses.update(other.responses)
        self.sidecar.update(other.sidecar)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the fixture table; the prompt sidecar lands next to it."""
        path = Path(path)
        path.write_text(json.dumps(self.responses, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        sidecar = path.with_suffix(path.suffix + ".prompts.json")
        sidecar.write_text(json.dumps(self.sidecar, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
        return path

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(self.responses)


# --- HTTP transport and backend ---

# Seconds before the second attempt of a request; each later wait doubles,
# up to the client's timeout.
BACKOFF_S = 1.0

# Requests this process keeps in flight at most, over every HTTP client;
# most NLI rounds (up to 30 pairs) go out in one wave.
MAX_IN_FLIGHT = 32


# The places for requests in flight, shared by every HTTP client.
_in_flight = threading.Semaphore(MAX_IN_FLIGHT)


class _BadReply(OSError):
    """A reply that is not well-formed HTTP/1.x; retried like any transport error."""


class _Retry(Exception):
    """``_Retry(reason, wait)``: an exchange whose request is sent again, after
    the backoff (``wait`` is ``None``) or the ``wait`` a 429's ``Retry-After`` asks."""


_STATUS_LINE = re.compile(rb"HTTP/1\.([01]) +(\d{3})(?: .*)?")
_CHUNK_SIZE = re.compile(rb"[ \t]*([0-9A-Fa-f]+)[ \t]*(?:;.*)?")


class _Connection:
    """One kept-alive HTTP/1.1 connection (``TCP_NODELAY``; TLS for https).

    A request goes out in one write, so the server wakes once for it. The
    reply is read through one buffer, its body framed by ``Content-Length``,
    by chunked encoding or by the close."""

    def __init__(self, url: SplitResult, timeout: float, context: Any):
        import socket  # imported here so that ``import maieutic`` stays light

        sock = socket.create_connection(
            (url.hostname, url.port or (443 if url.scheme == "https" else 80)), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if context is not None:
                sock = context.wrap_socket(sock, server_hostname=url.hostname)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self._reader.close()
            self.sock.close()
            self.sock = None

    def send(self, request: bytes, timeout: float) -> None:
        self.sock.settimeout(timeout)
        self.sock.sendall(request)

    def receive(self, timeout: float) -> tuple[int, Optional[bytes], bytes, bool]:
        """Read one reply, waiting at most ``timeout`` for each part of it:
        (status, Retry-After, body, whether the connection stays open for
        the next request)."""
        self.sock.settimeout(timeout)
        if not self._reader.peek(1):  # no reply at all: dropped while idle
            raise ConnectionResetError("the server closed the connection without replying")
        status_line = self._match(_STATUS_LINE)
        status = int(status_line[2])
        headers = {}
        while line := self._line():
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get(b"connection", b"").lower()
        keep = (b"keep-alive" in connection if status_line[1] == b"0"
                else b"close" not in connection)
        length = headers.get(b"content-length")
        if status < 200 or status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = self._chunked()
        elif length and length.isdigit():
            try:
                size = int(length)
            except ValueError:  # more digits than ``int`` converts
                raise _BadReply(f"a Content-Length of {len(length)} digits") from None
            body = self._take(size)
        else:  # the body runs until the server closes the connection
            body, keep = self._reader.read(), False
        return status, headers.get(b"retry-after"), body, keep

    def _line(self) -> bytes:
        """The next reply line, without its line end."""
        line = self._reader.readline(65537)
        if not line.endswith(b"\n"):
            raise _BadReply("a reply line was cut short or is longer than 64 KiB")
        return line.rstrip(b"\r\n")

    def _take(self, size: int) -> bytes:
        """The next ``size`` bytes, read at most a buffer at a time, so that
        memory grows with the bytes that arrive, not with a declared size."""
        parts, left = [], size
        while left and (part := self._reader.read1(min(left, io.DEFAULT_BUFFER_SIZE))):
            parts.append(part)
            left -= len(part)
        if left:
            raise _BadReply(f"the reply was cut short after {size - left} of {size} bytes")
        return b"".join(parts)

    def _match(self, pattern: re.Pattern) -> re.Match:
        line = self._line()
        match = pattern.fullmatch(line)
        if match is None:
            raise _BadReply(f"unexpected reply line {line[:80]!r}")
        return match

    def _chunked(self) -> bytes:
        parts = []
        while size := int(self._match(_CHUNK_SIZE)[1], 16):
            parts.append(self._take(size + 2)[:-2])  # each chunk ends in CRLF
        while self._line():  # trailer fields, up to the blank line
            pass
        return b"".join(parts)


# Idle kept-alive connections by (scheme, host, port), shared by every client.
_idle: dict[tuple, list[_Connection]] = {}
_idle_lock = threading.Lock()


def close_connections() -> None:
    """Close every idle kept-alive connection; registered to run at interpreter exit."""
    with _idle_lock:
        idle = [connection for kept in _idle.values() for connection in kept]
        _idle.clear()
    for connection in idle:
        connection.close()


atexit.register(close_connections)

# The outcome of one exchange: (status, Retry-After, body), or the OSError it raised.
_Outcome = Union[tuple[int, Optional[bytes], bytes], OSError]


class HttpClient(ModelClient):
    """A model behind an HTTP endpoint.

    ``_WIRE`` names, per primitive, the method that builds a request's JSON
    body from its arguments and the method that reads the answer from the
    decoded reply and the same arguments. Each attempt of a batch
    (:meth:`_batch`) sends its pending requests in waves; a transport error
    (a malformed reply among them), a 5xx or a 429 leaves its request
    pending, within ``retries`` attempts one wait apart: the longest that a
    pending request asks for, its exponential backoff from ``BACKOFF_S`` or
    its 429's ``Retry-After``, either at most ``timeout``. A client sends only
    through :meth:`_batch` and implements no primitive: a single request is
    its interface's batch of one.
    """

    _WIRE: dict[str, tuple[Callable[..., dict], Callable[..., Any]]] = {}

    def __init__(self, endpoint: str, timeout: float, retries: int,
                 headers: Optional[dict] = None):
        if retries < 1:
            raise ValueError(f"retries counts attempts and must be at least 1, not {retries}")
        if not (isinstance(timeout, (int, float)) and 0 < timeout <= threading.TIMEOUT_MAX):
            raise ValueError(f"timeout must be a finite number of seconds > 0, not {timeout!r} "
                             f"(a socket's clock holds at most {threading.TIMEOUT_MAX} s)")
        try:  # .port raises on a port that is no number in 0-65535, and the
            # IDNA encoding on a host name that no connection could resolve
            url = urlsplit(endpoint)
            usable = (url.scheme in ("http", "https") and bool(url.hostname)
                      and url.port != 0 and " " not in url.path + url.query
                      and bool(url.hostname.encode("idna")))
        except ValueError:
            usable = False
        if not usable:
            raise ValueError(f"endpoint {endpoint!r} is not an http:// or https:// URL "
                             "with a host, a valid port and no space")
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        lines = [f"POST {target} HTTP/1.1", f"Host: {url.netloc.rpartition('@')[2]}",
                 "Accept-Encoding: identity", "Content-Type: application/json",
                 *(f"{name}: {value}" for name, value in (headers or {}).items())]
        if not all(line.isprintable() for line in lines):
            raise ValueError("a request header holds a control character")
        # every request starts with this head; only its Content-Length varies
        self._head = ("\r\n".join(lines) + "\r\n").encode("latin-1")
        self.endpoint, self._url = endpoint, url
        self._host = (url.scheme, url.hostname, url.port)  # this client's key in ``_idle``
        self.timeout, self.retries = timeout, retries
        self._context: Any = None  # the TLS context, made at the first https connection
        self._context_lock = threading.Lock()

    def _batch(self, primitive: str, arguments: Sequence[tuple],
               digests: Optional[Sequence[str]] = None) -> Iterator[tuple[Any, float]]:
        """Each request's answer, in request order, with the seconds from the
        start of its first wave to its last reply; ``digests`` are not used.
        Every body is built before any request is sent, and only the requests
        before the first failure are retried, so every request is sent before
        that failure is raised."""
        build, read = self._WIRE[primitive]
        requests = [self._request(build(self, *args)) for args in arguments]
        answers, seconds, began = [None] * len(requests), [0.0] * len(requests), {}
        pending, failed, failure = list(range(len(requests))), len(requests), None
        backoff = min(BACKOFF_S, self.timeout)
        for attempt in range(self.retries):
            if not pending:
                break
            if attempt:  # one wait, the longest that a pending request asks for
                time.sleep(max(backoff if wait is None else wait for _, wait in retried.values()))
                backoff = min(2 * backoff, self.timeout)
            sent: list[tuple[_Outcome, float, float]] = []
            while len(sent) < len(pending):
                sent += self._wave([requests[index] for index in pending[len(sent):]])
            retried = {}  # the (reason, wait) of each request left pending
            for index, (outcome, started, replied) in zip(pending, sent):
                began.setdefault(index, started)
                try:
                    answers[index] = read(self, self._decoded(outcome), *arguments[index])
                    seconds[index] = replied - began[index]
                except _Retry as exc:
                    retried[index] = exc.args
                except Exception as exc:  # raised once the requests before it are settled
                    failed, failure = index, exc
                    break
            pending = list(retried)  # all before the failure, where settling stopped
        if pending:
            failed, failure = pending[0], BackendUnavailable(
                f"request failed after {self.retries} attempts: {retried[pending[0]][0]}")
        yield from zip(answers[:failed], seconds)
        if failure:
            raise failure

    def _request(self, body: dict) -> bytes:
        blob = json.dumps(body).encode("utf-8")
        return b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(blob), blob)

    def _decoded(self, outcome: _Outcome) -> Any:
        """The JSON body of one exchange's 200 reply; ``_Retry`` where another attempt may help."""
        if isinstance(outcome, OSError):
            raise _Retry(outcome, None)
        status, retry_after, raw = outcome
        if status >= 500 or status == 429:
            try:  # a 429's Retry-After in seconds; absent, or an HTTP date: the backoff
                seconds = float(retry_after) if status == 429 else math.nan
            except (TypeError, ValueError):
                seconds = math.nan
            raise _Retry(f"server returned {status}",
                         min(seconds, self.timeout) if 0 <= seconds < math.inf else None)
        if status != 200:
            text = raw.decode("utf-8", errors="replace")
            raise BackendUnavailable(f"server returned {status}: {text[:200]}")
        try:
            return parse_json(raw)
        except ValueError as exc:
            raise MalformedResponse(f"response body is not JSON: {exc}") from exc

    def _connect(self) -> _Connection:
        """A new connection to the endpoint; an https client's first one makes
        the TLS context its later ones share, reading ``SSL_CERT_FILE`` then."""
        if self._url.scheme == "https":
            with self._context_lock:
                if self._context is None:
                    import ssl
                    self._context = ssl.create_default_context()
        return _Connection(self._url, self.timeout, self._context)

    def _open(self, count: int) -> list[Union[_Connection, OSError]]:
        """``count`` new connections, or the OSError each opening raised.

        Two or more are opened at once, each on a short-lived thread, so a
        cold wave waits for about one connect and TLS handshake, not one per
        request.
        """
        opened: list = [None] * count

        def open_one(index: int) -> None:
            try:
                opened[index] = self._connect()
            except OSError as exc:
                opened[index] = exc

        if count == 1:
            open_one(0)
            return opened
        threads = [threading.Thread(target=open_one, args=(index,), name="maieutic-open")
                   for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return opened

    def _wave(self, requests: Sequence[bytes]) -> list[tuple[_Outcome, float, float]]:
        """The first of ``requests``, as many as the process-wide in-flight
        count has room for (at least one), exchanged as one wave: each one's
        outcome, with the ``time.monotonic()`` of the wave's start and its reply."""
        _in_flight.acquire()  # waits for one place only, then takes what is free
        taken = 1
        while taken < len(requests) and _in_flight.acquire(blocking=False):
            taken += 1
        try:
            started = time.monotonic()
            return [(outcome, started, replied)
                    for outcome, replied in self._exchange(requests[:taken])]
        finally:
            _in_flight.release(taken)

    def _exchange(self, requests: Sequence[bytes],
                  reuse: bool = True) -> list[tuple[_Outcome, float]]:
        """One wave, in the calling thread: each request written on a
        kept-alive connection of its own to the endpoint's host, then the
        replies read in request order, all within ``timeout`` of the last
        write. Per request: its outcome, and the ``time.monotonic()`` its
        reply was read at.

        Idle connections are reused first, and the ones lacking are opened
        together (:meth:`_open`). A reused connection that the server closed
        while it sat idle fails before any reply arrives; those requests are
        sent once more, as a wave on new connections.
        """
        connections: list = []
        if reuse:
            with _idle_lock:
                idle = _idle.get(self._host, [])
                connections = [idle.pop() for _ in range(min(len(requests), len(idle)))]
        reused = len(connections)
        connections += self._open(len(requests) - reused)
        failures = [item if isinstance(item, OSError) else None for item in connections]
        results: list[tuple[_Outcome, float]] = []
        dropped, kept = [], []
        try:
            for index, request in enumerate(requests):
                if failures[index] is None:
                    try:
                        connections[index].send(request, self.timeout)
                    except OSError as exc:
                        failures[index] = exc
            deadline = time.monotonic() + self.timeout
            for index, connection in enumerate(connections):
                try:
                    if failures[index] is not None:
                        raise failures[index]
                    status, retry_after, body, keep = connection.receive(
                        max(deadline - time.monotonic(), 0.001))
                except OSError as exc:
                    if index < reused and isinstance(exc, (ConnectionResetError,
                                                           BrokenPipeError)):
                        dropped.append(index)
                    results.append((exc, time.monotonic()))
                    continue
                results.append(((status, retry_after, body), time.monotonic()))
                if keep:
                    kept.append(connection)
                    connections[index] = None
        finally:
            for connection in connections:
                if isinstance(connection, _Connection):
                    connection.close()
            with _idle_lock:
                _idle.setdefault(self._host, []).extend(kept)
        if dropped:
            resent = self._exchange([requests[index] for index in dropped], reuse=False)
            for index, result in zip(dropped, resent):
                results[index] = result
        return results


_ANSWER_TRUE, _ANSWER_FALSE = prompt_templates.ANSWER_TOKENS


def _logprob(value: Any) -> float:
    """A log-probability from a reply or a stored answer; anything but a
    finite number <= 0 is malformed."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not -math.inf < number <= 0.0:
        raise MalformedResponse(f"log-probability {value!r} is not a finite number <= 0")
    return number


class HttpLmBackend(HttpClient, LmBackend):
    """Client for a completion-style HTTP API.

    The endpoint and model come from configuration; only the API key
    may fall back to the ``MAIEUTIC_API_KEY`` environment variable.
    """

    def __init__(self, endpoint: str = "", model: Optional[str] = None,
                 api_key: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 3):
        self.model = model
        self.api_key = api_key or os.environ.get("MAIEUTIC_API_KEY")
        super().__init__(endpoint, timeout, retries,
                         {"Authorization": f"Bearer {self.api_key}"} if self.api_key else None)
        self.backend_id = f"http:{self.model or 'default'}"

    def _body(self, prompt: str, **extra) -> dict:
        body = {"prompt": prompt}
        if self.model:
            body["model"] = self.model
        body.update(extra)
        return body

    @staticmethod
    def _choices(payload: Any) -> list[dict]:
        choices = payload.get("choices") if isinstance(payload, dict) else None
        if not choices or not isinstance(choices, list):
            raise MalformedResponse("response carries no choices")
        if not all(isinstance(choice, dict) for choice in choices):
            raise MalformedResponse(f"a choice is not an object: {choices!r}")
        return choices

    # --- each primitive's request body, then its reader of the decoded reply ---

    def _truth_body(self, prompt: str) -> dict:
        return self._body(prompt, max_tokens=1, temperature=0.0, logprobs=5)

    def _truth_answer(self, payload: Any, prompt: str) -> tuple[float, float]:
        logprobs = self._choices(payload)[0].get("logprobs")
        listed = logprobs.get("top_logprobs") if isinstance(logprobs, dict) else None
        top = listed[0] if isinstance(listed, list) and listed else {}
        if not isinstance(top, dict):
            raise MalformedResponse(f"top_logprobs[0] is not an object: {top!r}")
        if _ANSWER_TRUE not in top and _ANSWER_FALSE not in top:
            raise MalformedResponse("answer tokens absent from the returned distribution")
        p_true = math.exp(_logprob(top[_ANSWER_TRUE])) if _ANSWER_TRUE in top else 0.0
        p_false = math.exp(_logprob(top[_ANSWER_FALSE])) if _ANSWER_FALSE in top else 0.0
        return p_true, p_false

    def _completion_body(self, prompt: str, decoding: DecodingParams) -> dict:
        extra: dict = {
            "max_tokens": decoding.max_tokens,
            "n": decoding.sample_count,
            "stop": list(decoding.stop_sequences),
        }
        if decoding.strategy is DecodingStrategy.GREEDY:
            extra["temperature"] = 0.0
        else:
            extra["temperature"] = 1.0
            extra["top_p"] = decoding.nucleus_p
        return self._body(prompt, **extra)

    def _completion_answer(self, payload: Any, prompt: str,
                           decoding: DecodingParams) -> list[str]:
        return [choice.get("text", "") for choice in self._choices(payload)]

    def _logprob_body(self, prompt: str, completion: str) -> dict:
        return self._body(f"{prompt} {completion}", max_tokens=0, echo=True, logprobs=0)

    def _logprob_answer(self, payload: Any, prompt: str, completion: str) -> float:
        logprobs = self._choices(payload)[0].get("logprobs")
        if (not isinstance(logprobs, dict) or "token_logprobs" not in logprobs
                or "text_offset" not in logprobs):
            raise NotSupported("the API exposes no token log-probabilities")
        total = 0.0
        boundary = len(prompt)
        try:
            for offset, value in zip(logprobs["text_offset"], logprobs["token_logprobs"]):
                if offset >= boundary and value is not None:
                    total += _logprob(value)
        except TypeError as exc:  # an offset that is not a number, or no list at all
            raise MalformedResponse(f"unusable token log-probabilities: {exc}") from exc
        return total

    _WIRE = {"_score_answer": (_truth_body, _truth_answer),
             "_complete": (_completion_body, _completion_answer),
             "_completion_logprob": (_logprob_body, _logprob_answer)}


# --- response cache and call trace ---

# A cache line and, per purpose, a trace line of a hit and of a miss, each the
# text that ``json.dumps(..., sort_keys=True)`` writes for its object (a digest
# is hex and a purpose a fixed word; ``repr`` writes a float as JSON does), and
# the encoder of a cache line's response
_CACHE_LINE = '{"key": %s, "response": %s}\n'
_LINE_JSON = sorted_json(", ", ": ")
_TRACE_HIT = '{"cache_hit": true, "digest": "%%s", "latency_s": 0.0, "purpose": "%s"}\n'
_TRACE_MISS = '{"cache_hit": false, "digest": "%%s", "latency_s": %%r, "purpose": "%s"}\n'


def _append(path: Path, lines: Sequence[str]) -> None:
    """Append lines in one ``O_APPEND`` write, which other appends never split."""
    blob = "".join(lines).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if os.write(fd, blob) != len(blob):
            raise OSError(f"short write to {path}")
    finally:
        os.close(fd)


class ResponseCache:
    """Model answers by cache key, in one append-only ``responses.jsonl``.

    Each line is one entry, ``{"key": <string>, "response": <object>}``; a later
    line for a key wins. The file is read into memory on open, so ``get``
    is a dictionary lookup, and ``put`` appends a batch of entries in one
    write. A last line without its newline was torn by a writer that
    stopped mid-write: it is cut off on open, so the next append starts
    a line of its own. Any other line that is not an entry raises
    ``CacheCorrupt`` naming it, a key that is not a string and a response
    that is neither an object nor a list among them; a stored answer of
    the wrong shape raises ``MalformedResponse`` when it is looked up.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "responses.jsonl"
        self._entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        blob = self.path.read_bytes() if self.path.exists() else b""
        end = blob.rfind(b"\n") + 1
        if end < len(blob):
            os.truncate(self.path, end)
        for number, line in enumerate(blob[:end].split(b"\n")[:-1], 1):
            try:
                entry = parse_json(line)
                key, response = entry["key"], entry["response"]
                # a list may be a stored answer of the wrong shape, which a
                # lookup reports as ``MalformedResponse`` naming its request kind
                if type(key) is not str or type(response) not in (dict, list):
                    raise TypeError("a key that is not a string, or a response that is "
                                    "neither an object nor a list")
                self._entries[key] = response
            except (ValueError, KeyError, TypeError) as exc:
                raise CacheCorrupt(f"{self.path} line {number} is not a cache entry") from exc

    def get(self, key: str) -> Optional[dict]:
        """The stored answer, shared with later calls: callers must not change it."""
        return self._entries.get(key)

    def put(self, entries: Mapping[str, dict]) -> None:
        """Store a batch of answers by key; their lines go out in one append."""
        lines = [_CACHE_LINE % (_json_string(key), "".join(_LINE_JSON(response, 0)))
                 for key, response in entries.items()]
        with self._lock:
            _append(self.path, lines)
            self._entries.update(entries)


class TraceRecorder:
    """Count of backend requests that reached the model; with a path, also
    a JSONL audit log of every request."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self._calls = 0
        self._lock = threading.Lock()

    def record(self, lines: Sequence[str], misses: int) -> None:
        """Count a batch's ``misses``, its requests that reached the model;
        with a path, append its ``lines`` in one write. Each line is the
        ``json.dumps(record, sort_keys=True)`` text of one request's record,
        ``{"cache_hit": bool, "digest": str, "latency_s": float, "purpose":
        str}``, and a newline (:meth:`CachedBackend.served` writes them)."""
        with self._lock:
            self._calls += misses
            if self.path is not None and lines:
                _append(self.path, lines)

    def backend_call_count(self) -> int:
        """Requests that actually reached the wrapped backend."""
        return self._calls


def read_trace(path: Union[str, Path]) -> list[dict]:
    """The records of a trace file (:func:`maieutic.core.json_lines`): a line
    that is not a JSON object raises ``ValueError`` naming the file and line."""
    return [record for _, record in json_lines(path)]


class CachedBackend(LmBackend):
    """Caching wrapper around another backend.

    Truth and log-likelihood queries and greedy completions are always
    cached; stochastic completions are cached only when a run seed is
    provided, since without one two runs are not expected to agree.
    With ``cache=None`` the wrapper only records the call trace. Its
    batches and an NLI verifier's (``CachedVerifier``) take one path,
    :meth:`served`.
    """

    def __init__(self, inner: LmBackend, cache: Optional[ResponseCache],
                 seed: Optional[int] = None, trace: Optional[TraceRecorder] = None):
        self.inner = inner
        self.cache = cache
        self.seed = seed
        self.trace = trace or TraceRecorder()
        self.backend_id = inner.backend_id

    def _requests(self, primitive: str, arguments: Sequence[tuple]) -> list:
        return self.served(self.backend_id, self.inner, primitive, arguments)

    def served(self, owner_id: str, inner: ModelClient, primitive: str,
               arguments: Sequence[tuple]) -> list:
        """The answers of ``inner``'s primitive (named by its method) to one
        batch of argument tuples, in request order.

        One loop settles each request: it digests it once, from the JSON
        its :class:`Form` in ``inner._FORMS`` writes, and keys it with
        ``owner_id`` (and the seed, for a seeded request). Hits come from
        the cache; the misses go on to ``inner._batch`` as one batch, with
        their digests, and it times each. A request repeating an earlier
        miss of the same batch is a hit on that miss's answer. The pass that
        closes the batch writes each request's trace line from a hit or a
        miss template, in request order up to the first request that
        failed; its trace lines and new cache entries each go out in one
        append. Every answer passes through its stored form once, and a
        stored answer of the wrong shape raises ``MalformedResponse``.
        """
        form = inner._FORMS[primitive]
        cache, seed = self.cache, self.seed
        hit_line, miss_line = _TRACE_HIT % form.kind, _TRACE_MISS % form.kind
        # per request: its digest, its cache key, and None for a cache hit,
        # else the index of the miss that asks the model
        settled: list[tuple[str, Optional[str], Optional[int]]] = []
        stored: list[Optional[dict]] = []  # per request, a hit's answer, else filled by its miss
        first_miss: dict[str, int] = {}
        misses = []
        for index, args in enumerate(arguments):
            digest = request_digest(form.text(*args))
            seeded = form.seeded(*args)
            key = hit = origin = None
            if cache is not None and (not seeded or seed is not None):
                key = cache_key(owner_id, digest, seed if seeded else None)
                hit = cache.get(key)
            if hit is None:
                origin = index if key is None else first_miss.setdefault(key, index)
                if origin == index:
                    misses.append(index)
            settled.append((digest, key, origin))
            stored.append(hit)
        seconds = {}
        try:
            asked = inner._batch(primitive, [arguments[index] for index in misses],
                                 [settled[index][0] for index in misses])
            for index, (answer, took) in zip(misses, asked):
                stored[index] = form.stored(answer)
                seconds[index] = took
        finally:
            lines, fresh = [], {}
            for index, (digest, key, origin) in enumerate(settled):
                if origin != index:
                    if origin is not None:  # a repeat of an earlier miss, which was answered
                        stored[index] = stored[origin]
                    lines.append(hit_line % digest)
                elif index not in seconds:
                    break  # this miss failed, and the requests after it stay unsettled
                else:
                    lines.append(miss_line % (digest, round(seconds[index], 6)))
                    if key is not None:
                        fresh[key] = stored[index]
            self.trace.record(lines, len(seconds))
            if fresh:
                cache.put(fresh)
        return [_answered(form, answer, "cache entry") for answer in stored]
