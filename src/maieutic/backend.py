"""Language-model backends: scripted fixtures, an HTTP completion client,
a persistent response cache and the call trace.

A backend implements three primitives (answer-token scoring, text
completion, completion log-likelihood); the public query operations
render prompts, delegate to the primitives and validate what comes
back. Requests are identified by a digest over the rendered prompt and
decoding parameters, which is also the fixture key of the scripted
backend and the basis of the cache key.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from . import prompts as prompt_templates
from .core import DecodingParams, DecodingStrategy, NegationStrategy, PromptMode, PromptSet
from .errors import (
    ArgmaxTie,
    BackendUnavailable,
    CacheCorrupt,
    EmptyGeneration,
    MalformedResponse,
    MissingFixture,
    NotSupported,
)

DEFAULT_NEGATION_DECODING = DecodingParams(DecodingStrategy.GREEDY, max_tokens=64)
DEFAULT_EXPLANATION_DECODING = DecodingParams(
    DecodingStrategy.GREEDY, max_tokens=64,
    stop_sequences=prompt_templates.EXPLANATION_STOP_SEQUENCES)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def truth_request(prompt: str) -> dict:
    return {"kind": "truth", "prompt": prompt}


def completion_request(prompt: str, decoding: DecodingParams) -> dict:
    return {"kind": "completion", "prompt": prompt, "decoding": decoding.to_dict()}


def logprob_request(prompt: str, completion: str) -> dict:
    return {"kind": "logprob", "prompt": prompt, "completion": completion}


def request_digest(request: dict) -> str:
    """Stable identifier of one backend request."""
    return _sha256(_canonical(request))


def cache_key(backend_id: str, request: dict, seed: Optional[int] = None) -> str:
    """Digest of (backend id, rendered request); stochastic requests add the run seed."""
    payload = {"backend": backend_id, "request": request}
    if seed is not None:
        payload["seed"] = seed
    return _sha256(_canonical(payload))


@dataclass(frozen=True)
class TruthResponse:
    """Renormalized probabilities of the two answer tokens."""

    true_prob: float
    false_prob: float

    def argmax(self) -> bool:
        """Preferred answer; raises when the two probabilities tie exactly."""
        if self.true_prob == self.false_prob:
            raise ArgmaxTie(f"both answers at {self.true_prob}")
        return self.true_prob > self.false_prob


class LmBackend:
    """Query interface over a completion-style language model."""

    backend_id: str = "lm"

    # --- primitives a concrete backend implements ---

    def _score_answer(self, prompt: str) -> tuple[float, float]:
        """Raw (not necessarily normalized) probabilities of the answer tokens."""
        raise NotImplementedError

    def _complete(self, prompt: str, decoding: DecodingParams) -> list[str]:
        raise NotImplementedError

    def _completion_logprob(self, prompt: str, completion: str) -> float:
        raise NotImplementedError

    # --- public operations ---

    def true_prob(self, statement: str, prompts: PromptSet) -> TruthResponse:
        """Probability of the True answer token for a bare statement."""
        if not statement.strip():
            raise ValueError("statement must be non-empty")
        prompt = prompt_templates.render_truth_prompt(statement, prompts)
        return self._normalized(self._score_answer(prompt))

    def explained_answer_prob(self, question: str, explanation: str,
                              prompts: PromptSet) -> TruthResponse:
        """Answer probability conditioned on the question plus a sampled explanation."""
        prompt = prompt_templates.render_explained_answer_prompt(
            question, explanation, prompts)
        return self._normalized(self._score_answer(prompt))

    def sample_abductive(self, question: str, label: bool, prompts: PromptSet,
                         decoding: DecodingParams) -> list[str]:
        """Explanations rationalizing the given answer label.

        Whitespace-only completions are dropped, so fewer than
        ``decoding.sample_count`` strings may come back; duplicates are
        kept.
        """
        if prompts.mode is not PromptMode.ABDUCTIVE_TRIPLES:
            raise ValueError("abductive sampling requires abductive_triples prompts")
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        return self._cleaned_completions(prompt, decoding)

    def sample_explanations(self, question: str, prompts: PromptSet,
                            decoding: DecodingParams = DEFAULT_EXPLANATION_DECODING,
                            ) -> list[str]:
        """Explanations sampled before any answer label is fixed."""
        prompt = prompt_templates.render_explanation_prompt(question, prompts)
        return self._cleaned_completions(prompt, decoding)

    def sequence_logprob(self, explanation: str, question: str, label: bool,
                         prompts: PromptSet) -> float:
        """Total log-likelihood of the explanation under the abductive prompt."""
        if not explanation.strip():
            raise ValueError("explanation must be non-empty")
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        value = self._completion_logprob(prompt, explanation)
        if not math.isfinite(value) or value > 0.0:
            raise MalformedResponse(f"log-likelihood {value!r} is not a finite value <= 0")
        return value

    def negate_with_lm(self, statement: str) -> str:
        prompt = prompt_templates.render_negation_prompt(statement)
        completions = self._cleaned_completions(prompt, DEFAULT_NEGATION_DECODING)
        return completions[0]

    # --- shared validation ---

    @staticmethod
    def _normalized(raw: tuple[float, float]) -> TruthResponse:
        p_true, p_false = raw
        for value in (p_true, p_false):
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0:
                raise MalformedResponse(f"answer probability {value!r} is not usable")
        total = p_true + p_false
        if total <= 0.0:
            raise MalformedResponse("both answer tokens carry zero probability")
        return TruthResponse(true_prob=p_true / total, false_prob=p_false / total)

    def _cleaned_completions(self, prompt: str, decoding: DecodingParams) -> list[str]:
        raw = self._complete(prompt, decoding)
        kept = [text.strip() for text in raw if text and text.strip()]
        if not kept:
            raise EmptyGeneration("every completion was empty")
        return kept[: decoding.sample_count]


def negate(statement: str, strategy: NegationStrategy,
           backend: Optional[LmBackend] = None) -> str:
    """Produce the negated surface form of a statement.

    The engine stores each statement together with its negation once
    and treats the pair as an involution; this function is only the
    forward step and must not be applied to an already negated text.
    """
    if not statement.strip():
        raise ValueError("statement must be non-empty")
    if strategy is NegationStrategy.PREFIX:
        return prompt_templates.prefix_negation(statement)
    if backend is None:
        raise ValueError("lm_generated negation requires a backend")
    return backend.negate_with_lm(statement)


# --- scripted backend ---

def _validate_fixture_response(kind: str, response) -> dict:
    if not isinstance(response, dict):
        raise MalformedResponse(f"fixture response must be an object, got {type(response)}")
    if kind == "truth":
        if "true_prob" not in response or "false_prob" not in response:
            raise MalformedResponse("truth fixture needs true_prob and false_prob")
    elif kind == "completion":
        if not isinstance(response.get("completions"), list):
            raise MalformedResponse("completion fixture needs a completions list")
    elif kind == "logprob":
        if not isinstance(response.get("logprob"), (int, float)):
            raise MalformedResponse("logprob fixture needs a numeric logprob")
    return response


class ScriptedBackend(LmBackend):
    """Deterministic backend answering from a fixture table.

    The table maps request digests to response objects and is read-only
    after construction, so instances are safe to share across threads.
    """

    def __init__(self, fixtures: Union[str, Path, Mapping[str, dict]],
                 backend_id: str = "scripted"):
        if isinstance(fixtures, (str, Path)):
            with open(fixtures, "r", encoding="utf-8") as handle:
                table = json.load(handle)
        else:
            table = dict(fixtures)
        self._table: dict[str, dict] = table
        self.backend_id = backend_id

    def _lookup(self, request: dict) -> dict:
        digest = request_digest(request)
        if digest not in self._table:
            raise MissingFixture(
                f"no fixture for {request['kind']} request {digest[:12]}...")
        return _validate_fixture_response(request["kind"], self._table[digest])

    def _score_answer(self, prompt: str) -> tuple[float, float]:
        response = self._lookup(truth_request(prompt))
        return response["true_prob"], response["false_prob"]

    def _complete(self, prompt: str, decoding: DecodingParams) -> list[str]:
        response = self._lookup(completion_request(prompt, decoding))
        return [str(text) for text in response["completions"]]

    def _completion_logprob(self, prompt: str, completion: str) -> float:
        response = self._lookup(logprob_request(prompt, completion))
        return float(response["logprob"])


class FixtureBuilder:
    """Authoring helper that renders prompts exactly as the backends do.

    Collects digest-keyed responses plus a human-readable sidecar of
    the rendered prompts, so a fixture file can be reviewed entry by
    entry.
    """

    def __init__(self):
        self.responses: dict[str, dict] = {}
        self.sidecar: dict[str, dict] = {}

    def _add(self, request: dict, response: dict) -> str:
        digest = request_digest(request)
        self.responses[digest] = response
        self.sidecar[digest] = request
        return digest

    def truth(self, statement: str, prompts: PromptSet,
              true_prob: float, false_prob: float) -> str:
        prompt = prompt_templates.render_truth_prompt(statement, prompts)
        return self._add(truth_request(prompt),
                         {"true_prob": true_prob, "false_prob": false_prob})

    def explained_answer(self, question: str, explanation: str, prompts: PromptSet,
                         true_prob: float, false_prob: float) -> str:
        prompt = prompt_templates.render_explained_answer_prompt(
            question, explanation, prompts)
        return self._add(truth_request(prompt),
                         {"true_prob": true_prob, "false_prob": false_prob})

    def abductive(self, question: str, label: bool, prompts: PromptSet,
                  decoding: DecodingParams, completions: list[str]) -> str:
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        return self._add(completion_request(prompt, decoding),
                         {"completions": list(completions)})

    def explanation_samples(self, question: str, prompts: PromptSet,
                            completions: list[str],
                            decoding: DecodingParams = DEFAULT_EXPLANATION_DECODING,
                            ) -> str:
        prompt = prompt_templates.render_explanation_prompt(question, prompts)
        return self._add(completion_request(prompt, decoding),
                         {"completions": list(completions)})

    def logprob(self, explanation: str, question: str, label: bool,
                prompts: PromptSet, value: float) -> str:
        prompt = prompt_templates.render_abductive_prompt(question, label, prompts)
        return self._add(logprob_request(prompt, explanation), {"logprob": value})

    def negation(self, statement: str, completion: str) -> str:
        prompt = prompt_templates.render_negation_prompt(statement)
        return self._add(completion_request(prompt, DEFAULT_NEGATION_DECODING),
                         {"completions": [completion]})

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

    def backend(self, backend_id: str = "scripted") -> ScriptedBackend:
        return ScriptedBackend(self.responses, backend_id=backend_id)


# --- HTTP transport and backend ---

def _retry_after(value: Optional[str], timeout: float) -> Optional[float]:
    """Seconds a ``Retry-After`` header asks for, capped at the client timeout."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None  # absent, or an HTTP date: keep the exponential backoff
    if not math.isfinite(seconds) or seconds < 0:
        return None
    return min(seconds, timeout)


def post_json(url: str, body: dict, *, timeout: float, retries: int, backoff: float,
              headers: Optional[dict] = None) -> dict:
    """POST a JSON body and return the decoded JSON reply.

    Transport errors, 5xx and 429 are retried within ``retries``
    attempts, after an exponential backoff or the delay a 429's
    ``Retry-After`` names; any other status but 200 fails at once with
    ``BackendUnavailable``, as does running out of attempts.
    """
    import requests

    last_error: Optional[Exception] = None
    delay: Optional[float] = None
    for attempt in range(retries):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)) if delay is None else delay)
        delay = None
        try:
            response = requests.post(url, json=body, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        status = response.status_code
        if status >= 500 or status == 429:
            last_error = BackendUnavailable(f"server returned {status}")
            if status == 429:
                delay = _retry_after(response.headers.get("Retry-After"), timeout)
            continue
        if status != 200:
            raise BackendUnavailable(f"server returned {status}: {response.text[:200]}")
        try:
            return response.json()
        except ValueError as exc:
            raise MalformedResponse(f"response body is not JSON: {exc}") from exc
    raise BackendUnavailable(f"request failed after {retries} attempts: {last_error}")


_ANSWER_TRUE, _ANSWER_FALSE = prompt_templates.ANSWER_TOKENS


class HttpLmBackend(LmBackend):
    """Client for a completion-style HTTP API.

    The endpoint and model come from configuration; only the API key
    may fall back to the ``MAIEUTIC_API_KEY`` environment variable.
    Requests go through :func:`post_json`.
    """

    def __init__(self, endpoint: str, model: Optional[str] = None,
                 api_key: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 1.0):
        if not endpoint:
            raise ValueError("no endpoint configured")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key or os.environ.get("MAIEUTIC_API_KEY")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend_id = f"http:{self.model or 'default'}"

    def _post(self, body: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return post_json(self.endpoint, body, headers=headers, timeout=self.timeout,
                         retries=self.retries, backoff=self.backoff)

    def _body(self, prompt: str, **extra) -> dict:
        body = {"prompt": prompt}
        if self.model:
            body["model"] = self.model
        body.update(extra)
        return body

    @staticmethod
    def _choice(payload: dict) -> dict:
        choices = payload.get("choices")
        if not choices:
            raise MalformedResponse("response carries no choices")
        return choices[0]

    def _score_answer(self, prompt: str) -> tuple[float, float]:
        payload = self._post(self._body(prompt, max_tokens=1, temperature=0.0, logprobs=5))
        logprobs = self._choice(payload).get("logprobs") or {}
        top = (logprobs.get("top_logprobs") or [{}])[0]
        if _ANSWER_TRUE not in top and _ANSWER_FALSE not in top:
            raise MalformedResponse("answer tokens absent from the returned distribution")
        p_true = math.exp(top[_ANSWER_TRUE]) if _ANSWER_TRUE in top else 0.0
        p_false = math.exp(top[_ANSWER_FALSE]) if _ANSWER_FALSE in top else 0.0
        return p_true, p_false

    def _complete(self, prompt: str, decoding: DecodingParams) -> list[str]:
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
        payload = self._post(self._body(prompt, **extra))
        choices = payload.get("choices")
        if not choices:
            raise MalformedResponse("response carries no choices")
        return [str(choice.get("text", "")) for choice in choices]

    def _completion_logprob(self, prompt: str, completion: str) -> float:
        full = f"{prompt} {completion}"
        payload = self._post(self._body(full, max_tokens=0, echo=True, logprobs=0))
        logprobs = self._choice(payload).get("logprobs")
        if not logprobs or "token_logprobs" not in logprobs or "text_offset" not in logprobs:
            raise NotSupported("the API exposes no token log-probabilities")
        total = 0.0
        boundary = len(prompt)
        for offset, value in zip(logprobs["text_offset"], logprobs["token_logprobs"]):
            if offset >= boundary and value is not None:
                total += value
        return total


# --- response cache and call trace ---

class ResponseCache:
    """One JSON file per cache key; writes are atomic and serialized."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        if entry.get("key") != key:
            raise CacheCorrupt(f"cache file {path.name} stores key {entry.get('key')!r}")
        return entry["response"]

    def put(self, key: str, response: dict) -> None:
        blob = json.dumps({"key": key, "response": response}, sort_keys=True, indent=2)
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(blob + "\n")
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


class TraceRecorder:
    """Append-only JSONL audit log of backend requests."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path is not None else None
        self.records: list[dict] = []
        self._lock = threading.Lock()

    def record(self, digest: str, purpose: str, latency_s: float, cache_hit: bool) -> None:
        entry = {"digest": digest, "purpose": purpose,
                 "latency_s": round(latency_s, 6), "cache_hit": cache_hit}
        with self._lock:
            self.records.append(entry)
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def backend_call_count(self) -> int:
        """Requests that actually reached the wrapped backend."""
        with self._lock:
            return sum(1 for entry in self.records if not entry["cache_hit"])


def read_trace(path: Union[str, Path]) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
    return records


class CachedBackend(LmBackend):
    """Caching wrapper around another backend.

    Truth and log-likelihood queries and greedy completions are always
    cached; stochastic completions are cached only when a run seed is
    provided, since without one two runs are not expected to agree.
    With ``cache=None`` the wrapper only records the call trace.
    """

    def __init__(self, inner: LmBackend, cache: Optional[ResponseCache],
                 seed: Optional[int] = None, trace: Optional[TraceRecorder] = None):
        self.inner = inner
        self.cache = cache
        self.seed = seed
        self.trace = trace or TraceRecorder()
        self.backend_id = inner.backend_id

    def _through_cache(self, request: dict, cacheable: bool, seed: Optional[int], call):
        digest = request_digest(request)
        key = cache_key(self.backend_id, request, seed)
        cacheable = cacheable and self.cache is not None
        if cacheable:
            cached = self.cache.get(key)
            if cached is not None:
                self.trace.record(digest, request["kind"], 0.0, cache_hit=True)
                return cached
        started = time.monotonic()
        response = call()
        self.trace.record(digest, request["kind"], time.monotonic() - started,
                          cache_hit=False)
        if cacheable:
            self.cache.put(key, response)
        return response

    def _score_answer(self, prompt: str) -> tuple[float, float]:
        request = truth_request(prompt)
        response = self._through_cache(
            request, cacheable=True, seed=None,
            call=lambda: dict(zip(("true_prob", "false_prob"),
                                  self.inner._score_answer(prompt))))
        return response["true_prob"], response["false_prob"]

    def _complete(self, prompt: str, decoding: DecodingParams) -> list[str]:
        request = completion_request(prompt, decoding)
        stochastic = decoding.strategy is DecodingStrategy.NUCLEUS
        cacheable = not stochastic or self.seed is not None
        response = self._through_cache(
            request, cacheable=cacheable, seed=self.seed if stochastic else None,
            call=lambda: {"completions": self.inner._complete(prompt, decoding)})
        return list(response["completions"])

    def _completion_logprob(self, prompt: str, completion: str) -> float:
        request = logprob_request(prompt, completion)
        response = self._through_cache(
            request, cacheable=True, seed=None,
            call=lambda: {"logprob": self.inner._completion_logprob(prompt, completion)})
        return response["logprob"]
