"""Backend tests: digests, scripted fixtures, caching, the HTTP client."""
from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import maieutic
from maieutic import backend as backend_module
from maieutic.backend import (
    CachedBackend,
    FixtureBuilder,
    HttpLmBackend,
    ResponseCache,
    ScriptedBackend,
    TraceRecorder,
    TruthResponse,
    cache_key,
    completion_request,
    logprob_request,
    negate_all,
    read_trace,
    request_digest,
    truth_request,
)
from maieutic.core import DecodingParams, DecodingStrategy, NegationStrategy
from maieutic.errors import (
    BackendUnavailable,
    CacheCorrupt,
    EmptyGeneration,
    MalformedResponse,
    MissingFixture,
    NotSupported,
)
from maieutic.prompts import render_abductive_prompt
from maieutic.verifier import HttpNliVerifier
from scenarios import ABDUCTIVE_PROMPTS, EXPLANATION_PROMPTS, GREEDY, TRUTH_PROMPTS

NUCLEUS_PAIR = DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=0.9,
                              sample_count=2)


# --- request digests ---

def test_request_digest_is_stable_and_kind_sensitive():
    truth = truth_request("Water is wet? ...")
    assert request_digest(truth) == request_digest(truth_request("Water is wet? ..."))
    assert request_digest(truth) != request_digest(
        logprob_request("Water is wet? ...", "x"))
    assert request_digest(truth) != request_digest(truth_request("Water is dry? ..."))


def test_completion_digest_depends_on_decoding():
    greedy = completion_request("prompt text", GREEDY)
    nucleus = completion_request("prompt text", NUCLEUS_PAIR)
    assert request_digest(greedy) != request_digest(nucleus)


def test_cache_key_scopes_backend_and_seed():
    request = request_digest(truth_request("Water is wet? ..."))
    other = request_digest(truth_request("Water is dry? ..."))
    assert cache_key("a", request) == cache_key("a", request)
    assert cache_key("a", request) != cache_key("a", other)
    assert cache_key("a", request) != cache_key("b", request)
    assert cache_key("a", request) != cache_key("a", request, seed=3)
    assert cache_key("a", request, seed=3) != cache_key("a", request, seed=4)


# --- truth responses ---

def test_truth_response_argmax():
    assert TruthResponse(0.7, 0.3).argmax() is True
    assert TruthResponse(0.2, 0.8).argmax() is False


def test_truth_response_tie_answers_none():
    assert TruthResponse(0.5, 0.5).argmax() is None


# --- scripted backend through the fixture builder ---

def test_scripted_truth_renormalizes():
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.3, 0.1)
    response = builder.backend().true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert response.true_prob == pytest.approx(0.75)
    assert response.false_prob == pytest.approx(0.25)


@pytest.mark.parametrize("true_prob,false_prob", [(-0.2, 0.5), (0.0, 0.0),
                                                  (float("nan"), 0.5)])
def test_scripted_truth_rejects_bad_probabilities(true_prob, false_prob):
    builder = FixtureBuilder()
    digest = builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.5, 0.5)
    builder.responses[digest] = {"true_prob": true_prob, "false_prob": false_prob}
    with pytest.raises(MalformedResponse):
        builder.backend().true_prob("Ice floats on water", TRUTH_PROMPTS)


def test_scripted_missing_fixture():
    backend = ScriptedBackend({})
    with pytest.raises(MissingFixture):
        backend.true_prob("Ice floats on water", TRUTH_PROMPTS)


def test_sample_abductive_strips_and_truncates():
    decoding = DecodingParams(DecodingStrategy.NUCLEUS, sample_count=3)
    builder = FixtureBuilder()
    builder.abductive("Ice floats on water", True, ABDUCTIVE_PROMPTS, decoding,
                      ["  padded reason  ", "", "dup", "dup", "extra"])
    out = builder.backend().sample_abductive("Ice floats on water", True,
                                             ABDUCTIVE_PROMPTS, decoding)
    # empties go, order survives, the count is capped; duplicates are
    # the tree builder's concern, not the backend's
    assert out == ["padded reason", "dup", "dup"]


def test_sample_abductive_empty_generation():
    builder = FixtureBuilder()
    builder.abductive("Ice floats on water", False, ABDUCTIVE_PROMPTS, GREEDY,
                      ["", "   "])
    with pytest.raises(EmptyGeneration):
        builder.backend().sample_abductive("Ice floats on water", False,
                                           ABDUCTIVE_PROMPTS, GREEDY)


@pytest.mark.parametrize("completions", [[None], ["fine", 3], "a string"],
                         ids=["null", "number", "not-a-list"])
def test_scripted_completions_must_be_a_list_of_strings(completions):
    builder = FixtureBuilder()
    digest = builder.abductive("Ice floats on water", True, ABDUCTIVE_PROMPTS, GREEDY, [])
    builder.responses[digest] = {"completions": completions}
    with pytest.raises(MalformedResponse):
        builder.backend().abductive_samples([("Ice floats on water", True)],
                                            ABDUCTIVE_PROMPTS, GREEDY)


def test_explained_answer_prob():
    builder = FixtureBuilder()
    builder.explained_answer("Ice floats on water?", "Ice is less dense.",
                             EXPLANATION_PROMPTS, 0.9, 0.1)
    response = builder.backend().explained_answer_prob(
        "Ice floats on water?", "Ice is less dense.", EXPLANATION_PROMPTS)
    assert response.true_prob == pytest.approx(0.9)


def test_sample_explanations_uses_default_decoding():
    builder = FixtureBuilder()
    builder.explanation_samples("Ice floats on water?", EXPLANATION_PROMPTS,
                                ["Ice is less dense than water."])
    out = builder.backend().sample_explanations("Ice floats on water?",
                                                EXPLANATION_PROMPTS)
    assert out == ["Ice is less dense than water."]


def test_sequence_logprob_validates_range():
    builder = FixtureBuilder()
    builder.logprob("Ice is less dense.", "Ice floats on water", True,
                    ABDUCTIVE_PROMPTS, -3.5)
    backend = builder.backend()
    assert backend.sequence_logprob("Ice is less dense.", "Ice floats on water",
                                    True, ABDUCTIVE_PROMPTS) == -3.5
    bad = FixtureBuilder()
    bad.logprob("Ice is less dense.", "Ice floats on water", True,
                ABDUCTIVE_PROMPTS, 1.0)
    with pytest.raises(MalformedResponse):
        bad.backend().sequence_logprob("Ice is less dense.", "Ice floats on water",
                                       True, ABDUCTIVE_PROMPTS)


def test_negate_prefix_and_lm():
    assert negate_all(["Ice floats."], NegationStrategy.PREFIX) == \
        ["It is wrong to say that ice floats."]
    builder = FixtureBuilder()
    builder.negation("Ice floats.", "Ice does not float.")
    assert negate_all(["Ice floats."], NegationStrategy.LM_GENERATED,
                      builder.backend()) == ["Ice does not float."]
    with pytest.raises(ValueError):
        negate_all(["Ice floats."], NegationStrategy.LM_GENERATED)


def test_fixture_file_round_trip(tmp_path):
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.8, 0.2)
    path = builder.write(tmp_path / "fixtures.json")
    backend = ScriptedBackend(path)
    assert backend.true_prob("Ice floats on water",
                             TRUTH_PROMPTS).true_prob == pytest.approx(0.8)
    sidecar = json.loads((tmp_path / "fixtures.json.prompts.json").read_text())
    (rendered,) = [entry["prompt"] for entry in sidecar.values()]
    assert rendered.endswith("Ice floats on water?")


def test_fixture_builder_merge():
    left = FixtureBuilder()
    left.truth("Ice floats on water", TRUTH_PROMPTS, 0.8, 0.2)
    right = FixtureBuilder()
    right.truth("Lead floats on water", TRUTH_PROMPTS, 0.1, 0.9)
    left.merge(right)
    backend = left.backend()
    assert backend.true_prob("Lead floats on water",
                             TRUTH_PROMPTS).true_prob == pytest.approx(0.1)
    assert backend.true_prob("Ice floats on water",
                             TRUTH_PROMPTS).true_prob == pytest.approx(0.8)


# --- response cache ---

def _store_lines(directory: Path) -> list[dict]:
    return [json.loads(line) for line in
            (directory / "responses.jsonl").read_text(encoding="utf-8").splitlines()]


def test_response_cache_round_trip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("k1") is None
    cache.put({"k1": {"true_prob": 0.5, "false_prob": 0.5}})
    assert cache.get("k1") == {"true_prob": 0.5, "false_prob": 0.5}
    cache.put({"k1": {"true_prob": 0.9, "false_prob": 0.1}})
    assert cache.get("k1")["true_prob"] == 0.9
    assert ResponseCache(tmp_path / "cache").get("k1")["true_prob"] == 0.9
    assert [path.name for path in (tmp_path / "cache").iterdir()] == ["responses.jsonl"]


def test_response_cache_detects_key_mismatch(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put({"k1": {"logprob": -1.0}})
    with open(tmp_path / "cache" / "responses.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"response": {"logprob": -2.0}}) + "\n")  # no key
    with pytest.raises(CacheCorrupt, match="line 2"):
        ResponseCache(tmp_path / "cache")


def test_response_cache_drops_a_torn_last_line(tmp_path):
    ResponseCache(tmp_path).put({"k1": {"logprob": -1.0}})
    with open(tmp_path / "responses.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"key": "k2", "response": {"logp')  # a writer stopped here
    reopened = ResponseCache(tmp_path)
    assert reopened.get("k1") == {"logprob": -1.0}
    assert reopened.get("k2") is None
    reopened.put({"k3": {"logprob": -3.0}})
    assert _store_lines(tmp_path) == [{"key": "k1", "response": {"logprob": -1.0}},
                                      {"key": "k3", "response": {"logprob": -3.0}}]
    assert ResponseCache(tmp_path).get("k3") == {"logprob": -3.0}


@pytest.mark.parametrize("line", ["not json", "", "[1, 2]", '{"key": "k9"}'])
def test_response_cache_names_an_unparsable_line(tmp_path, line):
    ResponseCache(tmp_path).put({"k1": {"logprob": -1.0}})
    with open(tmp_path / "responses.jsonl", "a", encoding="utf-8") as handle:
        handle.write(line + "\n" + json.dumps({"key": "k2", "response": {}}) + "\n")
    with pytest.raises(CacheCorrupt, match="line 2 "):
        ResponseCache(tmp_path)


def test_two_caches_on_one_directory_both_append(tmp_path):
    first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
    first.put({"a": {"logprob": -1.0}, "shared": {"logprob": -1.5}})
    second.put({"b": {"logprob": -2.0}})
    second.put({"shared": {"logprob": -2.5}})
    first.put({"c": {"logprob": -3.0}})
    assert second.get("a") is None  # each instance reads the file once, on open
    later = ResponseCache(tmp_path)
    assert {key: later.get(key)["logprob"] for key in ("a", "b", "c", "shared")} == {
        "a": -1.0, "b": -2.0, "c": -3.0, "shared": -2.5}
    assert len(_store_lines(tmp_path)) == 5


def test_threads_sharing_one_cache_and_trace_lose_no_line(tmp_path):
    cache, trace = ResponseCache(tmp_path), TraceRecorder(tmp_path / "trace.jsonl")

    def work(worker: int) -> None:
        for batch in range(20):
            keys = [f"{worker}.{batch}.{index}" for index in range(3)]
            cache.put({key: {"logprob": -float(worker)} for key in keys})
            trace.record([{"digest": key, "purpose": "logprob", "latency_s": 0.0,
                           "cache_hit": False} for key in keys])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(_store_lines(tmp_path)) == 6 * 20 * 3
    reopened = ResponseCache(tmp_path)
    assert all(reopened.get(f"{worker}.19.2") == {"logprob": -float(worker)}
               for worker in range(6))
    # each batch reaches the file whole and in request order
    traced = [entry["digest"] for entry in read_trace(tmp_path / "trace.jsonl")]
    batches = [traced[start:start + 3] for start in range(0, len(traced), 3)]
    assert all(batch == [f"{batch[0][:-2]}.{index}" for index in range(3)]
               for batch in batches)
    assert sorted(batch[0][:-2] for batch in batches) == sorted(
        f"{worker}.{batch}" for worker in range(6) for batch in range(20))
    assert trace.backend_call_count() == 6 * 20 * 3


# --- cached backend ---

def _truth_world():
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.8, 0.2)
    return builder.backend()


def test_cached_backend_serves_repeats_from_cache(tmp_path):
    trace = TraceRecorder(tmp_path / "trace.jsonl")
    backend = CachedBackend(_truth_world(), ResponseCache(tmp_path), trace=trace)
    for _ in range(3):
        assert backend.true_prob("Ice floats on water",
                                 TRUTH_PROMPTS).true_prob == pytest.approx(0.8)
    assert [entry["cache_hit"] for entry in read_trace(trace.path)] == [False, True, True]
    assert trace.backend_call_count() == 1


def test_cache_survives_backend_restart(tmp_path):
    first = CachedBackend(_truth_world(), ResponseCache(tmp_path))
    first.true_prob("Ice floats on water", TRUTH_PROMPTS)
    trace = TraceRecorder()
    second = CachedBackend(ScriptedBackend({}), ResponseCache(tmp_path),
                           trace=trace)
    # the empty inner backend proves the response came from disk
    assert second.true_prob("Ice floats on water",
                            TRUTH_PROMPTS).true_prob == pytest.approx(0.8)
    assert trace.backend_call_count() == 0


def test_nucleus_completions_cached_only_with_seed(tmp_path):
    builder = FixtureBuilder()
    builder.abductive("Ice floats on water", True, ABDUCTIVE_PROMPTS,
                      NUCLEUS_PAIR, ["Ice is less dense.", "Ice traps air."])
    inner = builder.backend()

    unseeded_trace = TraceRecorder()
    unseeded = CachedBackend(inner, ResponseCache(tmp_path / "a"),
                             trace=unseeded_trace)
    for _ in range(2):
        unseeded.sample_abductive("Ice floats on water", True,
                                  ABDUCTIVE_PROMPTS, NUCLEUS_PAIR)
    assert unseeded_trace.backend_call_count() == 2

    seeded_trace = TraceRecorder()
    seeded = CachedBackend(inner, ResponseCache(tmp_path / "b"), seed=7,
                           trace=seeded_trace)
    for _ in range(2):
        seeded.sample_abductive("Ice floats on water", True,
                                ABDUCTIVE_PROMPTS, NUCLEUS_PAIR)
    assert seeded_trace.backend_call_count() == 1

    other_seed = CachedBackend(inner, ResponseCache(tmp_path / "b"), seed=8)
    other_trace = other_seed.trace
    other_seed.sample_abductive("Ice floats on water", True,
                                ABDUCTIVE_PROMPTS, NUCLEUS_PAIR)
    assert other_trace.backend_call_count() == 1  # seed keys do not collide


def test_greedy_completions_cached_without_seed(tmp_path):
    builder = FixtureBuilder()
    builder.abductive("Ice floats on water", False, ABDUCTIVE_PROMPTS, GREEDY,
                      ["Ice is less dense."])
    trace = TraceRecorder()
    backend = CachedBackend(builder.backend(), ResponseCache(tmp_path),
                            trace=trace)
    for _ in range(2):
        backend.sample_abductive("Ice floats on water", False,
                                 ABDUCTIVE_PROMPTS, GREEDY)
    assert trace.backend_call_count() == 1


def test_trace_only_wrapper_never_caches(tmp_path):
    trace = TraceRecorder(tmp_path / "trace.jsonl")
    backend = CachedBackend(_truth_world(), cache=None, trace=trace)
    backend.true_prob("Ice floats on water", TRUTH_PROMPTS)
    backend.true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert trace.backend_call_count() == 2
    replayed = read_trace(tmp_path / "trace.jsonl")
    assert [entry["cache_hit"] for entry in replayed] == [False, False]
    assert {entry["purpose"] for entry in replayed} == {"truth"}


def test_the_connection_pool_closes_its_idle_connections_at_exit():
    src = str(Path(maieutic.__file__).resolve().parents[1])
    probe = ("import atexit\n"
             "from maieutic import backend\n"
             "class Idle:\n"
             "    closed = False\n"
             "    def close(self):\n"
             "        Idle.closed = True\n"
             "backend._idle[('http', '127.0.0.1', 9)] = [Idle()]\n"
             "atexit._run_exitfuncs()\n"
             "print(Idle.closed, backend._idle)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "True {}"


# --- HTTP client against a local stub ---

class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"body": body, "auth": self.headers.get("Authorization")})
        if self.server.script:
            status, payload, *extra = self.server.script.pop(0)
        else:
            status, payload, extra = 200, {"choices": [{"text": " ok"}]}, []
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.script = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _client(stub, **kwargs):
    return HttpLmBackend(stub.endpoint, **kwargs)


def test_http_truth_scoring(stub):
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" True": math.log(0.6), " False": math.log(0.2), " Maybe": math.log(0.1)},
    ]}}]}))
    client = _client(stub, model="base", api_key="secret-key")
    response = client.true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert response.true_prob == pytest.approx(0.75)
    sent = stub.requests[0]
    assert sent["auth"] == "Bearer secret-key"
    assert sent["body"]["model"] == "base"
    assert sent["body"]["max_tokens"] == 1
    assert sent["body"]["logprobs"] == 5


def test_http_truth_missing_answer_tokens(stub):
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" Yes": -0.1, " No": -2.0},
    ]}}]}))
    with pytest.raises(MalformedResponse):
        _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)


def test_http_one_sided_answer_distribution(stub):
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" True": math.log(0.4)},
    ]}}]}))
    response = _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert response.true_prob == 1.0


def test_http_completion_request_carries_decoding(stub):
    stub.script.append((200, {"choices": [{"text": " first reason"},
                                          {"text": " second reason"}]}))
    out = _client(stub).sample_abductive("Ice floats on water", True,
                                         ABDUCTIVE_PROMPTS, NUCLEUS_PAIR)
    assert out == ["first reason", "second reason"]
    body = stub.requests[0]["body"]
    assert body["n"] == 2
    assert body["top_p"] == 0.9
    assert body["temperature"] == 1.0
    assert "model" not in body


def test_http_null_completion_text_is_malformed(stub):
    stub.script.append((200, {"choices": [{"text": " a reason"}, {"text": None}]}))
    with pytest.raises(MalformedResponse):
        _client(stub).sample_abductive("Ice floats on water", True,
                                       ABDUCTIVE_PROMPTS, NUCLEUS_PAIR)
    assert len(stub.requests) == 1


@pytest.mark.parametrize("retries", [0, -1])
def test_http_client_rejects_fewer_than_one_attempt(retries):
    with pytest.raises(ValueError, match="retries"):
        HttpLmBackend("http://127.0.0.1:9/v1", retries=retries)


def test_http_retries_on_server_errors(stub):
    stub.script.append((500, {}))
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" True": -0.5, " False": -1.5}]}}]}))
    response = _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert 0.0 < response.true_prob < 1.0
    assert len(stub.requests) == 2


def test_http_gives_up_after_retry_budget(stub):
    stub.script.extend([(503, {}), (503, {}), (503, {})])
    with pytest.raises(BackendUnavailable):
        _client(stub, retries=3).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert len(stub.requests) == 3


def test_http_retries_on_rate_limit(stub):
    stub.script.append((429, {}, {"Retry-After": "0"}))
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" True": -0.5, " False": -1.5}]}}]}))
    response = _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert 0.0 < response.true_prob < 1.0
    assert len(stub.requests) == 2


def test_http_rate_limit_spends_the_retry_budget(stub):
    stub.script.extend([(429, {})] * 3)
    with pytest.raises(BackendUnavailable):
        _client(stub, retries=3).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert len(stub.requests) == 3


def test_http_retry_after_waits_at_most_the_timeout(stub, monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module.time, "sleep", slept.append)
    stub.script.extend([(429, {}, {"Retry-After": "120"}),
                        (429, {}, {"Retry-After": "0.25"}),
                        (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                        (503, {}, {"Retry-After": "7"}),
                        (503, {})])
    with pytest.raises(BackendUnavailable):
        _client(stub, retries=5, timeout=2.0).true_prob(
            "Ice floats on water", TRUTH_PROMPTS)
    # capped at the timeout, honoured, a date (backoff), ignored on a 503 (backoff)
    assert slept == [2.0, 0.25, 0.04, 0.08]


def test_http_client_errors_do_not_retry(stub):
    stub.script.append((403, {"error": "forbidden"}))
    with pytest.raises(BackendUnavailable):
        _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert len(stub.requests) == 1


def test_http_echo_logprob_sums_past_the_prompt(stub):
    prompt = render_abductive_prompt("Ice floats on water", True,
                                     ABDUCTIVE_PROMPTS)
    boundary = len(prompt)
    stub.script.append((200, {"choices": [{"logprobs": {
        "token_logprobs": [None, -9.0, -2.0, -0.5],
        "text_offset": [0, boundary - 5, boundary, boundary + 3],
    }}]}))
    value = _client(stub).sequence_logprob("Ice is less dense.",
                                           "Ice floats on water", True,
                                           ABDUCTIVE_PROMPTS)
    assert value == pytest.approx(-2.5)
    body = stub.requests[0]["body"]
    assert body["echo"] is True
    assert body["max_tokens"] == 0


def test_http_logprob_unsupported(stub):
    stub.script.append((200, {"choices": [{"text": "no logprobs here"}]}))
    with pytest.raises(NotSupported):
        _client(stub).sequence_logprob("Ice is less dense.",
                                       "Ice floats on water", True,
                                       ABDUCTIVE_PROMPTS)


def _top_logprobs(top) -> dict:
    return {"choices": [{"logprobs": {"top_logprobs": [top]}}]}


@pytest.mark.parametrize("payload,kind", [
    ([{"choices": []}], "truth"),                              # a list, not an object
    ({"choices": ["True"]}, "truth"),                          # a choice that is no object
    (_top_logprobs(" True"), "truth"),                         # top_logprobs[0] a string
    (_top_logprobs({" True": None, " False": -1.0}), "truth"),
    (_top_logprobs({" True": 1000.0, " False": -1.0}), "truth"),
    # the offset lies past any prompt, so the entry counts
    ({"choices": [{"logprobs": {"token_logprobs": [None, "-2.0"],
                                "text_offset": [0, 10 ** 9]}}]}, "logprob"),
], ids=["list", "choice", "top-string", "null", "positive", "token-string"])
def test_http_lm_malformed_reply(stub, payload, kind):
    stub.script.append((200, payload))
    client = _client(stub)
    with pytest.raises(MalformedResponse):
        if kind == "truth":
            client.true_prob("Ice floats on water", TRUTH_PROMPTS)
        else:
            client.sequence_logprob("Ice is less dense.", "Ice floats on water", True,
                                    ABDUCTIVE_PROMPTS)
    assert len(stub.requests) == 1


def test_http_api_key_from_environment(stub, monkeypatch):
    monkeypatch.setenv("MAIEUTIC_API_KEY", "env-key")
    stub.script.append((200, {"choices": [{"logprobs": {"top_logprobs": [
        {" True": -0.5, " False": -1.5}]}}]}))
    _client(stub).true_prob("Ice floats on water", TRUTH_PROMPTS)
    assert stub.requests[0]["auth"] == "Bearer env-key"


def test_http_requires_endpoint():
    with pytest.raises(ValueError):
        HttpLmBackend("")


UNUSABLE_ENDPOINTS = ["http:///v1", "ftp://x/v1", "localhost:8000/v1",
                      "http://127.0.0.1:99999/v1", f"http://{'a' * 64}.example/v1"]


@pytest.mark.parametrize("client", [HttpLmBackend, HttpNliVerifier])
@pytest.mark.parametrize("endpoint", UNUSABLE_ENDPOINTS)
def test_http_clients_reject_an_unusable_endpoint_when_built(client, endpoint):
    # no host, another scheme, no scheme, a port out of range, a host name
    # label longer than 63 characters
    with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
        client(endpoint)


UNUSABLE_TIMEOUTS = [0, -1, float("nan"), float("inf")]


@pytest.mark.parametrize("client", [HttpLmBackend, HttpNliVerifier])
@pytest.mark.parametrize("timeout", UNUSABLE_TIMEOUTS)
def test_http_clients_reject_an_unusable_timeout_when_built(client, timeout):
    with pytest.raises(ValueError, match=re.escape(f"timeout must be a finite number "
                                                   f"of seconds > 0, not {timeout!r}")):
        client("http://127.0.0.1:9/v1", timeout=timeout)


# --- the reply reader, against replies written byte for byte ---

_TRUTH_REPLY = json.dumps({"choices": [{"logprobs": {"top_logprobs": [
    {" True": math.log(0.8), " False": math.log(0.2)}]}}]}).encode("utf-8")


def _reply(body: bytes, head: str = "HTTP/1.1 200 OK") -> bytes:
    return f"{head}\r\nContent-Length: {len(body)}\r\n\r\n".encode("ascii") + body


class _RawReplyHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted (raw reply, close after it)."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests += 1
        reply, self.close_connection = self.server.replies.pop(0)
        self.wfile.write(reply)


@pytest.fixture()
def raw_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RawReplyHandler)
    server.replies = []
    server.requests = server.connections = 0
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _kept_connections(server) -> int:
    """Connections this process keeps open to the server for reuse."""
    host = ("http", "127.0.0.1", server.server_address[1])
    return len(backend_module._idle.get(host, []))


def _truth(client) -> float:
    return client.true_prob("Ice floats on water", TRUTH_PROMPTS).true_prob


def test_http_reads_a_chunked_reply(raw_stub):
    chunks = [_TRUTH_REPLY[:7], _TRUTH_REPLY[7:40], _TRUTH_REPLY[40:]]
    reply = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             + b"".join(b"%x;note=1\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
             + b"0\r\nX-Trailer: done\r\n\r\n")
    raw_stub.replies.append((reply, False))
    assert _truth(HttpLmBackend(raw_stub.endpoint, retries=1)) == pytest.approx(0.8)
    assert _kept_connections(raw_stub) == 1


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + _TRUTH_REPLY,  # body ends at the close
    _reply(_TRUTH_REPLY, "HTTP/1.0 200 OK"),  # HTTP/1.0 without keep-alive
], ids=["connection-close", "http-1.0"])
def test_http_opens_a_new_connection_after_a_closing_reply(raw_stub, reply):
    raw_stub.replies += [(reply, reply.startswith(b"HTTP/1.1"))] * 2
    client = HttpLmBackend(raw_stub.endpoint, retries=1)
    for _ in range(2):
        assert _truth(client) == pytest.approx(0.8)
        assert _kept_connections(raw_stub) == 0
    assert (raw_stub.requests, raw_stub.connections) == (2, 2)


def test_http_retries_a_garbled_status_line_then_gives_up(raw_stub):
    raw_stub.replies += [(_reply(b"{}", "HTTP/1.1 2OO OK"), True)] * 3
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        _truth(HttpLmBackend(raw_stub.endpoint, retries=3))
    assert raw_stub.requests == 3


def test_http_retries_a_reply_cut_inside_its_body(raw_stub):
    raw_stub.replies += [(_reply(_TRUTH_REPLY)[:-10], True), (_reply(_TRUTH_REPLY), False)]
    assert _truth(HttpLmBackend(raw_stub.endpoint)) == pytest.approx(0.8)
    assert raw_stub.requests == 2


# --- HTTPS against a self-signed certificate ---

class _TlsServer(ThreadingHTTPServer):
    request_queue_size = 2 * backend_module.MAX_IN_FLIGHT  # a cold batch connects at once

    def get_request(self):
        sock, address = super().get_request()
        self.handshakes += 1
        return self.context.wrap_socket(sock, server_side=True), address


class _SlowHandshakeTlsServer(_TlsServer):
    """Shakes hands on each connection's own thread, 0.2 s after it came in."""

    def get_request(self):
        sock, address = ThreadingHTTPServer.get_request(self)
        self.handshakes += 1
        return self.context.wrap_socket(sock, server_side=True,
                                        do_handshake_on_connect=False), address

    def finish_request(self, request, client_address):
        time.sleep(0.2)
        request.do_handshake()
        super().finish_request(request, client_address)


@contextlib.contextmanager
def _serving_tls(tmp_path, server_class):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("the openssl command is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run([openssl, "req", "-x509", "-newkey", "ec",
                    "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
                    "-keyout", str(key), "-out", str(cert), "-days", "1",
                    "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
                   check=True, capture_output=True, timeout=60)
    server = server_class(("127.0.0.1", 0), _StubHandler)
    server.context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server.context.load_cert_chain(cert, key)
    server.cert = cert
    server.handshakes = 0
    server.requests = []
    server.script = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server.endpoint = f"https://127.0.0.1:{server.server_address[1]}/v1/completions"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture()
def tls_stub(tmp_path):
    with _serving_tls(tmp_path, _TlsServer) as server:
        yield server


def test_https_refuses_a_certificate_it_does_not_trust(tls_stub, monkeypatch):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    with pytest.raises(BackendUnavailable, match="certificate verify failed"):
        _truth(HttpLmBackend(tls_stub.endpoint, retries=2))
    assert tls_stub.handshakes == 2
    assert tls_stub.requests == []


def test_https_answers_once_the_certificate_is_trusted(tls_stub, monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(tls_stub.cert))
    tls_stub.script.append((200, json.loads(_TRUTH_REPLY)))
    assert _truth(HttpLmBackend(tls_stub.endpoint, retries=1)) == pytest.approx(0.8)
    assert len(tls_stub.requests) == 1


def test_an_https_client_makes_one_tls_context_for_all_its_connections(tls_stub,
                                                                        monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(tls_stub.cert))
    made, create = [], ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context",
                        lambda *args, **kwargs: made.append(args) or create(*args, **kwargs))
    tls_stub.script.extend([(200, {"label": "neutral"})] * 16)
    verifier = HttpNliVerifier(tls_stub.endpoint)
    judgments = verifier.nli_batch([(f"premise {n}", f"hypothesis {n}") for n in range(16)])
    assert [judgment.label.value for judgment in judgments] == ["neutral"] * 16
    assert len(tls_stub.requests) == 16
    assert len(made) == 1


def test_a_cold_wave_opens_its_connections_together(tmp_path, monkeypatch):
    with _serving_tls(tmp_path, _SlowHandshakeTlsServer) as server:
        monkeypatch.setenv("SSL_CERT_FILE", str(server.cert))
        server.script.extend([(200, {"label": "neutral"})] * 8)
        verifier = HttpNliVerifier(server.endpoint)
        started = time.monotonic()
        judgments = verifier.nli_batch([(f"premise {n}", "hypothesis") for n in range(8)])
        elapsed = time.monotonic() - started
    assert [judgment.label.value for judgment in judgments] == ["neutral"] * 8
    assert server.handshakes == 8
    assert elapsed < 0.8  # one handshake after another takes 1.6 s


class _IdleDroppingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # replies leave the connection open...

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.request_count += 1
        blob = json.dumps({"choices": [{"logprobs": {"top_logprobs": [
            {" True": math.log(0.8), " False": math.log(0.2)}]}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        self.close_connection = True  # ...but the server drops it once idle


class _IdleDroppingServer(ThreadingHTTPServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.dropped.release()


@contextlib.contextmanager
def _idle_dropping_server():
    server = _IdleDroppingServer(("127.0.0.1", 0), _IdleDroppingHandler)
    server.request_count = 0
    server.dropped = threading.Semaphore(0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_resends_once_on_a_connection_dropped_while_idle(monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module.time, "sleep", slept.append)
    with _idle_dropping_server() as server:
        # a single attempt: a resend that spent one would fail the call
        client = HttpLmBackend(f"http://127.0.0.1:{server.server_address[1]}/v1",
                               retries=1)
        for _ in range(3):
            response = client.true_prob("Ice floats on water", TRUTH_PROMPTS)
            assert response.true_prob == pytest.approx(0.8)
            assert server.dropped.acquire(timeout=5)
    assert server.request_count == 3
    assert slept == []


def test_http_resends_a_wave_dropped_while_idle_on_new_connections(monkeypatch):
    slept = []
    monkeypatch.setattr(backend_module.time, "sleep", slept.append)
    statements = [f"Statement {index} holds" for index in range(4)]
    with _idle_dropping_server() as server:
        client = HttpLmBackend(f"http://127.0.0.1:{server.server_address[1]}/v1",
                               retries=1)
        for _ in range(2):
            responses = client.true_probs(statements, TRUTH_PROMPTS)
            assert [response.true_prob for response in responses] == [pytest.approx(0.8)] * 4
            for _ in statements:
                assert server.dropped.acquire(timeout=5)
    assert server.request_count == 8
    assert slept == []


def test_every_export_resolves_once():
    assert len(maieutic.__all__) == len(set(maieutic.__all__))
    missing = [name for name in maieutic.__all__ if not hasattr(maieutic, name)]
    assert missing == []


def test_importing_the_package_leaves_http_client_unloaded():
    # socket (and ssl, for https) is imported on the first connection
    # only, which keeps start-up fast for scripted and cached runs
    src = str(Path(maieutic.__file__).resolve().parents[1])
    probe = ("import sys, maieutic\n"
             "print([name for name in ('http.client', 'socket', 'ssl') if name in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_importing_the_package_leaves_concurrent_futures_unloaded():
    # no HTTP batch needs an executor; only evaluate's worker pool imports it
    src = str(Path(maieutic.__file__).resolve().parents[1])
    probe = "import sys, maieutic; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy serves only the exhaustive test oracle, which imports it itself
    src = str(Path(maieutic.__file__).resolve().parents[1])
    probe = "import sys, maieutic; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"
