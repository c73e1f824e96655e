"""Batched requests over HTTP: answers, clauses, cache and trace come out in
request order whatever order the replies arrive in, and the shared
executor never has more requests in flight than its cap."""
from __future__ import annotations

import json
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from maieutic import backend as backend_module
from maieutic import harness
from maieutic.backend import (
    MAX_IN_FLIGHT,
    CachedBackend,
    FixtureBuilder,
    HttpLmBackend,
    ResponseCache,
    ScriptedBackend,
    TraceRecorder,
    read_trace,
)
from maieutic.compiler import CompileMode, cnf_to_json
from maieutic.errors import BackendUnavailable, MissingFixture
from maieutic.verifier import HttpNliVerifier, ScriptedNliVerifier
from scenarios import TRUTH_PROMPTS, random_world


class _Tables:
    """Wire-keyed answers to the requests a ``FixtureBuilder`` recorded."""

    def __init__(self, builder: FixtureBuilder, nli_records=()):
        self.truth, self.completion, self.logprob = {}, {}, {}
        for digest, request in builder.sidecar.items():
            response = builder.responses[digest]
            prompt = request["prompt"]
            if request["kind"] == "truth":
                self.truth[prompt] = response
            elif request["kind"] == "completion":
                samples = request["decoding"]["sample_count"]
                self.completion[(prompt, samples)] = response["completions"]
            else:
                self.logprob[f"{prompt} {request['completion']}"] = (len(prompt),
                                                                      response["logprob"])
        self.nli = {(r["premise"], r["hypothesis"]): r["label"] for r in nli_records}

    def answer(self, path: str, body: dict) -> dict:
        if path.endswith("/nli"):
            pair = (body["premise"], body["hypothesis"])
            same = pair[0] == pair[1]
            return {"label": self.nli.get(pair, "entail" if same else "neutral")}
        prompt = body["prompt"]
        if body.get("echo"):
            boundary, value = self.logprob[prompt]
            return {"choices": [{"logprobs": {"text_offset": [0, boundary],
                                              "token_logprobs": [None, value]}}]}
        if body.get("max_tokens") == 1:
            probs = self.truth[prompt]
            top = {token: math.log(probs[key]) for token, key in
                   ((" True", "true_prob"), (" False", "false_prob")) if probs[key] > 0}
            return {"choices": [{"logprobs": {"top_logprobs": [top]}}]}
        return {"choices": [{"text": text}
                            for text in self.completion[(prompt, body["n"])]]}


def _as_seen_over_http(builder: FixtureBuilder) -> ScriptedBackend:
    """The scripted backend answering exactly what the HTTP client reads:
    truth probabilities travel as log-probabilities."""
    table = {}
    for digest, response in builder.responses.items():
        if "true_prob" in response:
            response = {key: math.exp(math.log(value)) if value > 0 else 0.0
                        for key, value in response.items()}
        table[digest] = response
    backend = ScriptedBackend(table)
    backend.backend_id = "http:default"
    return backend


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # kept-alive connections
    timeout = 2  # idle connections are dropped after this many seconds
    disable_nagle_algorithm = True  # the body is a second write after the headers

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            arrival = server.arrivals
            server.arrivals += 1
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:  # respond may add a dict of reply headers
            delay, status, payload, *headers = server.respond(self.path, body, arrival)
        except KeyError:
            delay, status, payload, headers = 0.0, 404, {"error": "unknown request"}, []
        time.sleep(delay)
        blob = json.dumps(payload).encode("utf-8")
        with server.lock:
            server.in_flight -= 1
            server.replies.append(arrival)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)


class _Server(ThreadingHTTPServer):
    request_queue_size = 2 * MAX_IN_FLIGHT  # every sending thread may connect at once


@pytest.fixture()
def stub():
    server = _Server(("127.0.0.1", 0), _Handler)
    server.lock = threading.Lock()
    server.arrivals = server.in_flight = server.peak = server.connections = 0
    server.replies = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server.base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _worlds(seeds) -> tuple[FixtureBuilder, list[str], list[dict]]:
    """Random scenarios: merged fixtures, questions, and NLI records that
    label one in five ordered statement pairs of each scenario."""
    merged, questions, nli_records = FixtureBuilder(), [], []
    rng = random.Random(11)
    for seed in seeds:
        world, question = random_world(seed)
        merged.merge(world.builder)
        questions.append(question)
        nli_records += [{"premise": first, "hypothesis": second,
                         "label": rng.choice(["entail", "contradict"])}
                        for first in world.probs for second in world.probs
                        if first != second and rng.random() < 0.2]
    return merged, questions, nli_records


def _cache_files(directory: Path) -> list[tuple[str, bytes]]:
    return [(path.name, path.read_bytes()) for path in sorted(directory.iterdir())]


@pytest.mark.parametrize("mode", [CompileMode.LIKELIHOOD, CompileMode.VERIFIER])
def test_fan_out_answers_byte_identical_to_the_scripted_backend(stub, tmp_path, mode):
    merged, questions, nli_records = _worlds(range(300, 308))
    tables = _Tables(merged, nli_records)
    delays = [0.0, 0.001, 0.002, 0.004, 0.006, 0.008]
    random.Random(5).shuffle(delays)
    stub.respond = lambda path, body, arrival: (
        delays[arrival % len(delays)], 200, tables.answer(path, body))

    def run(backend, verifier, tag):
        trace = TraceRecorder(tmp_path / f"{tag}-trace.jsonl")
        engine = harness.Engine(
            backend=CachedBackend(backend, ResponseCache(tmp_path / tag), seed=0,
                                  trace=trace),
            mode=mode, verifier=verifier)
        results = [harness.infer(question, harness.Method.MAIEUTIC, engine)
                   for question in questions]
        records = [(entry["digest"], entry["purpose"], entry["cache_hit"])
                   for entry in read_trace(trace.path)]
        return ([harness.result_to_json(result) for result in results],
                [cnf_to_json(result.cnf) for result in results if result.cnf is not None],
                records, _cache_files(tmp_path / tag))

    over_http = run(HttpLmBackend(stub.base + "/v1/completions"),
                    HttpNliVerifier(stub.base + "/nli"), "http")
    scripted = run(_as_seen_over_http(merged),
                   ScriptedNliVerifier(nli_records, strict=False), "scripted")
    assert over_http == scripted
    unwrapped = harness.Engine(
        backend=HttpLmBackend(stub.base + "/v1/completions"),
        mode=mode, verifier=HttpNliVerifier(stub.base + "/nli"))
    assert [harness.result_to_json(harness.infer(question, harness.Method.MAIEUTIC,
                                                 unwrapped))
            for question in questions] == scripted[0]
    assert len(over_http[1]) >= 4  # most questions reach the solver
    if mode is CompileMode.VERIFIER:
        assert any('"origin": "nli"' in dump for dump in over_http[1])
    assert stub.replies != sorted(stub.replies)  # replies did arrive out of order
    assert stub.peak > 1


def test_a_failed_batch_raises_its_first_failure_in_request_order(stub):
    def respond(path, body, arrival):
        if body["premise"] == "first bad":
            return 0.05, 400, {"error": "first"}  # fails last in time
        if body["premise"] == "second bad":
            return 0.0, 400, {"error": "second"}
        return 0.0, 200, {"label": "neutral"}

    stub.respond = respond
    verifier = HttpNliVerifier(stub.base + "/nli")
    pairs = [("fine", "x"), ("first bad", "x"), ("second bad", "x"), ("also fine", "x")]
    with pytest.raises(BackendUnavailable, match="first"):
        verifier.nli_batch(pairs)
    assert stub.arrivals == 4  # every request of the batch was sent


def test_a_failed_batch_traces_and_caches_the_requests_before_the_failure(tmp_path):
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.8, 0.2)
    builder.truth("Copper conducts electricity", TRUTH_PROMPTS, 0.9, 0.1)
    trace = TraceRecorder(tmp_path / "trace.jsonl")
    backend = CachedBackend(builder.backend(), ResponseCache(tmp_path), trace=trace)
    with pytest.raises(MissingFixture):
        backend.true_probs(["Ice floats on water", "Nothing answers this",
                            "Copper conducts electricity"], TRUTH_PROMPTS)
    assert [entry["cache_hit"] for entry in read_trace(trace.path)] == [False]
    assert len((tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()) == 1


def test_a_repeat_within_one_batch_is_a_hit_on_the_first(tmp_path):
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", TRUTH_PROMPTS, 0.8, 0.2)
    trace = TraceRecorder(tmp_path / "trace.jsonl")
    backend = CachedBackend(builder.backend(), ResponseCache(tmp_path), trace=trace)
    first, again = backend.true_probs(["Ice floats on water"] * 2, TRUTH_PROMPTS)
    assert first == again
    assert [entry["cache_hit"] for entry in read_trace(trace.path)] == [False, True]


def test_requests_in_flight_never_exceed_the_cap_under_evaluate(stub):
    merged, questions, _ = _worlds(range(320, 332))
    tables = _Tables(merged)
    stub.respond = lambda path, body, arrival: (0.003, 200, tables.answer(path, body))
    records = [harness.DatasetRecord(id=f"r{index}", question=question, gold=True)
               for index, question in enumerate(questions)]
    over_http = harness.Engine(backend=HttpLmBackend(stub.base + "/v1/completions"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter lock often
    try:
        report = harness.evaluate(records, harness.Method.MAIEUTIC, over_http, workers=4)
    finally:
        sys.setswitchinterval(interval)
    scripted = harness.Engine(backend=_as_seen_over_http(merged))
    expected = harness.evaluate(records, harness.Method.MAIEUTIC, scripted, workers=4)
    assert report.results == expected.results
    assert 1 < stub.peak <= MAX_IN_FLIGHT


@pytest.mark.parametrize("count,peak", [(30, 30), (MAX_IN_FLIGHT + 8, MAX_IN_FLIGHT)])
def test_a_round_goes_out_in_one_wave_up_to_the_cap(stub, count, peak):
    # each reply is held long enough for every thread to connect and send
    # on a loaded machine (held 20 ms, most runs read a peak below the count)
    stub.respond = lambda path, body, arrival: (0.2, 200, {"label": "neutral"})
    verifier = HttpNliVerifier(stub.base + "/nli")
    pairs = [(f"premise {index}", "hypothesis") for index in range(count)]
    assert len(verifier.nli_batch(pairs)) == count
    assert stub.peak == peak


def test_a_batch_is_written_whole_before_any_reply_is_read(stub):
    everyone = threading.Event()
    waited = []

    def respond(path, body, arrival):
        if arrival == 19:
            everyone.set()
        waited.append(everyone.wait(timeout=5))  # no reply before the 20th arrival
        return 0.0, 200, {"label": "neutral"}

    stub.respond = respond
    verifier = HttpNliVerifier(stub.base + "/nli")
    pairs = [(f"premise {index}", "hypothesis") for index in range(20)]
    assert len(verifier.nli_batch(pairs)) == 20
    assert waited == [True] * 20
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("maieutic")]
    everyone.clear()
    stub.arrivals = 0
    assert len(verifier.nli_batch(pairs)) == 20  # the same wave on warm connections
    assert waited == [True] * 40
    assert stub.connections == 20


def test_a_wave_against_a_silent_server_waits_one_timeout_per_attempt():
    # the server's backlog completes each connect, and nothing ever answers
    with socket.create_server(("127.0.0.1", 0), backlog=32) as silent:
        endpoint = f"http://127.0.0.1:{silent.getsockname()[1]}/nli"
        verifier = HttpNliVerifier(endpoint, timeout=0.3, retries=2)
        started = time.monotonic()
        with pytest.raises(BackendUnavailable, match="after 2 attempts: timed out"):
            verifier.nli_batch([(f"premise {index}", "hypothesis") for index in range(8)])
        elapsed = time.monotonic() - started
    # 2 attempts of 0.3 s; waiting out each request's timeout in turn takes 4.8 s
    assert 0.6 <= elapsed < 1.5


def _refused_once(refusals: dict):
    """A stub reply that refuses each premise's first request with the
    (status, headers) ``refusals`` names for it, and answers every other."""
    seen, lock = set(), threading.Lock()

    def respond(path, body, arrival):
        with lock:
            first = body["premise"] not in seen
            seen.add(body["premise"])
        if first and body["premise"] in refusals:
            status, headers = refusals[body["premise"]]
            return 0.0, status, {"error": "refused"}, headers
        return 0.0, 200, {"label": "neutral"}
    return respond


def _recorded_sleeps(monkeypatch) -> list:
    """The waits the HTTP client asks for, which it no longer sleeps; only
    the client's ``time`` is replaced, so the stub still holds its replies."""
    slept = []
    monkeypatch.setattr(backend_module, "time", types.SimpleNamespace(
        monotonic=time.monotonic, sleep=slept.append))
    return slept


def test_rate_limited_requests_of_a_batch_wait_out_their_retry_after_together(stub):
    pairs = [(f"premise {index}", "hypothesis") for index in range(8)]
    stub.respond = _refused_once({premise: (429, {"Retry-After": "0.2"})
                                  for premise, _ in pairs})
    verifier = HttpNliVerifier(stub.base + "/nli")
    started = time.monotonic()
    assert len(verifier.nli_batch(pairs)) == 8
    # one shared wait of 0.2 s; waiting it out once per request takes 1.6 s
    assert time.monotonic() - started < 0.6
    assert stub.arrivals == 16


def test_a_batch_waits_once_for_the_longest_wait_its_pending_requests_ask(stub, monkeypatch):
    slept = _recorded_sleeps(monkeypatch)
    stub.respond = _refused_once({"limited": (429, {"Retry-After": "0.25"}),
                                  "unavailable": (503, {})})
    verifier = HttpNliVerifier(stub.base + "/nli")
    assert len(verifier.nli_batch([("limited", "x"), ("fine", "x"),
                                   ("unavailable", "x")])) == 3
    assert slept == [0.25]  # the 503's backoff (10 ms) is the shorter
    assert stub.arrivals == 5


def test_refused_requests_beyond_one_wave_are_retried_in_waves_after_one_wait(stub,
                                                                               monkeypatch):
    slept = _recorded_sleeps(monkeypatch)
    pairs = [(f"premise {index}", "hypothesis") for index in range(2 * MAX_IN_FLIGHT)]
    stub.respond = _refused_once({premise: (503, {}) for premise, _ in pairs})
    verifier = HttpNliVerifier(stub.base + "/nli")
    assert len(verifier.nli_batch(pairs)) == len(pairs)
    assert stub.arrivals == 2 * len(pairs)
    assert stub.peak <= MAX_IN_FLIGHT
    assert slept == [0.01]


def test_a_batch_retries_only_the_requests_before_its_first_failure(stub):
    stub.respond = _refused_once({"first": (503, {}), "forbidden": (403, {}),
                                  "third": (503, {})})
    verifier = HttpNliVerifier(stub.base + "/nli")
    with pytest.raises(BackendUnavailable, match="403"):
        verifier.nli_batch([("first", "x"), ("forbidden", "x"), ("third", "x")])
    assert stub.arrivals == 4  # the first request twice, the others once


def test_close_idle_closes_every_pooled_connection(stub):
    stub.respond = lambda path, body, arrival: (0.002, 200, {"label": "neutral"})
    backend_module.close_connections()
    verifier = HttpNliVerifier(stub.base + "/nli")
    verifier.nli_batch([("a", "b"), ("b", "a"), ("a", "c")])
    kept = [connection for idle in backend_module._idle.values() for connection in idle]
    assert kept and all(connection.sock is not None for connection in kept)
    backend_module.close_connections()
    assert all(connection.sock is None for connection in kept)
    assert not backend_module._idle


def test_sequential_batches_open_at_most_one_connection_per_sending_thread(stub):
    stub.respond = lambda path, body, arrival: (0.001, 200, {"label": "neutral"})
    verifier = HttpNliVerifier(stub.base + "/nli")
    pairs = [(f"premise {index}", "hypothesis") for index in range(2 * MAX_IN_FLIGHT)]
    for _ in range(20):
        verifier.nli_batch(pairs)
    assert stub.arrivals == 20 * len(pairs)
    assert 1 < stub.connections <= MAX_IN_FLIGHT


def test_a_process_that_sent_a_batch_exits_without_resource_warnings(stub):
    stub.respond = lambda path, body, arrival: (0.001, 200, {"label": "neutral"})
    src = str(Path(backend_module.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from maieutic.verifier import HttpNliVerifier\n"
             "verifier = HttpNliVerifier(sys.argv[1])\n"
             "print(len(verifier.nli_batch([('a', 'b'), ('b', 'a'), ('a', 'c')])))")
    done = subprocess.run([sys.executable, "-X", "dev", "-c", probe, stub.base + "/nli"],
                          capture_output=True, text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "3"
    assert stub.arrivals == 3
    assert "ResourceWarning" not in done.stderr
