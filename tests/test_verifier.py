"""NLI verifier tests: judgment validation, scripted lookups, clause shapes."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from maieutic.backend import (
    CachedBackend,
    ResponseCache,
    ScriptedBackend,
    TraceRecorder,
    read_trace,
)
from maieutic.core import (
    ClauseOrigin,
    DecodingParams,
    DecodingStrategy,
    Integrity,
    MaieuticTree,
    Proposition,
    TreeConfig,
    WeightedClause,
    tree_nodes,
    variable_map,
)
from maieutic.errors import BackendUnavailable, MalformedResponse, MissingFixture
from maieutic.verifier import (
    PROB_ORDER,
    CachedVerifier,
    HttpNliVerifier,
    NliJudgment,
    NliLabel,
    NliVerifier,
    ScriptedNliVerifier,
    relation_clauses,
)
from worlds import WAR_NLI_RECORDS, NARROW_CONFIG, fixed_tree


def _pair_tree():
    root = Proposition(id="root", text="The question")
    leaf = Proposition(id="T.0", text="A supporting fact.",
                       negated_text="Not a supporting fact.", path_label="T",
                       source_answer=True, integrity=Integrity.INTEGRAL_TRUE,
                       true_prob=0.75, neg_true_prob=0.25)
    return MaieuticTree(nodes={"root": root, "T.0": leaf},
                        children={"root": [(True, "T.0")]},
                        config=NARROW_CONFIG)


# --- judgments ---

def test_judgment_accepts_consistent_probabilities():
    judgment = NliJudgment(NliLabel.CONTRADICT, (0.2, 0.7, 0.1))
    assert judgment.label_probs[1] == pytest.approx(0.7)


@pytest.mark.parametrize("probs", [
    (0.5, 0.5),                 # wrong arity
    (0.9, 0.3, 0.1),            # does not sum to one
    (1.2, -0.1, -0.1),          # outside [0, 1]
    (0.6, 0.3, 0.1),            # argmax disagrees with the label below
    # each case below fails one check only, unless its id says otherwise
    pytest.param((0.3, 0.7, math.nan), id="nan"),
    pytest.param((0.3, math.inf, 0.0), id="inf-and-sum"),
    pytest.param((-math.inf, 0.7, 0.3), id="minus-inf-and-sum"),
    pytest.param((0.0, math.inf, -math.inf), id="infinities"),
    pytest.param((-0.1, 0.7, 0.4), id="negative"),
    pytest.param((0.0, 1.5, 0.0), id="above-one-and-sum"),
    pytest.param((0.3, 0.7), id="two-values"),
    pytest.param((0.1, 0.6, 0.2, 0.1), id="four-values"),
    pytest.param((0.1, 0.7, 0.2 + 2e-6), id="sum-off"),
    pytest.param((0.1, 0.2, 0.7), id="argmax-neutral"),
    pytest.param((0.45, 0.45, 0.1), id="argmax-tie-goes-to-the-first"),
])
def test_judgment_rejects_inconsistent_probabilities(probs):
    with pytest.raises(ValueError):
        NliJudgment(NliLabel.CONTRADICT, probs)


@pytest.mark.parametrize("label, probs, expected", [
    (NliLabel.ENTAIL, [0.8, 0.05, 0.15], 0.8),
    (NliLabel.CONTRADICT, [0.1, 0.7, 0.2 + 5e-7], 0.7),
    (NliLabel.NEUTRAL, [0.0, 0.0, 1.0], 1.0),
])
def test_judgment_stores_a_list_as_a_tuple(label, probs, expected):
    judgment = NliJudgment(label, probs)
    assert type(judgment.label_probs) is tuple
    assert judgment.label_probs == tuple(probs)
    assert judgment.label_probs[PROB_ORDER.index(label.value)] == expected


def test_judgment_holds_only_the_label_and_its_probabilities():
    assert [field.name for field in dataclasses.fields(NliJudgment)] == ["label", "label_probs"]


# --- scripted verifier ---

def test_scripted_lookup_is_ordered():
    records = [{"premise": "A supporting fact.", "hypothesis": "The question",
                "label": "entail"}]
    verifier = ScriptedNliVerifier(fixtures=records)
    judgment = verifier.nli("A supporting fact.", "The question")
    assert judgment.label is NliLabel.ENTAIL
    assert judgment.label_probs == (1.0, 0.0, 0.0)
    with pytest.raises(MissingFixture):
        verifier.nli("The question", "A supporting fact.")


def test_scripted_identical_sentences_entail_reflexively():
    verifier = ScriptedNliVerifier()
    judgment = verifier.nli("Same sentence.", "Same sentence.")
    assert judgment.label is NliLabel.ENTAIL


def test_scripted_non_strict_defaults_to_neutral():
    verifier = ScriptedNliVerifier(strict=False)
    assert verifier.nli("One claim.", "Another claim.").label is NliLabel.NEUTRAL


def test_scripted_rejects_empty_sentences():
    verifier = ScriptedNliVerifier(strict=False)
    with pytest.raises(ValueError):
        verifier.nli("  ", "Another claim.")


def test_scripted_bad_label_is_malformed():
    records = [{"premise": "a", "hypothesis": "b", "label": "maybe"}]
    verifier = ScriptedNliVerifier(fixtures=records)
    with pytest.raises(MalformedResponse):
        verifier.nli("a", "b")


# probs a reply or fixture record may carry that no judgment can hold
MALFORMED_PROBS = [0.5, "abc", "100", [1, 0], [1, 0, 0, 0], ["a", "b", "c"],
                   [0.2, 0.7, 0.1], [0.9, 0.2, 0.1], [None, 0, 1]]


@pytest.mark.parametrize("probs", MALFORMED_PROBS)
def test_scripted_malformed_probs_are_malformed(probs):
    record = {"premise": "a", "hypothesis": "b", "label": "entail", "probs": probs}
    verifier = ScriptedNliVerifier(fixtures=[record])
    with pytest.raises(MalformedResponse, match="unusable NLI record") as caught:
        verifier.nli("a", "b")
    assert repr(record) in str(caught.value)


@pytest.mark.parametrize("missing", ["premise", "hypothesis"])
def test_scripted_fixture_needs_premise_and_hypothesis(missing):
    records = [{"premise": "a", "hypothesis": "b", "label": "entail"},
               {"premise": "c", "hypothesis": "d", "label": "neutral"}]
    del records[1][missing]
    with pytest.raises(ValueError, match="NLI fixture record 1 "):
        ScriptedNliVerifier(fixtures=records)


@pytest.mark.parametrize("record", [
    {"premise": ["a"], "hypothesis": "b", "label": "entail"},
    {"premise": "a", "hypothesis": 1, "label": "entail"},
    "a record", None,
], ids=["premise-list", "hypothesis-number", "string", "null"])
def test_scripted_fixture_sentences_must_be_strings(record):
    with pytest.raises(ValueError, match="NLI fixture record 0 needs .* strings"):
        ScriptedNliVerifier(fixtures=[record])


def test_scripted_loads_fixture_files(tmp_path):
    path = tmp_path / "nli.json"
    path.write_text(json.dumps([{"premise": "a", "hypothesis": "b",
                                 "label": "contradict"}]), encoding="utf-8")
    verifier = ScriptedNliVerifier(fixtures=path)
    assert verifier.nli("a", "b").label is NliLabel.CONTRADICT


def test_scripted_record_probabilities_pass_through():
    records = [{"premise": "a", "hypothesis": "b", "label": "entail",
                "probs": [0.8, 0.05, 0.15]}]
    verifier = ScriptedNliVerifier(fixtures=records)
    assert verifier.nli("a", "b").label_probs[0] == pytest.approx(0.8)


def _certain(label):
    """A fresh verifier's judgment of a record that states ``label`` without probs."""
    records = [{"premise": "x", "hypothesis": "y", "label": label.value}]
    return ScriptedNliVerifier(fixtures=records).nli("x", "y")


@pytest.mark.parametrize("label, premise, hypothesis, records", [
    (NliLabel.CONTRADICT, "a", "b", [{"premise": "a", "hypothesis": "b", "label": "contradict"}]),
    (NliLabel.ENTAIL, "Same sentence.", "Same sentence.", []),
    (NliLabel.NEUTRAL, "One claim.", "Another claim.", []),
], ids=["one-hot-record", "reflexive", "non-strict-miss"])
def test_certain_judgments_are_shared(label, premise, hypothesis, records):
    verifier = ScriptedNliVerifier(fixtures=records, strict=False)
    judgment = verifier.nli(premise, hypothesis)
    assert judgment is verifier.nli(premise, hypothesis) is _certain(label)
    assert judgment.label is label
    assert judgment.label_probs[PROB_ORDER.index(label.value)] == 1.0


def test_record_probabilities_hold_on_every_call():
    records = [{"premise": "a", "hypothesis": "b", "label": "contradict",
                "probs": [0.1, 0.7, 0.2]}]
    verifier = ScriptedNliVerifier(fixtures=records)
    for _ in range(3):
        judgment = verifier.nli("a", "b")
        assert judgment.label is NliLabel.CONTRADICT
        assert judgment.label_probs == (0.1, 0.7, 0.2)


def test_malformed_record_raises_whenever_it_is_judged():
    records = [{"premise": "a", "hypothesis": "b", "label": "entail", "probs": [0.2, 0.7, 0.1]}]
    verifier = ScriptedNliVerifier(fixtures=records)
    for _ in range(2):
        with pytest.raises(MalformedResponse, match="unusable NLI record"):
            verifier.nli("a", "b")


def test_a_record_with_probabilities_is_parsed_once_and_its_judgment_kept():
    records = [{"premise": "a", "hypothesis": "b", "label": "contradict",
                "probs": [0.1, 0.7, 0.2]}]
    verifier = ScriptedNliVerifier(fixtures=records)
    first = verifier.nli("a", "b")
    records[0]["probs"] = "no longer read"
    assert verifier.nli("a", "b") is first
    assert first.label_probs == (0.1, 0.7, 0.2)


@pytest.mark.parametrize("text", ["null", "1", "{}", '"x"', '{"premise": "a"}'])
def test_an_nli_fixture_file_that_is_not_a_list_of_records_names_the_file(tmp_path, text):
    path = tmp_path / "nli.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"NLI fixture file {path} is not a JSON list"):
        ScriptedNliVerifier(fixtures=path)


# --- cached verifier ---

_CACHED_RECORDS = [
    {"premise": "a", "hypothesis": "b", "label": "entail", "probs": [0.7, 0.2, 0.1]},
    {"premise": "b", "hypothesis": "c", "label": "contradict"},
    {"premise": "c", "hypothesis": "a", "label": "neutral", "probs": [0.25, 0.25, 0.5]},
]


def test_a_verifier_implementing_neither_nli_nor_batch_raises_not_implemented():
    class Half(NliVerifier):
        pass

    with pytest.raises(NotImplementedError, match="Half implements neither nli nor _batch"):
        Half().nli("a", "b")
    with pytest.raises(NotImplementedError):
        CachedVerifier(Half(), CachedBackend(ScriptedBackend({}), None)).nli("a", "b")
    # the clients that implement the primitive or the batch still answer a single pair
    cached = CachedVerifier(ScriptedNliVerifier(strict=False),
                            CachedBackend(ScriptedBackend({}), None))
    assert cached.nli("a", "b").label is NliLabel.NEUTRAL


def _cached_verifier(directory, records):
    """A strict scripted verifier behind a response cache and a traced call
    log in ``directory``, and the pairs that reach it."""
    inner, asked = ScriptedNliVerifier(records), []
    judge = inner.nli
    inner.nli = lambda *pair: asked.append(pair) or judge(*pair)
    cached = CachedBackend(ScriptedBackend({}), ResponseCache(directory),
                           trace=TraceRecorder(directory / "trace.jsonl"))
    return CachedVerifier(inner, cached), asked


def test_a_cached_verifier_batch_is_served_like_an_lm_batch(tmp_path):
    verifier, asked = _cached_verifier(tmp_path, _CACHED_RECORDS)
    pairs = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "a")]
    judgments = verifier.nli_batch(pairs)
    assert judgments == [ScriptedNliVerifier(_CACHED_RECORDS).nli(*pair) for pair in pairs]
    assert asked == [("a", "b"), ("b", "c"), ("c", "a")]  # the repeat is asked once
    assert [entry["cache_hit"] for entry in read_trace(tmp_path / "trace.jsonl")] == [
        False, False, True, False]
    assert {entry["purpose"] for entry in read_trace(tmp_path / "trace.jsonl")} == {"nli"}
    assert len((tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()) == 3

    # a rerun over the same cache reads back equal judgments and asks nothing
    rerun, asked_again = _cached_verifier(tmp_path, [])
    assert rerun.nli_batch(pairs) == judgments
    assert asked_again == []
    assert [entry["cache_hit"] for entry in read_trace(tmp_path / "trace.jsonl")][4:] == [
        True] * 4


def test_a_strict_miss_in_a_cached_verifier_batch_keeps_only_the_pairs_before_it(tmp_path):
    verifier, asked = _cached_verifier(tmp_path, _CACHED_RECORDS)
    with pytest.raises(MissingFixture):
        verifier.nli_batch([("a", "b"), ("b", "c"), ("x", "y"), ("c", "a")])
    assert asked == [("a", "b"), ("b", "c"), ("x", "y")]
    assert [entry["cache_hit"] for entry in read_trace(tmp_path / "trace.jsonl")] == [
        False, False]
    stored = [json.loads(line)["response"] for line in
              (tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()]
    assert stored == [{"label": "entail", "probs": [0.7, 0.2, 0.1]},
                      {"label": "contradict", "probs": [0.0, 1.0, 0.0]}]


# --- relation clauses ---

def test_entailment_points_at_the_hypothesis():
    records = [{"premise": "A supporting fact.", "hypothesis": "The question",
                "label": "entail"}]
    tree = _pair_tree()
    clauses = relation_clauses(tree, variable_map(tree),
                               ScriptedNliVerifier(fixtures=records, strict=False))
    # not-premise or hypothesis; variable 1 is the root, 2 the leaf
    assert [c.literals for c in clauses] == [((1, True), (2, False))]
    assert clauses[0].origin is ClauseOrigin.NLI
    assert clauses[0].weight == 1.0


def test_contradiction_negates_the_hypothesis():
    records = [{"premise": "The question", "hypothesis": "A supporting fact.",
                "label": "contradict"}]
    tree = _pair_tree()
    clauses = relation_clauses(tree, variable_map(tree),
                               ScriptedNliVerifier(fixtures=records, strict=False))
    assert [c.literals for c in clauses] == [((1, False), (2, False))]


def test_neutral_pairs_produce_no_clauses():
    tree = _pair_tree()
    clauses = relation_clauses(tree, variable_map(tree), ScriptedNliVerifier(strict=False))
    assert clauses == []


def test_symmetric_contradictions_merge_into_one_clause():
    tree = fixed_tree()
    clauses = relation_clauses(
        tree, variable_map(tree), ScriptedNliVerifier(fixtures=WAR_NLI_RECORDS,
                                                      strict=False))
    # six non-neutral judgments, five clauses: the contradiction judged
    # in both orders collapses to a single literal set
    assert len(clauses) == 5
    literal_sets = [frozenset(c.literals) for c in clauses]
    assert len(set(literal_sets)) == 5
    assert frozenset({(3, False), (4, False)}) in literal_sets


def test_relation_clauses_asks_once_per_ordered_pair():
    tree = fixed_tree()
    verifier = ScriptedNliVerifier(fixtures=WAR_NLI_RECORDS, strict=False)
    calls = []
    original = verifier.nli

    # wrapped on the instance, where the benchmark counts NLI requests
    def counted(premise, hypothesis):
        calls.append((premise, hypothesis))
        return original(premise, hypothesis)
    verifier.nli = counted
    relation_clauses(tree, variable_map(tree), verifier)
    texts = [node.text for node in tree_nodes(tree)]
    count = len(texts)
    assert len(calls) == count * (count - 1) == 20
    assert calls == [(texts[first], texts[second]) for first in range(count)
                     for second in range(count) if first != second]


def _dense_scene(count: int = 19):
    """A flat tree of ``count`` nodes, under a config one level deep and
    ``count`` wide, and a verifier that judges every ordered pair, two
    thirds of them entail or contradict."""
    texts = [f"Statement {index}." for index in range(count)]
    nodes = {"root": Proposition(id="root", text=texts[0])}
    nodes.update((f"N.{index}", Proposition(id=f"N.{index}", text=texts[index],
                                            path_label="FT"[index % 2]))
                 for index in range(1, count))
    wide = DecodingParams(DecodingStrategy.NUCLEUS, sample_count=count)
    tree = MaieuticTree(nodes=nodes, children={
        "root": [(index % 2 == 1, f"N.{index}") for index in range(1, count)]},
        config=TreeConfig(depth_limit=1, decoding_schedule=(wide,)))
    records = [{"premise": texts[first], "hypothesis": texts[second],
                "label": PROB_ORDER[(7 * first + second) % 3]}
               for first in range(count) for second in range(count) if first != second]
    return tree, ScriptedNliVerifier(fixtures=records)


def test_recompiling_a_tree_builds_no_clause(monkeypatch):
    tree, verifier = _dense_scene()
    checked = WeightedClause.__post_init__
    built = []

    def counted(clause):
        built.append(clause.literals)
        checked(clause)
    monkeypatch.setattr(WeightedClause, "__post_init__", counted)
    variables = variable_map(tree)
    first = relation_clauses(tree, variables, verifier)
    first_built = len(built)
    second = relation_clauses(tree, variables, verifier)
    assert len(first) > 150
    assert first_built <= len(first)
    assert len(built) == first_built
    assert second == first
    assert all(again is clause for again, clause in zip(second, first))


# variable ids of the racing trees, a million apart per round and far
# above any tree another test numbers, so each round starts cold
_RACE_OFFSETS = itertools.count(10 ** 9, 10 ** 6)


def test_threads_compiling_one_tree_each_keep_one_copy_of_each_clause(monkeypatch):
    tree, verifier = _dense_scene()
    node_ids = list(variable_map(tree).values())
    relation_clauses(tree, variable_map(tree), verifier)  # parses every judgment
    checked = WeightedClause.__post_init__

    def yielding(clause):
        time.sleep(0)  # another thread may build the same clause meanwhile
        checked(clause)
    monkeypatch.setattr(WeightedClause, "__post_init__", yielding)

    def shifted(offset):
        return {offset + index: node_id for index, node_id in enumerate(node_ids)}

    def compile_tree(barrier, variables, results, slot):
        barrier.wait()
        results[slot] = relation_clauses(tree, variables, verifier)

    base = next(_RACE_OFFSETS)
    alone = relation_clauses(tree, shifted(base), verifier)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # threads trade the interpreter lock often
    try:
        for _ in range(20):
            offset = next(_RACE_OFFSETS)
            barrier = threading.Barrier(4, timeout=10)
            variables, results = shifted(offset), [None] * 4
            threads = [threading.Thread(target=compile_tree,
                                        args=(barrier, variables, results, slot))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            expected = [dataclasses.replace(clause, literals=tuple(
                (variable - base + offset, positive) for variable, positive in clause.literals))
                for clause in alone]
            for clauses in results:
                copies = len(clauses) - len({frozenset(clause.literals) for clause in clauses})
                assert copies == 0
                assert clauses == expected
    finally:
        sys.setswitchinterval(interval)


def test_strict_verifier_requires_full_coverage():
    with pytest.raises(MissingFixture):
        tree = fixed_tree()
        relation_clauses(tree, variable_map(tree),
                         ScriptedNliVerifier(fixtures=WAR_NLI_RECORDS))


# --- HTTP verifier ---

class _NliHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(body)
        if self.server.script:
            status, payload, *extra = self.server.script.pop(0)
        else:
            status, payload, extra = 200, {"label": "neutral"}, []
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)


@pytest.fixture()
def nli_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _NliHandler)
    server.requests = []
    server.script = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/nli"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def test_http_verifier_round_trip(nli_stub):
    nli_stub.script.append((200, {"label": "entail",
                                  "probs": [0.9, 0.02, 0.08]}))
    verifier = HttpNliVerifier(nli_stub.endpoint)
    judgment = verifier.nli("A supporting fact.", "The question")
    assert judgment.label is NliLabel.ENTAIL
    assert judgment.label_probs[0] == pytest.approx(0.9)
    assert nli_stub.requests[0] == {"premise": "A supporting fact.",
                                    "hypothesis": "The question"}


def test_http_verifier_retries_then_succeeds(nli_stub):
    nli_stub.script.extend([(500, {}), (200, {"label": "contradict"})])
    verifier = HttpNliVerifier(nli_stub.endpoint)
    assert verifier.nli("a", "b").label is NliLabel.CONTRADICT
    assert len(nli_stub.requests) == 2


@pytest.mark.parametrize("retries", [0, -1])
def test_http_verifier_rejects_fewer_than_one_attempt(retries):
    with pytest.raises(ValueError, match="retries"):
        HttpNliVerifier("http://127.0.0.1:9/nli", retries=retries)


def test_http_verifier_gives_up(nli_stub):
    nli_stub.script.extend([(500, {}), (500, {}), (500, {})])
    verifier = HttpNliVerifier(nli_stub.endpoint, retries=3)
    with pytest.raises(BackendUnavailable):
        verifier.nli("a", "b")


def test_http_verifier_retries_on_rate_limit(nli_stub):
    nli_stub.script.extend([(429, {}, {"Retry-After": "0"}),
                            (200, {"label": "entail"})])
    verifier = HttpNliVerifier(nli_stub.endpoint)
    assert verifier.nli("a", "b").label is NliLabel.ENTAIL
    assert len(nli_stub.requests) == 2


def test_http_verifier_rate_limit_spends_the_retry_budget(nli_stub):
    nli_stub.script.extend([(429, {})] * 3)
    verifier = HttpNliVerifier(nli_stub.endpoint, retries=3)
    with pytest.raises(BackendUnavailable):
        verifier.nli("a", "b")
    assert len(nli_stub.requests) == 3


def test_http_verifier_client_errors_do_not_retry(nli_stub):
    nli_stub.script.append((404, {"error": "no such model"}))
    verifier = HttpNliVerifier(nli_stub.endpoint)
    with pytest.raises(BackendUnavailable):
        verifier.nli("a", "b")
    assert len(nli_stub.requests) == 1


def test_http_verifier_malformed_label(nli_stub):
    nli_stub.script.append((200, {"label": "sideways"}))
    verifier = HttpNliVerifier(nli_stub.endpoint)
    with pytest.raises(MalformedResponse):
        verifier.nli("a", "b")


@pytest.mark.parametrize("payload", [["entail"], None, "entail", 3]
                         + [{"label": "entail", "probs": probs} for probs in MALFORMED_PROBS])
def test_http_verifier_malformed_reply(nli_stub, payload):
    nli_stub.script.append((200, payload))
    verifier = HttpNliVerifier(nli_stub.endpoint)
    with pytest.raises(MalformedResponse, match="unusable NLI record") as caught:
        verifier.nli("a", "b")
    assert repr(payload) in str(caught.value)
    assert len(nli_stub.requests) == 1


def test_http_verifier_endpoint_from_environment(nli_stub, monkeypatch):
    monkeypatch.setenv("MAIEUTIC_NLI_ENDPOINT", nli_stub.endpoint)
    verifier = HttpNliVerifier()
    assert verifier.nli("a", "b").label is NliLabel.NEUTRAL


def test_http_verifier_requires_an_endpoint(monkeypatch):
    monkeypatch.delenv("MAIEUTIC_NLI_ENDPOINT", raising=False)
    with pytest.raises(ValueError):
        HttpNliVerifier()
