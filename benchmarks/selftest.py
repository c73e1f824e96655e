"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest benchmarks/selftest.py -q
"""
from __future__ import annotations

import itertools
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import scenarios  # noqa: E402
from tracing import rounds  # noqa: E402


# --- the reference ---

def naive_optimum(clause_list, count):
    """Plain enumeration in lexicographic order, False first; keeps the first best."""
    scored = []
    for values in itertools.product((False, True), repeat=count):
        weight = sum(w for literals, w in clause_list
                     if any(values[var - 1] == polarity for var, polarity in literals))
        scored.append((values, weight))
    best = max(weight for _, weight in scored)
    return next(list(values) for values, weight in scored
                if weight >= best - reference.TIE_TOLERANCE), best


@pytest.mark.parametrize("seed", range(6))
def test_optimum_matches_plain_enumeration(seed):
    rng = random.Random(seed)
    count = rng.randint(1, 9)
    clause_list = []
    for _ in range(rng.randint(1, 25)):
        size = min(count, rng.choice((1, 2)))
        chosen = sorted(rng.sample(range(1, count + 1), size))
        weight = rng.choice((1.0, 0.5, rng.random() + 1e-3))  # exact ties included
        clause_list.append((tuple((var, rng.random() < 0.5) for var in chosen), weight))
    values, best = reference.optimum(clause_list, count)
    want_values, want_best = naive_optimum(clause_list, count)
    assert values == want_values
    assert best == pytest.approx(want_best, abs=1e-9)


def hand_scenario():
    """Root with one True-branch child and one False-branch child.

    ``A`` is integral true (0.8 vs its negation 0.2, belief 0.6); ``B``
    is integral false (0.3 vs 0.6, belief -1/3). The True samples hold
    a duplicate and a blank, the False samples an echo of the root.
    Edge weights: A under True is e^2 times likelier (sigmoid(2)), B
    under False is e^-1 as likely under its own label (sigmoid(-1)).
    """
    return {
        "question": "Q one holds?",
        "truth": {"Q one holds": [0.6, 0.4, 0.5, 0.5],
                  "A.": [0.8, 0.2, 0.2, 0.8],
                  "B.": [0.3, 0.7, 0.6, 0.4]},
        "samples": [["Q one holds", True, ["A.", "A.", "   "]],
                    ["Q one holds", False, ["Q one holds", "B.", "   "]]],
        "logprobs": [["Q one holds", "A.", True, -10.0], ["Q one holds", "A.", False, -12.0],
                     ["Q one holds", "B.", False, -13.0], ["Q one holds", "B.", True, -12.0]],
        "nli": [["A.", "Q one holds", "entail"], ["B.", "A.", "contradict"]],
    }


def test_reference_on_a_hand_worked_likelihood_case():
    want = reference.expected(hand_scenario(), "likelihood")
    assert want["kept"] == ["root", "T.0", "F.0"]
    sigmoid = lambda x: 1 / (1 + 2.718281828459045 ** -x)  # noqa: E731
    assert [literals for literals, _ in want["clauses"]] == [
        ((2, True),), ((3, False),), ((1, True), (2, False)), ((1, False), (3, False))]
    weights = [weight for _, weight in want["clauses"]]
    assert weights == pytest.approx([0.6, 1 / 3, sigmoid(2), sigmoid(-1)])
    # A true and B false satisfy both belief clauses; with A true the
    # first edge clause needs the root true, and B false satisfies the second.
    assert want["values"] == {"root": True, "T.0": True, "F.0": False}
    assert want["answer"] is True and want["fallback"] is False
    assert want["weight"] == pytest.approx(sum(weights))


def test_reference_on_a_hand_worked_verifier_case():
    want = reference.expected(hand_scenario(), "verifier")
    # A entails the root; B contradicts A: (-A v root), (-B v -A)
    assert [literals for literals, _ in want["clauses"][2:]] == [
        ((1, True), (2, False)), ((2, False), (3, False))]
    assert want["values"] == {"root": True, "T.0": True, "F.0": False}


def test_reference_on_a_tie_and_a_fallback():
    tie = {"question": "Tie holds?", "truth": {"Tie holds": [0.5, 0.5, 0.3, 0.7],
                                               "C.": [0.7, 0.3, 0.7, 0.3]},
           "samples": [["Tie holds", True, ["C.", "   ", "   "]],
                       ["Tie holds", False, ["   ", "   ", "   "]],
                       ["C.", True, ["   "]], ["C.", False, ["   "]]],
           "logprobs": [], "nli": []}
    want = reference.expected(tie, "likelihood")
    assert want == {"answer": False, "fallback": True, "kept": ["root"], "generated": 2,
                    "clauses": [], "values": {}, "weight": None}


@pytest.mark.parametrize("shape,mode,density", [("random", "likelihood", None),
                                                ("sparse", "verifier", (0.10, 0.05)),
                                                ("dense", "verifier", (0.50, 0.45))])
def test_reference_agrees_with_the_engine(tmp_path, shape, mode, density):
    from maieutic import EngineConfig, build_engine, harness
    from maieutic.solver import assignment_by_node

    timed, _ = scenarios.build(shape, 8, seed=3, logprobs=mode == "likelihood",
                               nli_density=density)
    scenarios.write_fixtures(timed, tmp_path / "lm.json",
                             tmp_path / "nli.json" if density else None)
    config = {"backend": {"kind": "scripted", "fixtures": str(tmp_path / "lm.json")},
              "mode": mode}
    if density:
        config["verifier"] = {"kind": "scripted", "fixtures": str(tmp_path / "nli.json"),
                              "strict": False}
    engine = build_engine(EngineConfig.from_dict(config))
    for scenario in timed:
        result = harness.infer(scenario["question"], harness.Method.MAIEUTIC, engine)
        want = reference.expected(scenario, mode)
        assert result.answer == want["answer"]
        assert result.fallback_used == want["fallback"]
        if not want["fallback"]:
            assert assignment_by_node(result.cnf, result.assignment) == want["values"]


def test_shapes_do_not_depend_on_the_seed():
    def counts(seed):
        timed, _ = scenarios.build("random", 20, seed, logprobs=True)
        return sorted((len(s["truth"]), len(s["samples"]), len(s["logprobs"])) for s in timed)

    assert counts(1) == counts(2)
    assert scenarios.build("random", 5, 7, True) == scenarios.build("random", 5, 7, True)


# --- rounds on synthetic intervals ---

def test_rounds_on_synthetic_intervals():
    assert rounds([(0, 1), (2, 3), (4, 5)]) == (3, 1)
    assert rounds([(0, 2), (1, 3), (2.5, 4), (5, 6)]) == (2, 2)
    assert rounds([(0, 10), (1, 2), (3, 4), (5, 6)]) == (1, 2)
    assert rounds([(0, 1), (1, 2)]) == (2, 1)  # touching is not overlapping
    assert rounds([(0, 4), (1, 4), (2, 4), (3, 4)]) == (1, 4)


# --- the loopback service ---

@pytest.fixture()
def service(tmp_path):
    """A loopback service over a small fixture table, 20 ms hold time."""
    from maieutic.backend import FixtureBuilder
    from maieutic.core import DecodingParams, DecodingStrategy, PromptMode
    from maieutic.prompts import default_prompt_set

    truth = default_prompt_set(PromptMode.QA_PAIRS)
    abductive = default_prompt_set(PromptMode.ABDUCTIVE_TRIPLES)
    builder = FixtureBuilder()
    builder.truth("Ice floats on water", truth, 0.9, 0.1)
    nucleus = DecodingParams(DecodingStrategy.NUCLEUS, sample_count=3)
    builder.abductive("Ice floats on water", True, abductive, nucleus,
                      ["Ice is less dense.", "   ", "Ice is less dense."])
    builder.logprob("Ice is less dense.", "Ice floats on water", True, abductive, -7.25)
    builder.write(tmp_path / "lm.json")
    (tmp_path / "nli.json").write_text(json.dumps(
        [{"premise": "A", "hypothesis": "B", "label": "contradict"}]))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "service.py"), "--lm", str(tmp_path / "lm.json"),
         "--nli", str(tmp_path / "nli.json"), "--delay-ms", "20"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = int(process.stdout.readline().split()[1])
        yield {"base": f"http://127.0.0.1:{port}", "truth": truth, "abductive": abductive,
               "nucleus": nucleus}
    finally:
        process.stdin.close()
        process.wait(timeout=10)
        assert process.returncode == 0


def test_http_clients_round_trip_through_the_service(service):
    from maieutic import HttpLmBackend, HttpNliVerifier, NliLabel

    lm = HttpLmBackend(service["base"] + "/v1/completions")
    response = lm.true_prob("Ice floats on water", service["truth"])
    assert response.true_prob == pytest.approx(0.9) and response.argmax() is True
    samples = lm.sample_abductive("Ice floats on water", True, service["abductive"],
                                  service["nucleus"])
    assert samples == ["Ice is less dense.", "Ice is less dense."]
    assert lm.sequence_logprob("Ice is less dense.", "Ice floats on water", True,
                               service["abductive"]) == -7.25
    nli = HttpNliVerifier(service["base"] + "/v1/nli")
    assert nli.nli("A", "B").label is NliLabel.CONTRADICT
    assert nli.nli("B", "A").label is NliLabel.NEUTRAL
    import urllib.request
    with urllib.request.urlopen(service["base"] + "/_log") as reply:
        log = json.loads(reply.read())
    assert [entry[1] for entry in log] == ["truth", "completion", "logprob", "nli", "nli"]
    assert all(entry[3] - entry[2] >= 0.019 for entry in log)


def test_reused_connection_round_trip_costs_the_service_delay(service):
    """A response split over several sends would stall a kept-alive
    connection on a delayed ACK (about 40 ms); one send keeps it at the
    20 ms hold time plus the client's own cost."""
    import requests
    from maieutic.prompts import render_truth_prompt

    body = {"prompt": render_truth_prompt("Ice floats on water", service["truth"]),
            "max_tokens": 1, "temperature": 0.0, "logprobs": 5}
    with requests.Session() as session:
        times = []
        for _ in range(12):
            start = time.perf_counter()
            reply = session.post(service["base"] + "/v1/completions", json=body, timeout=10)
            times.append(time.perf_counter() - start)
            assert reply.status_code == 200
    assert 0.019 <= statistics.median(times[2:]) < 0.035
