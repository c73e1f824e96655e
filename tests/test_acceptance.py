"""Acceptance checks: one test per observable guarantee.

Each function pins one of the nine end-to-end guarantees the package
makes, with expectations computed independently inside the test (hand
enumeration, frozen golden files, or closed-form arithmetic). The
conftest prints a per-criterion verdict line after the run.
"""
from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from maieutic import compiler
from maieutic.backend import (
    CachedBackend,
    FixtureBuilder,
    ResponseCache,
    TraceRecorder,
)
from maieutic.compiler import CompileMode, belief_from_probs, consistency_weight
from maieutic.core import (
    ClauseOrigin,
    Integrity,
    Proposition,
    TreeConfig,
    WeightedClause,
    WeightedCnf,
    tree_leaves,
    tree_nodes,
    tree_to_dict,
)
from maieutic.harness import (
    DatasetRecord,
    Engine,
    Method,
    evaluate,
    infer,
    load_dataset,
    pair_metrics,
    result_to_dict,
    result_to_json,
)
from maieutic.solver import export_wcnf, import_wcnf, solve, solve_brute
from maieutic.tree_builder import build_tree, prune
from maieutic.verifier import ScriptedNliVerifier
from worlds import (
    ABDUCTIVE_PROMPTS,
    WAR_E_T,
    WAR_E_TT,
    WAR_NLI_RECORDS,
    WAR_QUESTION,
    NARROW_CONFIG,
    TRUTH_PROMPTS,
    ambiguous_world,
    eval_backend,
    war_world,
    fixed_tree,
    random_cnf,
    random_world,
)


def test_criterion_1_solver_matches_brute_force():
    rng = np.random.default_rng(20260821)
    started = time.monotonic()
    for _ in range(200):
        cnf = random_cnf(rng)
        fast = solve(cnf)
        brute = solve_brute(cnf)
        assert fast.values == brute.values
        assert fast.satisfied_weight == brute.satisfied_weight
        assert fast.violated == brute.violated
    assert time.monotonic() - started < 30.0


def test_criterion_2_weight_ranges_and_symmetry():
    rng = np.random.default_rng(8)
    for index in range(1000):
        true_prob = float(rng.uniform(0.01, 0.99))
        neg_prob = true_prob if index % 10 == 0 else float(
            rng.uniform(0.01, 0.99))
        belief = belief_from_probs(true_prob, neg_prob)
        assert -1.0 <= belief <= 1.0
        if true_prob == neg_prob:
            assert belief == 0.0
        else:
            assert (belief > 0.0) == (true_prob > neg_prob)

    builder = FixtureBuilder()
    pairs = []
    for index in range(1000):
        parent = Proposition(id=f"p{index}", text=f"Pair {index} parent claim?")
        child = Proposition(id=f"c{index}", text=f"Pair {index} child fact.")
        builder.logprob(child.text, parent.text, True, ABDUCTIVE_PROMPTS,
                        float(rng.uniform(-30.0, -1.0)))
        builder.logprob(child.text, parent.text, False, ABDUCTIVE_PROMPTS,
                        float(rng.uniform(-30.0, -1.0)))
        pairs.append((parent, child))
    backend = builder.backend()
    for parent, child in pairs:
        up = consistency_weight(child, parent, True, backend, ABDUCTIVE_PROMPTS)
        down = consistency_weight(child, parent, False, backend,
                                  ABDUCTIVE_PROMPTS)
        assert 0.0 < up < 1.0
        assert 0.0 < down < 1.0
        assert abs(up + down - 1.0) <= 1e-12

    # a huge log-likelihood gap saturates but must stay finite and in range
    extreme = FixtureBuilder()
    parent = Proposition(id="p", text="Extreme parent claim?")
    child = Proposition(id="c", text="Extreme child fact.")
    extreme.logprob(child.text, parent.text, True, ABDUCTIVE_PROMPTS, -1.0)
    extreme.logprob(child.text, parent.text, False, ABDUCTIVE_PROMPTS, -701.0)
    backend = extreme.backend()
    up = consistency_weight(child, parent, True, backend, ABDUCTIVE_PROMPTS)
    down = consistency_weight(child, parent, False, backend, ABDUCTIVE_PROMPTS)
    assert math.isfinite(up) and math.isfinite(down)
    assert up == 1.0
    assert 0.0 < down <= 1e-300


def test_criterion_3_random_trees_stay_bounded_and_prune_clean():
    assert TreeConfig().max_nodes_excluding_root() == 18
    for seed in range(100):
        world, question = random_world(seed)
        tree = build_tree(question, world.config, world.backend(),
                          TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
        assert tree.node_count() - 1 <= world.config.max_nodes_excluding_root()
        pruned = prune(tree)
        for leaf in tree_leaves(pruned):
            if leaf.id != pruned.root_id:
                assert leaf.integrity.is_integral
        assert tree_to_dict(prune(pruned)) == tree_to_dict(pruned)


def test_criterion_4_negation_invariant_backend_falls_back():
    world = ambiguous_world()
    tree = build_tree("Everything here is perfectly ambiguous?", world.config,
                      world.backend(), TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert tree.node_count() == 7
    assert all(node.integrity is Integrity.NOT_INTEGRAL
               for node in tree_nodes(tree))
    assert prune(tree).is_root_only()

    engine = Engine(backend=world.backend(), tree_config=world.config)
    result = infer("Everything here is perfectly ambiguous?",
                   Method.MAIEUTIC, engine)
    assert result.fallback_used
    assert result.answer is True          # direct scoring still leans True
    assert result.tree is not None and result.tree.is_root_only()
    assert result.cnf is None and result.assignment is None


def test_criterion_5_golden_scenario_hits_the_hand_checked_optimum():
    def run():
        engine = Engine(
            backend=war_world().backend(),
            tree_config=NARROW_CONFIG,
            mode=CompileMode.VERIFIER,
            verifier=ScriptedNliVerifier(WAR_NLI_RECORDS, strict=False))
        return infer(WAR_QUESTION, Method.MAIEUTIC, engine)

    result = run()
    assert result.answer is True
    assert result.true_propositions == [WAR_E_T, WAR_E_TT]

    # Independent enumeration: the three unary belief clauses from the
    # planted probabilities plus the five relation clauses, brute-forced
    # over all 32 assignments with the solver's own tie-break order.
    clauses = [
        (((3, True),), (0.90 - 0.15) / (0.90 + 0.15)),
        (((4, True),), (0.55 - 0.45) / (0.55 + 0.45)),
        (((5, True),), (0.65 - 0.40) / (0.65 + 0.40)),
        (((1, True), (2, False)), 1.0),
        (((1, True), (3, False)), 1.0),
        (((2, True), (3, False)), 1.0),
        (((3, False), (4, False)), 1.0),
        (((1, False), (5, False)), 1.0),
    ]
    best_weight, best_values = None, None
    for values in itertools.product([False, True], repeat=5):
        assigned = {var: values[var - 1] for var in range(1, 6)}
        weight = 0.0
        for literals, clause_weight in clauses:
            if any(assigned[var] == polarity for var, polarity in literals):
                weight += clause_weight
        if best_weight is None or weight > best_weight:
            best_weight, best_values = weight, dict(assigned)

    assert best_values == {1: True, 2: True, 3: True, 4: False, 5: False}
    assert result.assignment.satisfied_weight == best_weight
    node_vars = {"root": 1, "T.0": 2, "T.0.T.0": 3, "T.0.F.0": 4, "F.0": 5}
    reported = result_to_dict(result)["assignment"]["values"]
    assert reported == {node: best_values[var]
                        for node, var in node_vars.items()}

    assert result_to_json(result) == result_to_json(run())


def test_criterion_6_fixed_tree_compiles_to_the_frozen_dumps(data_dir):
    tree = fixed_tree()
    likelihood = compiler.compile(
        tree, CompileMode.LIKELIHOOD,
        backend=war_world(include_logprobs=True).backend(),
        prompts=ABDUCTIVE_PROMPTS)
    with open(data_dir / "clause_dump_likelihood.json", encoding="utf-8") as fh:
        assert compiler.cnf_to_dict(likelihood) == json.load(fh)

    relational = compiler.compile(
        tree, CompileMode.VERIFIER,
        verifier=ScriptedNliVerifier(WAR_NLI_RECORDS, strict=False))
    with open(data_dir / "clause_dump_verifier.json", encoding="utf-8") as fh:
        assert compiler.cnf_to_dict(relational) == json.load(fh)


def test_criterion_7_exchange_format_round_trips(data_dir, tmp_path):
    cnf = WeightedCnf(
        variables={1: "root", 2: "T.0"},
        clauses=[
            WeightedClause(((1, True),), 0.75, ClauseOrigin.BELIEF),
            WeightedClause(((1, True), (2, False)), 0.5,
                           ClauseOrigin.CONSISTENCY),
        ])
    exported = export_wcnf(cnf, tmp_path / "instance.wcnf")
    golden = data_dir / "instance.wcnf"
    assert exported.read_bytes() == golden.read_bytes()
    assert (tmp_path / "instance.wcnf.map.json").read_bytes() == \
        (data_dir / "instance.wcnf.map.json").read_bytes()

    loaded = import_wcnf(golden)
    assert loaded.variables == {1: "root", 2: "T.0"}
    assert [c.literals for c in loaded.clauses] == [
        ((1, True),), ((1, True), (2, False))]
    assert [c.origin for c in loaded.clauses] == [
        ClauseOrigin.BELIEF, ClauseOrigin.CONSISTENCY]
    for clause, expected in zip(loaded.clauses, (0.75, 0.5)):
        assert clause.weight == pytest.approx(expected, abs=1e-6)

    again = export_wcnf(loaded, tmp_path / "again.wcnf")
    assert again.read_bytes() == golden.read_bytes()
    assert (tmp_path / "again.wcnf.map.json").read_bytes() == \
        (data_dir / "instance.wcnf.map.json").read_bytes()


def test_criterion_8_metrics_match_the_hand_counts(data_dir):
    records = load_dataset(data_dir / "eval_records.jsonl")
    report = evaluate(records, Method.STANDARD, Engine(backend=eval_backend()),
                      workers=4)
    assert report.accuracy == 0.75
    assert report.correct_count == 9 and report.record_count == 12
    assert report.pair_count == 6 and report.pair_correct_count == 4
    assert report.pairwise_accuracy == 4 / 6
    assert report.warnings == []

    # crediting a pair only when both members are right can never beat
    # plain accuracy on a fully paired dataset
    rng = np.random.default_rng(88)
    for _ in range(100):
        n_pairs = int(rng.integers(1, 30))
        paired_records, correct = [], {}
        for pair in range(n_pairs):
            left, right = f"a{pair}", f"b{pair}"
            paired_records.append(DatasetRecord(left, "q?", True, right))
            paired_records.append(DatasetRecord(right, "q?", True, left))
            correct[left] = bool(rng.integers(0, 2))
            correct[right] = bool(rng.integers(0, 2))
        pair_count, both, pairwise = pair_metrics(paired_records, correct, [])
        assert pair_count == n_pairs
        assert 2 * both <= sum(correct.values())
        assert pairwise <= sum(correct.values()) / len(paired_records) + 1e-12


def test_criterion_9_cached_rerun_is_byte_identical(data_dir, tmp_path):
    records = load_dataset(data_dir / "eval_records.jsonl")
    merged = FixtureBuilder()
    for index, record in enumerate(records):
        world, _ = random_world(900 + index, question=record.question)
        merged.merge(world.builder)
    cache = ResponseCache(tmp_path / "cache")

    def run(tag: str) -> tuple[bytes, int]:
        trace = TraceRecorder()
        backend = CachedBackend(merged.backend(), cache, seed=0, trace=trace)
        path = tmp_path / f"{tag}.jsonl"
        evaluate(records, Method.MAIEUTIC, Engine(backend=backend),
                 workers=4, results_path=path)
        return path.read_bytes(), trace.backend_call_count()

    first_bytes, first_calls = run("first")
    second_bytes, second_calls = run("second")
    assert first_bytes == second_bytes
    assert first_calls > 0
    assert second_calls == 0
