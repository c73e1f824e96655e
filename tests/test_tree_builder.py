"""Tree construction tests: integrity checks, expansion rules, pruning."""
from __future__ import annotations

import sys
from typing import Optional

import numpy as np
import pytest

from maieutic.backend import CachedBackend, FixtureBuilder, TraceRecorder, read_trace
from maieutic.core import (
    DecodingParams,
    DecodingStrategy,
    Integrity,
    NegationStrategy,
    TreeConfig,
    tree_from_dict,
    tree_nodes,
    tree_to_dict,
)
from maieutic.prompts import prefix_negation
from maieutic.tree_builder import _checked_propositions, _Pending, build_tree, prune
from worlds import (
    ABDUCTIVE_PROMPTS,
    NARROW_CONFIG,
    TRUTH_PROMPTS,
    ScenarioWorld,
    war_world,
    WAR_QUESTION,
    WAR_E_T,
    WAR_E_F,
    random_world,
)


def _truth_backend(statement, true_prob, neg_true_prob):
    builder = FixtureBuilder()
    builder.truth(statement, TRUTH_PROMPTS, true_prob, 1.0 - true_prob)
    builder.truth(prefix_negation(statement), TRUTH_PROMPTS,
                  neg_true_prob, 1.0 - neg_true_prob)
    return builder.backend()


def _checked(statement, true_prob, neg_true_prob):
    """The proposition the tree builder stores for one statement."""
    pending = _Pending(id="T.0", text=statement, path_label="T", source_answer=True)
    return _checked_propositions([pending], NARROW_CONFIG,
                                 _truth_backend(statement, true_prob, neg_true_prob),
                                 TRUTH_PROMPTS)[0]


@pytest.mark.parametrize("true_prob,neg_prob,expected", [
    (0.8, 0.3, Integrity.INTEGRAL_TRUE),
    (0.2, 0.9, Integrity.INTEGRAL_FALSE),
    (0.8, 0.7, Integrity.NOT_INTEGRAL),   # both answers lean True
    (0.3, 0.4, Integrity.NOT_INTEGRAL),   # both answers lean False
    (0.5, 0.2, Integrity.NOT_INTEGRAL),   # exact tie on the statement
    (0.9, 0.5, Integrity.NOT_INTEGRAL),   # exact tie on the negation
])
def test_check_integrity_classification(true_prob, neg_prob, expected):
    statement = "Glass is made mostly of sand"
    checked = _checked(statement, true_prob, neg_prob)
    assert checked.integrity is expected
    assert checked.true_prob == pytest.approx(true_prob)
    assert checked.neg_true_prob == pytest.approx(neg_prob)
    assert checked.negated_text == prefix_negation(statement)


def test_check_integrity_belief_ratio():
    checked = _checked("Glass is made mostly of sand", 0.9, 0.15)
    assert checked.belief == pytest.approx((0.9 - 0.15) / (0.9 + 0.15))


def test_check_integrity_degenerate_probabilities():
    # zero mass on True for both the statement and its negation: the
    # answers agree, and no belief ratio can be formed
    checked = _checked("Glass is made mostly of sand", 0.0, 0.0)
    assert checked.belief is None
    assert checked.integrity is Integrity.NOT_INTEGRAL


def test_abduction_deduplicates_in_order():
    # four samples requested, two distinct; dedup keeps first occurrences
    decoding = DecodingParams(DecodingStrategy.NUCLEUS, sample_count=4)
    config = TreeConfig(depth_limit=1, decoding_schedule=(decoding,))
    question = "Glass is made mostly of sand"
    builder = FixtureBuilder()
    builder.abductive(question, True, ABDUCTIVE_PROMPTS,
                      decoding, ["first reason", "second reason",
                                 "first reason", "second reason"])
    builder.abductive(question, False, ABDUCTIVE_PROMPTS,
                      decoding, ["", "", "", ""])
    for text in (question, "first reason", "second reason"):
        builder.truth(text, TRUTH_PROMPTS, 0.8, 0.2)
        builder.truth(prefix_negation(text), TRUTH_PROMPTS, 0.3, 0.7)
    tree = build_tree(question, config, builder.backend(), TRUTH_PROMPTS,
                      ABDUCTIVE_PROMPTS)
    for_true = [tree.node(cid).text for label, cid in tree.children_of("root") if label]
    for_false = [cid for label, cid in tree.children_of("root") if not label]
    assert for_true == ["first reason", "second reason"]
    assert for_false == []  # empty generations surface as no children


def test_build_tree_fixed_scenario_shape():
    world = war_world()
    tree = build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert sorted(tree.nodes) == ["F.0", "T.0", "T.0.F.0", "T.0.T.0", "root"]
    assert tree.node("T.0").text == WAR_E_T
    assert tree.node("T.0").source_answer is True
    assert tree.node("F.0").text == WAR_E_F
    assert tree.node("F.0").source_answer is False
    assert tree.node("T.0.F.0").path_label == "TF"
    # the integral False-branch child was not expanded further
    assert tree.children_of("F.0") == ()


def test_build_tree_negates_with_the_model_in_rounds(tmp_path):
    greedy = DecodingParams(DecodingStrategy.GREEDY)
    config = TreeConfig(depth_limit=1, decoding_schedule=(greedy,),
                        negation_strategy=NegationStrategy.LM_GENERATED)
    root, for_true, for_false = ("Copper conducts electricity", "Copper has free electrons.",
                                 "Copper is a ceramic.")
    builder = FixtureBuilder()
    builder.abductive(root, True, ABDUCTIVE_PROMPTS, greedy, [for_true])
    builder.abductive(root, False, ABDUCTIVE_PROMPTS, greedy, [for_false])
    for text in (root, for_true, for_false):
        builder.negation(text, f"It is false that {text}")
        builder.truth(text, TRUTH_PROMPTS, 0.8, 0.2)
        builder.truth(f"It is false that {text}", TRUTH_PROMPTS, 0.3, 0.7)
    trace = TraceRecorder(tmp_path / "trace.jsonl")
    tree = build_tree(root + "?", config, CachedBackend(builder.backend(), None, trace=trace),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert tree.node("F.0").negated_text == f"It is false that {for_false}"
    assert tree.node("F.0").integrity is Integrity.INTEGRAL_TRUE
    # both abductions, the negations of the root and both children, then
    # the truth pairs of the root and both children
    assert [entry["purpose"] for entry in read_trace(trace.path)] == (
        ["completion"] * 2 + ["completion"] * 3 + ["truth"] * 6)


def test_root_expands_even_when_integral():
    world = war_world()
    tree = build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert tree.root.integrity is Integrity.INTEGRAL_TRUE
    assert len(tree.children_of("root")) == 2


def test_build_tree_discards_echo_children():
    world = ScenarioWorld(config=NARROW_CONFIG)
    question = "Copper conducts electricity"
    world.statement(question, 0.8, 0.7)
    supporting = "Copper has free electrons."
    world.statement(supporting, 0.9, 0.1)
    # the True branch echoes the question back; only False survives
    world.children(question, 1, [question], [supporting])
    world.children(supporting, 2, [], [])
    tree = build_tree(question + "?", NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert sorted(tree.nodes) == ["F.0", "root"]
    assert tree.node("F.0").text == supporting


def test_build_tree_normalizes_the_question():
    world = war_world()
    with_period = build_tree("War cannot have a tie.", NARROW_CONFIG,
                             world.backend(), TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert with_period.root.text == "War cannot have a tie"


def test_build_tree_validates_prompt_modes():
    world = war_world()
    with pytest.raises(ValueError):
        build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                   ABDUCTIVE_PROMPTS, ABDUCTIVE_PROMPTS)
    with pytest.raises(ValueError):
        build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                   TRUTH_PROMPTS, TRUTH_PROMPTS)


def test_prune_keeps_internal_nodes_with_integral_descendants():
    world = war_world()
    tree = build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    pruned = prune(tree)
    # T.0 is not integral but carries integral children, so it stays
    assert sorted(pruned.nodes) == sorted(tree.nodes)


def test_prune_removes_non_integral_leaf_chains():
    world = ScenarioWorld(config=NARROW_CONFIG)
    question = "Copper conducts electricity"
    keeper = "Copper has free electrons."
    wobbly = "Metals feel cold to the touch."
    deeper = "Cold metal is a sign of conduction."
    world.statement(question, 0.8, 0.3)
    world.statement(keeper, 0.9, 0.1)
    world.statement(wobbly, 0.8, 0.6)    # not integral
    world.statement(deeper, 0.7, 0.55)   # not integral either
    world.children(question, 1, [keeper], [wobbly])
    world.children(wobbly, 2, [deeper], [])
    tree = build_tree(question, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert sorted(tree.nodes) == ["F.0", "F.0.T.0", "T.0", "root"]
    pruned = prune(tree)
    # the wobbly chain collapses bottom-up; the keeper leaf stays
    assert sorted(pruned.nodes) == ["T.0", "root"]
    assert prune(pruned).nodes == pruned.nodes


def test_prune_to_root_only_when_nothing_is_integral():
    world = ScenarioWorld(config=NARROW_CONFIG)
    question = "Copper conducts electricity"
    child = "Copper is a metal after all."
    world.statement(question, 0.7, 0.7)
    world.statement(child, 0.6, 0.6)
    world.children(question, 1, [child], [])
    world.children(child, 2, [], [])
    tree = build_tree(question, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    pruned = prune(tree)
    assert pruned.is_root_only()
    assert pruned.root.text == question


def test_prune_does_not_mutate_its_input():
    world = war_world()
    tree = build_tree(WAR_QUESTION, NARROW_CONFIG, world.backend(),
                      TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    before = tree_to_dict(tree)
    prune(tree)
    assert tree_to_dict(tree) == before


def _chain(length: int, integral_depth: Optional[int]):
    """A valid tree that is one chain of ``length`` nodes, root included,
    where only the node at ``integral_depth`` (if any) is integral."""
    ids = ["root"] + [f"n{depth}" for depth in range(1, length)]
    nodes = [{"id": node_id, "text": f"Statement {depth}.",
              "negated_text": f"Not statement {depth}.", "path_label": "T" * depth,
              "integrity": "not_integral", "true_prob": 0.6, "neg_true_prob": 0.6}
             for depth, node_id in enumerate(ids)]
    if integral_depth is not None:
        nodes[integral_depth].update(integrity="integral_true", true_prob=0.9,
                                     neg_true_prob=0.1)
    edges = [{"parent": parent, "label": True, "child": child}
             for parent, child in zip(ids, ids[1:])]
    config = {"depth_limit": length - 1,
              "decoding_schedule": [{"strategy": "greedy"}] * (length - 1)}
    return tree_from_dict({"root": "root", "nodes": nodes, "edges": edges, "config": config})


def test_prune_walks_a_chain_deeper_than_the_recursion_limit():
    length = 2000
    assert length > sys.getrecursionlimit()
    deepest_integral = _chain(length, length - 1)
    kept = prune(deepest_integral)
    assert list(kept.nodes) == list(deepest_integral.nodes)
    assert kept.children == deepest_integral.children
    assert prune(_chain(length, None)).is_root_only()


def test_random_scenarios_respect_the_node_budget():
    for seed in range(25):
        world, question = random_world(seed)
        tree = build_tree(question, world.config, world.backend(),
                          TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
        assert len(tree.nodes) - 1 <= world.config.max_nodes_excluding_root()
        pruned = prune(tree)
        for node in tree_nodes(pruned):
            if node.id != pruned.root_id and not pruned.children_of(node.id):
                assert node.integrity.is_integral, (seed, node.id)
        assert tree_to_dict(prune(pruned)) == tree_to_dict(pruned)


def test_random_scenarios_are_reproducible():
    world_a, question_a = random_world(42)
    world_b, question_b = random_world(42)
    assert question_a == question_b
    tree_a = build_tree(question_a, world_a.config, world_a.backend(),
                        TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    tree_b = build_tree(question_b, world_b.config, world_b.backend(),
                        TRUTH_PROMPTS, ABDUCTIVE_PROMPTS)
    assert tree_to_dict(tree_a) == tree_to_dict(tree_b)
