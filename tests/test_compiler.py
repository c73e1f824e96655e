"""Clause compilation tests against hand-computed weights and goldens."""
from __future__ import annotations

import json
import math

import pytest

from maieutic.backend import FixtureBuilder
from maieutic.compiler import (
    MIN_CLAUSE_WEIGHT,
    CompileMode,
    belief_from_probs,
    compile,
    compile_belief_clauses,
    compile_consistency_clauses,
    cnf_to_dict,
    consistency_weight,
)
from maieutic.core import (
    ClauseOrigin,
    Integrity,
    MaieuticTree,
    Proposition,
    TreeConfig,
    canonical_json,
    variable_map,
)
from maieutic.errors import DegenerateBelief, EmptyTree
from maieutic.verifier import ScriptedNliVerifier
from worlds import (
    ABDUCTIVE_PROMPTS,
    WAR_NLI_RECORDS,
    NARROW_CONFIG,
    war_world,
    fixed_tree,
)


def _war_logprob_backend():
    world = war_world(include_logprobs=True)
    return world.backend()


# --- belief weights ---

@pytest.mark.parametrize("true_prob,neg_prob,expected", [
    (0.9, 0.1, 0.8),
    (0.0, 0.5, -1.0),
    (0.5, 0.0, 1.0),
    (0.4, 0.4, 0.0),
    (0.75, 0.25, 0.5),
])
def test_belief_from_probs_hand_values(true_prob, neg_prob, expected):
    assert belief_from_probs(true_prob, neg_prob) == pytest.approx(expected)


def test_belief_from_probs_degenerate():
    with pytest.raises(DegenerateBelief):
        belief_from_probs(0.0, 0.0)


def test_belief_clause_weight_reads_stored_probabilities():
    tree = fixed_tree()
    expected = (0.9 - 0.15) / (0.9 + 0.15)
    assert tree.node("T.0.T.0").belief == pytest.approx(expected)
    variables = {node_id: var for var, node_id in variable_map(tree).items()}
    weights = {clause.literals[0][0]: clause.weight
               for clause in compile_belief_clauses(tree, variable_map(tree))}
    assert weights[variables["T.0.T.0"]] == pytest.approx(expected)
    bare = Proposition(id="x", text="claim without probabilities")
    assert bare.belief is None
    # so an integral leaf, the only kind that gets a belief clause, has a belief
    with pytest.raises(ValueError):
        Proposition(id="x", text="claim without probabilities", negated_text="its negation",
                    integrity=Integrity.INTEGRAL_TRUE)


# --- consistency weights ---

def test_consistency_weight_matches_the_sigmoid_identity():
    backend = _war_logprob_backend()
    tree = fixed_tree()
    # hand value: log-likelihoods -12 and -14 give sigmoid(2)
    weight = consistency_weight(tree.node("T.0"), tree.root, True,
                                backend, ABDUCTIVE_PROMPTS)
    assert weight == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
    assert weight == pytest.approx(0.8807970779778823)


def test_consistency_weight_complement_sums_to_one():
    backend = _war_logprob_backend()
    tree = fixed_tree()
    for child_id, parent_id in [("T.0", "root"), ("F.0", "root"),
                                ("T.0.T.0", "T.0"), ("T.0.F.0", "T.0")]:
        child, parent = tree.node(child_id), tree.node(parent_id)
        one = consistency_weight(child, parent, True, backend, ABDUCTIVE_PROMPTS)
        other = consistency_weight(child, parent, False, backend,
                                   ABDUCTIVE_PROMPTS)
        assert one + other == pytest.approx(1.0, abs=1e-12)


def test_consistency_weight_survives_extreme_differences():
    builder = FixtureBuilder()
    builder.logprob("A long explanation.", "The question", True,
                    ABDUCTIVE_PROMPTS, -0.5)
    builder.logprob("A long explanation.", "The question", False,
                    ABDUCTIVE_PROMPTS, -700.5)
    backend = builder.backend()
    child = Proposition(id="c", text="A long explanation.")
    parent = Proposition(id="p", text="The question")
    up = consistency_weight(child, parent, True, backend, ABDUCTIVE_PROMPTS)
    down = consistency_weight(child, parent, False, backend, ABDUCTIVE_PROMPTS)
    assert up == 1.0  # saturates without overflowing
    assert down == pytest.approx(0.0)
    assert math.isfinite(down)


# --- belief clauses ---

def test_belief_clauses_for_the_fixed_tree():
    tree = fixed_tree()
    clauses = compile_belief_clauses(tree, variable_map(tree))
    assert [(c.literals, c.origin) for c in clauses] == [
        (((3, True),), ClauseOrigin.BELIEF),
        (((4, True),), ClauseOrigin.BELIEF),
        (((5, True),), ClauseOrigin.BELIEF),
    ]
    assert clauses[0].weight == pytest.approx((0.9 - 0.15) / (0.9 + 0.15))


def test_belief_clause_polarity_follows_integrity():
    root = Proposition(id="root", text="the question")
    doubter = Proposition(id="F.0", text="a refuting fact",
                          negated_text="not a refuting fact",
                          path_label="F", source_answer=False,
                          integrity=Integrity.INTEGRAL_FALSE,
                          true_prob=0.25, neg_true_prob=0.75)
    tree = MaieuticTree(nodes={"root": root, "F.0": doubter},
                        children={"root": [(False, "F.0")]},
                        config=NARROW_CONFIG)
    (clause,) = compile_belief_clauses(tree, variable_map(tree))
    assert clause.literals == ((2, False),)
    assert clause.weight == pytest.approx(0.5)


def test_belief_clauses_reject_unpruned_trees():
    tree = fixed_tree()
    wobbly = Proposition(id="F.0", text=tree.node("F.0").text,
                         negated_text=tree.node("F.0").negated_text,
                         path_label="F", source_answer=False,
                         integrity=Integrity.NOT_INTEGRAL,
                         true_prob=0.6, neg_true_prob=0.55)
    nodes = dict(tree.nodes)
    nodes["F.0"] = wobbly
    broken = MaieuticTree(nodes=nodes, children=dict(tree.children),
                          config=tree.config)
    with pytest.raises(ValueError, match="prune"):
        compile_belief_clauses(broken, variable_map(broken))


def test_negligible_belief_clauses_are_dropped():
    root = Proposition(id="root", text="the question")
    epsilon = 2.5e-14
    faint = Proposition(id="T.0", text="a barely believed fact",
                        negated_text="its negation",
                        path_label="T", source_answer=True,
                        integrity=Integrity.INTEGRAL_TRUE,
                        true_prob=0.5 + epsilon, neg_true_prob=0.5 - epsilon)
    tree = MaieuticTree(nodes={"root": root, "T.0": faint},
                        children={"root": [(True, "T.0")]},
                        config=NARROW_CONFIG)
    assert abs(faint.belief) < MIN_CLAUSE_WEIGHT
    assert compile_belief_clauses(tree, variable_map(tree)) == []


# --- consistency clauses ---

def test_consistency_clauses_for_the_fixed_tree():
    tree = fixed_tree()
    clauses = compile_consistency_clauses(tree, variable_map(tree), _war_logprob_backend(),
                                          ABDUCTIVE_PROMPTS)
    expected_weights = [
        1.0 / (1.0 + math.exp(-2.0)),    # root -True-> T.0
        1.0 / (1.0 + math.exp(-2.5)),    # root -False-> F.0
        0.5,                             # T.0 -True-> T.0.T.0
        math.exp(-7.0) / (1.0 + math.exp(-7.0)),  # T.0 -False-> T.0.F.0
    ]
    assert [c.literals for c in clauses] == [
        ((1, True), (2, False)),
        ((1, False), (5, False)),
        ((2, True), (3, False)),
        ((2, False), (4, False)),
    ]
    assert [c.weight for c in clauses] == pytest.approx(expected_weights)
    assert all(c.origin is ClauseOrigin.CONSISTENCY for c in clauses)


# --- full compilation ---

def test_likelihood_compile_matches_the_golden_dump(data_dir):
    cnf = compile(fixed_tree(), CompileMode.LIKELIHOOD,
                  backend=_war_logprob_backend(), prompts=ABDUCTIVE_PROMPTS)
    golden = json.loads((data_dir / "clause_dump_likelihood.json").read_text())
    assert cnf_to_dict(cnf) == golden


def test_verifier_compile_matches_the_golden_dump(data_dir):
    verifier = ScriptedNliVerifier(fixtures=WAR_NLI_RECORDS, strict=False)
    cnf = compile(fixed_tree(), CompileMode.VERIFIER, verifier=verifier)
    golden = json.loads((data_dir / "clause_dump_verifier.json").read_text())
    assert cnf_to_dict(cnf) == golden


def test_compile_requires_its_mode_dependencies():
    tree = fixed_tree()
    with pytest.raises(ValueError):
        compile(tree, CompileMode.LIKELIHOOD)
    with pytest.raises(ValueError):
        compile(tree, CompileMode.VERIFIER)


def test_compile_refuses_a_root_only_tree():
    root_only = MaieuticTree(
        nodes={"root": Proposition(id="root", text="the question")},
        children={}, config=TreeConfig())
    with pytest.raises(EmptyTree):
        compile(root_only, CompileMode.VERIFIER,
                verifier=ScriptedNliVerifier(strict=False))


def test_every_node_owns_a_variable():
    cnf = compile(fixed_tree(), CompileMode.VERIFIER,
                  verifier=ScriptedNliVerifier(fixtures=WAR_NLI_RECORDS,
                                               strict=False))
    assert cnf.variables == {1: "root", 2: "T.0", 3: "T.0.T.0",
                             4: "T.0.F.0", 5: "F.0"}


def test_cnf_json_round_trips_through_the_dict_form():
    cnf = compile(fixed_tree(), CompileMode.LIKELIHOOD,
                  backend=_war_logprob_backend(), prompts=ABDUCTIVE_PROMPTS)
    text = canonical_json(cnf_to_dict(cnf))
    assert text.endswith("\n")
    assert json.loads(text) == cnf_to_dict(cnf)
