"""Data-model tests: validation, traversal order, serialization round-trips."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import pytest

from maieutic.core import (
    ClauseOrigin,
    DecodingParams,
    DecodingStrategy,
    Integrity,
    MaieuticTree,
    PromptExample,
    PromptMode,
    PromptSet,
    Proposition,
    TreeConfig,
    WeightedClause,
    WeightedCnf,
    child_id,
    json_digest,
    label_word,
    tree_from_dict,
    tree_from_dot,
    tree_from_json,
    tree_leaves,
    tree_nodes,
    tree_to_dict,
    tree_to_dot,
    tree_to_json,
    variable_map,
)
from worlds import NARROW_CONFIG, fixed_tree

PRE_ORDER = ["root", "T.0", "T.0.T.0", "T.0.F.0", "F.0"]


def test_proposition_rejects_empty_text():
    with pytest.raises(ValueError):
        Proposition(id="root", text="   ")


def test_proposition_rejects_bad_path_label():
    with pytest.raises(ValueError):
        Proposition(id="x", text="a claim", path_label="TX")


def test_checked_proposition_needs_negation():
    with pytest.raises(ValueError):
        Proposition(id="x", text="a claim", path_label="T",
                    integrity=Integrity.NOT_INTEGRAL)


@pytest.mark.parametrize("integrity,belief", [
    (Integrity.INTEGRAL_TRUE, None),
    (Integrity.INTEGRAL_TRUE, -0.2),
    (Integrity.INTEGRAL_FALSE, 0.2),
])
def test_integrity_requires_matching_belief_sign(integrity, belief):
    # probabilities whose belief ratio is exactly the given belief
    probs = {} if belief is None else {"true_prob": (1 + belief) / 2,
                                       "neg_true_prob": (1 - belief) / 2}
    with pytest.raises(ValueError):
        Proposition(id="x", text="a claim", negated_text="not a claim",
                    path_label="T", integrity=integrity, **probs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["true_prob", "neg_true_prob"])
def test_a_probability_that_is_no_finite_number_is_out_of_range(name, value):
    with pytest.raises(ValueError):
        Proposition(id="x", text="a claim", **{name: value})


def test_belief_is_derived_from_the_stored_probabilities():
    node = Proposition(id="x", text="a claim", true_prob=0.9, neg_true_prob=0.15)
    assert node.belief == (0.9 - 0.15) / (0.9 + 0.15)
    assert Proposition(id="x", text="a claim", true_prob=0.9).belief is None
    assert Proposition(id="x", text="a claim", true_prob=0.0,
                       neg_true_prob=0.0).belief is None


def test_proposition_depth_follows_path_label():
    node = Proposition(id="T.0.F.0", text="a claim", path_label="TF")
    assert node.depth == 2
    assert Proposition(id="root", text="q").depth == 0


@pytest.mark.parametrize("parent,label,index,expected", [
    ("root", True, 0, "T.0"),
    ("root", False, 2, "F.2"),
    ("T.0", False, 0, "T.0.F.0"),
    ("T.0.F.0", True, 1, "T.0.F.0.T.1"),
])
def test_child_id_layout(parent, label, index, expected):
    assert child_id(parent, label, index) == expected


def test_label_word():
    assert label_word(True) == "True"
    assert label_word(False) == "False"


def test_integrity_is_integral_flag():
    assert Integrity.INTEGRAL_TRUE.is_integral
    assert Integrity.INTEGRAL_FALSE.is_integral
    assert not Integrity.NOT_INTEGRAL.is_integral
    assert not Integrity.UNCHECKED.is_integral


def test_decoding_params_validation():
    with pytest.raises(ValueError):
        DecodingParams(DecodingStrategy.GREEDY, sample_count=2)
    with pytest.raises(ValueError):
        DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=0.0)
    with pytest.raises(ValueError):
        DecodingParams(DecodingStrategy.GREEDY, max_tokens=0)


def test_decoding_params_dict_round_trip():
    params = DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=0.9,
                            sample_count=3, stop_sequences=("\n",))
    assert DecodingParams.from_dict(params.to_dict()) == params
    greedy = DecodingParams(DecodingStrategy.GREEDY)
    assert "nucleus_p" not in greedy.to_dict()
    assert DecodingParams.from_dict(greedy.to_dict()) == greedy


def test_tree_config_schedule_lengths_must_match():
    with pytest.raises(ValueError):
        TreeConfig(depth_limit=1)  # the default decoding schedule lists two depths
    with pytest.raises(ValueError):
        TreeConfig.from_dict({"depth_limit": 2, "width_schedule": [3]})
    greedy = DecodingParams(DecodingStrategy.GREEDY).to_dict()
    with pytest.raises(ValueError):
        TreeConfig.from_dict({"depth_limit": 1, "width_schedule": [2],
                              "decoding_schedule": [greedy]})
    accepted = TreeConfig.from_dict({"depth_limit": 1, "width_schedule": [1],
                                     "decoding_schedule": [greedy]})
    assert accepted.width_schedule == (1,)


def test_tree_config_depth_lookup_bounds():
    config = TreeConfig()
    with pytest.raises(ValueError):
        config.decoding_for(0)
    assert config.width_schedule == (3, 1)
    assert config.decoding_for(2).strategy is DecodingStrategy.GREEDY


@pytest.mark.parametrize("config,expected", [
    (TreeConfig(), 18),
    (NARROW_CONFIG, 6),
])
def test_tree_config_node_bound(config, expected):
    # both labels at every width: 2w_1 + 2w_1 * 2w_2 + ...
    assert config.max_nodes_excluding_root() == expected


def test_tree_config_dict_round_trip():
    config = TreeConfig()
    assert TreeConfig.from_dict(config.to_dict()) == config
    assert TreeConfig.from_dict(NARROW_CONFIG.to_dict()) == NARROW_CONFIG


def test_prompt_set_mode_constraints():
    with pytest.raises(ValueError):
        PromptSet(PromptMode.QA_PAIRS, (
            PromptExample("Water is wet?", True, "Because it is."),))
    with pytest.raises(ValueError):
        PromptSet(PromptMode.ABDUCTIVE_TRIPLES, (
            PromptExample("Water is wet?", True),))
    with pytest.raises(ValueError):
        PromptSet(PromptMode.QA_PAIRS, ())


def test_prompt_set_content_hash_tracks_content():
    one = PromptSet(PromptMode.QA_PAIRS, (PromptExample("Water is wet?", True),))
    same = PromptSet(PromptMode.QA_PAIRS, (PromptExample("Water is wet?", True),))
    other = PromptSet(PromptMode.QA_PAIRS, (PromptExample("Water is dry?", False),))
    assert one.content_hash() == same.content_hash()
    assert one.content_hash() != other.content_hash()


@pytest.mark.parametrize("value", [
    {"b": [1, 2.5, None], "a": {"z": True, "é": "naïve ✓"}},
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 2 ** 80, -(2 ** 70)],
    TreeConfig().to_dict(),
    "\u2028 \x00 \ud800 text",
    {},
], ids=["nested", "numbers", "tree-config", "string", "empty"])
def test_json_digest_hashes_the_text_of_sorted_compact_json_dumps(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert json_digest(value) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_tree_nodes_pre_order():
    tree = fixed_tree()
    assert [node.id for node in tree_nodes(tree)] == PRE_ORDER


def test_tree_leaves_pre_order():
    tree = fixed_tree()
    assert [node.id for node in tree_leaves(tree)] == ["T.0.T.0", "T.0.F.0", "F.0"]


def test_variable_map_is_pre_order_one_based():
    tree = fixed_tree()
    assert variable_map(tree) == dict(enumerate(PRE_ORDER, start=1))


def test_edges_in_pre_order_of_parents():
    tree = fixed_tree()
    assert list(tree.edges()) == [
        ("root", True, "T.0"),
        ("root", False, "F.0"),
        ("T.0", True, "T.0.T.0"),
        ("T.0", False, "T.0.F.0"),
    ]


def test_validate_rejects_second_parent():
    tree = fixed_tree()
    children = {key: list(value) for key, value in tree.children.items()}
    children["F.0"] = [(True, "T.0.T.0")]
    with pytest.raises(ValueError, match="more than one parent"):
        MaieuticTree(nodes=dict(tree.nodes), children=children, config=tree.config)


def test_validate_rejects_disconnected_node():
    tree = fixed_tree()
    nodes = dict(tree.nodes)
    nodes["stray"] = Proposition(id="stray", text="unattached claim",
                                 path_label="F")
    with pytest.raises(ValueError, match="disconnected"):
        MaieuticTree(nodes=nodes, children=dict(tree.children), config=tree.config)


def test_validate_rejects_path_label_mismatch():
    tree = fixed_tree()
    nodes = dict(tree.nodes)
    nodes["F.0"] = Proposition(id="F.0", text="claim", negated_text="not claim",
                               path_label="T", integrity=Integrity.NOT_INTEGRAL)
    with pytest.raises(ValueError, match="path label"):
        MaieuticTree(nodes=nodes, children=dict(tree.children), config=tree.config)


def test_validate_rejects_root_as_child():
    tree = fixed_tree()
    children = {key: list(value) for key, value in tree.children.items()}
    children["T.0.T.0"] = [(True, "root")]
    with pytest.raises(ValueError, match="root"):
        MaieuticTree(nodes=dict(tree.nodes), children=children, config=tree.config)


def test_validate_rejects_a_node_stored_under_another_key():
    nodes = {"root": Proposition(id="root", text="Q"),
             "T.0": Proposition(id="X", text="claim", path_label="T")}
    with pytest.raises(ValueError, match="node key 'T.0' holds the node of id 'X'"):
        MaieuticTree(nodes=nodes, children={"root": [(True, "T.0")]})


def test_a_built_tree_is_sealed_and_keeps_its_own_copy_of_the_maps():
    nodes, children = dict(fixed_tree().nodes), dict(fixed_tree().children)
    children["root"] = list(children["root"])
    tree = MaieuticTree(nodes=nodes, children=children, config=NARROW_CONFIG)
    nodes.pop("F.0")
    children["root"].pop()
    assert tree_to_dict(tree) == tree_to_dict(fixed_tree())
    with pytest.raises(TypeError):
        tree.nodes["stray"] = tree.root
    with pytest.raises(TypeError):
        tree.children["F.0"] = [(True, "T.0.T.0")]
    with pytest.raises(AttributeError):
        tree.children["root"].append((True, "T.0.T.0"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.children = {}
    with pytest.raises(ValueError, match="4 generated nodes exceed the bound 2"):
        dataclasses.replace(tree, config=TreeConfig(
            depth_limit=1, decoding_schedule=(DecodingParams(DecodingStrategy.GREEDY),)))


def test_tree_dict_round_trip():
    tree = fixed_tree()
    clone = tree_from_dict(tree_to_dict(tree))
    assert tree_to_dict(clone) == tree_to_dict(tree)
    assert clone.node("T.0.F.0") == tree.node("T.0.F.0")
    assert clone.config == tree.config


def test_tree_json_round_trip_and_trailing_newline():
    tree = fixed_tree()
    text = tree_to_json(tree)
    assert text.endswith("\n")
    clone = tree_from_json(text)
    assert tree_to_json(clone) == text


def test_tree_dot_round_trip_and_colors():
    tree = fixed_tree()
    plain = tree_to_dot(tree)
    assert plain.lstrip().startswith("digraph")
    clone = tree_from_dot(plain)
    assert tree_to_dict(clone) == tree_to_dict(tree)
    colored = tree_to_dot(tree, assignment={node: True for node in PRE_ORDER})
    assert "palegreen" in colored
    assert tree_to_dict(tree_from_dot(colored)) == tree_to_dict(tree)


@pytest.mark.parametrize("data, message", [
    ({}, "tree needs the key root"),
    ([], "tree must be an object, not list"),
    ({"root": "root", "nodes": None, "edges": []}, "tree key nodes must be list"),
    ({"root": "root", "nodes": [3], "edges": []}, "tree key nodes must be list"),
    ({"root": "root", "nodes": [{"id": "root"}], "edges": []}, "tree node needs the key text"),
    ({"root": "root", "nodes": [{"id": "root", "text": "q", "negated_text": None}],
      "edges": []}, "tree node key negated_text must be str, not None"),
    ({"root": "root", "nodes": [{"id": "root", "text": "q"}], "edges": [{"parent": "root"}]},
     "tree edge needs the key label"),
    ({"root": "root", "nodes": [{"id": "root", "text": "q"}], "edges": [], "config": None},
     "tree key config must be dict, not None"),
    ({"root": "root", "nodes": [{"id": "root", "text": "Q", "direct_answer": True}],
      "edges": []}, "unknown tree node keys: direct_answer"),
])
def test_tree_from_dict_names_what_is_missing_or_of_the_wrong_type(data, message):
    with pytest.raises(ValueError, match=message):
        tree_from_dict(data)


def test_tree_from_dot_requires_embedded_payload():
    with pytest.raises(ValueError):
        tree_from_dot("digraph g { a -> b }")


def test_weighted_clause_validation():
    with pytest.raises(ValueError):
        WeightedClause(literals=((1, True),), weight=0.0,
                       origin=ClauseOrigin.BELIEF)
    with pytest.raises(ValueError):
        WeightedClause(literals=((1, True), (1, False)), weight=0.5,
                       origin=ClauseOrigin.NLI)
    with pytest.raises(ValueError):
        WeightedClause(literals=(), weight=0.5, origin=ClauseOrigin.BELIEF)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -0.5, -0.0])
def test_weighted_clause_rejects_unusable_weights(weight):
    with pytest.raises(ValueError, match="weight"):
        WeightedClause(literals=((1, True),), weight=weight, origin=ClauseOrigin.NLI)


def test_weighted_clause_normalizes_literals():
    clause = WeightedClause(literals=[[2, 1], (3.0, 0)], weight=1, origin=ClauseOrigin.NLI)
    assert clause.literals == ((2, True), (3, False))
    assert [tuple(map(type, literal)) for literal in clause.literals] == [(int, bool)] * 2


def test_weighted_cnf_lookup_and_total():
    cnf = WeightedCnf(
        variables={1: "root", 2: "T.0"},
        clauses=[
            WeightedClause(literals=((1, True),), weight=0.75,
                           origin=ClauseOrigin.BELIEF),
            WeightedClause(literals=((1, True), (2, False)), weight=0.5,
                           origin=ClauseOrigin.CONSISTENCY),
        ],
    )
    assert cnf.total_weight() == 1.25


def test_tree_json_is_stable_across_calls():
    one = tree_to_json(fixed_tree())
    two = tree_to_json(fixed_tree())
    assert one == two
    parsed = json.loads(one)
    assert parsed["root"] == "root"
