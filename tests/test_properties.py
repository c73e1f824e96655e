"""Property-based checks of the core invariants: the solver equals the
exhaustive oracle at every weight scale and at tree scale, on sparse
variable ids too, and ignores clause order; the tree check accepts
exactly the node and edge maps that a walk from the root accepts;
pruning is idempotent, NLI clauses match a reference loop and the merge
by literal tuples, the WCNF exchange format round-trips, and the
response cache reads back what it stored. Digests, cache lines and trace lines are
the text ``json.dumps`` writes, and each prompt renderer equals the join of its blocks.
The readers of outside input (the HTTP reply reader, the tree readers, the WCNF reader,
the fixture files and the dataset reader) return what they read or raise the error
they document, whatever the input, and the command line ends in an exit status
whatever one of its input files holds."""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maieutic import cli
from maieutic import prompts as prompt_module
from maieutic.backend import (
    CachedBackend,
    LmBackend,
    ModelClient,
    ResponseCache,
    ScriptedBackend,
    TraceRecorder,
    _Connection,
    completion_request,
    logprob_request,
    read_trace,
    request_digest,
    truth_request,
)
from maieutic.core import (
    ROOT_ID,
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
    prompt_set_to_dict,
    tree_from_dot,
    tree_from_json,
    tree_nodes,
    tree_to_dict,
    tree_to_json,
    label_word,
    variable_map,
)
from maieutic.errors import MaieuticError, ParseError
from maieutic.harness import load_dataset
from maieutic.prompts import (
    normalize_statement,
    render_abductive_prompt,
    render_explained_answer_prompt,
    render_explanation_prompt,
    render_truth_prompt,
)
from maieutic.solver import export_wcnf, import_wcnf, solve, solve_brute
from maieutic.tree_builder import prune
from maieutic.verifier import NliLabel, NliVerifier, ScriptedNliVerifier, relation_clauses
from worlds import (ABDUCTIVE_PROMPTS, EXPLANATION_PROMPTS, NARROW_CONFIG, TRUTH_PROMPTS,
                    WAR_NLI_RECORDS, WAR_PROBS, WAR_QUESTION, fixed_tree, war_world)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)

# plain draws from the range, and draws spread evenly over its decades
WEIGHTS = st.one_of(st.floats(min_value=1e-6, max_value=1e9),
                    st.floats(min_value=-6.0, max_value=9.0).map(lambda e: 10.0 ** e))


@st.composite
def mixed_scale_cnfs(draw, max_vars: int = 8, max_clauses: int = 12) -> WeightedCnf:
    count = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(1, max_clauses))):
        chosen = draw(st.lists(st.integers(1, count), min_size=1,
                               max_size=min(3, count), unique=True))
        clauses.append(WeightedClause(
            literals=tuple((var, draw(st.booleans())) for var in sorted(chosen)),
            weight=draw(WEIGHTS), origin=draw(st.sampled_from(list(ClauseOrigin)))))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=count,
                          max_size=count))
    return WeightedCnf(variables=dict(enumerate(names, start=1)), clauses=clauses)


@PROPERTY
@given(cnf=mixed_scale_cnfs())
def test_solve_matches_the_oracle_at_mixed_weight_scales(cnf):
    assert solve(cnf) == solve_brute(cnf)


@st.composite
def tree_scale_cnfs(draw) -> WeightedCnf:
    """Instances the size of a kept tree: unit and binary clauses, most of
    them weighing 1.0 as NLI clauses do, so that many optima tie."""
    count = draw(st.integers(1, 14))
    clauses = []
    for _ in range(draw(st.integers(0, 40))):
        chosen = draw(st.lists(st.integers(1, count), min_size=1,
                               max_size=min(2, count), unique=True))
        weight = 1.0 if draw(st.integers(0, 3)) else draw(st.floats(0.05, 1.0))
        clauses.append(WeightedClause(
            literals=tuple((var, draw(st.booleans())) for var in chosen),
            weight=weight, origin=ClauseOrigin.EXTERNAL))
    return WeightedCnf(variables={var: f"n{var}" for var in range(1, count + 1)},
                       clauses=clauses)


@PROPERTY
@given(cnf=tree_scale_cnfs())
def test_solve_matches_the_oracle_at_tree_scale(cnf):
    assert solve(cnf) == solve_brute(cnf)


@st.composite
def unit_bound_cnfs(draw) -> WeightedCnf:
    """Dense instances on which the unit lower bound prunes: most variables
    carry unit clauses on both polarities, under many weight-1.0 binary
    clauses."""
    count = draw(st.integers(10, 16))
    clauses = []
    for var in range(1, count + 1):
        if draw(st.integers(0, 4)):
            clauses += [WeightedClause(literals=((var, polarity),),
                                       weight=draw(st.sampled_from([0.5, 1.0, 1.5])
                                                   | st.floats(0.05, 2.0)),
                                       origin=ClauseOrigin.BELIEF)
                        for polarity in (False, True)]
    for _ in range(draw(st.integers(2 * count, 5 * count))):
        first, second = draw(st.lists(st.integers(1, count), min_size=2, max_size=2,
                                      unique=True))
        clauses.append(WeightedClause(
            literals=((first, draw(st.booleans())), (second, draw(st.booleans()))),
            weight=1.0, origin=ClauseOrigin.NLI))
    return WeightedCnf(variables={var: f"n{var}" for var in range(1, count + 1)},
                       clauses=clauses)


@PROPERTY
@given(cnf=unit_bound_cnfs())
def test_solve_matches_the_oracle_where_the_unit_bound_prunes(cnf):
    assert solve(cnf) == solve_brute(cnf)


def relabelled(cnf: WeightedCnf, ids: list[int]) -> WeightedCnf:
    """The instance with its variables, in id order, renamed to ``ids``."""
    new = dict(zip(sorted(cnf.variables), ids))
    return WeightedCnf(
        variables={new[var]: name for var, name in cnf.variables.items()},
        clauses=[dataclasses.replace(clause, literals=tuple((new[var], polarity)
                                                            for var, polarity in clause.literals))
                 for clause in cnf.clauses])


@PROPERTY
@pytest.mark.parametrize("instances", [mixed_scale_cnfs(), tree_scale_cnfs(), unit_bound_cnfs()],
                         ids=["mixed-scale", "tree-scale", "unit-bound"])
@given(data=st.data())
def test_solve_matches_the_oracle_on_sparse_variable_ids(instances, data):
    cnf = data.draw(instances)
    # ids 3k + 2 in drawn order: never 1..n, with gaps, below zero too, and
    # in another order than the original ids
    drawn = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=len(cnf.variables),
                               max_size=len(cnf.variables), unique=True))
    sparse = relabelled(cnf, [3 * value + 2 for value in drawn])
    assert solve(sparse) == solve_brute(sparse)


@PROPERTY
@given(cnf=tree_scale_cnfs(), data=st.data())
def test_solve_does_not_depend_on_clause_order(cnf, data):
    shuffled = WeightedCnf(variables=cnf.variables,
                           clauses=data.draw(st.permutations(cnf.clauses)))
    assert solve(shuffled).values == solve(cnf).values


@PROPERTY
@given(cnf=mixed_scale_cnfs(), hard=st.sets(st.integers(0, 11)))
def test_solve_matches_the_oracle_on_imported_hard_clauses(tmp_path_factory, cnf, hard):
    path = export_wcnf(cnf, tmp_path_factory.mktemp("wcnf") / "instance.wcnf")
    header, *body = path.read_text(encoding="utf-8").splitlines()
    top = header.split()[-1]
    # a clause at the header's top weight is hard in the format; import
    # keeps it as a very heavy soft clause
    body = [top + line[line.index(" "):] if index in hard else line
            for index, line in enumerate(body)]
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    back = import_wcnf(path)
    assert solve(back) == solve_brute(back)


@PROPERTY
@given(cnf=mixed_scale_cnfs())
def test_wcnf_export_and_import_round_trip(tmp_path_factory, cnf):
    directory = tmp_path_factory.mktemp("wcnf")
    path = export_wcnf(cnf, directory / "first.wcnf")
    back = import_wcnf(path)
    assert back.variables == cnf.variables
    assert [c.literals for c in back.clauses] == [c.literals for c in cnf.clauses]
    assert [c.origin for c in back.clauses] == [c.origin for c in cnf.clauses]
    for restored, original in zip(back.clauses, cnf.clauses):
        assert abs(restored.weight - original.weight) <= 1e-6
    again = export_wcnf(back, directory / "second.wcnf")
    assert again.read_bytes() == path.read_bytes()
    assert (directory / "second.wcnf.map.json").read_bytes() == \
        (directory / "first.wcnf.map.json").read_bytes()


# (true_prob, neg_true_prob) consistent with each checked integrity
PROBABILITIES = {Integrity.INTEGRAL_TRUE: (0.9, 0.1), Integrity.INTEGRAL_FALSE: (0.1, 0.9),
                 Integrity.NOT_INTEGRAL: (0.6, 0.6)}


@st.composite
def trees(draw) -> MaieuticTree:
    """Trees within the default shape: up to three children per label at
    the root, one per label below it, two levels deep."""
    nodes: dict[str, Proposition] = {}
    children: dict[str, list] = {}

    def grow(node_id: str, path: str, answer, width: int) -> None:
        integrity = draw(st.sampled_from(list(PROBABILITIES)))
        true_prob, neg_true_prob = PROBABILITIES[integrity]
        nodes[node_id] = Proposition(
            id=node_id, text=f"Statement {node_id}.", negated_text=f"Not {node_id}.",
            path_label=path, source_answer=answer, integrity=integrity,
            true_prob=true_prob, neg_true_prob=neg_true_prob)
        if width == 0:
            return
        stem = "" if node_id == ROOT_ID else node_id + "."
        for label, letter in ((True, "T"), (False, "F")):
            for index in range(draw(st.integers(0, width))):
                child = f"{stem}{letter}.{index}"
                children.setdefault(node_id, []).append((label, child))
                grow(child, path + letter, label, 1 if width > 1 else 0)

    grow(ROOT_ID, "", None, 3)
    return MaieuticTree(nodes=nodes, children=children)


@PROPERTY
@given(tree=trees())
def test_prune_is_idempotent(tree):
    pruned = prune(tree)
    assert tree_to_dict(prune(pruned)) == tree_to_dict(pruned)
    for node in tree_nodes(pruned):
        if node.id != pruned.root_id and not pruned.children_of(node.id):
            assert node.integrity.is_integral


# the default shape (18 generated nodes, depth 2), and shapes of one
# node per label and depth, 1 and 4 deep (2 and 30 generated nodes)
SHAPES = [TreeConfig()] + [
    TreeConfig(depth_limit=depth,
               decoding_schedule=(DecodingParams(DecodingStrategy.GREEDY),) * depth)
    for depth in (1, 4)]


@st.composite
def node_edge_maps(draw) -> dict:
    """The node and edge maps and the config of a tree of up to six nodes,
    each under an earlier one (the root at least half the time), then up to
    two changes that may break it: an edge added between any two ends,
    either perhaps a missing node; an edge copied to a drawn parent; an edge
    dropped; a path label redrawn; or a node removed."""
    ids = [ROOT_ID] + draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
    labels, edges = {ROOT_ID: ""}, []
    for index, node_id in enumerate(ids[1:], start=1):
        parent, label = draw(st.sampled_from(ids[:1] * index + ids[:index])), draw(st.booleans())
        edges.append((parent, label, node_id))
        labels[node_id] = labels[parent] + "FT"[label]
    ends = st.sampled_from(ids + ["ghost"])
    for change in draw(st.lists(st.sampled_from(["edge", "copy", "drop", "label", "remove"]),
                                max_size=2)):
        if change == "edge":
            edges.append((draw(ends), draw(st.booleans()), draw(ends)))
        elif change == "copy" and edges:
            _, label, child = draw(st.sampled_from(edges))
            edges.append((draw(st.sampled_from(ids)), label, child))
        elif change == "drop" and edges:
            del edges[draw(st.integers(0, len(edges) - 1))]
        elif change == "label":
            labels[draw(st.sampled_from(ids))] = draw(st.text(alphabet="TF", max_size=3))
        elif change == "remove":
            labels.pop(draw(st.sampled_from(ids)), None)
    children: dict[str, list] = {}
    for parent, label, child in edges:
        children.setdefault(parent, []).append((label, child))
    nodes = {node_id: Proposition(id=node_id, text=f"Statement {node_id}.", path_label=label)
             for node_id, label in labels.items()}
    return {"nodes": nodes, "children": children, "config": draw(st.sampled_from(SHAPES))}


def accepted_by_walk(nodes: dict, children: dict, config: TreeConfig) -> bool:
    """Oracle for the check a tree makes when built: a walk from the root
    reaches each node exactly once along edges that extend the path label by
    one letter, the keys of the children map are all reached, and the map
    keeps within the node and depth bounds."""
    if ROOT_ID not in nodes or nodes[ROOT_ID].path_label != "":
        return False
    reached, stack = set(), [ROOT_ID]
    while stack:
        current = stack.pop()
        if current in reached:
            return False
        reached.add(current)
        for label, cid in children.get(current, []):
            if (cid not in nodes or nodes[cid].path_label
                    != nodes[current].path_label + ("T" if label else "F")):
                return False
            stack.append(cid)
    return (reached == set(nodes) and reached.issuperset(children)
            and len(nodes) - 1 <= config.max_nodes_excluding_root()
            and all(len(node.path_label) <= config.depth_limit for node in nodes.values()))


@settings(PROPERTY, max_examples=400)
@given(maps=node_edge_maps())
@example(maps={  # a child under a parent that is no node
    "nodes": {ROOT_ID: Proposition(id=ROOT_ID, text="Statement root."),
              "a": Proposition(id="a", text="Statement a.", path_label="T")},
    "children": {"ghost": [(True, "a")]}, "config": TreeConfig()})
@example(maps={  # a cycle through the root, which a walk in pre-order would never leave
    "nodes": {ROOT_ID: Proposition(id=ROOT_ID, text="Statement root."),
              "a": Proposition(id="a", text="Statement a.", path_label="T")},
    "children": {ROOT_ID: [(True, "a")], "a": [(True, ROOT_ID)]}, "config": TreeConfig()})
def test_validate_accepts_exactly_the_maps_a_walk_from_the_root_accepts(maps):
    try:
        MaieuticTree(**maps)
    except ValueError:
        assert not accepted_by_walk(**maps)
    else:
        assert accepted_by_walk(**maps)


def reference_relation_clauses(tree, verifier):
    """Reference for relation_clauses: a loop over node objects with a frozenset merge."""
    variables = {node_id: var for var, node_id in variable_map(tree).items()}
    ordered = tree_nodes(tree)
    pairs = [(first, second) for first in ordered for second in ordered
             if first.id != second.id]
    judgments = verifier.nli_batch([(first.text, second.text) for first, second in pairs])
    merged: dict[frozenset, WeightedClause] = {}
    for (first, second), judgment in zip(pairs, judgments):
        if judgment.label is NliLabel.NEUTRAL:
            continue
        hypothesis_polarity = judgment.label is NliLabel.ENTAIL
        literals = tuple(sorted(((variables[first.id], False),
                                 (variables[second.id], hypothesis_polarity))))
        key = frozenset(literals)
        if key in merged:
            continue
        merged[key] = WeightedClause(literals=literals, weight=1.0,
                                     origin=ClauseOrigin.NLI)
    return list(merged.values())


# a label for each order of one sentence pair, both orders included
LABEL_PAIRS = [(ahead, back) for ahead in NliLabel for back in NliLabel]


@st.composite
def shaped_trees(draw, max_nodes: int = 19) -> MaieuticTree:
    """Any rooted shape of up to ``max_nodes`` nodes, each node under an
    earlier one, so that pre-order differs from the order of drawing; its
    config is as deep as the tree and as wide as its node count."""
    nodes = {ROOT_ID: Proposition(id=ROOT_ID, text="Statement 0.")}
    children: dict[str, list] = {}
    for index in range(1, draw(st.integers(1, max_nodes))):
        node_id = f"N.{index}"
        parent, label = draw(st.sampled_from(list(nodes))), draw(st.booleans())
        nodes[node_id] = Proposition(id=node_id, text=f"Statement {index}.",
                                     path_label=nodes[parent].path_label + "FT"[label])
        children.setdefault(parent, []).append((label, node_id))
    depth = max(1, *(node.depth for node in nodes.values()))
    wide = DecodingParams(DecodingStrategy.NUCLEUS, sample_count=len(nodes))
    return MaieuticTree(nodes=nodes, children=children,
                        config=TreeConfig(depth_limit=depth, decoding_schedule=(wide,) * depth))


@PROPERTY
@given(tree=shaped_trees(), data=st.data())
def test_relation_clauses_match_the_reference_loop(tree, data):
    texts = [node.text for node in tree_nodes(tree)]
    records = []
    for first, premise in enumerate(texts):
        for hypothesis in texts[first + 1:]:
            ahead, back = data.draw(st.sampled_from(LABEL_PAIRS))
            records += [{"premise": premise, "hypothesis": hypothesis, "label": ahead.value},
                        {"premise": hypothesis, "hypothesis": premise, "label": back.value}]
    verifier = ScriptedNliVerifier(fixtures=records)
    assert relation_clauses(tree, variable_map(tree), verifier) == \
        reference_relation_clauses(tree, verifier)


def merged_relation_clauses(tree, verifier):
    """Reference for relation_clauses: its merge before integer keys, which
    keyed each clause by its tuple of literals in ascending variable order."""
    texts = {var: tree.nodes[node_id].text for var, node_id in variable_map(tree).items()}
    pairs = [(first, second) for first in texts for second in texts if first != second]
    judgments = verifier.nli_batch([(texts[first], texts[second]) for first, second in pairs])
    merged: dict[tuple, WeightedClause] = {}
    for (first, second), judgment in zip(pairs, judgments):
        label = judgment.label
        if label is NliLabel.NEUTRAL:
            continue
        premise, hypothesis = (first, False), (second, label is NliLabel.ENTAIL)
        literals = (premise, hypothesis) if first < second else (hypothesis, premise)
        if literals not in merged:
            merged[literals] = WeightedClause(literals, 1.0, ClauseOrigin.NLI)
    return list(merged.values())


@PROPERTY
@given(tree=shaped_trees(), data=st.data())
def test_relation_clauses_equal_the_merge_by_literal_tuples(tree, data):
    # sentences drawn from a pool, so that nodes may share one: pairs are
    # judged by position, and identical sentences entail without a record
    pool = data.draw(st.integers(1, len(tree.nodes)))
    nodes = {node_id: dataclasses.replace(node, text=f"S{data.draw(st.integers(0, pool - 1))}.")
             for node_id, node in tree.nodes.items()}
    tree = MaieuticTree(nodes=nodes, children=tree.children, config=tree.config)
    sentences = sorted({node.text for node in nodes.values()})
    records = []
    for first, premise in enumerate(sentences):
        for hypothesis in sentences[first + 1:]:
            ahead, back = data.draw(st.sampled_from(LABEL_PAIRS))
            records += [{"premise": premise, "hypothesis": hypothesis, "label": ahead.value},
                        {"premise": hypothesis, "hypothesis": premise, "label": back.value}]
    verifier = ScriptedNliVerifier(fixtures=records)
    assert relation_clauses(tree, variable_map(tree), verifier) == \
        merged_relation_clauses(tree, verifier)


RESPONSES = st.one_of(
    st.builds(lambda value: {"logprob": value}, st.floats(allow_nan=False)),
    st.builds(lambda texts: {"completions": texts}, st.lists(st.text(max_size=8))),
    st.fixed_dictionaries({"label": st.sampled_from(["entail", "neutral"]),
                           "probs": st.lists(st.floats(0.0, 1.0), max_size=3)}))


@PROPERTY
@given(batches=st.lists(st.dictionaries(st.text(max_size=4), RESPONSES, max_size=4),
                        max_size=6))
def test_a_reopened_cache_reads_back_every_put(tmp_path_factory, batches):
    directory = tmp_path_factory.mktemp("cache")
    cache, latest = ResponseCache(directory), {}
    for batch in batches:
        if batch:
            cache.put(batch)
            latest.update(batch)
    reopened = ResponseCache(directory)
    for key in set(latest) | {"never stored"}:
        assert reopened.get(key) == cache.get(key) == latest.get(key)


# text with non-ASCII and control characters and lone surrogates, and every
# kind of float JSON writes: NaN, the infinities and -0.0 among them
TEXTS = st.text(st.characters(exclude_categories=())
                | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\u2028",
                                   "é", "€", "😀", '"', "\\"]), max_size=10)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
DECODINGS = st.one_of(
    st.builds(DecodingParams, st.just(DecodingStrategy.GREEDY), max_tokens=st.integers(1, 512),
              stop_sequences=st.lists(TEXTS, max_size=2)),
    st.builds(DecodingParams, st.just(DecodingStrategy.NUCLEUS),
              nucleus_p=st.floats(0.0, 1.0, exclude_min=True), max_tokens=st.integers(1, 512),
              stop_sequences=st.lists(TEXTS, max_size=2), sample_count=st.integers(1, 8)))
REQUESTS = st.one_of(st.builds(truth_request, TEXTS),
                     st.builds(completion_request, TEXTS, DECODINGS),
                     st.builds(logprob_request, TEXTS, TEXTS),
                     st.builds(NliVerifier._FORMS["nli"][0], TEXTS, TEXTS))
STORED = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3),
    max_leaves=8)

# each LM primitive's arguments, from the text of its prompt
LM_ARGUMENTS = {"_score_answer": lambda text: (text,),
                "_complete": lambda text: (text, DecodingParams(DecodingStrategy.GREEDY)),
                "_completion_logprob": lambda text: (text, "so")}
# batches of requests, some asking what an earlier one asked
TRACED_BATCHES = st.lists(st.tuples(st.sampled_from(sorted(LM_ARGUMENTS)),
                                    st.lists(st.sampled_from(["a", "b", 'é"\\\n']), max_size=4)),
                          max_size=3)
TRACED_REQUESTS = 3 * 4  # the most a draw asks the model: one latency drawn for each


class TimedModel(ModelClient):
    """Answers every request, each taking the next of the given seconds."""

    _FORMS = LmBackend._FORMS
    ANSWERS = {"_score_answer": (0.6, 0.4), "_complete": ["so"], "_completion_logprob": -1.5}

    def __init__(self, seconds):
        self.seconds = iter(seconds)

    def _batch(self, primitive, arguments, digests=None):
        for _ in arguments:
            yield self.ANSWERS[primitive], next(self.seconds)


@PROPERTY
@given(requests=st.lists(REQUESTS, max_size=3),
       responses=st.dictionaries(TEXTS, STORED, max_size=3),
       batches=TRACED_BATCHES,
       seconds=st.lists(st.floats(0.0, 1e4), min_size=TRACED_REQUESTS,
                        max_size=TRACED_REQUESTS))
# rounded latencies whose ``repr`` carries an exponent, and zero
@example(requests=[], responses={}, batches=[("_score_answer", ["a", "b", "a"]),
                                             ("_complete", ["a"])],
         seconds=[5e-06, 1e-05, 0.0] + [0.0] * (TRACED_REQUESTS - 3))
def test_digests_and_cache_and_trace_lines_are_the_text_json_dumps_writes(
        tmp_path_factory, requests, responses, batches, seconds):
    for request in requests:
        text = json.dumps(request, sort_keys=True, separators=(",", ":"))
        assert request_digest(request) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    directory = tmp_path_factory.mktemp("lines")
    if responses:
        ResponseCache(directory).put(responses)
        assert (directory / "responses.jsonl").read_bytes() == "".join(
            json.dumps({"key": key, "response": response}, sort_keys=True) + "\n"
            for key, response in responses.items()).encode("utf-8")
    # each batch served twice: a cold pass that asks the model, a warm one from the cache
    trace = TraceRecorder(directory / "trace.jsonl")
    cached = CachedBackend(ScriptedBackend({}), ResponseCache(directory / "cache"), trace=trace)
    model, records, asked, clock = TimedModel(seconds), [], set(), iter(seconds)
    for primitive, texts in batches + batches:
        form = LmBackend._FORMS[primitive]
        arguments = [LM_ARGUMENTS[primitive](text) for text in texts]
        cached.served("lm", model, primitive, arguments)
        for args in arguments:
            digest = request_digest(form.request(*args))
            hit = digest in asked
            asked.add(digest)
            records.append({"cache_hit": hit, "digest": digest,
                            "latency_s": 0.0 if hit else round(next(clock), 6),
                            "purpose": form.kind})
    assert trace.backend_call_count() == len(asked)
    if records:
        assert (directory / "trace.jsonl").read_bytes() == "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records).encode("utf-8")


# each form, with arguments for it
FORM_CALLS = st.one_of(
    st.tuples(st.just(LmBackend._FORMS["_score_answer"]), st.tuples(TEXTS)),
    st.tuples(st.just(LmBackend._FORMS["_complete"]), st.tuples(TEXTS, DECODINGS)),
    st.tuples(st.just(LmBackend._FORMS["_completion_logprob"]), st.tuples(TEXTS, TEXTS)),
    st.tuples(st.just(NliVerifier._FORMS["nli"]), st.tuples(TEXTS, TEXTS)))


# demonstration and statement text: quotes, backslashes, control
# characters, non-ASCII text and lone surrogates
PROMPT_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "€",
                                       "😀", "\ud800", "\udfff", "a"]), max_size=6)


@st.composite
def surrogate_split_prompt_sets(draw) -> tuple[PromptSet, str]:
    """A prompt set and a statement. The text of the set's last
    demonstration ends in a high surrogate, near the end of the set's
    prefix, and the statement, which starts the tail of every prompt
    rendered from the set, starts with a low one: two halves of a pair that
    are escaped apart."""
    mode = draw(st.sampled_from(list(PromptMode)))
    texts = PROMPT_TEXT.map(lambda text: f"x{text}")
    examples = [PromptExample(draw(texts), draw(st.booleans()),
                              None if mode is PromptMode.QA_PAIRS else draw(texts))
                for _ in range(draw(st.integers(1, 3)))]
    last = examples[-1]
    examples[-1] = (dataclasses.replace(last, question=last.question + "\ud83d")
                    if last.explanation is None
                    else dataclasses.replace(last, explanation=last.explanation + "\ud83d"))
    return PromptSet(mode, tuple(examples)), "\ude00" + draw(PROMPT_TEXT) + "y"


def _rendered(prompts: PromptSet, statement: str) -> list[str]:
    """Every prompt the set's mode renders for the statement."""
    if prompts.mode is PromptMode.QA_PAIRS:
        return [render_truth_prompt(statement, prompts)]
    if prompts.mode is PromptMode.ABDUCTIVE_TRIPLES:
        return [render_abductive_prompt(statement, label, prompts) for label in (True, False)]
    return [render_explanation_prompt(statement, prompts),
            render_explained_answer_prompt(statement, "\ude00why\ud83d", prompts)]


@PROPERTY
@given(calls=st.lists(FORM_CALLS, max_size=4), rendered=surrogate_split_prompt_sets())
# a nucleus_p of 1 equals one of 1.0, but its JSON reads "1"
@example(calls=[(LmBackend._FORMS["_complete"],
                 ("p", DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=p)))
                for p in (1.0, 1)],
         rendered=(ABDUCTIVE_PROMPTS, "\ude00\\n\"y"))
def test_a_form_writes_its_request_as_the_text_json_dumps_writes(calls, rendered):
    prompts, statement = rendered
    texts = _rendered(prompts, statement)

    def known(prompt: str) -> bool:
        return any(prompt.startswith(prefix) for prefix, _ in prompt_module._escaped)

    # the rendered prompts escape only their tails; the bare statement escapes whole
    assert all(map(known, texts)) and not known(statement)
    decoding = DecodingParams(DecodingStrategy.NUCLEUS, stop_sequences=('"\\',))
    lm_calls = [(LmBackend._FORMS[primitive], arguments)
                for text in texts + [statement]
                for primitive, arguments in (("_score_answer", (text,)),
                                             ("_complete", (text, decoding)),
                                             ("_completion_logprob", (text, statement)))]
    for form, arguments in calls + lm_calls:
        request = form.request(*arguments)
        text = json.dumps(request, sort_keys=True, separators=(",", ":"))
        assert form.text(*arguments) == form.text(*arguments) == text
        assert request_digest(text) == request_digest(request)
        assert request["kind"] == form.kind


# --- prompt rendering ---

# The renderers as they were before each prompt set kept its demonstrations:
# every call joins all the blocks anew.

def _mode(prompts: PromptSet, mode: PromptMode) -> None:
    if prompts.mode is not mode:
        raise ValueError(f"prompt set mode {prompts.mode.value} where {mode.value} is required")


def joined_truth_prompt(statement, prompts):
    _mode(prompts, PromptMode.QA_PAIRS)
    blocks = [f"{normalize_statement(ex.question)}? {label_word(ex.answer)}."
              for ex in prompts.examples]
    blocks.append(f"{normalize_statement(statement)}?")
    return "\n\n".join(blocks)


def joined_abductive_prompt(question, label, prompts):
    _mode(prompts, PromptMode.ABDUCTIVE_TRIPLES)
    blocks = [f"{normalize_statement(ex.question)}? {label_word(ex.answer)}, because "
              f"{ex.explanation}" for ex in prompts.examples]
    blocks.append(f"{normalize_statement(question)}? {label_word(label)}, because")
    return "\n\n".join(blocks)


def joined_explanation_prompt(question, prompts):
    _mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    blocks = [f"{normalize_statement(ex.question)}? {ex.explanation} So the answer is "
              f"{label_word(ex.answer)}." for ex in prompts.examples]
    blocks.append(f"{normalize_statement(question)}?")
    return "\n\n".join(blocks)


def joined_explained_answer_prompt(question, explanation, prompts):
    _mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    if not explanation.strip():
        raise ValueError("explanation must be non-empty")
    blocks = [f"{normalize_statement(ex.question)}? {ex.explanation} So the answer is "
              f"{label_word(ex.answer)}." for ex in prompts.examples]
    blocks.append(f"{normalize_statement(question)}? {explanation.strip()} So the answer is")
    return "\n\n".join(blocks)


def _outcome(render, *args):
    """What a renderer returns, or the class and message of what it raises."""
    try:
        return render(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# short sentences; some normalize to nothing ("?", ". ?"), which must raise
SENTENCES = st.text(st.sampled_from("ab ?.\n\té"), min_size=1, max_size=6)
LINES = SENTENCES.filter(str.strip)


@st.composite
def prompt_sets(draw) -> PromptSet:
    mode = draw(st.sampled_from(list(PromptMode)))
    explanations = st.none() if mode is PromptMode.QA_PAIRS else LINES
    return PromptSet(mode, tuple(draw(st.lists(
        st.builds(PromptExample, LINES, st.booleans(), explanations), min_size=1, max_size=4))))


@PROPERTY
@given(prompts=prompt_sets(), text=SENTENCES, label=st.booleans(), explanation=SENTENCES)
def test_every_renderer_equals_the_join_of_its_blocks(prompts, text, label, explanation):
    twin = PromptSet(prompts.mode, [dataclasses.replace(ex) for ex in prompts.examples])
    assert twin == prompts and twin is not prompts
    for render, joined, args in (
            (render_truth_prompt, joined_truth_prompt, (text,)),
            (render_abductive_prompt, joined_abductive_prompt, (text, label)),
            (render_explanation_prompt, joined_explanation_prompt, (text,)),
            (render_explained_answer_prompt, joined_explained_answer_prompt,
             (text, explanation))):
        want = _outcome(joined, *args, prompts)
        # the first render, one from the kept prefix, and an equal set's own
        for rendered in (prompts, prompts, twin):
            assert _outcome(render, *args, rendered) == want


# --- readers of outside input ---

# the pieces a reply is made of; stray bytes go between them
REPLY_PARTS = st.sampled_from([
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 429 Slow down\r\n", b"HTTP/1.1 204 No Content\r\n",
    b"Content-Length: ", b"Transfer-Encoding: chunked\r\n", b"Connection: keep-alive\r\n",
    b"Retry-After: 1\r\n", b"\r\n", b"0", b"2", b"FFFFFFFFFFFFFF", b";ext", b"{}"])


@PROPERTY
@given(stream=st.lists(st.one_of(REPLY_PARTS, st.binary(max_size=6)), max_size=12)
       .map(b"".join))
@example(stream=b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}")
def test_the_reply_reader_returns_a_reply_or_raises_an_os_error(stream):
    connection = _Connection.__new__(_Connection)  # over the stream, with no socket
    connection.sock = types.SimpleNamespace(settimeout=lambda timeout: None)
    connection._reader = io.BufferedReader(io.BytesIO(stream))
    try:
        status, retry_after, body, keep = connection.receive(1.0)
    except OSError:
        return
    assert type(status) is int and type(body) is bytes and type(keep) is bool


# any JSON value, from scalars to nested containers
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _break_one_value(draw, data, values):
    """``data`` with one key dropped, or one value anywhere in it, ``data``
    itself too, replaced by a draw from ``values``."""
    parent, key, value = None, None, data
    while isinstance(value, (dict, list)) and value and draw(st.booleans()):
        parent, key = value, draw(st.sampled_from(list(value) if isinstance(value, dict)
                                                  else range(len(value))))
        value = parent[key]
    if parent is None:
        return draw(values)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(values)
    return data


@st.composite
def broken_tree_dicts(draw):
    """A valid tree's dict with one key dropped, or one value anywhere in
    it replaced by any JSON value."""
    return _break_one_value(draw, json.loads(json.dumps(tree_to_dict(draw(trees())))), JSON)


@PROPERTY
@given(value=st.one_of(JSON, broken_tree_dicts()))
def test_the_tree_readers_return_a_tree_or_raise_a_documented_error(value):
    text = json.dumps(value)
    for read, source in ((tree_from_json, text),
                         (tree_from_dot, f"digraph t {{\n  // tree-json: {text}\n}}\n")):
        try:
            tree = read(source)
        except (ValueError, MaieuticError):
            continue
        assert tree_to_dict(tree_from_json(tree_to_json(tree))) == tree_to_dict(tree)


# the tokens a WCNF file is made of, a weight beyond the float range among them
WCNF_TOKENS = st.one_of(
    st.sampled_from(["p", "wcnf", "cnf", "c", "x", "1e3", "1" + "0" * 400, "70000"]),
    st.integers(-4, 12).map(str))
WCNF_LINES = st.one_of(
    st.sampled_from(["p wcnf 3 2 10", "p wcnf 2 1 1", "p wcnf 1" + "0" * 400 + " 0 1"]),
    st.lists(WCNF_TOKENS, max_size=6).map(" ".join))
SIDECARS = st.one_of(
    JSON, st.fixed_dictionaries({}, optional={
        "scale": st.one_of(st.integers(-2, 10 ** 400), st.booleans(), st.floats()),
        "variables": st.dictionaries(st.sampled_from(["1", "2", "x", "-1"]), JSON, max_size=3)
        | JSON,
        "origins": st.lists(st.sampled_from([o.value for o in ClauseOrigin]) | JSON,
                            max_size=3) | JSON}))


@PROPERTY
@given(lines=st.lists(st.one_of(WCNF_LINES.map(str.encode), st.binary(max_size=4)),
                      max_size=6),
       sidecar=st.none() | SIDECARS.map(lambda value: json.dumps(value).encode())
       | st.binary(max_size=6))
@example(lines=[b"p wcnf 1 1 10", b"1" + b"0" * 400 + b" 1 0"], sidecar=None)
@example(lines=[b"p wcnf 1 1 10", b"c \xff", b"1 1 0"], sidecar=None)
def test_import_wcnf_returns_a_clause_set_or_raises_a_parse_error(tmp_path_factory, lines,
                                                                   sidecar):
    path = tmp_path_factory.mktemp("wcnf") / "input.wcnf"
    path.write_bytes(b"\n".join(lines) + b"\n")
    if sidecar is not None:
        path.with_name("input.wcnf.map.json").write_bytes(sidecar)
    try:
        cnf = import_wcnf(path)
    except ParseError:
        return
    assert isinstance(cnf, WeightedCnf)



# the one truth request the fixture backend's property asks, whose digest
# some drawn tables hold
ASKED = "Ice floats on water"
ASKED_DIGEST = request_digest(truth_request(render_truth_prompt(ASKED, TRUTH_PROMPTS)))
HUGE = 10 ** 400  # an integer beyond the float range
FIXTURE_TABLES = st.dictionaries(
    st.sampled_from([ASKED_DIGEST, "0" * 64]),
    JSON | st.fixed_dictionaries({"true_prob": JSON | FLOATS, "false_prob": JSON | FLOATS}),
    max_size=2)


@PROPERTY
@given(blob=st.one_of(st.binary(max_size=8), JSON.map(json.dumps).map(str.encode),
                      FIXTURE_TABLES.map(json.dumps).map(str.encode)))
@example(blob=json.dumps({ASKED_DIGEST: {"true_prob": HUGE, "false_prob": 1e300}}).encode())
def test_the_fixture_backend_reads_a_table_or_raises_a_documented_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fixtures") / "lm.json"
    path.write_bytes(blob)
    try:
        backend = ScriptedBackend(path)
    except (ValueError, MaieuticError):
        return
    try:
        (truth,) = backend.true_probs([ASKED], TRUTH_PROMPTS)
    except MaieuticError:
        return
    assert 0.0 <= truth.true_prob <= 1.0 and truth.true_prob + truth.false_prob == 1.0


NLI_RECORDS = st.fixed_dictionaries(
    {"premise": st.sampled_from(["a", " "]) | JSON, "hypothesis": st.sampled_from(["b"]) | JSON},
    optional={"label": st.sampled_from([label.value for label in NliLabel]) | JSON,
              "probs": st.lists(JSON | FLOATS, max_size=4) | JSON})


@PROPERTY
@given(blob=st.one_of(st.binary(max_size=8), JSON.map(json.dumps).map(str.encode),
                      st.lists(NLI_RECORDS | JSON, max_size=3).map(json.dumps).map(str.encode)))
@example(blob=json.dumps([{"premise": "a", "hypothesis": "b", "label": "entail",
                           "probs": [HUGE, 0, 0]}]).encode())
def test_the_fixture_verifier_reads_records_or_raises_a_documented_error(tmp_path_factory,
                                                                         blob):
    path = tmp_path_factory.mktemp("fixtures") / "nli.json"
    path.write_bytes(blob)
    try:
        verifier = ScriptedNliVerifier(path)
    except (ValueError, MaieuticError):
        return
    for _ in range(2):  # a judgment parsed once, and then the one kept
        for premise, hypothesis in list(verifier._table):
            try:
                judgment = verifier.nli(premise, hypothesis)
            except (ValueError, MaieuticError):
                continue
            assert judgment.label in NliLabel


# the values a dataset row holds, and rows whose fields hold any of them
ROW_VALUES = JSON | st.sampled_from(["a?", " ", "yes", "r1"]) | st.integers()
ROWS = st.fixed_dictionaries({"label": st.booleans() | ROW_VALUES}, optional={
    name: ROW_VALUES for name in ("id", "question", "pair_id")})


@PROPERTY
@given(lines=st.lists(ROWS.map(json.dumps) | JSON.map(json.dumps) | TEXTS, max_size=4))
def test_load_dataset_returns_text_records_or_raises_a_documented_error(tmp_path_factory,
                                                                        lines):
    path = tmp_path_factory.mktemp("dataset") / "rows.jsonl"
    path.write_text("".join(line.replace("\n", " ") + "\n" for line in lines),
                    encoding="utf-8", errors="surrogatepass")
    try:
        records = load_dataset(path)
    except (ValueError, MaieuticError):
        return
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    for record, row in zip(records, rows, strict=True):
        # each value as the row holds it; an id that is an integer as its digits
        assert type(row["question"]) is str and record.question == row["question"]
        for name, value in (("id", record.id), ("pair_id", record.pair_id)):
            if row.get(name) is not None:
                assert type(row[name]) in (str, int) and value == str(row[name])


TRACE_RECORDS = st.fixed_dictionaries(
    {"digest": TEXTS, "purpose": st.sampled_from(["truth", "nli"]) | JSON,
     "latency_s": FLOATS, "cache_hit": st.booleans() | JSON})


@PROPERTY
@given(lines=st.lists(TRACE_RECORDS.map(json.dumps) | JSON.map(json.dumps) | TEXTS,
                      max_size=4))
def test_read_trace_returns_its_records_or_names_the_line_it_refuses(tmp_path_factory,
                                                                     lines):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text("".join(line.replace("\n", " ") + "\n" for line in lines),
                    encoding="utf-8", errors="surrogatepass")
    try:
        records = read_trace(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: line ")
        try:
            with open(path, encoding="utf-8") as handle:
                numbered = list(enumerate(handle, start=1))
        except UnicodeDecodeError:  # the line named is the first that is not UTF-8
            return
        # the first line that is not blank and not a JSON object is named
        for number, line in numbered:
            if line.strip():
                try:
                    is_object = type(json.loads(line)) is dict
                except ValueError:
                    is_object = False
                if not is_object:
                    assert str(exc).startswith(f"{path}: line {number}: not ")
                    return
        raise AssertionError(f"{exc} names no line that is refused")
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    # compared as text, where a NaN equals itself
    assert json.dumps(records) == json.dumps(rows)
    assert all(type(record) is dict for record in records)


# --- the command line, on mutated input files ---

# A run's files, each named relative to one directory: a config with
# scripted sections and a prompts table, and every file it and the
# commands read. The cache holds the responses of a standard answer, so
# a maieutic answer reads the LM fixtures too.
CLI_CONFIG = {
    "backend": {"kind": "scripted", "fixtures": "lm.json"},
    "verifier": {"kind": "scripted", "fixtures": "nli.json", "strict": False},
    "mode": "verifier", "tree": NARROW_CONFIG.to_dict(),
    "prompts": {"truth": "truth.json", "abductive": "abductive.json",
                "explanation": "explanation.json"},
    "seed": 0, "workers": 2}
CLI_PROMPTS = {"truth.json": TRUTH_PROMPTS, "abductive.json": ABDUCTIVE_PROMPTS,
               "explanation.json": EXPLANATION_PROMPTS}


@functools.cache
def _cli_seed_files() -> dict[str, bytes]:
    files = {
        "c.json": json.dumps(CLI_CONFIG),
        # every ordered pair judged, so that a strict verifier misses none
        "nli.json": json.dumps([{"premise": first, "hypothesis": second, "label": next(
            (r["label"] for r in WAR_NLI_RECORDS
             if (r["premise"], r["hypothesis"]) == (first, second)), "neutral")}
            for first in WAR_PROBS for second in WAR_PROBS if first != second]),
        **{name: json.dumps(prompt_set_to_dict(prompts)) for name, prompts in CLI_PROMPTS.items()},
        "d.jsonl": "".join(json.dumps({"id": f"w{label:d}", "question": WAR_QUESTION,
                                       "label": label}) + "\n" for label in (True, False)),
        "t.json": tree_to_json(fixed_tree()),
    }
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for file_name, text in files.items():
            (directory / file_name).write_text(text, encoding="utf-8")
        war_world(include_logprobs=True).builder.write(directory / "lm.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["infer", WAR_QUESTION, "--method", "standard", "--config",
                             str(directory / "c.json"), "--cache-dir", name]) == 0
        return {**{file_name: text.encode() for file_name, text in files.items()},
                "lm.json": (directory / "lm.json").read_bytes(),
                "cache/responses.jsonl": (directory / "responses.jsonl").read_bytes()}


# JSON values whose strings are relative names (of the run's files, among
# others) and words a run's files hold, so that no draw reads outside the
# run's directory
NAMES = st.text("abT.0_", max_size=4) | st.sampled_from([
    "", ".", "..", "c.json", "lm.json", "nli.json", "truth.json", "abductive.json",
    "d.jsonl", "kind", "http", "fixtures", "strict", "mode", "likelihood", "prompts", "truth",
    "tree", "decoding_schedule", "strategy", "nucleus", "sample_count", "examples", "answer",
    "qa_pairs", "question", "label", "key", "response", "root", "T.0", "entail"])
CLI_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=12)


@st.composite
def cli_mutations(draw) -> tuple[str, bytes]:
    """One of a run's files and new bytes for it: any bytes, or its JSON
    (one line of it, for a JSONL file) with one key dropped or one value
    anywhere replaced by a draw from ``CLI_JSON``."""
    seeds = _cli_seed_files()
    name = draw(st.sampled_from(sorted(seeds)))
    if draw(st.integers(0, 3)) == 0:
        return name, draw(st.binary(max_size=8))
    text = seeds[name].decode()
    lines = text.splitlines() if name.endswith(".jsonl") else [text]
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] = json.dumps(_break_one_value(draw, json.loads(lines[index]), CLI_JSON))
    return name, "".join(line + "\n" for line in lines).encode()


@settings(PROPERTY, max_examples=200)
@given(command=st.sampled_from(["infer", "standard", "eval", "wcnf", "tree"]),
       mutated=cli_mutations())
@example(command="infer",
         mutated=("c.json", json.dumps({**CLI_CONFIG, "prompts": {"truth": {}}}).encode()))
def test_the_cli_ends_in_an_exit_status_whatever_its_files_hold(tmp_path_factory, command,
                                                                 mutated):
    directory = tmp_path_factory.mktemp("cli")
    (directory / "cache").mkdir()
    for name, blob in {**_cli_seed_files(), mutated[0]: mutated[1]}.items():
        (directory / name).write_bytes(blob)
    at = {name: str(directory / name) for name in ("c.json", "lm.json", "nli.json", "d.jsonl",
                                                   "t.json", "cache", "out")}
    # the fixture, cache and trace flags override what a drawn config names
    engine = ["--config", at["c.json"], "--backend", at["lm.json"], "--nli", at["nli.json"],
              "--cache-dir", at["cache"], "--trace", str(directory / "trace.jsonl")]
    argv = {"infer": ["infer", WAR_QUESTION, "--explain", "json", *engine],
            "standard": ["infer", WAR_QUESTION, "--method", "standard", *engine],
            "eval": ["eval", at["d.jsonl"], "--results", at["out"], *engine],
            "wcnf": ["wcnf", WAR_QUESTION, "--out", at["out"], *engine],
            "tree": ["tree", at["t.json"], "--out", at["out"]]}[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 1, 2)
