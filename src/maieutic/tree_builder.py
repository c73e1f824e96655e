"""Growing and pruning the explanation tree.

Each node is a proposition answerable with True or False. Children are
generated abductively: the model is asked to justify each answer label
of the parent, and every generated child is immediately scored for
logical integrity (whether the model answers the child and its
negation oppositely). Integral nodes stop their branch; everything
else keeps expanding until the depth limit. Pruning then discards the
branches that never reached an integral proposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import backend as backend_ops
from .core import (
    ROOT_ID,
    Edge,
    Integrity,
    MaieuticTree,
    PromptMode,
    PromptSet,
    Proposition,
    TreeConfig,
    child_id,
)
from .errors import ArgmaxTie, EmptyGeneration
from .prompts import normalize_statement


@dataclass(frozen=True)
class IntegrityCheck:
    """Outcome of the two truth queries behind the integrity test."""

    integrity: Integrity
    true_prob: float
    neg_true_prob: float


def _committed_answer(response: backend_ops.TruthResponse) -> Optional[bool]:
    try:
        return response.argmax()
    except ArgmaxTie:
        return None


def check_integrity(statement: str, negated: str, backend: backend_ops.LmBackend,
                    prompts: PromptSet) -> IntegrityCheck:
    """Score a statement and its negation; classify the answer pattern.

    The statement is integral when the model commits to opposite
    answers for the pair: True/False yields ``INTEGRAL_TRUE``,
    False/True yields ``INTEGRAL_FALSE``. Agreement on both, or an
    exact tie on either query, is ``NOT_INTEGRAL`` (a tie expresses no
    preference, so it cannot witness a committed answer). The belief
    ratio is later derived from the same two probabilities.
    """
    direct = backend.true_prob(statement, prompts)
    negated_response = backend.true_prob(negated, prompts)
    answers = (_committed_answer(direct), _committed_answer(negated_response))
    if answers == (True, False):
        integrity = Integrity.INTEGRAL_TRUE
    elif answers == (False, True):
        integrity = Integrity.INTEGRAL_FALSE
    else:
        integrity = Integrity.NOT_INTEGRAL
    return IntegrityCheck(integrity=integrity, true_prob=direct.true_prob,
                          neg_true_prob=negated_response.true_prob)


def abduction(question: str, config: TreeConfig, depth: int,
              backend: backend_ops.LmBackend,
              prompts: PromptSet) -> tuple[list[str], list[str]]:
    """Sample explanations for both answer labels at the given depth.

    Returns deduplicated explanation lists for the True and the False
    label. A label whose samples are all empty contributes an empty
    list rather than failing the build; the other branch proceeds.
    """
    decoding = config.decoding_for(depth)
    results: list[list[str]] = []
    for label in (True, False):
        try:
            samples = backend.sample_abductive(question, label, prompts, decoding)
        except EmptyGeneration:
            samples = []
        unique: list[str] = []
        for text in samples:
            if text not in unique:
                unique.append(text)
        results.append(unique)
    return results[0], results[1]


def _checked_proposition(node_id: str, text: str, path_label: str,
                         source_answer: Optional[bool], config: TreeConfig,
                         backend: backend_ops.LmBackend,
                         truth_prompts: PromptSet) -> Proposition:
    negated = backend_ops.negate(text, config.negation_strategy, backend)
    check = check_integrity(text, negated, backend, truth_prompts)
    return Proposition(
        id=node_id,
        text=text,
        negated_text=negated,
        path_label=path_label,
        source_answer=source_answer,
        integrity=check.integrity,
        true_prob=check.true_prob,
        neg_true_prob=check.neg_true_prob,
    )


def build_tree(question: str, config: TreeConfig, backend: backend_ops.LmBackend,
               truth_prompts: PromptSet, abductive_prompts: PromptSet) -> MaieuticTree:
    """Breadth-first tree growth with the integral stopping rule.

    The root is always expanded, whatever its own integrity, since the
    question is the inference target rather than evidence. Deeper
    nodes expand only while not integral. Children equal to their
    parent's text are discarded as degenerate echoes.
    """
    if truth_prompts.mode is not PromptMode.QA_PAIRS:
        raise ValueError("integrity checking requires qa_pairs prompts")
    if abductive_prompts.mode is not PromptMode.ABDUCTIVE_TRIPLES:
        raise ValueError("tree growth requires abductive_triples prompts")
    root_text = normalize_statement(question)
    nodes: dict[str, Proposition] = {
        ROOT_ID: _checked_proposition(ROOT_ID, root_text, "", None, config,
                                      backend, truth_prompts)
    }
    children: dict[str, list[Edge]] = {}
    frontier = [ROOT_ID]
    for depth in range(1, config.depth_limit + 1):
        next_frontier: list[str] = []
        for parent_id in frontier:
            parent = nodes[parent_id]
            if parent_id != ROOT_ID and parent.integrity.is_integral:
                continue
            for_true, for_false = abduction(parent.text, config, depth,
                                            backend, abductive_prompts)
            for label, texts in ((True, for_true), (False, for_false)):
                index = 0
                for text in texts:
                    if text == parent.text:
                        continue
                    node_id = child_id(parent_id, label, index)
                    path = parent.path_label + ("T" if label else "F")
                    nodes[node_id] = _checked_proposition(
                        node_id, text, path, label, config, backend, truth_prompts)
                    children.setdefault(parent_id, []).append((label, node_id))
                    next_frontier.append(node_id)
                    index += 1
        frontier = next_frontier
    tree = MaieuticTree(nodes=nodes, children=children, config=config)
    tree.validate()
    return tree


def prune(tree: MaieuticTree) -> MaieuticTree:
    """Drop non-integral leaves until none remain; the root always stays.

    Removing a leaf can expose its parent as the next non-integral
    leaf, so removal cascades. The result is the unique maximal subtree
    in which every non-root leaf is integral; a node with an integral
    descendant is therefore never removed.
    """
    nodes = dict(tree.nodes)
    children = {parent: list(edges) for parent, edges in tree.children.items() if edges}
    parents = {cid: parent for parent, edges in children.items() for _, cid in edges}
    changed = True
    while changed:
        changed = False
        for node_id in list(nodes):
            if node_id == tree.root_id or children.get(node_id):
                continue
            if nodes[node_id].integrity.is_integral:
                continue
            del nodes[node_id]
            parent_id = parents.pop(node_id)
            remaining = [(label, cid) for label, cid in children[parent_id]
                         if cid != node_id]
            if remaining:
                children[parent_id] = remaining
            else:
                del children[parent_id]
            changed = True
    pruned = MaieuticTree(nodes=nodes, children=children, config=tree.config,
                          root_id=tree.root_id)
    pruned.validate()
    return pruned
