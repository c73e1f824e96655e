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
    DecodingParams,
    Edge,
    Integrity,
    MaieuticTree,
    PromptMode,
    PromptSet,
    Proposition,
    TreeConfig,
    child_id,
    tree_nodes,
)
from .prompts import normalize_statement

# The answers to a statement and to its negation, by integrity. Any other
# pattern (agreement, or an exact tie on either query, which commits to
# no answer) is NOT_INTEGRAL.
_INTEGRITY = {(True, False): Integrity.INTEGRAL_TRUE,
              (False, True): Integrity.INTEGRAL_FALSE}


def _abductions(questions: list[str], decoding: DecodingParams,
                backend: backend_ops.LmBackend,
                prompts: PromptSet) -> list[tuple[list[str], list[str]]]:
    """Deduplicated explanations for both labels of each question, as one
    batch; a label whose samples were all blank gets an empty list."""
    samples = backend.abductive_samples(
        [(question, label) for question in questions for label in (True, False)],
        prompts, decoding)
    unique = [list(dict.fromkeys(texts)) for texts in samples]
    return list(zip(unique[0::2], unique[1::2]))


@dataclass(frozen=True)
class _Pending:
    """A node whose text is known and whose integrity is still to be checked."""

    id: str
    text: str
    path_label: str
    source_answer: Optional[bool]


def _checked_propositions(pending: list[_Pending], config: TreeConfig,
                          backend: backend_ops.LmBackend,
                          truth_prompts: PromptSet) -> list[Proposition]:
    """Negate every pending node, then score each statement and its
    negation; each step is one batch.

    A statement is integral when the model commits to opposite answers
    for it and its negation (see ``_INTEGRITY``); the belief ratio is
    later derived from the same two probabilities.
    """
    if not pending:
        return []
    texts = [node.text for node in pending]
    negations = backend_ops.negate_all(texts, config.negation_strategy, backend)
    responses = backend.true_probs(
        [text for pair in zip(texts, negations) for text in pair], truth_prompts)
    propositions = []
    for index, (node, negated) in enumerate(zip(pending, negations)):
        direct, opposite = responses[2 * index], responses[2 * index + 1]
        propositions.append(Proposition(
            id=node.id,
            text=node.text,
            negated_text=negated,
            path_label=node.path_label,
            source_answer=node.source_answer,
            integrity=_INTEGRITY.get((direct.argmax(), opposite.argmax()),
                                     Integrity.NOT_INTEGRAL),
            true_prob=direct.true_prob,
            neg_true_prob=opposite.true_prob,
            direct_answer=direct.argmax(),
        ))
    return propositions


def build_tree(question: str, config: TreeConfig, backend: backend_ops.LmBackend,
               truth_prompts: PromptSet, abductive_prompts: PromptSet) -> MaieuticTree:
    """Breadth-first tree growth with the integral stopping rule.

    The root is always expanded, whatever its own integrity, since the
    question is the inference target rather than evidence. Deeper
    nodes expand only while not integral. Children equal to their
    parent's text are discarded as degenerate echoes.

    Each depth is grown in dependent rounds, each one batch of
    requests: the abductions of every expanding parent, then (with
    ``lm_generated`` negation) the children's negations, then the truth
    checks of every child and its negation. Since the root expands
    whatever its integrity, nothing waits for its check: it goes first
    in the negation and truth rounds of depth 1, after the depth-1
    abductions, whose failure is therefore raised first. At the default
    depth of 2 a tree takes 4 rounds (6 with ``lm_generated`` negation).
    """
    # the truth renderer checks this too, but only after the depth-1
    # abductions went out: checked here, a wrong set costs no request
    if truth_prompts.mode is not PromptMode.QA_PAIRS:
        raise ValueError("integrity checking requires qa_pairs prompts")
    root = _Pending(ROOT_ID, normalize_statement(question), "", None)
    nodes: dict[str, Proposition] = {}
    children: dict[str, list[Edge]] = {}
    parents = [root]
    for depth in range(1, config.depth_limit + 1):
        explained = _abductions([parent.text for parent in parents],
                                config.decoding_for(depth), backend, abductive_prompts)
        pending: list[_Pending] = []
        for parent, by_label in zip(parents, explained):
            for label, texts in zip((True, False), by_label):
                kept = [text for text in texts if text != parent.text]
                for index, text in enumerate(kept):
                    node_id = child_id(parent.id, label, index)
                    path = parent.path_label + ("T" if label else "F")
                    pending.append(_Pending(node_id, text, path, label))
                    children.setdefault(parent.id, []).append((label, node_id))
        checked = [root, *pending] if depth == 1 else pending
        for proposition in _checked_propositions(checked, config, backend, truth_prompts):
            nodes[proposition.id] = proposition
        parents = [node for node in pending if not nodes[node.id].integrity.is_integral]
    return MaieuticTree(nodes=nodes, children=children, config=config)


def prune(tree: MaieuticTree) -> MaieuticTree:
    """The unique maximal subtree in which every non-root leaf is integral.

    A node stays exactly when it is the root, is integral or keeps a
    child, so a node with an integral descendant is never removed. One
    walk in reverse pre-order decides each node after its children,
    without recursion, since a tree read from a file may be deeper than
    Python's recursion limit. Each tree is checked once, when it is built:
    the input was, and the subtree is checked as it is made.
    """
    kept: set[str] = set()
    for node in reversed(tree_nodes(tree)):
        if (node.id == tree.root_id or node.integrity.is_integral
                or any(cid in kept for _, cid in tree.children_of(node.id))):
            kept.add(node.id)
    children = {parent: edges for parent, all_edges in tree.children.items()
                if (edges := [edge for edge in all_edges if edge[1] in kept])}
    return MaieuticTree(nodes={key: node for key, node in tree.nodes.items() if key in kept},
                        children=children, config=tree.config, root_id=tree.root_id)
