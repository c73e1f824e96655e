"""Turning a pruned tree into a weighted clause set.

Every node owns one boolean variable (pre-order numbering, root
first). Integral leaves contribute unary belief clauses whose polarity
follows the integrity direction and whose weight is the magnitude of
the belief ratio. Edges contribute implication clauses: a child
generated for the True label implies its parent, one generated for the
False label implies the parent's negation, weighted by how much more
likely the child was under its own label than under the opposite one.
In verifier mode those edge clauses are replaced by clauses derived
from a natural-language-inference model over all node pairs.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Optional

from . import backend as backend_ops
from .core import (
    ClauseOrigin,
    Integrity,
    MaieuticTree,
    PromptSet,
    Proposition,
    WeightedClause,
    WeightedCnf,
    belief_from_probs,  # re-exported: callers import it from here
    variable_map,
)
from .errors import EmptyTree

if TYPE_CHECKING:
    from .verifier import NliVerifier

MIN_CLAUSE_WEIGHT = 1e-12


class CompileMode(str, Enum):
    """Where binary clauses come from: LM likelihoods or an NLI verifier."""

    LIKELIHOOD = "likelihood"
    VERIFIER = "verifier"


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    scaled = math.exp(x)
    return scaled / (1.0 + scaled)


def consistency_weight(child: Proposition, parent: Proposition, label: bool,
                       backend: backend_ops.LmBackend, prompts: PromptSet) -> float:
    """Relative likelihood of the child explanation under its own label.

    Equals p(E | parent, label) / (p(E | parent, label) + p(E | parent,
    other label)) but is computed in log space as a sigmoid of the
    log-likelihood difference, so long explanations cannot underflow.
    Swapping the label yields the complement.
    """
    own, other = backend.sequence_logprobs(_edge_queries(child, parent, label), prompts)
    return _sigmoid(own - other)


def _edge_queries(child: Proposition, parent: Proposition,
                  label: bool) -> list[tuple[str, str, bool]]:
    """The child explanation under its own label, then under the other one."""
    return [(child.text, parent.text, label), (child.text, parent.text, not label)]


def _sorted_literals(*literals: tuple[int, bool]) -> tuple[tuple[int, bool], ...]:
    return tuple(sorted(literals))


def compile_belief_clauses(tree: MaieuticTree,
                           variables: Mapping[int, str]) -> list[WeightedClause]:
    """One unary clause per integral non-root leaf, in the order of
    ``variables``, the tree's :func:`~maieutic.core.variable_map`.

    The literal is positive for an integral-true leaf and negative for
    an integral-false one; the weight is the belief magnitude. Clauses
    below ``MIN_CLAUSE_WEIGHT`` are dropped as noise. The root never
    receives a belief clause, even when it is a leaf.
    """
    clauses: list[WeightedClause] = []
    for var, node_id in variables.items():
        if node_id == tree.root_id or tree.children_of(node_id):
            continue
        leaf = tree.nodes[node_id]
        if not leaf.integrity.is_integral:
            raise ValueError(f"leaf {leaf.id!r} is not integral; prune the tree first")
        weight = abs(leaf.belief)
        if weight < MIN_CLAUSE_WEIGHT:
            continue
        polarity = leaf.integrity is Integrity.INTEGRAL_TRUE
        clauses.append(WeightedClause(literals=((var, polarity),),
                                      weight=weight, origin=ClauseOrigin.BELIEF))
    return clauses


def compile_consistency_clauses(tree: MaieuticTree, variables: Mapping[int, str],
                                backend: backend_ops.LmBackend,
                                prompts: PromptSet) -> list[WeightedClause]:
    """One implication clause per edge, parents in the order of
    ``variables``, the tree's :func:`~maieutic.core.variable_map`.

    A True-labeled edge compiles child implies parent, a False-labeled
    edge compiles child implies not-parent; in clause form the child
    literal is negative and the parent literal carries the label. The
    log-likelihoods of every edge are asked as one batch.
    """
    var_of = {node_id: var for var, node_id in variables.items()}
    edges = [(parent_id, label, child_id) for parent_id in variables.values()
             for label, child_id in tree.children_of(parent_id)]
    logprobs = backend.sequence_logprobs(
        [query for parent_id, label, child_id in edges
         for query in _edge_queries(tree.node(child_id), tree.node(parent_id), label)],
        prompts)
    clauses: list[WeightedClause] = []
    for index, (parent_id, label, child_id) in enumerate(edges):
        weight = _sigmoid(logprobs[2 * index] - logprobs[2 * index + 1])
        if weight < MIN_CLAUSE_WEIGHT:
            continue
        literals = _sorted_literals((var_of[child_id], False), (var_of[parent_id], label))
        clauses.append(WeightedClause(literals=literals, weight=weight,
                                      origin=ClauseOrigin.CONSISTENCY))
    return clauses


def compile(tree: MaieuticTree, mode: CompileMode,
            backend: Optional[backend_ops.LmBackend] = None,
            verifier: Optional["NliVerifier"] = None,
            prompts: Optional[PromptSet] = None) -> WeightedCnf:
    """Full clause set for a pruned tree.

    The tree is numbered once (:func:`~maieutic.core.variable_map`), and
    every clause builder reads that numbering. Likelihood mode needs the
    backend and the abductive prompt set for the edge clauses; verifier
    mode needs the NLI verifier. A root-only tree raises ``EmptyTree`` so
    the caller can fall back to direct prompting.
    """
    if tree.is_root_only():
        raise EmptyTree("nothing left to compile; answer by direct prompting")
    variables = variable_map(tree)
    clauses = compile_belief_clauses(tree, variables)
    if mode is CompileMode.LIKELIHOOD:
        if backend is None or prompts is None:
            raise ValueError("likelihood mode needs a backend and abductive prompts")
        clauses.extend(compile_consistency_clauses(tree, variables, backend, prompts))
    else:
        if verifier is None:
            raise ValueError("verifier mode needs an NLI verifier")
        from .verifier import relation_clauses

        clauses.extend(relation_clauses(tree, variables, verifier))
    return WeightedCnf(variables=variables, clauses=clauses)


def cnf_to_dict(cnf: WeightedCnf) -> dict:
    """Clause dump with literals spelled as node ids; feeds the explain view."""
    return {
        "variables": {str(var): node_id for var, node_id in sorted(cnf.variables.items())},
        "clauses": [
            {
                "literals": [
                    {"node": cnf.variables[var], "positive": polarity}
                    for var, polarity in clause.literals
                ],
                "weight": clause.weight,
                "origin": clause.origin.value,
            }
            for clause in cnf.clauses
        ],
    }
