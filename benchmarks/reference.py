"""Independent reference answers, derived from a scenario's plain data.

Nothing here imports the program. The method is re-derived from its
description: grow the tree breadth-first (the root always expands,
deeper nodes only while not integral), prune to integral leaves,
compile belief clauses plus either likelihood consistency clauses or
NLI implication clauses, and find the optimum by enumerating every
assignment. Ties within ``TIE_TOLERANCE`` of the optimum go to the
lexicographically smallest value vector, False before True, variables
in pre-order.
"""
from __future__ import annotations

import math

import numpy as np

TIE_TOLERANCE = 1e-9
WEIGHT_TOLERANCE = 1e-7
MIN_CLAUSE_WEIGHT = 1e-12
WIDTHS = (3, 1)


def normalize(text: str) -> str:
    text = text.strip()
    while text and text[-1] in "?.":
        text = text[:-1].rstrip()
    return text


def _normalized(true_prob: float, false_prob: float) -> tuple[float, float]:
    total = true_prob + false_prob
    return true_prob / total, false_prob / total


def integrity(truth: dict, text: str) -> tuple[str, float]:
    """(integrity, belief) from the stored truth probabilities of a text."""
    true_prob, false_prob, neg_true, neg_false = truth[text]
    p_true, p_false = _normalized(true_prob, false_prob)
    n_true, n_false = _normalized(neg_true, neg_false)
    belief = (p_true - n_true) / (p_true + n_true)
    if p_true == p_false or n_true == n_false:
        return "not_integral", belief
    if p_true > p_false and n_true < n_false:
        return "integral_true", belief
    if p_true < p_false and n_true > n_false:
        return "integral_false", belief
    return "not_integral", belief


def _child_id(parent_id: str, label: bool, index: int) -> str:
    stem = "" if parent_id == "root" else parent_id + "."
    return f"{stem}{'T' if label else 'F'}.{index}"


def grow(scenario: dict) -> tuple[dict, dict]:
    """Generated tree: ({id: node}, {id: [(label, child id)]})."""
    truth = scenario["truth"]
    samples = {(parent, label): texts for parent, label, texts in scenario["samples"]}
    root = normalize(scenario["question"])
    nodes = {"root": {"text": root, "integrity": integrity(truth, root)[0]}}
    children: dict[str, list] = {}
    frontier = ["root"]
    for depth, width in enumerate(WIDTHS, start=1):
        next_frontier = []
        for parent_id in frontier:
            parent = nodes[parent_id]
            if parent_id != "root" and parent["integrity"] != "not_integral":
                continue
            for label in (True, False):
                kept = [text.strip() for text in samples[(parent["text"], label)]
                        if text.strip()][:width]
                unique = []
                for text in kept:
                    if text not in unique:
                        unique.append(text)
                index = 0
                for text in unique:
                    if text == parent["text"]:
                        continue
                    node_id = _child_id(parent_id, label, index)
                    nodes[node_id] = {"text": text, "integrity": integrity(truth, text)[0]}
                    children.setdefault(parent_id, []).append((label, node_id))
                    next_frontier.append(node_id)
                    index += 1
        frontier = next_frontier
    return nodes, children


def prune(nodes: dict, children: dict) -> list[str]:
    """Kept node ids in pre-order: a node stays when its subtree holds an integral node."""
    def keeps(node_id: str) -> bool:
        return nodes[node_id]["integrity"] != "not_integral" or any(
            keeps(child) for _, child in children.get(node_id, []))

    order = []

    def visit(node_id: str) -> None:
        order.append(node_id)
        for _, child in children.get(node_id, []):
            if keeps(child):
                visit(child)

    visit("root")
    return order


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    scaled = math.exp(x)
    return scaled / (1.0 + scaled)


def clauses(scenario: dict, mode: str, nodes: dict, children: dict,
            kept: list[str]) -> list[tuple[tuple, float]]:
    """[(sorted literals as (variable, polarity), weight)] in compile order."""
    var = {node_id: position for position, node_id in enumerate(kept, start=1)}
    kept_set = set(kept)
    kept_children = {node_id: [(label, child) for label, child in children.get(node_id, [])
                               if child in kept_set] for node_id in kept}
    out = []
    for node_id in kept:
        if node_id == "root" or kept_children[node_id]:
            continue
        state, belief = integrity(scenario["truth"], nodes[node_id]["text"])
        if abs(belief) >= MIN_CLAUSE_WEIGHT:
            out.append((((var[node_id], state == "integral_true"),), abs(belief)))
    if mode == "likelihood":
        logprob = {(parent, child, label): value
                   for parent, child, label, value in scenario["logprobs"]}
        for parent_id in kept:
            parent = nodes[parent_id]["text"]
            for label, child_id in kept_children[parent_id]:
                child = nodes[child_id]["text"]
                weight = _sigmoid(logprob[(parent, child, label)]
                                  - logprob[(parent, child, not label)])
                if weight >= MIN_CLAUSE_WEIGHT:
                    literals = tuple(sorted(((var[child_id], False), (var[parent_id], label))))
                    out.append((literals, weight))
    else:
        labels = {(a, b): label for a, b, label in scenario["nli"]}
        seen = set()
        for first in kept:
            for second in kept:
                if first == second:
                    continue
                label = labels.get((nodes[first]["text"], nodes[second]["text"]), "neutral")
                if label == "neutral":
                    continue
                literals = tuple(sorted(((var[first], False),
                                         (var[second], label == "entail"))))
                if frozenset(literals) not in seen:
                    seen.add(frozenset(literals))
                    out.append((literals, 1.0))
    return out


def _bit_rows(count: int) -> np.ndarray:
    """Every assignment of ``count`` variables, first variable in the high bit."""
    index = np.arange(1 << count, dtype=np.int64)[:, None]
    shifts = np.arange(count - 1, -1, -1, dtype=np.int64)[None, :]
    return ((index >> shifts) & 1).astype(np.float64)


def optimum(clause_list: list, count: int) -> tuple[list[bool], float]:
    """Exhaustive optimum with the False-first lexicographic tie rule.

    Clauses of one or two literals make the satisfied weight a
    quadratic function of the 0/1 variables: total weight minus, per
    clause, its weight times the product of its literals' falsity.
    The function is evaluated at all 2**count points as a block sum
    over the first and the second half of the variables.
    """
    const = 0.0
    linear = np.zeros(count)
    quad = np.zeros((count, count))
    for literals, weight in clause_list:
        if len(literals) > 2:
            raise ValueError("the method compiles clauses of at most two literals")
        const += weight
        # falsity of a literal: 1 - x for a positive one, x for a negative one
        terms = [(1.0, -1.0) if polarity else (0.0, 1.0) for _, polarity in literals]
        index = [variable - 1 for variable, _ in literals]
        if len(literals) == 1:
            (c, s), = terms
            const -= weight * c
            linear[index[0]] -= weight * s
        else:
            (ca, sa), (cb, sb) = terms
            a, b = index
            const -= weight * ca * cb
            linear[b] -= weight * ca * sb
            linear[a] -= weight * sa * cb
            quad[min(a, b), max(a, b)] -= weight * sa * sb
    high = count // 2
    rows_h, rows_l = _bit_rows(high), _bit_rows(count - high)
    part_h = rows_h @ linear[:high] + np.einsum(
        "ri,ij,rj->r", rows_h, quad[:high, :high], rows_h)
    part_l = rows_l @ linear[high:] + np.einsum(
        "ri,ij,rj->r", rows_l, quad[high:, high:], rows_l)
    total = const + part_h[:, None] + part_l[None, :] + rows_h @ quad[:high, high:] @ rows_l.T
    best = float(total.max())
    first = int(np.argmax((total >= best - TIE_TOLERANCE).ravel()))
    values = [bool((first >> (count - 1 - position)) & 1) for position in range(count)]
    return values, best


def expected(scenario: dict, mode: str) -> dict:
    """Reference outcome: answer, fallback flag, kept nodes, clauses, assignment."""
    nodes, children = grow(scenario)
    kept = prune(nodes, children)
    if kept == ["root"]:
        p_true, p_false = _normalized(*scenario["truth"][nodes["root"]["text"]][:2])
        return {"answer": p_true > p_false, "fallback": True, "kept": kept,
                "generated": len(nodes), "clauses": [], "values": {}, "weight": None}
    clause_list = clauses(scenario, mode, nodes, children, kept)
    values, weight = optimum(clause_list, len(kept))
    return {"answer": values[0], "fallback": False, "kept": kept,
            "generated": len(nodes), "clauses": clause_list,
            "values": dict(zip(kept, values)), "weight": weight}
