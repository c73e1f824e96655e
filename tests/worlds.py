"""Scripted-backend scenario builders shared by the test modules.

A ``ScenarioWorld`` collects fixture entries declaratively (statements
with truth probabilities, per-node child completions, per-edge
log-likelihoods) and hands back a ``ScriptedBackend`` keyed exactly the
way the engine will query it. ``random_world`` grows a reproducible
random scenario from a seed; the golden-scenario builders pin down one
fixed tree used by the compiler and end-to-end tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from maieutic.backend import FixtureBuilder, ScriptedBackend
from maieutic.core import (
    ClauseOrigin,
    DecodingParams,
    DecodingStrategy,
    Edge,
    Integrity,
    MaieuticTree,
    PromptMode,
    Proposition,
    TreeConfig,
    WeightedClause,
    WeightedCnf,
)
from maieutic.prompts import default_prompt_set, normalize_statement, prefix_negation

TRUTH_PROMPTS = default_prompt_set(PromptMode.QA_PAIRS)
ABDUCTIVE_PROMPTS = default_prompt_set(PromptMode.ABDUCTIVE_TRIPLES)
EXPLANATION_PROMPTS = default_prompt_set(PromptMode.QA_EXPLANATION_TRIPLES)

GREEDY = DecodingParams(DecodingStrategy.GREEDY)

NARROW_CONFIG = TreeConfig(depth_limit=2, decoding_schedule=(GREEDY, GREEDY))


@dataclass
class ScenarioWorld:
    """Declarative fixture table for one scripted scenario."""

    config: TreeConfig = field(default_factory=TreeConfig)
    builder: FixtureBuilder = field(default_factory=FixtureBuilder)
    probs: dict = field(default_factory=dict)

    def statement(self, text: str, true_prob: float, neg_true_prob: float) -> str:
        """Register truth fixtures for a statement and its prefix negation."""
        if text in self.probs:
            return text
        self.probs[text] = (true_prob, neg_true_prob)
        self.builder.truth(text, TRUTH_PROMPTS, true_prob, 1.0 - true_prob)
        self.builder.truth(prefix_negation(text), TRUTH_PROMPTS,
                           neg_true_prob, 1.0 - neg_true_prob)
        return text

    def children(self, parent_text: str, depth: int,
                 for_true: list, for_false: list) -> None:
        decoding = self.config.decoding_for(depth)
        self.builder.abductive(parent_text, True, ABDUCTIVE_PROMPTS,
                               decoding, list(for_true))
        self.builder.abductive(parent_text, False, ABDUCTIVE_PROMPTS,
                               decoding, list(for_false))

    def edge_logprob(self, parent_text: str, child_text: str,
                     under_true: float, under_false: float) -> None:
        self.builder.logprob(child_text, parent_text, True, ABDUCTIVE_PROMPTS,
                             under_true)
        self.builder.logprob(child_text, parent_text, False, ABDUCTIVE_PROMPTS,
                             under_false)

    def is_integral(self, text: str) -> bool:
        true_prob, neg_true_prob = self.probs[text]
        if true_prob == 0.5 or neg_true_prob == 0.5:
            return False
        return (true_prob > 0.5) != (neg_true_prob > 0.5)

    def backend(self) -> ScriptedBackend:
        return self.builder.backend()


def random_world(seed: int, question: str | None = None,
                 config: TreeConfig | None = None) -> tuple[ScenarioWorld, str]:
    """Grow a reproducible scenario; returns (world, question).

    The generator mirrors the engine's expansion rule (the root always
    expands, deeper nodes only while not integral) and deliberately
    mixes in blank completions, parent echoes, duplicates and exact
    0.5 probabilities so the edge cases stay exercised.
    """
    rng = np.random.default_rng(seed)
    world = ScenarioWorld(config=config or TreeConfig())
    if question is None:
        question = f"Scenario {seed} claim {int(rng.integers(0, 1000))} holds?"
    root_text = normalize_statement(question)

    def draw_probs() -> tuple[float, float]:
        true_prob = 0.5 if rng.random() < 0.08 else round(
            float(rng.uniform(0.05, 0.95)), 3)
        neg_prob = 0.5 if rng.random() < 0.08 else round(
            float(rng.uniform(0.05, 0.95)), 3)
        return true_prob, neg_prob

    world.statement(root_text, *draw_probs())

    counter = 0

    def fresh_text() -> str:
        nonlocal counter
        counter += 1
        return f"Supporting fact {seed}.{counter} with detail {int(rng.integers(0, 99))}."

    def completions(parent_text: str, width: int) -> list:
        out = []
        for _ in range(width):
            roll = rng.random()
            if roll < 0.08:
                out.append("   ")
            elif roll < 0.16:
                out.append(parent_text)
            elif roll < 0.30 and out:
                out.append(out[0])
            else:
                out.append(fresh_text())
        return out

    frontier = [root_text]
    for depth in range(1, world.config.depth_limit + 1):
        next_frontier = []
        for parent_text in frontier:
            if parent_text != root_text and world.is_integral(parent_text):
                continue
            width = world.config.decoding_for(depth).sample_count
            by_label = (completions(parent_text, width),
                        completions(parent_text, width))
            world.children(parent_text, depth, by_label[0], by_label[1])
            for samples in by_label:
                kept = []
                for sample in samples:
                    text = sample.strip()
                    if not text or text == parent_text or text in kept:
                        continue
                    kept.append(text)
                    world.statement(text, *draw_probs())
                    world.edge_logprob(parent_text, text,
                                       float(rng.uniform(-30.0, -1.0)),
                                       float(rng.uniform(-30.0, -1.0)))
                    if text not in next_frontier and not world.is_integral(text):
                        next_frontier.append(text)
        frontier = next_frontier
    return world, question


# --- the fixed golden scenario ---
#
# Five nodes, one branch per label at both depths. The True-branch
# child is not integral and expands; everything else is an integral
# leaf. The weak depth-2 False leaf conflicts with the strong True
# leaf through the relation clauses, so the solver must falsify it.

WAR_QUESTION = "War cannot have a tie?"
WAR_ROOT = "War cannot have a tie"
WAR_E_T = "In a context of war, there's always a victor and a loser."
WAR_E_F = "Wars can end in a draw when both sides agree to stop fighting."
WAR_E_TT = "Every war in history has produced a winner and a loser."
WAR_E_TF = "A war with no winner is still called a war."

WAR_PROBS = {
    WAR_ROOT: (0.60, 0.45),
    WAR_E_T: (0.80, 0.75),
    WAR_E_TT: (0.90, 0.15),
    WAR_E_TF: (0.55, 0.45),
    WAR_E_F: (0.65, 0.40),
}

# per-edge completion log-likelihoods, keyed (parent, child):
# (under the True label, under the False label)
WAR_LOGPROBS = {
    (WAR_ROOT, WAR_E_T): (-12.0, -14.0),
    (WAR_ROOT, WAR_E_F): (-11.5, -9.0),
    (WAR_E_T, WAR_E_TT): (-7.0, -7.0),
    (WAR_E_T, WAR_E_TF): (-13.0, -20.0),
}

WAR_NLI_RECORDS = [
    {"premise": WAR_E_T, "hypothesis": WAR_ROOT, "label": "entail"},
    {"premise": WAR_E_TT, "hypothesis": WAR_ROOT, "label": "entail"},
    {"premise": WAR_E_TT, "hypothesis": WAR_E_T, "label": "entail"},
    {"premise": WAR_E_TT, "hypothesis": WAR_E_TF, "label": "contradict"},
    {"premise": WAR_E_TF, "hypothesis": WAR_E_TT, "label": "contradict"},
    {"premise": WAR_E_F, "hypothesis": WAR_ROOT, "label": "contradict"},
]


def war_world(include_logprobs: bool = False) -> ScenarioWorld:
    """Fixture world from which the engine grows the golden tree."""
    world = ScenarioWorld(config=NARROW_CONFIG)
    for text, (true_prob, neg_prob) in WAR_PROBS.items():
        world.statement(text, true_prob, neg_prob)
    world.children(WAR_ROOT, 1, [WAR_E_T], [WAR_E_F])
    world.children(WAR_E_T, 2, [WAR_E_TT], [WAR_E_TF])
    if include_logprobs:
        for (parent, child), (under_true, under_false) in WAR_LOGPROBS.items():
            world.edge_logprob(parent, child, under_true, under_false)
    return world


def _war_node(node_id: str, text: str, path_label: str,
              source_answer: bool | None, integrity: Integrity) -> Proposition:
    true_prob, neg_prob = WAR_PROBS[text]
    return Proposition(
        id=node_id,
        text=text,
        negated_text=prefix_negation(text),
        path_label=path_label,
        source_answer=source_answer,
        integrity=integrity,
        true_prob=true_prob,
        neg_true_prob=neg_prob,
    )


def ambiguous_world() -> ScenarioWorld:
    """Every statement and its negation lean the same way: nothing survives."""
    world = ScenarioWorld(config=NARROW_CONFIG)
    root = world.statement("Everything here is perfectly ambiguous", 0.6, 0.6)
    claims = [f"Ambiguity claim number {n}." for n in range(6)]
    world.children(root, 1, [claims[0]], [claims[1]])
    for text in claims[:2]:
        world.statement(text, 0.55, 0.55)
    world.children(claims[0], 2, [claims[2]], [claims[3]])
    world.children(claims[1], 2, [claims[4]], [claims[5]])
    for text in claims[2:]:
        world.statement(text, 0.5, 0.5)
    return world


# --- the scored dataset scenario ---
#
# Twelve records in six mutual pairs, answered by direct scoring with
# planted probabilities. Nine answers land on the gold label; pairs
# one (r02 wrong) and four (both wrong) are broken, so the hand counts
# are accuracy 9/12 and pairwise 4/6.

EVAL_ROWS = [
    ("r01", "A dozen contains twelve items?", True, "r02", 0.9),
    ("r02", "A dozen contains fifteen items?", False, "r01", 0.7),
    ("r03", "Ice floats on liquid water?", True, "r04", 0.85),
    ("r04", "Ice sinks in liquid water?", False, "r03", 0.2),
    ("r05", "Spiders have eight legs?", True, "r06", 0.95),
    ("r06", "Spiders have six legs?", False, "r05", 0.1),
    ("r07", "The Pacific is the largest ocean?", True, "r08", 0.4),
    ("r08", "The Atlantic is the largest ocean?", False, "r07", 0.6),
    ("r09", "Honey spoils quickly at room temperature?", False, "r10", 0.15),
    ("r10", "Honey keeps for years when sealed?", True, "r09", 0.8),
    ("r11", "Trains run on rails?", True, "r12", 0.99),
    ("r12", "Trains run on water?", False, "r11", 0.05),
]


def eval_backend() -> ScriptedBackend:
    """Scripted backend answering every dataset question by direct scoring."""
    builder = FixtureBuilder()
    for _, question, _, _, true_prob in EVAL_ROWS:
        builder.truth(question, TRUTH_PROMPTS, true_prob, 1.0 - true_prob)
    return builder.backend()


def random_cnf(rng: np.random.Generator, max_vars: int = 18,
               max_clauses: int = 60) -> WeightedCnf:
    """A random soft-clause instance with weights drawn uniformly from (0, 1]."""
    n_vars = int(rng.integers(1, max_vars + 1))
    n_clauses = int(rng.integers(1, max_clauses + 1))
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.integers(1, min(3, n_vars) + 1))
        chosen = sorted(int(v) for v in rng.choice(
            np.arange(1, n_vars + 1), size=size, replace=False))
        literals = tuple((var, bool(rng.integers(0, 2))) for var in chosen)
        weight = 1.0 - float(rng.uniform(0.0, 1.0))
        clauses.append(WeightedClause(literals=literals, weight=weight,
                                      origin=ClauseOrigin.EXTERNAL))
    variables = {var: f"n{var}" for var in range(1, n_vars + 1)}
    return WeightedCnf(variables=variables, clauses=clauses)


def fixed_tree() -> MaieuticTree:
    """The golden five-node tree built by hand, no backend involved."""
    nodes = {
        "root": _war_node("root", WAR_ROOT, "", None, Integrity.INTEGRAL_TRUE),
        "T.0": _war_node("T.0", WAR_E_T, "T", True, Integrity.NOT_INTEGRAL),
        "T.0.T.0": _war_node("T.0.T.0", WAR_E_TT, "TT", True,
                             Integrity.INTEGRAL_TRUE),
        "T.0.F.0": _war_node("T.0.F.0", WAR_E_TF, "TF", False,
                             Integrity.INTEGRAL_TRUE),
        "F.0": _war_node("F.0", WAR_E_F, "F", False, Integrity.INTEGRAL_TRUE),
    }
    children: dict[str, list[Edge]] = {
        "root": [(True, "T.0"), (False, "F.0")],
        "T.0": [(True, "T.0.T.0"), (False, "T.0.F.0")],
    }
    return MaieuticTree(nodes=nodes, children=children, config=NARROW_CONFIG)
