"""Seeded inputs for the benchmark workloads.

A question is described twice: as plain data (texts, truth
probabilities, raw completions, edge log-likelihoods, NLI labels) that
the independent reference reads, and as fixture tables written through
the program's public ``FixtureBuilder`` that the scripted backend and
the loopback service answer from.

Structure and values come from different generators. The structure of
every question slot (tree shape, which samples are blank, echoed or
duplicated, which nodes are integral or tied) is drawn once from the
fixed ``SHAPE_SEED``, so every workload seed asks for exactly the same
number of requests and keeps exactly the same number of nodes. The
workload seed draws the texts, the probabilities within each integrity
class, the log-likelihoods and the question order. Which node pairs
carry which NLI label is structure too, since it sets the solver's
work; so are all values of the dense trees.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

SHAPE_SEED = 2205_11822
WIDTHS = (3, 1)

# Integrity classes of a statement: (true prob of the statement, true
# prob of its prefix negation) must land on these sides of one half.
INT_TRUE, INT_FALSE, AGREE, TIE = "int_true", "int_false", "agree", "tie"

# Make-up of the random-world workloads, per drawn item: the share of
# blank, echoed and duplicate samples mirrors the repository's
# randomized test scenarios.
SAMPLE_MIX = (("blank", 0.08), ("echo", 0.08), ("dup", 0.14))
CLASS_MIX = ((TIE, 0.15), (INT_TRUE, 0.21), (INT_FALSE, 0.21), (AGREE, 0.43))
# The sparse make-up (remote verifier) keeps fewer and mostly integral
# depth-1 nodes, so a kept tree averages under five nodes and a
# question's n(n-1) NLI round trips fit a run at the service delay.
SPARSE_SAMPLE_MIX = (("blank", 0.20), ("echo", 0.10), ("dup", 0.30))
SPARSE_CLASS_MIX = ((TIE, 0.08), (INT_TRUE, 0.36), (INT_FALSE, 0.36), (AGREE, 0.20))


def _pick(rng: random.Random, mix) -> str:
    roll = rng.random()
    for name, share in mix:
        if roll < share:
            return name
        roll -= share
    return "fresh"


def _shape_random(rng: random.Random, sample_mix, class_mix) -> dict:
    """Random-world shape: samples per label at depth 1, one at depth 2."""
    def samples(width: int, depth: int) -> list:
        out = []
        for index in range(width):
            kind = _pick(rng, sample_mix)
            if kind == "dup" and index == 0:
                kind = "fresh"
            if kind == "fresh":
                cls = _pick(rng, class_mix)
                cls = AGREE if cls == "fresh" else cls
                child = {"kind": "fresh", "cls": cls}
                if depth < len(WIDTHS) and cls in (AGREE, TIE):
                    child["children"] = {label: samples(WIDTHS[depth], depth + 1)
                                         for label in (True, False)}
                out.append(child)
            else:
                out.append({"kind": kind})
        return out

    root_cls = _pick(rng, CLASS_MIX)
    return {"cls": AGREE if root_cls == "fresh" else root_cls,
            "children": {label: samples(WIDTHS[0], 1) for label in (True, False)}}


def _shape_dense(rng: random.Random) -> dict:
    """Full 19-node tree: six non-integral depth-1 nodes, twelve integral leaves."""
    def leaf() -> dict:
        return {"kind": "fresh", "cls": rng.choice((INT_TRUE, INT_FALSE))}

    def middle() -> dict:
        return {"kind": "fresh", "cls": rng.choice((AGREE, AGREE, TIE)),
                "children": {True: [leaf()], False: [leaf()]}}

    return {"cls": rng.choice((INT_TRUE, INT_FALSE, AGREE, TIE)),
            "children": {label: [middle() for _ in range(WIDTHS[0])]
                         for label in (True, False)}}


def _shape_fallback(rng: random.Random) -> dict:
    """No integral node below the root: pruning leaves the root alone."""
    def middle() -> dict:
        grandchild = rng.choice(({"kind": "blank"}, {"kind": "fresh", "cls": AGREE},
                                 {"kind": "fresh", "cls": TIE}))
        return {"kind": "fresh", "cls": rng.choice((AGREE, TIE)),
                "children": {True: [grandchild], False: [{"kind": "blank"}]}}

    return {"cls": rng.choice((INT_TRUE, INT_FALSE, AGREE, TIE)),
            "children": {True: [middle(), {"kind": "blank"}, {"kind": "dup"}],
                         False: [middle(), {"kind": "echo"}, {"kind": "blank"}]}}


FALLBACK_EVERY = 25  # every 25th random-world slot answers by direct scoring


def shapes(kind: str, count: int) -> list[dict]:
    """The fixed structure catalogue; independent of the workload seed."""
    rng = random.Random(f"{SHAPE_SEED}:{kind}")
    out = []
    for slot in range(count):
        if kind == "dense":
            shape = _shape_dense(rng)
            shape["value_seed"] = rng.getrandbits(32)
        elif slot % FALLBACK_EVERY == FALLBACK_EVERY // 2:
            shape = _shape_fallback(rng)
        elif kind == "sparse":
            shape = _shape_random(rng, SPARSE_SAMPLE_MIX, SPARSE_CLASS_MIX)
        else:
            shape = _shape_random(rng, SAMPLE_MIX, CLASS_MIX)
        shape["nli_seed"] = rng.getrandbits(32)
        out.append(shape)
    return out


def _prob(rng: random.Random, above: bool) -> float:
    """Three decimals, far from one half, never a round repr."""
    while True:
        k = rng.randint(550, 950) if above else rng.randint(50, 450)
        if k % 10:
            return k / 1000


def _class_probs(rng: random.Random, cls: str) -> tuple[float, float]:
    if cls == INT_TRUE:
        return _prob(rng, True), _prob(rng, False)
    if cls == INT_FALSE:
        return _prob(rng, False), _prob(rng, True)
    if cls == AGREE:
        above = rng.random() < 0.5
        return _prob(rng, above), _prob(rng, above)
    other = _prob(rng, rng.random() < 0.5)
    return (0.5, other) if rng.random() < 0.5 else (other, 0.5)


def _logprob(rng: random.Random) -> float:
    while True:
        k = rng.randint(1001, 2999)
        if k % 10:
            return -k / 100


class Writer:
    """Turns shapes into plain scenarios, drawing every value from one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tag = f"{seed % 100000:05d}"
        self.counter = 0

    def _text(self, stem: str, end: str) -> str:
        self.counter += 1
        return f"{stem} {self.tag}-{self.counter:05d} case {self.rng.randint(100, 999)}{end}"

    def scenario(self, shape: dict, logprobs: bool, nli_density) -> dict:
        """Plain data for one question; ``nli_density`` is (entail, contradict) or None."""
        question = self._text("Question", " holds?")
        root = question[:-1]
        # dense trees take their values from the structure as well: their
        # time is the solver's, which the belief weights steer
        values = random.Random(shape["value_seed"]) if "value_seed" in shape else self.rng
        truth = {root: _class_probs(values, shape["cls"])}
        samples: list = []
        edges: list = []
        order = [root]

        def grow(parent: str, children: dict) -> None:
            for label in (True, False):
                texts = []
                pending = []
                for item in children[label]:
                    if item["kind"] == "blank":
                        texts.append("   ")
                    elif item["kind"] == "echo":
                        texts.append(parent)
                    elif item["kind"] == "dup":
                        texts.append(texts[0])
                    else:
                        text = self._text("Fact", ".")
                        texts.append(text)
                        truth[text] = _class_probs(values, item["cls"])
                        order.append(text)
                        if logprobs:
                            edges.append([parent, text, True, _logprob(values)])
                            edges.append([parent, text, False, _logprob(values)])
                        if "children" in item:
                            pending.append((text, item["children"]))
                samples.append([parent, label, texts])
                for text, grandchildren in pending:
                    grow(text, grandchildren)

        grow(root, shape["children"])
        nli = []
        if nli_density is not None:
            pairs = [(a, b) for a in order for b in order if a != b]
            # which node pairs carry a label is structure: it sets the solver's work
            pattern = random.Random(shape["nli_seed"])
            chosen = pattern.sample(pairs, round(sum(nli_density) * len(pairs)))
            entails = round(nli_density[0] * len(pairs))
            nli = [[a, b, "entail" if i < entails else "contradict"]
                   for i, (a, b) in enumerate(chosen)]
        return {"question": question,
                "truth": {text: [direct, round(1.0 - direct, 3), negated, round(1.0 - negated, 3)]
                          for text, (direct, negated) in truth.items()},
                "samples": samples, "logprobs": edges, "nli": nli}


def build(kind: str, count: int, seed: int, logprobs: bool, nli_density=None,
          warmup: int = 0) -> tuple[list[dict], list[dict]]:
    """(timed scenarios in seeded order, warm-up scenarios)."""
    writer = Writer(seed)
    catalogue = shapes(kind, count + warmup)
    timed = [writer.scenario(shape, logprobs, nli_density) for shape in catalogue[:count]]
    writer.rng.shuffle(timed)
    extra = [writer.scenario(shape, logprobs, nli_density) for shape in catalogue[count:]]
    return timed, extra


def write_fixtures(scenarios: list[dict], lm_path: Path, nli_path: Path | None) -> None:
    """LM fixtures through ``FixtureBuilder``; NLI records as a JSON list."""
    from maieutic.backend import FixtureBuilder
    from maieutic.core import PromptMode, TreeConfig
    from maieutic.prompts import default_prompt_set, prefix_negation

    truth_prompts = default_prompt_set(PromptMode.QA_PAIRS)
    abductive_prompts = default_prompt_set(PromptMode.ABDUCTIVE_TRIPLES)
    config = TreeConfig()
    builder = FixtureBuilder()
    for scenario in scenarios:
        for text, (true_prob, false_prob, neg_true, neg_false) in scenario["truth"].items():
            builder.truth(text, truth_prompts, true_prob, false_prob)
            builder.truth(prefix_negation(text), truth_prompts, neg_true, neg_false)
        depth_of = {scenario["question"][:-1]: 0}
        for parent, label, texts in scenario["samples"]:
            depth = depth_of[parent] + 1
            builder.abductive(parent, label, abductive_prompts,
                              config.decoding_for(depth), texts)
            for text in texts:
                depth_of.setdefault(text.strip(), depth)
        for parent, child, label, value in scenario["logprobs"]:
            builder.logprob(child, parent, label, abductive_prompts, value)
    builder.write(lm_path)
    if nli_path is not None:
        records = [{"premise": a, "hypothesis": b, "label": label}
                   for scenario in scenarios for a, b, label in scenario["nli"]]
        nli_path.write_text(json.dumps(records) + "\n", encoding="utf-8")
