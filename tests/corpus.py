"""The "no answer changed" corpus: seeded scripted worlds, and one SHA-256
per world for each artefact the engine writes about it.

Worlds are drawn from ``random.Random`` alone, whose stream Python keeps
stable across versions. They cover both compile modes, sparse and dense
NLI labels, ``lm_generated`` negation and the fallback to direct
scoring. The artefacts of a world are its result JSON, tree JSON, clause
dump, WCNF file with its sidecar, fixture table (with its prompt sidecar
and the NLI records), and the response-cache and call-trace lines, the
trace lines without ``latency_s``.

``tests/test_corpus.py`` recomputes every hash against
``tests/data/corpus.json``. A change meant to alter an answer rewrites
that file, and says why::

    PYTHONPATH=src python tests/corpus.py
"""
from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from maieutic.backend import CachedBackend, FixtureBuilder, ResponseCache, TraceRecorder
from maieutic.compiler import CompileMode, cnf_to_dict
from maieutic.core import (DecodingParams, DecodingStrategy, NegationStrategy, PromptMode,
                           TreeConfig, canonical_json, tree_to_json)
from maieutic.harness import Engine, infer_maieutic, result_to_json
from maieutic.prompts import default_prompt_set, normalize_statement, prefix_negation
from maieutic.solver import export_wcnf
from maieutic.verifier import CachedVerifier, ScriptedNliVerifier

CORPUS_PATH = Path(__file__).parent / "data" / "corpus.json"
WORLD_COUNT = 200
# the run seed of every world's cache: nucleus completions are cached under it
RUN_SEED = 11
ARTEFACTS = ("result", "tree", "clauses", "wcnf", "fixtures", "cache", "trace")

TRUTH_PROMPTS = default_prompt_set(PromptMode.QA_PAIRS)
ABDUCTIVE_PROMPTS = default_prompt_set(PromptMode.ABDUCTIVE_TRIPLES)

# A world's kind, by its seed modulo the length of this cycle: (mode, NLI
# labels, negation). Every world whose seed is 7 modulo 10 falls back.
KINDS = (("likelihood", None, "prefix"), ("verifier", "dense", "prefix"),
         ("verifier", "sparse", "prefix"), ("likelihood", None, "lm_generated"),
         ("verifier", "dense", "lm_generated"), ("verifier", "sparse", "lm_generated"))
FALLBACK_EVERY = 10
_LATENCY = re.compile(r'"latency_s": [^,]*, ')


@dataclass
class CorpusWorld:
    """One scripted question: its fixtures, its NLI records and its engine shape."""

    seed: int
    mode: CompileMode
    nli: str | None  # "dense", "sparse" or None in likelihood mode
    fallback: bool
    config: TreeConfig
    question: str = ""
    builder: FixtureBuilder = field(default_factory=FixtureBuilder)
    texts: list[str] = field(default_factory=list)
    nli_records: list[dict] = field(default_factory=list)

    @property
    def name(self) -> str:
        nli = f" {self.nli} NLI" if self.nli else ""
        return (f"world {self.seed} ({self.mode.value}{nli}, "
                f"{self.config.negation_strategy.value} negation"
                f"{', fallback' if self.fallback else ''})")

    def verifier(self) -> ScriptedNliVerifier | None:
        if self.mode is CompileMode.LIKELIHOOD:
            return None
        # dense worlds list every pair; sparse ones judge an unlisted pair neutral
        return ScriptedNliVerifier(self.nli_records, strict=self.nli == "dense")


def _probs(rng: random.Random, integral: bool | None) -> tuple[float, float]:
    """(true prob of a statement, true prob of its negation): integral when
    ``integral`` is true, never integral when it is false, drawn freely
    (an exact tie now and then) when it is ``None``."""
    def draw() -> float:
        return 0.5 if rng.random() < 0.08 else round(rng.uniform(0.05, 0.95), 3)

    if integral is None:
        return draw(), draw()
    high, low = round(rng.uniform(0.55, 0.95), 3), round(rng.uniform(0.05, 0.45), 3)
    if integral:
        return (high, low) if rng.random() < 0.5 else (low, high)
    return rng.choice(((high, high), (low, low), (0.5, high), (low, 0.5)))


def _label_record(rng: random.Random, premise: str, hypothesis: str, label: str) -> dict:
    record = {"premise": premise, "hypothesis": hypothesis, "label": label}
    if rng.random() < 0.5:  # probabilities stated, the label's first
        top = round(rng.uniform(0.55, 0.98), 3)
        second = round((1.0 - top) * rng.random(), 3)
        rest = [second, round(1.0 - top - second, 3)]
        probs = {name: rest.pop() for name in ("entail", "contradict", "neutral")
                 if name != label}
        probs[label] = top
        record["probs"] = [probs["entail"], probs["contradict"], probs["neutral"]]
    return record


def tree_config(negation: str, width: int) -> TreeConfig:
    """Depth 2: ``width`` samples per label at depth 1 (greedy when one,
    else nucleus), one greedy sample at depth 2."""
    first = (DecodingParams(DecodingStrategy.GREEDY) if width == 1 else
             DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=0.9, sample_count=width))
    return TreeConfig(depth_limit=2, negation_strategy=NegationStrategy(negation),
                      decoding_schedule=(first, DecodingParams(DecodingStrategy.GREEDY)))


def build_world(seed: int) -> CorpusWorld:
    """World ``seed``: grown as the engine will grow it, the root always
    expanding and deeper nodes only while not integral, with blank
    completions, parent echoes and duplicates mixed in."""
    rng = random.Random(f"maieutic corpus {seed}")
    mode, nli, negation = KINDS[seed % len(KINDS)]
    fallback = seed % FALLBACK_EVERY == 7
    config = tree_config(negation, 3 if nli == "dense" else rng.choice((1, 2, 3)))
    world = CorpusWorld(seed, CompileMode(mode), nli, fallback, config)
    world.question = f"Corpus world {seed} claim {rng.randrange(1000)} holds?"
    integral: dict[str, bool] = {}
    counter = 0

    def statement(text: str, want: bool | None) -> None:
        true_prob, neg_prob = _probs(rng, want)
        if negation == "prefix":
            negated = prefix_negation(text)
        else:
            negated = f"Not so: {text}"
            padding = rng.choice(("", " ", "\n"))
            world.builder.negation(text, padding + negated + padding)
        world.builder.truth(text, TRUTH_PROMPTS, true_prob, 1.0 - true_prob)
        world.builder.truth(negated, TRUTH_PROMPTS, neg_prob, 1.0 - neg_prob)
        integral[text] = (0.5 not in (true_prob, neg_prob)
                          and (true_prob > 0.5) != (neg_prob > 0.5))
        world.texts.append(text)

    def samples(parent: str, count: int) -> list[str]:
        nonlocal counter
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.08:
                out.append(rng.choice(("", "   ")))
            elif roll < 0.16:
                out.append(parent)
            elif roll < 0.30 and out:
                out.append(out[0])
            else:
                counter += 1
                out.append(f"Corpus fact {seed}.{counter} with detail {rng.randrange(99)}.")
        return out

    root = normalize_statement(world.question)
    statement(root, None)
    frontier = [root]
    for depth in (1, 2):
        decoding = config.decoding_for(depth)
        grown = []
        for parent in frontier:
            for label in (True, False):
                completions = samples(parent, decoding.sample_count)
                world.builder.abductive(parent, label, ABDUCTIVE_PROMPTS, decoding,
                                        completions)
                for text in dict.fromkeys(sample.strip() for sample in completions):
                    if not text or text == parent:
                        continue
                    if text not in integral:
                        statement(text, False if fallback else None)
                    for under in (label, not label):
                        world.builder.logprob(text, parent, under, ABDUCTIVE_PROMPTS,
                                              round(rng.uniform(-30.0, -0.5), 4))
                    if not integral[text] and text not in grown:
                        grown.append(text)
        frontier = grown
    if nli is not None:
        share = 1.0 if nli == "dense" else 0.3
        for premise in world.texts:
            for hypothesis in world.texts:
                if premise != hypothesis and rng.random() < share:
                    label = rng.choices(("entail", "contradict", "neutral"), (3, 2, 5))[0]
                    world.nli_records.append(
                        _label_record(rng, premise, hypothesis, label))
    return world


def worlds() -> list[CorpusWorld]:
    return [build_world(seed) for seed in range(WORLD_COUNT)]


def cached_engine(world: CorpusWorld, directory: Path, backend=None,
                  verifier=None) -> Engine:
    """An engine over ``world``'s fixtures (or the given backend and verifier)
    with a response cache and a call trace in ``directory``."""
    cached = CachedBackend(backend or world.builder.backend(), ResponseCache(directory),
                           seed=RUN_SEED, trace=TraceRecorder(directory / "trace.jsonl"))
    inner = verifier if verifier is not None else world.verifier()
    return Engine(backend=cached, tree_config=world.config, mode=world.mode,
                  verifier=None if inner is None else CachedVerifier(inner, cached),
                  truth_prompts=TRUTH_PROMPTS, abductive_prompts=ABDUCTIVE_PROMPTS,
                  seed=RUN_SEED)


def cache_lines(directory: Path) -> list[str]:
    return (directory / "responses.jsonl").read_text(encoding="utf-8").splitlines()


def trace_lines(directory: Path) -> list[str]:
    """The call trace's lines, each without its ``latency_s``, the one value
    that differs between two runs of the same question."""
    text = (directory / "trace.jsonl").read_text(encoding="utf-8")
    return [_LATENCY.sub("", line, count=1) for line in text.splitlines()]


def artefacts(world: CorpusWorld, directory: Path) -> dict[str, str]:
    """Each artefact of ``world``'s answer as text, made in ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    result = infer_maieutic(world.question, cached_engine(world, directory))
    out = {"result": result_to_json(result), "tree": tree_to_json(result.tree),
           "clauses": "", "wcnf": ""}
    if result.cnf is not None:
        out["clauses"] = canonical_json(cnf_to_dict(result.cnf))
        wcnf = export_wcnf(result.cnf, directory / "instance.wcnf")
        out["wcnf"] = "".join(path.read_text(encoding="utf-8")
                              for path in (wcnf, Path(f"{wcnf}.map.json")))
    table = world.builder.write(directory / "lm.json")
    out["fixtures"] = "".join(path.read_text(encoding="utf-8") for path in (
        table, Path(f"{table}.prompts.json"))) + json.dumps(world.nli_records, indent=2)
    out["cache"] = "\n".join(cache_lines(directory))
    out["trace"] = "\n".join(trace_lines(directory))
    return out


def hashes(world: CorpusWorld, directory: Path) -> dict[str, str]:
    made = artefacts(world, directory)
    return {name: hashlib.sha256(made[name].encode("utf-8")).hexdigest()
            for name in ARTEFACTS}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        entries = [{"seed": world.seed, "world": world.name,
                    "sha256": hashes(world, Path(directory) / str(world.seed))}
                   for world in worlds()]
    CORPUS_PATH.write_text(json.dumps({"worlds": entries}, indent=1) + "\n",
                           encoding="utf-8")
    print(f"wrote {len(entries)} worlds to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
