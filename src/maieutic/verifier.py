"""Natural-language-inference verifier: scripted and HTTP clients, and
the conversion of pairwise NLI judgments into implication clauses.

Each ordered pair of distinct tree nodes (the root included) is judged
as entailment, contradiction or neutral. Entailment compiles to
premise implies hypothesis, contradiction to premise implies
not-hypothesis, neutral to nothing. Every clause weighs 1.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .backend import CachedBackend, fan_out, post_json
from .core import ClauseOrigin, MaieuticTree, WeightedClause, tree_nodes, variable_map
from .errors import MalformedResponse, MissingFixture

PROB_ORDER = ("entail", "contradict", "neutral")


class NliLabel(str, Enum):
    ENTAIL = "entail"
    CONTRADICT = "contradict"
    NEUTRAL = "neutral"


def _one_hot(label: NliLabel) -> tuple[float, float, float]:
    return tuple(1.0 if name == label.value else 0.0 for name in PROB_ORDER)


@dataclass(frozen=True)
class NliJudgment:
    """Three-way judgment over an ordered sentence pair.

    ``label_probs`` follows the fixed order (entail, contradict,
    neutral), sums to one and must rank the chosen label first.
    """

    premise: str
    hypothesis: str
    label: NliLabel
    label_probs: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "label_probs", tuple(self.label_probs))
        if len(self.label_probs) != 3:
            raise ValueError("label_probs must hold three values")
        for prob in self.label_probs:
            if not (math.isfinite(prob) and 0.0 <= prob <= 1.0):
                raise ValueError(f"label probability {prob!r} outside [0, 1]")
        if abs(sum(self.label_probs) - 1.0) > 1e-6:
            raise ValueError("label probabilities must sum to 1")
        winner = PROB_ORDER[self.label_probs.index(max(self.label_probs))]
        if winner != self.label.value:
            raise ValueError(f"label {self.label.value!r} is not the argmax")

    def label_prob(self) -> float:
        return self.label_probs[PROB_ORDER.index(self.label.value)]


class NliVerifier:
    """Interface: judge one ordered (premise, hypothesis) pair, or many."""

    verifier_id: str = "nli"

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        raise NotImplementedError

    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliJudgment]:
        """Judgments of independent pairs in request order, as one :meth:`_batch`."""
        return self._batch([functools.partial(self.nli, premise, hypothesis)
                            for premise, hypothesis in pairs])

    def _batch(self, calls: Sequence[Callable[[], Any]]) -> list:
        """A plain loop in the calling thread that stops at the first failure."""
        return [call() for call in calls]


def _judgment_from_record(premise: str, hypothesis: str, record: Mapping) -> NliJudgment:
    try:
        label = NliLabel(str(record["label"]).lower())
    except (KeyError, ValueError) as exc:
        raise MalformedResponse(f"unusable NLI label in {record!r}") from exc
    probs = record.get("probs")
    if probs is None:
        probs = _one_hot(label)
    return NliJudgment(premise=premise, hypothesis=hypothesis, label=label,
                       label_probs=tuple(float(p) for p in probs))


class ScriptedNliVerifier(NliVerifier):
    """Fixture-driven verifier for offline tests.

    The fixture is a list of ``{premise, hypothesis, label, probs?}``
    records. Identical sentence pairs entail reflexively without a
    fixture entry. Unlisted pairs raise ``MissingFixture`` when strict
    (the default) and judge Neutral otherwise.
    """

    def __init__(self, fixtures: Union[str, Path, Iterable[Mapping]] = (),
                 strict: bool = True, verifier_id: str = "scripted-nli"):
        if isinstance(fixtures, (str, Path)):
            with open(fixtures, "r", encoding="utf-8") as handle:
                records = json.load(handle)
        else:
            records = list(fixtures)
        self._table: dict[tuple[str, str], Mapping] = {}
        for record in records:
            key = (str(record["premise"]), str(record["hypothesis"]))
            self._table[key] = record
        self.strict = strict
        self.verifier_id = verifier_id

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        if not premise.strip() or not hypothesis.strip():
            raise ValueError("premise and hypothesis must be non-empty")
        record = self._table.get((premise, hypothesis))
        if record is not None:
            return _judgment_from_record(premise, hypothesis, record)
        if premise == hypothesis:
            return NliJudgment(premise, hypothesis, NliLabel.ENTAIL,
                               _one_hot(NliLabel.ENTAIL))
        if not self.strict:
            return NliJudgment(premise, hypothesis, NliLabel.NEUTRAL,
                               _one_hot(NliLabel.NEUTRAL))
        raise MissingFixture(f"no NLI fixture for ({premise!r}, {hypothesis!r})")


class HttpNliVerifier(NliVerifier):
    """Client for an NLI service: POST {premise, hypothesis} -> {label, probs}.

    The endpoint may come from the ``MAIEUTIC_NLI_ENDPOINT``
    environment variable; requests go through :func:`~maieutic.backend.post_json`,
    a batch through :func:`~maieutic.backend.fan_out`.
    """

    def __init__(self, endpoint: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 1.0):
        self.endpoint = endpoint or os.environ.get("MAIEUTIC_NLI_ENDPOINT")
        if not self.endpoint:
            raise ValueError("no NLI endpoint configured (MAIEUTIC_NLI_ENDPOINT unset)")
        if retries < 1:
            raise ValueError(f"retries counts attempts and must be at least 1, not {retries}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.verifier_id = f"http-nli:{self.endpoint}"

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        if not premise.strip() or not hypothesis.strip():
            raise ValueError("premise and hypothesis must be non-empty")
        payload = post_json(self.endpoint, {"premise": premise, "hypothesis": hypothesis},
                            timeout=self.timeout, retries=self.retries,
                            backoff=self.backoff)
        return _judgment_from_record(premise, hypothesis, payload)

    def _batch(self, calls: Sequence[Callable[[], Any]]) -> list:
        return fan_out(calls)


class CachedVerifier(NliVerifier):
    """A verifier behind a :class:`~maieutic.backend.CachedBackend`'s
    response cache and call trace; its entries are keyed by ``verifier_id``."""

    def __init__(self, inner: NliVerifier, cached: CachedBackend):
        self.inner = inner
        self.cached = cached
        self.verifier_id = inner.verifier_id

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        return self.nli_batch([(premise, hypothesis)])[0]

    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliJudgment]:
        requests = [{"kind": "nli", "premise": premise, "hypothesis": hypothesis}
                    for premise, hypothesis in pairs]
        asks = [functools.partial(self._ask, premise, hypothesis)
                for premise, hypothesis in pairs]
        stored = self.cached.served(self.verifier_id, requests, asks, self.inner._batch)
        return [_judgment_from_record(premise, hypothesis, record)
                for (premise, hypothesis), record in zip(pairs, stored)]

    def _ask(self, premise: str, hypothesis: str) -> dict:
        judgment = self.inner.nli(premise, hypothesis)
        return {"label": judgment.label.value, "probs": list(judgment.label_probs)}


def relation_clauses(tree: MaieuticTree, verifier: NliVerifier) -> list[WeightedClause]:
    """Implication clauses of weight 1 from NLI judgments over all ordered node pairs.

    All pairs are judged as one batch and visited in pre-order; clauses
    with an identical literal set (for instance a contradiction judged
    in both orders) merge into one, keeping the first.
    """
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
