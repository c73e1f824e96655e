"""Natural-language-inference verifier: scripted and HTTP clients, and
the conversion of pairwise NLI judgments into implication clauses.

Each ordered pair of distinct tree nodes (the root included) is judged
as entailment, contradiction or neutral. Entailment compiles to
premise implies hypothesis, contradiction to premise implies
not-hypothesis, neutral to nothing. Every clause weighs 1.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import permutations, starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .backend import CachedBackend, Form, HttpClient, ModelClient
from .core import ClauseOrigin, MaieuticTree, WeightedClause, parse_json, read_text
from .errors import MalformedResponse, MissingFixture

PROB_ORDER = ("entail", "contradict", "neutral")


class NliLabel(str, Enum):
    ENTAIL = "entail"
    CONTRADICT = "contradict"
    NEUTRAL = "neutral"


_LABELS = {label.value: label for label in NliLabel}
# the labels in PROB_ORDER
_LABEL_ORDER = tuple(_LABELS[name] for name in PROB_ORDER)


@dataclass(frozen=True)
class NliJudgment:
    """Three-way judgment of one ordered sentence pair. It holds only
    what a clause reads, the label and its probabilities, not the pair.

    ``label_probs`` follows the fixed order (entail, contradict,
    neutral), sums to one and must rank the chosen label first.
    """

    label: NliLabel
    label_probs: tuple[float, float, float]

    def __post_init__(self):
        probs = self.label_probs
        if type(probs) is not tuple:
            probs = tuple(probs)
            object.__setattr__(self, "label_probs", probs)
        if len(probs) != 3:
            raise ValueError("label_probs must hold three values")
        for prob in probs:
            # false for NaN, and for either infinity
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"label probability {prob!r} outside [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-6:
            raise ValueError("label probabilities must sum to 1")
        if _LABEL_ORDER[probs.index(max(probs))] is not self.label:
            raise ValueError(f"label {self.label.value!r} is not the argmax")


# each label's certain judgment, checked once and shared by every reply
# that states no probabilities
_CERTAIN = {label: NliJudgment(label, tuple(float(other is label) for other in _LABEL_ORDER))
            for label in NliLabel}


def _judgment_from_record(record: Any) -> NliJudgment:
    """The judgment a fixture record or service reply states.

    Raises ``MalformedResponse`` naming the record when it is not an
    object with a known ``label``, or when its optional ``probs`` are not
    three numbers in the float range that fit the label.
    """
    try:
        label = _LABELS[str(record["label"]).lower()]
        probs = record.get("probs")
        if probs is None:
            return _CERTAIN[label]
        if not isinstance(probs, (list, tuple)):
            raise TypeError(f"probs must be a list, not {type(probs).__name__}")
        return NliJudgment(label, tuple(map(float, probs)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedResponse(f"unusable NLI record {record!r}: {exc}") from exc


def _pair_text(premise: str, hypothesis: str) -> str:
    """The JSON of a pair's request, with sorted keys and no spaces, as its digest hashes it."""
    return '{"hypothesis":%s,"kind":"nli","premise":%s}' % (
        encode_basestring_ascii(hypothesis), encode_basestring_ascii(premise))


class NliVerifier(ModelClient):
    """Interface: judge one ordered (premise, hypothesis) pair, or many."""

    verifier_id: str = "nli"
    _FORMS = {"nli": Form(lambda premise, hypothesis: {"kind": "nli", "premise": premise,
                                                       "hypothesis": hypothesis},
                          lambda judgment: {"label": judgment.label.value,
                                            "probs": list(judgment.label_probs)},
                          _judgment_from_record, "nli", _pair_text)}

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        """One pair's judgment: a batch of one. An in-process verifier
        implements it as its primitive."""
        return self.nli_batch([(premise, hypothesis)])[0]

    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliJudgment]:
        """Judgments of independent pairs in request order, as one batch."""
        return self._requests("nli", pairs)

    def _batch(self, primitive: str, arguments: Sequence[tuple],
               digests: Optional[Sequence[str]] = None) -> Iterator[tuple[Any, float]]:
        # the in-process loop calls ``nli``, which here is the batch of one;
        # a verifier judges a pair by its sentences, not by its digest
        if type(self).nli is NliVerifier.nli:
            raise NotImplementedError(f"{type(self).__name__} implements neither nli nor _batch")
        return super()._batch(primitive, arguments)


class ScriptedNliVerifier(NliVerifier):
    """Fixture-driven verifier for offline tests.

    The fixture is a list of ``{premise, hypothesis, label, probs?}``
    records, premise and hypothesis strings; a fixture file that holds
    anything else raises ``ValueError`` naming the file, and a record
    without them ``ValueError`` naming the record. A record is parsed
    the first time its pair is judged, and its judgment then kept for
    every later call; a malformed record raises ``MalformedResponse``
    whenever it is judged.
    Identical sentence pairs entail reflexively without a fixture entry.
    Unlisted pairs raise ``MissingFixture`` when strict (the default),
    else judge Neutral.
    """

    verifier_id = "scripted-nli"

    def __init__(self, fixtures: Union[str, Path, Iterable[Mapping], None] = None,
                 strict: bool = True):
        if isinstance(fixtures, (str, Path)):
            records = parse_json(read_text(fixtures))
            if not isinstance(records, list):
                raise ValueError(f"NLI fixture file {fixtures} is not a JSON list of records")
        else:
            records = list(fixtures or ())
        # a record, until its first judgment replaces it
        self._table: dict[tuple[str, str], Union[Mapping, NliJudgment]] = {}
        for index, record in enumerate(records):
            try:
                key = (record["premise"], record["hypothesis"])
                if type(key[0]) is not str or type(key[1]) is not str:
                    raise TypeError("a premise or hypothesis that is not a string")
            except (KeyError, TypeError) as exc:
                raise ValueError(f"NLI fixture record {index} needs a premise and a "
                                 f"hypothesis that are strings: {record!r}") from exc
            self._table[key] = record
        self.strict = strict

    def nli(self, premise: str, hypothesis: str) -> NliJudgment:
        entry = self._table.get((premise, hypothesis))
        # a judgment is kept only after its sentences passed this check
        if type(entry) is NliJudgment:
            return entry
        if not premise.strip() or not hypothesis.strip():
            raise ValueError("premise and hypothesis must be non-empty")
        if entry is not None:  # threads racing here keep equal judgments
            entry = self._table[premise, hypothesis] = _judgment_from_record(entry)
            return entry
        if premise == hypothesis:
            return _CERTAIN[NliLabel.ENTAIL]
        if not self.strict:
            return _CERTAIN[NliLabel.NEUTRAL]
        raise MissingFixture(f"no NLI fixture for ({premise!r}, {hypothesis!r})")


class HttpNliVerifier(HttpClient, NliVerifier):
    """Client for an NLI service: POST {premise, hypothesis} -> {label, probs}.

    The endpoint may come from the ``MAIEUTIC_NLI_ENDPOINT``
    environment variable.
    """

    def __init__(self, endpoint: Optional[str] = None, timeout: float = 30.0,
                 retries: int = 3):
        endpoint = endpoint or os.environ.get("MAIEUTIC_NLI_ENDPOINT")
        if not endpoint:
            raise ValueError("no NLI endpoint configured (MAIEUTIC_NLI_ENDPOINT unset)")
        super().__init__(endpoint, timeout, retries)
        self.verifier_id = f"http-nli:{self.endpoint}"

    def _pair_body(self, premise: str, hypothesis: str) -> dict:
        if not premise.strip() or not hypothesis.strip():
            raise ValueError("premise and hypothesis must be non-empty")
        return {"premise": premise, "hypothesis": hypothesis}

    def _judgment(self, payload: Any, premise: str, hypothesis: str) -> NliJudgment:
        return _judgment_from_record(payload)

    _WIRE = {"nli": (_pair_body, _judgment)}


class CachedVerifier(NliVerifier):
    """A verifier behind a :class:`~maieutic.backend.CachedBackend`'s
    response cache and call trace: its batches take the LM's path,
    ``CachedBackend.served``, and its entries are keyed by ``verifier_id``."""

    def __init__(self, inner: NliVerifier, cached: CachedBackend):
        self.inner = inner
        self.cached = cached
        self.verifier_id = inner.verifier_id

    def _requests(self, primitive: str, arguments: Sequence[tuple]) -> list:
        return self.cached.served(self.verifier_id, self.inner, primitive, arguments)


@cache
def _nli_clause(premise: int, hypothesis: int, entails: bool) -> WeightedClause:
    """Premise implies hypothesis (``entails``) or not-hypothesis: a clause
    of weight 1, literals in ascending variable order, built the first
    time any tree keeps it. The cache only saves work: trees merge their
    clauses by key, so threads that each build one keep equal copies."""
    literals = ((premise, False), (hypothesis, entails))
    return WeightedClause(literals if premise < hypothesis else literals[::-1], 1.0,
                          ClauseOrigin.NLI)


def relation_clauses(tree: MaieuticTree, variables: Mapping[int, str],
                     verifier: NliVerifier) -> list[WeightedClause]:
    """Implication clauses of weight 1 from NLI judgments over all ordered node pairs.

    ``variables`` is the tree's :func:`~maieutic.core.variable_map`. All
    pairs are judged as one batch and visited in its order, pre-order;
    clauses with an identical literal set (a contradiction judged in both
    orders) merge into one, keeping the first. They merge by value, on one
    key per judgment: (premise, hypothesis, True) for an entailment and,
    for a contradiction, (premise, hypothesis, False) with the smaller
    variable first. Each clause comes from ``_nli_clause``, whose cache
    only saves work.
    """
    texts = [tree.nodes[node_id].text for node_id in variables.values()]
    judgments = verifier.nli_batch(list(permutations(texts, 2)))
    entail, neutral = NliLabel.ENTAIL, NliLabel.NEUTRAL
    keys = dict.fromkeys([
        (premise, hypothesis, True) if label is entail
        else (premise, hypothesis, False) if premise < hypothesis
        else (hypothesis, premise, False)
        for (premise, hypothesis), judgment in zip(permutations(variables, 2), judgments)
        if (label := judgment.label) is not neutral])
    return list(starmap(_nli_clause, keys))
