"""Domain types: propositions, explanation trees, weighted clauses, configuration.

Values are frozen and checked once, when they are built: a
``MaieuticTree`` or ``WeightedCnf`` that exists keeps the rules of its
kind, and no later caller checks it again.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from inspect import Parameter, signature
from pathlib import Path
from types import MappingProxyType
from typing import (Any, Callable, Iterator, Mapping, Optional, Sequence, Union,
                    get_args, get_origin, get_type_hints)

from .errors import DegenerateBelief

ROOT_ID = "root"


class Integrity(str, Enum):
    """Whether the model answers a statement and its negation consistently."""

    INTEGRAL_TRUE = "integral_true"
    INTEGRAL_FALSE = "integral_false"
    NOT_INTEGRAL = "not_integral"
    UNCHECKED = "unchecked"

    @property
    def is_integral(self) -> bool:
        return self in (Integrity.INTEGRAL_TRUE, Integrity.INTEGRAL_FALSE)


class PromptMode(str, Enum):
    QA_PAIRS = "qa_pairs"
    QA_EXPLANATION_TRIPLES = "qa_explanation_triples"
    ABDUCTIVE_TRIPLES = "abductive_triples"


class NegationStrategy(str, Enum):
    PREFIX = "prefix"
    LM_GENERATED = "lm_generated"


class DecodingStrategy(str, Enum):
    GREEDY = "greedy"
    NUCLEUS = "nucleus"


class ClauseOrigin(str, Enum):
    BELIEF = "belief"
    CONSISTENCY = "consistency"
    NLI = "nli"
    # Clauses read back from a WCNF file without a sidecar carry no
    # compiler provenance.
    EXTERNAL = "external"


def check_fields(what: str, data: Any, types: Mapping[str, Any], owner: Callable) -> None:
    """Raise ``ValueError`` if ``data`` is not a mapping; else one naming
    the keys of ``data`` that are not in ``types``, a key whose value is
    not of its type there, or a parameter of ``owner``'s signature without
    a default that ``data`` lacks. An int passes for a float, a bool only
    for a bool, a list for ``list[T]`` when each item is a T, and null only
    where the key's default in ``owner``'s signature is None. A key typed
    None takes any value."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be an object, not {type(data).__name__}")
    unknown = set(data).difference(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    defaults = _defaults(owner)
    for key, value in data.items():
        want = types[key]
        if _fits(value, want) or value is None and defaults.get(key, ...) is None:
            continue
        name = want.__name__ if isinstance(want, type) else want
        raise ValueError(f"{what} key {key} must be {name}, not {value!r}")
    for key, default in defaults.items():
        if default is Parameter.empty and key not in data:
            raise ValueError(f"{what} needs the key {key}")


@cache
def _defaults(owner: Callable) -> dict[str, Any]:
    """Each parameter of ``owner``'s signature with its default, worked out
    once per owner; callers share the dict and do not change it."""
    return {key: parameter.default for key, parameter in signature(owner).parameters.items()}


def _fits(value: Any, want: Any) -> bool:
    return (want is None or type(value) is want or (want, type(value)) == (float, int)
            or get_origin(want) is list and type(value) is list
            and all(_fits(item, get_args(want)[0]) for item in value))


@cache
def field_types(cls: type) -> dict[str, Any]:
    """Each field of a dataclass with the type its value takes in a config:
    bool, int, float, str or dict as annotated (Optional dropped), dict for
    a dataclass, ``list[T]`` for ``tuple[T, ...]``, else None. Worked out
    once per class; callers share the dict and do not change it."""
    hints = get_type_hints(cls)
    return {f.name: _config_type(hints[f.name]) for f in fields(cls)}


def _config_type(hint: Any) -> Any:
    if get_origin(hint) is Union:  # Optional[T]: null is checked against the default
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return dict
    if get_origin(hint) is tuple:
        return list[_config_type(get_args(hint)[0])]
    return hint if hint in (bool, int, float, str, dict) else None


def belief_from_probs(true_prob: float, neg_true_prob: float) -> float:
    """Normalized difference of the truth probabilities of a statement and its negation.

    Ranges over [-1, 1]; zero exactly when the two probabilities agree,
    positive when the statement is favored over its negation.
    """
    total = true_prob + neg_true_prob
    if total <= 0.0:
        raise DegenerateBelief("both truth probabilities are zero")
    return (true_prob - neg_true_prob) / total


@dataclass(frozen=True)
class PromptExample:
    """One demonstration record: question text, optional explanation, answer label."""

    question: str
    answer: bool
    explanation: Optional[str] = None


@dataclass(frozen=True)
class PromptSet:
    """Ordered demonstration examples for one prompting mode."""

    mode: PromptMode
    examples: tuple[PromptExample, ...]

    def __post_init__(self):
        if not self.examples:
            raise ValueError("prompt set must contain at least one example")
        object.__setattr__(self, "examples", tuple(self.examples))
        for ex in self.examples:
            if not ex.question.strip():
                raise ValueError("demonstration question must be non-empty")
            if self.mode is PromptMode.QA_PAIRS:
                if ex.explanation is not None:
                    raise ValueError("qa_pairs examples must not carry explanations")
            elif not (ex.explanation and ex.explanation.strip()):
                raise ValueError(f"{self.mode.value} examples require an explanation")

    def content_hash(self) -> str:
        return json_digest(prompt_set_to_dict(self))


@dataclass(frozen=True)
class DecodingParams:
    """How completions are sampled for one request."""

    strategy: DecodingStrategy
    nucleus_p: float = 1.0  # ignored for greedy
    max_tokens: int = 64
    stop_sequences: tuple[str, ...] = ("\n",)
    sample_count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.strategy is DecodingStrategy.GREEDY and self.sample_count != 1:
            raise ValueError("greedy decoding yields a single sample")
        if self.strategy is DecodingStrategy.NUCLEUS and not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError("nucleus_p must lie in (0, 1]")

    def to_dict(self) -> dict:
        out = {
            "strategy": self.strategy.value,
            "max_tokens": self.max_tokens,
            "stop_sequences": list(self.stop_sequences),
            "sample_count": self.sample_count,
        }
        if self.strategy is DecodingStrategy.NUCLEUS:
            out["nucleus_p"] = self.nucleus_p
        return out

    @classmethod
    def from_dict(cls, data: dict) -> DecodingParams:
        check_fields("decoding", data, field_types(cls), cls)
        return cls(**{**data, "strategy": DecodingStrategy(data["strategy"])})


def _default_decoding_schedule() -> tuple[DecodingParams, ...]:
    return (
        DecodingParams(DecodingStrategy.NUCLEUS, nucleus_p=1.0, sample_count=3),
        DecodingParams(DecodingStrategy.GREEDY, sample_count=1),
    )


@dataclass(frozen=True)
class TreeConfig:
    """Shape of the generated tree and how each depth is decoded.

    Depth 1 defaults to nucleus sampling with three samples per answer
    label; every deeper level decodes greedily with a single sample.
    The width of a depth is the sample count of its decoding entry.
    """

    depth_limit: int = 2
    decoding_schedule: tuple[DecodingParams, ...] = field(
        default_factory=_default_decoding_schedule)
    negation_strategy: NegationStrategy = NegationStrategy.PREFIX

    def __post_init__(self):
        object.__setattr__(self, "decoding_schedule", tuple(self.decoding_schedule))
        if self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        if len(self.decoding_schedule) != self.depth_limit:
            raise ValueError("decoding_schedule must list one entry per depth")

    @property
    def width_schedule(self) -> tuple[int, ...]:
        """Samples per answer label at each depth, read off the decoding schedule."""
        return tuple(decoding.sample_count for decoding in self.decoding_schedule)

    def decoding_for(self, depth: int) -> DecodingParams:
        """Decoding parameters for 1-based tree depth."""
        if not 1 <= depth <= self.depth_limit:
            raise ValueError(f"depth {depth} outside 1..{self.depth_limit}")
        return self.decoding_schedule[depth - 1]

    def max_nodes_excluding_root(self) -> int:
        """Upper bound on generated nodes: both labels at every width, every depth."""
        total = 0
        layer = 1
        for width in self.width_schedule:
            layer *= 2 * width
            total += layer
        return total

    def to_dict(self) -> dict:
        return {
            "depth_limit": self.depth_limit,
            "width_schedule": list(self.width_schedule),
            "decoding_schedule": [d.to_dict() for d in self.decoding_schedule],
            "negation_strategy": self.negation_strategy.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> TreeConfig:
        """Inverse of :meth:`to_dict`; an explicit ``width_schedule`` must
        match the decoding schedule's sample counts."""
        check_fields("tree", data, {**field_types(cls), "width_schedule": list[int]}, cls)
        kwargs = {key: value for key, value in data.items() if key != "width_schedule"}
        if "decoding_schedule" in data:
            kwargs["decoding_schedule"] = tuple(
                DecodingParams.from_dict(d) for d in data["decoding_schedule"])
        if "negation_strategy" in data:
            kwargs["negation_strategy"] = NegationStrategy(data["negation_strategy"])
        config = cls(**kwargs)
        if "width_schedule" in data and \
                tuple(data["width_schedule"]) != config.width_schedule:
            raise ValueError(
                f"width_schedule {list(data['width_schedule'])} does not match the "
                f"decoding sample counts {list(config.width_schedule)}")
        return config


@dataclass(frozen=True)
class Proposition:
    """One node of the tree.

    ``path_label`` records the answer-label branch taken at every depth
    from the root, so its length equals the node's depth. ``true_prob``
    and ``neg_true_prob`` are the renormalized probabilities of the True
    answer for the statement and for its negation; ``belief`` is derived
    from them. ``direct_answer`` is the answer the statement's own truth
    check committed to (``None`` on a tie); it is not serialized.
    """

    id: str
    text: str
    negated_text: str = ""
    path_label: str = ""
    source_answer: Optional[bool] = None
    integrity: Integrity = Integrity.UNCHECKED
    true_prob: Optional[float] = None
    neg_true_prob: Optional[float] = None
    direct_answer: Optional[bool] = field(default=None, compare=False)

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("proposition text must be non-empty")
        if self.integrity is not Integrity.UNCHECKED and not self.negated_text.strip():
            raise ValueError("checked propositions must carry a negated text")
        if any(ch not in "TF" for ch in self.path_label):
            raise ValueError("path_label may contain only 'T' and 'F'")
        for name in ("true_prob", "neg_true_prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.integrity is Integrity.INTEGRAL_TRUE and not (
                self.belief is not None and self.belief > 0):
            raise ValueError("integral-true propositions require positive belief")
        if self.integrity is Integrity.INTEGRAL_FALSE and not (
                self.belief is not None and self.belief < 0):
            raise ValueError("integral-false propositions require negative belief")

    @property
    def belief(self) -> Optional[float]:
        """:func:`belief_from_probs` of the stored probabilities; ``None``
        when either is missing or both are zero."""
        if self.true_prob is None or self.neg_true_prob is None:
            return None
        try:
            return belief_from_probs(self.true_prob, self.neg_true_prob)
        except DegenerateBelief:
            return None

    @property
    def depth(self) -> int:
        return len(self.path_label)


def child_id(parent_id: str, label: bool, index: int) -> str:
    """Stable node id: the parent's id extended with the branch label and sibling index."""
    stem = "" if parent_id == ROOT_ID else parent_id + "."
    return f"{stem}{'T' if label else 'F'}.{index}"


Edge = tuple[bool, str]  # (branch label, child node id)


@dataclass(frozen=True)
class MaieuticTree:
    """Rooted tree of propositions with True/False labeled edges, checked
    when built (``ValueError`` names the rule a map breaks) and sealed like
    :class:`WeightedCnf`: it keeps read-only copies of its maps, edge lists
    as tuples. Each edge extends its parent's path label, so no cycle passes."""

    nodes: Mapping[str, Proposition]
    children: Mapping[str, tuple[Edge, ...]]
    config: TreeConfig = field(default_factory=TreeConfig)
    root_id: str = ROOT_ID

    def __post_init__(self):
        nodes = MappingProxyType(dict(self.nodes))
        children = MappingProxyType({parent: tuple(edges)
                                     for parent, edges in self.children.items()})
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "children", children)
        if self.root_id not in nodes:
            raise ValueError("root node missing from node map")
        if self.root.path_label != "":
            raise ValueError("root must have an empty path label")
        parents: dict[str, str] = {}
        for parent_id, edges in children.items():
            if parent_id not in nodes:
                raise ValueError(f"unknown parent {parent_id!r}")
            for label, cid in edges:
                if cid not in nodes:
                    raise ValueError(f"unknown child {cid!r}")
                if cid in parents:
                    raise ValueError(f"{cid!r} has more than one parent")
                parents[cid] = parent_id
                expected = nodes[parent_id].path_label + ("T" if label else "F")
                if nodes[cid].path_label != expected:
                    raise ValueError(
                        f"{cid!r} path label {nodes[cid].path_label!r} does not extend its parent")
        for node_id, node in nodes.items():
            if node.id != node_id:
                raise ValueError(f"node key {node_id!r} holds the node of id {node.id!r}")
            if node_id != self.root_id and node_id not in parents:
                raise ValueError(f"{node_id!r} is disconnected from the root")
        bound = self.config.max_nodes_excluding_root()
        if len(nodes) - 1 > bound:
            raise ValueError(f"{len(nodes) - 1} generated nodes exceed the bound {bound}")
        for node in nodes.values():
            if node.depth > self.config.depth_limit:
                raise ValueError(f"{node.id!r} exceeds the depth limit")

    @property
    def root(self) -> Proposition:
        return self.nodes[self.root_id]

    def node(self, node_id: str) -> Proposition:
        return self.nodes[node_id]

    def children_of(self, node_id: str) -> tuple[Edge, ...]:
        return self.children.get(node_id, ())

    def edges(self) -> Iterator[tuple[str, bool, str]]:
        """(parent id, branch label, child id) triples, parents in pre-order."""
        for node in tree_nodes(self):
            for label, cid in self.children_of(node.id):
                yield node.id, label, cid

    def node_count(self) -> int:
        return len(self.nodes)

    def is_root_only(self) -> bool:
        return len(self.nodes) == 1


def tree_nodes(tree: MaieuticTree) -> list[Proposition]:
    """All propositions in deterministic pre-order, root first."""
    out: list[Proposition] = []
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        out.append(tree.nodes[node_id])
        stack.extend(cid for _, cid in reversed(tree.children_of(node_id)))
    return out


def tree_leaves(tree: MaieuticTree) -> list[Proposition]:
    """Propositions without children, in pre-order. A childless root is its own leaf."""
    return [node for node in tree_nodes(tree) if not tree.children_of(node.id)]


def variable_map(tree: MaieuticTree) -> dict[int, str]:
    """One boolean variable per node: 1-based, pre-order, root first."""
    return {position: node.id for position, node in enumerate(tree_nodes(tree), start=1)}


# --- weighted clauses ---

Literal = tuple[int, bool]  # (variable id, polarity; True for the positive literal)


@dataclass(frozen=True)
class WeightedClause:
    """Disjunction of literals with a positive weight and a provenance tag."""

    literals: tuple[Literal, ...]
    weight: float
    origin: ClauseOrigin

    def __post_init__(self):
        literals = tuple([(int(v), bool(p)) for v, p in self.literals])
        object.__setattr__(self, "literals", literals)
        if not literals:
            raise ValueError("a clause needs at least one literal")
        if len({v for v, _ in literals}) != len(literals):
            raise ValueError("duplicate variable within one clause")
        # false for NaN too
        if not 0.0 < self.weight < math.inf:
            raise ValueError("clause weight must be positive and finite")


@dataclass(frozen=True)
class WeightedCnf:
    """Clause collection plus the variable-to-node binding.

    Every tree node, the root included, owns exactly one boolean
    variable; the root variable is declared even when no clause
    mentions it. The set is sealed when built: it keeps its clauses as
    a tuple and a read-only copy of the variable map, so every clause it
    will ever hold was checked to name only declared variables.
    """

    variables: Mapping[int, str]
    clauses: tuple[WeightedClause, ...] = ()

    def __post_init__(self):
        variables = MappingProxyType(dict(self.variables))
        clauses = tuple(self.clauses)
        for clause in clauses:
            for var, _ in clause.literals:
                if var not in variables:
                    raise ValueError(f"clause references undeclared variable {var}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "clauses", clauses)

    def total_weight(self) -> float:
        return sum(c.weight for c in self.clauses)


# --- serialization ---

def canonical_json(data: Any) -> str:
    """The one JSON form of every dump a user reads (tree, clauses, result):
    keys in insertion order, indented by two, ending in a newline."""
    return json.dumps(data, sort_keys=False, separators=(",", ": "), indent=2) + "\n"


def sorted_json(item_separator: str, key_separator: str) -> Callable[[Any, int], Sequence[str]]:
    """The C encoder that ``json.dumps(value, sort_keys=True, separators=...)``
    builds anew on every call, built once: ``"".join(encode(value, 0))`` is
    that call's text. It checks no cycles, as no value it writes has any,
    so it keeps no state between calls and serves every thread at once."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        key_separator, item_separator, True, False, True)


_DIGEST_JSON = sorted_json(",", ":")


def json_digest(value: Any) -> str:
    """The SHA-256 of ``value``'s JSON with sorted keys and no spaces: the
    stable identifier of a backend request, a prompt set and a run's config."""
    return hashlib.sha256("".join(_DIGEST_JSON(value, 0)).encode("utf-8")).hexdigest()


def read_text(path: Union[str, Path]) -> str:
    """The text of a UTF-8 file. A file that is not UTF-8 raises
    ``ValueError`` naming it and the line of its first byte that does not
    decode, lines ending at ``\\n``, ``\\r`` or ``\\r\\n`` as ``open`` splits them."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = blob[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text") from None


def parse_json(source: Any, parse: Callable[[Any], Any] = json.loads) -> Any:
    """``parse(source)``, by default the JSON value of a str or bytes; input
    nested too deeply to parse raises ``ValueError``, as other malformed
    input does, not ``RecursionError``."""
    try:
        return parse(source)
    except RecursionError:
        raise ValueError("input nested too deeply to parse") from None


def json_lines(path: Union[str, Path]) -> Iterator[tuple[int, dict]]:
    """Each line of a JSON-lines file that is not blank, as an object, with
    its number; lines split as ``open`` splits them, at ``\\n``, ``\\r\\n``
    and ``\\r``. A line that is not JSON or not an object raises
    ``ValueError`` naming the file and the line."""
    for number, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if not line.strip():
            continue
        try:
            value = parse_json(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: not valid JSON: {exc}") from exc
        if type(value) is not dict:
            raise ValueError(f"{path}: line {number}: not a JSON object")
        yield number, value


def _proposition_to_dict(node: Proposition) -> dict:
    return {
        "id": node.id,
        "text": node.text,
        "negated_text": node.negated_text,
        "path_label": node.path_label,
        "source_answer": node.source_answer,
        "integrity": node.integrity.value,
        "belief": node.belief,
        "true_prob": node.true_prob,
        "neg_true_prob": node.neg_true_prob,
    }


def _proposition_from_dict(data: dict) -> Proposition:
    types = {**field_types(Proposition), "belief": None}
    del types["direct_answer"]  # not serialized
    check_fields("tree node", data, types, Proposition)
    data = {key: value for key, value in data.items() if key != "belief"}  # derived
    return Proposition(**{**data, "integrity": Integrity(data.get("integrity", "unchecked"))})


def tree_to_dict(tree: MaieuticTree) -> dict:
    nodes = [_proposition_to_dict(n) for n in tree_nodes(tree)]
    edges = [{"parent": p, "label": label, "child": c} for p, label, c in tree.edges()]
    return {"root": tree.root_id, "nodes": nodes, "edges": edges,
            "config": tree.config.to_dict()}


# Owners for ``check_fields`` of the objects that have no class of their
# own: each signature names the keys required and the keys that take null.
def _tree_keys(root, nodes, edges, config={}):
    """A tree's keys; never called."""


def _edge_keys(parent, label, child):
    """A tree edge's keys; never called."""


def tree_from_dict(data: Any) -> MaieuticTree:
    """Inverse of :func:`tree_to_dict`. Data that is not a tree raises
    ``ValueError`` naming the key that is missing, unknown or of the wrong
    type, or the rule of a tree that it breaks."""
    check_fields("tree", data, {"root": str, "nodes": list[dict], "edges": list[dict],
                                "config": dict}, _tree_keys)
    nodes = {node.id: node for node in map(_proposition_from_dict, data["nodes"])}
    children: dict[str, list[Edge]] = {}
    for edge in data["edges"]:
        check_fields("tree edge", edge, {"parent": str, "label": bool, "child": str},
                     _edge_keys)
        children.setdefault(edge["parent"], []).append((edge["label"], edge["child"]))
    return MaieuticTree(nodes=nodes, children=children,
                        config=TreeConfig.from_dict(data.get("config", {})), root_id=data["root"])


def tree_to_json(tree: MaieuticTree) -> str:
    return canonical_json(tree_to_dict(tree))


def tree_from_json(text: str) -> MaieuticTree:
    return tree_from_dict(parse_json(text))


_DOT_JSON_MARKER = "// tree-json: "


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(node: Proposition, limit: int = 40) -> str:
    text = node.text if len(node.text) <= limit else node.text[:limit - 3] + "..."
    return _dot_escape(f"{node.id}: {text}")


def tree_to_dot(tree: MaieuticTree, assignment: Optional[dict[str, bool]] = None) -> str:
    """Graphviz rendering; node fill encodes the assigned truth value.

    The canonical JSON form rides along in a comment line so the DOT
    file can be converted back without loss.
    """
    assignment = assignment or {}
    lines = ["digraph maieutic_tree {", "  node [shape=box, style=filled];"]
    for node in tree_nodes(tree):
        value = assignment.get(node.id)
        color = "lightgray" if value is None else ("palegreen" if value else "lightcoral")
        lines.append(f'  "{_dot_escape(node.id)}" [label="{_dot_label(node)}", '
                     f'fillcolor="{color}"];')
    for parent, label, child in tree.edges():
        lines.append(f'  "{_dot_escape(parent)}" -> "{_dot_escape(child)}" '
                     f'[label="{"T" if label else "F"}"];')
    compact = json.dumps(tree_to_dict(tree), sort_keys=False, separators=(",", ":"))
    lines.append(f"  {_DOT_JSON_MARKER}{compact}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_from_dot(text: str) -> MaieuticTree:
    """Recover a tree from a DOT file produced by :func:`tree_to_dot`."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(_DOT_JSON_MARKER):
            return tree_from_dict(parse_json(stripped[len(_DOT_JSON_MARKER):]))
    raise ValueError("DOT input carries no embedded tree JSON")


def prompt_set_to_dict(prompts: PromptSet) -> dict:
    return {
        "mode": prompts.mode.value,
        "examples": [
            {"question": e.question, "answer": e.answer, "explanation": e.explanation}
            for e in prompts.examples
        ],
    }


def _prompt_set_keys(mode, examples, _comment=None):
    """A prompt set's keys, for ``check_fields``; never called."""


def prompt_set_from_dict(data: Any) -> PromptSet:
    """The prompt set a dict holds; ``ValueError`` naming the key that is
    missing, unknown or of the wrong type."""
    check_fields("prompt set", data, {"_comment": None, "mode": str, "examples": list[dict]},
                 _prompt_set_keys)
    for example in data["examples"]:
        check_fields("prompt example", example,
                     {"question": str, "answer": bool, "explanation": str}, PromptExample)
    return PromptSet(mode=PromptMode(data["mode"]),
                     examples=tuple(PromptExample(**e) for e in data["examples"]))


def load_prompt_set(path) -> PromptSet:
    return prompt_set_from_dict(parse_json(read_text(path)))


def label_word(label: bool) -> str:
    """Surface form of an answer label as it appears in prompts."""
    return "True" if label else "False"
