"""Inference entry points and the evaluation pipeline.

Three ways to answer a question: direct answer-token scoring, a
generate-then-answer baseline, and the full tree/clause/solve
pipeline. Dataset evaluation runs records through a worker pool,
writes per-record JSONL plus a run manifest, and reports overall and
pairwise accuracy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from . import compiler, prompts as prompt_templates, solver, tree_builder
from .backend import LmBackend
from .compiler import CompileMode
from .core import (
    MaieuticTree,
    PromptExample,
    PromptMode,
    PromptSet,
    TreeConfig,
    WeightedCnf,
    canonical_json,
    json_digest,
    json_lines,
    label_word,
    tree_nodes,
    tree_to_dict,
    tree_to_dot,
)
from .errors import EmptyGeneration, MissingGold
from .solver import Assignment, assignment_by_node, solve
from .verifier import NliVerifier


class Method(str, Enum):
    STANDARD = "standard"
    EXPLANATION_BASED = "explanation_based"
    MAIEUTIC = "maieutic"


@dataclass
class InferenceResult:
    """Answer plus everything needed to justify it."""

    question: str
    answer: bool
    method: Method
    fallback_used: bool = False
    explanation: Optional[str] = None
    tree: Optional[MaieuticTree] = None
    cnf: Optional[WeightedCnf] = None
    assignment: Optional[Assignment] = None
    true_propositions: list[str] = field(default_factory=list)


def _assignment_to_dict(cnf: WeightedCnf, assignment: Assignment) -> dict:
    by_node = assignment_by_node(cnf, assignment)
    return {
        "values": {node_id: by_node[node_id] for node_id in sorted(by_node)},
        "satisfied_weight": assignment.satisfied_weight,
        "violated": list(assignment.violated),
    }


def result_to_dict(result: InferenceResult) -> dict:
    out = {
        "question": result.question,
        "answer": result.answer,
        "method": result.method.value,
        "fallback_used": result.fallback_used,
        "explanation": result.explanation,
        "true_propositions": list(result.true_propositions),
        "tree": tree_to_dict(result.tree) if result.tree is not None else None,
        "clauses": compiler.cnf_to_dict(result.cnf) if result.cnf is not None else None,
        "assignment": _assignment_to_dict(result.cnf, result.assignment)
        if result.assignment is not None and result.cnf is not None else None,
    }
    return out


def result_to_json(result: InferenceResult) -> str:
    return canonical_json(result_to_dict(result))


# Per key of a config's prompts table: the engine field it sets and the mode
# of the prompt set that field holds (the bundled set when unset).
PROMPT_FIELDS = {"truth": ("truth_prompts", PromptMode.QA_PAIRS),
                 "abductive": ("abductive_prompts", PromptMode.ABDUCTIVE_TRIPLES),
                 "explanation": ("explanation_prompts", PromptMode.QA_EXPLANATION_TRIPLES)}


@dataclass
class Engine:
    """Wired-together runtime: backend, verifier, prompt sets, tree shape."""

    backend: LmBackend
    tree_config: TreeConfig = field(default_factory=TreeConfig)
    mode: CompileMode = CompileMode.LIKELIHOOD
    verifier: Optional[NliVerifier] = None
    truth_prompts: Optional[PromptSet] = None
    abductive_prompts: Optional[PromptSet] = None
    explanation_prompts: Optional[PromptSet] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode is CompileMode.VERIFIER and self.verifier is None:
            raise ValueError("verifier mode needs an NLI verifier")
        for name, mode in PROMPT_FIELDS.values():
            if getattr(self, name) is None:
                setattr(self, name, prompt_templates.default_prompt_set(mode))


def _qa_pairs_view(prompts: PromptSet) -> PromptSet:
    """The same demonstrations with explanations stripped."""
    if prompts.mode is PromptMode.QA_PAIRS:
        return prompts
    return PromptSet(mode=PromptMode.QA_PAIRS, examples=tuple(
        PromptExample(question=ex.question, answer=ex.answer)
        for ex in prompts.examples))


def infer_standard(question: str, backend: LmBackend,
                   prompts: PromptSet) -> InferenceResult:
    """Answer by scoring the two answer tokens directly; a tie answers False
    with the fallback flag raised."""
    answer = backend.true_prob(question, prompts).argmax()
    return InferenceResult(question=question, answer=bool(answer),
                           method=Method.STANDARD, fallback_used=answer is None)


def infer_explanation_based(question: str, backend: LmBackend,
                            prompts: PromptSet) -> InferenceResult:
    """Generate one explanation, then answer conditioned on it.

    When no usable explanation comes back, the answer falls through to
    direct scoring (with the same demonstrations minus explanations)
    and the fallback flag is raised.
    """
    try:
        explanation = backend.sample_explanations(question, prompts)[0]
    except EmptyGeneration:
        direct = infer_standard(question, backend, _qa_pairs_view(prompts))
        return replace(direct, method=Method.EXPLANATION_BASED, fallback_used=True)
    answer = backend.explained_answer_prob(question, explanation, prompts).argmax()
    return InferenceResult(question=question, answer=bool(answer),
                           method=Method.EXPLANATION_BASED, fallback_used=answer is None,
                           explanation=explanation)


def compile_question(question: str,
                     engine: Engine) -> tuple[MaieuticTree, Optional[WeightedCnf]]:
    """Grow and prune the question's tree, then compile it to clauses;
    the clauses are ``None`` when pruning leaves only the root."""
    tree = tree_builder.build_tree(question, engine.tree_config, engine.backend,
                                   engine.truth_prompts, engine.abductive_prompts)
    pruned = tree_builder.prune(tree)
    if pruned.is_root_only():
        return pruned, None
    return pruned, compiler.compile(pruned, engine.mode, backend=engine.backend,
                                    verifier=engine.verifier,
                                    prompts=engine.abductive_prompts)


def infer_maieutic(question: str, engine: Engine) -> InferenceResult:
    """Grow, prune, compile and solve; the answer is the root's assigned value.

    A tree pruned down to its root carries no usable evidence, so the
    answer falls back to direct scoring with the fallback flag raised:
    the root's own truth check is that request, so its answer is reused
    (False on a tie, as in :func:`infer_standard`).
    """
    pruned, cnf = compile_question(question, engine)
    if cnf is None:
        return InferenceResult(question=question, answer=bool(pruned.root.direct_answer),
                               method=Method.MAIEUTIC, fallback_used=True, tree=pruned)
    assignment = solve(cnf)
    by_node = assignment_by_node(cnf, assignment)
    # the clause set's variables are in pre-order, root first
    true_propositions = [pruned.nodes[node_id].text for node_id in cnf.variables.values()
                         if node_id != pruned.root_id and by_node[node_id]]
    return InferenceResult(question=question, answer=by_node[pruned.root_id],
                           method=Method.MAIEUTIC, tree=pruned, cnf=cnf,
                           assignment=assignment, true_propositions=true_propositions)


def infer(question: str, method: Method, engine: Engine) -> InferenceResult:
    if method is Method.STANDARD:
        return infer_standard(question, engine.backend, engine.truth_prompts)
    if method is Method.EXPLANATION_BASED:
        return infer_explanation_based(question, engine.backend,
                                       engine.explanation_prompts)
    return infer_maieutic(question, engine)


# --- datasets ---

@dataclass(frozen=True)
class DatasetRecord:
    id: str
    question: str
    gold: bool
    pair_id: Optional[str] = None


def _parse_label(value, record_id: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
    raise MissingGold(f"record {record_id!r} has no usable gold label ({value!r})")


class DatasetFields(NamedTuple):
    """Where one benchmark's rows keep each value; the first of several
    candidate fields present in a row wins."""

    ids: tuple[str, ...]
    question: tuple[str, ...]
    label: str
    pair_id: Optional[str]  # None: the benchmark does not pair records


DATASET_ADAPTERS: dict[str, DatasetFields] = {
    "native": DatasetFields(("id",), ("question",), "label", "pair_id"),
    "com2sense": DatasetFields(("id",), ("sent", "sentence"), "label", "pair_id"),
    "csqa2": DatasetFields(("id",), ("question",), "answer", None),
    "creak": DatasetFields(("ex_id", "id"), ("sentence",), "label", None),
}


def _first_present(data: dict, names: Sequence[str], default=None):
    return next((data[name] for name in names if name in data), default)


def _identifier(value, where: str, name: str) -> str:
    """A record id or pair id as text: a string, or an integer but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{where}: {name} {value!r} is not a string or an integer")
    return str(value)


def _adapt(data: dict, fields: DatasetFields, path: Union[str, Path],
           line_no: int) -> DatasetRecord:
    """One row as a record. A question that is not a string, or an id that
    ``_identifier`` rejects, raises ``ValueError`` naming the path and line."""
    where = f"{path}: line {line_no}"
    record_id = _identifier(_first_present(data, fields.ids, f"r{line_no}"), where, "id")
    if fields.label not in data:
        raise MissingGold(f"record {record_id!r} has no gold label")
    gold = _parse_label(data[fields.label], record_id)
    question = _first_present(data, fields.question)
    if question is not None and not isinstance(question, str):
        raise ValueError(f"{where}: question {question!r} is not a string")
    if question is None or not question.strip():
        names = " or ".join(repr(name) for name in fields.question)
        raise ValueError(f"{where}: no question text in {names}")
    pair_id = data.get(fields.pair_id) if fields.pair_id else None
    if pair_id is not None:
        pair_id = _identifier(pair_id, where, "pair_id")
    return DatasetRecord(id=record_id, question=question, gold=gold, pair_id=pair_id)


def load_dataset(path: Union[str, Path], adapter: str = "native") -> list[DatasetRecord]:
    """Read a JSONL dataset, normalizing benchmark-specific field names."""
    if adapter not in DATASET_ADAPTERS:
        raise ValueError(f"unknown adapter {adapter!r}; "
                         f"available: {', '.join(sorted(DATASET_ADAPTERS))}")
    fields = DATASET_ADAPTERS[adapter]
    return [_adapt(data, fields, path, line_no) for line_no, data in json_lines(path)]


# --- evaluation ---

@dataclass
class MetricsReport:
    accuracy: float
    pairwise_accuracy: Optional[float]
    record_count: int
    correct_count: int
    pair_count: int
    pair_correct_count: int
    error_count: int
    warnings: list[str] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "pairwise_accuracy": self.pairwise_accuracy,
            "record_count": self.record_count,
            "correct_count": self.correct_count,
            "pair_count": self.pair_count,
            "pair_correct_count": self.pair_correct_count,
            "error_count": self.error_count,
            "warnings": list(self.warnings),
        }


def _complete_pairs(records: Sequence[DatasetRecord],
                    warnings: list[str]) -> list[tuple[str, str]]:
    """Mutually resolvable pairs as sorted id tuples, order of first sighting."""
    by_id = {record.id: record for record in records}
    seen: set[tuple[str, str]] = set()
    pairs: list[tuple[str, str]] = []
    for record in records:
        if record.pair_id is None:
            continue
        if record.pair_id == record.id:
            warnings.append(f"record {record.id!r} is paired with itself; ignored")
            continue
        if record.pair_id not in by_id:
            warnings.append(f"record {record.id!r} references missing "
                            f"counterpart {record.pair_id!r}; pair skipped")
            continue
        key = tuple(sorted((record.id, record.pair_id)))
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    return pairs


def pair_metrics(records: Sequence[DatasetRecord], correct_by_id: dict[str, bool],
                 warnings: list[str]) -> tuple[int, int, Optional[float]]:
    pairs = _complete_pairs(records, warnings)
    if not pairs:
        return 0, 0, None
    both = sum(1 for left, right in pairs
               if correct_by_id[left] and correct_by_id[right])
    return len(pairs), both, both / len(pairs)


def _result_line(record: DatasetRecord, result: InferenceResult) -> dict:
    return {
        "id": record.id,
        "question": record.question,
        "gold": record.gold,
        "pair_id": record.pair_id,
        "answer": result.answer,
        "correct": result.answer == record.gold,
        "method": result.method.value,
        "fallback_used": result.fallback_used,
        "true_propositions": list(result.true_propositions),
        "satisfied_weight": result.assignment.satisfied_weight
        if result.assignment is not None else None,
    }


def _error_line(record: DatasetRecord, exc: Exception) -> dict:
    return {"id": record.id, "correct": False,
            "error": type(exc).__name__, "message": str(exc)}


def _config_hash(engine: Engine, method: Method) -> str:
    payload = {
        "method": method.value,
        "mode": engine.mode.value,
        "tree": engine.tree_config.to_dict(),
        "seed": engine.seed,
    }
    return json_digest(payload)


def run_manifest(engine: Engine, method: Method, record_count: int) -> dict:
    backend_ids = [engine.backend.backend_id]
    if engine.verifier is not None:
        backend_ids.append(engine.verifier.verifier_id)
    return {
        "config_hash": _config_hash(engine, method),
        "method": method.value,
        "mode": engine.mode.value,
        "seed": engine.seed,
        "record_count": record_count,
        "backend_ids": backend_ids,
        "prompt_hashes": {key: getattr(engine, name).content_hash()
                          for key, (name, _) in PROMPT_FIELDS.items()},
    }


def evaluate(records: Sequence[DatasetRecord], method: Method, engine: Engine,
             workers: int = 4, results_path: Optional[Union[str, Path]] = None,
             manifest_path: Optional[Union[str, Path]] = None) -> MetricsReport:
    """Run inference over a dataset and score it.

    Records are answered on a pool of ``workers`` threads, or with one
    worker in the calling thread, with no pool; either way they are
    reported strictly in input order, so two runs over the same fixtures
    produce identical JSONL bytes. A record whose inference raises gets
    an error row (its id, the error class and message) instead of a result row,
    counts as answered wrongly and is counted in ``error_count``; the
    other records are unaffected. Pairwise accuracy credits a pair
    only when both members are answered correctly. A ``workers`` that is
    not an int of at least 1 (a bool included) raises ``ValueError``
    before any record runs.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an int of at least 1, not {workers!r}")
    if not records:
        raise ValueError("empty dataset")
    identifiers = [record.id for record in records]
    if len(set(identifiers)) != len(identifiers):
        raise ValueError("duplicate record ids in dataset")

    def attempt(record: DatasetRecord) -> dict:
        try:
            return _result_line(record, infer(record.question, method, engine))
        except Exception as exc:  # one failed record must not end the run
            return _error_line(record, exc)

    if workers == 1:
        lines = [attempt(record) for record in records]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so import maieutic stays light

        with ThreadPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(attempt, records))
    warnings: list[str] = []
    correct_by_id = {line["id"]: line["correct"] for line in lines}
    correct = sum(1 for line in lines if line["correct"])
    pair_count, pair_correct, pairwise = pair_metrics(records, correct_by_id, warnings)
    report = MetricsReport(
        accuracy=correct / len(records),
        pairwise_accuracy=pairwise,
        record_count=len(records),
        correct_count=correct,
        pair_count=pair_count,
        pair_correct_count=pair_correct,
        error_count=sum(1 for line in lines if "error" in line),
        warnings=warnings,
        results=lines,
    )
    if results_path is not None:
        with open(results_path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        if manifest_path is None:
            manifest_path = Path(str(results_path) + ".manifest.json")
    if manifest_path is not None:
        manifest = run_manifest(engine, method, len(records))
        Path(manifest_path).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return report


# --- rendering ---

def _render_literal(cnf: WeightedCnf, literal: tuple[int, bool]) -> str:
    var, polarity = literal
    name = cnf.variables[var]
    return name if polarity else f"¬{name}"


def explain(result: InferenceResult, fmt: str = "text") -> str:
    """Human-readable account of an inference: tree, clauses, objective."""
    if fmt == "json":
        return result_to_json(result)
    if fmt == "dot":
        if result.tree is None:
            raise ValueError("nothing to draw: result carries no tree")
        by_node = assignment_by_node(result.cnf, result.assignment) \
            if result.cnf is not None and result.assignment is not None else None
        return tree_to_dot(result.tree, by_node)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    lines = [f"Question: {result.question}",
             f"Answer: {label_word(result.answer)} ({result.method.value})"]
    if result.explanation:
        lines.append(f"Explanation: {result.explanation}")
    if result.fallback_used:
        lines.append("Fallback: answered by direct prompting "
                     "(no usable evidence for the full pipeline).")
        return "\n".join(lines) + "\n"
    if result.tree is None or result.cnf is None or result.assignment is None:
        return "\n".join(lines) + "\n"

    by_node = assignment_by_node(result.cnf, result.assignment)
    lines.append("Propositions:")
    for node in tree_nodes(result.tree):
        value = by_node.get(node.id)
        mark = "?" if value is None else ("T" if value else "F")
        indent = "  " * node.depth
        lines.append(f"  [{mark}] {indent}{node.id}: {node.text} "
                     f"<{node.integrity.value}>")
    lines.append("Clauses:")
    violated = set(result.assignment.violated)
    for index, clause in enumerate(result.cnf.clauses):
        rendered = " ∨ ".join(_render_literal(result.cnf, literal)
                                   for literal in clause.literals)
        status = "violated" if index in violated else "satisfied"
        lines.append(f"  [{status}] ({rendered}) "
                     f"weight {clause.weight:.6g} <{clause.origin.value}>")
    lines.append(f"Satisfied weight: {result.assignment.satisfied_weight:.6g}"
                 f" of {result.cnf.total_weight():.6g}")
    return "\n".join(lines) + "\n"
