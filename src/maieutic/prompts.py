"""Prompt rendering for the completion-style backends.

Rendering is deterministic: the same prompt set, question and label
always produce the identical string. The truth-scoring prompts end
right after the question mark; the answer is read from the probability
of the ``" True"`` and ``" False"`` continuations at that position.
"""
from __future__ import annotations

from importlib import resources

from .core import (PromptMode, PromptSet, label_word, load_prompt_set, parse_json,
                   prompt_set_from_dict)

ANSWER_TOKENS = (" True", " False")

_EXAMPLE_SEPARATOR = "\n\n"
_ANSWER_CUE = "So the answer is"


def normalize_statement(text: str) -> str:
    """Trim whitespace and one trailing '?' or '.' so templates control punctuation."""
    text = text.strip()
    while text and text[-1] in "?.":
        text = text[:-1].rstrip()
    if not text:
        raise ValueError("statement is empty after normalization")
    return text


def _require_mode(prompts: PromptSet, mode: PromptMode) -> None:
    if prompts.mode is not mode:
        raise ValueError(f"prompt set mode {prompts.mode.value} where {mode.value} is required")


def render_truth_prompt(statement: str, prompts: PromptSet) -> str:
    """Few-shot question/answer prompt ending at the answer position."""
    _require_mode(prompts, PromptMode.QA_PAIRS)
    blocks = [
        f"{normalize_statement(ex.question)}? {label_word(ex.answer)}."
        for ex in prompts.examples
    ]
    blocks.append(f"{normalize_statement(statement)}?")
    return _EXAMPLE_SEPARATOR.join(blocks)


def render_abductive_prompt(question: str, label: bool, prompts: PromptSet) -> str:
    """Prompt that asks the model to rationalize the given answer label."""
    _require_mode(prompts, PromptMode.ABDUCTIVE_TRIPLES)
    blocks = [
        f"{normalize_statement(ex.question)}? {label_word(ex.answer)}, because {ex.explanation}"
        for ex in prompts.examples
    ]
    blocks.append(f"{normalize_statement(question)}? {label_word(label)}, because")
    return _EXAMPLE_SEPARATOR.join(blocks)


def render_explanation_prompt(question: str, prompts: PromptSet) -> str:
    """Prompt that elicits an explanation before any answer is named."""
    _require_mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    blocks = [
        f"{normalize_statement(ex.question)}? {ex.explanation} "
        f"{_ANSWER_CUE} {label_word(ex.answer)}."
        for ex in prompts.examples
    ]
    blocks.append(f"{normalize_statement(question)}?")
    return _EXAMPLE_SEPARATOR.join(blocks)


def render_explained_answer_prompt(question: str, explanation: str,
                                   prompts: PromptSet) -> str:
    """Prompt that scores the answer given the question plus a sampled explanation."""
    _require_mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    if not explanation.strip():
        raise ValueError("explanation must be non-empty")
    blocks = [
        f"{normalize_statement(ex.question)}? {ex.explanation} "
        f"{_ANSWER_CUE} {label_word(ex.answer)}."
        for ex in prompts.examples
    ]
    blocks.append(f"{normalize_statement(question)}? {explanation.strip()} {_ANSWER_CUE}")
    return _EXAMPLE_SEPARATOR.join(blocks)


_NEGATION_EXAMPLES = (
    ("The sky is blue on a clear day.", "The sky is not blue on a clear day."),
    ("Cats are mammals.", "Cats are not mammals."),
    ("Lead floats on water.", "Lead does not float on water."),
)


def render_negation_prompt(statement: str) -> str:
    """Prompt for model-generated sentence negation."""
    if not statement.strip():
        raise ValueError("statement must be non-empty")
    blocks = ["Rewrite each statement as its negation."]
    for original, negated in _NEGATION_EXAMPLES:
        blocks.append(f"Statement: {original}\nNegation: {negated}")
    blocks.append(f"Statement: {statement.strip()}\nNegation:")
    return _EXAMPLE_SEPARATOR.join(blocks)


def prefix_negation(statement: str) -> str:
    """Negate by prefixing and lowercasing the first letter of the statement."""
    statement = statement.strip()
    if not statement:
        raise ValueError("statement must be non-empty")
    return f"It is wrong to say that {statement[0].lower()}{statement[1:]}"


EXPLANATION_STOP_SEQUENCES = (_ANSWER_CUE, "\n")

_DEFAULT_PROMPT_FILES = {
    PromptMode.QA_PAIRS: "qa_pairs.json",
    PromptMode.QA_EXPLANATION_TRIPLES: "qa_explanation_triples.json",
    PromptMode.ABDUCTIVE_TRIPLES: "abductive_triples.json",
}


def default_prompt_set(mode: PromptMode) -> PromptSet:
    """Demonstration examples bundled with the package.

    These six examples are stand-ins written for offline use; swap in
    your own prompt files for any serious run.
    """
    name = _DEFAULT_PROMPT_FILES[mode]
    resource = resources.files("maieutic").joinpath("data").joinpath("prompts").joinpath(name)
    return prompt_set_from_dict(parse_json(resource.read_text("utf-8")))


def load_or_default(path, mode: PromptMode) -> PromptSet:
    if path is None:
        return default_prompt_set(mode)
    prompts = load_prompt_set(path)
    _require_mode(prompts, mode)
    return prompts
