"""Prompt rendering for the completion-style backends.

Rendering is deterministic: the same prompt set, question and label
always produce the identical string. A prompt set's demonstrations are
rendered once, on first use, and every later prompt of that set starts
from that same prefix. The truth-scoring prompts end right after the
question mark; the answer is read from the probability of the
``" True"`` and ``" False"`` continuations at that position.
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


# each mode's demonstration block, from one example
_BLOCKS = {
    PromptMode.QA_PAIRS:
        lambda ex: f"{normalize_statement(ex.question)}? {label_word(ex.answer)}.",
    PromptMode.ABDUCTIVE_TRIPLES:
        lambda ex: (f"{normalize_statement(ex.question)}? {label_word(ex.answer)}, "
                    f"because {ex.explanation}"),
    PromptMode.QA_EXPLANATION_TRIPLES:
        lambda ex: (f"{normalize_statement(ex.question)}? {ex.explanation} "
                    f"{_ANSWER_CUE} {label_word(ex.answer)}."),
}


def _prefix(prompts: PromptSet) -> str:
    """The demonstrations every prompt of the set's mode begins with, each
    block followed by the separator. Rendered on first use and kept in the
    frozen set's own ``__dict__``, as ``functools.cached_property`` keeps a
    value: a set renders its demonstrations once, and equal sets alike.
    Threads racing to the first use each render the same text."""
    try:
        return vars(prompts)["_prefix"]
    except KeyError:
        block = _BLOCKS[prompts.mode]
        prefix = vars(prompts)["_prefix"] = "".join(
            block(ex) + _EXAMPLE_SEPARATOR for ex in prompts.examples)
        return prefix


def render_truth_prompt(statement: str, prompts: PromptSet) -> str:
    """Few-shot question/answer prompt ending at the answer position."""
    _require_mode(prompts, PromptMode.QA_PAIRS)
    return f"{_prefix(prompts)}{normalize_statement(statement)}?"


def render_abductive_prompt(question: str, label: bool, prompts: PromptSet) -> str:
    """Prompt that asks the model to rationalize the given answer label."""
    _require_mode(prompts, PromptMode.ABDUCTIVE_TRIPLES)
    return f"{_prefix(prompts)}{normalize_statement(question)}? {label_word(label)}, because"


def render_explanation_prompt(question: str, prompts: PromptSet) -> str:
    """Prompt that elicits an explanation before any answer is named."""
    _require_mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    return f"{_prefix(prompts)}{normalize_statement(question)}?"


def render_explained_answer_prompt(question: str, explanation: str,
                                   prompts: PromptSet) -> str:
    """Prompt that scores the answer given the question plus a sampled explanation."""
    _require_mode(prompts, PromptMode.QA_EXPLANATION_TRIPLES)
    if not explanation.strip():
        raise ValueError("explanation must be non-empty")
    return (f"{_prefix(prompts)}{normalize_statement(question)}? {explanation.strip()} "
            f"{_ANSWER_CUE}")


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
