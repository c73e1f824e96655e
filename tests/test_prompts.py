"""Prompt template tests against hand-written expected strings."""
from __future__ import annotations

import json
import sys
import threading

import pytest

from maieutic.backend import CachedBackend, ScriptedBackend, TraceRecorder, negate_all
from maieutic.core import (DecodingParams, DecodingStrategy, NegationStrategy, PromptExample,
                           PromptMode, PromptSet, TreeConfig)
from maieutic.harness import infer_explanation_based
from maieutic.prompts import (
    ANSWER_TOKENS,
    EXPLANATION_STOP_SEQUENCES,
    default_prompt_set,
    load_or_default,
    normalize_statement,
    prefix_negation,
    render_abductive_prompt,
    render_explained_answer_prompt,
    render_explanation_prompt,
    render_negation_prompt,
    render_truth_prompt,
)
from maieutic.tree_builder import build_tree
from maieutic.verifier import ScriptedNliVerifier

QA = PromptSet(PromptMode.QA_PAIRS, (
    PromptExample("Rain falls from clouds?", True),
    PromptExample("Fish can fly long distances?", False),
))

ABDUCTIVE = PromptSet(PromptMode.ABDUCTIVE_TRIPLES, (
    PromptExample("Rain falls from clouds?", True,
                  "Clouds hold condensed water that falls as rain."),
    PromptExample("Fish can fly long distances?", False,
                  "Fish have fins rather than wings."),
))

EXPLAINED = PromptSet(PromptMode.QA_EXPLANATION_TRIPLES, (
    PromptExample("Rain falls from clouds?", True,
                  "Clouds hold condensed water that falls as rain."),
    PromptExample("Fish can fly long distances?", False,
                  "Fish have fins rather than wings."),
))


@pytest.mark.parametrize("raw,expected", [
    ("War cannot have a tie?", "War cannot have a tie"),
    ("  padded claim  ", "padded claim"),
    ("Trailing period.", "Trailing period"),
    ("Doubled??", "Doubled"),
    ("Inner? kept", "Inner? kept"),
])
def test_normalize_statement(raw, expected):
    assert normalize_statement(raw) == expected


@pytest.mark.parametrize("raw", ["", "  ", "?", "?."])
def test_normalize_statement_rejects_empty(raw):
    with pytest.raises(ValueError):
        normalize_statement(raw)


def test_truth_prompt_golden():
    expected = (
        "Rain falls from clouds? True.\n"
        "\n"
        "Fish can fly long distances? False.\n"
        "\n"
        "War cannot have a tie?"
    )
    assert render_truth_prompt("War cannot have a tie?", QA) == expected
    # punctuation on the statement is normalized away first
    assert render_truth_prompt("War cannot have a tie.", QA) == expected


def test_abductive_prompt_golden():
    expected = (
        "Rain falls from clouds? True, because Clouds hold condensed water "
        "that falls as rain.\n"
        "\n"
        "Fish can fly long distances? False, because Fish have fins rather "
        "than wings.\n"
        "\n"
        "War cannot have a tie? True, because"
    )
    assert render_abductive_prompt("War cannot have a tie", True, ABDUCTIVE) == expected
    assert render_abductive_prompt("War cannot have a tie", False, ABDUCTIVE).endswith(
        "War cannot have a tie? False, because")


def test_explanation_prompt_golden():
    expected = (
        "Rain falls from clouds? Clouds hold condensed water that falls as "
        "rain. So the answer is True.\n"
        "\n"
        "Fish can fly long distances? Fish have fins rather than wings. "
        "So the answer is False.\n"
        "\n"
        "War cannot have a tie?"
    )
    assert render_explanation_prompt("War cannot have a tie?", EXPLAINED) == expected


def test_explained_answer_prompt_golden():
    rendered = render_explained_answer_prompt(
        "War cannot have a tie?", "Wars end with a winner.", EXPLAINED)
    assert rendered.endswith(
        "War cannot have a tie? Wars end with a winner. So the answer is")
    with pytest.raises(ValueError):
        render_explained_answer_prompt("War cannot have a tie?", "  ", EXPLAINED)


def test_prompt_mode_is_enforced():
    with pytest.raises(ValueError):
        render_truth_prompt("Water is wet?", ABDUCTIVE)
    with pytest.raises(ValueError):
        render_abductive_prompt("Water is wet?", True, QA)
    with pytest.raises(ValueError):
        render_explanation_prompt("Water is wet?", QA)


def test_negation_prompt_shape():
    rendered = render_negation_prompt("War cannot have a tie.")
    assert rendered.startswith("Rewrite each statement as its negation.")
    assert rendered.endswith("Statement: War cannot have a tie.\nNegation:")
    assert rendered.count("Negation:") == 4  # three demonstrations plus the query


@pytest.mark.parametrize("statement,expected", [
    ("War cannot have a tie",
     "It is wrong to say that war cannot have a tie"),
    ("ice floats", "It is wrong to say that ice floats"),
    ("  Spaced out  ", "It is wrong to say that spaced out"),
])
def test_prefix_negation(statement, expected):
    assert prefix_negation(statement) == expected


def test_prefix_negation_rejects_empty():
    with pytest.raises(ValueError):
        prefix_negation("   ")


def test_answer_tokens_lead_with_a_space():
    # the tokens are scored as continuations, so the separator space
    # belongs to the token, not the prompt
    assert ANSWER_TOKENS == (" True", " False")
    assert EXPLANATION_STOP_SEQUENCES[0] == "So the answer is"


@pytest.mark.parametrize("mode", list(PromptMode))
def test_default_prompt_sets_load(mode):
    prompts = default_prompt_set(mode)
    assert prompts.mode is mode
    assert len(prompts.examples) == 6
    assert prompts.content_hash() == default_prompt_set(mode).content_hash()


@pytest.mark.parametrize("mode,prefix", [
    (PromptMode.QA_PAIRS, "2562e84d7d1f6060"),
    (PromptMode.QA_EXPLANATION_TRIPLES, "d066296e88162a1b"),
    (PromptMode.ABDUCTIVE_TRIPLES, "8e856a51d0038bd3"),
])
def test_default_prompt_hashes_are_pinned(mode, prefix):
    # run manifests record these hashes; a change here must be deliberate
    assert default_prompt_set(mode).content_hash().startswith(prefix)


def test_load_or_default_reads_files(tmp_path):
    path = tmp_path / "prompts.json"
    payload = {
        "mode": "qa_pairs",
        "examples": [{"question": "Rain falls from clouds?", "answer": True}],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    prompts = load_or_default(path, PromptMode.QA_PAIRS)
    assert prompts.examples[0].question == "Rain falls from clouds?"
    with pytest.raises(ValueError):
        load_or_default(path, PromptMode.ABDUCTIVE_TRIPLES)
    assert load_or_default(None, PromptMode.QA_PAIRS).mode is PromptMode.QA_PAIRS


GREEDY = DecodingParams(DecodingStrategy.GREEDY)

# Each rule that a renderer owns, broken through each public operation
# that sends what the renderer renders: a blank statement, and a prompt
# set of the wrong mode.
BROKEN_RULES = {
    "true_probs-blank": lambda lm: lm.true_probs(["Rain falls.", " "], QA),
    "negate_all-prefix-blank": lambda lm: negate_all(["Rain falls.", " "],
                                                     NegationStrategy.PREFIX, lm),
    "negate_all-lm-blank": lambda lm: negate_all(["Rain falls.", " "],
                                                 NegationStrategy.LM_GENERATED, lm),
    "abductive_samples-mode": lambda lm: lm.abductive_samples([("Rain falls?", True)], QA,
                                                              GREEDY),
    "build_tree-abductive-mode": lambda lm: build_tree("Rain falls?", TreeConfig(), lm, QA, QA),
    "build_tree-truth-mode": lambda lm: build_tree("Rain falls?", TreeConfig(), lm,
                                                   ABDUCTIVE, ABDUCTIVE),
    "infer_explanation_based-mode": lambda lm: infer_explanation_based("Rain falls?", lm, QA),
}


@pytest.mark.parametrize("operation", BROKEN_RULES.values(), ids=BROKEN_RULES)
def test_a_broken_rule_raises_before_any_request(operation):
    trace = TraceRecorder()
    with pytest.raises(ValueError):  # a request sent first would miss its fixture
        operation(CachedBackend(ScriptedBackend({}), None, trace=trace))
    assert trace.backend_call_count() == 0


def test_threads_sharing_a_fresh_prompt_set_and_verifier_read_what_one_thread_reads():
    # a prefix and a judgment are each kept on their first use; threads that
    # race to that first use must still all read the one value
    prompts = PromptSet(QA.mode, QA.examples)
    want = render_truth_prompt("Ice floats", QA)
    records = [{"premise": f"p{i}", "hypothesis": "h", "label": "contradict",
                "probs": [0.1, 0.7, 0.2]} for i in range(40)]
    verifier = ScriptedNliVerifier(fixtures=records)
    outcomes = []

    def work():
        outcomes.append((render_truth_prompt("Ice floats", prompts),
                         {verifier.nli(f"p{i}", "h").label_probs for i in range(40)}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter lock often
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [(want, {(0.1, 0.7, 0.2)})] * 8
