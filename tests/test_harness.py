"""End-to-end inference, dataset scoring and rationale rendering."""
from __future__ import annotations

import json
import math
import threading
from collections import Counter
from dataclasses import replace

import pytest

from maieutic import backend as backend_module
from maieutic import core, harness, tree_builder
from maieutic.backend import (CachedBackend, FixtureBuilder, LmBackend, ResponseCache,
                              TraceRecorder, read_trace)
from maieutic.compiler import CompileMode
from maieutic.core import (
    DecodingStrategy,
    NegationStrategy,
    PromptExample,
    PromptMode,
    PromptSet,
    TreeConfig,
    tree_to_dict,
)
from maieutic.errors import MissingGold
from maieutic.harness import (
    DatasetRecord,
    Engine,
    Method,
    _complete_pairs,
    compile_question,
    evaluate,
    explain,
    infer,
    infer_explanation_based,
    infer_maieutic,
    infer_standard,
    load_dataset,
    pair_metrics,
    result_to_dict,
    result_to_json,
    run_manifest,
)
from maieutic.prompts import prefix_negation
from maieutic.solver import assignment_by_node
from maieutic.verifier import ScriptedNliVerifier
from worlds import (
    EXPLANATION_PROMPTS,
    WAR_E_F,
    WAR_E_T,
    WAR_E_TF,
    WAR_E_TT,
    WAR_NLI_RECORDS,
    WAR_QUESTION,
    NARROW_CONFIG,
    TRUTH_PROMPTS,
    ambiguous_world,
    eval_backend,
    random_world,
    war_world,
    fixed_tree,
)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _war_engine() -> Engine:
    return Engine(backend=war_world(include_logprobs=True).backend(),
                  tree_config=NARROW_CONFIG)


# --- single-question inference ---

def test_standard_answers_by_direct_scoring():
    builder = FixtureBuilder()
    builder.truth("Water is wet?", TRUTH_PROMPTS, 0.8, 0.2)
    result = infer_standard("Water is wet?", builder.backend(), TRUTH_PROMPTS)
    assert result.answer is True
    assert result.method is Method.STANDARD
    assert not result.fallback_used
    assert result.tree is None and result.cnf is None


def test_standard_tie_defaults_to_false_with_flag():
    builder = FixtureBuilder()
    builder.truth("Coin lands heads?", TRUTH_PROMPTS, 0.5, 0.5)
    result = infer_standard("Coin lands heads?", builder.backend(), TRUTH_PROMPTS)
    assert result.answer is False
    assert result.fallback_used


def test_explanation_based_records_its_explanation():
    question = "Glass is a liquid?"
    builder = FixtureBuilder()
    builder.explanation_samples(question, EXPLANATION_PROMPTS,
                                ["Glass is an amorphous solid."])
    builder.explained_answer(question, "Glass is an amorphous solid.",
                             EXPLANATION_PROMPTS, 0.3, 0.7)
    engine = Engine(backend=builder.backend())
    result = infer(question, Method.EXPLANATION_BASED, engine)
    assert result.answer is False
    assert result.method is Method.EXPLANATION_BASED
    assert result.explanation == "Glass is an amorphous solid."
    assert not result.fallback_used


def test_explanation_based_blank_generation_falls_back():
    question = "Glass is a liquid?"
    qa_view = PromptSet(PromptMode.QA_PAIRS,
                        tuple(PromptExample(e.question, e.answer)
                              for e in EXPLANATION_PROMPTS.examples))
    builder = FixtureBuilder()
    builder.explanation_samples(question, EXPLANATION_PROMPTS, ["   "])
    builder.truth(question, qa_view, 0.25, 0.75)
    result = infer_explanation_based(question, builder.backend(),
                                     EXPLANATION_PROMPTS)
    assert result.answer is False
    assert result.fallback_used
    assert result.method is Method.EXPLANATION_BASED
    assert result.explanation is None


def test_explanation_based_tie_keeps_the_explanation():
    question = "Glass is a liquid?"
    builder = FixtureBuilder()
    builder.explanation_samples(question, EXPLANATION_PROMPTS, ["No idea."])
    builder.explained_answer(question, "No idea.", EXPLANATION_PROMPTS, 0.5, 0.5)
    result = infer_explanation_based(question, builder.backend(),
                                     EXPLANATION_PROMPTS)
    assert result.answer is False
    assert result.fallback_used
    assert result.explanation == "No idea."


def test_explanation_based_rejects_wrong_prompt_mode():
    with pytest.raises(ValueError):
        infer_explanation_based("q?", FixtureBuilder().backend(), TRUTH_PROMPTS)


def test_maieutic_full_pipeline_on_the_golden_scenario():
    result = infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine())
    assert result.answer is True
    assert result.method is Method.MAIEUTIC
    assert not result.fallback_used
    assert tree_to_dict(result.tree) == tree_to_dict(fixed_tree())
    # the weak False leaves get overruled: the belief clause for the
    # depth-1 False branch and the consistency clause for the TF edge
    # are the cheapest pair to give up
    assert result.true_propositions == [WAR_E_T, WAR_E_TT, WAR_E_TF]
    assert result.assignment.violated == [2, 6]
    belief_tt = (0.90 - 0.15) / (0.90 + 0.15)
    belief_tf = (0.55 - 0.45) / (0.55 + 0.45)
    belief_f = (0.65 - 0.40) / (0.65 + 0.40)
    expected = (belief_tt + belief_tf + _sigmoid(-12.0 + 14.0)
                + _sigmoid(-9.0 + 11.5) + _sigmoid(-7.0 + 7.0))
    expected_total = expected + belief_f + _sigmoid(-20.0 + 13.0)
    assert result.assignment.satisfied_weight == pytest.approx(expected, rel=1e-12)
    assert result.cnf.total_weight() == pytest.approx(expected_total, rel=1e-12)


@pytest.mark.parametrize("mode", list(CompileMode))
def test_a_compiled_question_walks_its_tree_twice(monkeypatch, mode):
    # once to prune the grown tree, once to number the pruned one; every
    # clause builder and the true propositions read that numbering
    walks = []
    walk = core.tree_nodes

    def counted(tree):
        walks.append(len(tree.nodes))
        return walk(tree)
    for module in (core, tree_builder, harness):
        monkeypatch.setattr(module, "tree_nodes", counted)
    engine = Engine(backend=war_world(include_logprobs=True).backend(),
                    tree_config=NARROW_CONFIG, mode=mode,
                    verifier=ScriptedNliVerifier(WAR_NLI_RECORDS, strict=False))
    result = infer_maieutic(WAR_QUESTION, engine)
    assert result.cnf is not None
    assert walks == [len(result.tree.nodes)] * 2
    by_node = assignment_by_node(result.cnf, result.assignment)
    assert result.true_propositions == [node.text for node in walk(result.tree)[1:]
                                        if by_node[node.id]]


@pytest.mark.parametrize("mode", list(CompileMode))
def test_a_question_checks_its_grown_and_its_pruned_tree_once_each(monkeypatch, mode):
    checked = []
    check = core.MaieuticTree.__post_init__

    def counted(tree):
        check(tree)
        checked.append(tree)
    monkeypatch.setattr(core.MaieuticTree, "__post_init__", counted)
    engine = Engine(backend=war_world(include_logprobs=True).backend(),
                    tree_config=NARROW_CONFIG, mode=mode,
                    verifier=ScriptedNliVerifier(WAR_NLI_RECORDS, strict=False))
    result = infer_maieutic(WAR_QUESTION, engine)
    assert len(checked) == 2 and checked[1] is result.tree


@pytest.mark.parametrize("mode", list(CompileMode))
def test_the_war_scenario_writes_its_golden_result_json(data_dir, mode):
    likelihood = mode is CompileMode.LIKELIHOOD
    engine = Engine(backend=war_world(include_logprobs=likelihood).backend(),
                    tree_config=NARROW_CONFIG, mode=mode,
                    verifier=None if likelihood else ScriptedNliVerifier(WAR_NLI_RECORDS,
                                                                         strict=False))
    written = result_to_json(infer(WAR_QUESTION, Method.MAIEUTIC, engine)).encode("utf-8")
    assert written == (data_dir / f"result_war_{mode.value}.json").read_bytes()


def test_an_engine_in_verifier_mode_without_a_verifier_is_refused_before_any_request():
    backend = CachedBackend(war_world().backend(), None)
    with pytest.raises(ValueError, match="verifier mode needs an NLI verifier"):
        Engine(backend=backend, tree_config=NARROW_CONFIG, mode=CompileMode.VERIFIER)
    assert backend.trace.backend_call_count() == 0


def test_maieutic_repeat_runs_serialize_identically():
    first = result_to_json(infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine()))
    second = result_to_json(infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine()))
    assert first == second
    assert first.endswith("\n")


def test_maieutic_falls_back_when_nothing_survives_pruning():
    engine = Engine(backend=ambiguous_world().backend(),
                    tree_config=NARROW_CONFIG)
    result = infer_maieutic("Everything here is perfectly ambiguous?", engine)
    assert result.answer is True          # direct scoring leans True at 0.6
    assert result.fallback_used
    assert result.tree is not None and result.tree.is_root_only()
    assert result.cnf is None and result.assignment is None
    assert result.true_propositions == []


def test_a_fallback_sends_no_request_beyond_growing_the_tree():
    # the direct answer is the root's own truth check, made while growing
    question = "Everything here is perfectly ambiguous?"

    def requests(run) -> int:
        backend = CachedBackend(ambiguous_world().backend(), None)
        run(Engine(backend=backend, tree_config=NARROW_CONFIG))
        return backend.trace.backend_call_count()

    grown = requests(lambda engine: compile_question(question, engine))
    assert grown > 0
    assert requests(lambda engine: infer_maieutic(question, engine)) == grown


def _counted_batches(backend) -> list[str]:
    """The primitive of each batch of at least one request that reaches ``backend``."""
    primitives, batch = [], backend._batch

    def counted(primitive, arguments):
        if arguments:
            primitives.append(primitive)
        return batch(primitive, arguments)

    backend._batch = counted
    return primitives


@pytest.mark.parametrize("negation,rounds", [
    (NegationStrategy.PREFIX, ["_complete", "_score_answer"] * 2 + ["_completion_logprob"]),
    (NegationStrategy.LM_GENERATED,
     ["_complete", "_complete", "_score_answer"] * 2 + ["_completion_logprob"]),
], ids=["prefix", "lm_generated"])
def test_a_grown_question_takes_one_round_per_dependent_step(negation, rounds):
    # depth 1 abductions, then the truth checks of the root and its
    # children; the same at depth 2; then every edge log-likelihood
    world, question = random_world(1)
    for text in list(world.probs):
        world.builder.negation(text, prefix_negation(text))
    backend = world.backend()
    batches = _counted_batches(backend)
    engine = Engine(backend=backend,
                    tree_config=replace(TreeConfig(), negation_strategy=negation))
    result = infer(question, Method.MAIEUTIC, engine)
    assert not result.fallback_used
    assert any(node.depth == 2 for node in result.tree.nodes.values())
    assert batches == rounds


def test_result_dict_shape():
    result = infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine())
    data = result_to_dict(result)
    assert list(data) == ["question", "answer", "method", "fallback_used",
                          "explanation", "true_propositions", "tree",
                          "clauses", "assignment"]
    assert data["assignment"]["values"] == {
        "F.0": False, "T.0": True, "T.0.F.0": True, "T.0.T.0": True,
        "root": True}
    assert data["assignment"]["violated"] == [2, 6]
    assert json.loads(result_to_json(result)) == data


def test_result_dict_for_plain_answers_keeps_the_slots():
    builder = FixtureBuilder()
    builder.truth("Water is wet?", TRUTH_PROMPTS, 0.8, 0.2)
    data = result_to_dict(infer_standard("Water is wet?", builder.backend(),
                                         TRUTH_PROMPTS))
    assert data["tree"] is None and data["clauses"] is None
    assert data["assignment"] is None and data["explanation"] is None


# --- datasets ---

def test_load_native_dataset(data_dir):
    records = load_dataset(data_dir / "eval_records.jsonl")
    assert len(records) == 12
    assert records[0] == DatasetRecord("r01", "A dozen contains twelve items?",
                                       True, "r02")
    assert records[8].gold is False and records[8].pair_id == "r10"


def test_benchmark_adapters(tmp_path):
    cases = {
        "com2sense": (
            [{"id": "c1", "sent": "Stoves get hot.", "label": "True",
              "pair_id": "c2"},
             {"id": "c2", "sentence": "Stoves stay cold.", "label": "False",
              "pair_id": "c1"}],
            [DatasetRecord("c1", "Stoves get hot.", True, "c2"),
             DatasetRecord("c2", "Stoves stay cold.", False, "c1")]),
        "csqa2": (
            [{"id": "q7", "question": "Gears can turn?", "answer": "yes"},
             {"id": "q8", "question": "Gears can sing?", "answer": "no"}],
            [DatasetRecord("q7", "Gears can turn?", True, None),
             DatasetRecord("q8", "Gears can sing?", False, None)]),
        "creak": (
            [{"ex_id": "k3", "sentence": "Paris is in France.",
              "label": "true"}],
            [DatasetRecord("k3", "Paris is in France.", True, None)]),
    }
    for adapter, (rows, expected) in cases.items():
        path = tmp_path / f"{adapter}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows),
                        encoding="utf-8")
        assert load_dataset(path, adapter) == expected


def test_label_spellings_and_fallback_ids(tmp_path):
    rows = [{"question": "a?", "label": spelling}
            for spelling in (True, "yes", "1", "0", "no", False)]
    path = tmp_path / "labels.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows),
                    encoding="utf-8")
    records = load_dataset(path)
    assert [r.gold for r in records] == [True, True, True, False, False, False]
    assert [r.id for r in records] == [f"r{n}" for n in range(1, 7)]


@pytest.mark.parametrize("row", [
    {"question": "a?"},
    {"question": "a?", "label": "perhaps"},
])
def test_unusable_gold_labels_are_rejected(tmp_path, row):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(MissingGold):
        load_dataset(path)


def test_malformed_jsonl_reports_the_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"question": "a?", "label": true}\n{oops\n',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("adapter,row", [
    ("native", {"id": "n1", "label": True}),
    ("native", {"id": "n1", "question": "  ", "label": True}),
    ("com2sense", {"id": "c1", "label": "True"}),
    ("csqa2", {"id": "q1", "answer": "yes"}),
    ("creak", {"ex_id": "k1", "label": "true"}),
])
def test_records_without_question_text_name_the_line(tmp_path, adapter, row):
    path = tmp_path / "missing.jsonl"
    good = {"native": {"question": "a?", "label": True},
            "com2sense": {"sent": "a.", "label": "True"},
            "csqa2": {"question": "a?", "answer": "no"},
            "creak": {"sentence": "a.", "label": "false"}}[adapter]
    path.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: no question text"):
        load_dataset(path, adapter)


@pytest.mark.parametrize("row, message", [
    ({"question": ["a?"], "label": True}, r"question \['a\?'\] is not a string"),
    ({"question": {"q": "a?"}, "label": True}, "question .* is not a string"),
    ({"question": 7, "label": True}, "question 7 is not a string"),
    ({"id": ["r1"], "question": "a?", "label": True}, "id .* is not a string or an integer"),
    ({"id": {"n": 1}, "question": "a?", "label": True}, "id .* is not a string or an integer"),
    ({"id": True, "question": "a?", "label": True}, "id True is not a string"),
    ({"id": 1.5, "question": "a?", "label": True}, "id 1.5 is not a string"),
    ({"question": "a?", "label": True, "pair_id": ["r1"]}, "pair_id .* is not a string"),
    ({"question": "a?", "label": True, "pair_id": False}, "pair_id False is not a string"),
], ids=["question-list", "question-object", "question-number", "id-list", "id-object",
        "id-bool", "id-float", "pair-list", "pair-bool"])
def test_values_that_are_not_text_or_ids_name_the_line(tmp_path, row, message):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps({"question": "a?", "label": True}) + "\n" + json.dumps(row)
                    + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        load_dataset(path)


def test_integer_ids_become_text(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps({"id": 1, "question": "a?", "label": True, "pair_id": 2}) + "\n"
                    + json.dumps({"id": 2, "question": "b?", "label": False, "pair_id": None})
                    + "\n", encoding="utf-8")
    assert load_dataset(path) == [DatasetRecord("1", "a?", True, "2"),
                                  DatasetRecord("2", "b?", False, None)]


def test_non_object_rows_name_the_line(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('["a?", true]\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: not a JSON object"):
        load_dataset(path)


def test_unknown_adapter_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown adapter"):
        load_dataset(tmp_path / "x.jsonl", adapter="nope")


# --- pair metrics ---

def test_pair_discovery_warns_and_skips():
    records = [
        DatasetRecord("a", "qa?", True, "b"),
        DatasetRecord("b", "qb?", False, "a"),
        DatasetRecord("c", "qc?", True, "c"),
        DatasetRecord("d", "qd?", True, "zz"),
        DatasetRecord("e", "qe?", True, None),
    ]
    warnings: list[str] = []
    assert _complete_pairs(records, warnings) == [("a", "b")]
    assert len(warnings) == 2
    assert "itself" in warnings[0]
    assert "missing counterpart" in warnings[1]


def test_pair_metrics_hand_counts():
    records = [DatasetRecord("a", "q?", True, "b"),
               DatasetRecord("b", "q?", True, "a"),
               DatasetRecord("c", "q?", True, "d"),
               DatasetRecord("d", "q?", True, "c")]
    correct = {"a": True, "b": False, "c": True, "d": True}
    assert pair_metrics(records, correct, []) == (2, 1, 0.5)
    unpaired = [DatasetRecord("a", "q?", True), DatasetRecord("b", "q?", True)]
    assert pair_metrics(unpaired, {"a": True, "b": True}, []) == (0, 0, None)


# --- dataset evaluation ---

def test_evaluate_matches_hand_counts(data_dir, tmp_path):
    records = load_dataset(data_dir / "eval_records.jsonl")
    engine = Engine(backend=eval_backend())
    results_path = tmp_path / "results.jsonl"
    report = evaluate(records, Method.STANDARD, engine, workers=3,
                      results_path=results_path)
    assert report.accuracy == 0.75
    assert report.correct_count == 9 and report.record_count == 12
    assert report.pair_count == 6 and report.pair_correct_count == 4
    assert report.pairwise_accuracy == 4 / 6
    assert report.error_count == 0
    assert report.warnings == []
    assert report.to_dict()["accuracy"] == 0.75

    lines = [json.loads(line) for line in
             results_path.read_text(encoding="utf-8").splitlines()]
    assert [line["id"] for line in lines] == [f"r{n:02d}" for n in range(1, 13)]
    assert lines[0] == {"id": "r01", "question": "A dozen contains twelve items?",
                        "gold": True, "pair_id": "r02", "answer": True,
                        "correct": True, "method": "standard",
                        "fallback_used": False, "true_propositions": [],
                        "satisfied_weight": None}
    assert lines[1]["correct"] is False      # planted 0.7 answers True

    manifest = json.loads(
        (tmp_path / "results.jsonl.manifest.json").read_text(encoding="utf-8"))
    assert manifest["record_count"] == 12
    assert manifest["method"] == "standard"
    assert manifest["backend_ids"] == ["scripted"]
    assert manifest["prompt_hashes"]["truth"] == TRUTH_PROMPTS.content_hash()


def test_evaluate_is_byte_deterministic(data_dir, tmp_path):
    records = load_dataset(data_dir / "eval_records.jsonl")
    paths = []
    for run in range(2):
        path = tmp_path / f"run{run}.jsonl"
        evaluate(records, Method.STANDARD, Engine(backend=eval_backend()),
                 workers=4, results_path=path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_one_worker_answers_every_record_on_the_calling_thread(data_dir, monkeypatch):
    records = load_dataset(data_dir / "eval_records.jsonl")
    threads, started = [], []
    answer = harness.infer
    monkeypatch.setattr(harness, "infer", lambda *args: threads.append(
        threading.current_thread()) or answer(*args))
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))
    report = evaluate(records, Method.STANDARD, Engine(backend=eval_backend()), workers=1)
    assert report.record_count == len(threads) == 12
    assert set(threads) == {threading.current_thread()}
    assert started == []


@pytest.mark.parametrize("seed", [7, None], ids=["seeded", "unseeded"])
def test_a_cached_evaluation_digests_each_request_once(tmp_path, monkeypatch, seed):
    # the wrapper digests each request once and hands a miss's digest to the
    # scripted lookup, which then makes none; a wrap on a scripted primitive,
    # as the benchmark sets to count requests, still sees each miss once
    fixtures, records = FixtureBuilder(), []
    for world_seed in range(3):
        world, question = random_world(world_seed)
        fixtures.merge(world.builder)
        records.append(DatasetRecord(f"r{world_seed}", question, gold=True))
    inner = fixtures.backend()
    calls, asked, unseeded = Counter(), Counter(), []
    for name in ("request_digest", "cache_key"):
        function = getattr(backend_module, name)
        monkeypatch.setattr(backend_module, name, lambda *args, name=name, function=function:
                            calls.update([name]) or function(*args))
    for primitive, form in LmBackend._FORMS.items():
        def wrapped(*args, kind=form.kind, lookup=getattr(inner, primitive), **kwargs):
            asked.update([kind])
            if kind == "completion" and args[1].strategy is DecodingStrategy.NUCLEUS \
                    and seed is None:
                unseeded.append(args)  # no cache key holds its answer
            return lookup(*args, **kwargs)
        setattr(inner, primitive, wrapped)
    cached = CachedBackend(inner, ResponseCache(tmp_path), seed=seed,
                           trace=TraceRecorder(tmp_path / "trace.jsonl"))
    engine = Engine(backend=cached)
    written = 0
    for _ in ("cold", "warm"):
        calls.clear()
        asked.clear()
        unseeded.clear()
        assert evaluate(records, Method.MAIEUTIC, engine, workers=1).error_count == 0
        trace = read_trace(tmp_path / "trace.jsonl")[written:]
        written += len(trace)
        assert calls["request_digest"] == len(trace)
        assert calls["cache_key"] == len(trace) - len(unseeded)
        assert Counter(record["purpose"] for record in trace if not record["cache_hit"]) == asked
    # warm, only the requests that no cache key holds reach the model
    assert asked.total() == len(unseeded) and (seed is None) == bool(unseeded)


def test_evaluate_rejects_bad_record_sets():
    engine = Engine(backend=eval_backend())
    with pytest.raises(ValueError, match="empty"):
        evaluate([], Method.STANDARD, engine)
    twice = [DatasetRecord("x", "a?", True), DatasetRecord("x", "b?", False)]
    with pytest.raises(ValueError, match="duplicate"):
        evaluate(twice, Method.STANDARD, engine)


@pytest.mark.parametrize("workers", [0, -7, True, 2.0, "4", None])
def test_evaluate_refuses_a_workers_value_before_any_record_runs(tmp_path, workers):
    asked = []
    backend = eval_backend()
    backend._score_answer = lambda prompt: asked.append(prompt)
    results = tmp_path / "results.jsonl"
    with pytest.raises(ValueError, match=r"workers must be an int of at least 1"):
        evaluate([DatasetRecord("r01", "Trains run on rails?", True)], Method.STANDARD,
                 Engine(backend=backend), workers=workers, results_path=results)
    assert asked == [] and not results.exists()


def test_run_manifest_hash_tracks_the_configuration():
    first = run_manifest(Engine(backend=eval_backend()), Method.STANDARD, 12)
    again = run_manifest(Engine(backend=eval_backend()), Method.STANDARD, 12)
    reseeded = run_manifest(Engine(backend=eval_backend(), seed=7),
                            Method.STANDARD, 12)
    assert first["config_hash"] == again["config_hash"]
    assert first["config_hash"] != reseeded["config_hash"]
    assert first["seed"] == 0 and reseeded["seed"] == 7


# --- rationale rendering ---

def test_explain_text_layout():
    result = infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine())
    text = explain(result)
    lines = text.splitlines()
    assert lines[0] == "Question: War cannot have a tie?"
    assert lines[1] == "Answer: True (maieutic)"
    assert "  [T] root: War cannot have a tie <integral_true>" in lines
    assert ("  [T]   T.0: In a context of war, there's always a victor "
            "and a loser. <not_integral>") in lines
    assert f"  [F]   F.0: {WAR_E_F} <integral_true>" in lines
    assert text.count("[violated]") == 2
    assert any("¬" in line and "∨" in line for line in lines)
    belief_f = (0.65 - 0.40) / (0.65 + 0.40)
    expected = ((0.90 - 0.15) / (0.90 + 0.15) + (0.55 - 0.45) / (0.55 + 0.45)
                + _sigmoid(2.0) + _sigmoid(2.5) + _sigmoid(0.0))
    total = expected + belief_f + _sigmoid(-7.0)
    assert lines[-1] == f"Satisfied weight: {expected:.6g} of {total:.6g}"


def test_explain_fallback_is_a_single_note():
    engine = Engine(backend=ambiguous_world().backend(),
                    tree_config=NARROW_CONFIG)
    result = infer_maieutic("Everything here is perfectly ambiguous?", engine)
    assert explain(result) == (
        "Question: Everything here is perfectly ambiguous?\n"
        "Answer: True (maieutic)\n"
        "Fallback: answered by direct prompting "
        "(no usable evidence for the full pipeline).\n")


def test_explain_text_without_a_tree_is_two_lines():
    builder = FixtureBuilder()
    builder.truth("Water is wet?", TRUTH_PROMPTS, 0.8, 0.2)
    result = infer_standard("Water is wet?", builder.backend(), TRUTH_PROMPTS)
    assert explain(result) == "Question: Water is wet?\nAnswer: True (standard)\n"


def test_explain_other_formats():
    result = infer(WAR_QUESTION, Method.MAIEUTIC, _war_engine())
    assert explain(result, "json") == result_to_json(result)
    dot = explain(result, "dot")
    assert dot.startswith("digraph")
    assert "palegreen" in dot and "lightcoral" in dot
    with pytest.raises(ValueError, match="unknown format"):
        explain(result, "yaml")
    bare = infer_standard("Water is wet?", _bare_backend(), TRUTH_PROMPTS)
    with pytest.raises(ValueError, match="no tree"):
        explain(bare, "dot")


def _bare_backend():
    builder = FixtureBuilder()
    builder.truth("Water is wet?", TRUTH_PROMPTS, 0.8, 0.2)
    return builder.backend()
