"""Config files, engine wiring and the command-line entry point."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from maieutic import cli
from maieutic.backend import CachedBackend, FixtureBuilder, ScriptedBackend, read_trace
from maieutic.compiler import CompileMode
from maieutic.config import EngineConfig, build_engine
from maieutic.core import (
    PromptExample,
    PromptMode,
    PromptSet,
    TreeConfig,
    prompt_set_to_dict,
    tree_to_json,
)
from maieutic.prompts import default_prompt_set
from maieutic.solver import import_wcnf
from maieutic.harness import Method, evaluate, load_dataset
from maieutic.verifier import CachedVerifier, HttpNliVerifier, NliLabel, ScriptedNliVerifier
from scenarios import (
    EVAL_ROWS,
    WAR_NLI_RECORDS,
    WAR_QUESTION,
    NARROW_CONFIG,
    TRUTH_PROMPTS,
    ambiguous_world,
    eval_backend,
    war_world,
    fixed_tree,
    random_world,
)


@pytest.fixture()
def war_fixture_file(tmp_path):
    world = war_world(include_logprobs=True)
    return world.builder.write(tmp_path / "war_fixtures.json")


@pytest.fixture()
def eval_fixture_file(tmp_path):
    builder = FixtureBuilder()
    for _, question, _, _, true_prob in EVAL_ROWS:
        builder.truth(question, TRUTH_PROMPTS, true_prob, 1.0 - true_prob)
    return builder.write(tmp_path / "eval_fixtures.json")


@pytest.fixture()
def narrow_config_file(tmp_path, war_fixture_file):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps({
        "backend": {"kind": "scripted", "fixtures": str(war_fixture_file)},
        "tree": NARROW_CONFIG.to_dict(),
    }), encoding="utf-8")
    return path


# --- config parsing ---

def test_config_defaults():
    config = EngineConfig.from_dict({})
    assert config.backend == {"kind": "scripted"}
    assert config.verifier is None
    assert config.mode is CompileMode.LIKELIHOOD
    assert config.tree == TreeConfig()
    assert config.seed == 0 and config.workers == 4


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: colour"):
        EngineConfig.from_dict({"colour": "blue"})


def test_config_round_trips_through_dict():
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": "/abs/fx.json"},
        "verifier": {"kind": "scripted", "fixtures": "/abs/nli.json",
                     "strict": False},
        "mode": "verifier",
        "tree": NARROW_CONFIG.to_dict(),
        "seed": 3,
        "workers": 2,
    })
    assert config.mode is CompileMode.VERIFIER
    assert config.tree == NARROW_CONFIG
    assert EngineConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()


def test_config_file_resolves_relative_paths(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    path = nested / "run.json"
    path.write_text(json.dumps({
        "backend": {"kind": "scripted", "fixtures": "fx.json"},
        "verifier": {"kind": "scripted", "fixtures": "nli.json"},
        "prompts": {"truth": "truth_prompts.json"},
        "cache_dir": "cache",
        "trace_path": "trace.jsonl",
    }), encoding="utf-8")
    config = EngineConfig.from_file(path)
    assert config.backend["fixtures"] == str(nested / "fx.json")
    assert config.verifier["fixtures"] == str(nested / "nli.json")
    assert config.prompts["truth"] == str(nested / "truth_prompts.json")
    assert config.cache_dir == str(nested / "cache")
    assert config.trace_path == str(nested / "trace.jsonl")


def test_config_file_keeps_absolute_paths(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "backend": {"kind": "scripted", "fixtures": "/abs/fx.json"},
    }), encoding="utf-8")
    assert EngineConfig.from_file(path).backend["fixtures"] == "/abs/fx.json"


def test_config_file_accepts_toml(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text('mode = "verifier"\nseed = 5\n\n'
                    '[backend]\nkind = "scripted"\nfixtures = "fx.json"\n\n'
                    '[verifier]\nkind = "scripted"\nfixtures = "nli.json"\n',
                    encoding="utf-8")
    config = EngineConfig.from_file(path)
    assert config.mode is CompileMode.VERIFIER
    assert config.seed == 5
    assert config.backend["fixtures"] == str(tmp_path / "fx.json")


# --- engine wiring ---

def test_build_engine_needs_fixtures_for_scripted_backends():
    with pytest.raises(ValueError, match="fixtures"):
        build_engine(EngineConfig())


def test_build_engine_runs_from_a_fixture_file(eval_fixture_file):
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)}})
    engine = build_engine(config)
    assert isinstance(engine.backend, ScriptedBackend)
    response = engine.backend.true_prob("Trains run on rails?",
                                        engine.truth_prompts)
    assert response.argmax() is True


def test_build_engine_wraps_caching_and_tracing(tmp_path, eval_fixture_file):
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "cache_dir": str(tmp_path / "cache"),
        "trace_path": str(tmp_path / "trace.jsonl"),
    })
    engine = build_engine(config)
    assert isinstance(engine.backend, CachedBackend)
    engine.backend.true_prob("Trains run on rails?", engine.truth_prompts)
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "cache" / "responses.jsonl").read_text(encoding="utf-8").strip()


def test_a_cached_verifier_rerun_sends_no_nli_requests(tmp_path, data_dir):
    records = load_dataset(data_dir / "eval_records.jsonl")
    merged, nli_records = FixtureBuilder(), []
    for index, record in enumerate(records):
        world, _ = random_world(900 + index, question=record.question)
        merged.merge(world.builder)
        nli_records += [{"premise": first, "hypothesis": second, "label": "contradict"}
                        for first in world.probs for second in world.probs
                        if first < second and len(first) % 3 == 0]
    nli_path = tmp_path / "nli.json"
    nli_path.write_text(json.dumps(nli_records), encoding="utf-8")
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(merged.write(tmp_path / "lm.json"))},
        "verifier": {"kind": "scripted", "fixtures": str(nli_path), "strict": False},
        "mode": "verifier", "seed": 0,
        "cache_dir": str(tmp_path / "cache"), "trace_path": str(tmp_path / "trace.jsonl"),
    })

    def run(tag: str) -> tuple[bytes, int, int, dict]:
        engine = build_engine(config)
        assert isinstance(engine.verifier, CachedVerifier)
        sent = []
        inner = engine.verifier.inner
        original = inner.nli
        inner.nli = lambda *pair: sent.append(pair) or original(*pair)
        path, manifest = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.manifest.json"
        trace = engine.backend.trace.path
        earlier = len(read_trace(trace)) if trace.exists() else 0  # both runs append
        evaluate(records, Method.MAIEUTIC, engine, workers=4, results_path=path,
                 manifest_path=manifest)
        hits = sum(1 for entry in read_trace(trace)[earlier:]
                   if entry["purpose"] == "nli" and entry["cache_hit"])
        return (path.read_bytes(), len(sent), hits,
                json.loads(manifest.read_text(encoding="utf-8"))["backend_ids"])

    first_bytes, first_sent, _, first_ids = run("first")
    second_bytes, second_sent, second_hits, second_ids = run("second")
    assert first_bytes == second_bytes
    assert first_sent > 0
    assert second_sent == 0
    assert second_hits >= first_sent
    assert first_ids == second_ids == ["scripted", "scripted-nli"]


def test_build_engine_wires_a_scripted_verifier(tmp_path, eval_fixture_file):
    nli_path = tmp_path / "nli.json"
    nli_path.write_text(json.dumps(WAR_NLI_RECORDS), encoding="utf-8")
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "verifier": {"kind": "scripted", "fixtures": str(nli_path),
                     "strict": False},
        "mode": "verifier",
    })
    engine = build_engine(config)
    assert isinstance(engine.verifier, ScriptedNliVerifier)
    assert engine.verifier.nli("unseen", "pair").label is NliLabel.NEUTRAL


def test_build_engine_passes_http_verifier_timeout_and_retries(eval_fixture_file,
                                                              monkeypatch):
    monkeypatch.setenv("MAIEUTIC_NLI_ENDPOINT", "http://127.0.0.1:9/nli")
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "verifier": {"kind": "http", "retries": 5, "timeout": 2},
    })
    verifier = build_engine(config).verifier
    assert isinstance(verifier, HttpNliVerifier)
    assert (verifier.retries, verifier.timeout) == (5, 2.0)


@pytest.mark.parametrize("section", ["backend", "verifier"])
def test_build_engine_rejects_zero_retries(eval_fixture_file, section):
    config = {"backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
              "verifier": {"kind": "http", "endpoint": "http://127.0.0.1:9/nli"}}
    config[section] = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "retries": 0}
    with pytest.raises(ValueError, match="retries"):
        build_engine(EngineConfig.from_dict(config))


@pytest.mark.parametrize("endpoint", ["http:///v1", "ftp://x/v1", "localhost:8000/v1",
                                      "http://127.0.0.1:99999/v1"])
@pytest.mark.parametrize("section", ["backend", "verifier"])
def test_build_engine_rejects_an_unusable_endpoint(eval_fixture_file, section, endpoint):
    config = {"backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
              "verifier": {"kind": "http", "endpoint": "http://127.0.0.1:9/nli"}}
    config[section] = {"kind": "http", "endpoint": endpoint}
    with pytest.raises(ValueError, match=re.escape(repr(endpoint))):
        build_engine(EngineConfig.from_dict(config))


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
@pytest.mark.parametrize("section", ["backend", "verifier"])
def test_build_engine_rejects_an_unusable_timeout(eval_fixture_file, section, timeout):
    config = {"backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
              "verifier": {"kind": "http", "endpoint": "http://127.0.0.1:9/nli"}}
    config[section] = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1",
                       "timeout": timeout}
    with pytest.raises(ValueError, match=re.escape(f"not {timeout!r}")):
        build_engine(EngineConfig.from_dict(config))


def test_build_engine_verifier_mode_needs_a_verifier(eval_fixture_file):
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "mode": "verifier",
    })
    with pytest.raises(ValueError, match="verifier"):
        build_engine(config)


def test_build_engine_rejects_unknown_kinds(eval_fixture_file):
    with pytest.raises(ValueError, match="unknown backend kind"):
        build_engine(EngineConfig.from_dict({"backend": {"kind": "psychic"}}))
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "verifier": {"kind": "psychic"},
    })
    with pytest.raises(ValueError, match="unknown verifier kind"):
        build_engine(config)


def test_build_engine_loads_prompt_overrides(tmp_path, eval_fixture_file):
    custom = PromptSet(PromptMode.QA_PAIRS,
                       (PromptExample("Fire is hot?", True),
                        PromptExample("Snow is hot?", False)))
    prompts_path = tmp_path / "truth_prompts.json"
    prompts_path.write_text(json.dumps(prompt_set_to_dict(custom)),
                            encoding="utf-8")
    config = EngineConfig.from_dict({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "prompts": {"truth": str(prompts_path)},
    })
    engine = build_engine(config)
    assert engine.truth_prompts.content_hash() == custom.content_hash()
    assert engine.truth_prompts.content_hash() != \
        default_prompt_set(PromptMode.QA_PAIRS).content_hash()


_HTTP = "http://127.0.0.1:9/v1"


def _built(config: dict, fixtures) -> object:
    """Build an engine from a config whose backend defaults to a scripted one."""
    config.setdefault("backend", {"kind": "scripted", "fixtures": str(fixtures)})
    return build_engine(EngineConfig.from_dict(config))


@pytest.mark.parametrize("config, key", [
    ({"colour": "blue"}, "colour"),
    ({"backend": {"kind": "scripted", "fixtures": "fx.json", "fixture": "fx.json"}},
     "fixture"),
    ({"backend": {"kind": "http", "endpoint": _HTTP, "retires": 5}}, "retires"),
    ({"verifier": {"kind": "scripted", "fixture": "nli.json"}}, "fixture"),
    ({"verifier": {"kind": "http", "endpoint": _HTTP, "timout": 1}}, "timout"),
    ({"prompts": {"abduction": "abductive.json"}}, "abduction"),
    ({"tree": {"depth": 1}}, "depth"),
    ({"tree": {"depth_limit": 1,
               "decoding_schedule": [{"strategy": "greedy", "max_token": 5}]}}, "max_token"),
])
def test_every_config_level_rejects_an_unknown_key(eval_fixture_file, config, key):
    with pytest.raises(ValueError, match=rf"unknown .*keys: {key}$"):
        _built(config, eval_fixture_file)


@pytest.mark.parametrize("config, key", [
    ({"verifier": {"kind": "scripted", "strict": "false"}}, "strict"),
    ({"backend": {"kind": "http", "endpoint": _HTTP, "retries": True}}, "retries"),
    ({"verifier": {"kind": "http", "endpoint": _HTTP, "timeout": "30"}}, "timeout"),
    ({"seed": "7"}, "seed"),
    ({"workers": True}, "workers"),
    ({"seed": None}, "seed"),
    ({"backend": {"kind": "http", "endpoint": _HTTP, "timeout": None}}, "timeout"),
    ({"backend": {"kind": "scripted", "fixtures": None}}, "fixtures"),
    ({"tree": {"depth_limit": 1.0, "decoding_schedule": [{"strategy": "greedy"}]}},
     "depth_limit"),
    ({"tree": {"depth_limit": 1,
               "decoding_schedule": [{"strategy": "greedy", "max_tokens": 2.5}]}},
     "max_tokens"),
    ({"tree": {"depth_limit": 1,
               "decoding_schedule": [{"strategy": "nucleus", "sample_count": True}]}},
     "sample_count"),
])
def test_config_values_of_the_wrong_type_are_rejected(eval_fixture_file, config, key):
    with pytest.raises(ValueError, match=rf"key {key} must be"):
        _built(config, eval_fixture_file)


@pytest.mark.parametrize("section, table, attribute, value", [
    ("backend", {"kind": "http", "endpoint": _HTTP, "model": None}, "model", None),
    ("verifier", {"kind": "http", "endpoint": None}, "endpoint", "http://127.0.0.1:9/nli"),
    ("verifier", {"kind": "scripted", "fixtures": None, "strict": False}, "strict", False),
])
def test_null_stands_for_a_default_of_none(eval_fixture_file, monkeypatch,
                                           section, table, attribute, value):
    monkeypatch.setenv("MAIEUTIC_NLI_ENDPOINT", "http://127.0.0.1:9/nli")
    engine = _built({section: table}, eval_fixture_file)
    assert getattr(getattr(engine, section), attribute) == value


def test_a_scripted_backend_takes_no_id(eval_fixture_file):
    with pytest.raises(ValueError, match="unknown scripted backend keys: id"):
        _built({"backend": {"kind": "scripted", "fixtures": str(eval_fixture_file),
                            "id": "mine"}}, eval_fixture_file)


def test_an_http_backend_without_an_endpoint_names_the_empty_endpoint(eval_fixture_file):
    with pytest.raises(ValueError, match=re.escape("endpoint '' is not an http://")):
        _built({"backend": {"kind": "http"}}, eval_fixture_file)


@pytest.mark.parametrize("section", ["backend", "verifier"])
def test_an_integer_timeout_is_accepted(eval_fixture_file, section):
    engine = _built({section: {"kind": "http", "endpoint": _HTTP, "timeout": 2}},
                    eval_fixture_file)
    assert getattr(engine, section).timeout == 2


def test_the_readme_config_example_builds(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"A config file looks like:\n\n```json\n(.*?)```", readme, re.S)
    config = EngineConfig.from_dict(json.loads(example[1]), base_dir=tmp_path)
    (tmp_path / "fixtures.json").write_text("{}", encoding="utf-8")
    (tmp_path / "nli.json").write_text("[]", encoding="utf-8")
    engine = build_engine(config)
    assert isinstance(engine.verifier, CachedVerifier)
    assert engine.verifier.inner.strict is False
    assert engine.tree_config.width_schedule == (3, 1)


# --- command line ---

def test_cli_infer_bare_answer(capsys, narrow_config_file):
    rc = cli.main(["infer", WAR_QUESTION, "--config", str(narrow_config_file)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "True\n"
    assert captured.err == ""


def test_cli_infer_standard_with_backend_flag(capsys, eval_fixture_file):
    rc = cli.main(["infer", "Trains run on water?", "--method", "standard",
                   "--backend", str(eval_fixture_file)])
    assert rc == 0
    assert capsys.readouterr().out == "False\n"


def test_cli_infer_notes_fallback_on_stderr(capsys, tmp_path):
    builder = FixtureBuilder()
    builder.truth("Coin lands heads?", TRUTH_PROMPTS, 0.5, 0.5)
    fixtures = builder.write(tmp_path / "tie.json")
    rc = cli.main(["infer", "Coin lands heads?", "--method", "standard",
                   "--backend", str(fixtures)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "False\n"
    assert "fallback" in captured.err


def test_cli_infer_writes_explanations_to_a_file(capsys, tmp_path,
                                                narrow_config_file):
    out = tmp_path / "rationale.txt"
    rc = cli.main(["infer", WAR_QUESTION, "--config", str(narrow_config_file),
                   "--explain", "text", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert "Answer: True (maieutic)" in text
    assert "Satisfied weight:" in text


def test_cli_eval_prints_the_report(capsys, tmp_path, eval_fixture_file,
                                    data_dir):
    results = tmp_path / "results.jsonl"
    rc = cli.main(["eval", str(data_dir / "eval_records.jsonl"),
                   "--method", "standard",
                   "--backend", str(eval_fixture_file),
                   "--results", str(results)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["accuracy"] == 0.75
    assert report["pairwise_accuracy"] == 4 / 6
    assert len(results.read_text(encoding="utf-8").splitlines()) == 12
    assert (tmp_path / "results.jsonl.manifest.json").exists()


def test_cli_eval_isolates_a_failing_record(capsys, tmp_path, eval_fixture_file):
    dataset = tmp_path / "mixed.jsonl"
    dataset.write_text(
        '{"id": "known", "question": "Trains run on rails?", "label": true}\n'
        '{"id": "unknown", "question": "Is the moon made of cheese?", "label": false}\n',
        encoding="utf-8")
    results = tmp_path / "results.jsonl"
    rc = cli.main(["eval", str(dataset), "--method", "standard",
                   "--backend", str(eval_fixture_file), "--results", str(results)])
    captured = capsys.readouterr()
    assert rc != 0
    assert "1 of 2 records failed" in captured.err
    report = json.loads(captured.out)
    assert report["error_count"] == 1
    assert report["correct_count"] == 1 and report["record_count"] == 2
    rows = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
    assert rows[0] == {"id": "known", "question": "Trains run on rails?", "gold": True,
                       "pair_id": None, "answer": True, "correct": True,
                       "method": "standard", "fallback_used": False,
                       "true_propositions": [], "satisfied_weight": None}
    assert rows[1]["id"] == "unknown" and rows[1]["correct"] is False
    assert rows[1]["error"] == "MissingFixture"
    assert rows[1]["message"]
    assert set(rows[1]) == {"id", "correct", "error", "message"}


def test_cli_tree_converts_both_ways(capsys, tmp_path):
    source = tmp_path / "tree.json"
    source.write_text(tree_to_json(fixed_tree()), encoding="utf-8")
    dot_path = tmp_path / "tree.dot"
    assert cli.main(["tree", str(source), "--out", str(dot_path)]) == 0
    assert dot_path.read_text(encoding="utf-8").startswith("digraph")
    back = tmp_path / "back.json"
    assert cli.main(["tree", str(dot_path), "--out", str(back)]) == 0
    assert back.read_text(encoding="utf-8") == source.read_text(encoding="utf-8")
    capsys.readouterr()


def test_cli_wcnf_exports_instance_and_sidecar(capsys, tmp_path,
                                               narrow_config_file):
    out = tmp_path / "instance.wcnf"
    rc = cli.main(["wcnf", WAR_QUESTION, "--config", str(narrow_config_file),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == f"wrote {out} and {out}.map.json\n"
    cnf = import_wcnf(out)
    assert sorted(cnf.variables.values()) == ["F.0", "T.0", "T.0.F.0",
                                              "T.0.T.0", "root"]
    assert len(cnf.clauses) == 7


def test_cli_wcnf_refuses_a_bare_root(capsys, tmp_path):
    world_config = tmp_path / "cfg.json"
    fixtures = _tie_world_fixtures(tmp_path)
    world_config.write_text(json.dumps({
        "backend": {"kind": "scripted", "fixtures": str(fixtures)},
        "tree": NARROW_CONFIG.to_dict(),
    }), encoding="utf-8")
    rc = cli.main(["wcnf", "Everything here is perfectly ambiguous?",
                   "--config", str(world_config),
                   "--out", str(tmp_path / "never.wcnf")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "root-only" in captured.err
    assert not (tmp_path / "never.wcnf").exists()


def _tie_world_fixtures(tmp_path):
    return ambiguous_world().builder.write(tmp_path / "ambiguous.json")


def test_cli_reports_errors_and_exits_nonzero(capsys, tmp_path,
                                              eval_fixture_file):
    rc = cli.main(["infer", "q?", "--method", "standard",
                   "--backend", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")

    rc = cli.main(["infer", "Unknown question?", "--method", "standard",
                   "--backend", str(eval_fixture_file)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
