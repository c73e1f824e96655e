"""Config files, engine wiring and the command-line entry point."""
from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from maieutic import cli
from maieutic.backend import (CachedBackend, FixtureBuilder, ResponseCache, ScriptedBackend,
                              read_trace)
from maieutic.compiler import CompileMode
from maieutic.config import EngineConfig, build_engine
from maieutic.core import (
    PromptExample,
    PromptMode,
    PromptSet,
    TreeConfig,
    load_prompt_set,
    prompt_set_to_dict,
    tree_from_dot,
    tree_from_json,
    tree_to_json,
)
from maieutic.errors import BackendUnavailable, CacheCorrupt, ParseError
from maieutic.prompts import default_prompt_set
from maieutic.solver import MAX_WCNF_VARIABLES, import_wcnf
from maieutic.harness import Method, evaluate, load_dataset
from maieutic.verifier import CachedVerifier, HttpNliVerifier, NliLabel, ScriptedNliVerifier
from worlds import (
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


def _deep_tree(depth: int, first_samples: int) -> dict:
    """A tree config ``depth`` levels deep, ``first_samples`` wide at depth 1
    and one wide below."""
    first = {"strategy": "nucleus", "sample_count": first_samples}
    return {"depth_limit": depth,
            "decoding_schedule": [first] + [{"strategy": "greedy"}] * (depth - 1)}


@pytest.mark.parametrize("depth, first_samples, nodes", [
    (16, 3, 393_211),    # 393,210 generated nodes and the root
    (16, 1, 131_071),
], ids=["three-wide-first-level", "one-wide"])
def test_config_refuses_a_tree_whose_wcnf_file_could_not_be_read(depth, first_samples, nodes):
    tree = _deep_tree(depth, first_samples)
    assert TreeConfig.from_dict(tree).max_nodes_excluding_root() + 1 == nodes
    with pytest.raises(ValueError, match=f"tree allows {nodes} nodes, more than the "
                                         f"{MAX_WCNF_VARIABLES} variables"):
        EngineConfig.from_dict({"tree": tree})


def test_config_takes_a_tree_just_under_the_wcnf_variable_bound():
    # 2**16 - 1 nodes, the root included: a layer holds an even number,
    # so no tree config allows exactly the bound
    config = EngineConfig.from_dict({"tree": _deep_tree(15, 1)})
    assert config.tree.max_nodes_excluding_root() + 1 == MAX_WCNF_VARIABLES - 1


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


@pytest.mark.parametrize("timeout,usable", [(10 ** 400, False), (threading.TIMEOUT_MAX * 2, False),
                                            (threading.TIMEOUT_MAX, True)],
                         ids=["10**400", "twice-TIMEOUT_MAX", "TIMEOUT_MAX"])
@pytest.mark.parametrize("section", ["backend", "verifier"])
def test_build_engine_refuses_a_timeout_a_socket_cannot_hold(eval_fixture_file, section,
                                                              timeout, usable):
    config = {"backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
              "verifier": {"kind": "http", "endpoint": "http://127.0.0.1:9/nli"}}
    config[section] = {"kind": "http", "endpoint": "http://127.0.0.1:9/v1",
                       "timeout": timeout, "retries": 1}
    if usable:
        client = getattr(build_engine(EngineConfig.from_dict(config)), section)
        assert client.timeout == timeout
        # the first request hands the timeout to the socket: the port refuses
        # it, and no clock overflows
        with pytest.raises(BackendUnavailable, match="refused"):
            client.lm_negations(["x"]) if section == "backend" else client.nli("a", "b")
    else:
        with pytest.raises(ValueError, match=f"at most {threading.TIMEOUT_MAX}"):
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
    ({"tree": []}, "tree"),
    ({"backend": "scripted"}, "backend"),
    ({"verifier": 3}, "verifier"),
    ({"tree": {"depth_limit": 2, "decoding_schedule": [1, 2]}}, "decoding_schedule"),
    ({"tree": {"depth_limit": 1, "decoding_schedule": [{"strategy": "greedy"}],
               "width_schedule": 5}}, "width_schedule"),
    ({"tree": {"depth_limit": 1, "decoding_schedule": [{"strategy": "greedy"}],
               "width_schedule": None}}, "width_schedule"),
    ({"tree": {"depth_limit": 1,
               "decoding_schedule": [{"strategy": "greedy", "stop_sequences": 5}]}},
     "stop_sequences"),
    ({"tree": {"depth_limit": 1,
               "decoding_schedule": [{"strategy": "greedy", "stop_sequences": "ab"}]}},
     "stop_sequences"),
])
def test_config_values_of_the_wrong_type_are_rejected(eval_fixture_file, config, key):
    with pytest.raises(ValueError, match=rf"key {key} must be"):
        _built(config, eval_fixture_file)


@pytest.mark.parametrize("config, message", [
    ({"tree": {"depth_limit": 1, "decoding_schedule": [{}]}},
     "decoding needs the key strategy"),
    ({"backend": {"kind": "scripted"}}, "scripted backend needs the key fixtures"),
])
def test_a_missing_required_key_is_named(eval_fixture_file, config, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
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


@pytest.mark.parametrize("flags, config", [(["--workers", "0"], {}), ([], {"workers": -7})],
                         ids=["flag-zero", "config-negative"])
def test_cli_eval_refuses_a_workers_value_below_one(capsys, tmp_path, eval_fixture_file,
                                                    data_dir, flags, config):
    path = _written(tmp_path / "c.json", json.dumps(config))
    results = tmp_path / "results.jsonl"
    rc = cli.main(["eval", str(data_dir / "eval_records.jsonl"), "--method", "standard",
                   "--config", str(path), "--backend", str(eval_fixture_file),
                   "--results", str(results), *flags])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: workers must be an int of at least 1")
    assert not results.exists()


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


@pytest.mark.parametrize("text", ["{}", '{"nodes": null}', "[]"])
def test_cli_tree_reports_a_file_that_is_no_tree_without_a_traceback(capsys, tmp_path, text):
    source = tmp_path / "tree.json"
    source.write_text(text, encoding="utf-8")
    assert cli.main(["tree", str(source), "--to", "dot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree ")
    assert "Traceback" not in captured.err


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


def test_cli_names_a_missing_decoding_strategy_without_a_traceback(capsys, tmp_path):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps({"tree": {"depth_limit": 1, "decoding_schedule": [{}]}}),
                    encoding="utf-8")
    rc = cli.main(["infer", "q?", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: decoding needs the key strategy\n"


@pytest.mark.parametrize("config, with_backend, message", [
    ({"prompts": {"truth": 5}}, True, "prompts key truth must be str, not 5"),
    ({"prompts": {"truth": {}}}, True, "prompts key truth must be str, not {}"),
    ({"backend": {"kind": "scripted", "fixtures": 5}}, False,
     "scripted backend key fixtures must be str, not 5"),
], ids=["prompt-path-int", "prompt-path-table", "fixtures-int"])
def test_cli_names_a_config_path_of_the_wrong_type_without_a_traceback(
        capsys, tmp_path, eval_fixture_file, config, with_backend, message):
    path = _written(tmp_path / "c.json", json.dumps(config))
    backend = ["--backend", str(eval_fixture_file)] if with_backend else []
    assert cli.main(["infer", "Is ice cold?", "--config", str(path), *backend]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


# --- JSON nested deeper than a parser recurses ---

DEEP = "[" * 100_000


def _written(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _beside_its_sidecar(directory: Path, sidecar: str) -> Path:
    """A one-clause WCNF file, with ``sidecar`` as the map written next to it."""
    _written(directory / "i.wcnf.map.json", sidecar)
    return _written(directory / "i.wcnf", "p wcnf 1 1 2\n1 1 0\n")


@pytest.mark.parametrize("read,error", [
    (lambda tmp: tree_from_json(DEEP), ValueError),
    (lambda tmp: tree_from_dot(f"digraph t {{\n  // tree-json: {DEEP}\n}}\n"), ValueError),
    (lambda tmp: EngineConfig.from_file(_written(tmp / "c.json", DEEP)), ValueError),
    (lambda tmp: EngineConfig.from_file(_written(tmp / "c.toml", "a = " + DEEP)), ValueError),
    (lambda tmp: load_dataset(_written(tmp / "d.jsonl", DEEP + "\n")), ValueError),
    (lambda tmp: ScriptedBackend(_written(tmp / "f.json", DEEP)), ValueError),
    (lambda tmp: ScriptedNliVerifier(_written(tmp / "n.json", DEEP)), ValueError),
    (lambda tmp: load_prompt_set(_written(tmp / "p.json", DEEP)), ValueError),
    (lambda tmp: ResponseCache(_written(tmp / "responses.jsonl", DEEP + "\n").parent),
     CacheCorrupt),
    (lambda tmp: import_wcnf(_beside_its_sidecar(tmp, DEEP)), ParseError),
    (lambda tmp: read_trace(_written(tmp / "t.jsonl", DEEP + "\n")), ValueError),
], ids=["tree-json", "tree-dot", "config-json", "config-toml", "dataset", "lm-fixtures",
        "nli-fixtures", "prompt-set", "cache", "wcnf-sidecar", "trace"])
def test_each_json_reader_raises_its_own_error_on_nesting_too_deep_to_parse(tmp_path, read,
                                                                           error):
    with pytest.raises(error):
        read(tmp_path)


@pytest.mark.parametrize("read,name", [
    (EngineConfig.from_file, "c.json"),
    (EngineConfig.from_file, "c.toml"),
    (load_dataset, "d.jsonl"),
    (ScriptedBackend, "f.json"),
    (ScriptedNliVerifier, "n.json"),
    (load_prompt_set, "p.json"),
    (read_trace, "t.jsonl"),
], ids=["config-json", "config-toml", "dataset", "lm-fixtures", "nli-fixtures", "prompt-set",
        "trace"])
@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
def test_each_file_reader_names_the_file_and_line_that_is_not_utf8(tmp_path, read, name,
                                                                    newline):
    path = tmp_path / name
    path.write_bytes(b'{"question": "a?",' + newline + b' "label": "\xff"}' + newline)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: not UTF-8 text")):
        read(path)


def test_cli_tree_reports_nesting_too_deep_to_parse_without_a_traceback(capsys, tmp_path):
    source = _written(tmp_path / "tree.json", DEEP)
    assert cli.main(["tree", str(source), "--to", "dot"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_tree_names_the_file_and_line_that_is_not_utf8(capsys, tmp_path):
    source = tmp_path / "tree.json"
    source.write_bytes(b'{"root_id": "root",\n "nodes": "\xff"}\n')
    assert cli.main(["tree", str(source), "--to", "dot"]) == 1
    assert capsys.readouterr().err == f"error: {source}: line 2: not UTF-8 text\n"


@pytest.mark.parametrize("text,message", [
    ("{}", "prompt set needs the key mode"),
    ("[]", "prompt set must be an object, not list"),
    ('{"mode": "qa_pairs", "examples": null}', "prompt set key examples must be"),
    ('{"mode": "qa_pairs", "examples": [{"answer": true}]}',
     "prompt example needs the key question"),
    ('{"mode": "qa_pairs", "examples": [{"question": "Is ice hot?", "answer": "false"}]}',
     "prompt example key answer must be bool, not 'false'"),
], ids=["empty", "list", "null-examples", "example-without-question", "answer-in-a-string"])
def test_cli_reports_a_prompt_set_file_that_is_not_one(capsys, tmp_path, eval_fixture_file,
                                                       text, message):
    config = _written(tmp_path / "engine.json", json.dumps({
        "backend": {"kind": "scripted", "fixtures": str(eval_fixture_file)},
        "prompts": {"truth": str(_written(tmp_path / "truth.json", text))},
    }))
    assert cli.main(["infer", "q?", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
