"""No answer changed: every artefact of the corpus worlds hashes as
committed in ``tests/data/corpus.json``, and an evaluation of the corpus on
a pool of threads writes what one in the calling thread writes."""
from __future__ import annotations

import json
import sys
from itertools import groupby

from maieutic.backend import FixtureBuilder
from maieutic.harness import DatasetRecord, Method, evaluate
from maieutic.verifier import ScriptedNliVerifier

import corpus


def test_every_corpus_artefact_hashes_as_committed(tmp_path):
    committed = json.loads(corpus.CORPUS_PATH.read_text(encoding="utf-8"))["worlds"]
    worlds = corpus.worlds()
    assert [entry["seed"] for entry in committed] == [world.seed for world in worlds]
    for world, entry in zip(worlds, committed):
        assert entry["world"] == world.name
        got = corpus.hashes(world, tmp_path / str(world.seed))
        changed = [name for name in corpus.ARTEFACTS if got[name] != entry["sha256"][name]]
        assert not changed, (f"{world.name}: its {', '.join(changed)} changed; a change "
                             "meant to alter answers rewrites tests/data/corpus.json")


def _evaluated(worlds, directory, workers: int) -> tuple[bytes, list[str], list[str]]:
    """The corpus evaluated on ``workers`` threads, one run per engine shape:
    the results files, and the sorted cache and trace lines."""
    def shape(world):
        return world.mode.value, world.nli or "", json.dumps(world.config.to_dict())

    results, cache, trace = b"", [], []
    for index, (_, group) in enumerate(groupby(sorted(worlds, key=shape), key=shape)):
        group = list(group)
        fixtures = FixtureBuilder()
        for world in group:
            fixtures.merge(world.builder)
        first, run = group[0], directory / str(index)
        verifier = None if first.nli is None else ScriptedNliVerifier(
            [record for world in group for record in world.nli_records],
            strict=first.nli == "dense")
        engine = corpus.cached_engine(first, run, fixtures.backend(), verifier)
        records = [DatasetRecord(f"w{world.seed}", world.question, gold=True)
                   for world in group]
        evaluate(records, Method.MAIEUTIC, engine, workers=workers,
                 results_path=run / "results.jsonl")
        results += (run / "results.jsonl").read_bytes()
        cache += corpus.cache_lines(run)
        trace += corpus.trace_lines(run)
    return results, sorted(cache), sorted(trace)


def test_the_corpus_evaluates_alike_on_one_thread_and_on_four(tmp_path):
    worlds = corpus.worlds()
    alone = _evaluated(worlds, tmp_path / "one", workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so a race shows
    try:
        threaded = _evaluated(worlds, tmp_path / "four", workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded[0] == alone[0], "the results files differ"
    assert threaded[1] == alone[1], "the cache lines differ"
    assert threaded[2] == alone[2], "the trace lines differ"
