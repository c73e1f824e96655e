"""The benchmark's client process: one engine, one closed loop.

    python3 benchmarks/worker.py probe CONFIG   # set-up time in this fresh interpreter
    python3 benchmarks/worker.py run JOB        # answer a job, write its results

The program is imported only after the clock starts, so ``probe``
times the import plus ``build_engine``. ``run`` answers the job's
warm-up questions untimed, then its timed passes; each question starts
only after the previous answer returned. Results go to files for
``run.py`` to check; nothing here judges them.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, rounds  # noqa: E402

TRANSPORT = {"backend.truth", "backend.completion", "backend.logprob", "verifier.nli"}

# ext4 without a journal does not reuse an inode freed in the last 5 s
# (305 s while its inode-table block is dirty): each new file scans past
# every such inode of its block group. A round's cache written where an
# earlier round's cache was deleted is then several times slower. With
# the top-directory flag on their parent, ext4 places each new directory
# in a block group that holds the fewest directories, so each round's
# cache starts in an empty group. After the round a small "hold"
# directory stays in its group for HOLD_S, past those 305 s, so that no
# later round, of this run or another, is placed among the freed inodes.
# Linux ioctl numbers, 64-bit.
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000
HOLD_S = 360


def spread_subdirectories(path: Path) -> bool:
    """Set the top-directory flag on ``path``; False where the file system has none."""
    if not sys.platform.startswith("linux"):
        return False
    import fcntl
    import struct

    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = bytearray(4)
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
        wanted = struct.unpack("i", flags)[0] | FS_TOPDIR_FL
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", wanted))
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags)
        return bool(struct.unpack("i", flags)[0] & FS_TOPDIR_FL)
    except OSError:
        return False
    finally:
        os.close(fd)


def release_holds(caches: Path) -> None:
    """Remove the hold directories whose groups' freed inodes are reusable again."""
    now = time.time()
    for hold in caches.glob("hold-*"):
        if now - hold.stat().st_mtime > HOLD_S:
            hold.rmdir()


def probe(config_path: str) -> None:
    start = time.perf_counter()
    import maieutic
    imported = time.perf_counter()
    maieutic.build_engine(maieutic.EngineConfig.from_file(config_path))
    built = time.perf_counter()
    print(json.dumps({"import_ms": (imported - start) * 1000,
                      "build_ms": (built - imported) * 1000}))


def _lm_side(backend):
    """The object whose primitives reach the language model."""
    return getattr(backend, "inner", backend)


def count_requests(engine, counts: dict) -> None:
    """Untraced request counting at the primitives the engine reaches the models by."""
    def counted(owner, name, kind):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            counts[kind] = counts.get(kind, 0) + 1
            return original(*args, **kwargs)
        setattr(owner, name, call)

    lm = _lm_side(engine.backend)
    for name, kind in (("_score_answer", "truth"), ("_complete", "completion"),
                       ("_completion_logprob", "logprob")):
        counted(lm, name, kind)
    if engine.verifier is not None:
        counted(engine.verifier, "nli", "nli")


def _one(kind: str):
    return lambda args, result: {kind: 1}


def install_modules(tracer: Tracer) -> None:
    """Wrap every layer's module functions at the names their callers use."""
    from maieutic import backend, compiler, harness, prompts, tree_builder, verifier

    tracer.wrap(harness, "infer", "harness.infer")
    tracer.wrap(harness, "evaluate", "harness.evaluate", outer=True)
    tracer.wrap(tree_builder, "build_tree", "tree_builder.build_tree",
                observe=lambda args, tree: {"nodes_generated": len(tree.nodes)})
    tracer.wrap(tree_builder, "prune", "tree_builder.prune",
                observe=lambda args, tree: {"nodes_kept": len(tree.nodes)})
    tracer.wrap(compiler, "compile", "compiler.compile",
                observe=lambda args, cnf: {"clauses": len(cnf.clauses)})
    tracer.wrap(verifier, "relation_clauses", "verifier.relation_clauses")
    tracer.wrap(harness, "solve", "solver.solve",
                observe=lambda args, result: {"variables": len(args[0].variables)})
    for name in ("render_truth_prompt", "render_abductive_prompt", "render_explanation_prompt",
                 "render_explained_answer_prompt", "render_negation_prompt",
                 "prefix_negation"):
        tracer.wrap(prompts, name, "prompts.render", observe=_one("render"))
    for name in ("request_digest", "cache_key"):
        tracer.wrap(backend, name, "backend.digest", observe=_one("digest"))


def install_engine(tracer: Tracer, engine) -> None:
    """Wrap one engine's model primitives, cache and call trace."""
    lm = _lm_side(engine.backend)
    for name, kind in (("_score_answer", "truth"), ("_complete", "completion"),
                       ("_completion_logprob", "logprob")):
        tracer.wrap(lm, name, f"backend.{kind}", observe=_one(kind))
    if engine.verifier is not None:
        tracer.wrap(engine.verifier, "nli", "verifier.nli", observe=_one("nli"))
    cache = getattr(engine.backend, "cache", None)
    if cache is not None:
        tracer.wrap(cache, "get", "cache.get")
        tracer.wrap(cache, "put", "cache.put")
    trace = getattr(engine.backend, "trace", None)
    if trace is not None:
        tracer.wrap(trace, "record", "trace.record")


def layer_summary(tracer: Tracer, questions: int) -> dict:
    """Per-question layer figures from the traced spans."""
    total, own, _ = tracer.totals()
    per = lambda seconds: seconds * 1000 / questions  # noqa: E731
    groups, peak = rounds(tracer.intervals(TRANSPORT))
    lm_wait = sum(total[f"backend.{kind}"] for kind in ("truth", "completion", "logprob"))
    counts = tracer.counts
    return {
        "harness.infer_ms_per_question": per(total["harness.infer"]),
        "harness.evaluate_self_ms_per_question": per(own["harness.evaluate"]),
        "prompts.render_calls_per_question": counts["render"] / questions,
        "prompts.render_ms_per_question": per(total["prompts.render"]),
        "backend.digest_calls_per_question": counts["digest"] / questions,
        "backend.digest_ms_per_question": per(total["backend.digest"]),
        "backend.truth_requests_per_question": counts["truth"] / questions,
        "backend.completion_requests_per_question": counts["completion"] / questions,
        "backend.logprob_requests_per_question": counts["logprob"] / questions,
        "backend.wait_ms_per_question": per(lm_wait),
        "backend.rounds_per_question": groups / questions,
        "backend.max_in_flight": peak,
        "cache.get_ms_per_question": per(total["cache.get"]),
        "cache.put_ms_per_question": per(total["cache.put"]),
        "trace.record_ms_per_question": per(total["trace.record"]),
        "tree_builder.self_ms_per_question": per(own["tree_builder.build_tree"]),
        "tree_builder.prune_ms_per_question": per(total["tree_builder.prune"]),
        "tree_builder.nodes_generated_per_question": counts["nodes_generated"] / questions,
        "tree_builder.nodes_kept_per_question": counts["nodes_kept"] / questions,
        "compiler.self_ms_per_question": per(own["compiler.compile"]),
        "compiler.clauses_per_question": counts["clauses"] / questions,
        "verifier.nli_requests_per_question": counts["nli"] / questions,
        "verifier.nli_wait_ms_per_question": per(total["verifier.nli"]),
        "verifier.self_ms_per_question": per(own["verifier.relation_clauses"]),
        "solver.solve_ms_per_question": per(total["solver.solve"]),
        "solver.variables_per_question": counts["variables"] / questions,
    }


def run_questions(job: dict, engine, tracer: Tracer | None) -> dict:
    from maieutic import harness

    counts: dict = {}
    if job["count_requests"]:
        count_requests(engine, counts)
    with open(job["results"], "w", encoding="utf-8") as out:
        for index, question in enumerate(job["warmup"]):
            out.write(json.dumps(answer(harness, question, engine, -1, index)) + "\n")
        counts.clear()
        timings = []
        for pass_index in range(job["passes"]):
            if tracer is not None:
                tracer.enabled = pass_index > 0
            for index, question in enumerate(job["questions"]):
                line = answer(harness, question, engine, pass_index, index)
                timings.append([pass_index, line.pop("seconds"),
                                line.pop("began"), line.pop("ended")])
                out.write(json.dumps(line) + "\n")
    summary = {"timings": timings, "requests": counts}
    if tracer is not None:
        tracer.enabled = False
        traced = len(job["questions"]) * (job["passes"] - 1)
        summary["layers"] = layer_summary(tracer, traced)
    return summary


def answer(harness, question: str, engine, pass_index: int, index: int) -> dict:
    """Answer one question; the timed region is the ``harness.infer`` call alone."""
    line = {"pass": pass_index, "index": index}
    began = time.monotonic()
    start = time.perf_counter()
    try:
        result = harness.infer(question, harness.Method.MAIEUTIC, engine)
    except Exception as exc:  # a failed question is counted, the loop goes on
        stop = time.perf_counter()
        line["error"] = f"{type(exc).__name__}: {exc}"
    else:
        stop = time.perf_counter()
        text = harness.result_to_json(result)
        line["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if pass_index <= 0:
            line["result"] = text
    line.update(seconds=stop - start, began=began, ended=time.monotonic())
    return line


def time_questions(harness, seconds: list) -> None:
    """A bare timer around ``harness.infer``, the name ``evaluate`` calls it by."""
    infer = harness.infer

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return infer(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)
    harness.infer = timed


def run_eval(job: dict, config: dict, tracer: Tracer | None) -> dict:
    import maieutic
    from maieutic import harness

    records = harness.load_dataset(job["dataset"])
    questions: list = []
    if tracer is None:
        time_questions(harness, questions)
    work = Path(job["work"])
    caches = Path(job["caches"])  # shared by the runs in one checkout
    caches.mkdir(exist_ok=True)
    spread = spread_subdirectories(caches)
    release_holds(caches)
    rows = []
    for round_index in range(job["rounds"] + 1):  # round 0 warms up untimed
        name = f"{os.getpid()}-{round_index}"
        cache_dir = caches / f"cache-{name}"
        trace_path = work / f"trace-{round_index}.jsonl"
        engine = maieutic.build_engine(maieutic.EngineConfig.from_dict(
            dict(config, cache_dir=str(cache_dir), trace_path=str(trace_path))))
        if tracer is not None:
            install_engine(tracer, engine)
            tracer.enabled = round_index > 1
        row = {"round": round_index}
        for phase in ("cold", "warm"):
            results = work / f"{phase}-{round_index}.jsonl"
            before = engine.backend.trace.backend_call_count()
            questions.clear()
            start = time.perf_counter()
            try:
                report = harness.evaluate(records, harness.Method.MAIEUTIC, engine,
                                          workers=job["workers"], results_path=results)
            except Exception as exc:  # the whole pass fails with one record
                row[phase] = {"error": f"{type(exc).__name__}: {exc}",
                              "seconds": time.perf_counter() - start}
                continue
            seconds = time.perf_counter() - start
            blob = results.read_bytes()
            row[phase] = {
                "seconds": seconds,
                "questions": list(questions),
                "backend_calls": engine.backend.trace.backend_call_count() - before,
                "digest": hashlib.sha256(blob).hexdigest(),
                "report": report.to_dict(),
            }
            if phase == "cold":
                files = [path for path in cache_dir.iterdir() if path.is_file()]
                row[phase]["cache_files"] = len(files)
                row[phase]["cache_bytes"] = sum(path.stat().st_size for path in files)
                if round_index == 1:
                    row[phase]["lines"] = blob.decode("utf-8")
            results.unlink()
        rows.append(row)
        hold = cache_dir / "hold"  # created in the cache's block group
        hold.mkdir()
        for path in cache_dir.iterdir():
            if path != hold:
                path.unlink()
        hold.rename(caches / f"hold-{name}")
        cache_dir.rmdir()
        trace_path.unlink()
    summary = {"rows": rows, "spread": spread}
    if tracer is not None:
        tracer.enabled = False
        traced = 2 * len(records) * (job["rounds"] - 1)
        summary["layers"] = layer_summary(tracer, traced)
    return summary


def run(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import maieutic

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install_modules(tracer)
    config_path = Path(job["config"])
    if job["kind"] == "eval":
        config = json.loads(config_path.read_text(encoding="utf-8"))
        summary = run_eval(job, config, tracer)
    else:
        engine = maieutic.build_engine(maieutic.EngineConfig.from_file(config_path))
        if tracer is not None:
            install_engine(tracer, engine)
        summary = run_questions(job, engine, tracer)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job["summary"]).write_text(json.dumps(summary), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("probe", "run"):
        sys.exit(__doc__)
    sys.path.insert(0, os.environ.get("MAIEUTIC_SRC", "src"))
    (probe if sys.argv[1] == "probe" else run)(sys.argv[2])
