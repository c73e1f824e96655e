"""Offline benchmark of the maieutic engine: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with no tracing installed; with ``--trace 1`` they are the
per-layer ones from a traced run. See ``benchmarks/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracing import rounds  # noqa: E402

# Hold time of every loopback request. See README: it is as large as
# the run length allows while each remote run still answers 100
# questions within its measured seconds.
SERVICE_DELAY_MS = 2.0
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

WORKLOADS = {
    # pass_s: nominal seconds of one pass (a round on cached_eval) on the
    # reference machine of the README;
    # the whole passes that fit --seconds are run, never a timer's worth.
    "remote_likelihood": {"shape": "random", "mode": "likelihood", "questions": 40,
                          "remote": True, "pass_s": 7.6},
    "remote_verifier": {"shape": "sparse", "mode": "verifier", "questions": 50,
                        "nli": (0.10, 0.05), "remote": True, "pass_s": 6.5},
    "local_dense": {"shape": "dense", "mode": "verifier", "questions": 60,
                    "nli": (0.50, 0.45), "pass_s": 3.0},
    "cached_eval": {"shape": "random", "mode": "likelihood", "questions": 36,
                    "eval": True, "pass_s": 0.75},
}
WARMUP_QUESTIONS = 3


def declared_units(kind: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class Service:
    """The loopback LM/NLI service process."""

    def __init__(self, lm: Path, nli: Path | None, log: Path):
        command = [sys.executable, str(HERE / "service.py"), "--lm", str(lm),
                   "--delay-ms", str(SERVICE_DELAY_MS)]
        if nli is not None:
            command += ["--nli", str(nli)]
        self._stderr = open(log, "w", encoding="utf-8")
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, stderr=self._stderr,
                                        text=True)
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"loopback service did not start: {log.read_text()}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"

    def log(self) -> list:
        with urllib.request.urlopen(self.base + "/_log", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stderr.close()


def worker(args: list, src: Path, timeout: float) -> str:
    env = dict(os.environ, MAIEUTIC_SRC=str(src))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{done.stderr}")
    return done.stdout


def whole_passes(seconds: float, spec: dict) -> int:
    """Whole passes that fit ``seconds``; two at least, so a traced run has
    an untraced pass to compare with."""
    return max(2, int(seconds // spec["pass_s"]))


def setup_times(config: Path, src: Path) -> dict:
    """Medians over fresh interpreters of the program's import and ``build_engine``."""
    probes = [json.loads(worker(["probe", str(config)], src, 60)) for _ in range(SETUP_PROBES)]
    return {key: statistics.median(probe[key] for probe in probes)
            for key in ("import_ms", "build_ms")} | {
        "setup_s": statistics.median((p["import_ms"] + p["build_ms"]) / 1000 for p in probes)}


# --- checks against the reference ---

def check_result(result: dict, want: dict, scenario: dict) -> list[str]:
    """Differences between one answer and the reference; empty when it agrees."""
    problems = []
    if result["answer"] != want["answer"] or result["fallback_used"] != want["fallback"]:
        problems.append(f"answer {result['answer']} fallback {result['fallback_used']}, "
                        f"reference {want['answer']} fallback {want['fallback']}")
    nodes = [(node["id"], node["text"]) for node in result["tree"]["nodes"]]
    texts = {node["id"]: node["text"] for node in result["tree"]["nodes"]}
    nodes_want = reference.grow(scenario)[0]
    if nodes != [(node_id, nodes_want[node_id]["text"]) for node_id in want["kept"]]:
        problems.append("kept tree differs")
    if want["fallback"]:
        if result["assignment"] is not None:
            problems.append("fallback answer carries an assignment")
        return problems
    got = [(frozenset((literal["node"], literal["positive"])
                      for literal in clause["literals"]), clause["weight"])
           for clause in result["clauses"]["clauses"]]
    expect = [(frozenset((want["kept"][var - 1], polarity) for var, polarity in literals),
               weight) for literals, weight in want["clauses"]]
    if [c for c, _ in got] != [c for c, _ in expect] or any(
            abs(a - b) > reference.WEIGHT_TOLERANCE for (_, a), (_, b) in zip(got, expect)):
        problems.append("clause set differs")
    values = result["assignment"]["values"]
    if values != want["values"]:
        problems.append("assignment differs from the exhaustive optimum")
    if abs(result["assignment"]["satisfied_weight"] - want["weight"]) > reference.WEIGHT_TOLERANCE:
        problems.append("satisfied weight differs from the optimum")
    if values.get("root") != result["answer"]:
        problems.append("answer is not the root's value in the assignment")
    if set(texts) != set(values):
        problems.append("assignment does not cover the kept nodes")
    return problems


def check_questions(lines: list, timed: list, warmup: list, mode: str) -> tuple[int, list]:
    """(failed questions, problems): every answer against the reference or its first pass.

    A question that raised is counted as failed, not as a problem: the
    checks speak of the answers that came back.
    """
    wants = [reference.expected(scenario, mode) for scenario in timed]
    warm_wants = [reference.expected(scenario, mode) for scenario in warmup]
    first_digest = {}
    failed, problems = 0, []
    for line in lines:
        where = f"pass {line['pass']} question {line['index']}"
        if "error" in line:
            print(f"failed: {where}: {line['error']}", file=sys.stderr)
            if line["pass"] < 0:
                problems.append(f"warm-up {where}: {line['error']}")
            failed += line["pass"] >= 0
            continue
        if line["pass"] <= 0:
            scenario = (warmup if line["pass"] < 0 else timed)[line["index"]]
            want = (warm_wants if line["pass"] < 0 else wants)[line["index"]]
            problems += [f"{where}: {p}"
                         for p in check_result(json.loads(line["result"]), want, scenario)]
            if line["pass"] == 0:
                first_digest[line["index"]] = line["digest"]
        elif line["digest"] != first_digest.get(line["index"]):
            problems.append(f"{where}: answer differs from the first pass")
    return failed, problems


def quantile(values: list, which: int) -> float:
    """``which``-th of the nine deciles (5 = median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[which - 1]


# --- workloads ---

def question_workload(spec: dict, args, work: Path, src: Path) -> dict:
    import scenarios

    count = spec["questions"]
    logprobs = spec["mode"] == "likelihood"
    timed, warmup = scenarios.build(spec["shape"], count, args.seed, logprobs,
                                    spec.get("nli"), warmup=WARMUP_QUESTIONS)
    lm = work / "lm.json"
    nli = work / "nli.json" if spec.get("nli") else None
    scenarios.write_fixtures(timed + warmup, lm, nli)
    passes = whole_passes(args.seconds, spec)
    service = Service(lm, nli, work / "service.log") if spec.get("remote") else None
    try:
        if service is not None:
            config = {"backend": {"kind": "http", "endpoint": service.base + "/v1/completions"}}
            if nli is not None:
                config["verifier"] = {"kind": "http", "endpoint": service.base + "/v1/nli"}
        else:
            config = {"backend": {"kind": "scripted", "fixtures": str(lm)}}
            if nli is not None:
                config["verifier"] = {"kind": "scripted", "fixtures": str(nli), "strict": False}
        config["mode"] = spec["mode"]
        config_path = work / "engine.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        setup = setup_times(config_path, src)
        job = {"kind": "questions", "config": str(config_path), "trace": bool(args.trace),
               "count_requests": service is None and not args.trace,
               "questions": [scenario["question"] for scenario in timed],
               "warmup": [scenario["question"] for scenario in warmup],
               "passes": passes, "results": str(work / "results.jsonl"),
               "summary": str(work / "summary.json")}
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        worker(["run", str(job_path)], src, WORKER_TIMEOUT_S)
        log = service.log() if service is not None else None
    finally:
        if service is not None:
            service.stop()
    summary = json.loads((work / "summary.json").read_text(encoding="utf-8"))
    lines = [json.loads(line) for line in
             (work / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    failed, problems = check_questions(lines, timed, warmup, spec["mode"])
    timings = summary["timings"]
    attempted = len(timings)
    ms = [seconds * 1000 for _, seconds, _, _ in timings]
    first = [seconds for index, seconds, _, _ in timings if index == 0]
    later = [seconds for index, seconds, _, _ in timings if index > 0]

    def served(start_pass: int) -> list:
        """Service log entries of the questions from ``start_pass`` on."""
        windows = [(began, ended) for index, _, began, ended in timings if index >= start_pass]
        return [entry for entry in log
                if any(began <= entry[2] <= ended for began, ended in windows)]

    if not args.trace:
        if log is not None:
            requests = len(served(0))
        else:
            requests = sum(summary["requests"].values())
        metrics = {
            "setup_s": setup["setup_s"],
            "question_ms_p50": statistics.median(ms),
            "question_ms_p90": quantile(ms, 9),
            "questions_per_s": attempted / sum(first + later),
            "requests_per_question": requests / attempted,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    else:
        layers = dict(summary["layers"])
        layers["tracing.overhead_ms_per_question"] = (
            statistics.mean(later) - statistics.mean(first)) * 1000
        questions = len(later)
        if log is not None:
            entries = served(1)
            kinds = [entry[1] for entry in entries]
            groups, peak = rounds([(entry[2], entry[3]) for entry in entries])
            layers.update({
                "backend.truth_requests_per_question": kinds.count("truth") / questions,
                "backend.completion_requests_per_question":
                    kinds.count("completion") / questions,
                "backend.logprob_requests_per_question": kinds.count("logprob") / questions,
                "verifier.nli_requests_per_question": kinds.count("nli") / questions,
                "backend.rounds_per_question": groups / questions,
                "backend.max_in_flight": peak,
                "backend.connections_per_question":
                    len({entry[0] for entry in entries}) / questions,
                "backend.request_kb_per_question":
                    sum(entry[4] for entry in entries) / 1024 / questions,
            })
        else:
            layers.update({"backend.connections_per_question": 0,
                           "backend.request_kb_per_question": 0})
        layers.update({"cache.files_per_question": 0, "cache.kb_per_question": 0,
                       "cache.cold_questions_per_s": 0, "cache.warm_questions_per_s": 0,
                       "config.import_ms": setup["import_ms"],
                       "config.build_engine_ms": setup["build_ms"]})
        metrics = layers
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


def planted_gold(pair: int, member: int, answer: bool) -> bool:
    """Gold labels with a planted error pattern: every fourth pair from the
    second on has its first member wrong, every fourth from the fourth on both."""
    wrong = (pair % 4 == 1 and member == 0) or pair % 4 == 3
    return answer != wrong


def eval_workload(spec: dict, args, work: Path, src: Path) -> dict:
    import scenarios

    count = spec["questions"]
    timed, _ = scenarios.build(spec["shape"], count, args.seed, True)
    lm = work / "lm.json"
    scenarios.write_fixtures(timed, lm, None)
    wants = [reference.expected(scenario, spec["mode"]) for scenario in timed]
    records = []
    for index, (scenario, want) in enumerate(zip(timed, wants)):
        pair, member = divmod(index, 2)
        records.append({"id": f"r{index:04d}", "question": scenario["question"],
                        "label": planted_gold(pair, member, want["answer"]),
                        "pair_id": f"r{2 * pair + 1 - member:04d}"})
    dataset = work / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(record) + "\n" for record in records),
                       encoding="utf-8")
    correct_ids = {record["id"] for record, want in zip(records, wants)
                   if record["label"] == want["answer"]}
    pairs_both = sum(1 for pair in range(count // 2)
                     if {f"r{2 * pair:04d}", f"r{2 * pair + 1:04d}"} <= correct_ids)

    config = {"backend": {"kind": "scripted", "fixtures": str(lm)},
              "mode": spec["mode"], "seed": 0}
    probe_config = work / "engine.json"
    probe_config.write_text(json.dumps(dict(config, cache_dir=str(work / "probe-cache"),
                                            trace_path=str(work / "probe-trace.jsonl"))),
                            encoding="utf-8")
    setup = setup_times(probe_config, src)
    engine_config = work / "engine-base.json"
    engine_config.write_text(json.dumps(config), encoding="utf-8")
    rounds_wanted = whole_passes(args.seconds, spec)
    job = {"kind": "eval", "config": str(engine_config), "trace": bool(args.trace),
           "dataset": str(dataset), "rounds": rounds_wanted, "work": str(work),
           "caches": str(HERE / ".work" / "caches"),
           # one pool worker: one client in a closed loop, as on the other
           # workloads; two threads trading the interpreter lock around every
           # cache write made the cold pass swing between runs in trials
           "workers": 1,
           "summary": str(work / "summary.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    worker(["run", str(job_path)], src, WORKER_TIMEOUT_S)
    summary = json.loads((work / "summary.json").read_text(encoding="utf-8"))

    problems, failed = [], 0
    rows = summary["rows"]
    first_cold = rows[1]["cold"]
    if "lines" in first_cold:
        for line, record, want in zip(first_cold["lines"].splitlines(), records, wants):
            line = json.loads(line)
            if line["id"] != record["id"] or line["answer"] != want["answer"] \
                    or line["correct"] != (record["label"] == want["answer"]):
                problems.append(f"record {record['id']}: answer {line['answer']}, "
                                f"reference {want['answer']}")
    expected_report = {"accuracy": len(correct_ids) / count, "correct_count": len(correct_ids),
                       "pair_count": count // 2, "pair_correct_count": pairs_both,
                       "pairwise_accuracy": pairs_both / (count // 2), "record_count": count}
    for row in rows[1:]:
        for phase in ("cold", "warm"):
            outcome = row[phase]
            if "error" in outcome:
                failed += count
                print(f"failed: round {row['round']} {phase}: {outcome['error']}",
                      file=sys.stderr)
                continue
            report = outcome["report"]
            if any(report[key] != value for key, value in expected_report.items()):
                problems.append(f"round {row['round']} {phase}: report {report} "
                                f"differs from the planted counts {expected_report}")
            if outcome["digest"] != first_cold.get("digest"):
                problems.append(f"round {row['round']} {phase}: results differ from the "
                                "first cold pass")
        if "error" not in row["warm"] and row["warm"]["backend_calls"] != 0:
            problems.append(f"round {row['round']}: warm pass sent "
                            f"{row['warm']['backend_calls']} requests to the backend")
    timed_rows = [row for row in rows[1:] if "error" not in row["cold"]
                  and "error" not in row["warm"]]
    cold = [row["cold"]["seconds"] for row in timed_rows]
    warm = [row["warm"]["seconds"] for row in timed_rows]
    print(f"round caches spread over block groups: {summary['spread']}", file=sys.stderr)
    print("cold pass s: " + " ".join(f"{s:.3f}" for s in cold), file=sys.stderr)
    print("warm pass s: " + " ".join(f"{s:.3f}" for s in warm), file=sys.stderr)
    attempted = 2 * count * (len(rows) - 1)
    if not timed_rows:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}, "problems": problems}
    if not args.trace:
        ms = [seconds * 1000 for row in timed_rows for phase in ("cold", "warm")
              for seconds in row[phase]["questions"]]
        metrics = {
            "setup_s": setup["setup_s"],
            "question_ms_p50": statistics.median(ms),
            "question_ms_p90": quantile(ms, 9),
            # the median round's, so that a round the machine slowed
            # weighs no more than any other
            "questions_per_s": 2 * count / statistics.median(
                c + w for c, w in zip(cold, warm)),
            "requests_per_question":
                sum(row["cold"]["backend_calls"] for row in timed_rows) / (count * len(cold)),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    else:
        layers = dict(summary["layers"])
        traced = timed_rows[1:]
        baseline = cold[0] + warm[0]
        layers.update({
            "tracing.overhead_ms_per_question": statistics.mean(
                (row["cold"]["seconds"] + row["warm"]["seconds"] - baseline) * 1000 / (2 * count)
                for row in traced),
            "backend.connections_per_question": 0,
            "backend.request_kb_per_question": 0,
            "cache.files_per_question": statistics.mean(
                row["cold"]["cache_files"] for row in traced) / count,
            "cache.kb_per_question": statistics.mean(
                row["cold"]["cache_bytes"] for row in traced) / 1024 / count,
            "cache.cold_questions_per_s": statistics.median(
                count / row["cold"]["seconds"] for row in traced),
            "cache.warm_questions_per_s": statistics.median(
                count / row["warm"]["seconds"] for row in traced),
            "config.import_ms": setup["import_ms"],
            "config.build_engine_ms": setup["build_ms"],
        })
        metrics = layers
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


LAYER_TIMES = {
    "model calls (round-trip wait when remote)": ("backend.wait_ms_per_question",
                                                  "verifier.nli_wait_ms_per_question"),
    "cache reads and writes": ("cache.get_ms_per_question", "cache.put_ms_per_question"),
    "call trace": ("trace.record_ms_per_question",),
    "prompt rendering": ("prompts.render_ms_per_question",),
    "request digests": ("backend.digest_ms_per_question",),
    "tree growth (self)": ("tree_builder.self_ms_per_question",),
    "pruning": ("tree_builder.prune_ms_per_question",),
    "compiling (self)": ("compiler.self_ms_per_question",),
    "NLI clauses (self)": ("verifier.self_ms_per_question",),
    "solving": ("solver.solve_ms_per_question",),
    "evaluate (self)": ("harness.evaluate_self_ms_per_question",),
}


def print_shares(layers: dict) -> None:
    """Each layer's share of the traced question time, largest first, on stderr."""
    question = layers["harness.infer_ms_per_question"] + \
        layers["harness.evaluate_self_ms_per_question"]
    shares = {name: sum(layers[key] for key in keys) / question
              for name, keys in LAYER_TIMES.items()}
    print("share of traced question time: " + ", ".join(
        f"{name} {share:.0%}" for name, share in
        sorted(shares.items(), key=lambda item: -item[1])), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Offline benchmark of the maieutic engine")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops its service and worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "maieutic" / "__init__.py").is_file():
        print(f"no maieutic sources under {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        run = eval_workload if spec.get("eval") else question_workload
        outcome = run(spec, args, work, src)
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(outcome["metrics"])
    if missing:
        print(f"metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    if args.trace:
        print_shares(outcome["metrics"])
    for problem in outcome["problems"][:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload}: {time.perf_counter() - started:.1f} s wall", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["correct"], "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
