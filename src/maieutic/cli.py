"""Command-line entry point: infer, eval, tree, wcnf."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import harness, solver
from .compiler import CompileMode
from .config import EngineConfig, build_engine
from .core import (label_word, read_text, tree_from_dot, tree_from_json, tree_to_dot,
                   tree_to_json)
from .errors import MaieuticError
from .harness import Method

_METHODS = {
    "standard": Method.STANDARD,
    "explanation": Method.EXPLANATION_BASED,
    "maieutic": Method.MAIEUTIC,
}


def _load_config(args: argparse.Namespace) -> EngineConfig:
    config = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    if args.backend:
        config.backend = {"kind": "scripted", "fixtures": args.backend}
    if args.nli:
        config.verifier = {"kind": "scripted", "fixtures": args.nli}
    if args.mode:
        config.mode = CompileMode(args.mode)
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    if args.trace:
        config.trace_path = args.trace
    if args.seed is not None:
        config.seed = args.seed
    return config


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_infer(args: argparse.Namespace) -> int:
    engine = build_engine(_load_config(args))
    result = harness.infer(args.question, _METHODS[args.method], engine)
    if args.explain:
        _emit(harness.explain(result, args.explain), args.out)
    else:
        _emit(label_word(result.answer) + "\n", args.out)
        if result.fallback_used:
            print("note: fallback answer (direct prompting)", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    engine = build_engine(config)
    records = harness.load_dataset(args.dataset, args.adapter)
    report = harness.evaluate(
        records, _METHODS[args.method], engine,
        workers=args.workers if args.workers is not None else config.workers,
        results_path=args.results, manifest_path=args.manifest)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if report.error_count:
        print(f"error: {report.error_count} of {report.record_count} records failed; "
              "their rows in the results carry the error", file=sys.stderr)
        return 1
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    text = read_text(args.input)
    from_dot = text.lstrip().startswith("digraph")
    tree = tree_from_dot(text) if from_dot else tree_from_json(text)
    target = args.to or ("json" if from_dot else "dot")
    rendered = tree_to_json(tree) if target == "json" else tree_to_dot(tree)
    _emit(rendered, args.out)
    return 0


def _cmd_wcnf(args: argparse.Namespace) -> int:
    _, cnf = harness.compile_question(args.question, build_engine(_load_config(args)))
    if cnf is None:
        print("error: the pruned tree is root-only; nothing to export", file=sys.stderr)
        return 2
    written = solver.export_wcnf(cnf, args.out)
    print(f"wrote {written} and {written}.map.json")
    return 0


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="engine config file (JSON, or TOML where supported)")
    parser.add_argument("--backend", help="scripted-backend fixture file; overrides the config")
    parser.add_argument("--nli", help="scripted NLI fixture file; overrides the config")
    parser.add_argument("--mode", choices=[m.value for m in CompileMode],
                        help="binary-clause source")
    parser.add_argument("--cache-dir", help="response cache directory")
    parser.add_argument("--trace", help="backend call trace (JSONL) path")
    parser.add_argument("--seed", type=int, help="run seed for cached sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maieutic",
        description="Answer true/false questions through a tree of abductive "
                    "explanations compiled to weighted MAX-SAT.")
    commands = parser.add_subparsers(dest="command", required=True)

    infer = commands.add_parser("infer", help="answer a single question")
    infer.add_argument("question")
    infer.add_argument("--method", choices=sorted(_METHODS), default="maieutic")
    infer.add_argument("--explain", choices=["text", "dot", "json"],
                       help="emit the full rationale instead of the bare answer")
    infer.add_argument("--out", help="write output here instead of stdout")
    _add_engine_flags(infer)
    infer.set_defaults(func=_cmd_infer)

    evaluate = commands.add_parser("eval", help="score a JSONL dataset")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--adapter", choices=sorted(harness.DATASET_ADAPTERS),
                          default="native")
    evaluate.add_argument("--method", choices=sorted(_METHODS), default="maieutic")
    evaluate.add_argument("--results", help="per-record JSONL output path")
    evaluate.add_argument("--manifest", help="run manifest path")
    evaluate.add_argument("--workers", type=int)
    _add_engine_flags(evaluate)
    evaluate.set_defaults(func=_cmd_eval)

    tree = commands.add_parser("tree", help="convert a tree between JSON and DOT")
    tree.add_argument("input")
    tree.add_argument("--to", choices=["json", "dot"])
    tree.add_argument("--out", help="write output here instead of stdout")
    tree.set_defaults(func=_cmd_tree)

    wcnf = commands.add_parser("wcnf", help="export a question's compiled instance")
    wcnf.add_argument("question")
    wcnf.add_argument("--out", required=True, help="WCNF output path")
    _add_engine_flags(wcnf)
    wcnf.set_defaults(func=_cmd_wcnf)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MaieuticError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
