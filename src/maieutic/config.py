"""Run configuration loaded from JSON (or TOML on Python 3.11+/tomli).

A config file wires together the backend, the optional NLI verifier,
prompt-set paths, the tree shape and the binary-clause mode. Relative
paths are resolved against the config file's directory. API
credentials never live in the file; they come from the environment.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from .compiler import CompileMode
from .core import PromptMode, TreeConfig

_PROMPT_KEYS = ("truth", "abductive", "explanation")


@dataclass
class EngineConfig:
    """Everything a run needs, in serializable form."""

    backend: dict = field(default_factory=lambda: {"kind": "scripted"})
    verifier: Optional[dict] = None
    mode: CompileMode = CompileMode.LIKELIHOOD
    tree: TreeConfig = field(default_factory=TreeConfig)
    prompts: dict = field(default_factory=dict)
    cache_dir: Optional[str] = None
    trace_path: Optional[str] = None
    seed: int = 0
    workers: int = 4

    @classmethod
    def from_dict(cls, data: dict, base_dir: Optional[Path] = None) -> EngineConfig:
        known = {"backend", "verifier", "mode", "tree", "prompts",
                 "cache_dir", "trace_path", "seed", "workers"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        config = cls(
            backend=dict(data.get("backend", {"kind": "scripted"})),
            verifier=None if data.get("verifier") is None else dict(data["verifier"]),
            mode=CompileMode(data.get("mode", "likelihood")),
            tree=TreeConfig.from_dict(data.get("tree", {})),
            prompts=dict(data.get("prompts", {})),
            cache_dir=data.get("cache_dir"),
            trace_path=data.get("trace_path"),
            seed=int(data.get("seed", 0)),
            workers=int(data.get("workers", 4)),
        )
        if base_dir is not None:
            config._resolve_paths(base_dir)
        return config

    def _resolve_paths(self, base_dir: Path) -> None:
        def resolved(value: Optional[str]) -> Optional[str]:
            if value is None:
                return None
            path = Path(value)
            return str(path if path.is_absolute() else base_dir / path)

        for table in (self.backend, self.verifier or {}):
            if "fixtures" in table:
                table["fixtures"] = resolved(table["fixtures"])
        self.prompts = {key: resolved(value) for key, value in self.prompts.items()}
        self.cache_dir = resolved(self.cache_dir)
        self.trace_path = resolved(self.trace_path)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> EngineConfig:
        path = Path(path)
        if path.suffix.lower() == ".toml":
            if tomllib is None:
                raise ValueError("TOML configs need Python 3.11+ or the tomli package; "
                                 "JSON configs work everywhere")
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        return cls.from_dict(data, base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "backend": dict(self.backend),
            "verifier": None if self.verifier is None else dict(self.verifier),
            "mode": self.mode.value,
            "tree": self.tree.to_dict(),
            "prompts": dict(self.prompts),
            "cache_dir": self.cache_dir,
            "trace_path": self.trace_path,
            "seed": self.seed,
            "workers": self.workers,
        }


def build_engine(config: EngineConfig):
    """Instantiate the runtime pieces a config describes."""
    from . import harness
    from .backend import (
        CachedBackend,
        HttpLmBackend,
        ResponseCache,
        ScriptedBackend,
        TraceRecorder,
    )
    from .prompts import load_or_default
    from .verifier import CachedVerifier, HttpNliVerifier, ScriptedNliVerifier

    kind = config.backend.get("kind", "scripted")
    if kind == "scripted":
        fixtures = config.backend.get("fixtures")
        if not fixtures:
            raise ValueError("a scripted backend needs a fixtures path")
        inner = ScriptedBackend(fixtures,
                                backend_id=config.backend.get("id", "scripted"))
    elif kind == "http":
        inner = HttpLmBackend(
            endpoint=config.backend.get("endpoint", ""),
            model=config.backend.get("model"),
            timeout=float(config.backend.get("timeout", 30.0)),
            retries=int(config.backend.get("retries", 3)),
        )
    else:
        raise ValueError(f"unknown backend kind {kind!r}")

    backend = inner
    if config.cache_dir is not None or config.trace_path is not None:
        cache = ResponseCache(config.cache_dir) if config.cache_dir else None
        backend = CachedBackend(inner, cache, seed=config.seed,
                                trace=TraceRecorder(config.trace_path))

    verifier = None
    if config.verifier is not None:
        verifier_kind = config.verifier.get("kind", "scripted")
        if verifier_kind == "scripted":
            verifier = ScriptedNliVerifier(
                config.verifier.get("fixtures") or (),
                strict=bool(config.verifier.get("strict", True)))
        elif verifier_kind == "http":
            verifier = HttpNliVerifier(
                endpoint=config.verifier.get("endpoint"),
                timeout=float(config.verifier.get("timeout", 30.0)),
                retries=int(config.verifier.get("retries", 3)),
            )
        else:
            raise ValueError(f"unknown verifier kind {verifier_kind!r}")
    if verifier is not None and backend is not inner:
        verifier = CachedVerifier(verifier, backend)
    if config.mode is CompileMode.VERIFIER and verifier is None:
        raise ValueError("verifier mode needs a verifier section in the config")

    return harness.Engine(
        backend=backend,
        tree_config=config.tree,
        mode=config.mode,
        verifier=verifier,
        truth_prompts=load_or_default(config.prompts.get("truth"),
                                      PromptMode.QA_PAIRS),
        abductive_prompts=load_or_default(config.prompts.get("abductive"),
                                          PromptMode.ABDUCTIVE_TRIPLES),
        explanation_prompts=load_or_default(config.prompts.get("explanation"),
                                            PromptMode.QA_EXPLANATION_TRIPLES),
        seed=config.seed,
    )
