"""Run configuration loaded from JSON (or TOML on Python 3.11+/tomli).

A config file wires together the backend, the optional NLI verifier,
prompt-set paths, the tree shape and the binary-clause mode. Relative
paths are resolved against the config file's directory. API
credentials never live in the file; they come from the environment.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

from . import harness
from .backend import CachedBackend, HttpLmBackend, ResponseCache, ScriptedBackend, TraceRecorder
from .compiler import CompileMode
from .core import TreeConfig, check_fields, check_keys, field_types, parse_json, read_text
from .prompts import load_or_default
from .solver import MAX_WCNF_VARIABLES
from .verifier import CachedVerifier, HttpNliVerifier, ScriptedNliVerifier

# Per (section, kind): the client it builds, and the type each key's value
# must have (see ``core.check_fields``). Defaults, and which keys are
# required, are the client constructor's.
_CLIENTS: dict[tuple[str, str], tuple[type, dict[str, type]]] = {
    ("backend", "scripted"): (ScriptedBackend, {"fixtures": str}),
    ("backend", "http"): (HttpLmBackend, {"endpoint": str, "model": str,
                                          "timeout": float, "retries": int}),
    ("verifier", "scripted"): (ScriptedNliVerifier, {"fixtures": str, "strict": bool}),
    ("verifier", "http"): (HttpNliVerifier, {"endpoint": str, "timeout": float,
                                             "retries": int}),
}

# How the value of each top-level key that is not kept as given is read.
_READ = {"backend": dict, "verifier": lambda table: None if table is None else dict(table),
         "mode": CompileMode, "tree": TreeConfig.from_dict, "prompts": dict}


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
        check_fields("config", data, field_types(cls), cls)
        check_keys("prompts", data.get("prompts", {}), harness.PROMPT_FIELDS)
        config = cls(**{key: _READ[key](value) if key in _READ else value
                        for key, value in data.items()})
        nodes = config.tree.max_nodes_excluding_root() + 1  # one WCNF variable each
        if nodes > MAX_WCNF_VARIABLES:
            raise ValueError(f"tree allows {nodes} nodes, more than the "
                             f"{MAX_WCNF_VARIABLES} variables of a WCNF file")
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
            data = parse_json(read_text(path), tomllib.loads)
        else:
            data = parse_json(read_text(path))
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


def _client(section: str, table: dict) -> Any:
    """The backend or verifier a config section describes, built from the
    keys given; ``ValueError`` names the section, kind and key for an unknown
    kind or key, a value of the wrong type or a missing required key."""
    kind = table.get("kind", "scripted")
    if (section, kind) not in _CLIENTS:
        raise ValueError(f"unknown {section} kind {kind!r}")
    client, types = _CLIENTS[section, kind]
    given = {key: value for key, value in table.items() if key != "kind"}
    check_fields(f"{kind} {section}", given, types, client)
    return client(**given)


def build_engine(config: EngineConfig):
    """Instantiate the runtime pieces a config describes."""
    backend = inner = _client("backend", config.backend)
    if config.cache_dir is not None or config.trace_path is not None:
        cache = ResponseCache(config.cache_dir) if config.cache_dir else None
        backend = CachedBackend(inner, cache, seed=config.seed,
                                trace=TraceRecorder(config.trace_path))
    verifier = None if config.verifier is None else _client("verifier", config.verifier)
    if verifier is not None and backend is not inner:
        verifier = CachedVerifier(verifier, backend)
    return harness.Engine(
        backend=backend,
        tree_config=config.tree,
        mode=config.mode,
        verifier=verifier,
        seed=config.seed,
        **{name: load_or_default(config.prompts[key], mode)
           for key, (name, mode) in harness.PROMPT_FIELDS.items() if key in config.prompts},
    )
