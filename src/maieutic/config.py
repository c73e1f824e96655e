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
from .core import TreeConfig, check_fields, field_types, parse_json, read_text
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


def _prompt_keys(truth=None, abductive=None, explanation=None):
    """A ``prompts`` table's keys, each a prompt-file path; never called."""


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

        def path(value: Any) -> Any:
            # pathlib keeps an absolute path as it is; a value that is not a
            # string is left for its section's ``check_fields`` to name
            return str(base_dir / value) if base_dir is not None and type(value) is str else value

        def section(table: Optional[dict]) -> Optional[dict]:
            return None if table is None else {
                key: path(value) if key == "fixtures" else value for key, value in table.items()}

        def prompts(table: dict) -> dict:
            check_fields("prompts", table, dict.fromkeys(harness.PROMPT_FIELDS, str), _prompt_keys)
            return {key: path(value) for key, value in table.items()}

        # how each key's value is read, with its paths resolved for a config file
        read = {"backend": section, "verifier": section, "mode": CompileMode,
                "tree": TreeConfig.from_dict, "prompts": prompts, "cache_dir": path,
                "trace_path": path}
        config = cls(**{key: read[key](value) if key in read else value
                        for key, value in data.items()})
        nodes = config.tree.max_nodes_excluding_root() + 1  # one WCNF variable each
        if nodes > MAX_WCNF_VARIABLES:
            raise ValueError(f"tree allows {nodes} nodes, more than the "
                             f"{MAX_WCNF_VARIABLES} variables of a WCNF file")
        return config

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
