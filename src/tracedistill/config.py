"""Pipeline configuration: a JSON file with students described toml-style
(flat key/value specs). All seeds are explicit so every stage is
reproducible; the config hash pins a run in the manifest.

This module alone knows the config's shape: a key's default (in ``DEFAULTS``
or ``STUDENT_DEFAULTS``) gives its type, and ``BOUNDS`` what it must be
beyond that. Each ``PipelineConfig`` is walked against them when built, so
the stages read every value as it is. Each default is written here once;
the student classes have none. An external client is on exactly when its
``endpoint`` is non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from .errors import ConfigError
from .jsonlio import dumps_canonical, read_json

DEFAULT_STAGE_FILES = {
    "scenes": "scenes.jsonl",
    "queries": "queries.jsonl",
    "programs": "programs.jsonl",
    "traces": "traces.jsonl",
    "rationales": "rationales.jsonl",
    "scored": "scored.jsonl",
    "dataset": "dataset.jsonl",
    "metrics": "metrics.json",
    "ablation": "ablation.json",
    "manifest": "manifest.json",
}

DEFAULTS = {
    "workdir": ".",
    "paths": {},  # any key of DEFAULT_STAGE_FILES, naming that stage's file
    "scene_count": 50,
    "corruption_rate": 0.0,
    "noise_p": 0.0,
    "edit": {"prune": True, "merge": True, "bridge": True},
    "students": [
        {"kind": "noisy_oracle", "seed": 11, "failure_rate": 0.5},
        {"kind": "rationale_sensitive"},
        {"kind": "stubborn"},
    ],
    "min_score": 0,
    "harm_verdict": -1,
    "lambda": 1.0,
    "train": {"epochs": 60, "step_size": 0.5},
    "max_steps": 10_000,
    "external_generator": {"endpoint": "", "api_doc_version": "v1", "timeout": 5.0},
    "external_bridger": {"endpoint": "", "timeout": 5.0},
    "seeds": {"scene_gen": 101, "query_gen": 102, "program_gen": 103, "students": 104, "train": 105},
    "strict": False,
}

# Each student kind's spec keys besides `kind` and `name`, with the value a
# spec that omits one gets when the ensemble is built. A null default makes
# the key an optional integer. The stages give a noisy oracle without a
# `seed` the effective `seeds.students` instead of this table's 0.
STUDENT_DEFAULTS = {
    "noisy_oracle": {"seed": 0, "failure_rate": 0.0},
    "rationale_sensitive": {"token_budget": None},
    "stubborn": {"fixed_answer": "yes"},
}


def _bound(test, must: str) -> tuple:
    return test, "{0} must " + must + ", got {1!r}"


_AT_LEAST_1 = _bound(lambda v: v >= 1, "be >= 1")
_RATE = _bound(lambda v: 0 <= v <= 1, "lie in [0, 1]")
_POSITIVE = _bound(lambda v: v > 0, "be a finite number > 0")

# (test, message) by key path, a student spec's keys under "students.". The
# message, formatted with the path and the value given, also reports a value
# not of the key's type, except for a required integer.
BOUNDS = {
    "scene_count": _AT_LEAST_1,
    "max_steps": _AT_LEAST_1,
    "train.epochs": _AT_LEAST_1,
    **{f"seeds.{name}": _bound(lambda v: v >= 0, "be >= 0") for name in DEFAULTS["seeds"]},
    "harm_verdict": _bound(lambda v: v in (-1, 0), "be -1 or 0"),
    "corruption_rate": _RATE,
    "noise_p": _RATE,
    "lambda": _bound(lambda v: v >= 0, "be a finite number >= 0"),
    "train.step_size": _POSITIVE,
    "external_generator.timeout": _POSITIVE,
    "external_bridger.timeout": _POSITIVE,
    "students.failure_rate": _RATE,
    "students.token_budget": _bound(lambda v: v >= 0, "be null or an integer >= 0"),
    "students.fixed_answer": _bound(lambda v: v != "", "be a non-empty string"),
}

# What a value of each type may be given as, and what it must be.
_TYPES = {bool: (bool, "be true or false"), str: (str, "be a string"),
          int: ((int, str), "be an integer"), float: ((int, float, str), "be a finite number")}


def student_keys(spec, index: int) -> dict:
    """Every key the ``index``-th student spec may give, with its default
    (``kind``'s is the spec's own); ConfigError for an unknown kind."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in STUDENT_DEFAULTS:
        raise ConfigError(f"unknown student kind {kind!r}")
    return {"kind": kind, "name": f"{kind}_{index}", **STUDENT_DEFAULTS[kind]}


def _scalar(path: str, value, default):
    """``value`` as the type of ``default``, within its bound. A number may
    come as a string of it; a bool is never a number."""
    if default is None and value is None:
        return None
    kind = int if default is None else type(default)
    accepts, must = _TYPES[kind]
    plain = "{0} must " + must + ", got {1!r}"
    test, message = BOUNDS.get(path, (None, plain))
    try:
        if not isinstance(value, accepts):
            raise ValueError
        normal = kind(value)
    except (ValueError, OverflowError):
        first = plain if kind is int and default is not None else message
        raise ConfigError(first.format(path, value)) from None
    if ((isinstance(value, bool) and kind is not bool)
            or (kind is float and not math.isfinite(normal))
            or (test is not None and not test(normal))):
        raise ConfigError(message.format(path, value))
    return normal


def _object(path: str, given, schema: dict, fill: bool) -> dict:
    """``given`` walked key by key against ``schema``; with ``fill``, each
    key it omits takes its default."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path} must be an object, got {given!r}")
    prefix = f"{path}." if path else ""
    unknown = sorted(prefix + key for key in given.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return {
        key: _normal(prefix + key, given[key] if key in given else default, default)
        for key, default in schema.items()
        if fill or key in given
    }


def _normal(path: str, value, default):
    if path == "paths":
        return _object(path, value, DEFAULT_STAGE_FILES, fill=False)
    if path == "students":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"students must name at least one student, got {value!r}")
        specs = [_object(path, spec, student_keys(spec, i), fill=False) for i, spec in enumerate(value)]
        # scored.jsonl and score's verdict counts tell students apart by name
        names = [spec.get("name", student_keys(spec, i)["name"]) for i, spec in enumerate(specs)]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"students must have distinct names, got {repeated} more than once")
        return specs
    if isinstance(default, dict):
        return _object(path, value, default, fill=True)
    return _scalar(path, value, default)


@dataclass
class PipelineConfig:
    """``raw`` is put in normal form on construction: unknown keys at any
    depth are rejected, omitted ones take their defaults, and each value is
    turned into its type, so two configs that mean the same hash the same."""

    raw: dict
    base_dir: Path = field(default_factory=Path.cwd)

    def __post_init__(self) -> None:
        self.raw = _object("", self.raw, DEFAULTS, fill=True)

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def workdir(self) -> Path:
        return (self.base_dir / self.raw["workdir"]).resolve()

    def path(self, stage: str) -> Path:
        name = self.raw["paths"].get(stage, DEFAULT_STAGE_FILES[stage])
        return self.workdir / name

    @property
    def edit_flags(self) -> dict:
        return self.raw["edit"]

    @property
    def seeds(self) -> dict:
        return self.raw["seeds"]

    def config_hash(self) -> str:
        return sha256(dumps_canonical(self.raw).encode("utf-8")).hexdigest()

    def with_overrides(self, **kw) -> "PipelineConfig":
        """This config with the top-level keys in ``kw`` replaced."""
        return PipelineConfig(raw={**self.raw, **kw}, base_dir=self.base_dir)


def default_config(base_dir: str | Path = ".") -> PipelineConfig:
    return PipelineConfig(raw=DEFAULTS, base_dir=Path(base_dir))


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return PipelineConfig(raw=raw, base_dir=path.parent)


def apply_seed_override(config: PipelineConfig, seed: int) -> PipelineConfig:
    """--seed N rebases every per-stage seed deterministically."""
    seeds = {name: seed + i for i, name in enumerate(sorted(DEFAULTS["seeds"]))}
    return config.with_overrides(seeds=seeds)
