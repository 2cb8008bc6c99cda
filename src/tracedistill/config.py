"""Pipeline configuration: a JSON file with students described toml-style
(flat key/value specs). All seeds are explicit so every stage is
reproducible; the config hash pins a run in the manifest.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from .errors import ConfigError
from .jsonlio import dumps_canonical, read_json
from .students import builtin_students

DEFAULT_STAGE_FILES = {
    "scenes": "scenes.json",
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
    "paths": {},
    "scene_count": 50,
    "corruption_rate": 0.0,
    "noise_p": 0.0,
    "edit": {"prune": True, "merge": True, "bridge": True},
    "students": [
        {"kind": "noisy_oracle", "seed": 11, "failure_rate": 0.5},
        {"kind": "rationale_sensitive", "trigger_mode": "answer"},
        {"kind": "stubborn", "fixed_answer": "yes"},
    ],
    "min_score": 0,
    "harm_verdict": -1,
    "lambda": 1.0,
    "train": {"epochs": 60, "step_size": 0.5},
    "max_steps": 10_000,
    "external_generator": {"enabled": False, "endpoint": "", "api_doc_version": "v1", "timeout": 5.0},
    "external_bridger": {"enabled": False, "endpoint": "", "timeout": 5.0},
    "seeds": {
        "scene_gen": 101,
        "query_gen": 102,
        "program_gen": 103,
        "students": 104,
        "train": 105,
    },
    "strict": False,
}


@dataclass
class PipelineConfig:
    raw: dict
    base_dir: Path = field(default_factory=Path.cwd)

    def __getitem__(self, key):
        return self.raw[key]

    def get(self, key, default=None):
        return self.raw.get(key, default)

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
        raw = copy.deepcopy(self.raw)
        raw.update(kw)
        return PipelineConfig(raw=raw, base_dir=self.base_dir)


def _merge_defaults(defaults: dict, given: dict) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge_defaults(merged[key], value)
        else:
            merged[key] = value
    return merged


def default_config(base_dir: str | Path = ".") -> PipelineConfig:
    return PipelineConfig(raw=copy.deepcopy(DEFAULTS), base_dir=Path(base_dir))


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """Stages read ``value`` with ``int()``: accept an integer or a digit
    string at or above ``minimum``, and reject a bool."""
    try:
        number = int(value) if isinstance(value, (int, str)) else None
    except ValueError:
        number = None
    if number is None or (minimum is None and isinstance(value, bool)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and (isinstance(value, bool) or number < minimum):
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def _check_number(name: str, value, positive: bool) -> None:
    """Stages read ``value`` with ``float()``: accept a finite number, or a
    string of one, that is > 0 (``positive``) or >= 0; reject a bool."""
    try:
        number = float(value) if isinstance(value, (int, float, str)) else None
    except ValueError:
        number = None
    if (number is None or isinstance(value, bool) or not math.isfinite(number)
            or number < 0 or (positive and number == 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{name} must be a finite number {bound}, got {value!r}")


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = _merge_defaults(DEFAULTS, raw)
    if not (0.0 <= merged["corruption_rate"] <= 1.0):
        raise ConfigError("corruption_rate must lie in [0, 1]")
    if not (0.0 <= merged["noise_p"] <= 1.0):
        raise ConfigError("noise_p must lie in [0, 1]")
    if isinstance(merged["harm_verdict"], bool) or merged["harm_verdict"] not in (-1, 0):
        raise ConfigError("harm_verdict must be -1 or 0")
    if not isinstance(merged["train"], dict):
        raise ConfigError(f"train must be an object, got {merged['train']!r}")
    _check_integer("scene_count", merged["scene_count"], minimum=1)
    _check_integer("max_steps", merged["max_steps"], minimum=1)
    _check_integer("min_score", merged["min_score"])
    _check_integer("train.epochs", merged["train"]["epochs"], minimum=1)
    _check_number("lambda", merged["lambda"], positive=False)
    _check_number("train.step_size", merged["train"]["step_size"], positive=True)
    if not merged["students"]:
        raise ConfigError("students must name at least one student")
    # Build the ensemble once without a corpus so a bad student spec fails
    # here, before any stage writes a file.
    builtin_students(merged["students"], scenes_by_id={}, queries=[])
    return PipelineConfig(raw=merged, base_dir=path.parent)


def apply_seed_override(config: PipelineConfig, seed: int) -> PipelineConfig:
    """--seed N rebases every per-stage seed deterministically."""
    seeds = {name: seed + i for i, name in enumerate(sorted(DEFAULTS["seeds"]))}
    return config.with_overrides(seeds=seeds)
