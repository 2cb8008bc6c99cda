"""The benchmark's workloads and the fault probe.

A workload is a config built from the run's seed, inputs built once in
set-up (``prepare``), a timed part (``run``) made only of the program's
public functions, and checks on what the timed part wrote (``check``). The
seed reaches the program only through ``apply_seed_override``, the same
rebasing ``tracedistill --seed`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracedistill import jsonlio, pipeline
from tracedistill.config import apply_seed_override, default_config

import checks

CORRUPTION = 0.2
GRID = [(p, m, b) for p in (0, 1) for m in (0, 1) for b in (0, 1)]


def make_config(workdir: Path, scene_count: int, seed: int | None):
    """Default students, 60 epochs, noise 0; ``seed`` None keeps the
    default per-stage seeds."""
    config = default_config(workdir).with_overrides(
        scene_count=scene_count, corruption_rate=CORRUPTION
    )
    return config if seed is None else apply_seed_override(config, seed)


def _run_stages(config, stages) -> None:
    manifest = pipeline.new_manifest(config)
    for stage in stages:
        pipeline.STAGES[stage](config, manifest)
    manifest.check_funnel()
    jsonlio.write_json(config.path("manifest"), manifest.to_dict())


BASE_STAGES = ["scene-gen", "program-gen", "exec"]
BUILD_STAGES = [s for s in pipeline.RUN_ALL_ORDER if s != "train"]
PROBE_STAGES = BUILD_STAGES[: BUILD_STAGES.index("score") + 1]


def _check_single(config, report: checks.Report, *, trained: bool) -> int:
    corpus = checks.check_corpus(config, report)
    failed, _ = checks.check_cell(corpus, config, report, count_student_faults=False,
                                  trained=trained)
    return len(failed)


def _check_grid(config, report: checks.Report) -> int:
    corpus = checks.check_corpus(config, report)
    cells = jsonlio.read_json(config.path("ablation"))["cells"]
    texts = {}
    failed = 0
    for p, m, b in GRID:
        key = f"prune={p},merge={m},bridge={b}"
        if "error" in cells[key]:
            report.fail(f"ablation cell {key}: {cells[key]['error']}")
            failed += len(corpus.queries)
            continue
        # run_ablation's layout for a cell's stage files.
        cell_dir = config.workdir / "ablation" / key.replace(",", "_").replace("=", "")
        cell = config.with_overrides(paths={
            **config.raw["paths"],
            **{stage: str(cell_dir / name) for stage, name in (
                ("rationales", "rationales.jsonl"), ("scored", "scored.jsonl"),
                ("dataset", "dataset.jsonl"), ("metrics", "metrics.json"))},
        })
        cell_failed, texts[(p, m, b)] = checks.check_cell(
            corpus, cell, report, count_student_faults=False, trained=True
        )
        failed += len(cell_failed)
    if len(texts) == len(GRID):
        checks.check_grid(texts, report)
    return failed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene_count: int
    passes: int  # passes through the funnel per round; one operation per query and pass
    prepare: Callable  # config -> None, set-up
    # config -> None, the timed part. It calls the program through module
    # attributes, so that the tracer's wrappers are the ones called.
    run: Callable
    check: Callable  # (config, Report) -> failed operations of one round

    @property
    def operations(self) -> int:
        return self.scene_count * self.passes


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="full_run",
            why="run-all at n=2000, corruption 0.2, default students, 60 epochs: the command "
                "users run; every stage works, train ~40%, exec and parse ~30%",
            scene_count=2000,
            passes=1,
            prepare=lambda config: None,
            run=lambda config: pipeline.run_all(config),
            check=lambda config, report: _check_single(config, report, trained=True),
        ),
        Workload(
            name="ablation_grid",
            why="8-cell ablate over an n=500 corpus built in set-up: edit, score, emit and "
                "train run 8 times and traces.jsonl is read 8 times; train ~75%",
            scene_count=500,
            passes=len(GRID),
            prepare=lambda config: _run_stages(config, BASE_STAGES),
            run=lambda config: pipeline.run_ablation(config),
            check=_check_grid,
        ),
        Workload(
            name="dataset_build",
            why="scene-gen through emit at n=5000, no train: generation, parsing, execution "
                "and trace writing dominate; a train-only change must not move it",
            scene_count=5000,
            passes=1,
            prepare=lambda config: None,
            run=lambda config: _run_stages(config, BUILD_STAGES),
            check=lambda config, report: _check_single(config, report, trained=False),
        ),
    ]
}


# The fault probe: a fixed corpus, the same in every run whatever its seed,
# taken through the funnel to scored rows once per round. Its scored rows
# whose student outcomes differ from the recomputation are the failed
# operations the text-keyed student lookup causes.
PROBE_SCENES = 200


def probe_config(workdir: Path):
    return make_config(workdir, PROBE_SCENES, None)


def run_probe(config, report: checks.Report) -> int:
    """Runs the probe and returns its failed operations."""
    _run_stages(config, PROBE_STAGES)
    corpus = checks.check_corpus(config, report)
    failed, _ = checks.check_cell(corpus, config, report, count_student_faults=True,
                                  trained=False)
    return len(failed)
