"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions themselves carry the stated tolerances.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import tracedistill
from tracedistill.codegen import generate_programs
from tracedistill.config import load_config
from tracedistill.distill import TrainConfig, build_model, encode, loss_and_grads, train, training_input
from tracedistill.dsl import parse
from tracedistill.editing import (
    keep_all,
    merge,
    prune,
    record_to_line,
)
from tracedistill.interp import execute, faithfulness_filter, plain_text
from tracedistill.jsonlio import read_json, read_jsonl
from tracedistill.pipeline import RUN_ALL_ORDER, run_ablation, run_all
from tracedistill.scenes import (
    SPATIAL_RELATIONS,
    Query,
    generate_queries,
    generate_scenes,
    parse_question,
)
from tracedistill.students import (
    builtin_students,
    utility_score,
    verdict_for,
)

from .conftest import build_correlation_task, make_muffin_scene
from .oracles import evaluate, grad_check

PASS = "ACCEPTANCE PASS"


@pytest.fixture(scope="module")
def faithful_corpus():
    """>= 500 faithful traces spanning all five program templates."""
    scenes = generate_scenes(520, seed=2024)
    queries = generate_queries(scenes, seed=2025)
    by_id = {s.scene_id: s for s in scenes}
    programs = generate_programs(queries, 0.0, seed=2026)
    started = time.monotonic()
    rows = []
    for program, query in zip(programs, queries):
        scene = by_id[query.scene_id]
        trace = execute(parse(program.source), scene, program_id=program.program_id)
        rows.append((program, query, scene, trace))
    kept, _ = faithfulness_filter([(t, q) for _, q, _, t in rows])
    assert len(kept) == len(rows)  # corruption 0, noise 0
    return rows, started


def test_slice_soundness(faithful_corpus):
    rows, started = faithful_corpus
    assert len(rows) >= 500
    parsed = [parse_question(q.question) for _, q, _, _ in rows]
    assert {form for form, _ in parsed} == {"count", "exists", "attribute", "spatial", "relation"}
    assert {parts[1] for form, parts in parsed if form == "spatial"} == set(SPATIAL_RELATIONS)
    replayed = 0
    for program, query, scene, trace in rows:
        pruned = prune(trace)
        replay, _, _ = evaluate(parse(program.source), scene, pruned)
        assert plain_text(replay) == plain_text(trace.result), program.source
        replayed += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"slice soundness took {elapsed:.1f}s"
    print(f"\n{PASS}: slice soundness ({replayed} traces, all 5 templates, {elapsed:.1f}s)")


def test_merge_correctness(faithful_corpus):
    rows, _ = faithful_corpus
    checked = 0
    for program, query, scene, trace in rows:
        loops = [e for e in trace.events if e.kind == "loop_exit"]
        if not loops or all(e.detail["iterations"] < 2 for e in loops):
            continue
        pruned = prune(trace)
        sym = merge(pruned)
        assert len(sym.records) < len(pruned.kept_seqs)
        _, _, env = evaluate(parse(program.source), scene)
        from tracedistill.interp import value_text

        last_value = {}
        for record in sym.records:
            if record.operation == "assigned":
                (name, value), = record.arguments.items()
                last_value[name] = value
        for name, value in last_value.items():
            assert value == value_text(env[name]), (name, program.source)
        checked += 1
    assert checked >= 50  # plenty of k >= 2 loops in the corpus

    # The committed golden: num = len(patches) over 8 patches.
    scene = make_muffin_scene(8)
    src = "patches = image.find('muffin')\nnum = len(patches)\nreturn str(num)"
    trace = execute(parse(src), scene)
    lines = [record_to_line(r) for r in merge(keep_all(trace)).records]
    assert "assigned num:8 len" in lines
    print(f"\n{PASS}: merge correctness ({checked} looped traces, golden line held)")


def test_verdict_table_and_brute_force():
    assert verdict_for(False, True) == ("useful", 1)
    assert verdict_for(False, False) == ("non_useful", -1)
    assert verdict_for(True, True) == ("unsure", 0)

    class Scripted:
        def __init__(self, name, combo):
            self.name = name
            self.combo = combo  # (before_right, after_right)

        def answer(self, question, context=None):
            right = self.combo[1] if context is not None else self.combo[0]
            return "3" if right else "7"

    query = Query("q", "s", "how many muffins", "3")
    values = {(False, True): 1, (False, False): -1, (True, True): 0, (True, False): -1}
    cases = list(product(values, repeat=3))
    assert len(cases) == 64
    for combo in cases:
        students = [Scripted(f"s{i}", c) for i, c in enumerate(combo)]
        scored = utility_score("text", query, students)
        expected = sum(values[c] for c in combo)
        assert scored.score == expected
        assert scored.kept == (expected >= 0)
    print(f"\n{PASS}: verdict table (3 fixed cells; 64/64 brute-force agreement)")


def test_loss_identity_and_gradients():
    started = time.monotonic()
    worst = 0.0
    for seed in range(10):
        batch = training_input(build_correlation_task(seed, n=25))
        model = build_model(batch, lam=1.0, seed=seed)
        report = loss_and_grads(model, encode(model, batch))[0]
        assert report.total == report.label_loss + report.lam * report.rationale_loss
        worst = max(worst, grad_check(model, batch, epsilon=1e-5))
    elapsed = time.monotonic() - started
    assert worst <= 1e-5, f"max relative gradient error {worst:.2e}"
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\n{PASS}: loss identity and gradients (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_directional_distillation_effect():
    gaps = []
    for seed in range(5):
        examples = build_correlation_task(seed)
        queries = [
            Query(e.query_id, "synthetic", e.question, e.label) for e in examples
        ]
        [student] = builtin_students([{"kind": "rationale_sensitive"}])
        filtered = []
        for example, query in zip(examples, queries):
            if example.rationale is None:
                filtered.append(example)
                continue
            scored = utility_score(example.rationale, query, [student])
            if scored.kept:
                filtered.append(example)
            else:
                filtered.append(
                    type(example)(example.query_id, example.question, example.label, None)
                )
        rows = training_input(filtered)
        _, with_rationales = train(rows, TrainConfig(lam=1.0, epochs=10, step_size=0.8, seed=seed))
        _, labels_only = train(rows, TrainConfig(lam=0.0, epochs=10, step_size=0.8, seed=seed))
        gaps.append(with_rationales.accuracy_heldout - labels_only.accuracy_heldout)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap >= 0.05, f"mean heldout gap {mean_gap:+.3f} below 5 points; gaps={gaps}"
    print(f"\n{PASS}: directional distillation (+{100 * mean_gap:.1f} points mean over 5 seeds)")


@pytest.fixture(scope="module")
def ablation_report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("ablation")
    config_path = workdir / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "workdir": ".",
                "scene_count": 60,
                "corruption_rate": 0.0,
                "students": [{"kind": "rationale_sensitive", "token_budget": 28}],
                "train": {"epochs": 5, "step_size": 0.5},
            }
        )
    )
    config = load_config(config_path)
    run_all(config)
    return run_ablation(config)


def test_conciseness_and_keep_rate_ordering(ablation_report):
    cells = ablation_report["cells"]
    tokens = {key: cell["mean_tokens"] for key, cell in cells.items()}
    keeps = {key: cell["keep_rate"] for key, cell in cells.items()}
    full = "prune=1,merge=1,bridge=1"
    merge_only = "prune=0,merge=1,bridge=0"
    none = "prune=0,merge=0,bridge=0"
    assert tokens[full] < tokens[merge_only] < tokens[none], tokens
    prune_only = "prune=1,merge=0,bridge=0"
    bridge_only = "prune=0,merge=0,bridge=1"
    assert keeps[prune_only] >= keeps[merge_only] >= keeps[bridge_only], keeps
    assert keeps[full] >= keeps[none], keeps
    print(
        f"\n{PASS}: conciseness ordering (tokens {tokens[full]:.1f} < {tokens[merge_only]:.1f}"
        f" < {tokens[none]:.1f}; keep rates {keeps[prune_only]:.2f} >= {keeps[merge_only]:.2f}"
        f" >= {keeps[bridge_only]:.2f})"
    )


# The directory this process imported the package from: a run in another
# working directory finds it there, whether it is ./src or an installed copy.
PACKAGE_ROOT = str(Path(tracedistill.__file__).resolve().parents[1])
CLI = [sys.executable, "-m", "tracedistill.cli"]
NO_COLLECTOR = [sys.executable, "-c", "import gc, sys; gc.disable(); "
                "from tracedistill.cli import main; sys.exit(main(sys.argv[1:]))"]


def _cli_env(env: dict) -> dict:
    """This process's environment with the package on the path and one
    OpenBLAS thread, then ``env``."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", **env}


def _run_cli(workdir: Path, runs: list[list[str]], env: dict, launcher: list[str] = CLI) -> Path:
    """Each argument list in its own process, started in ``workdir`` with
    one OpenBLAS thread unless ``env`` says otherwise."""
    workdir.mkdir(exist_ok=True)
    env = _cli_env(env)
    for args in runs:
        proc = subprocess.run([*launcher, *args], cwd=workdir, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (workdir.name, args, proc.stderr)
    return workdir


def _files(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but the manifests, which hold timings."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file() and path.name != "manifest.json"}


def _timeless_manifests(root: Path) -> dict[str, dict]:
    manifests = {}
    for path in sorted(root.rglob("manifest.json")):
        manifest = json.loads(path.read_text())
        for entry in manifest["stages"]:
            del entry["duration_s"]
        manifests[str(path.relative_to(root))] = manifest
    return manifests


def test_determinism_across_processes(tmp_path):
    """run-all then ablate, each in a fresh process, write the same bytes
    under hash seeds 0 and 1, under two OpenBLAS threads, and with the
    cyclic collector off throughout (run-all and ablate otherwise pause it
    and collect once on return). So do the seven single-stage verbs, each
    reading its inputs back from the stage files, then ablate. The
    manifests hold timings: without each stage's duration_s, the 9 of each
    hash-seed run (the run's and the 8 cells') are equal, config hashes
    included, although the runs are in different directories.

    The thread count is checked at this size (50 scenes) only: at 500
    scenes and corruption 0.2, ablate under two threads writes another last
    digit of L_label in the prune1_merge0 cells' metrics.json."""
    both = [["--seed", "3", verb] for verb in ("run-all", "ablate")]
    reference = _run_cli(tmp_path / "hashseed0", both, {"PYTHONHASHSEED": "0"})
    hashseed1 = _run_cli(tmp_path / "hashseed1", both, {"PYTHONHASHSEED": "1"})
    threads2 = _run_cli(tmp_path / "threads2", both,
                        {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "2"})
    no_collector = _run_cli(tmp_path / "gcoff", both, {"PYTHONHASHSEED": "0"}, NO_COLLECTOR)
    stages = _run_cli(tmp_path / "stages", [["--seed", "3", verb] for verb in [*RUN_ALL_ORDER, "ablate"]],
                      {"PYTHONHASHSEED": "1"})

    expected = _files(reference)
    assert "ablation/prune1_merge1_bridge1/metrics.json" in expected
    for run in (hashseed1, threads2, no_collector, stages):
        files = _files(run)
        assert files.keys() == expected.keys(), run.name
        assert [name for name in files if files[name] != expected[name]] == [], run.name
    manifests = _timeless_manifests(reference)
    assert len(manifests) == 9
    assert _timeless_manifests(hashseed1) == manifests
    # The top-level files have the default toggles, all on. Their train ran
    # in its own process; the cell's is the one it shares with
    # prune1_merge1_bridge0.
    cell = stages / "ablation" / "prune1_merge1_bridge1"
    for name in ("rationales.jsonl", "scored.jsonl", "dataset.jsonl", "metrics.json"):
        assert (stages / name).read_bytes() == (cell / name).read_bytes(), name
    print(f"\n{PASS}: determinism across processes ({len(expected)} files, 5 runs, 16 processes)")


# Runs ``cli.main`` at --seed 3 for each verb after the first argument, all
# in this one process, with numpy unimportable when the first argument is
# "no-numpy". Prints each verb's exit code and standard error, and whether
# urllib.request was loaded.
VERBS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None  # import numpy now raises ModuleNotFoundError
from tracedistill.cli import main
report = {}
for verb in sys.argv[2:]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        report[verb] = [main(["--seed", "3", verb]), err.getvalue()]
print(json.dumps({"verbs": report, "urllib.request": "urllib.request" in sys.modules}))
"""


def test_only_train_needs_numpy(tmp_path):
    """With numpy unimportable, the CLI imports and the six stages before
    train run and write the same bytes as with numpy, without loading
    urllib.request (only the external generator and bridger post); train
    then fails with the CLI's JSON error report."""
    runs = {}
    for mode in ("numpy", "no-numpy"):
        workdir = tmp_path / mode
        workdir.mkdir()
        proc = subprocess.run([sys.executable, "-c", VERBS_IN_ONE_PROCESS, mode, *RUN_ALL_ORDER],
                              cwd=workdir, env=_cli_env({}), capture_output=True, text=True)
        assert proc.returncode == 0, (mode, proc.stderr)
        runs[mode] = json.loads(proc.stdout)

    before_train = RUN_ALL_ORDER[:-1]
    assert RUN_ALL_ORDER[-1] == "train" and len(before_train) == 6
    report = runs["no-numpy"]
    assert {verb: report["verbs"][verb] for verb in before_train} == {verb: [0, ""] for verb in before_train}
    assert not report["urllib.request"]
    code, stderr = report["verbs"]["train"]
    assert code == 1
    error = json.loads(stderr)
    assert (error["error"], error["stage"]) == ("ModuleNotFoundError", "train")
    assert runs["numpy"]["verbs"]["train"] == [0, ""]

    # train's metrics.json aside, both runs wrote the same 7 files
    without, with_numpy = _files(tmp_path / "no-numpy"), _files(tmp_path / "numpy")
    assert without.keys() == with_numpy.keys() - {"metrics.json"} and len(without) == 7
    assert [name for name in without if without[name] != with_numpy[name]] == []


def test_metrics_do_not_depend_on_the_blas_thread_count(tmp_path):
    """run-all at n=500 under one and two OpenBLAS threads writes the same
    metrics.json. Train's products are small enough that OpenBLAS sums them
    the same way at both counts; this is observed at this size, not
    guaranteed by construction. It fails for ablate at this size: under two
    threads the prune1_merge0 cells' metrics.json ends L_label in another
    last digit."""
    dirs = []
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        config = {"workdir": ".", "scene_count": 500, "corruption_rate": 0.2}
        (workdir / "config.json").write_text(json.dumps(config))
        dirs.append(_run_cli(workdir, [["--config", "config.json", "run-all"]],
                             {"OPENBLAS_NUM_THREADS": threads}))
    assert (dirs[0] / "metrics.json").read_bytes() == (dirs[1] / "metrics.json").read_bytes()


def test_funnel_integrity(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "workdir": ".",
                "scene_count": 200,
                "corruption_rate": 0.3,
                "noise_p": 0.0,
                "train": {"epochs": 5, "step_size": 0.5},
            }
        )
    )
    config = load_config(config_path)
    manifest = run_all(config)
    manifest.check_funnel()
    counts = manifest.counts
    assert counts["generated"] >= counts["faithful_kept"] >= counts["score_kept"]
    corrupted = math.ceil(0.3 * 200)
    assert counts["faithful_kept"] == counts["executed"] - corrupted == 140
    assert counts["faithful_kept"] / counts["executed"] == 1 - 0.3
    saved = read_json(config.path("manifest"))
    assert saved["counts"] == counts
    # Question texts repeat at n = 200 with different answers; every
    # rationale states its own query's answer, so the answer-trigger
    # student finds each one useful.
    score = {e["stage"]: e for e in saved["stages"]}["score"]
    assert score["extra"]["verdicts"]["rationale_sensitive_1"]["useful"] == counts["faithful_kept"]
    rows = [r for r in read_jsonl(config.path("dataset")) if "__meta__" not in r]
    masked = sum(1 for r in rows if r["rationale"] is None)
    assert len(rows) == counts["score_kept"] + masked
    print(
        f"\n{PASS}: funnel integrity (kept {counts['faithful_kept']}/{counts['executed']}"
        f" = 1 - c; counts non-increasing)"
    )
