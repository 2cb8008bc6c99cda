"""Run one benchmark workload of tracedistill and print its metrics.

    python3 perfbench/run.py --workload full_run --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/``. Set-up (imports, config, the workload's input corpus) is done
three times and timed; then the workload's timed part runs in rounds until
``--seconds`` have passed, each round followed by the fault probe. The
checks in ``checks.py`` then read what the rounds wrote. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. The exit code is 0 only when every
check passed. ``--workload all`` runs each workload in its own process.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ["full_run", "ablation_grid", "dataset_build"]
SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import the checkout's own package, or exit when it has none."""
    # One BLAS thread, set before numpy loads: the model's matrices are small
    # (rows x ~50 features), and a second thread only spins on the other core
    # and adds noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracedistill
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tracedistill from {ROOT / 'src'}: {exc}")
    if Path(tracedistill.__file__).resolve().parent != ROOT / "src" / "tracedistill":
        sys.exit(f"perfbench: tracedistill came from {tracedistill.__file__}, not {ROOT / 'src'}")
    # The benchmark's modules import the rest of the program (numpy too);
    # loading them here counts that in the import time.
    import checks, tracing, workloads  # noqa: F401, E401


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    import checks
    import tracing
    import workloads

    import_s = time.perf_counter() - START
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        config = workloads.make_config(work / "main", workload.scene_count, seed)
        workload.prepare(config)
        setups.append(time.perf_counter() - t)

    report = checks.Report()
    probe = workloads.probe_config(work / "probe")
    walls = {False: [], True: []}
    cpus, layers, tracers = [], [], []
    digests = None
    rounds = probe_failed = 0
    began = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        tracer = tracing.Tracer()
        with tracer.installed() if traced else nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            workload.run(config)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        walls[traced].append(wall)
        if rounds == 0:
            # The peak of set-up plus one pass, as a user's process sees it;
            # later rounds only add allocator noise.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            layers.append(tracer.per_layer())
            tracers.append(tracer)
        else:
            cpus.append(cpu)
        files = checks.digest_files(config.workdir)
        if digests is None:
            digests = files
        elif files != digests:
            report.fail(f"round {rounds}: stage files differ from the first round's")
        probe_failed += workloads.run_probe(probe, report)
        rounds += 1
        if time.perf_counter() - began >= seconds and (not trace or rounds >= 2):
            break

    # Rounds wrote byte-identical files (checked above), so one check of the
    # last round's files holds for every round.
    failed = rounds * workload.check(config, report) + probe_failed
    attempted = rounds * (workload.operations + workloads.PROBE_SCENES)

    if trace:
        metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        metrics["process.cpu_s"] = statistics.median(cpus)
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        units = {key: unit for key, (unit, _) in tracing.PER_LAYER.items()}
        _write_spans(workload.name, seed, tracers)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not report.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return result, report.problems, rounds


def _write_spans(name: str, seed: int, tracers) -> None:
    out = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            for span_name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"round": i, "name": span_name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def run_each(args) -> int:
    """Run every workload, each in a fresh process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_each(args)

    _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, problems, rounds = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} rounds={rounds} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
