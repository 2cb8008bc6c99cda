"""Command-line entry point.

Verbs: scene-gen, program-gen, exec, edit, score, emit, train, ablate,
run-all. Global flags: --config <path>, --seed <int>, --strict. The edit
stage additionally takes --no-prune / --no-merge / --no-bridge.

On failure the process exits nonzero after printing a machine-readable JSON
error report to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import PipelineConfig, apply_seed_override, default_config, load_config
from .jsonlio import write_json
from .pipeline import RUN_ALL_ORDER, STAGES, load_or_new_manifest, run_ablation, run_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracedistill",
        description="Visual-program trace editing and distillation pipeline",
    )
    parser.add_argument("--config", help="path to a JSON pipeline config")
    parser.add_argument("--seed", type=int, help="rebase all per-stage seeds")
    parser.add_argument("--strict", action="store_true", help="abort a stage on the first bad row")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in RUN_ALL_ORDER:
        p = sub.add_parser(verb, help=f"run the {verb} stage")
        if verb == "edit":
            p.add_argument("--no-prune", action="store_true")
            p.add_argument("--no-merge", action="store_true")
            p.add_argument("--no-bridge", action="store_true")
    sub.add_parser("run-all", help="run every stage in order and write the manifest")
    sub.add_parser("ablate", help="run the 8-cell prune/merge/bridge toggle grid")
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config = apply_seed_override(config, args.seed)
    if args.strict:
        config = config.with_overrides(strict=True)
    if args.command == "edit":
        config = config.with_overrides(edit={
            flag: on and not getattr(args, f"no_{flag}") for flag, on in config.edit_flags.items()
        })
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "run-all":
            manifest = run_all(config)
            print(json.dumps(manifest.counts))
            return 0
        if args.command == "ablate":
            report = run_ablation(config)
            print(f"ablation grid complete: {len(report['cells'])} cells")
            return 0
        manifest = load_or_new_manifest(config)
        STAGES[args.command](config, manifest)
        write_json(config.path("manifest"), manifest.to_dict())
        print(json.dumps({"stage": args.command, "counts": manifest.counts}))
        return 0
    except Exception as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc), "stage": args.command},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
