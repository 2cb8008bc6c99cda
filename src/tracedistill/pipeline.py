"""Stage functions wiring the modules into a file-based pipeline.

Stages communicate only through their JSONL/JSON stage files so any stage
can be rerun in isolation. Rows are processed in input order; a malformed
row fails with its index and is recorded, aborting the batch only under
--strict. Every run appends stage entries to the manifest, which tracks the
filter funnel (generated, executed, faithful-kept, score-kept, emitted).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from . import codegen, distill, editing, scenes as sw, students as st
from .config import PipelineConfig
from .dsl import parse
from .errors import StageError
from .interp import (
    REJECT_REASONS,
    ExecutionTrace,
    StepLimits,
    execute,
    faithfulness_filter,
    trace_from_record,
    trace_to_record,
)
from .jsonlio import read_json, read_jsonl, write_json, write_jsonl
from .scenes import ToolConfig


@dataclass
class RunManifest:
    config_hash: str
    seeds: dict
    stages: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, name: str, started: float, *, rows_in: int, rows_out: int,
               errors: list[dict] | None = None, extra: dict | None = None) -> None:
        self.stages.append(
            {
                "stage": name,
                "duration_s": round(time.monotonic() - started, 6),
                "rows_in": rows_in,
                "rows_out": rows_out,
                "row_errors": errors or [],
                "extra": extra or {},
            }
        )

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seeds": self.seeds,
            "stages": self.stages,
            "counts": self.counts,
        }

    def check_funnel(self) -> None:
        c = self.counts
        order = ["generated", "executed", "faithful_kept", "score_kept"]
        present = [c[k] for k in order if k in c]
        for a, b in zip(present, present[1:]):
            if b > a:
                raise StageError("manifest", f"funnel counts increased: {c}")


def new_manifest(config: PipelineConfig) -> RunManifest:
    return RunManifest(config_hash=config.config_hash(), seeds=dict(config.seeds))


def load_or_new_manifest(config: PipelineConfig) -> RunManifest:
    """Continue an existing manifest (single-stage reruns append to it)."""
    path = config.path("manifest")
    if path.exists():
        raw = read_json(path)
        manifest = RunManifest(config_hash=config.config_hash(), seeds=dict(config.seeds))
        manifest.stages = raw.get("stages", [])
        manifest.counts = raw.get("counts", {})
        return manifest
    return new_manifest(config)


def _map_rows(stage: str, rows, fn, strict: bool):
    """Order-preserving per-row map with crash isolation. A recorded error
    names the row by index and by its query and program ids, read from a
    dict row's keys or a dataclass row's fields."""
    out = []
    errors = []
    for i, row in enumerate(rows):
        try:
            out.append(fn(i, row))
        except Exception as exc:
            if strict:
                raise StageError(stage, str(exc), row=i) from exc
            ids = row if isinstance(row, dict) else vars(row)
            errors.append({
                "row": i,
                "query_id": ids.get("query_id"),
                "program_id": ids.get("program_id"),
                "error": str(exc),
            })
    return out, errors


# ---------------------------------------------------------------------------
# stages

def stage_scene_gen(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    n = int(config["scene_count"])
    scene_list = sw.generate_scenes(n, config.seeds["scene_gen"])
    sw.save_scenes(config.path("scenes"), scene_list)
    queries = sw.generate_queries(scene_list, config.seeds["query_gen"])
    sw.save_queries(config.path("queries"), queries)
    manifest.counts["generated"] = len(queries)
    manifest.record("scene_gen", started, rows_in=n, rows_out=len(queries))


def stage_program_gen(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    queries = sw.load_queries(config.path("queries"))
    errors: list[dict] = []
    external = config["external_generator"]
    if external["enabled"]:
        gen_config = codegen.ExternalGeneratorConfig(
            enabled=True,
            endpoint=external["endpoint"],
            api_doc_version=external.get("api_doc_version", "v1"),
            timeout=float(external.get("timeout", 5.0)),
        )
        scenes_by_id = {s.scene_id: s for s in sw.load_scenes(config.path("scenes"))}

        def run_row(i, query):
            summary = codegen.scene_summary(scenes_by_id[query.scene_id])
            return codegen.external_generate(gen_config, query, summary)

        programs, errors = _map_rows("program_gen", queries, run_row, config["strict"])
    else:
        programs = codegen.generate_programs(
            queries, float(config["corruption_rate"]), config.seeds["program_gen"]
        )
    write_jsonl(
        config.path("programs"),
        ({"program_id": p.program_id, "query_id": p.query_id, "source": p.source} for p in programs),
    )
    manifest.record(
        "program_gen", started, rows_in=len(queries), rows_out=len(programs), errors=errors
    )


def stage_exec(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    scenes_by_id = {s.scene_id: s for s in sw.load_scenes(config.path("scenes"))}
    queries = {q.query_id: q for q in sw.load_queries(config.path("queries"))}
    tools = ToolConfig(noise_p=float(config["noise_p"]), noise_seed=config.seeds["scene_gen"])
    limits = StepLimits(max_steps=int(config["max_steps"]))

    def run_row(i, row):
        query = queries[row["query_id"]]
        scene = scenes_by_id[query.scene_id]
        trace = execute(parse(row["source"]), scene, limits, tools, program_id=row["program_id"])
        return trace, query

    rows = list(read_jsonl(config.path("programs")))
    pairs, errors = _map_rows("exec", rows, run_row, config["strict"])
    kept, rejected = faithfulness_filter(pairs)
    reason_of = {id(r.trace): r.reason for r in rejected}
    write_jsonl(
        config.path("traces"),
        (trace_to_record(trace, query.query_id, reason_of.get(id(trace))) for trace, query in pairs),
    )
    reasons = Counter(reason_of.values())
    manifest.counts["executed"] = len(pairs)
    manifest.counts["faithful_kept"] = len(kept)
    manifest.record(
        "exec", started, rows_in=len(rows), rows_out=len(pairs), errors=errors,
        extra={
            "faithful_kept": len(kept),
            "rejected": {reason: reasons[reason] for reason in REJECT_REASONS},
        },
    )


def rationale_tokens(text: str) -> int:
    return len(text.split())


def edit_one(
    trace: ExecutionTrace,
    query_id: str,
    flags: dict,
    bridger=None,
) -> editing.CotRationale:
    """Run the requested subset of prune/merge/bridge on one kept trace."""
    pruned = editing.prune(trace) if flags["prune"] else editing.keep_all(trace)
    symbolic = editing.merge(pruned) if flags["merge"] else editing.raw_records(pruned)
    sentences = editing.render(symbolic)
    tagged = editing.tag_gaps(sentences, symbolic)
    if flags["bridge"]:
        return editing.bridge(tagged, symbolic, bridger, query_id=query_id)
    return editing.no_bridge(tagged, symbolic, query_id=query_id)


def stage_edit(config: PipelineConfig, manifest: RunManifest) -> None:
    """Edit the traces exec kept; reads traces.jsonl and nothing else."""
    started = time.monotonic()
    flags = config.edit_flags
    lineage = {"pruned": flags["prune"], "merged": flags["merge"], "bridged": flags["bridge"]}
    external = config["external_bridger"]
    bridger = None
    if external["enabled"]:
        bridger = editing.HttpBridger(external["endpoint"], float(external.get("timeout", 5.0)))
    rows = list(read_jsonl(config.path("traces")))
    if any("reject_reason" not in rec for rec in rows):
        raise StageError("edit", "traces.jsonl rows carry no reject_reason; rerun exec")
    kept_rows = [rec for rec in rows if rec["reject_reason"] is None]

    def run_row(i, rec):
        rationale = edit_one(trace_from_record(rec), rec["query_id"], flags, bridger)
        return {
            "query_id": rationale.query_id,
            "program_id": rationale.program_id,
            "text": rationale.text,
            "lineage": lineage,
            "bridge_fallback": rationale.bridge_fallback,
            "sentences": rationale.sentences,
            "joints": rationale.joints,
        }

    out, errors = _map_rows("edit", kept_rows, run_row, config["strict"])
    write_jsonl(config.path("rationales"), out)
    tokens = [rationale_tokens(row["text"]) for row in out]
    manifest.record(
        "edit", started, rows_in=len(rows), rows_out=len(out), errors=errors,
        extra={"flags": dict(flags), "mean_tokens": sum(tokens) / len(tokens) if tokens else 0.0},
    )


def _load_students(config: PipelineConfig, scenes_by_id, queries) -> list:
    specs = []
    for spec in config["students"]:
        spec = dict(spec)
        spec.setdefault("seed", config.seeds["students"])
        specs.append(spec)
    return st.builtin_students(specs, scenes_by_id=scenes_by_id, queries=queries)


def stage_score(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    scenes_by_id = {s.scene_id: s for s in sw.load_scenes(config.path("scenes"))}
    queries = sw.load_queries(config.path("queries"))
    by_id = {q.query_id: q for q in queries}
    ensemble = _load_students(config, scenes_by_id, queries)
    rows = list(read_jsonl(config.path("rationales")))

    def run_row(i, row):
        scored = st.utility_score(
            row["text"], by_id[row["query_id"]], ensemble, harm_value=int(config["harm_verdict"])
        )
        return {
            "query_id": scored.query_id,
            "score": scored.score,
            "outcomes": [
                {
                    "student": o.student,
                    "before_correct": o.before_correct,
                    "after_correct": o.after_correct,
                    "verdict": o.verdict,
                }
                for o in scored.outcomes
            ],
        }

    out, errors = _map_rows("score", rows, run_row, config["strict"])
    write_jsonl(config.path("scored"), out)
    kept = sum(1 for row in out if row["score"] >= int(config["min_score"]))
    manifest.counts["score_kept"] = kept
    manifest.record(
        "score", started, rows_in=len(rows), rows_out=len(out), errors=errors,
        extra={"score_kept": kept},
    )


def stage_emit(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    queries = sw.load_queries(config.path("queries"))
    texts = {row["query_id"]: row["text"] for row in read_jsonl(config.path("rationales"))}
    min_score = int(config["min_score"])
    kept = {
        row["query_id"]: texts[row["query_id"]]
        for row in read_jsonl(config.path("scored"))
        if row["score"] >= min_score
    }
    emitted = distill.emit_dataset(kept, queries, config.path("dataset"))
    manifest.counts["emitted"] = emitted
    manifest.record(
        "emit", started, rows_in=len(queries), rows_out=emitted,
        extra={"with_rationale": len(kept), "masked": emitted - len(kept)},
    )


def stage_train(config: PipelineConfig, manifest: RunManifest) -> None:
    started = time.monotonic()
    examples = distill.load_dataset(config.path("dataset"))
    train_cfg = distill.TrainConfig(
        lam=float(config["lambda"]),
        epochs=int(config["train"]["epochs"]),
        step_size=float(config["train"]["step_size"]),
        seed=config.seeds["train"],
    )
    _, report = distill.train(examples, train_cfg)
    write_json(
        config.path("metrics"),
        {
            "accuracy_train": report.accuracy_train,
            "accuracy_heldout": report.accuracy_heldout,
            "L_label": report.loss.label_loss,
            "L_rationale": report.loss.rationale_loss,
            "L": report.loss.total,
            "lambda": report.lam,
            "seed": report.seed,
        },
    )
    manifest.record(
        "train", started, rows_in=len(examples), rows_out=1,
        extra={
            "accuracy_heldout": report.accuracy_heldout,
            "diverged": report.diverged,
            "epochs_run": report.epochs_run,
            "loss_curve": report.loss_curve,
        },
    )


STAGES = {
    "scene-gen": stage_scene_gen,
    "program-gen": stage_program_gen,
    "exec": stage_exec,
    "edit": stage_edit,
    "score": stage_score,
    "emit": stage_emit,
    "train": stage_train,
}

RUN_ALL_ORDER = ["scene-gen", "program-gen", "exec", "edit", "score", "emit", "train"]


def run_all(config: PipelineConfig) -> RunManifest:
    manifest = new_manifest(config)
    for name in RUN_ALL_ORDER:
        STAGES[name](config, manifest)
    manifest.check_funnel()
    write_json(config.path("manifest"), manifest.to_dict())
    return manifest


# ---------------------------------------------------------------------------
# ablation driver: the 8-cell prune/merge/bridge toggle grid

def run_ablation(config: PipelineConfig) -> dict:
    """Re-run edit->score->emit->train for every toggle combination on the
    already-built base corpus; one failed cell is recorded, not fatal. Each
    cell's figures come from the stage entries of its own manifest."""
    for stage in ("scenes", "queries", "traces"):
        if not config.path(stage).exists():
            raise StageError("ablate", f"missing base corpus file: {config.path(stage)}")
    cells = {}
    for prune_on in (False, True):
        for merge_on in (False, True):
            for bridge_on in (False, True):
                key = f"prune={int(prune_on)},merge={int(merge_on)},bridge={int(bridge_on)}"
                cell_dir = config.workdir / "ablation" / key.replace(",", "_").replace("=", "")
                cell_config = config.with_overrides(
                    edit={"prune": prune_on, "merge": merge_on, "bridge": bridge_on},
                    paths={
                        **config.raw["paths"],
                        "rationales": str(cell_dir / "rationales.jsonl"),
                        "scored": str(cell_dir / "scored.jsonl"),
                        "dataset": str(cell_dir / "dataset.jsonl"),
                        "metrics": str(cell_dir / "metrics.json"),
                    },
                )
                sub_manifest = new_manifest(cell_config)
                try:
                    stage_edit(cell_config, sub_manifest)
                    stage_score(cell_config, sub_manifest)
                    stage_emit(cell_config, sub_manifest)
                    stage_train(cell_config, sub_manifest)
                    entry = {e["stage"]: e for e in sub_manifest.stages}
                    scored = entry["score"]["rows_out"]
                    cells[key] = {
                        "mean_tokens": entry["edit"]["extra"]["mean_tokens"],
                        "keep_rate": sub_manifest.counts["score_kept"] / scored if scored else 0.0,
                        "accuracy_heldout": entry["train"]["extra"]["accuracy_heldout"],
                    }
                except Exception as exc:
                    cells[key] = {"error": str(exc)}
    report = {"cells": cells}
    write_json(config.path("ablation"), report)
    return report
