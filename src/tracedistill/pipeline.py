"""Stage functions wiring the modules into a file-staged pipeline.

Every stage writes its JSONL/JSON stage file. A stage called on its own
(a single-stage CLI verb) reads its inputs back from those files, so any
stage can be rerun in isolation; ``run_all`` instead hands each stage the
rows the earlier stages produced, in memory, and only train reads a file
an earlier stage wrote. Scene-gen writes each scene as it makes it, and
exec reads the scenes in step with the programs, holding each only until
the programs that read it have run; under run_all exec consumes the
scenes scene-gen held the same way. Exec has one row loop, a generator
that writes each trace row to traces.jsonl and then yields it: called on
its own, exec drains it; under run_all, edit pulls from it, so each trace
passes to edit as soon as it is written and no stage holds a list of
traces. Edit, called on its own, reads traces.jsonl one row at a time;
either way edit takes one ``TraceRow`` per traces.jsonl row, and each
stage's ``duration_s`` counts only its own work. Every per-row stage runs
its rows in input order through one loop, ``_each_row``: a failed row is
recorded with its index in the stage's input file, aborting the batch
only under --strict. Every run appends stage entries to the manifest,
which tracks the filter funnel (generated, executed, faithful-kept,
score-kept, emitted). ``run_ablation`` edits each (prune, merge) pair of
cells in one pass of that loop, then runs each cell's score, emit and
train through the same stage functions, handed the cell's rows and the
queries in memory; train runs once per distinct training input.
"""

from __future__ import annotations

import functools
import gc
import random
import time
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field
from typing import NamedTuple

from . import codegen, distill, editing, scenes as sw, students as st
from .config import DEFAULT_STAGE_FILES, PipelineConfig
from .dsl import parse
from .errors import EmissionError, SchemaError, StageError
from .interp import (
    REJECT_REASONS,
    ExecutionTrace,
    execute,
    faithfulness_filter,
    trace_from_record,
    trace_to_record,
)
from .jsonlio import jsonl_writer, read_json, read_jsonl, read_rows, write_json, write_rows
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
                "config_hash": self.config_hash,
                "duration_s": round(time.monotonic() - started, 6),
                "rows_in": rows_in,
                "rows_out": rows_out,
                "row_errors": errors or [],
                "extra": extra or {},
            }
        )

    def to_dict(self) -> dict:
        return asdict(self)

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
    manifest = new_manifest(config)
    path = config.path("manifest")
    if path.exists():
        raw = read_json(path)
        manifest.stages = raw.get("stages", [])
        manifest.counts = raw.get("counts", {})
    return manifest


def _each_row(stage: str, rows, fn, strict: bool, errors: list[dict]):
    """Lazily yield ``fn(i, row)`` for each row in order: the one row loop
    of every per-row stage. A row whose call raises is appended to
    ``errors`` by its index in the stage's input file, its ``query_id`` and
    its ``program_id`` (None for a row without one); under strict it aborts
    the stage instead."""
    for i, row in enumerate(rows):
        try:
            result = fn(i, row)
        except Exception as exc:
            if strict:
                raise StageError(stage, str(exc), row=i) from exc
            errors.append({"row": i, "query_id": row.query_id,
                           "program_id": getattr(row, "program_id", None), "error": str(exc)})
        else:
            yield result


def _input(config: PipelineConfig, held: dict | None, name: str, load, *args):
    """A stage's ``name`` rows: ``held[name]`` from run_all, or, for a stage
    called on its own, ``load`` of that stage file and ``args``."""
    return load(config.path(name), *args) if held is None else held[name]


def _collector_paused(stage):
    """Run ``stage`` with the cyclic garbage collector off, then, if it was
    on at entry, turn it back on and collect once. A stage builds a large
    acyclic working set that reference counting frees; each full collection
    inside the stage would only re-walk it. The one collection on return
    frees the stage's few cycles and, being a full collection, empties the
    interpreter's free lists, whose objects otherwise keep the memory arenas
    they sit in from being released. The caller's heap is frozen for the
    stage, so that collection walks only what the stage allocated; objects
    a caller froze itself stay frozen. A nested paused call, or a caller
    that turned the collector off, leaves it off."""

    @functools.wraps(stage)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        freeze = was_enabled and gc.get_freeze_count() == 0
        gc.disable()
        if freeze:
            gc.freeze()
        try:
            return stage(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
                gc.collect()
            if freeze:
                gc.unfreeze()

    return paused


# ---------------------------------------------------------------------------
# stages
#
# Each stage takes ``held``: None when it is called on its own, when it
# reads its inputs from their stage files; or, from run_all, the rows the
# earlier stages produced, keyed by stage file name (an ablation cell's
# ``held`` also carries the grid's ``trained`` reports). A stage writes its
# file and, given ``held``, adds its own rows to it. Called on its own, it keeps
# no rows past its return, so its closing collection (see
# ``_collector_paused``) neither walks them nor runs before they are freed.

@_collector_paused
def stage_scene_gen(config: PipelineConfig, manifest: RunManifest,
                    held: dict | None = None) -> None:
    """Generate each scene, make its query, and write the scene as soon as
    it is made; the queries, which are small, are written after. Only under
    run_all are the scenes kept, for exec to consume."""
    started = time.monotonic()
    n = config["scene_count"]
    queries, scene_list = [], []
    rng = random.Random(config.seeds["query_gen"])

    def generated():
        for i, scene in enumerate(sw.scene_stream(n, config.seeds["scene_gen"])):
            queries.append(sw.make_query(i, scene, rng))
            if held is not None:
                scene_list.append(scene)
            yield scene

    write_rows(config.path("scenes"), generated())
    write_rows(config.path("queries"), queries)
    manifest.counts["generated"] = len(queries)
    manifest.record("scene_gen", started, rows_in=n, rows_out=len(queries))
    if held is not None:
        held.update(scenes=scene_list, queries=queries)


@_collector_paused
def stage_program_gen(config: PipelineConfig, manifest: RunManifest,
                      held: dict | None = None) -> None:
    started = time.monotonic()
    queries = _input(config, held, "queries", sw.load_queries)
    errors: list[dict] = []
    external = config["external_generator"]
    if external["endpoint"]:
        scenes_by_id = {s.scene_id: s for s in _input(config, held, "scenes", sw.load_scenes)}

        def run_row(i, query):
            summary = codegen.scene_summary(scenes_by_id[query.scene_id])
            return codegen.external_generate(external, query, summary)

        programs = list(_each_row("program_gen", queries, run_row, config["strict"], errors))
    else:
        programs = codegen.generate_programs(
            queries, config["corruption_rate"], config.seeds["program_gen"]
        )
    write_rows(config.path("programs"), programs)
    manifest.record(
        "program_gen", started, rows_in=len(queries), rows_out=len(programs), errors=errors
    )
    if held is not None:
        held["programs"] = programs


class TraceRow(NamedTuple):
    """Edit's input row for one traces.jsonl row, which exec yields as it
    writes the row and ``_trace_rows`` reads back. ``trace`` is None for a
    row the faithfulness filter rejected, and the exception decoding raised
    for a kept row that fails to decode, which edit reports as the row's
    error."""

    query_id: str | None
    program_id: str | None
    trace: ExecutionTrace | Exception | None


def _handed_over(rows: list):
    """A list run_all hands from one stage to the next, as a stream that
    drops each row as the next stage takes it: scene-gen's scenes as
    exec's."""
    for i, row in enumerate(rows):
        rows[i] = None
        yield row


def _in_step(programs: list, queries: dict, scenes, buffered: dict):
    """Yield each program row once the scene its query names is in
    ``buffered`` or ``scenes`` has run out, reading no further. A scene is
    buffered only if a program row needs it, and dropped once the last of
    those has run: scenes in the programs' order are held one at a time.
    ``scenes`` is read here, outside ``_each_row``'s per-row ``try``, and to
    its end, so any bad scene row fails the stage, not a program row."""
    need = Counter(queries[p.query_id].scene_id for p in programs if p.query_id in queries)
    for program in programs:
        query = queries.get(program.query_id)
        if query is not None:
            while query.scene_id not in buffered:
                scene = next(scenes, None)
                if scene is None:
                    break
                if need[scene.scene_id]:
                    buffered[scene.scene_id] = scene
        yield program
        if query is not None:
            need[query.scene_id] -= 1
            if not need[query.scene_id]:
                buffered.pop(query.scene_id, None)
    for _ in scenes:
        pass


def _exec_rows(config: PipelineConfig, manifest: RunManifest, held: dict | None):
    """Exec's one row loop, run as its caller pulls rows: execute each
    program on its query's scene, give its trace the faithfulness filter's
    verdict, write it to traces.jsonl and yield the row's ``TraceRow``.
    Scenes are read in step with the programs (see ``_in_step``):
    scenes.jsonl, or, under run_all, the scenes scene-gen held, each freed
    once its programs have run. When the programs run out, traces.jsonl
    replaces the old file, and exec's counts and manifest entry are
    recorded; its ``duration_s`` leaves out the time spent between rows in
    the caller. A row that aborts the stage leaves the old file as it was."""
    started = time.monotonic()
    queries = {q.query_id: q for q in _input(config, held, "queries", sw.load_queries)}
    tools = ToolConfig(noise_p=config["noise_p"], noise_seed=config.seeds["scene_gen"])
    # One AST per distinct source, shared by every row that carries it:
    # execute only reads the AST. A source that fails to parse is not kept,
    # so each of its rows fails with the same error.
    asts = {}
    reasons = Counter()
    buffered = {}

    def run_row(i, program):
        query = queries[program.query_id]
        if program.source not in asts:
            asts[program.source] = parse(program.source)
        trace = execute(asts[program.source], buffered[query.scene_id], config["max_steps"],
                        tools, program_id=program.program_id)
        _, [reason] = faithfulness_filter([(trace, query)])
        reasons[reason] += 1
        return (trace_to_record(trace, query.query_id, reason),
                TraceRow(query.query_id, program.program_id, None if reason else trace))

    rows = _input(config, held, "programs", read_rows, codegen.Program, "program_id")
    scenes = (sw.iter_scenes(config.path("scenes")) if held is None
              else _handed_over(held.pop("scenes")))
    errors: list[dict] = []
    executed = 0
    try:
        with jsonl_writer(config.path("traces")) as write:
            for record, row in _each_row("exec", _in_step(rows, queries, scenes, buffered),
                                         run_row, config["strict"], errors):
                write(record)
                executed += 1
                paused = time.monotonic()
                yield row
                started += time.monotonic() - paused
    finally:
        scenes.close()  # closes scenes.jsonl when a --strict row aborts the stage
    manifest.counts["executed"] = executed
    manifest.counts["faithful_kept"] = reasons[None]
    manifest.record(
        "exec", started, rows_in=len(rows), rows_out=executed, errors=errors,
        extra={
            "distinct_sources": len(asts),
            "faithful_kept": reasons[None],
            "rejected": {reason: reasons[reason] for reason in REJECT_REASONS},
        },
    )


@_collector_paused
def stage_exec(config: PipelineConfig, manifest: RunManifest,
               held: dict | None = None) -> None:
    """Run exec's rows (see ``_exec_rows``), each trace dropped once
    written. Under run_all, hand them to edit instead, as the stream that
    runs each row when edit pulls it: no trace is kept past its row."""
    rows = _exec_rows(config, manifest, held)
    if held is None:
        for _ in rows:
            pass
    else:
        held["traces"] = rows


# ---------------------------------------------------------------------------
# edit, score and emit. The ablation pass builds each cell's rationale
# rows with edit's row code below, then runs score and emit on them
# through the stage functions, handing the rows over in ``held``.

def _bridger(config: PipelineConfig):
    external = config["external_bridger"]
    if not external["endpoint"]:
        return None
    return editing.HttpBridger(external["endpoint"], external["timeout"])


def _trace_rows(path, stage: str):
    """Each traces.jsonl row at ``path``, read one at a time, as a
    ``TraceRow``. A row without a verdict fails ``stage``, the stage that
    reads the file. A repeated ``query_id``, of a kept or a rejected row,
    raises a SchemaError naming the file and the row, which fails the
    stage, as ``read_rows`` does."""
    seen = set()
    for i, rec in enumerate(read_jsonl(path)):
        if "reject_reason" not in rec:
            raise StageError(stage, "traces.jsonl rows carry no reject_reason; rerun exec")
        query_id = rec.get("query_id")
        if query_id in seen:
            raise SchemaError(f"{path} row {i}: duplicate query_id {query_id!r}")
        seen.add(query_id)
        if rec["reject_reason"] is not None:
            yield TraceRow(query_id, rec.get("program_id"), None)
            continue
        try:
            row = TraceRow(rec["query_id"], rec["program_id"], trace_from_record(rec))
        except Exception as exc:
            row = TraceRow(query_id, rec.get("program_id"), exc)
        yield row


def edit_draft(trace: ExecutionTrace, flags: dict) -> editing.TaggedDraft:
    """The bridge-independent part of editing one kept trace: prune (or keep
    every event), merge (or keep raw records), render and tag the gaps."""
    pruned = editing.prune(trace) if flags["prune"] else editing.keep_all(trace)
    symbolic = editing.merge(pruned) if flags["merge"] else editing.raw_records(pruned)
    return editing.tag_gaps(symbolic)


def rationale_row(draft, query_id: str, flags: dict, bridger) -> editing.CotRationale:
    """Finish a draft with or without bridging, as ``flags`` say, into its
    rationales.jsonl row, with the ``lineage`` ``flags`` give it."""
    if flags["bridge"]:
        rationale = editing.bridge(draft, bridger, query_id=query_id)
    else:
        rationale = editing.no_bridge(draft, query_id=query_id)
    rationale.lineage = {"pruned": flags["prune"], "merged": flags["merge"], "bridged": flags["bridge"]}
    return rationale


def _edit_rows(rows, flag_sets: list[dict], bridger, strict: bool) -> tuple[int, list[dict], list[list]]:
    """Edit each kept trace of the ``TraceRow`` stream ``rows`` once up to its
    draft, then finish that draft once per flag set; the sets may differ only
    in "bridge". A row fails at its decode or draft, once for every set: a
    draft's finish cannot raise, as ``editing.bridge`` falls back to the
    default bridger on any failure and ``no_bridge`` and ``rationale_row``
    only copy fields. Returns the rows read (failed ones too), the row errors
    (see ``_each_row``) and one list of rationales per flag set."""

    def edit_row(i, row):
        if row.trace is None:
            return []
        if isinstance(row.trace, Exception):
            raise row.trace
        draft = edit_draft(row.trace, flag_sets[0])
        return [rationale_row(draft, row.query_id, flags, bridger) for flags in flag_sets]

    errors: list[dict] = []
    outs: list[list] = [[] for _ in flag_sets]
    rows_in = 0
    for finished in _each_row("edit", rows, edit_row, strict, errors):
        rows_in += 1
        for out, rationale in zip(outs, finished):
            out.append(rationale)
    return rows_in + len(errors), errors, outs


def _write_edit(config: PipelineConfig, manifest: RunManifest, started: float,
                rows_in: int, errors: list[dict], rationales: list) -> None:
    write_rows(config.path("rationales"), rationales)
    tokens = [len(row.text.split()) for row in rationales]
    manifest.record(
        "edit", started, rows_in=rows_in, rows_out=len(rationales), errors=errors,
        extra={
            "bridge_fallbacks": sum(row.bridge_fallback for row in rationales),
            "flags": dict(config.edit_flags),
            "mean_tokens": sum(tokens) / len(tokens) if tokens else 0.0,
        },
    )


@_collector_paused
def stage_edit(config: PipelineConfig, manifest: RunManifest,
               held: dict | None = None) -> None:
    """Edit the traces exec kept: traces.jsonl and nothing else, or, under
    run_all, exec's row stream, each row run as edit pulls it (see
    ``stage_exec``)."""
    started = time.monotonic()
    rows = _input(config, held, "traces", _trace_rows, "edit")
    try:
        rows_in, errors, [rationales] = _edit_rows(rows, [config.edit_flags], _bridger(config),
                                                   config["strict"])
    except Exception:
        if held is not None:
            # Exec finishes its rows first, so traces.jsonl and exec's
            # manifest entry are written as when exec ran before edit; an
            # exec error raised here replaces edit's, as it would have come
            # first.
            for _ in rows:
                pass
        raise
    if held is not None:
        # Exec's rows ran inside edit's loop; exec's entry, recorded when
        # they ran out, holds their time.
        started += manifest.stages[-1]["duration_s"]
    _write_edit(config, manifest, started, rows_in, errors, rationales)
    if held is not None:
        held["rationales"] = rationales


def _load_students(config: PipelineConfig) -> list:
    # A noisy oracle's seed defaults to the effective seeds.students, which
    # --seed may have rebased after the config was loaded.
    specs = [{"seed": config.seeds["students"], **spec} for spec in config["students"]]
    return st.builtin_students(specs)


@_collector_paused
def stage_score(config: PipelineConfig, manifest: RunManifest,
                held: dict | None = None) -> None:
    """Score each rationale with the student ensemble; reads no scene."""
    started = time.monotonic()
    by_id = {q.query_id: q for q in _input(config, held, "queries", sw.load_queries)}
    ensemble = _load_students(config)
    harm_value, min_score = config["harm_verdict"], config["min_score"]
    rationales = _input(config, held, "rationales", read_rows, editing.CotRationale, "query_id")
    errors: list[dict] = []
    out = list(_each_row(
        "score", rationales,
        lambda i, row: st.utility_score(row.text, by_id[row.query_id], ensemble, harm_value, min_score),
        config["strict"], errors,
    ))
    write_rows(config.path("scored"), out)
    kept = sum(row.kept for row in out)
    verdicts = {student.name: Counter() for student in ensemble}
    for row in out:
        for o in row.outcomes:
            verdicts[o.student][o.verdict] += 1
    manifest.counts["score_kept"] = kept
    manifest.record(
        "score", started, rows_in=len(rationales), rows_out=len(out), errors=errors,
        extra={
            "score_kept": kept,
            "verdicts": {
                student: {v: counts[v] for v in st.VERDICTS}
                for student, counts in verdicts.items()
            },
        },
    )
    if held is not None:
        held["scored"] = out


@_collector_paused
def stage_emit(config: PipelineConfig, manifest: RunManifest,
               held: dict | None = None) -> None:
    started = time.monotonic()
    queries = _input(config, held, "queries", sw.load_queries)
    texts = {r.query_id: r.text
             for r in _input(config, held, "rationales", read_rows, editing.CotRationale, "query_id")}
    kept_ids = [r.query_id
                for r in _input(config, held, "scored", read_rows, st.ScoredRationale, "query_id") if r.kept]
    missing = sorted(set(kept_ids) - texts.keys())
    if missing:
        raise EmissionError(f"score-kept queries have no rationale: {missing}")
    kept = {qid: texts[qid] for qid in kept_ids}
    emitted = distill.emit_dataset(kept, queries, config.path("dataset"))
    manifest.counts["emitted"] = emitted
    manifest.record(
        "emit", started, rows_in=len(queries), rows_out=emitted,
        extra={"with_rationale": len(kept), "masked": emitted - len(kept)},
    )


@_collector_paused
def stage_train(config: PipelineConfig, manifest: RunManifest,
                held: dict | None = None) -> None:
    """Train on dataset.jsonl, which it reads even under run_all. Given a
    ``held["trained"]`` dict, as each ablation cell is, it trains once per
    distinct (train settings, ``distill.training_input``) key: a key
    already in the dict takes the report stored there, with the
    workdir-relative path of the metrics.json that training wrote. The
    key's training input is what train reads."""
    started = time.monotonic()
    rows = distill.training_input(distill.load_dataset(config.path("dataset")))
    train_cfg = distill.TrainConfig(lam=config["lambda"], **config["train"], seed=config.seeds["train"])
    trained = (held or {}).get("trained")
    key = None if trained is None else (astuple(train_cfg), rows)
    if key is not None and key in trained:
        report, reused_from = trained[key]
    else:
        _, report = distill.train(rows, train_cfg)
        reused_from = None
        if key is not None:
            trained[key] = report, config.path("metrics").relative_to(config.workdir).as_posix()
    write_json(
        config.path("metrics"),
        {
            "accuracy_train": report.accuracy_train,
            "accuracy_heldout": report.accuracy_heldout,
            "L_label": report.loss.label_loss,
            "L_rationale": report.loss.rationale_loss,
            "L": report.loss.total,
            "lambda": train_cfg.lam,
            "seed": train_cfg.seed,
        },
    )
    manifest.record(
        "train", started, rows_in=len(rows), rows_out=1,
        extra={
            "accuracy_heldout": report.accuracy_heldout,
            "diverged": report.diverged,
            "epochs_run": report.epochs_run,
            "feature_rows": report.feature_rows,
            "loss_curve": report.loss_curve,
            "reused_from": reused_from,
            "unmasked_feature_rows": report.unmasked_feature_rows,
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

RUN_ALL_ORDER = list(STAGES)


@_collector_paused
def run_all(config: PipelineConfig) -> RunManifest:
    """Run every stage in order, each handed the rows the earlier ones
    produced; every stage still writes its file. Train reads dataset.jsonl
    and none of those rows, so they are dropped before it starts. The
    collector is paused once, for the whole run, and each nested stage
    leaves it off."""
    manifest = new_manifest(config)
    held: dict = {}
    try:
        for name in RUN_ALL_ORDER:
            if name == "train":
                held.clear()
            STAGES[name](config, manifest, held)
        manifest.check_funnel()
    finally:
        # Even a failed run replaces the last run's manifest, with the
        # entries of the stages that finished.
        write_json(config.path("manifest"), manifest.to_dict())
    return manifest


# ---------------------------------------------------------------------------
# ablation driver: the 8-cell prune/merge/bridge toggle grid

CELL_FILES = {s: DEFAULT_STAGE_FILES[s] for s in ("rationales", "scored", "dataset", "metrics")}


def _cell_figures(manifest: RunManifest) -> dict:
    entry = {e["stage"]: e for e in manifest.stages}
    scored = entry["score"]["rows_out"]
    return {
        "mean_tokens": entry["edit"]["extra"]["mean_tokens"],
        "keep_rate": manifest.counts["score_kept"] / scored if scored else 0.0,
        "accuracy_heldout": entry["train"]["extra"]["accuracy_heldout"],
    }


@_collector_paused
def run_ablation(config: PipelineConfig) -> dict:
    """Run edit->score->emit->train for every toggle combination on the
    already-built base corpus, queries.jsonl and traces.jsonl, in one pass:
    the queries and the trace rows are loaded once, and each
    (prune, merge) draft is built once and finished with and without
    bridging. Each cell then runs score, emit and train through the stage
    functions, handed its rationale rows and the queries in memory; a cell
    whose dataset has the training input of an earlier cell reuses that
    cell's training (see ``stage_train``). Each cell writes its stage files
    and its own manifest under ``ablation/<cell>/``, named in the cell's
    config relative to the workdir, so the cell's config hash does not
    depend on where the run is. A failed cell is recorded, not fatal; a
    pair's edit fails, under --strict, for both its cells at once. Each
    cell's figures come from that manifest's stage entries."""
    for stage in ("queries", "traces"):
        if not config.path(stage).exists():
            raise StageError("ablate", f"missing base corpus file: {config.path(stage)}")
    queries = sw.load_queries(config.path("queries"))
    bridger = _bridger(config)
    rows = list(_trace_rows(config.path("traces"), "ablate"))
    trained: dict = {}  # stage_train's reports, shared by every cell
    cells = {}
    for prune_on in (False, True):
        for merge_on in (False, True):
            pair = []
            for bridge_on in (False, True):
                key = f"prune={int(prune_on)},merge={int(merge_on)},bridge={int(bridge_on)}"
                cell = "ablation/" + key.replace(",", "_").replace("=", "")
                cell_config = config.with_overrides(
                    edit={"prune": prune_on, "merge": merge_on, "bridge": bridge_on},
                    paths={**config.raw["paths"],
                           **{stage: f"{cell}/{name}" for stage, name in CELL_FILES.items()}},
                )
                pair.append((key, config.workdir / cell, cell_config))
            started = time.monotonic()
            try:
                rows_in, errors, edited = _edit_rows(rows, [c.edit_flags for _, _, c in pair],
                                                     bridger, config["strict"])
                failed = None
            except StageError as exc:
                failed = {"error": str(exc)}
            edit_s = time.monotonic() - started
            for k, (key, cell_dir, cell_config) in enumerate(pair):
                manifest = new_manifest(cell_config)
                try:
                    if failed is None:
                        # Both cells of the pair record the whole shared edit pass.
                        _write_edit(cell_config, manifest, time.monotonic() - edit_s, rows_in,
                                    errors, edited[k])
                        held = {"queries": queries, "rationales": edited[k], "trained": trained}
                        for name in ("score", "emit", "train"):
                            STAGES[name](cell_config, manifest, held)
                    cells[key] = failed or _cell_figures(manifest)
                except Exception as exc:
                    cells[key] = {"error": str(exc)}
                write_json(cell_dir / "manifest.json", manifest.to_dict())
    report = {"cells": cells}
    write_json(config.path("ablation"), report)
    return report
