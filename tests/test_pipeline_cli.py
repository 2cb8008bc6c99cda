from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import math
import re
import shutil
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from tracedistill import cli, codegen, distill, dsl, editing, interp, jsonlio, pipeline, students
from tracedistill import scenes as sw
from tracedistill.config import DEFAULTS, STUDENT_DEFAULTS, apply_seed_override, default_config, load_config
from tracedistill.editing import keep_all, raw_records, render
from tracedistill.errors import ConfigError, SchemaError, StageError
from tracedistill.interp import trace_from_record
from tracedistill.jsonlio import read_json, read_jsonl, write_jsonl
from tracedistill.pipeline import new_manifest, run_ablation, run_all, stage_edit

STAGE_FILES = [
    "scenes.jsonl",
    "queries.jsonl",
    "programs.jsonl",
    "traces.jsonl",
    "rationales.jsonl",
    "scored.jsonl",
    "dataset.jsonl",
    "metrics.json",
]


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_calls(monkeypatch, targets):
    """Wrap each (module, name) function at every tracedistill module that
    binds it; returns the list the wrappers append (name, first argument) to."""
    calls = []
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append((_name, args[0] if args else None))
            return _real(*args, **kwargs)

        bound = [m for key, m in list(sys.modules.items())
                 if key.startswith("tracedistill") and getattr(m, name, None) is real]
        assert module in bound
        for m in bound:
            monkeypatch.setattr(m, name, counted)
    return calls


@pytest.fixture
def stub_server():
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Handler(BaseHTTPRequestHandler):
        generator_source = "flag = image.exists('cup')\nreturn bool_to_yesno(flag)"

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if "question" in body:
                payload = {"source": type(self).generator_source}
            else:
                payload = {"bridge_text": "Hence the next step."}
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


def write_config(tmp_path, **overrides):
    raw = {
        "workdir": ".",
        "scene_count": 20,
        "corruption_rate": 0.25,
        "train": {"epochs": 5, "step_size": 0.5},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestRunAll:
    def test_funnel_counts(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        counts = manifest.counts
        assert counts["generated"] == 20
        assert counts["executed"] == 20
        # corruption 0.25 * 20 = 5 corrupted, wrong by construction
        assert counts["faithful_kept"] == 15
        assert counts["score_kept"] <= counts["faithful_kept"]
        assert counts["emitted"] == 20  # score-kept plus masked label-only rows
        saved = read_json(config.path("manifest"))
        assert saved["counts"] == counts
        assert saved["config_hash"] == config.config_hash()

    def test_outputs_deterministic_across_runs(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        run_all(load_config(write_config(dir_a)))
        run_all(load_config(write_config(dir_b)))
        for name in STAGE_FILES:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_rationales_only_for_faithful(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        rationales = list(read_jsonl(config.path("rationales")))
        assert len(rationales) == 15
        for row in rationales:
            assert row["lineage"] == {"pruned": True, "merged": True, "bridged": True}
            assert len(row["joints"]) >= 0

    def test_train_records_loss_curve(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        extra = next(e for e in manifest.stages if e["stage"] == "train")["extra"]
        curve = extra["loss_curve"]
        assert extra["epochs_run"] == 5
        assert len(curve) == extra["epochs_run"] + 1
        assert all(math.isfinite(x) for x in curve)
        assert curve[-1] == read_json(config.path("metrics"))["L"]

    def test_a_failed_run_all_writes_its_own_manifest(self, tmp_path):
        assert cli.main(["--config", str(write_config(tmp_path, scene_count=5)), "run-all"]) == 0
        failing = write_config(
            tmp_path, scene_count=5, strict=True,
            external_generator={"endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
        )
        assert cli.main(["--config", str(failing), "run-all"]) == 1
        saved = read_json(tmp_path / "manifest.json")
        assert saved["config_hash"] == load_config(failing).config_hash()
        assert [e["stage"] for e in saved["stages"]] == ["scene_gen"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_tiny_corpus_holds_out_a_row_or_reports_null(self, tmp_path, n):
        # Two rows split one and one; a single row trains, and its held-out
        # accuracy is null, not a 0.0 measured on no rows.
        config = load_config(write_config(tmp_path, scene_count=n))
        run_all(config)
        report = run_ablation(config)
        examples = distill.load_dataset(config.path("dataset"))
        train_rows, held_rows = distill.split_dataset(examples, config.seeds["train"])
        assert (len(train_rows), len(held_rows)) == (1, n - 1)
        train = next(e for e in read_json(config.path("manifest"))["stages"] if e["stage"] == "train")
        assert train["extra"]["feature_rows"] == 1
        heldout = read_json(config.path("metrics"))["accuracy_heldout"]
        assert heldout is None if n == 1 else heldout in (0.0, 1.0)
        assert train["extra"]["accuracy_heldout"] == heldout
        assert {cell["accuracy_heldout"] for cell in report["cells"].values()} == {heldout}
        assert read_json(config.path("ablation")) == report


class TestStageHandoff:
    def test_exec_records_reject_reasons(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        rejected = next(e for e in manifest.stages if e["stage"] == "exec")["extra"]["rejected"]
        assert set(rejected) == {"wrong_answer", "runtime_error", "step_limit"}
        counts = manifest.counts
        assert sum(rejected.values()) == counts["executed"] - counts["faithful_kept"] == 5
        reasons = Counter(r["reject_reason"] for r in read_jsonl(config.path("traces")))
        assert reasons.pop(None) == counts["faithful_kept"]
        assert reasons == {k: v for k, v in rejected.items() if v}

    def test_edit_reads_only_traces(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path))
        run_all(config)
        before = config.path("rationales").read_bytes()
        config.path("programs").unlink()
        config.path("queries").unlink()

        def no_parse(source):
            raise AssertionError("edit parsed a program")

        monkeypatch.setattr(pipeline, "parse", no_parse)
        stage_edit(config, new_manifest(config))
        assert config.path("rationales").read_bytes() == before

    def test_rejected_trace_gets_no_rationale(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        rows = list(read_jsonl(config.path("traces")))
        target = next(r for r in rows if r["reject_reason"] is None)
        target["reject_reason"] = "wrong_answer"
        write_jsonl(config.path("traces"), rows)
        stage_edit(config, new_manifest(config))
        edited = {r["query_id"] for r in read_jsonl(config.path("rationales"))}
        assert target["query_id"] not in edited
        assert len(edited) == 14

    def test_edit_rejects_traces_without_verdicts(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        rows = list(read_jsonl(config.path("traces")))
        for row in rows:
            del row["reject_reason"]
        write_jsonl(config.path("traces"), rows)
        with pytest.raises(StageError, match="rerun exec"):
            stage_edit(config, new_manifest(config))

    def test_only_exec_parses(self, tmp_path, monkeypatch):
        real_parse = dsl.parse
        bound = [
            module for name, module in list(sys.modules.items())
            if name.startswith("tracedistill") and getattr(module, "parse", None) is real_parse
        ]
        assert {dsl, codegen, pipeline} <= set(bound)
        calls = []

        def counted(source):
            calls.append(source)
            return real_parse(source)

        for module in bound:
            monkeypatch.setattr(module, "parse", counted)
        config = load_config(write_config(tmp_path, scene_count=60))
        manifest = new_manifest(config)
        pipeline.stage_scene_gen(config, manifest)
        pipeline.stage_program_gen(config, manifest)
        assert len(calls) == 0
        sources = [row["source"] for row in read_jsonl(config.path("programs"))]
        assert len(set(sources)) < len(sources)
        pipeline.stage_exec(config, manifest)
        assert sorted(calls) == sorted(set(sources))
        assert manifest.stages[-1]["extra"]["distinct_sources"] == len(set(sources))

    def test_shared_asts_give_the_traces_of_a_parse_per_row(self, tmp_path):
        config = load_config(write_config(tmp_path, scene_count=60))
        manifest = run_all(config)
        rows = list(read_jsonl(config.path("programs")))
        assert len({row["source"] for row in rows}) < len(rows)
        scenes_by_id = {s.scene_id: s for s in sw.load_scenes(config.path("scenes"))}
        queries = {q.query_id: q for q in sw.load_queries(config.path("queries"))}
        tools = sw.ToolConfig(noise_p=float(config["noise_p"]), noise_seed=config.seeds["scene_gen"])
        pairs = []
        for row in rows:
            query = queries[row["query_id"]]
            trace = interp.execute(dsl.parse(row["source"]), scenes_by_id[query.scene_id],
                                   int(config["max_steps"]), tools, program_id=row["program_id"])
            pairs.append((trace, query))
        _, reasons = interp.faithfulness_filter(pairs)
        fresh = tmp_path / "fresh_traces.jsonl"
        write_jsonl(fresh, (interp.trace_to_record(t, q.query_id, reason)
                            for (t, q), reason in zip(pairs, reasons)))
        assert fresh.read_bytes() == config.path("traces").read_bytes()
        assert manifest.counts["faithful_kept"] == len(pairs) - sum(r is not None for r in reasons)

    def test_emit_keeps_the_rows_scored_jsonl_marks_kept(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        scored = list(read_jsonl(config.path("scored")))
        assert all(row["kept"] == (row["score"] >= config["min_score"]) for row in scored)
        extra = {e["stage"]: e["extra"] for e in manifest.stages}
        kept = sum(row["kept"] for row in scored)
        assert extra["score"]["score_kept"] == extra["emit"]["with_rationale"] == kept
        # Emit reads the decision score wrote, not the rule: unkeep one row.
        dropped = next(row for row in scored if row["kept"])
        dropped["kept"] = False
        write_jsonl(config.path("scored"), scored)
        manifest = new_manifest(config)
        pipeline.stage_emit(config, manifest)
        rationales = {row["query_id"]: row["rationale"] for row in read_jsonl(config.path("dataset"))
                      if "__meta__" not in row}
        assert rationales[dropped["query_id"]] is None
        assert manifest.stages[0]["extra"]["with_rationale"] == kept - 1

    def test_run_all_reads_back_only_the_dataset(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, scene_count=60))
        calls = count_calls(monkeypatch, [
            (interp, "trace_from_record"), (sw, "load_scenes"), (sw, "load_queries"),
            (jsonlio, "read_jsonl"), (jsonlio, "read_json"),
        ])
        run_all(config)
        # each stage's rows reach the next in memory; train reads dataset.jsonl
        assert calls == [("read_jsonl", config.path("dataset"))]

    def test_score_reports_verdicts_per_student(self, tmp_path):
        config = load_config(write_config(tmp_path, scene_count=16))
        run_all(config)
        run_ablation(config)
        cells = sorted((tmp_path / "ablation").iterdir())
        for workdir in [tmp_path, *cells]:
            entry = {e["stage"]: e for e in read_json(workdir / "manifest.json")["stages"]}["score"]
            recount = {}
            for row in read_jsonl(workdir / "scored.jsonl"):
                for o in row["outcomes"]:
                    recount.setdefault(o["student"], Counter())[o["verdict"]] += 1
            verdicts = entry["extra"]["verdicts"]
            assert len(verdicts) == len(config["students"]), workdir
            for student, counts in verdicts.items():
                assert set(counts) == set(students.VERDICTS)
                assert sum(counts.values()) == entry["rows_out"] > 0
                assert counts == {v: recount[student][v] for v in students.VERDICTS}
            assert any(c["useful"] for c in verdicts.values())

    def test_edit_reports_mean_tokens(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        extra = next(e for e in manifest.stages if e["stage"] == "edit")["extra"]
        texts = [r["text"] for r in read_jsonl(config.path("rationales"))]
        assert extra["mean_tokens"] == sum(len(t.split()) for t in texts) / len(texts)


class TestStreaming:
    """A stage called on its own holds one trace at a time: exec writes each
    trace before it runs the next program, and edit decodes the kept traces
    while it is still reading traces.jsonl."""

    def test_exec_writes_each_trace_before_it_runs_the_next(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path))
        manifest = new_manifest(config)
        pipeline.stage_scene_gen(config, manifest)
        pipeline.stage_program_gen(config, manifest)
        calls = count_calls(monkeypatch, [(interp, "execute"), (interp, "trace_to_record")])
        pipeline.stage_exec(config, manifest)
        assert [name for name, _ in calls] == ["execute", "trace_to_record"] * 20

    def test_edit_decodes_a_kept_trace_before_the_last_row_is_read(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path))
        run_all(config)
        before = config.path("rationales").read_bytes()
        events = []

        def read_logged(path, _real=jsonlio.read_jsonl):
            for row in _real(path):
                events.append("row")
                yield row

        def decode_logged(rec, _real=pipeline.trace_from_record):
            events.append("decode")
            return _real(rec)

        monkeypatch.setattr(pipeline, "read_jsonl", read_logged)
        monkeypatch.setattr(pipeline, "trace_from_record", decode_logged)
        stage_edit(config, new_manifest(config))
        assert (events.count("row"), events.count("decode")) == (20, 15)
        last_row = max(i for i, event in enumerate(events) if event == "row")
        assert events.index("decode") < last_row
        assert config.path("rationales").read_bytes() == before

    def test_a_late_row_without_a_verdict_writes_no_rationale(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        before = config.path("rationales").read_bytes()
        rows = list(read_jsonl(config.path("traces")))
        del rows[-1]["reject_reason"]
        write_jsonl(config.path("traces"), rows)
        with pytest.raises(StageError, match="rerun exec"):
            stage_edit(config, new_manifest(config))
        assert config.path("rationales").read_bytes() == before

    def test_strict_exec_abort_leaves_the_traces_file_as_it_was(self, tmp_path):
        config = load_config(write_config(tmp_path, strict=True))
        run_all(config)
        before = config.path("traces").read_bytes()
        rows = list(read_jsonl(config.path("programs")))
        rows[2]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        names = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(StageError, match="exec row 2"):
            pipeline.stage_exec(config, new_manifest(config))
        assert config.path("traces").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.fixture
def alive_scenes(monkeypatch):
    """Count the ``Scene`` objects alive: every Scene made from here on,
    generated or read, is tracked through a weak reference."""
    refs = []
    real_init = sw.Scene.__init__

    def tracked(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(sw.Scene, "__init__", tracked)
    return lambda: [ref() for ref in refs if ref() is not None]


class TestSceneStreaming:
    """Scene-gen writes each scene as it makes it, and exec reads scenes in
    step with the programs, holding a scene only until the last program row
    that needs it has run."""

    def staged(self, tmp_path, **overrides):
        config = load_config(write_config(tmp_path, **overrides))
        manifest = new_manifest(config)
        pipeline.stage_scene_gen(config, manifest)
        pipeline.stage_program_gen(config, manifest)
        return config

    def record_at_execute(self, monkeypatch, alive_scenes):
        """(the scene each execute call runs on, the scenes alive then)."""
        seen = []

        def counted(ast, scene, *args, _real=pipeline.execute, **kwargs):
            seen.append((scene.scene_id, {s.scene_id for s in alive_scenes()}))
            return _real(ast, scene, *args, **kwargs)

        monkeypatch.setattr(pipeline, "execute", counted)
        return seen

    def test_single_stage_exec_holds_only_the_scene_its_program_reads(
        self, tmp_path, monkeypatch, alive_scenes
    ):
        config = self.staged(tmp_path, scene_count=200)
        seen = self.record_at_execute(monkeypatch, alive_scenes)
        pipeline.stage_exec(config, new_manifest(config))
        assert len(seen) > 150
        assert max(len(alive) for _, alive in seen) <= 2

    def test_run_all_exec_frees_each_scene_once_its_programs_have_run(
        self, tmp_path, monkeypatch, alive_scenes
    ):
        config = load_config(write_config(tmp_path, scene_count=200))
        seen = self.record_at_execute(monkeypatch, alive_scenes)
        run_all(config)
        assert len(seen) > 150
        # scene-gen held every scene; exec drops each once its program ran
        assert len(seen[0][1]) == 200
        assert all(min(alive) == scene_id for scene_id, alive in seen)

    def test_single_stage_scene_gen_holds_no_scene_once_written(
        self, tmp_path, monkeypatch, alive_scenes
    ):
        config = load_config(write_config(tmp_path, scene_count=200))
        counts = []

        def plan(scene, *args, _real=sw._plan_question):
            counts.append(len(alive_scenes()))
            return _real(scene, *args)

        monkeypatch.setattr(sw, "_plan_question", plan)
        pipeline.stage_scene_gen(config, new_manifest(config))
        assert len(counts) >= 200
        assert max(counts) <= 2

    def test_scene_gen_writes_the_files_of_the_generated_lists(self, tmp_path):
        config = load_config(write_config(tmp_path, scene_count=60))
        pipeline.stage_scene_gen(config, new_manifest(config))
        scene_list = sw.generate_scenes(60, config.seeds["scene_gen"])
        jsonlio.write_rows(tmp_path / "want_scenes.jsonl", scene_list)
        jsonlio.write_rows(tmp_path / "want_queries.jsonl",
                           sw.generate_queries(scene_list, config.seeds["query_gen"]))
        assert config.path("scenes").read_bytes() == (tmp_path / "want_scenes.jsonl").read_bytes()
        assert config.path("queries").read_bytes() == (tmp_path / "want_queries.jsonl").read_bytes()

    def test_a_reversed_scenes_file_writes_the_same_traces(self, tmp_path):
        config = self.staged(tmp_path, scene_count=60, corruption_rate=0.2)
        pipeline.stage_exec(config, new_manifest(config))
        before = config.path("traces").read_bytes()
        lines = config.path("scenes").read_text().splitlines(keepends=True)
        config.path("scenes").write_text("".join(reversed(lines)))
        manifest = new_manifest(config)
        pipeline.stage_exec(config, manifest)
        assert config.path("traces").read_bytes() == before
        assert manifest.stages[-1]["row_errors"] == []

    @pytest.mark.parametrize("name,dropped,error", [
        ("scenes", "scene_0003", "'scene_0003'"),
        ("queries", "q0003", "'q0003'"),
    ])
    def test_a_query_or_scene_missing_is_a_row_error(self, tmp_path, name, dropped, error):
        config = self.staged(tmp_path)
        pipeline.stage_exec(config, new_manifest(config))
        traces = config.path("traces").read_text().splitlines()
        lines = config.path(name).read_text().splitlines(keepends=True)
        config.path(name).write_text("".join(line for line in lines if dropped not in line))
        manifest = new_manifest(config)
        pipeline.stage_exec(config, manifest)
        program = json.loads(config.path("programs").read_text().splitlines()[3])
        assert manifest.stages[-1]["row_errors"] == [
            {"row": 3, "query_id": "q0003", "program_id": program["program_id"], "error": error}
        ]
        assert config.path("traces").read_text().splitlines() == traces[:3] + traces[4:]

    # A scene row appended after every scene a program needs, and the
    # SchemaError exec still fails with.
    BAD_TRAILING_SCENES = [
        ("out_of_bounds", "objects[0] field 'box' horizontal extent invalid (10, 300)"),
        ("repeated_id", "duplicate scene_id 'scene_0000'"),
        ("malformed", "missing field 'relations'"),
    ]

    @pytest.mark.parametrize("change,message", BAD_TRAILING_SCENES)
    def test_a_bad_scene_row_no_program_needs_still_fails_exec(
        self, tmp_path, capsys, change, message
    ):
        config = self.staged(tmp_path)
        pipeline.stage_exec(config, new_manifest(config))
        before = config.path("traces").read_bytes()
        lines = config.path("scenes").read_text().splitlines()
        record = json.loads(lines[0])
        if change == "out_of_bounds":
            record["scene_id"] = "extra"
            record["objects"][0]["box"] = [10, 10, 300, 30]
        elif change == "malformed":
            record["scene_id"] = "extra"
            del record["relations"]
        config.path("scenes").write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        capsys.readouterr()
        assert cli.main(["--config", str(tmp_path / "config.json"), "exec"]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SchemaError"
        assert report["message"] == f"{config.path('scenes')} row 20: {message}"
        assert config.path("traces").read_bytes() == before

    @pytest.mark.parametrize("strict", [False, True])
    def test_under_strict_a_failing_program_row_before_a_bad_scene_row_aborts_first(
        self, tmp_path, strict
    ):
        config = self.staged(tmp_path, strict=strict)
        rows = list(read_jsonl(config.path("programs")))
        rows[2]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        scenes = list(read_jsonl(config.path("scenes")))
        scenes[5]["objects"][0]["depth"] = -1.0
        write_jsonl(config.path("scenes"), scenes)
        # Scene rows are read as the programs need them: under --strict,
        # program row 2 fails before scene row 5 is read.
        expected = (StageError, "exec row 2") if strict else (
            SchemaError, re.escape(f"{config.path('scenes')} row 5: objects[0] field 'depth'"))
        with pytest.raises(expected[0], match=expected[1]):
            pipeline.stage_exec(config, new_manifest(config))

    def test_a_strict_abort_closes_the_scenes_file(self, tmp_path, monkeypatch):
        config = self.staged(tmp_path, strict=True)
        rows = list(read_jsonl(config.path("programs")))
        rows[5]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        state = {}

        def tracked(path, _real=jsonlio.read_jsonl):
            state[path] = "open"
            try:
                yield from _real(path)
            finally:
                state[path] = "closed"

        monkeypatch.setattr(jsonlio, "read_jsonl", tracked)
        with pytest.raises(StageError, match="exec row 5") as excinfo:
            pipeline.stage_exec(config, new_manifest(config))
        # The exception's traceback keeps exec's frames, and the readers in
        # them, alive; the file must be closed all the same.
        assert excinfo.value.__traceback__ is not None
        assert state[config.path("scenes")] == "closed"


class TestExecEditHandover:
    """Under run_all exec hands each trace row to edit as soon as it has
    written it and keeps no list of them; each stage's entry still reads as
    if exec had run to its end before edit began."""

    def test_edit_drafts_with_at_most_two_traces_alive(self, tmp_path, monkeypatch):
        refs = []
        real_init = interp.ExecutionTrace.__init__

        def tracked(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        alive = []

        def draft(trace, flags, _real=pipeline.edit_draft):
            alive.append(sum(ref() is not None for ref in refs))
            return _real(trace, flags)

        monkeypatch.setattr(interp.ExecutionTrace, "__init__", tracked)
        monkeypatch.setattr(pipeline, "edit_draft", draft)
        config = load_config(write_config(tmp_path, scene_count=200, corruption_rate=0.2))
        run_all(config)
        assert len(alive) == 160
        assert max(alive) <= 2

    def test_each_stage_times_only_its_own_work(self, tmp_path, monkeypatch):
        def slow(*args, _real=pipeline.execute, **kwargs):
            time.sleep(0.005)
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "execute", slow)
        config = load_config(write_config(tmp_path, scene_count=40))
        entry = {e["stage"]: e for e in run_all(config).stages}
        assert entry["edit"]["duration_s"] < 0.2 <= entry["exec"]["duration_s"]

    def test_a_strict_edit_abort_lets_exec_finish(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, scene_count=50))
        want = run_all(config)
        traces = config.path("traces").read_bytes()
        config.path("traces").unlink()
        calls = Counter()

        def tag_gaps(symbolic, _real=editing.tag_gaps):
            calls["tag_gaps"] += 1
            if calls["tag_gaps"] == 3:
                raise RuntimeError("tag_gaps broke")
            return _real(symbolic)

        monkeypatch.setattr(editing, "tag_gaps", tag_gaps)
        strict = config.with_overrides(strict=True)
        with pytest.raises(StageError, match=r"\[edit row \d+\] tag_gaps broke"):
            run_all(strict)
        assert config.path("traces").read_bytes() == traces
        saved = read_json(config.path("manifest"))
        assert [e["stage"] for e in saved["stages"]] == ["scene_gen", "program_gen", "exec"]
        assert saved["counts"] == {k: want.counts[k] for k in ("generated", "executed", "faithful_kept")}
        exec_entry = next(e for e in want.stages if e["stage"] == "exec")
        assert {**saved["stages"][-1], "duration_s": None} == {**exec_entry, "duration_s": None,
                                                                "config_hash": strict.config_hash()}

    def test_a_strict_exec_abort_writes_no_exec_or_edit_entry(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, scene_count=50, strict=True))
        run_all(config)
        traces = config.path("traces").read_bytes()
        calls = Counter()

        def execute(*args, _real=pipeline.execute, **kwargs):
            calls["execute"] += 1
            if calls["execute"] == 3:
                raise RuntimeError("execute broke")
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "execute", execute)
        with pytest.raises(StageError, match=re.escape("[exec row 2] execute broke")):
            run_all(config)
        assert config.path("traces").read_bytes() == traces
        saved = read_json(config.path("manifest"))
        assert [e["stage"] for e in saved["stages"]] == ["scene_gen", "program_gen"]
        assert set(saved["counts"]) == {"generated"}


class TestEditToggles:
    def test_identity_edit_equals_rendered_raw_trace(self, tmp_path):
        config = load_config(write_config(tmp_path, corruption_rate=0.0))
        run_all(config)
        config = config.with_overrides(edit={"prune": False, "merge": False, "bridge": False})
        manifest = new_manifest(config)
        stage_edit(config, manifest)
        texts = {row["query_id"]: row["text"] for row in read_jsonl(config.path("rationales"))}
        for rec in read_jsonl(config.path("traces")):
            trace = trace_from_record(rec)
            expected = " ".join(render(raw_records(keep_all(trace))))
            assert texts[rec["query_id"]] == expected

    def test_cli_no_flags(self, tmp_path):
        config_path = write_config(tmp_path, corruption_rate=0.0)
        assert cli.main(["--config", str(config_path), "run-all"]) == 0
        rc = cli.main(
            ["--config", str(config_path), "edit", "--no-prune", "--no-merge", "--no-bridge"]
        )
        assert rc == 0
        for row in read_jsonl(tmp_path / "rationales.jsonl"):
            assert row["lineage"] == {"pruned": False, "merged": False, "bridged": False}
        ran_with = load_config(config_path).with_overrides(
            edit={"prune": False, "merge": False, "bridge": False}
        )
        assert read_json(tmp_path / "manifest.json")["config_hash"] == ran_with.config_hash()

    def test_rerun_keeps_each_stage_entrys_config_hash(self, tmp_path):
        config_path = write_config(tmp_path)
        assert cli.main(["--config", str(config_path), "run-all"]) == 0
        assert cli.main(["--config", str(config_path), "edit", "--no-prune"]) == 0
        first = load_config(config_path)
        toggled = first.with_overrides(edit={**first.edit_flags, "prune": False})
        saved = read_json(tmp_path / "manifest.json")
        *run, rerun = saved["stages"]
        assert [e["stage"] for e in run] == [v.replace("-", "_") for v in pipeline.RUN_ALL_ORDER]
        assert {e["config_hash"] for e in run} == {first.config_hash()}
        assert rerun["stage"] == "edit"
        assert rerun["config_hash"] == toggled.config_hash() != first.config_hash()
        assert saved["config_hash"] == toggled.config_hash()


class TestCrashIsolation:
    def test_bad_row_recorded_not_fatal(self, tmp_path):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        rows = list(read_jsonl(config.path("programs")))
        rows[3]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        manifest = new_manifest(config)
        from tracedistill.pipeline import stage_exec

        stage_exec(config, manifest)
        entry = manifest.stages[-1]
        assert entry["rows_out"] == len(rows) - 1
        assert entry["row_errors"][0]["row"] == 3
        assert entry["row_errors"][0]["program_id"] == rows[3]["program_id"]
        assert entry["row_errors"][0]["query_id"] == rows[3]["query_id"]

    def test_strict_aborts(self, tmp_path):
        config = load_config(write_config(tmp_path, strict=True))
        run_all(config)
        rows = list(read_jsonl(config.path("programs")))
        rows[0]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        from tracedistill.pipeline import stage_exec

        with pytest.raises(StageError, match="exec row 0"):
            stage_exec(config, new_manifest(config))

    def test_a_value_past_the_bounds_is_a_runtime_error_row(self, tmp_path):
        """An int past 64 bits in a variable's binding would fail the trace
        row's JSON write, outside the row loop; the interpreter stops it."""
        config = load_config(write_config(tmp_path))
        run_all(config)
        before = list(read_jsonl(config.path("traces")))
        rows = list(read_jsonl(config.path("programs")))
        rows[1]["source"] = "x = 1\n" + "x = x * 1000000000\n" * 500 + "return 'yes'"
        write_jsonl(config.path("programs"), rows)
        manifest = new_manifest(config)
        pipeline.stage_exec(config, manifest)
        after = list(read_jsonl(config.path("traces")))
        assert manifest.stages[-1]["row_errors"] == []
        assert (after[1]["status"], after[1]["reject_reason"]) == ("runtime_error", "runtime_error")
        assert after[1]["error"]["message"] == "integer out of range"
        assert after[:1] + after[2:] == before[:1] + before[2:]

    def test_a_result_nested_thousands_deep_is_an_ok_row(self, tmp_path):
        """Its trace row holds the result's capped snapshot, which reads back;
        4,096 levels of nesting, within the default 10,000 steps."""
        config = load_config(write_config(tmp_path))
        run_all(config)
        rows = list(read_jsonl(config.path("programs")))
        rows[1]["source"] = "\n".join(["xs = [1]", *["xs = xs + xs"] * 12, "ys = []",
                                       "for x in xs:", "    ys = [ys]", "return ys"])
        write_jsonl(config.path("programs"), rows)
        manifest = new_manifest(config)
        pipeline.stage_exec(config, manifest)
        assert manifest.stages[-1]["row_errors"] == []
        row = list(read_jsonl(config.path("traces")))[1]
        assert (row["status"], row["reject_reason"]) == ("ok", "wrong_answer")
        assert trace_from_record(row).status == "ok"

    def _share_one_bad_source(self, config):
        rows = list(read_jsonl(config.path("programs")))
        for i in (2, 7):
            rows[i]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        return rows

    def test_rows_sharing_a_bad_source_each_fail(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        rows = self._share_one_bad_source(config)
        manifest = new_manifest(config)
        pipeline.stage_exec(config, manifest)
        entry = manifest.stages[-1]
        assert entry["rows_out"] == len(rows) - 2
        errors = entry["row_errors"]
        assert [(e["row"], e["program_id"]) for e in errors] == [
            (i, rows[i]["program_id"]) for i in (2, 7)
        ]
        assert errors[0]["error"] == errors[1]["error"]
        assert entry["extra"]["distinct_sources"] == len({r["source"] for r in rows}) - 1

    def test_strict_aborts_at_the_first_row_of_a_shared_bad_source(self, tmp_path):
        config = load_config(write_config(tmp_path, strict=True))
        run_all(config)
        self._share_one_bad_source(config)
        with pytest.raises(StageError, match="exec row 2"):
            pipeline.stage_exec(config, new_manifest(config))

    @staticmethod
    def _kept_row_after_a_rejected_one(config) -> int:
        """The traces.jsonl index of the first kept row after a rejected
        one: fewer kept rows than rows come before it."""
        reasons = [r["reject_reason"] for r in read_jsonl(config.path("traces"))]
        rejected = next(i for i, reason in enumerate(reasons) if reason is not None)
        row = reasons.index(None, rejected + 1)
        assert reasons[:row].count(None) < row
        return row

    def test_an_edit_row_error_names_its_traces_row(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        row = self._kept_row_after_a_rejected_one(config)
        rows = list(read_jsonl(config.path("traces")))
        broken = rows[row]
        events = broken.pop("events")
        write_jsonl(config.path("traces"), rows)
        manifest = new_manifest(config)
        stage_edit(config, manifest)
        assert manifest.stages[-1]["row_errors"] == [{
            "row": row, "query_id": broken["query_id"],
            "program_id": broken["program_id"], "error": "missing field 'events'",
        }]
        strict = config.with_overrides(strict=True)
        with pytest.raises(StageError, match=re.escape(f"[edit row {row}] missing field 'events'")):
            stage_edit(strict, new_manifest(strict))
        # A malformed value is named by its event and field.
        broken["events"] = events
        events[0]["uses"] = "x"
        write_jsonl(config.path("traces"), rows)
        manifest = new_manifest(config)
        stage_edit(config, manifest)
        [error] = manifest.stages[-1]["row_errors"]
        assert error["row"] == row
        assert error["error"].startswith("events[0] field 'uses' must be a list of lists of ")

    def test_run_all_and_the_edit_verb_name_the_same_edit_row(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path))
        run_all(config)
        row = self._kept_row_after_a_rejected_one(config)
        target = list(read_jsonl(config.path("traces")))[row]

        def prune(trace, _real=editing.prune):
            if trace.program_id == target["program_id"]:
                raise RuntimeError("prune broke")
            return _real(trace)

        monkeypatch.setattr(editing, "prune", prune)
        entry = next(e for e in run_all(config).stages if e["stage"] == "edit")
        manifest = new_manifest(config)
        stage_edit(config, manifest)
        assert entry["row_errors"] == manifest.stages[-1]["row_errors"] == [{
            "row": row, "query_id": target["query_id"],
            "program_id": target["program_id"], "error": "prune broke",
        }]

    @pytest.fixture
    def broken_student(self, monkeypatch):
        def answer(self, question, context=None):
            raise RuntimeError("student broke")

        monkeypatch.setattr(students.StubbornStudent, "answer", answer)

    def test_student_exception_is_a_score_row_error(self, tmp_path, broken_student):
        config = load_config(write_config(tmp_path))
        manifest = run_all(config)
        entry = next(e for e in manifest.stages if e["stage"] == "score")
        rationales = list(read_jsonl(config.path("rationales")))
        assert entry["rows_out"] == 0 and manifest.counts["score_kept"] == 0
        assert entry["row_errors"] == [
            {"row": i, "query_id": r["query_id"], "program_id": r["program_id"],
             "error": "student broke"}
            for i, r in enumerate(rationales)
        ]
        report = run_ablation(config)
        for key in report["cells"]:
            cell_dir = tmp_path / "ablation" / key.replace(",", "_").replace("=", "")
            entries = {e["stage"]: e for e in read_json(cell_dir / "manifest.json")["stages"]}
            assert entries["score"]["rows_out"] == 0, key
            assert len(entries["score"]["row_errors"]) == entries["edit"]["rows_out"] > 0, key

    def test_student_exception_aborts_score_under_strict(self, tmp_path, broken_student):
        config = load_config(write_config(tmp_path, strict=True))
        with pytest.raises(StageError, match=r"\[score row 0\] student broke"):
            run_all(config)
        report = run_ablation(config)
        assert report["cells"] == {
            key: {"error": "[score row 0] student broke"} for key in report["cells"]
        }


class TestCli:
    def test_missing_input_exits_nonzero(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        rc = cli.main(["--config", str(config_path), "exec"])
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["stage"] == "exec"
        assert report["error"]

    def test_emit_names_kept_queries_without_a_rationale(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        config = load_config(config_path)
        run_all(config)
        kept = [row["query_id"] for row in read_jsonl(config.path("scored"))
                if row["kept"]]
        assert len(kept) >= 2
        gone = kept[:2]
        rationales = [row for row in read_jsonl(config.path("rationales"))
                      if row["query_id"] not in gone]
        write_jsonl(config.path("rationales"), rationales)
        assert cli.main(["--config", str(config_path), "emit"]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "EmissionError"
        assert str(sorted(gone)) in report["message"]

    # Each row file, the single-stage verb that reads it, a field its rows
    # carry, and a value of the wrong type for a field, with what that field
    # must be. A scored row whose "kept" is the string "false" once shipped
    # its dropped rationale, and a null question once crashed program-gen
    # with an AttributeError.
    ROW_FILES = [
        ("queries.jsonl", "program-gen", "question", ("question", None, "a string")),
        ("programs.jsonl", "exec", "source", ("source", 5, "a string")),
        ("rationales.jsonl", "score", "lineage", ("lineage", [], "an object")),
        ("scored.jsonl", "emit", "score", ("kept", "false", "a boolean")),
        ("dataset.jsonl", "train", "rationale", ("rationale", 5, "null or a string")),
    ]

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("built")
        assert cli.main(["--config", str(write_config(workdir, scene_count=8)), "run-all"]) == 0
        return workdir

    @pytest.mark.parametrize("change", ["missing", "unknown", "wrong_type"])
    @pytest.mark.parametrize("name,verb,field,wrong", ROW_FILES)
    def test_a_malformed_row_fails_its_reader_with_a_schema_error(
        self, built, tmp_path, capsys, name, verb, field, wrong, change
    ):
        workdir = tmp_path / "run"
        shutil.copytree(built, workdir)
        lines = (workdir / name).read_text().splitlines()
        row = 2 if name == "dataset.jsonl" else 1  # the dataset's line 0 is its header
        record = json.loads(lines[row])
        wrong_field, wrong_value, must_be = wrong
        if change == "missing":
            del record[field]
            named = f"missing field {field!r}"
        elif change == "unknown":
            record["stray"] = 0
            named = "unknown field 'stray'"
        else:
            record[wrong_field] = wrong_value
            named = f"field {wrong_field!r} must be {must_be}, got {wrong_value!r}"
        lines[row] = json.dumps(record)
        (workdir / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["--config", str(workdir / "config.json"), verb]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SchemaError"
        assert f"{name} row 1: {named}" in report["message"]

    # Each row file that holds one row per query, the single-stage verb that
    # reads it, and the id no two of its rows share. A repeated rationale
    # once made score read 51 rows for 50 faithful traces, and exit 0.
    UNIQUE_ROW_FILES = [
        ("programs.jsonl", "exec", "program_id"),
        ("rationales.jsonl", "score", "query_id"),
        ("scored.jsonl", "emit", "query_id"),
        ("dataset.jsonl", "train", "query_id"),
    ]

    @pytest.mark.parametrize("name,verb,field", UNIQUE_ROW_FILES)
    def test_a_repeated_id_fails_its_reader_with_a_schema_error(
        self, built, tmp_path, capsys, name, verb, field
    ):
        workdir = tmp_path / "run"
        shutil.copytree(built, workdir)
        lines = (workdir / name).read_text().splitlines()
        first = 1 if name == "dataset.jsonl" else 0  # the dataset's line 0 is its header
        (workdir / name).write_text("\n".join(lines + [lines[first]]) + "\n")
        capsys.readouterr()
        assert cli.main(["--config", str(workdir / "config.json"), verb]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SchemaError"
        repeated = json.loads(lines[first])[field]
        assert f"{name} row {len(lines) - first}: duplicate {field} {repeated!r}" in report["message"]

    # A repeated traces.jsonl row once made edit write two rationales for
    # one query and exit 0, and score then blamed rationales.jsonl.
    @pytest.mark.parametrize("verb", ["edit", "ablate"])
    @pytest.mark.parametrize("kept", [True, False])
    def test_a_repeated_trace_row_fails_edit_and_ablate_with_a_schema_error(
        self, built, tmp_path, capsys, verb, kept
    ):
        workdir = tmp_path / "run"
        shutil.copytree(built, workdir)
        lines = (workdir / "traces.jsonl").read_text().splitlines()
        repeated = next(json.loads(line) for line in lines
                        if (json.loads(line)["reject_reason"] is None) == kept)
        (workdir / "traces.jsonl").write_text("\n".join(lines + [json.dumps(repeated)]) + "\n")
        capsys.readouterr()
        assert cli.main(["--config", str(workdir / "config.json"), verb]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "SchemaError"
        assert report["message"] == (f"{workdir / 'traces.jsonl'} row {len(lines)}: "
                                     f"duplicate query_id {repeated['query_id']!r}")

    # A traces.jsonl row without a verdict once failed ablate with a
    # message that named edit.
    @pytest.mark.parametrize("verb", ["edit", "ablate"])
    def test_a_trace_row_without_a_verdict_fails_the_verb_that_read_it(
        self, built, tmp_path, capsys, verb
    ):
        workdir = tmp_path / "run"
        shutil.copytree(built, workdir)
        rows = list(read_jsonl(workdir / "traces.jsonl"))
        del rows[-1]["reject_reason"]
        write_jsonl(workdir / "traces.jsonl", rows)
        capsys.readouterr()
        assert cli.main(["--config", str(workdir / "config.json"), verb]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report == {"error": "StageError", "stage": verb,
                          "message": f"[{verb}] traces.jsonl rows carry no reject_reason; rerun exec"}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene_countt": 3}))
        rc = cli.main(["--config", str(path), "run-all"])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,message",
        [
            ({"max_steps": 0}, "max_steps must be >= 1"),
            ({"students": []}, "at least one student"),
            ({"students": [{"kind": "bogus"}]}, "unknown student kind 'bogus'"),
            (
                {"external_generator": {"enabled": True}},
                "unknown config keys: ['external_generator.enabled']",
            ),
            (
                {"external_bridger": {"enabled": False}},
                "unknown config keys: ['external_bridger.enabled']",
            ),
            (
                {"students": [{"kind": "rationale_sensitive", "trigger_mode": "answer"}]},
                "unknown config keys: ['students.trigger_mode']",
            ),
            (
                {"students": [{"kind": "rationale_sensitive", "token_budget": "abc"}]},
                "token_budget must be null or an integer >= 0",
            ),
            (
                {"students": [{"kind": "stubborn", "fixed_answer": 5}]},
                "fixed_answer must be a non-empty string",
            ),
            ({"max_steps": True}, "max_steps must be >= 1, got True"),
            (
                {"students": [{"kind": "rationale_sensitive", "token_budget": True}]},
                "token_budget must be null or an integer >= 0, got True",
            ),
            ({"harm_verdict": False}, "harm_verdict must be -1 or 0"),
            ({"max_steps": "abc"}, "max_steps must be an integer, got 'abc'"),
            ({"max_steps": None}, "max_steps must be an integer, got None"),
            ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
            ({"min_score": "abc"}, "min_score must be an integer, got 'abc'"),
            ({"min_score": True}, "min_score must be an integer, got True"),
            ({"lambda": "x"}, "lambda must be a finite number >= 0, got 'x'"),
            ({"lambda": -0.5}, "lambda must be a finite number >= 0, got -0.5"),
            ({"lambda": "nan"}, "lambda must be a finite number >= 0, got 'nan'"),
            ({"lambda": True}, "lambda must be a finite number >= 0, got True"),
            ({"train": {"epochs": -3}}, "train.epochs must be >= 1, got -3"),
            ({"train": {"epochs": 2.5}}, "train.epochs must be an integer, got 2.5"),
            ({"train": {"epochs": True}}, "train.epochs must be >= 1, got True"),
            ({"train": {"step_size": -1}}, "train.step_size must be a finite number > 0, got -1"),
            ({"train": {"step_size": 0}}, "train.step_size must be a finite number > 0, got 0"),
            ({"train": {"step_size": None}}, "train.step_size must be a finite number > 0, got None"),
            ({"scene_count": 0}, "scene_count must be >= 1, got 0"),
            ({"scene_count": "abc"}, "scene_count must be an integer, got 'abc'"),
            ({"scene_count": False}, "scene_count must be >= 1, got False"),
            ({"train": 5}, "train must be an object, got 5"),
            ({"seeds": {"train": "x"}}, "seeds.train must be an integer, got 'x'"),
            ({"seeds": {"train": -1}}, "seeds.train must be >= 0, got -1"),
            ({"corruption_rate": "abc"}, "corruption_rate must lie in [0, 1], got 'abc'"),
            ({"noise_p": None}, "noise_p must lie in [0, 1], got None"),
            (
                {"students": [{"kind": "noisy_oracle", "failure_rate": "x"}]},
                "failure_rate must lie in [0, 1], got 'x'",
            ),
            ({"train": {"bogus": 1}}, "unknown config keys: ['train.bogus']"),
            ({"edit": {"prune": "no"}}, "edit.prune must be true or false, got 'no'"),
            ({"paths": {"bogus": "x"}}, "unknown config keys: ['paths.bogus']"),
            ({"strict": "no"}, "strict must be true or false, got 'no'"),
            ({"workdir": 5}, "workdir must be a string, got 5"),
            ({"students": [{"kind": "stubborn", "seed": 3}]}, "unknown config keys: ['students.seed']"),
            (
                {"students": [{"kind": "stubborn"}, {"kind": "rationale_sensitive", "name": "stubborn_0"}]},
                "students must have distinct names, got ['stubborn_0'] more than once",
            ),
        ],
    )
    def test_config_that_fails_every_row_rejected(self, tmp_path, capsys, override, message):
        rc = cli.main(["--config", str(write_config(tmp_path, **override)), "run-all"])
        assert rc == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert message in report["message"]
        assert not (tmp_path / "scenes.jsonl").exists()

    def test_negative_seed_rejected_before_scene_gen(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--seed", "-5", "run-all"]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert "must be >= 0" in report["message"]
        assert not (tmp_path / "scenes.jsonl").exists()

    def test_noisy_oracle_seed_defaults_to_the_rebased_students_seed(self, tmp_path):
        specs = [{"kind": "noisy_oracle"}, {"kind": "noisy_oracle", "seed": 3}]
        config = apply_seed_override(load_config(write_config(tmp_path, students=specs)), 7)
        assert config["students"] == specs
        unset, given = pipeline._load_students(config)
        assert (unset.seed, given.seed) == (config.seeds["students"], 3) == (10, 3)

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError, match="edit.prune must be true or false"):
            default_config().with_overrides(edit={"prune": "no"})

    # A change to the defaults moves the default config's hash, and with it
    # every default run's manifest: it must move on purpose.
    def test_default_config_hash_is_pinned(self):
        assert default_config().config_hash() == (
            "a616e944fd7444bf11e28a1837be593381d42c59b07baf514c129337b8db9daa"
        )

    @staticmethod
    def _readme_configuration():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]

    def test_readme_config_block_is_the_defaults(self):
        block = self._readme_configuration().split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULTS

    def test_readme_student_key_table_lists_each_kinds_keys(self):
        table = self._readme_configuration().split("A student spec's keys", 1)[1].split("\n\n", 2)[1]
        listed = {kind: set() for kind in STUDENT_DEFAULTS}
        for row in table.splitlines()[2:]:
            key, kinds = (re.findall(r"`(\w+)`", cell) for cell in row.split("|")[1:3])
            for kind in kinds or STUDENT_DEFAULTS:
                listed[kind].update(key)
        assert listed == {kind: {"kind", "name", *keys} for kind, keys in STUDENT_DEFAULTS.items()}

    def test_digit_string_hashes_like_its_number(self, tmp_path):
        as_text = load_config(write_config(tmp_path, max_steps="5")).config_hash()
        assert load_config(write_config(tmp_path, max_steps=5)).config_hash() == as_text

    @pytest.mark.parametrize("max_steps", [5, "5"])
    def test_max_steps_integer_or_digit_string_loads(self, tmp_path, max_steps):
        config = load_config(write_config(tmp_path, max_steps=max_steps))
        assert config["max_steps"] == 5 and type(config["max_steps"]) is int

    @pytest.mark.parametrize(
        "override",
        [
            {"min_score": -1}, {"min_score": "2"},
            {"lambda": 0}, {"lambda": "1.5"},
            {"train": {"epochs": 1, "step_size": 2}}, {"train": {"epochs": "4", "step_size": "0.1"}},
            {"scene_count": 1}, {"scene_count": "3"},
        ],
    )
    def test_number_or_number_string_loads(self, tmp_path, override):
        config = load_config(write_config(tmp_path, **override))
        if "train" in override:
            assert type(config["train"]["epochs"]) is int
            assert type(config["train"]["step_size"]) is float
        else:
            [key] = override
            assert type(config[key]) is (float if key == "lambda" else int)

    def test_stage_by_stage_matches_run_all(self, tmp_path):
        """run_all hands rows over in memory; the stage verbs read files. Both
        write the same stage files and the same manifest entries."""
        for case, overrides in [
            ("n20", {}),
            ("n60_noise", {"scene_count": 60, "corruption_rate": 0.2, "noise_p": 0.15}),
        ]:
            all_dir, step_dir = tmp_path / case / "all", tmp_path / case / "step"
            all_dir.mkdir(parents=True), step_dir.mkdir(parents=True)
            run_all(load_config(write_config(all_dir, **overrides)))
            step_config = write_config(step_dir, **overrides)
            for verb in ["scene-gen", "program-gen", "exec", "edit", "score", "emit", "train"]:
                assert cli.main(["--config", str(step_config), verb]) == 0
            for name in STAGE_FILES:
                assert sha256_of(all_dir / name) == sha256_of(step_dir / name), (case, name)
            manifests = [read_json(d / "manifest.json") for d in (all_dir, step_dir)]
            for manifest in manifests:
                for entry in manifest["stages"]:
                    del entry["duration_s"]
            assert manifests[0] == manifests[1], case

    def test_score_emit_and_ablate_read_no_scenes(self, tmp_path):
        """Students take the answer scene-gen recorded, so score, emit and
        ablate write the same bytes without scenes.jsonl."""
        kept, gone = tmp_path / "kept", tmp_path / "gone"
        kept.mkdir()
        config_path = write_config(kept, scene_count=40, corruption_rate=0.2)
        assert cli.main(["--config", str(config_path), "run-all"]) == 0
        shutil.copytree(kept, gone)
        (gone / "scenes.jsonl").unlink()
        for workdir in (kept, gone):
            for verb in ["score", "emit", "ablate"]:
                rc = cli.main(["--config", str(workdir / "config.json"), verb])
                assert rc == 0, (workdir.name, verb)

        def written(workdir):
            return sorted(p.relative_to(workdir) for p in workdir.rglob("*")
                          if p.is_file() and p.name not in ("manifest.json", "scenes.jsonl"))

        assert written(kept) == written(gone)
        assert len(written(kept)) > 8 * len(pipeline.CELL_FILES)
        for path in written(kept):
            assert sha256_of(kept / path) == sha256_of(gone / path), path

    def test_seed_override_changes_outputs(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        assert cli.main(["--config", str(write_config(dir_a)), "--seed", "1", "run-all"]) == 0
        assert cli.main(["--config", str(write_config(dir_b)), "--seed", "2", "run-all"]) == 0
        assert (dir_a / "scenes.jsonl").read_bytes() != (dir_b / "scenes.jsonl").read_bytes()


class TestExternalEndpoints:
    def test_external_generator_feeds_pipeline(self, tmp_path, stub_server):
        config = load_config(
            write_config(
                tmp_path,
                scene_count=4,
                corruption_rate=0.0,
                external_generator={"endpoint": stub_server},
            )
        )
        from tracedistill.pipeline import stage_program_gen, stage_scene_gen

        manifest = new_manifest(config)
        stage_scene_gen(config, manifest)
        stage_program_gen(config, manifest)
        for row in read_jsonl(config.path("programs")):
            assert row["source"].startswith("flag = image.exists")
        # run_all hands program-gen the scenes it just generated
        staged = config.path("programs").read_bytes()
        run_all(config)
        assert config.path("programs").read_bytes() == staged

    def test_external_generator_failures_recorded_and_skipped(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                scene_count=3,
                external_generator={"endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
            )
        )
        from tracedistill.pipeline import stage_program_gen, stage_scene_gen

        manifest = new_manifest(config)
        stage_scene_gen(config, manifest)
        stage_program_gen(config, manifest)
        assert list(read_jsonl(config.path("programs"))) == []
        entry = manifest.stages[-1]
        assert entry["rows_out"] == 0
        assert len(entry["row_errors"]) == 3
        queries = [row["query_id"] for row in read_jsonl(config.path("queries"))]
        assert [e["query_id"] for e in entry["row_errors"]] == queries
        assert all(e["program_id"] is None for e in entry["row_errors"])

    def test_external_generator_failure_aborts_under_strict(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                scene_count=5,
                strict=True,
                external_generator={"endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
            )
        )
        from tracedistill.pipeline import stage_program_gen, stage_scene_gen

        manifest = new_manifest(config)
        stage_scene_gen(config, manifest)
        with pytest.raises(StageError, match="program_gen row 0"):
            stage_program_gen(config, manifest)
        assert not config.path("programs").exists()

    def test_external_bridger_used_in_edit(self, tmp_path, stub_server):
        config = load_config(
            write_config(
                tmp_path,
                corruption_rate=0.0,
                external_bridger={"endpoint": stub_server},
            )
        )
        run_all(config)
        texts = [row["text"] for row in read_jsonl(config.path("rationales"))]
        assert any("Hence the next step." in t for t in texts)

    def test_external_bridger_fallback_recorded(self, tmp_path):
        config = load_config(
            write_config(
                tmp_path,
                corruption_rate=0.0,
                external_bridger={"endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
            )
        )
        manifest = run_all(config)
        rows = list(read_jsonl(config.path("rationales")))
        extra = next(e for e in manifest.stages if e["stage"] == "edit")["extra"]
        assert extra["bridge_fallbacks"] == sum(r["bridge_fallback"] for r in rows) > 0


class TestIdempotence:
    def test_rerunning_a_stage_reproduces_bytes(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        from tracedistill.pipeline import stage_edit as edit_stage, stage_exec

        before = config.path("traces").read_bytes()
        stage_exec(config, new_manifest(config))
        assert config.path("traces").read_bytes() == before
        before = config.path("rationales").read_bytes()
        edit_stage(config, new_manifest(config))
        assert config.path("rationales").read_bytes() == before


class TestAblate:
    def test_grid_completes(self, tmp_path):
        config = load_config(write_config(tmp_path, scene_count=16, corruption_rate=0.0))
        run_all(config)
        report = run_ablation(config)
        assert len(report["cells"]) == 8
        for key, cell in report["cells"].items():
            assert "error" not in cell, (key, cell)
            assert set(cell) == {"mean_tokens", "keep_rate", "accuracy_heldout"}

    def test_requires_base_corpus(self, tmp_path):
        config = default_config(tmp_path)
        with pytest.raises(StageError, match="missing base corpus"):
            run_ablation(config)

    def test_matches_the_stages_byte_for_byte(self, tmp_path):
        base, ref = tmp_path / "base", tmp_path / "ref"
        base.mkdir(), ref.mkdir()
        students_ = [*default_config()["students"], {"kind": "rationale_sensitive", "token_budget": 28}]
        config = load_config(write_config(
            base, scene_count=60, corruption_rate=0.2, students=students_,
            train={"epochs": 60, "step_size": 0.5},
        ))
        run_all(config)
        report = run_ablation(config)
        assert len({cell["keep_rate"] for cell in report["cells"].values()}) > 1
        self._assert_cells_match_the_stages(config, report, ref)

    @staticmethod
    def _assert_cells_match_the_stages(config, report, ref):
        """Each cell's files equal those of the edit, score, emit and train
        stages, each run on its own with the cell's toggles, into ``ref``."""
        for p in (0, 1):
            for m in (0, 1):
                for b in (0, 1):
                    key = f"prune={p},merge={m},bridge={b}"
                    assert "error" not in report["cells"][key], key
                    cell = config.workdir / "ablation" / f"prune{p}_merge{m}_bridge{b}"
                    paths = {stage: str(ref / key / name) for stage, name in pipeline.CELL_FILES.items()}
                    staged = config.with_overrides(
                        edit={"prune": bool(p), "merge": bool(m), "bridge": bool(b)},
                        paths={**config.raw["paths"], **paths},
                    )
                    manifest = new_manifest(staged)
                    for stage in ("edit", "score", "emit", "train"):
                        pipeline.STAGES[stage](staged, manifest)
                    for stage, name in pipeline.CELL_FILES.items():
                        assert sha256_of(cell / name) == sha256_of(staged.path(stage)), (key, name)

    @staticmethod
    def _reused_from(config):
        """Each cell's train ``extra.reused_from``, by cell directory name."""
        return {
            cell.name: next(e for e in read_json(cell / "manifest.json")["stages"]
                            if e["stage"] == "train")["extra"]["reused_from"]
            for cell in sorted((config.workdir / "ablation").iterdir())
        }

    def test_a_bridge_sentence_with_a_keyword_trains_its_own_cells(self, tmp_path, stub_server):
        # The stub's "Hence the next step." adds the keyword "hence", so no
        # bridged cell has an unbridged cell's training input.
        base, ref = tmp_path / "base", tmp_path / "ref"
        base.mkdir(), ref.mkdir()
        config = load_config(write_config(
            base, corruption_rate=0.0, external_bridger={"endpoint": stub_server},
        ))
        run_all(config)
        report = run_ablation(config)
        reused = self._reused_from(config)
        assert len(reused) == 8
        for cell, source in reused.items():
            if cell.endswith("bridge1"):
                assert source is None or source.endswith("bridge1/metrics.json"), (cell, source)
        self._assert_cells_match_the_stages(config, report, ref)

    # sha256 of each cell's rationales.jsonl after run-all and ablate at
    # n=60, corruption 0.2, default seeds. Any change to an edited byte
    # (pruning, merging, rendering, tagging or bridging) moves one of these.
    PINNED_RATIONALES = {
        "prune0_merge0_bridge0": "2911064be5db6003e4b27ce2693f748ad08476c40b6815c3c04096cdb24990e1",
        "prune0_merge0_bridge1": "e04478ed35314fe8d091c291fc6ccf7e3224f751fa9ea361a12c489b751b7047",
        "prune0_merge1_bridge0": "fdda53054771ca411f991d692b5d9bd2764ef77fbc5aa61c4902a9566b3f172b",
        "prune0_merge1_bridge1": "961c97b9dc00eacead2e15a525752a0577a8692e7d847e01e9b013f2b6dbc336",
        "prune1_merge0_bridge0": "7aa19a6ced2cdcd966ca36a1e7c5dacf07ab51fd36a5621ae418f3a3788186a4",
        "prune1_merge0_bridge1": "89a08f983c68efa823d99ce634ceba38864814f88d29d12cca84eec927805826",
        "prune1_merge1_bridge0": "0273da3c6c2f4c3cecf01ab60f2af2ae62af1258f345a1d6b2ab057a26dcaec4",
        "prune1_merge1_bridge1": "03d7ddfe7ca8086ee84e61ffef61d19caf25fefb29be8c91ddb25f2471cac76b",
    }

    # The same run's queries.jsonl, every cell's scored.jsonl (the default
    # students' verdicts do not depend on the edit toggles) and each cell's
    # dataset.jsonl. Each of these rows is written from its dataclass's
    # fields, so renaming a field moves its file's hash. Each scored row
    # carries score's keep decision, ``kept``.
    PINNED_QUERIES = "2ca58a0d434ad2db4097ca498e542d1d9734b31be097b8a0cba95cd71ea0537d"
    PINNED_SCORED = "c0afcc4ba34742bb15060ca6415c7a7efd2880eb52a317354a27a2a833d21ac5"
    PINNED_DATASETS = {
        "prune0_merge0_bridge0": "3f0b7114947692e114070b25643352ddc4113eda1c7ce4ca208a2ea63d1d3b36",
        "prune0_merge0_bridge1": "9bc547ed8bcbe06d9774dfcbe7ebf53e1a53360f420917292c3f51d0465c7b24",
        "prune0_merge1_bridge0": "41513c74947f8de3ad780e9363d6b36e308bea60badbac9c23ec22a41e6f83fe",
        "prune0_merge1_bridge1": "6069a25c8b71c2deded37a0cd7c207032de02b5a903685e22a9e45edb37a5d58",
        "prune1_merge0_bridge0": "b6309d0e85efe04d135f0b271a9819b583968665dc4a1ed621a98b21803e2ccd",
        "prune1_merge0_bridge1": "d738caf90f4913221679c2df073a7142ee87fc3704a27c0f62ca7acf73b22454",
        "prune1_merge1_bridge0": "5340b7f67c4585a7970e8fdbf0921462edad46d6d685719cc79aad754c8a960a",
        "prune1_merge1_bridge1": "9024e8210e4db1803523961487e56fc197cb7e9ca41673db5338861ce178156f",
    }

    def test_cell_rationales_are_pinned(self, tmp_path):
        config = load_config(write_config(tmp_path, scene_count=60, corruption_rate=0.2))
        run_all(config)
        run_ablation(config)
        cells = sorted((tmp_path / "ablation").iterdir())
        assert {cell.name: sha256_of(cell / "rationales.jsonl") for cell in cells} == (
            self.PINNED_RATIONALES
        )
        assert sha256_of(config.path("queries")) == self.PINNED_QUERIES
        assert {cell.name: sha256_of(cell / "scored.jsonl") for cell in cells} == (
            dict.fromkeys(self.PINNED_DATASETS, self.PINNED_SCORED)
        )
        assert {cell.name: sha256_of(cell / "dataset.jsonl") for cell in cells} == self.PINNED_DATASETS

    def test_shared_work_runs_once(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, scene_count=16))
        run_all(config)
        calls = count_calls(monkeypatch, [(interp, "trace_from_record"), (sw, "load_scenes"),
                                          (sw, "load_queries"), (distill, "train")])
        run_ablation(config)
        kept = sum(r["reject_reason"] is None for r in read_jsonl(config.path("traces")))
        inputs = {distill.training_input(distill.load_dataset(cell / "dataset.jsonl"))
                  for cell in (tmp_path / "ablation").iterdir()}
        assert len(inputs) < 8  # some cells share a training input
        # Counter equality counts a missing name as 0
        assert Counter(name for name, _ in calls) == Counter({
            "trace_from_record": kept, "load_scenes": 0, "load_queries": 1, "train": len(inputs),
        })
        reused = self._reused_from(config)
        assert sum(source is None for source in reused.values()) == len(inputs)
        for cell, source in reused.items():
            if source is not None:
                assert (tmp_path / source).read_bytes() == (
                    tmp_path / "ablation" / cell / "metrics.json").read_bytes()

    def _break_one_kept_trace(self, config):
        """Delete the third kept row's events; returns the kept count, that
        row's traces.jsonl index and the row."""
        rows = list(read_jsonl(config.path("traces")))
        kept = [i for i, r in enumerate(rows) if r["reject_reason"] is None]
        broken = rows[kept[2]]
        del broken["events"]
        write_jsonl(config.path("traces"), rows)
        return len(kept), kept[2], broken

    def test_broken_trace_dropped_from_every_cell_and_recorded(self, tmp_path):
        config = load_config(write_config(tmp_path))
        run_all(config)
        kept, row, broken = self._break_one_kept_trace(config)
        report = run_ablation(config)
        for key, figures in report["cells"].items():
            assert "error" not in figures, key
            cell = tmp_path / "ablation" / key.replace(",", "_").replace("=", "")
            manifest = read_json(cell / "manifest.json")
            assert manifest["config_hash"] != config.config_hash()
            entries = {e["stage"]: e for e in manifest["stages"]}
            assert list(entries) == ["edit", "score", "emit", "train"]
            assert entries["edit"]["rows_out"] == kept - 1
            assert entries["edit"]["row_errors"] == [{
                "row": row, "query_id": broken["query_id"],
                "program_id": broken["program_id"], "error": "missing field 'events'",
            }]
            edited = [r["query_id"] for r in read_jsonl(cell / "rationales.jsonl")]
            assert len(edited) == kept - 1 and broken["query_id"] not in edited
            assert entries["score"]["rows_in"] == kept - 1

    def test_cell_config_hashes_do_not_depend_on_the_run_directory(self, tmp_path):
        hashes = []
        for run in ("one", "two"):
            workdir = tmp_path / run
            workdir.mkdir()
            config = load_config(write_config(workdir))
            run_all(config)
            run_ablation(config)
            hashes.append({
                path.relative_to(workdir).as_posix():
                    [manifest["config_hash"]] + [e["config_hash"] for e in manifest["stages"]]
                for path in sorted(workdir.rglob("manifest.json"))
                for manifest in [read_json(path)]
            })
        assert len(hashes[0]) == 9  # the run's manifest and the 8 cells'
        assert hashes[0] == hashes[1]

    def test_a_failing_bridger_fails_no_edit_row(self, tmp_path):
        # Finishing a draft cannot raise, so both cells of a pair keep the
        # same rows: a failed bridge call falls back to the default bridger.
        config = load_config(write_config(
            tmp_path, external_bridger={"endpoint": "http://127.0.0.1:1/", "timeout": 0.2},
        ))
        run_all(config)
        run_ablation(config)
        edits = {}
        for cell in sorted((tmp_path / "ablation").iterdir()):
            edits[cell.name] = next(e for e in read_json(cell / "manifest.json")["stages"]
                                    if e["stage"] == "edit")
            assert edits[cell.name]["row_errors"] == [], cell.name
        for name, entry in edits.items():
            if name.endswith("bridge1"):
                assert entry["rows_out"] == edits[name.replace("bridge1", "bridge0")]["rows_out"]
                rows = list(read_jsonl(tmp_path / "ablation" / name / "rationales.jsonl"))
                assert entry["extra"]["bridge_fallbacks"] == sum(r["bridge_fallback"] for r in rows) > 0

    def test_broken_trace_fails_every_cell_under_strict(self, tmp_path):
        config = load_config(write_config(tmp_path, strict=True))
        run_all(config)
        _, row, _ = self._break_one_kept_trace(config)
        report = run_ablation(config)
        assert report["cells"] == {
            key: {"error": f"[edit row {row}] missing field 'events'"} for key in report["cells"]
        }
        assert len(report["cells"]) == 8
        for cell in (tmp_path / "ablation").iterdir():
            assert read_json(cell / "manifest.json")["stages"] == [], cell.name


class TestExecPinned:
    """Exec's bytes and the parser's trees, pinned at n=60, corruption 0.2,
    default seeds. A change to the lexer, parser or interpreter that moves a
    node id, a payload or a trace event moves one of these. Exec's inputs
    are pinned too: scenes.jsonl here, queries.jsonl in TestAblate."""

    SCENES_SHA256 = "0eda2a46fac0f6107387b56ce125fd9ed937a8550206b78d1d43d5df041d1c12"
    TRACES_SHA256 = "a4a5aaf85a7c462b1b56066f2ba64c2e9dee14a668efeca9c826be56e7822377"
    # over the (id, kind, children, payload) lists of the 48 distinct sources
    PARSE_SHA256 = "69e70d8497506de235e8d7adbf9a04fb300587efa37c60b20922f621e978a403"

    @pytest.fixture(scope="class")
    def staged(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pinned")
        config = load_config(write_config(tmp_path, scene_count=60, corruption_rate=0.2))
        manifest = new_manifest(config)
        for stage in ("scene-gen", "program-gen", "exec"):
            pipeline.STAGES[stage](config, manifest)
        return config

    def test_scenes_are_pinned(self, staged):
        assert sha256_of(staged.path("scenes")) == self.SCENES_SHA256

    def test_traces_are_pinned(self, staged):
        assert sha256_of(staged.path("traces")) == self.TRACES_SHA256

    def test_parse_trees_are_pinned(self, staged):
        sources = sorted({row["source"] for row in read_jsonl(staged.path("programs"))})
        trees = [
            [(n.id, n.kind, n.children, n.payload) for n in dsl.parse(source).nodes]
            for source in sources
        ]
        digest = hashlib.sha256(json.dumps(trees, sort_keys=True).encode()).hexdigest()
        assert (len(sources), digest) == (48, self.PARSE_SHA256)


class TestCollectorPause:
    """Each stage, run_all and the whole ablation run with the cyclic
    collector off; a caller that had it on gets it back on, after one
    collection."""

    STAGE_NAMES = [name.replace("-", "_") for name in pipeline.RUN_ALL_ORDER]

    @pytest.fixture
    def seen(self, monkeypatch):
        """Each ``RunManifest.record`` call, which every stage makes, as
        (stage, collector on, collections so far), and the collection count."""
        was_enabled = gc.isenabled()
        calls = {"collect": 0}
        real_collect, real_record = gc.collect, pipeline.RunManifest.record

        def collect(*args, **kwargs):
            calls["collect"] += 1
            return real_collect(*args, **kwargs)

        def record(manifest, name, *args, **kwargs):
            log.append((name, gc.isenabled(), calls["collect"]))
            return real_record(manifest, name, *args, **kwargs)

        log = []
        monkeypatch.setattr(gc, "collect", collect)
        monkeypatch.setattr(pipeline.RunManifest, "record", record)
        yield log, calls
        (gc.enable if was_enabled else gc.disable)()

    def test_every_stage_runs_with_the_collector_off(self, tmp_path, seen):
        log, calls = seen
        gc.enable()
        run_all(load_config(write_config(tmp_path)))
        assert gc.isenabled()
        # off inside each stage, and one collection as the whole run returns
        assert log == [(name, False, 0) for name in self.STAGE_NAMES]
        assert calls["collect"] == 1

    def test_ablation_keeps_it_off_through_its_nested_train(self, tmp_path, seen):
        log, calls = seen
        config = load_config(write_config(tmp_path, scene_count=16))
        run_all(config)
        log.clear()
        gc.enable()
        before = calls["collect"]
        run_ablation(config)
        assert gc.isenabled()
        assert [name for name, _, _ in log] == ["edit", "score", "emit", "train"] * 8
        # the nested stage_train neither turns it on nor collects
        assert {(on, n) for _, on, n in log} == {(False, before)}
        assert calls["collect"] == before + 1

    def test_back_on_after_a_strict_stage_raises(self, tmp_path, seen):
        _, calls = seen
        config = load_config(write_config(tmp_path, strict=True))
        run_all(config)
        rows = list(read_jsonl(config.path("programs")))
        rows[0]["source"] = "this is (not valid"
        write_jsonl(config.path("programs"), rows)
        gc.enable()
        before = calls["collect"]
        with pytest.raises(StageError, match="exec row 0"):
            pipeline.stage_exec(config, new_manifest(config))
        assert gc.isenabled()
        assert calls["collect"] == before + 1

    def test_a_caller_that_turned_it_off_keeps_it_off(self, tmp_path, seen):
        log, calls = seen
        config = load_config(write_config(tmp_path, scene_count=16))
        gc.disable()
        run_all(config)
        run_ablation(config)
        assert not gc.isenabled()
        assert calls["collect"] == 0
        assert len(log) == len(self.STAGE_NAMES) + 32
        assert not any(on for _, on, _ in log)

    def test_the_caller_heap_is_frozen_only_while_a_stage_runs(self, tmp_path, seen, monkeypatch):
        frozen, real_record = [], pipeline.RunManifest.record

        def record(manifest, *args, **kwargs):
            frozen.append(gc.get_freeze_count())
            return real_record(manifest, *args, **kwargs)

        monkeypatch.setattr(pipeline.RunManifest, "record", record)
        assert gc.get_freeze_count() == 0
        gc.enable()
        run_all(load_config(write_config(tmp_path)))
        assert len(frozen) == len(self.STAGE_NAMES) and all(frozen)
        assert gc.get_freeze_count() == 0

    def test_a_caller_that_froze_its_heap_keeps_it_frozen(self, tmp_path, seen):
        config = load_config(write_config(tmp_path))
        mine = []
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_all(config)
            # the run frees a few frozen objects, but freezes and thaws none
            assert 0 < gc.get_freeze_count() <= frozen
            assert not any(obj is mine for obj in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(obj is mine for obj in gc.get_objects())

    def test_stage_files_do_not_depend_on_the_collector(self, tmp_path):
        was_enabled = gc.isenabled()
        digests = []
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                workdir = tmp_path / f"collector{int(enabled)}"
                workdir.mkdir()
                run_all(load_config(write_config(workdir, scene_count=60, corruption_rate=0.2)))
                digests.append({name: sha256_of(workdir / name) for name in STAGE_FILES})
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert digests[0] == digests[1]


def test_the_benchmark_tracer_wraps_a_run_and_puts_every_name_back(tmp_path):
    """perfbench/tracing.py wraps the package's public functions at every
    name they are bound to, and its hooks read fields of their results (a
    score's ``score``, a pruned trace's ``kept_seqs``). A renamed function
    or field fails this run; and once the tracer is gone the package holds
    its own functions again."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    parse, stages = pipeline.parse, dict(pipeline.STAGES)
    config = load_config(write_config(tmp_path, scene_count=10))
    with tracing.Tracer().installed() as tracer:
        assert pipeline.parse is not parse
        run_all(config)
        run_ablation(config)
    assert pipeline.parse is parse
    assert pipeline.STAGES == stages
    hooked = ["dsl.parse_calls", "interp.events", "faithful.all", "prune.all", "rationale.count",
              "score.all", "jsonlio.bytes_read", "jsonlio.bytes_written", "distill.keywords",
              "scenes.tool_calls", "students.answer_calls"]
    assert [key for key in hooked if not tracer.counts[key]] == []
