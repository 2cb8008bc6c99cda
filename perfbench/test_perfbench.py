"""Tests of the benchmark's own checks and tracer: the checks pass on what
the program writes and fail on stage files broken on purpose.

    python3 -m pytest perfbench
"""

import json
import shutil

import pytest

import checks
import tracing
import workloads
from tracedistill import dsl, pipeline, students
from tracedistill.scenes import load_scenes


def _check(config, count_student_faults=True):
    report = checks.Report()
    corpus = checks.check_corpus(config, report)
    failed, _ = checks.check_cell(corpus, config, report,
                                  count_student_faults=count_student_faults, trained=False)
    return report, corpus, failed


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    config = workloads.probe_config(tmp_path_factory.mktemp("probe"))
    workloads._run_stages(config, workloads.PROBE_STAGES)
    return config.workdir


def _copy(src, tmp_path):
    shutil.copytree(src, tmp_path / "c")
    return workloads.probe_config(tmp_path / "c")


def _rewrite(path, edit):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_probe_counts_the_text_keyed_student_fault(probe_dir):
    report, corpus, failed = _check(workloads.probe_config(probe_dir))
    assert report.problems == []
    assert failed, "the text-keyed student lookup should fail some probe rows"
    assert failed <= checks.shared_text_queries(corpus.queries)


def test_students_that_answer_per_query_pass_the_check(tmp_path, monkeypatch):
    config = workloads.probe_config(tmp_path)
    specs = [dict(s, seed=s.get("seed", config.seeds["students"])) for s in config["students"]]
    real_score = students.utility_score
    scenes = {}

    def per_query(rationale, query, ensemble, harm_value=-1):
        # An ensemble built for this one query cannot mix up question texts.
        if not scenes:
            scenes.update((s.scene_id, s) for s in load_scenes(config.path("scenes")))
        own = students.builtin_students(specs, scenes_by_id=scenes, queries=[query])
        return real_score(rationale, query, own, harm_value)

    monkeypatch.setattr(students, "utility_score", per_query)
    workloads._run_stages(config, workloads.PROBE_STAGES)
    report, _, failed = _check(config)
    assert report.problems == []
    assert failed == set()


def test_unshared_mismatch_is_a_problem_not_a_failed_operation(probe_dir, tmp_path):
    config = _copy(probe_dir, tmp_path)
    queries = {q.query_id: q for q in checks.sw.load_queries(config.path("queries"))}
    shared = checks.shared_text_queries(list(queries.values()))

    def flip(rows):
        row = next(r for r in rows if r["query_id"] not in shared)
        o = row["outcomes"][2]  # the stubborn student
        o["before_correct"] = o["after_correct"] = not o["before_correct"]
        o["verdict"] = "unsure" if o["before_correct"] else "non_useful"
        row["score"] = sum({"useful": 1, "unsure": 0}.get(x["verdict"], -1)
                           for x in row["outcomes"])

    _rewrite(config.path("scored"), flip)
    report, _, _ = _check(config)
    assert any("student outcomes" in p for p in report.problems)


@pytest.mark.parametrize("stage, edit, expect", [
    ("scored", lambda rows: rows[0]["outcomes"][0].update(verdict="useful"), "verdict"),
    ("scored", lambda rows: rows[0].update(score=rows[0]["score"] + 1), "score"),
    ("traces", lambda rows: next(r for r in rows if r["status"] == "ok").update(result="7"),
     "evaluator"),
    ("rationales", lambda rows: rows[0]["sentences"].__setitem__(-1, "Therefore the answer is x."),
     "rationale answers"),
])
def test_broken_stage_file_is_a_problem(probe_dir, tmp_path, stage, edit, expect):
    config = _copy(probe_dir, tmp_path)
    _rewrite(config.path(stage), edit)
    report, _, _ = _check(config)
    assert any(expect in p for p in report.problems), report.problems


def test_dropped_row_is_a_failed_operation(probe_dir, tmp_path):
    config = _copy(probe_dir, tmp_path)
    dropped = []
    _rewrite(config.path("scored"), lambda rows: dropped.append(rows.pop(0)["query_id"]))
    report, _, failed = _check(config, count_student_faults=False)
    assert report.problems == []
    assert failed == set(dropped)


def test_grid_properties():
    short, long = "a b", "a b c"
    texts = {cell: {"q": long if cell[2] else short} for cell in workloads.GRID}
    report = checks.Report()
    checks.check_grid(texts, report)
    assert report.problems == []
    texts[(0, 0, 1)] = {"q": "a"}  # bridging shortened it
    texts[(1, 1, 0)] = {"q": "a b c"}  # pruning lengthened it
    checks.check_grid(texts, report)
    assert len(report.problems) == 2


def test_tracer_wraps_every_name_and_restores_them(tmp_path):
    config = workloads.make_config(tmp_path, 30, 3)
    originals = (dsl.parse, pipeline.parse, pipeline.STAGES["exec"], pipeline.stage_exec)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pipeline.parse is dsl.parse is not originals[0]
        assert pipeline.STAGES["exec"] is pipeline.stage_exec is not originals[2]
        pipeline.run_all(config)
    assert (dsl.parse, pipeline.parse, pipeline.STAGES["exec"], pipeline.stage_exec) == originals

    layers = tracer.per_layer()
    assert set(layers) == set(tracing.PER_LAYER) - {"process.cpu_s", "trace.overhead_s"}
    assert layers["dsl.parse_calls"] == 30 + 30 + 24  # program-gen, exec, edit of the kept
    assert layers["distill.loss_and_grads_calls"] == 61
    assert layers["interp.faithful_ratio"] == 24 / 30
    assert all(parent < i for i, (_, _, _, parent) in enumerate(tracer.spans))
    total, _ = tracer.self_times()
    assert all(t >= 0 for t in total.values())


def test_benchmark_json_matches_the_code():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
