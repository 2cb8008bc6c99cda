from __future__ import annotations

import json

import pytest

from tracedistill import interp
from tracedistill.codegen import generate_program, generate_programs
from tracedistill.dsl import parse
from tracedistill.jsonlio import dumps_canonical
from tracedistill.interp import (
    execute,
    faithfulness_filter,
    normalize_answer,
    plain_text,
    trace_from_record,
    trace_to_record,
)
from tracedistill.scenes import Query, generate_queries, generate_scenes

from .oracles import evaluate, replay_check_uses

COUNTING = """count = 0
patches = image.find('muffin')
for p in patches:
    count = count + 1
return str(count)"""


class TestExecute:
    def test_counting_events(self, muffins3):
        trace = execute(parse(COUNTING), muffins3)
        assert trace.status == "ok"
        assert trace.result == "3"
        kinds = [e.kind for e in trace.events]
        assert kinds.count("loop_enter") == 1
        assert kinds.count("loop_iter") == 3
        assert kinds.count("loop_exit") == 1
        assert kinds[-1] == "return"
        seqs = [e.seq for e in trace.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_undefined_name(self, muffins3):
        ast = parse("return missing")
        trace = execute(ast, muffins3)
        assert trace.status == "runtime_error"
        assert trace.error["node_id"] is not None
        assert "missing" in trace.error["message"]

    def test_step_limit(self, muffins8):
        trace = execute(parse(COUNTING), muffins8, max_steps=5)
        assert trace.status == "step_limit"

    def test_index_out_of_range(self, muffins3):
        trace = execute(parse("patches = image.find('dragon')\nreturn patches[0]"), muffins3)
        assert trace.status == "runtime_error"
        assert "out of range" in trace.error["message"]

    def test_division_by_zero(self, muffins3):
        trace = execute(parse("x = 0\nreturn 1 / x"), muffins3)
        assert trace.status == "runtime_error"

    def test_missing_return(self, muffins3):
        trace = execute(parse("x = 1"), muffins3)
        assert trace.status == "runtime_error"

    def test_replay_determinism(self, muffins3):
        a = execute(parse(COUNTING), muffins3)
        b = execute(parse(COUNTING), muffins3)
        assert a == b

    def test_distance_in_program(self, table_scene):
        source = (
            "a = image.find('cup')[0]\n"
            "b = image.find('plate')[0]\n"
            "return str(distance(a, b))"
        )
        trace = execute(parse(source), table_scene)
        assert trace.status == "ok"
        expected, _, _ = evaluate(parse(source), table_scene)
        assert trace.result == expected

    def test_snapshot_truncation(self, muffins3, monkeypatch):
        monkeypatch.setattr(interp, "SNAPSHOT_LIST_CAP", 2)
        source = "xs = [1, 1, 1]\nys = xs + xs\nreturn len(ys)"
        trace = execute(parse(source), muffins3)
        assign = [e for e in trace.events if "ys" in e.bindings][0]
        assert len(assign.bindings["ys"]) == 2  # snapshot capped
        assert trace.result == 6  # the environment keeps the full value

    # xs holds 64 ints, ys 64 copies of xs and zs 64 copies of ys: 22 lines
    # whose trace row, with each list level capped on its own, took 1.6 MB.
    NESTED = "\n".join(["xs = [1]", *["xs = xs + xs"] * 6, "ys = [xs]", *["ys = ys + ys"] * 6,
                        "zs = [ys]", *["zs = zs + zs"] * 6])

    def test_a_snapshot_caps_its_items_across_nesting_levels(self, muffins3):
        def items(value):
            return len(value) + sum(items(v) for v in value if isinstance(v, list))

        trace = execute(parse(self.NESTED + "\nreturn len(zs)"), muffins3)
        assert (trace.status, trace.result) == ("ok", 64)
        zs = trace.events[-2].bindings["zs"]
        assert len(zs) == interp.SNAPSHOT_LIST_CAP and zs[0] == []
        assert all(items(v) <= interp.SNAPSHOT_LIST_CAP
                   for e in trace.events for v in e.bindings.values() if isinstance(v, list))
        assert len(dumps_canonical(trace_to_record(trace, "q", None))) < 10_000

    def test_a_returned_list_is_capped_like_every_snapshot(self, muffins3):
        trace = execute(parse(self.NESTED + "\nreturn zs"), muffins3)
        assert trace.status == "ok" and trace.result == trace.events[-1].detail["value"]
        assert len(dumps_canonical(trace_to_record(trace, "q", None))) < 10_000

    def test_str_of_a_list_faults_before_its_text_passes_the_cap(self, muffins3):
        trace = execute(parse(self.NESTED + "\nreturn str(zs)"), muffins3)
        assert trace.status == "runtime_error"
        assert trace.error["message"] == "string too long"
        assert interp.value_text([[1, 2], [3]], limit=11) == "[[1,2],[3]]"
        with pytest.raises(ValueError):
            interp.value_text([[1, 2], [3]], limit=10)

    def test_untaken_branch_emits_nothing(self, muffins3):
        source = "x = 1\nif x == 2:\n    y = 3\nreturn x"
        trace = execute(parse(source), muffins3)
        assert all(e.kind != "branch_taken" for e in trace.events)

    def test_else_branch_records_arm_index(self, muffins3):
        source = "x = 1\nif x == 2:\n    y = 3\nelse:\n    y = 4\nreturn y"
        trace = execute(parse(source), muffins3)
        branch = [e for e in trace.events if e.kind == "branch_taken"][0]
        assert branch.detail["arm"] == 1

    def test_bare_calls_pick_event_kind(self, muffins3):
        source = "xs = [1, 2]\nlen(xs)\nimage.exists('muffin')\nreturn 0"
        trace = execute(parse(source), muffins3)
        kinds = [e.kind for e in trace.events]
        assert "builtin_call" in kinds and "tool_call" in kinds

    def test_bare_non_call_expression_emits_no_event(self, muffins3):
        trace = execute(parse("x = 1\nx + 1\nreturn x"), muffins3)
        assert [e.kind for e in trace.events] == ["assign", "return"]

    def test_non_finite_arithmetic_faults(self, muffins3):
        source = "x = 179.0\ny = x * 0.1\nreturn x / 0.0000001"
        trace = execute(parse(source), muffins3)
        assert trace.status == "ok"  # plain big numbers are fine
        huge = "x = 999999999.0\ny = x * x\nz = y * y\nw = z * z\nv = w * w\nu = v * v\nreturn u * u"
        trace = execute(parse(huge), muffins3)
        assert trace.status == "runtime_error"
        assert "non-finite" in trace.error["message"]

    @pytest.mark.parametrize("source, message", [
        # a float product past the largest finite one, and int() of a large float
        pytest.param("x = " + "9" * 300 + ".0 * " + "9" * 10 + ".0\nreturn int(x)", "non-finite",
                     id="int-of-infinity"),
        pytest.param("x = " + "9" * 300 + ".0\nreturn int(x)", "integer out of range",
                     id="int-of-a-large-float"),
        # ints past 64 bits: one a float cannot hold, one str() cannot print
        pytest.param("x = 1\n" + "x = x * 1000000000\n" * 45 + "return x / 1",
                     "integer out of range", id="int-to-float"),
        pytest.param("x = 1\n" + "x = x * 1000000000\n" * 500 + "return str(x)",
                     "integer out of range", id="int-to-str"),
        pytest.param("x = 9223372036854775807\nreturn -x - 1", "integer out of range",
                     id="int-below-the-bound"),
        pytest.param("xs = [1]\n" + "xs = xs + xs\n" * 14 + "return len(xs)", "list too long",
                     id="list-doubled"),
    ])
    def test_a_value_the_interpreter_cannot_hold_is_a_runtime_error(self, muffins3, source, message):
        trace = execute(parse(source), muffins3)
        assert trace.status == "runtime_error"
        assert message in trace.error["message"]

    def test_a_string_doubled_past_the_cap_is_a_runtime_error(self, muffins3):
        assert interp.MAX_STR_LEN % 16 == 0
        doubled = f"s = '{'x' * (interp.MAX_STR_LEN // 16)}'\n" + "s = s + s\n" * 4
        trace = execute(parse(doubled + "return len(s)"), muffins3)
        assert (trace.status, trace.result) == ("ok", interp.MAX_STR_LEN)
        trace = execute(parse(doubled + "s = s + 'x'\nreturn len(s)"), muffins3)
        assert trace.status == "runtime_error"
        assert trace.error["message"] == "string too long"

    @pytest.mark.parametrize("call, message", [
        ("len()", "len needs one list or string"),
        ("image.verify_property(1, 1)", "misused tool method 'verify_property'"),
        ("image.verify_property('muffin', p0)", "misused tool method 'verify_property'"),
        ("image.best_text_match([1, 2])", "misused tool method 'best_text_match'"),
        ("image.best_text_match([p0])", "misused tool method 'best_text_match'"),
    ])
    def test_misused_call_is_a_runtime_error(self, muffins3, call, message):
        source = f"ps = image.find('muffin')\np0 = ps[0]\nx = {call}\nreturn x"
        trace = execute(parse(source), muffins3)
        assert trace.status == "runtime_error"
        assert message in trace.error["message"]


class TestSharedAst:
    """Exec runs one AST for every row that carries its source, so execute
    must leave the AST exactly as parse built it."""

    PROGRAMS = [
        COUNTING,
        "x = 1\nif x == 2:\n    y = 3\nelif x == 1:\n    y = 5\nelse:\n    y = 4\nreturn y",
        "patches = image.find('cup')\nreturn patches[0]",
        "xs = [1, 2]\nys = xs + xs\nreturn len(ys)",
    ]

    def test_execution_leaves_the_ast_as_parsed(self, muffins3, muffins8, table_scene):
        scenes = [muffins3, muffins8, table_scene, muffins3]
        for source in self.PROGRAMS:
            shared = parse(source)
            for scene in scenes:
                for max_steps in (10_000, 4):
                    trace = execute(shared, scene, max_steps)
                    assert trace == execute(parse(source), scene, max_steps)
            assert shared == parse(source)

    def test_corpus_sources_survive_every_scene(self):
        scenes = generate_scenes(40, seed=13)
        queries = generate_queries(scenes, seed=14)
        by_id = {s.scene_id: s for s in scenes}
        programs = generate_programs(queries, 0.3, seed=15)
        shared = {}
        for program, query in zip(programs, queries):
            ast = shared.setdefault(program.source, parse(program.source))
            for scene in scenes[:5] + [by_id[query.scene_id]]:
                assert execute(ast, scene) == execute(parse(program.source), scene)
        assert all(ast == parse(source) for source, ast in shared.items())


class TestDefUseAndCompleteness:
    def _corpus_traces(self, n=60, seed=31):
        scenes = generate_scenes(n, seed=seed)
        queries = generate_queries(scenes, seed=seed + 1)
        by_id = {s.scene_id: s for s in scenes}
        out = []
        for query in queries:
            program = generate_program(query)
            scene = by_id[query.scene_id]
            trace = execute(parse(program.source), scene, program_id=program.program_id)
            out.append((program, scene, trace))
        return out

    def test_def_use_soundness(self):
        for _, _, trace in self._corpus_traces():
            assert trace.status == "ok"
            replay_check_uses(trace)

    def test_assign_event_completeness(self):
        for program, scene, trace in self._corpus_traces():
            _, assign_count, _ = evaluate(parse(program.source), scene)
            assert sum(1 for e in trace.events if e.kind == "assign") == assign_count

    def test_results_match_independent_evaluator(self):
        for program, scene, trace in self._corpus_traces():
            expected, _, _ = evaluate(parse(program.source), scene)
            assert trace.result == expected

    def test_trace_record_round_trip(self):
        for _, _, trace in self._corpus_traces(n=10, seed=77):
            rec = json.loads(dumps_canonical(trace_to_record(trace, "q", None)))
            assert trace_from_record(rec) == trace


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The Muffin", "muffin"),
            ("three", "3"),
            ("True", "yes"),
            ("  NO ", "no"),
            ("an apple", "apple"),
            ("False", "no"),
            ("twenty", "20"),
            ("a the cup", "cup"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_answer(raw) == expected


class TestFaithfulnessFilter:
    def _pairs(self, corruption_rate, n=40, seed=55):
        scenes = generate_scenes(n, seed=seed)
        queries = generate_queries(scenes, seed=seed + 1)
        by_id = {s.scene_id: s for s in scenes}
        programs = generate_programs(queries, corruption_rate, seed=seed)
        pairs = []
        for program, query in zip(programs, queries):
            scene = by_id[query.scene_id]
            trace = execute(parse(program.source), scene, program_id=program.program_id)
            pairs.append((trace, query))
        return pairs, programs

    def test_correct_counting_kept(self, muffins3):
        trace = execute(parse(COUNTING), muffins3)
        query = Query("q", "muffins", "how many muffins", "3")
        kept, reasons = faithfulness_filter([(trace, query)])
        assert len(kept) == 1 and not any(reasons)

    def test_corrupted_rejected_wrong_answer(self):
        pairs, programs = self._pairs(corruption_rate=1.0, n=10)
        kept, reasons = faithfulness_filter(pairs)
        assert not kept
        assert set(reasons) == {"wrong_answer"}

    def test_clean_generation_fully_kept(self):
        pairs, _ = self._pairs(corruption_rate=0.0)
        kept, reasons = faithfulness_filter(pairs)
        assert not any(reasons)
        assert len(kept) == len(pairs)

    def test_runtime_error_reason(self, muffins3):
        trace = execute(parse("return missing"), muffins3)
        query = Query("q", "muffins", "how many muffins", "3")
        _, reasons = faithfulness_filter([(trace, query)])
        assert reasons[0] == "runtime_error"

    def test_step_limit_reason(self, muffins8):
        trace = execute(parse(COUNTING), muffins8, max_steps=3)
        query = Query("q", "muffins8", "how many muffins", "8")
        _, reasons = faithfulness_filter([(trace, query)])
        assert reasons[0] == "step_limit"
