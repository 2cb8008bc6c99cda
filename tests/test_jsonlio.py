from __future__ import annotations

import json
import re

import pytest

from tracedistill.codegen import Program
from tracedistill.distill import DistillExample
from tracedistill.editing import CotRationale
from tracedistill.errors import SchemaError
from tracedistill.interp import ExecutionTrace, Invocation, TraceEvent
from tracedistill.jsonlio import read_json, read_jsonl, read_rows, write_json, write_jsonl, write_rows
from tracedistill.scenes import Query, Scene, SceneObject
from tracedistill.students import ScoredRationale, UtilityOutcome

PATCH = {"__patch__": {"scene": "s0", "box": [10, 10, 30, 30], "matched": "a"}}
ROWS = {
    Query: [Query("q0", "scene_0000", "how many cups", "2"),
            Query("q1", "scene_0001", "is there a fork", "no")],
    Program: [Program("pq0", "q0", "count = 0\nreturn str(count)")],
    CotRationale: [CotRationale("q0", "pq0", "Set n = 2. Therefore the answer is 2.", False,
                                ["Set n = 2.", "Therefore the answer is 2."], ["<no-gap>"],
                                {"pruned": True, "merged": False, "bridged": True})],
    ScoredRationale: [ScoredRationale("q0", [UtilityOutcome("noisy_oracle_0", False, True, "useful"),
                                             UtilityOutcome("stubborn_2", True, True, "unsure")], 1, True),
                      ScoredRationale("q1", [], 0, True)],
    DistillExample: [DistillExample("q0", "how many cups", "2", "Set n = 2."),
                     DistillExample("q1", "is there a fork", "no", None)],
    Scene: [Scene("s0", (SceneObject("a", "cup", (10, 10, 30, 30), frozenset({"red", "ceramic"}), 1.5),
                         SceneObject("b", "plate", (50, 50, 80, 80), frozenset(), 2.0)),
                  (("a", "on", "b"),))],
    # an Any result, a bare list of args and (name, seq) uses
    ExecutionTrace: [ExecutionTrace("pq0", [
        TraceEvent(0, 1, "assign", {"ps": [PATCH]}, Invocation("find", ["cup"], [PATCH]), [], {"ctrl": -1}),
        TraceEvent(1, 4, "return", {}, Invocation("len", [[PATCH]], 1), [("ps", 0)], {"ctrl": -1, "value": 1}),
    ], 1, "ok")],
}


class TestRowRoundTrip:
    @pytest.mark.parametrize("cls", list(ROWS), ids=lambda cls: cls.__name__)
    def test_rows_read_back_equal(self, tmp_path, cls):
        path = tmp_path / "rows.jsonl"
        assert write_rows(path, ROWS[cls]) == len(ROWS[cls])
        assert read_rows(path, cls) == ROWS[cls]

    def test_outcomes_read_back_as_utility_outcomes(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        write_rows(path, ROWS[ScoredRationale])
        [first, _] = read_rows(path, ScoredRationale)
        assert all(type(o) is UtilityOutcome for o in first.outcomes)
        assert list(read_jsonl(path))[0]["outcomes"][0] == vars(first.outcomes[0])

    def test_a_scene_reads_back_in_its_in_memory_types(self, tmp_path):
        # A box read back as a list would change the text scene_summary
        # sends to an external generator.
        path = tmp_path / "scenes.jsonl"
        write_rows(path, ROWS[Scene])
        [scene] = read_rows(path, Scene)
        assert type(scene.objects) is tuple and type(scene.relations[0]) is tuple
        assert all(type(o.box) is tuple and type(o.attributes) is frozenset for o in scene.objects)
        assert list(read_jsonl(path))[0]["objects"][0]["attributes"] == ["ceramic", "red"]

    def test_meta_header_is_written_first_and_skipped(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        assert write_rows(path, ROWS[DistillExample], meta={"rows": 2, "masked": 1}) == 2
        assert next(read_jsonl(path)) == {"__meta__": {"rows": 2, "masked": 1}}
        assert read_rows(path, DistillExample) == ROWS[DistillExample]

    def test_bytes_are_the_fields_in_key_order(self, tmp_path):
        path = tmp_path / "programs.jsonl"
        write_rows(path, ROWS[Program])
        assert path.read_text() == (
            '{"program_id":"pq0","query_id":"q0","source":"count = 0\\nreturn str(count)"}\n'
        )


class TestRowSchemaErrors:
    def write(self, tmp_path, rows):
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return path

    def test_missing_field_names_file_row_and_field(self, tmp_path):
        good = vars(ROWS[Query][0])
        path = self.write(tmp_path, [good, {k: v for k, v in good.items() if k != "question"}])
        with pytest.raises(SchemaError, match=re.escape(f"{path} row 1: missing field 'question'")):
            read_rows(path, Query)

    def test_unknown_field_names_file_row_and_field(self, tmp_path):
        path = self.write(tmp_path, [{**vars(ROWS[Query][0]), "extra": 1}])
        with pytest.raises(SchemaError, match=re.escape(f"{path} row 0: unknown field 'extra'")):
            read_rows(path, Query)

    def test_row_index_does_not_count_the_header(self, tmp_path):
        rows = [vars(e) for e in ROWS[DistillExample]]
        path = self.write(tmp_path, [{"__meta__": {}}, rows[0], {**rows[1], "label2": "x"}])
        with pytest.raises(SchemaError, match=r"row 1: unknown field 'label2'"):
            read_rows(path, DistillExample)

    def test_a_bad_outcome_names_its_index(self, tmp_path):
        row = {"query_id": "q0", "score": 0, "kept": True, "outcomes": [
            {"student": "s", "before_correct": True, "after_correct": True, "verdict": "unsure"},
            {"student": "s", "before_correct": True, "after_correct": True},
        ]}
        path = self.write(tmp_path, [row])
        with pytest.raises(SchemaError, match=r"row 0: outcomes\[1\] missing field 'verdict'"):
            read_rows(path, ScoredRationale)

    def test_a_scored_row_without_its_keep_decision(self, tmp_path):
        path = self.write(tmp_path, [{"query_id": "q0", "score": 0, "outcomes": []}])
        with pytest.raises(SchemaError, match=re.escape(f"{path} row 0: missing field 'kept'")):
            read_rows(path, ScoredRationale)

    def test_a_row_that_is_not_an_object(self, tmp_path):
        path = self.write(tmp_path, [["q0", "s", "how many cups", "2"]])
        with pytest.raises(SchemaError, match=r"row 0: missing field"):
            read_rows(path, Query)

    @pytest.mark.parametrize("outcomes", [None, {}, [1]], ids=["null", "object", "item_not_an_object"])
    def test_outcomes_not_a_list_of_objects_names_file_row_and_field(self, tmp_path, outcomes):
        good = {"query_id": "q0", "score": 0, "kept": True, "outcomes": []}
        path = self.write(tmp_path, [good, {**good, "outcomes": outcomes}])
        with pytest.raises(SchemaError, match=re.escape(
                f"{path} row 1: field 'outcomes' must be a list of objects")):
            read_rows(path, ScoredRationale)

    EVENT = {"seq": 0, "node_id": 1, "kind": "assign", "bindings": {"n": 2}, "invocation": None,
             "uses": [], "detail": {"ctrl": -1}}

    @pytest.mark.parametrize("key, value, message", [
        ("uses", [["n", "0"]], "events[0] field 'uses' must be a list of lists of a string and an integer"),
        ("uses", [["n"]], "events[0] field 'uses' must be a list of lists of a string and an integer"),
        ("invocation", {"callee": "len", "args": "n", "result": 1},
         "events[0] invocation field 'args' must be a list, got 'n'"),
        # an Any field takes every value; only a missing one is an error
        ("invocation", {"callee": "len", "args": []}, "events[0] invocation missing field 'result'"),
    ], ids=["uses_item_type", "uses_item_length", "args_not_a_list", "result_missing"])
    def test_a_bad_trace_value_names_its_path(self, tmp_path, key, value, message):
        row = {"program_id": "pq0", "events": [{**self.EVENT, key: value}], "result": None,
               "status": "ok", "error": None}
        path = self.write(tmp_path, [row])
        with pytest.raises(SchemaError, match=re.escape(f"{path} row 0: {message}")):
            read_rows(path, ExecutionTrace)


class TestWriteJsonl:
    def test_a_failed_write_leaves_the_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"a": 1}, {"a": 2}])
        before = path.read_bytes()

        def rows():
            yield {"a": 3}
            raise RuntimeError("row 1 failed")

        with pytest.raises(RuntimeError, match="row 1 failed"):
            write_jsonl(path, rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


class TestWriteJson:
    def test_a_failed_encode_leaves_the_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_json(path, {"a": 1, "stages": []})
        before = path.read_bytes()

        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(path, {"a": 1, "b": object()})
        assert path.read_bytes() == before
        assert read_json(path) == {"a": 1, "stages": []}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
