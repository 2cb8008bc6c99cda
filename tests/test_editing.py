from __future__ import annotations

import pytest

from tracedistill.codegen import generate_program
from tracedistill.dsl import parse
from tracedistill.editing import (
    GAP,
    NO_GAP,
    DefaultBridger,
    bridge,
    keep_all,
    merge,
    no_bridge,
    prune,
    SymbolicRecord,
    raw_records,
    record_to_line,
    render,
    render_sentence,
    tag_gaps,
)
from tracedistill.errors import TraceDistillError
from tracedistill.interp import execute, plain_text, value_text
from tracedistill.scenes import generate_queries, generate_scenes

from .conftest import make_muffin_scene
from .oracles import evaluate

COUNTING = """count = 0
patches = image.find('muffin')
for p in patches:
    count = count + 1
return str(count)"""


def run(source, scene):
    ast = parse(source)
    trace = execute(ast, scene)
    assert trace.status == "ok", trace
    return ast, trace


def corpus_traces(n, seed):
    scenes = generate_scenes(n, seed=seed)
    queries = generate_queries(scenes, seed=seed + 1)
    by_id = {s.scene_id: s for s in scenes}
    for query in queries:
        program = generate_program(query)
        scene = by_id[query.scene_id]
        trace = execute(parse(program.source), scene, program_id=program.program_id)
        assert trace.status == "ok"
        yield program, scene, trace


class TestPrune:
    def test_unused_assign_dropped(self, muffins3):
        ast, trace = run("x = 1\ny = 2\nreturn x", muffins3)
        pruned = prune(trace)
        kept_bindings = [
            name for s in pruned.kept_seqs for name in trace.events[s].bindings
        ]
        assert "y" not in kept_bindings and "x" in kept_bindings

    def test_straight_line_identity(self, muffins3):
        ast, trace = run("x = 1\ny = x + 1\nreturn y", muffins3)
        pruned = prune(trace)
        assert pruned.kept_seqs == [e.seq for e in trace.events]

    def test_requires_ok_status(self, muffins3):
        trace = execute(parse("return missing"), muffins3)
        with pytest.raises(TraceDistillError):
            prune(trace)

    def test_slice_replay_corpus(self):
        for program, scene, trace in corpus_traces(60, seed=41):
            pruned = prune(trace)
            replayed, _, _ = evaluate(parse(program.source), scene, pruned)
            assert plain_text(replayed) == plain_text(trace.result)

    def test_slice_keeps_a_taken_arm_as_a_guard(self):
        # Arm 0 is taken but keeps nothing; without testing its condition,
        # the slice would count its patches in the elif arm too.
        source = (
            "patches = image.find('muffin')\n"
            "count = 0\n"
            "junk = 0\n"
            "for p in patches:\n"
            "    if p.horizontal_center < 60:\n"
            "        junk = junk + 1\n"
            "    elif p.horizontal_center < 224:\n"
            "        count = count + 1\n"
            "return str(count)"
        )
        scene = make_muffin_scene(8)
        ast, trace = run(source, scene)
        assert plain_text(trace.result) == "2"
        replayed, _, _ = evaluate(ast, scene, prune(trace))
        assert plain_text(replayed) == "2"

    @staticmethod
    def assert_minimal(trace, pruned):
        kept = set(pruned.kept_seqs)
        events = trace.events
        for seq in pruned.kept_seqs:
            if seq == events[-1].seq:  # the return event, the slice's root
                continue
            needed_by_use = any(
                s != seq and any(d == seq for _, d in events[s].uses) for s in kept
            )
            needed_by_ctrl = any(
                s != seq and events[s].detail.get("ctrl") == seq for s in kept
            )
            needed_as_exit = events[seq].kind == "loop_exit" and events[seq].detail["enter"] in kept
            assert needed_by_use or needed_by_ctrl or needed_as_exit, (
                f"event {seq} ({events[seq].kind}) is removable"
            )

    def test_minimality_every_kept_event_needed(self):
        ast, trace = run(COUNTING, make_muffin_scene(3))
        self.assert_minimal(trace, prune(trace))

    def test_minimality_over_corpus(self):
        for program, _, trace in corpus_traces(40, seed=43):
            self.assert_minimal(trace, prune(trace))

    def test_branch_kept_for_dependent_return(self, table_scene):
        source = (
            "a = image.find('cup')[0]\n"
            "b = image.find('plate')[0]\n"
            "if a.horizontal_center < b.horizontal_center:\n"
            "    answer = 'yes'\n"
            "else:\n"
            "    answer = 'no'\n"
            "return answer"
        )
        ast, trace = run(source, table_scene)
        pruned = prune(trace)
        kept_kinds = {trace.events[s].kind for s in pruned.kept_seqs}
        assert "branch_taken" in kept_kinds


class TestMerge:
    def test_counting_golden_line(self, muffins8):
        ast, trace = run("patches = image.find('muffin')\nnum = len(patches)\nreturn str(num)", muffins8)
        sym = merge(keep_all(trace))
        lines = [record_to_line(r) for r in sym.records]
        assert "assigned num:8 len" in lines

    def test_counter_collapses_to_final_value(self, muffins3):
        ast, trace = run(COUNTING, make_muffin_scene(3))
        sym = merge(prune(trace))
        count_records = [
            r for r in sym.records if r.operation == "assigned" and "count" in r.arguments
        ]
        # one from `count = 0`, one merged across the three loop iterations
        assert [r.arguments["count"] for r in count_records] == ["0", "3"]
        looped = [r for r in sym.records if r.operation == "looped"]
        assert len(looped) == 1
        assert looped[0].arguments == {"var": "p", "items": "3"}

    def test_merged_value_matches_environment(self):
        for program, scene, trace in corpus_traces(40, seed=61):
            pruned = prune(trace)
            sym = merge(pruned)
            _, _, env = evaluate(parse(program.source), scene)
            last_record_for = {}
            for record in sym.records:
                if record.operation == "assigned":
                    (name, value), = record.arguments.items()
                    last_record_for[name] = value
            for name, value in last_record_for.items():
                assert value == value_text(env[name])

    def test_no_loops_one_record_per_event(self, muffins3):
        ast, trace = run("x = 1\ny = x + 1\nreturn y", muffins3)
        pruned = prune(trace)
        sym = merge(pruned)
        assert len(sym.records) == len(pruned.kept_seqs)

    def test_conciseness_on_loops(self):
        ast, trace = run(COUNTING, make_muffin_scene(4))
        pruned = prune(trace)
        assert len(merge(pruned).records) < len(pruned.kept_seqs)

    def test_repeated_tool_calls_annotated(self, muffins3):
        source = (
            "patches = image.find('muffin')\n"
            "for p in patches:\n"
            "    image.exists('muffin')\n"
            "return str(len(patches))"
        )
        ast, trace = run(source, muffins3)
        sym = merge(keep_all(trace))
        called = [r for r in sym.records if r.operation == "called"]
        assert len(called) == 1
        assert called[0].arguments["times"] == "3"
        assert record_to_line(called[0]).endswith(" x3")

    def test_raw_records_keep_iterations(self, muffins3):
        ast, trace = run(COUNTING, muffins3)
        raw = raw_records(keep_all(trace))
        merged = merge(keep_all(trace))
        assert len(raw.records) > len(merged.records)

    def test_one_assigned_record_per_node_and_variable(self):
        for program, _, trace in corpus_traces(40, seed=63):
            pruned = prune(trace)
            sym = merge(pruned)
            seen = set()
            for record in sym.records:
                if record.operation != "assigned":
                    continue
                (name,) = record.arguments
                node = trace.events[record.source_seqs[0]].node_id
                assert (node, name) not in seen
                seen.add((node, name))


# Writer goldens: each record and the exact line record_to_line gives it.
FIXED_LINES = [
    (SymbolicRecord("assigned", {"num": "8"}, "len"), "assigned num:8 len"),
    (SymbolicRecord("assigned", {"answer": "'a b c'"}), "assigned answer:'a b c'"),
    (
        SymbolicRecord("assigned", {"patches": "[patch(1,2,3,4),patch(5,6,7,8)]"}, "find"),
        "assigned patches:[patch(1,2,3,4),patch(5,6,7,8)] find",
    ),
    (
        SymbolicRecord(
            "called", {"args": "'muffin'", "value": "[patch(1,2,3,4)]", "times": "3"}, "find"
        ),
        "called find('muffin') -> [patch(1,2,3,4)] x3",
    ),
    (
        SymbolicRecord(
            "called", {"args": "'what is the cup on'", "value": "'plate'"}, "simple_query"
        ),
        "called simple_query('what is the cup on') -> 'plate'",
    ),
    (SymbolicRecord("looped", {"var": "p", "items": "3"}), "looped p over 3 items"),
    (SymbolicRecord("branch", {"arm": "1"}), "branch arm 1"),
    (SymbolicRecord("returned", {"value": "'yes'"}), "returned 'yes'"),
    (SymbolicRecord("returned", {"value": "42"}), "returned 42"),
]


class TestLineGrammar:
    """The symbolic line is written, never parsed: these pin the writer and
    check that a line still determines its record, as a reader would need."""

    def test_round_trip_over_corpus(self):
        for program, scene, trace in corpus_traces(30, seed=71):
            for sym in (merge(prune(trace)), raw_records(keep_all(trace))):
                distinct_records = []
                distinct_lines = []
                for record in sym.records:
                    if record not in distinct_records:
                        distinct_records.append(record)
                        distinct_lines.append(record_to_line(record))
                assert len(set(distinct_lines)) == len(distinct_records)

    @pytest.mark.parametrize(
        "record,line", [pytest.param(r, line, id=repr(line)) for r, line in FIXED_LINES]
    )
    def test_round_trip_fixed_lines(self, record, line):
        assert record_to_line(record) == line


class TestRenderGoldens:
    def test_sentences_match_golden_file(self, muffins8, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "goldens" / "counting_sentences.txt"
        ast, trace = run(
            "count = 0\n"
            "width = 224\n"
            "patches = image.find('muffin')\n"
            "num = len(patches)\n"
            "for p in patches:\n"
            "    count = count + 1\n"
            "return str(count)",
            muffins8,
        )
        sym = merge(prune(trace))
        sentences = render(sym)
        assert sentences == golden.read_text().splitlines()

    def test_returned_template(self):
        record = SymbolicRecord("returned", {"value": "'3'"})
        assert render_sentence(record) == "Therefore the answer is 3."

    def test_looped_template(self):
        record = SymbolicRecord("looped", {"var": "p", "items": "3"})
        assert render_sentence(record) == "Checked each of the 3 items in turn."

    def test_assigned_with_len(self):
        record = SymbolicRecord("assigned", {"num": "8"}, "len")
        assert render_sentence(record) == "Counting gives num = 8 (via len)."

    def test_a_string_shows_as_the_program_held_it(self, muffins3):
        held = "it's a \\ b"
        _, trace = run(f"x = {held!r}\ny = 1\nz = x + '!'\nreturn z", muffins3)
        draft = tag_gaps(raw_records(keep_all(trace)))
        assert draft.sentences == [f"Set x = {held}.", "Set y = 1.", f"Set z = {held}!.",
                                   f"Therefore the answer is {held}!."]
        # the symbolic line keeps its escapes
        assert draft.lines[0] == "assigned x:'it\\'s a \\\\ b'"
        assert draft.joints[1] == GAP
        assert DefaultBridger().fill(draft, 2) == f"Recall that x = {held}."

    def test_render_injective_on_corpus(self):
        for program, _, trace in corpus_traces(20, seed=81):
            sym = merge(prune(trace))
            sentences = render(sym)
            distinct_records = []
            distinct_sentences = []
            for record, sentence in zip(sym.records, sentences):
                if record not in distinct_records:
                    distinct_records.append(record)
                    distinct_sentences.append(sentence)
            assert len(set(distinct_sentences)) == len(distinct_records)


class TestTagGaps:
    def _sym(self, source, scene):
        ast, trace = run(source, scene)
        return merge(prune(trace))

    def test_def_use_continuity_is_no_gap(self, muffins8):
        sym = self._sym(
            "patches = image.find('muffin')\nnum = len(patches)\nreturn str(num)", muffins8
        )
        tagged = tag_gaps(sym)
        assert tagged.joints[0] == NO_GAP  # num computed from patches

    def test_disjoint_sentences_gap(self, muffins3):
        sym = self._sym("x = 1\ny = 2\nreturn y", muffins3)
        # prune drops x; rebuild a two-record trace about disjoint variables
        sym_raw = self._sym("x = 1\ny = 2\nreturn x + y", muffins3)
        tagged = tag_gaps(sym_raw)
        assert tagged.joints[0] == GAP

    def test_single_sentence_empty_joints(self, muffins3):
        sym = self._sym("return 'yes'", muffins3)
        tagged = tag_gaps(sym)
        assert tagged.joints == []

    def test_totality_and_idempotence(self):
        for program, _, trace in corpus_traces(20, seed=91):
            sym = merge(prune(trace))
            sentences = render(sym)
            tagged = tag_gaps(sym)
            assert tagged.sentences == sentences
            assert len(tagged.joints) == len(sentences) - 1
            assert all(j in (GAP, NO_GAP) for j in tagged.joints)
            again = tag_gaps(sym)
            assert again.joints == tagged.joints

    def test_control_dependence_is_continuity(self, table_scene):
        sym = self._sym(
            "a = image.find('cup')[0]\n"
            "b = image.find('plate')[0]\n"
            "if a.horizontal_center < b.horizontal_center:\n"
            "    answer = 'yes'\n"
            "else:\n"
            "    answer = 'no'\n"
            "return answer",
            table_scene,
        )
        tagged = tag_gaps(sym)
        branch_idx = next(i for i, r in enumerate(sym.records) if r.operation == "branch")
        assert tagged.joints[branch_idx] == NO_GAP  # branch -> governed assign

    def test_the_earlier_records_mentions_decide_a_joint(self, muffins3):
        # ``image`` has no def, so the two ``find`` records read nothing.
        # Joints 0 and 2 join records that share only the callee their lines
        # mention; left out of the anchors, the earlier record's mentions
        # would turn both into gaps.
        sym = self._sym(
            "xs = image.find('cup')\n"
            "ys = image.find('dog')\n"
            "a = len(xs)\n"
            "b = len(ys)\n"
            "return str(a + b)",
            muffins3,
        )
        tagged = tag_gaps(sym)
        assert tagged.joints == [NO_GAP, GAP, NO_GAP, NO_GAP]


def inserted_sentences(rationale):
    """Positions of the bridge sentences: each <gap> joint after draft
    sentence i puts exactly one sentence after it."""
    positions, at = [], 0
    for joint in rationale.joints:
        if joint == GAP:
            at += 1
            positions.append(at)
        at += 1
    return positions


class TestBridge:
    def _tagged(self, scene):
        ast, trace = run(COUNTING, scene)
        sym = merge(prune(trace))
        return sym, tag_gaps(sym)

    def test_one_insertion_per_gap(self, muffins3):
        sym, tagged = self._tagged(make_muffin_scene(3))
        gaps = tagged.joints.count(GAP)
        rationale = bridge(tagged, query_id="q")
        assert len(rationale.sentences) == len(tagged.sentences) + gaps
        inserted = [rationale.sentences[i] for i in inserted_sentences(rationale)]
        assert len(inserted) == gaps
        assert not set(inserted) & set(tagged.sentences)

    def test_all_no_gap_identity(self, muffins8):
        sym = merge(
            prune(
                execute(parse("patches = image.find('muffin')\nnum = len(patches)\nreturn str(num)"), muffins8),
            )
        )
        sentences = render(sym)
        tagged = tag_gaps(sym)
        assert set(tagged.joints) == {NO_GAP}
        rationale = bridge(tagged, query_id="q")
        assert rationale.text == " ".join(sentences)

    def test_conservativeness_removing_insertions_recovers_draft(self):
        for program, scene, trace in corpus_traces(20, seed=95):
            sym = merge(prune(trace))
            sentences = render(sym)
            tagged = tag_gaps(sym)
            rationale = bridge(tagged, query_id=program.query_id)
            inserted = set(inserted_sentences(rationale))
            originals = [s for i, s in enumerate(rationale.sentences) if i not in inserted]
            assert originals == tagged.sentences

    def test_failing_external_bridger_falls_back(self, muffins3):
        class Exploding:
            def fill(self, draft, at: int) -> str:
                raise RuntimeError("boom")

        sym, tagged = self._tagged(make_muffin_scene(3))
        assert tagged.joints.count(GAP) >= 1
        with_default = bridge(tagged, DefaultBridger(), query_id="q")
        with_fallback = bridge(tagged, Exploding(), query_id="q")
        assert with_fallback.sentences == with_default.sentences
        assert with_fallback.bridge_fallback is True
        assert with_default.bridge_fallback is False

    def test_no_bridge_keeps_draft(self, muffins3):
        sym, tagged = self._tagged(make_muffin_scene(3))
        rationale = no_bridge(tagged, query_id="q")
        assert rationale.sentences == tagged.sentences
        assert rationale.bridge_fallback is False

    def test_http_bridger_round_trip(self):
        import json
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from tracedistill.editing import HttpBridger

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                type(self).last_request = body
                payload = json.dumps({"bridge_text": "And so the count follows."}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            sym, tagged = self._tagged(make_muffin_scene(3))
            assert tagged.joints.count(GAP) >= 1
            bridger = HttpBridger(f"http://127.0.0.1:{server.server_port}/")
            rationale = bridge(tagged, bridger, query_id="q")
            assert "And so the count follows." in rationale.sentences
            assert rationale.bridge_fallback is False
            assert set(Handler.last_request) == {"prev", "next", "facts"}
            assert Handler.last_request["facts"] == [record_to_line(r) for r in sym.records]
        finally:
            server.shutdown()
            server.server_close()
