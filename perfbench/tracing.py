"""Spans and counts around the program's public functions, from outside it.

``Tracer.installed()`` replaces each traced function at every name the
package holds it under (``dsl.parse`` and ``pipeline.parse``, the
``pipeline.STAGES`` entries and the ``stage_*`` globals, ...) with a wrapper
that records a span ``[name, start, end, parent]``, and puts the originals
back on exit. Spans stay in memory; ``per_layer`` derives self times and
counts from them, and ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from tracedistill import codegen, distill, dsl, editing, interp, jsonlio, pipeline
from tracedistill import scenes as sw
from tracedistill import students as st

# Per-layer metrics: name -> (unit, better). Times are self time summed over
# the calls in one round unless the name says "per call" in the README.
PER_LAYER = {
    "pipeline.scene_gen_s": ("s", "lower"),
    "pipeline.program_gen_s": ("s", "lower"),
    "pipeline.exec_s": ("s", "lower"),
    "pipeline.edit_s": ("s", "lower"),
    "pipeline.score_s": ("s", "lower"),
    "pipeline.emit_s": ("s", "lower"),
    "pipeline.train_s": ("s", "lower"),
    "pipeline.cell_s": ("s", "lower"),
    "scenes.generate_s": ("s", "lower"),
    "scenes.tool_calls": ("count", "lower"),
    "scenes.load_s": ("s", "lower"),
    "scenes.load_calls": ("count", "lower"),
    "codegen.generate_s": ("s", "lower"),
    "dsl.parse_s": ("s", "lower"),
    "dsl.parse_calls": ("count", "lower"),
    "dsl.parse_distinct_ratio": ("ratio", "higher"),
    "interp.execute_s": ("s", "lower"),
    "interp.events": ("count", "lower"),
    "interp.faithful_ratio": ("ratio", "higher"),
    "interp.trace_encode_s": ("s", "lower"),
    "interp.trace_decode_s": ("s", "lower"),
    "interp.trace_decode_calls": ("count", "lower"),
    "jsonlio.write_s": ("s", "lower"),
    "jsonlio.read_s": ("s", "lower"),
    "jsonlio.bytes_written": ("B", "lower"),
    "jsonlio.bytes_read": ("B", "lower"),
    "editing.prune_s": ("s", "lower"),
    "editing.merge_s": ("s", "lower"),
    "editing.render_s": ("s", "lower"),
    "editing.kept_event_ratio": ("ratio", "lower"),
    "editing.tokens_mean": ("tokens", "lower"),
    "students.score_s": ("s", "lower"),
    "students.answer_calls": ("count", "lower"),
    "students.keep_ratio": ("ratio", "higher"),
    "distill.emit_s": ("s", "lower"),
    "distill.load_s": ("s", "lower"),
    "distill.build_model_s": ("s", "lower"),
    "distill.loss_and_grads_s": ("s", "lower"),
    "distill.loss_and_grads_calls": ("count", "lower"),
    "distill.keywords": ("count", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

STAGE_SPANS = {name: "pipeline." + name.replace("-", "_") for name in pipeline.STAGES}


# Hooks run after a traced call returns: (tracer, args, result) -> None.

def _count_parse(t, args, result):
    t.counts["dsl.parse_calls"] += 1
    t.sources.add(args[0])


def _count_execute(t, args, result):
    t.counts["interp.events"] += len(result.events)


def _count_faithful(t, args, result):
    t.counts["faithful.kept"] += len(result[0])
    t.counts["faithful.all"] += len(args[0])


def _count_prune(t, args, result):
    t.counts["prune.kept"] += len(result.kept_seqs)
    t.counts["prune.all"] += len(result.base.events)


def _count_rationale(t, args, result):
    t.counts["rationale.tokens"] += len(result.text.split())
    t.counts["rationale.count"] += 1


def _count_score(t, args, result):
    # Every workload keeps rationales at the default min_score of 0.
    t.counts["score.kept"] += result.score >= 0
    t.counts["score.all"] += 1


def _count_read(t, args, result):
    t.counts["jsonlio.bytes_read"] += os.path.getsize(args[0])


def _count_write(t, args, result):
    t.counts["jsonlio.bytes_written"] += os.path.getsize(args[0])


def _count_model(t, args, result):
    t.counts["distill.keywords"] += len(result.keywords)


def _eager_read_jsonl(fn):
    # read_jsonl is a generator; reading the file inside the span keeps the
    # span's time the time spent reading.
    return lambda path: iter(list(fn(path)))


# (module, function, span name, count hook, call transform)
TRACED = [
    (pipeline, "run_all", "pipeline.run_all", None, None),
    (pipeline, "run_ablation", "pipeline.run_ablation", None, None),
    (sw, "generate_scenes", "scenes.generate", None, None),
    (sw, "generate_queries", "scenes.generate", None, None),
    (sw, "load_scenes", "scenes.load", None, None),
    (sw, "load_queries", "scenes.load", None, None),
    (codegen, "generate_programs", "codegen.generate", None, None),
    (codegen, "generate_program", "codegen.generate", None, None),
    (dsl, "parse", "dsl.parse", _count_parse, None),
    (interp, "execute", "interp.execute", _count_execute, None),
    (interp, "faithfulness_filter", "interp.faithfulness_filter", _count_faithful, None),
    (interp, "trace_to_record", "interp.trace_encode", None, None),
    (interp, "trace_from_record", "interp.trace_decode", None, None),
    (jsonlio, "read_jsonl", "jsonlio.read", _count_read, _eager_read_jsonl),
    (jsonlio, "read_json", "jsonlio.read", _count_read, None),
    (jsonlio, "write_jsonl", "jsonlio.write", _count_write, None),
    (jsonlio, "write_json", "jsonlio.write", _count_write, None),
    (editing, "prune", "editing.prune", _count_prune, None),
    (editing, "keep_all", "editing.prune", None, None),
    (editing, "merge", "editing.merge", None, None),
    (editing, "raw_records", "editing.merge", None, None),
    (editing, "render", "editing.render", None, None),
    (editing, "tag_gaps", "editing.render", None, None),
    (editing, "bridge", "editing.render", _count_rationale, None),
    (editing, "no_bridge", "editing.render", _count_rationale, None),
    (st, "utility_score", "students.score", _count_score, None),
    (distill, "emit_dataset", "distill.emit", None, None),
    (distill, "load_dataset", "distill.load", None, None),
    (distill, "build_model", "distill.build_model", _count_model, None),
    (distill, "loss_and_grads", "distill.loss_and_grads", None, None),
]
TOOLS = [name for name in vars(sw) if name.startswith("tool_")]
STUDENTS = [st.NoisyOracleStudent, st.RationaleSensitiveStudent, st.StubbornStudent]


def _package_modules():
    return [m for name, m in sys.modules.items()
            if (name == "tracedistill" or name.startswith("tracedistill.")) and m is not None]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.sources: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Trace every listed function at every name it is bound to."""
        replace = {}
        for module, attr, name, hook, transform in TRACED:
            fn = getattr(module, attr)
            replace[id(fn)] = self._wrap(transform(fn) if transform else fn, name, hook)
        for attr in TOOLS:
            fn = getattr(sw, attr)
            replace[id(fn)] = self._counted(fn, "scenes.tool_calls")
        for stage, fn in pipeline.STAGES.items():
            replace[id(fn)] = self._wrap(fn, STAGE_SPANS[stage], None)

        undo = []
        namespaces = [vars(m) for m in _package_modules()] + [pipeline.STAGES]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in replace and callable(value):
                    undo.append((ns, key, value))
                    ns[key] = replace[id(value)]
        for cls in STUDENTS:
            undo.append((cls, "answer", cls.answer))
            cls.answer = self._counted(cls.answer, "students.answer_calls")
        try:
            yield self
        finally:
            for target, key, value in reversed(undo):
                if isinstance(target, dict):
                    target[key] = value
                else:
                    setattr(target, key, value)

    def self_times(self) -> tuple[Counter, dict[str, list[float]]]:
        """Self time summed per span name, and every span's own duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        each: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
            each.setdefault(name, []).append(end - start)
        return total, each

    def cell_times(self) -> list[float]:
        """Ablation cells: each runs from its edit stage's start to the next
        cell's edit start, or to the end of the grid."""
        out = []
        for i, (name, start, end, _) in enumerate(self.spans):
            if name != "pipeline.run_ablation":
                continue
            starts = [s[1] for s in self.spans if s[0] == "pipeline.edit" and s[3] == i]
            out += [b - a for a, b in zip(starts, starts[1:] + [end])]
        return out

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics of one traced round, but for process.cpu_s
        and trace.overhead_s, which need the untraced rounds."""
        total, each = self.self_times()
        c = self.counts

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out = {f"{stage}_s": total[stage] for stage in STAGE_SPANS.values()}
        cells = self.cell_times()
        out["pipeline.cell_s"] = statistics.median(cells) if cells else 0.0
        for layer in ("scenes.generate", "scenes.load", "codegen.generate", "dsl.parse",
                      "interp.execute", "interp.trace_encode", "interp.trace_decode",
                      "jsonlio.write", "jsonlio.read", "editing.prune", "editing.merge",
                      "editing.render", "students.score", "distill.emit", "distill.load",
                      "distill.build_model"):
            out[f"{layer}_s"] = total[layer]
        calls = each.get("distill.loss_and_grads", [])
        out["distill.loss_and_grads_s"] = statistics.median(calls) if calls else 0.0
        out["distill.loss_and_grads_calls"] = len(calls)
        out["scenes.load_calls"] = len(each.get("scenes.load", []))
        out["interp.trace_decode_calls"] = len(each.get("interp.trace_decode", []))
        out["dsl.parse_distinct_ratio"] = (
            len(self.sources) / c["dsl.parse_calls"] if c["dsl.parse_calls"] else 0.0
        )
        out["interp.faithful_ratio"] = ratio("faithful.kept", "faithful.all")
        out["editing.kept_event_ratio"] = ratio("prune.kept", "prune.all")
        out["editing.tokens_mean"] = ratio("rationale.tokens", "rationale.count")
        out["students.keep_ratio"] = ratio("score.kept", "score.all")
        for key in ("scenes.tool_calls", "dsl.parse_calls", "interp.events",
                    "jsonlio.bytes_written", "jsonlio.bytes_read", "students.answer_calls",
                    "distill.keywords"):
            out[key] = c[key]
        return out
