"""Trace editing: dynamic pruning, symbolic merging, and logical bridging.

Pruning takes the backward closure of the return event under data dependence
(def-use links) and control dependence (enclosing taken branches and loops).
Merging collapses loop-repeated events into single operation records.
Bridging tags adjacent rationale sentences as <gap>/<no-gap> and fills gaps
with connective text.

A symbolic record renders to one line of the fixed grammar::

    assigned <name>:<value>[ <invocation>]
    called <callee>(<args>) -> <value>[ xK]
    looped <var> over <N> items
    branch arm <i>
    returned <value>

and to one English sentence via the fixed template table (frozen by golden
files under tests/). The line is an output format only: it fills an
external bridger's facts and gives gap tagging the words each record
mentions; nothing parses it back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .errors import TraceDistillError
from .interp import ExecutionTrace, TraceEvent, value_text
from .jsonlio import post_json


# ---------------------------------------------------------------------------
# dynamic pruning

@dataclass
class PrunedTrace:
    base: ExecutionTrace
    kept_seqs: list[int]  # ascending


def _return_seq(trace: ExecutionTrace) -> int:
    if not trace.events or trace.events[-1].kind != "return":
        raise TraceDistillError("trace has no return event; cannot prune")
    return trace.events[-1].seq


def prune(trace: ExecutionTrace) -> PrunedTrace:
    """Backward dynamic slice from the return event.

    An event survives if a kept event uses one of its bindings (data
    dependence) or if a kept event executed inside its arm or body (control
    dependence, via each event's enclosing-control pointer). Untaken
    branches never produced events, so nothing else is needed.
    """
    if trace.status != "ok":
        raise TraceDistillError(f"can only prune ok traces, got status {trace.status!r}")
    root_seq = _return_seq(trace)
    events = trace.events
    kept: set[int] = set()
    stack = [root_seq]
    while stack:
        seq = stack.pop()
        if seq in kept or seq < 0:
            continue
        kept.add(seq)
        event = events[seq]
        for _, def_seq in event.uses:
            stack.append(def_seq)
        ctrl = event.detail.get("ctrl", -1)
        if ctrl >= 0:
            stack.append(ctrl)
    # A loop's exit bracket survives with its loop.
    for event in events:
        if event.kind == "loop_exit" and event.detail.get("enter", -1) in kept:
            kept.add(event.seq)
    return PrunedTrace(base=trace, kept_seqs=sorted(kept))


def keep_all(trace: ExecutionTrace) -> PrunedTrace:
    """Identity 'pruning' used when the prune stage is toggled off."""
    _return_seq(trace)  # a trace without a return event is refused, as by prune
    return PrunedTrace(base=trace, kept_seqs=[e.seq for e in trace.events])


# ---------------------------------------------------------------------------
# symbolic records and merging

@dataclass
class SymbolicRecord:
    """Operation / Arguments / Invocation record. Equality covers only the
    three schema fields, the ones its symbolic line shows; the dependency
    fields feed gap tagging and bridging."""

    operation: str  # assigned | called | looped | branch | returned
    arguments: dict[str, str]
    invocation: str | None = None
    reads: set[str] = dc_field(default_factory=set, compare=False)
    defines: set[str] = dc_field(default_factory=set, compare=False)
    source_seqs: list[int] = dc_field(default_factory=list, compare=False)
    ctrl_seqs: set[int] = dc_field(default_factory=set, compare=False)


@dataclass
class SymbolicTrace:
    program_id: str
    records: list[SymbolicRecord]


def _loop_var_of_ctrl(events: list[TraceEvent], seq: int) -> str | None:
    ctrl = events[seq].detail.get("ctrl", -1)
    while ctrl >= 0:
        parent = events[ctrl]
        if parent.kind == "loop_iter":
            return next(iter(parent.bindings))
        ctrl = parent.detail.get("ctrl", -1)
    return None


def _base_record(events: list[TraceEvent], event: TraceEvent) -> SymbolicRecord | None:
    reads = {name for name, _ in event.uses}
    loop_var = _loop_var_of_ctrl(events, event.seq)
    if loop_var is not None:
        reads.add(loop_var)
    ctrl = event.detail.get("ctrl", -1)
    ctrl_seqs = {ctrl} if ctrl >= 0 else set()
    common = dict(reads=reads, source_seqs=[event.seq], ctrl_seqs=ctrl_seqs)
    if event.kind in ("assign", "loop_iter"):  # a loop_iter has no invocation
        name, value = next(iter(event.bindings.items()))
        callee = event.invocation.callee if event.invocation else None
        return SymbolicRecord(
            "assigned", {name: value_text(value)}, callee, defines={name}, **common
        )
    if event.kind in ("tool_call", "builtin_call"):
        invocation = event.invocation
        arguments = {
            "args": ",".join(value_text(a) for a in invocation.args),
            "value": value_text(invocation.result),
        }
        return SymbolicRecord("called", arguments, invocation.callee, **common)
    if event.kind == "branch_taken":
        return SymbolicRecord("branch", {"arm": str(event.detail["arm"])}, None, **common)
    if event.kind == "loop_enter":
        var = _loop_var_name(events, event)
        arguments = {"var": var, "items": str(event.detail["items"])}
        return SymbolicRecord("looped", arguments, None, defines={var}, **common)
    if event.kind == "return":
        return SymbolicRecord(
            "returned", {"value": value_text(event.detail.get("value"))}, None, **common
        )
    return None  # loop_exit carries only the iteration count


def _loop_var_name(events: list[TraceEvent], enter: TraceEvent) -> str:
    for event in events[enter.seq + 1 :]:
        if event.kind == "loop_iter" and event.detail.get("ctrl") == enter.seq:
            return next(iter(event.bindings))
        if event.kind == "loop_exit" and event.detail.get("enter") == enter.seq:
            break
    return "_"


def raw_records(pruned: PrunedTrace) -> SymbolicTrace:
    """One record per surviving event, with no collapsing (merge toggled off)."""
    events = pruned.base.events
    records = []
    for seq in pruned.kept_seqs:
        rec = _base_record(events, events[seq])
        if rec is not None:
            records.append(rec)
    return SymbolicTrace(program_id=pruned.base.program_id, records=records)


def merge(pruned: PrunedTrace) -> SymbolicTrace:
    """Collapse repetition in the surviving events.

    Assignments to one variable from one AST node across loop iterations
    keep only the last value; each loop becomes a single ``looped`` record;
    tool calls repeated with identical callee and arguments collapse to one
    ``called`` record annotated xK. Record order follows first occurrence.
    """
    events = pruned.base.events
    records: list[SymbolicRecord] = []
    assign_slot: dict[tuple[int, str], int] = {}
    called_slot: dict[tuple[str, str], int] = {}
    called_times: dict[int, int] = {}
    for seq in pruned.kept_seqs:
        event = events[seq]
        if event.kind in ("loop_iter", "loop_exit"):
            continue  # subsumed by the loop's single record
        rec = _base_record(events, event)
        if rec is None:
            continue
        if event.kind == "assign":
            name = next(iter(event.bindings))
            key = (event.node_id, name)
            if key in assign_slot:
                idx = assign_slot[key]
                old = records[idx]
                old.arguments[name] = rec.arguments[name]
                old.reads |= rec.reads
                old.source_seqs.extend(rec.source_seqs)
                old.ctrl_seqs |= rec.ctrl_seqs
                continue
            assign_slot[key] = len(records)
        elif event.kind == "tool_call":
            key = (rec.invocation, rec.arguments["args"])
            if key in called_slot:
                idx = called_slot[key]
                called_times[idx] = called_times.get(idx, 1) + 1
                records[idx].arguments["times"] = str(called_times[idx])
                records[idx].source_seqs.extend(rec.source_seqs)
                continue
            called_slot[key] = len(records)
        records.append(rec)
    return SymbolicTrace(program_id=pruned.base.program_id, records=records)


# ---------------------------------------------------------------------------
# symbolic line grammar (output only: bridger facts and gap tagging; bit-exact)

def record_to_line(record: SymbolicRecord) -> str:
    op = record.operation
    if op == "assigned":
        (name, value), = record.arguments.items()
        suffix = f" {record.invocation}" if record.invocation else ""
        return f"assigned {name}:{value}{suffix}"
    if op == "called":
        times = record.arguments.get("times")
        suffix = f" x{times}" if times else ""
        return (
            f"called {record.invocation}({record.arguments['args']})"
            f" -> {record.arguments['value']}{suffix}"
        )
    if op == "looped":
        return f"looped {record.arguments['var']} over {record.arguments['items']} items"
    if op == "branch":
        return f"branch arm {record.arguments['arm']}"
    # returned: ``_base_record`` makes no other operation
    return f"returned {record.arguments['value']}"


# ---------------------------------------------------------------------------
# natural-language rendering

_VERBS = {
    "len": "Counting",
    "find": "Searching",
    "exists": "Checking",
    "verify_property": "Verifying",
    "best_text_match": "Matching",
    "simple_query": "Asking",
    "compute_depth": "Measuring",
    "distance": "Measuring",
    "sorted": "Sorting",
}


def _display(value: str) -> str:
    """A ``value_text`` as a sentence shows it: a string as the program
    held it, without the quotes and escapes of its symbolic line."""
    if value.startswith("'") and value.endswith("'") and len(value) >= 2:
        # value_text escapes each backslash, then each quote: undo in reverse
        return value[1:-1].replace("\\'", "'").replace("\\\\", "\\")
    return value


def render_sentence(record: SymbolicRecord) -> str:
    op = record.operation
    if op == "assigned":
        (name, value), = record.arguments.items()
        if record.invocation:
            verb = _VERBS.get(record.invocation, "Computing")
            return f"{verb} gives {name} = {_display(value)} (via {record.invocation})."
        return f"Set {name} = {_display(value)}."
    if op == "called":
        times = record.arguments.get("times")
        suffix = f" ({times} times)" if times else ""
        return (
            f"Called {record.invocation}({record.arguments['args']}) and got "
            f"{_display(record.arguments['value'])}{suffix}."
        )
    if op == "looped":
        return f"Checked each of the {record.arguments['items']} items in turn."
    if op == "branch":
        return f"Took branch {record.arguments['arm']}."
    # returned
    return f"Therefore the answer is {_display(record.arguments['value'])}."


def render(trace: SymbolicTrace) -> list[str]:
    """One deterministic sentence per record."""
    return [render_sentence(r) for r in trace.records]


# ---------------------------------------------------------------------------
# gap tagging

GAP = "<gap>"
NO_GAP = "<no-gap>"


_LINE_KEYWORDS = {
    "assigned", "called", "looped", "branch", "arm", "over", "items",
    "returned", "patch", "true", "false", "none",
}


def _line_tokens(line: str) -> set[str]:
    return {t for t in re.findall(r"[A-Za-z_]\w*", line.lower()) if t not in _LINE_KEYWORDS}


@dataclass
class TaggedDraft:
    """The pre-bridge draft of one symbolic trace: a sentence and a
    symbolic line per record, and a tag per adjacent pair of sentences."""

    trace: SymbolicTrace
    sentences: list[str]
    lines: list[str]  # record_to_line of each record
    joints: list[str]  # len == len(sentences) - 1


def tag_gaps(trace: SymbolicTrace) -> TaggedDraft:
    """Render each record of ``trace`` and tag each adjacent sentence pair.
    A joint is <no-gap> when the later record references a variable or
    entity the earlier record defined or mentioned, or is directly
    control-dependent on it. A record mentions the names and words its
    symbolic line shows."""
    sentences = render(trace)
    records = trace.records
    lines = [record_to_line(r) for r in records]
    mentions = [_line_tokens(line) for line in lines]
    joints = []
    for i, (earlier, later) in enumerate(zip(records, records[1:])):
        refs = later.reads | mentions[i + 1]
        anchors = earlier.defines | earlier.reads | mentions[i]
        ctrl_link = bool(later.ctrl_seqs & set(earlier.source_seqs))
        joints.append(NO_GAP if (refs & anchors) or ctrl_link else GAP)
    return TaggedDraft(trace, sentences, lines, joints)


# ---------------------------------------------------------------------------
# bridging. A bridger's ``fill(draft, at)`` returns the text for the gap
# before draft sentence ``at``.

class DefaultBridger:
    """Deterministic bridger: restates the nearest fact shared with the next
    sentence, preferring the latest earlier definition of a variable the
    next record reads."""

    def fill(self, draft: TaggedDraft, at: int) -> str:
        records = draft.trace.records
        rec = records[at]
        for name in sorted(rec.reads):
            for earlier in reversed(records[:at]):
                if name in earlier.defines and earlier.operation == "assigned":
                    value = _display(earlier.arguments[name])
                    return f"Recall that {name} = {value}."
        if rec.invocation:
            return f"Next, {rec.invocation} comes into play."
        return "With that settled, the next step follows."


class HttpBridger:
    """Client for an external bridging model.

    Wire contract: POST {prev, next, facts: [...]} and read {bridge_text},
    where facts holds the symbolic line of every record in the trace.
    Any failure raises, which bridge() turns into a default-bridger fallback
    recorded as bridge_fallback.
    """

    def __init__(self, endpoint: str, timeout: float = 5.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def fill(self, draft: TaggedDraft, at: int) -> str:
        payload = post_json(
            self.endpoint,
            {"prev": draft.sentences[at - 1], "next": draft.sentences[at], "facts": draft.lines},
            self.timeout,
        )
        text = payload.get("bridge_text", "")
        if not isinstance(text, str) or not text:
            raise ValueError("external bridger returned no bridge_text")
        return text


@dataclass
class CotRationale:
    """One rationales.jsonl row: these fields."""

    query_id: str
    program_id: str
    text: str
    bridge_fallback: bool  # an external bridger failed and the default one filled in
    sentences: list[str]
    joints: list[str]
    lineage: dict = dc_field(default_factory=dict)  # the edit's {pruned, merged, bridged}


def _rationale(draft: TaggedDraft, sentences: list[str], fell_back: bool,
               query_id: str) -> CotRationale:
    return CotRationale(query_id=query_id, program_id=draft.trace.program_id,
                        text=" ".join(sentences), bridge_fallback=fell_back,
                        sentences=sentences, joints=list(draft.joints))


def bridge(draft: TaggedDraft, bridger=None, *, query_id: str = "") -> CotRationale:
    """Insert connective text at every <gap> joint.

    External bridger failures fall back to the default bridger and are
    recorded as bridge_fallback.
    """
    primary = bridger or DefaultBridger()
    sentences = [draft.sentences[0]]
    fell_back = False
    for at, joint in enumerate(draft.joints, 1):
        if joint == GAP:
            try:
                text = primary.fill(draft, at)
            except Exception:
                text = DefaultBridger().fill(draft, at)
                fell_back = True
            sentences.append(text)
        sentences.append(draft.sentences[at])
    return _rationale(draft, sentences, fell_back, query_id)


def no_bridge(draft: TaggedDraft, *, query_id: str = "") -> CotRationale:
    """Assemble a rationale without filling gaps (bridge toggled off)."""
    return _rationale(draft, list(draft.sentences), False, query_id)
