"""Instrumented tree-walking interpreter for visual programs.

Execution emits one trace event per executed statement-level action: an
assignment, a bare tool/builtin call, a taken branch, a loop enter /
iteration / exit, or a return. Each event carries the variable snapshot it
wrote, the ``Invocation`` (callee, argument and result snapshots) of the
outermost call evaluated by the statement, def-use links to the defining
events of every variable it read, and the seq of its innermost enclosing
control event. A snapshot is a value in its traces.jsonl form, so a trace
is written and read back by ``jsonlio`` with no codec of its own.

Failures never raise: they are encoded in the trace status (ok /
runtime_error / step_limit) for the faithfulness filter to consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from . import scenes as sw
from .dsl import MAX_INT, Ast, AstNode, TOOL_METHODS, if_arms
from .jsonlio import build_row
from .scenes import Patch, Query, Scene, ToolConfig

Value = Any  # int | float | bool | str | list[Value] | Patch


MAX_LIST_LEN = 10_000
MAX_STR_LEN = 10_000
SNAPSHOT_LIST_CAP = 64


# Slotted: run_ablation holds every kept trace, decoded, for its whole
# grid, and ``vars()`` in the row writer would give each event and
# invocation a ``__dict__``.
@dataclass(slots=True)
class Invocation:
    """The outermost call a statement evaluated: its callee, and snapshots
    of its arguments and result."""

    callee: str
    args: list
    result: Value


@dataclass(slots=True)
class TraceEvent:
    seq: int
    node_id: int
    kind: str  # assign, tool_call, builtin_call, branch_taken, loop_enter, loop_iter, loop_exit, return
    bindings: dict = field(default_factory=dict)  # the variable it wrote -> its snapshot
    invocation: Invocation | None = None
    uses: list[tuple[str, int]] = field(default_factory=list)
    detail: dict = field(default_factory=dict)  # arm, iteration(s), enter, ctrl, value


@dataclass
class ExecutionTrace:
    """Every value a trace holds is a snapshot (see ``_snapshot``), so a
    traces.jsonl row is these fields as they are, plus the row's
    ``query_id`` and ``reject_reason``."""

    program_id: str
    events: list[TraceEvent]
    result: Value  # the returned value's snapshot; None unless status is ok
    status: str  # ok, runtime_error, step_limit
    error: dict | None = None  # {node_id, message} when status == runtime_error


class _Fault(Exception):
    def __init__(self, node_id: int, message: str):
        super().__init__(message)
        self.node_id = node_id


class _StepLimit(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value):
        self.value = value


def _snapshot(value: Value, forms: dict) -> Value:
    """``value`` in its traces.jsonl form, holding at most
    ``SNAPSHOT_LIST_CAP`` list items in all, counted across every nesting
    level. A patch becomes ``{"__patch__": {scene, box, matched}}``, one
    shared form per distinct patch in ``forms``; lists are the only other
    mutable runtime values, and every other value is returned as it is."""
    if isinstance(value, list):
        return _capped(value, [SNAPSHOT_LIST_CAP], forms)
    if isinstance(value, Patch):
        return _patch_form(value, forms)
    return value


def _capped(items: list, room: list[int], forms: dict) -> list:
    """``items``' first ``room[0]`` items, taking them from ``room``; then
    each nested list shares what room is left. A module function, not a
    closure in ``_snapshot``: a closure that calls itself is a reference
    cycle, and exec runs with the cyclic collector paused, so each call's
    function and cell would stay in memory until the stage ends."""
    out = items[:room[0]]
    room[0] -= len(out)
    for j, item in enumerate(out):
        if isinstance(item, list):
            out[j] = _capped(item, room, forms)
        elif isinstance(item, Patch):
            out[j] = _patch_form(item, forms)
    return out


def _patch_form(patch: Patch, forms: dict) -> dict:
    form = forms.get(patch)
    if form is None:
        form = forms[patch] = {"__patch__": {"scene": patch.scene_ref, "box": list(patch.box),
                                             "matched": patch.matched_object}}
    return form


_END = object()


def value_text(value: Value, limit: float = math.inf) -> str:
    """Canonical space-free text for symbolic trace lines. A text longer
    than ``limit`` characters raises ValueError before it is built: nested
    lists are walked with a stack, and the text is measured as it grows."""
    if not isinstance(value, list):
        return _atom_text(value)
    pieces, size = ["["], 1
    stack, first = [iter(value)], True
    while stack:
        item = next(stack[-1], _END)
        if item is _END:
            stack.pop()
            piece, first = "]", False
        elif isinstance(item, list):
            piece = "[" if first else ",["
            stack.append(iter(item))
            first = True
        else:
            piece = _atom_text(item) if first else "," + _atom_text(item)
            first = False
        size += len(piece)
        if size > limit:
            raise ValueError(f"text longer than {limit} characters")
        pieces.append(piece)
    return "".join(pieces)


def _atom_text(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, (Patch, dict)):  # a live patch, or its snapshot
        l, lo, r, u = value.box if isinstance(value, Patch) else value["__patch__"]["box"]
        return f"patch({l},{lo},{r},{u})"
    if value is None:
        return "none"
    raise TypeError(f"unsupported runtime value {type(value)!r}")


def plain_text(value: Value, limit: float = math.inf) -> str:
    """Program-result text as the str() builtin produces it; a list whose
    text would be longer than ``limit`` raises ValueError (see
    ``value_text``)."""
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return str(value) if isinstance(value, int) else repr(value)
    return value_text(value, limit)


def _truthy(value: Value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, (str, list)):
        return len(value) > 0
    return True


class _Interp:
    def __init__(self, ast: Ast, scene: Scene, max_steps: int, tools: ToolConfig | None):
        self.ast = ast
        self.scene = scene
        self.max_steps = max_steps
        self.tools = tools
        self.env: dict[str, tuple[Value, int]] = {}
        self.events: list[TraceEvent] = []
        self.steps = 0
        # Per-statement evaluation context: the names read, and the arguments
        # of the call that finished last.
        self._uses: list[tuple[str, int]] = []
        self._last_args: list[Value] = []
        self.forms: dict = {}  # each distinct patch's snapshot (see ``_snapshot``)

    # -- event plumbing

    def emit(self, node_id: int, kind: str, ctrl: int, **kw) -> TraceEvent:
        event = TraceEvent(seq=len(self.events), node_id=node_id, kind=kind, **kw)
        event.detail["ctrl"] = ctrl
        self.events.append(event)
        return event

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _StepLimit()

    def _dedup_uses(self) -> list[tuple[str, int]]:
        seen = []
        for u in self._uses:
            if u not in seen:
                seen.append(u)
        return seen

    # -- statement execution

    def run(self) -> tuple[Value, None]:
        root = self.ast.node(self.ast.root)
        self.env[root.payload["param"]] = (sw.full_canvas_patch(self.scene), -1)
        for stmt in root.children:
            self.exec_stmt(stmt, ctrl=-1)
        raise _Fault(self.ast.root, "program ended without return")

    def exec_stmt(self, node_id: int, ctrl: int) -> None:
        node = self.ast.node(node_id)
        self.tick()
        if node.kind == "If":
            self.exec_if(node, ctrl)
            return
        if node.kind == "For":
            self.exec_for(node, ctrl)
            return
        value, invocation = self.eval_top(node.children[0])
        if node.kind == "Assign":
            target = node.payload["target"]
            event = self.emit(
                node_id,
                "assign",
                ctrl,
                bindings={target: _snapshot(value, self.forms)},
                invocation=invocation,
                uses=self._dedup_uses(),
            )
            self.env[target] = (value, event.seq)
        elif node.kind == "Return":
            event = self.emit(node_id, "return", ctrl, invocation=invocation, uses=self._dedup_uses())
            event.detail["value"] = _snapshot(value, self.forms)
            raise _Return(event.detail["value"])
        elif invocation is not None:
            kind = "tool_call" if self._is_tool(self.ast.node(node.children[0])) else "builtin_call"
            self.emit(node_id, kind, ctrl, invocation=invocation, uses=self._dedup_uses())

    def exec_if(self, node: AstNode, ctrl: int) -> None:
        arms, else_stmts = if_arms(self.ast, node)
        cond_uses: list[tuple[str, int]] = []
        for arm_index, (cond, stmts) in enumerate(arms):
            value, invocation = self.eval_top(cond)
            cond_uses.extend(self._uses)
            if _truthy(value):
                event = self.emit(
                    node.id, "branch_taken", ctrl, invocation=invocation, uses=self._dedup_uses()
                )
                event.detail["arm"] = arm_index
                for stmt in stmts:
                    self.exec_stmt(stmt, ctrl=event.seq)
                return
        if else_stmts:
            # the else arm is reached through every condition tested above
            self._uses = cond_uses
            event = self.emit(node.id, "branch_taken", ctrl, uses=self._dedup_uses())
            event.detail["arm"] = len(arms)
            for stmt in else_stmts:
                self.exec_stmt(stmt, ctrl=event.seq)
        # All conditions false and no else arm: no event at all.

    def exec_for(self, node: AstNode, ctrl: int) -> None:
        var = node.payload["var"]
        iterable, invocation = self.eval_top(node.children[0])
        if not isinstance(iterable, list):
            raise _Fault(node.id, "for-loop iterable must be a list")
        enter = self.emit(node.id, "loop_enter", ctrl, invocation=invocation, uses=self._dedup_uses())
        enter.detail["items"] = len(iterable)
        count = 0
        for i, item in enumerate(iterable):
            self.tick()
            iter_event = self.emit(
                node.id, "loop_iter", enter.seq, bindings={var: _snapshot(item, self.forms)}
            )
            iter_event.detail["iteration"] = i
            self.env[var] = (item, iter_event.seq)
            count += 1
            for stmt in node.children[1:]:
                self.exec_stmt(stmt, ctrl=iter_event.seq)
        exit_event = self.emit(node.id, "loop_exit", ctrl)
        exit_event.detail["iterations"] = count
        exit_event.detail["enter"] = enter.seq

    def _is_tool(self, node: AstNode) -> bool:
        if node.kind == "MethodCall":
            return node.payload["method"] in TOOL_METHODS
        return node.payload.get("func") == "distance"

    # -- expression evaluation

    def eval_top(self, node_id: int) -> tuple[Value, Invocation | None]:
        """Evaluate a statement's expression with fresh ``_uses``. The
        invocation is the call's when the expression's top node is a call,
        otherwise None."""
        self._uses = []
        value = self.eval_expr(node_id)
        node = self.ast.node(node_id)
        if node.kind not in ("Call", "MethodCall"):
            return value, None
        callee = node.payload["func" if node.kind == "Call" else "method"]
        return value, Invocation(callee, [_snapshot(a, self.forms) for a in self._last_args],
                                 _snapshot(value, self.forms))

    def eval_expr(self, node_id: int) -> Value:
        node = self.ast.node(node_id)
        kind = node.kind
        if kind == "Literal":
            return node.payload["value"]
        if kind == "Name":
            name = node.payload["id"]
            if name not in self.env:
                raise _Fault(node_id, f"undefined name {name!r}")
            value, def_seq = self.env[name]
            if def_seq >= 0:
                self._uses.append((name, def_seq))
            return value
        if kind == "ListLit":
            if len(node.children) > MAX_LIST_LEN:
                raise _Fault(node_id, "list literal too long")
            return [self.eval_expr(c) for c in node.children]
        if kind == "Attribute":
            return self.eval_attribute(node)
        if kind == "Index":
            return self.eval_index(node)
        if kind == "MethodCall":
            return self.eval_method(node)
        if kind == "Unary":
            value = self.eval_unary(node)
        elif kind == "Binary":
            value = self.eval_binary(node)
        else:  # Call
            value = self.eval_call(node)
        return _bounded(node_id, value)

    def eval_unary(self, node: AstNode) -> Value:
        value = self.eval_expr(node.children[0])
        if node.payload["op"] == "not":
            return not _truthy(value)
        if not _is_num(value):
            raise _Fault(node.id, "unary minus needs a number")
        return -value

    def eval_attribute(self, node: AstNode) -> Value:
        obj = self.eval_expr(node.children[0])
        attr = node.payload["attr"]
        if isinstance(obj, Patch):
            if attr in ("left", "lower", "right", "upper", "width", "height",
                        "horizontal_center", "vertical_center"):
                return getattr(obj, attr)
            raise _Fault(node.id, f"patch has no attribute {attr!r}")
        raise _Fault(node.id, "attribute access on non-patch value")

    def eval_index(self, node: AstNode) -> Value:
        obj = self.eval_expr(node.children[0])
        index = self.eval_expr(node.children[1])
        if not isinstance(obj, list) or not isinstance(index, int) or isinstance(index, bool):
            raise _Fault(node.id, "indexing needs a list and an integer")
        if index < -len(obj) or index >= len(obj):
            raise _Fault(node.id, f"index {index} out of range for list of {len(obj)}")
        return obj[index]

    def eval_binary(self, node: AstNode) -> Value:
        op = node.payload["op"]
        if op in ("and", "or"):
            left = _truthy(self.eval_expr(node.children[0]))
            if op == "and" and not left:
                return False
            if op == "or" and left:
                return True
            return _truthy(self.eval_expr(node.children[1]))
        left = self.eval_expr(node.children[0])
        right = self.eval_expr(node.children[1])
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "in":
            if isinstance(right, list):
                return any(left == item for item in right)
            if isinstance(right, str) and isinstance(left, str):
                return left in right
            raise _Fault(node.id, "'in' needs a list or string on the right")
        if op in ("<", "<=", ">", ">="):
            if not _comparable(left, right):
                raise _Fault(node.id, f"cannot order {type(left).__name__} and {type(right).__name__}")
            return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[op]
        if op == "+":
            if ((_is_num(left) and _is_num(right))
                    or (isinstance(left, str) and isinstance(right, str))
                    or (isinstance(left, list) and isinstance(right, list))):
                return left + right
            raise _Fault(node.id, f"cannot add {type(left).__name__} and {type(right).__name__}")
        if not (_is_num(left) and _is_num(right)):
            raise _Fault(node.id, f"arithmetic needs numbers, got {type(left).__name__}")
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:  # op is "/"
            raise _Fault(node.id, "division by zero")
        return left / right

    def eval_call(self, node: AstNode) -> Value:
        func = node.payload["func"]
        args = [self.eval_expr(c) for c in node.children]
        self._last_args = args
        if func == "len":
            if len(args) == 1 and isinstance(args[0], (list, str)):
                return len(args[0])
            raise _Fault(node.id, "len needs one list or string")
        if func == "str":
            if len(args) != 1:
                raise _Fault(node.id, "str needs one argument")
            try:
                return plain_text(args[0], MAX_STR_LEN)
            except ValueError:
                raise _Fault(node.id, "string too long")
        if func == "int":
            if len(args) != 1:
                raise _Fault(node.id, "int needs one argument")
            try:
                return int(args[0])
            except (TypeError, ValueError):
                raise _Fault(node.id, "cannot convert to int")
        if func == "abs":
            if len(args) == 1 and _is_num(args[0]):
                return abs(args[0])
            raise _Fault(node.id, "abs needs one number")
        if func == "bool_to_yesno":
            if len(args) != 1:
                raise _Fault(node.id, "bool_to_yesno needs one argument")
            return "yes" if _truthy(args[0]) else "no"
        if func == "sorted":
            if len(args) != 1 or not isinstance(args[0], list):
                raise _Fault(node.id, "sorted needs one list")
            try:
                return sorted(args[0], key=_sort_key)
            except TypeError:
                raise _Fault(node.id, "list elements are not orderable")
        if func in ("min", "max"):
            pool = args[0] if len(args) == 1 and isinstance(args[0], list) else args
            if not pool:
                raise _Fault(node.id, f"{func} of empty sequence")
            try:
                return min(pool, key=_sort_key) if func == "min" else max(pool, key=_sort_key)
            except TypeError:
                raise _Fault(node.id, "values are not orderable")
        # the parser admits no other function: this is distance
        if len(args) == 2 and isinstance(args[0], Patch) and isinstance(args[1], Patch):
            return sw.tool_distance(args[0], args[1])
        raise _Fault(node.id, "distance needs two patches")

    def eval_method(self, node: AstNode) -> Value:
        receiver = self.eval_expr(node.children[0])
        args = [self.eval_expr(c) for c in node.children[1:]]
        self._last_args = args
        if not isinstance(receiver, Patch):
            raise _Fault(node.id, "method call on non-patch value")
        method = node.payload["method"]
        try:
            if method == "find" and len(args) == 1 and isinstance(args[0], str):
                return sw.tool_find(self.scene, receiver, args[0])
            if method == "exists" and len(args) == 1 and isinstance(args[0], str):
                return sw.tool_exists(self.scene, receiver, args[0], self.tools)
            if (method == "verify_property" and len(args) == 2
                    and all(isinstance(a, str) for a in args)):
                return sw.tool_verify_property(self.scene, receiver, args[0], args[1], self.tools)
            if (method == "best_text_match" and len(args) == 1 and isinstance(args[0], list)
                    and all(isinstance(o, str) for o in args[0])):
                return sw.tool_best_text_match(self.scene, receiver, args[0])
            if method == "simple_query" and len(args) == 1 and isinstance(args[0], str):
                return sw.tool_simple_query(self.scene, receiver, args[0])
            if method == "compute_depth" and len(args) == 0:
                return sw.tool_compute_depth(self.scene, receiver)
        except (ValueError, sw.SceneLookupError) as exc:
            raise _Fault(node.id, str(exc))
        raise _Fault(node.id, f"unknown or misused tool method {method!r}")


def _bounded(node_id: int, value: Value) -> Value:
    """``value``, the result of a Unary, Binary or Call node, if the
    interpreter holds it: an int within ``MAX_INT`` of zero, a finite float,
    a string of at most ``MAX_STR_LEN`` characters, a list of at most
    ``MAX_LIST_LEN`` items. Anything else is a runtime error: past these
    bounds ``float()``, ``str()`` and the trace's JSON write raise, and a
    string or list could grow until memory runs out."""
    kind = type(value)
    if kind is int and not -MAX_INT <= value <= MAX_INT:
        raise _Fault(node_id, "integer out of range")
    if kind is float and not math.isfinite(value):
        raise _Fault(node_id, "arithmetic produced a non-finite value")
    if kind is str and len(value) > MAX_STR_LEN:
        raise _Fault(node_id, "string too long")
    if kind is list and len(value) > MAX_LIST_LEN:
        raise _Fault(node_id, "list too long")
    return value


def _is_num(v: Value) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _comparable(a: Value, b: Value) -> bool:
    if _is_num(a) and _is_num(b):
        return True
    return isinstance(a, str) and isinstance(b, str)


def _sort_key(v: Value):
    if isinstance(v, Patch):
        return v.box
    return v


def execute(
    ast: Ast,
    scene: Scene,
    max_steps: int = 10_000,
    tools: ToolConfig | None = None,
    program_id: str = "",
) -> ExecutionTrace:
    """Run a program against a scene, producing an ExecutionTrace.

    Never raises for a tree ``dsl.parse`` returned, which is the only
    shape check: name errors, type errors, bad indexing, division by zero
    and the like yield status ``runtime_error``, and exceeding
    ``max_steps`` yields ``step_limit``.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    interp = _Interp(ast, scene, max_steps, tools)
    result, status, error = None, "ok", None
    try:
        interp.run()
        raise AssertionError("unreachable")
    except _Return as ret:
        result = ret.value
    except _Fault as fault:
        status, error = "runtime_error", {"node_id": fault.node_id, "message": str(fault)}
    except _StepLimit:
        status = "step_limit"
    return ExecutionTrace(program_id=program_id, events=interp.events, result=result, status=status,
                          error=error)


# ---------------------------------------------------------------------------
# answer normalization and the faithfulness filter

_NUMBER_WORDS = {
    word: str(i)
    for i, word in enumerate(
        "zero one two three four five six seven eight nine ten eleven twelve "
        "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty".split()
    )
}

_ARTICLES = {"a", "an", "the"}


def normalize_answer(raw: str) -> str:
    """Lowercase, trim, strip leading articles, map number words zero-twenty
    to digits, and canonicalize yes/true and no/false."""
    text = raw.strip().lower()
    words = text.split()
    while words and words[0] in _ARTICLES:
        words = words[1:]
    if len(words) == 1 and words[0] in ("yes", "true"):
        return "yes"
    if len(words) == 1 and words[0] in ("no", "false"):
        return "no"
    return " ".join(_NUMBER_WORDS.get(w, w) for w in words)


REJECT_REASONS = ("wrong_answer", "runtime_error", "step_limit")


def faithfulness_filter(
    pairs: list[tuple[ExecutionTrace, Query]],
) -> tuple[list[tuple[ExecutionTrace, Query]], list[str | None]]:
    """Keep traces that finished ok with the expected normalized answer.
    Returns the kept pairs and, for every input pair in order, its verdict:
    None when kept, otherwise one of REJECT_REASONS."""
    kept, reasons = [], []
    for trace, query in pairs:
        if trace.status != "ok":
            reasons.append(trace.status)
            continue
        got = normalize_answer(plain_text(trace.result))
        want = normalize_answer(query.expected_answer)
        if got == want:
            kept.append((trace, query))
            reasons.append(None)
        else:
            reasons.append("wrong_answer")
    return kept, reasons


# ---------------------------------------------------------------------------
# traces.jsonl rows

def trace_to_record(trace: ExecutionTrace, query_id: str, reject_reason: str | None) -> dict:
    """``trace``'s traces.jsonl row: its fields, which ``jsonlio``'s encoder
    writes as they are, plus ``query_id`` and ``reject_reason``, the
    faithfulness filter's verdict: None for a kept trace, otherwise one of
    REJECT_REASONS."""
    return {**vars(trace), "query_id": query_id, "reject_reason": reject_reason}


def trace_from_record(rec: dict) -> ExecutionTrace:
    """The trace a decoded traces.jsonl row holds, built by
    ``jsonlio.build_row``, which leaves ``rec`` as it was. A field missing
    or not of its type raises a SchemaError naming it, as in ``events[2]
    field 'uses' must be ...``."""
    return build_row(ExecutionTrace, {k: v for k, v in rec.items()
                                      if k not in ("query_id", "reject_reason")})
