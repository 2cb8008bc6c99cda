"""Independent oracles used to cross-check the instrumented interpreter.

``evaluate`` is a deliberately plain recursive evaluator: no events, no
def-use tracking, just a dict environment. It shares the scene tool
functions (the world model under both interpreters) but none of the
interpreter code, so agreement between the two is meaningful. Given a
pruned trace, it runs only the statements the slice keeps, which checks that
prune's slice still computes the answer without rebuilding it as source.

``grad_check`` checks the toy student's analytic gradient against central
finite differences of its loss.
"""

from __future__ import annotations

import math

import numpy as np

from tracedistill import scenes as sw
from tracedistill.distill import ToyModel, TrainRow, encode, loss_and_grads
from tracedistill.dsl import Ast, if_arms
from tracedistill.scenes import Patch, Scene


class _Done(Exception):
    def __init__(self, value):
        self.value = value


def _plain(value):
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return repr(value)


def _truthy(value):
    if isinstance(value, (bool, int, float, str, list)):
        return bool(value)
    return True


class _Slice:
    """The statements and ``if`` arms of ``ast`` that a pruned trace of it
    keeps. A statement or ``for`` survives when one of its events survived,
    and an ``if`` when a statement in one of its arms survived."""

    def __init__(self, ast: Ast, pruned):
        self.ast = ast
        events = pruned.base.events
        self.kept_nodes = {events[seq].node_id for seq in pruned.kept_seqs}
        self.taken: dict[int, set[int]] = {}  # If node -> arms taken at any time
        for event in events:
            if event.kind == "branch_taken":
                self.taken.setdefault(event.node_id, set()).add(event.detail["arm"])

    def survives(self, sid: int) -> bool:
        node = self.ast.node(sid)
        if node.kind != "If":
            return sid in self.kept_nodes
        arms, else_stmts = if_arms(self.ast, node)
        return any(self.body_survives(stmts) for _, stmts in arms) or self.body_survives(else_stmts)

    def body_survives(self, stmt_ids) -> bool:
        return any(self.survives(sid) for sid in stmt_ids)

    def tested_arms(self, node) -> list[int]:
        """The arms whose condition the slice tests: each arm whose body
        survived, and as a guard each arm that was taken but kept nothing,
        up to the last surviving arm (through every arm when the else arm
        survives), so that a test cannot fall through into a later arm."""
        arms, else_stmts = if_arms(self.ast, node)
        surviving = [i for i, (_, stmts) in enumerate(arms) if self.body_survives(stmts)]
        boundary = len(arms) if self.body_survives(else_stmts) else max(surviving)
        taken = self.taken.get(node.id, set())
        return [i for i in range(len(arms)) if i in surviving or (i in taken and i < boundary)]


def evaluate(ast: Ast, scene: Scene, pruned=None):
    """Returns (result, assign_count, final_env). With ``pruned``, a
    ``PrunedTrace`` of ``ast`` on ``scene``, runs only its slice."""
    env: dict = {"image": sw.full_canvas_patch(scene)}
    counts = {"assign": 0}
    kept = _Slice(ast, pruned) if pruned is not None else None

    def ev(nid):
        node = ast.node(nid)
        k = node.kind
        if k == "Literal":
            return node.payload["value"]
        if k == "Name":
            return env[node.payload["id"]]
        if k == "ListLit":
            return [ev(c) for c in node.children]
        if k == "Attribute":
            return getattr(ev(node.children[0]), node.payload["attr"])
        if k == "Index":
            return ev(node.children[0])[ev(node.children[1])]
        if k == "Unary":
            v = ev(node.children[0])
            return (not _truthy(v)) if node.payload["op"] == "not" else -v
        if k == "Binary":
            op = node.payload["op"]
            if op == "and":
                return _truthy(ev(node.children[0])) and _truthy(ev(node.children[1]))
            if op == "or":
                return _truthy(ev(node.children[0])) or _truthy(ev(node.children[1]))
            a, b = ev(node.children[0]), ev(node.children[1])
            return {
                "+": lambda: a + b,
                "-": lambda: a - b,
                "*": lambda: a * b,
                "/": lambda: a / b,
                "==": lambda: a == b,
                "!=": lambda: a != b,
                "<": lambda: a < b,
                "<=": lambda: a <= b,
                ">": lambda: a > b,
                ">=": lambda: a >= b,
                "in": lambda: a in b,
            }[op]()
        if k == "Call":
            args = [ev(c) for c in node.children]
            func = node.payload["func"]
            if func == "len":
                return len(args[0])
            if func == "str":
                return _plain(args[0])
            if func == "int":
                return int(args[0])
            if func == "abs":
                return abs(args[0])
            if func == "bool_to_yesno":
                return "yes" if _truthy(args[0]) else "no"
            if func == "sorted":
                return sorted(args[0], key=lambda v: v.box if isinstance(v, Patch) else v)
            if func == "min":
                return min(args[0]) if len(args) == 1 else min(args)
            if func == "max":
                return max(args[0]) if len(args) == 1 else max(args)
            if func == "distance":
                return sw.tool_distance(args[0], args[1])
            raise ValueError(func)
        if k == "MethodCall":
            recv = ev(node.children[0])
            args = [ev(c) for c in node.children[1:]]
            method = node.payload["method"]
            table = {
                "find": lambda: sw.tool_find(scene, recv, args[0]),
                "exists": lambda: sw.tool_exists(scene, recv, args[0]),
                "verify_property": lambda: sw.tool_verify_property(scene, recv, args[0], args[1]),
                "best_text_match": lambda: sw.tool_best_text_match(scene, recv, args[0]),
                "simple_query": lambda: sw.tool_simple_query(scene, recv, args[0]),
                "compute_depth": lambda: sw.tool_compute_depth(scene, recv),
            }
            return table[method]()
        raise ValueError(k)

    def run(stmt_ids):
        for sid in stmt_ids:
            node = ast.node(sid)
            if kept is not None and not kept.survives(sid):
                continue
            if node.kind == "Assign":
                env[node.payload["target"]] = ev(node.children[0])
                counts["assign"] += 1
            elif node.kind == "Return":
                raise _Done(ev(node.children[0]))
            elif node.kind == "ExprStmt":
                ev(node.children[0])
            elif node.kind == "For":
                items = ev(node.children[0])
                for item in items:
                    env[node.payload["var"]] = item
                    run(node.children[1:])
            elif node.kind == "If":
                arms, else_stmts = if_arms(ast, node)
                tested = range(len(arms)) if kept is None else kept.tested_arms(node)
                for i in tested:
                    cond, stmts = arms[i]
                    if _truthy(ev(cond)):
                        run(stmts)
                        break
                else:
                    run(else_stmts)

    try:
        run(ast.node(ast.root).children)
    except _Done as done:
        return done.value, counts["assign"], env
    return None, counts["assign"], env


def replay_check_uses(trace) -> None:
    """Replay the event list with a plain name->seq environment and assert
    every recorded use resolves to the most recent prior binding."""
    last_def: dict[str, int] = {}
    for event in trace.events:
        for name, def_seq in event.uses:
            assert name in last_def, f"use of {name!r} before any binding (seq {event.seq})"
            assert last_def[name] == def_seq, (
                f"seq {event.seq}: use of {name!r} points at {def_seq}, "
                f"most recent binding is {last_def[name]}"
            )
        for name in event.bindings:
            last_def[name] = event.seq


def grad_check(model: ToyModel, rows: tuple[TrainRow, ...], epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-finite-difference
    gradients over every parameter; relative error is measured against
    max(1, |analytic|, |numeric|)."""
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    batch = encode(model, rows)
    report, analytic = loss_and_grads(model, batch)
    if not math.isfinite(report.total):
        raise ValueError("loss is non-finite; cannot check gradients")
    W = model.W
    numeric = np.zeros_like(W)
    for i in np.ndindex(W.shape):
        saved = W[i]
        W[i] = saved + epsilon
        hi = loss_and_grads(model, batch)[0].total
        W[i] = saved - epsilon
        lo = loss_and_grads(model, batch)[0].total
        W[i] = saved
        numeric[i] = (hi - lo) / (2.0 * epsilon)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
