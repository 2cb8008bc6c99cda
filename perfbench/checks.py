"""Output checks for the benchmark, made apart from the program.

Each check compares a stage file against a computation this module makes
itself, or against a property the method must have; none compares against a
stored copy of earlier output. The checks read the stage files after the
timed part of a run has ended.

``Report.problems`` holds the failed checks: the run is not correct. A
query that a stage dropped, or whose scored row disagrees with
``expected_outcomes`` where that is counted, is a failed operation instead;
``check_cell`` returns those query ids for one pass through the funnel.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from tracedistill import scenes as sw
from tracedistill.dsl import if_arms, parse
from tracedistill.interp import normalize_answer
from tracedistill.jsonlio import read_json, read_jsonl

LAST_SENTENCE = re.compile(r"^Therefore the answer is (.+)\.$")

# The verdict table of the method: (before_correct, after_correct) -> verdict.
VERDICTS = {
    (False, True): ("useful", 1),
    (False, False): ("non_useful", -1),
    (True, True): ("unsure", 0),
    (True, False): ("harmful", None),  # value is the config's harm_verdict
}


@dataclass
class Report:
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)


# ---------------------------------------------------------------------------
# a plain evaluator for the DSL: no events, no def-use tracking, no interp


class _Returned(Exception):
    def __init__(self, value):
        self.value = value


def _truthy(value) -> bool:
    if isinstance(value, (bool, int, float, str, list)):
        return bool(value)
    return True


def _as_str(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
}

_BUILTINS = {
    "len": lambda a: len(a[0]),
    "str": lambda a: _as_str(a[0]),
    "int": lambda a: int(a[0]),
    "abs": lambda a: abs(a[0]),
    "bool_to_yesno": lambda a: "yes" if _truthy(a[0]) else "no",
    "sorted": lambda a: sorted(a[0], key=lambda v: v.box if isinstance(v, sw.Patch) else v),
    "min": lambda a: min(a[0]) if len(a) == 1 else min(a),
    "max": lambda a: max(a[0]) if len(a) == 1 else max(a),
    "distance": lambda a: sw.tool_distance(a[0], a[1]),
}


def evaluate(ast, scene: sw.Scene):
    """Run a parsed program and return its result; any program fault raises."""
    env = {ast.node(ast.root).payload["param"]: sw.full_canvas_patch(scene)}

    def ev(nid):
        node = ast.node(nid)
        kind, kids, pay = node.kind, node.children, node.payload
        if kind == "Literal":
            return pay["value"]
        if kind == "Name":
            return env[pay["id"]]
        if kind == "ListLit":
            return [ev(c) for c in kids]
        if kind == "Attribute":
            return getattr(ev(kids[0]), pay["attr"])
        if kind == "Index":
            return ev(kids[0])[ev(kids[1])]
        if kind == "Unary":
            value = ev(kids[0])
            return (not _truthy(value)) if pay["op"] == "not" else -value
        if kind == "Binary":
            op = pay["op"]
            if op == "and":
                return _truthy(ev(kids[0])) and _truthy(ev(kids[1]))
            if op == "or":
                return _truthy(ev(kids[0])) or _truthy(ev(kids[1]))
            return _BINARY[op](ev(kids[0]), ev(kids[1]))
        if kind == "Call":
            return _BUILTINS[pay["func"]]([ev(c) for c in kids])
        if kind == "MethodCall":
            patch = ev(kids[0])
            args = [ev(c) for c in kids[1:]]
            tool = getattr(sw, f"tool_{pay['method']}")
            return tool(scene, patch, *args)
        raise ValueError(f"node kind {kind}")

    def run(stmt_ids):
        for sid in stmt_ids:
            node = ast.node(sid)
            if node.kind == "Assign":
                env[node.payload["target"]] = ev(node.children[0])
            elif node.kind == "Return":
                raise _Returned(ev(node.children[0]))
            elif node.kind == "ExprStmt":
                ev(node.children[0])
            elif node.kind == "For":
                for item in ev(node.children[0]):
                    env[node.payload["var"]] = item
                    run(node.children[1:])
            elif node.kind == "If":
                arms, else_stmts = if_arms(ast, node)
                for cond, stmts in arms:
                    if _truthy(ev(cond)):
                        run(stmts)
                        break
                else:
                    run(else_stmts)
            else:
                raise ValueError(f"statement kind {node.kind}")

    try:
        run(ast.node(ast.root).children)
    except _Returned as done:
        return done.value
    raise ValueError("program ended without return")


def _to_record_value(value):
    """The JSON form traces.jsonl gives a result value."""
    if isinstance(value, sw.Patch):
        return {"__patch__": {"scene": value.scene_ref, "box": list(value.box),
                              "matched": value.matched_object}}
    if isinstance(value, list):
        return [_to_record_value(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# the three student definitions, recomputed per query


def _tokens(text: str) -> set[str]:
    return set(re.findall(r"[a-z0-9_]+", text.lower()))


def _noisy_fails(seed: int, question: str, failure_rate: float) -> bool:
    digest = sha256(f"noisy|{seed}|{question}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < failure_rate


def expected_outcomes(config, query: sw.Query, scene: sw.Scene, text: str) -> list[tuple]:
    """(student, before_correct, after_correct) for each configured student,
    answering for this query's own scene and expected answer.

    noisy_oracle answers from the ground-truth oracle on the scene unless its
    seeded per-question draw fails it; rationale_sensitive answers the
    expected answer only when the rationale (within its token budget) holds
    the trigger; stubborn always answers its fixed token."""
    expected = normalize_answer(query.expected_answer)
    out = []
    for i, spec in enumerate(config["students"]):
        kind = spec["kind"]
        name = spec.get("name", f"{kind}_{i}")
        if kind == "noisy_oracle":
            seed = int(spec.get("seed", config.seeds["students"]))
            truth = sw.answer_oracle(scene, query.question)
            if _noisy_fails(seed, query.question, float(spec.get("failure_rate", 0.0))):
                truth = "unknown" if truth != "unknown" else "yes"
            before = after = normalize_answer(truth) == expected
        elif kind == "rationale_sensitive":
            window = text.split()
            if spec.get("token_budget") is not None:
                window = window[: spec["token_budget"]]
            seen = _tokens(" ".join(window))
            if spec.get("trigger_mode", "answer") == "answer":
                hit = expected in seen
            else:
                hit = bool(_tokens(query.question) & seen)
            before = normalize_answer("unknown") == expected
            after = hit or before
        elif kind == "stubborn":
            before = after = normalize_answer(spec.get("fixed_answer", "yes")) == expected
        else:
            raise ValueError(f"unknown student kind {kind!r}")
        out.append((name, before, after))
    return out


def shared_text_queries(queries: list[sw.Query]) -> set[str]:
    """Ids of queries whose question text another query in the corpus asks
    with a different expected answer."""
    answers: dict[str, set[str]] = {}
    for q in queries:
        answers.setdefault(q.question, set()).add(normalize_answer(q.expected_answer))
    return {q.query_id for q in queries if len(answers[q.question]) > 1}


# ---------------------------------------------------------------------------
# checks on one corpus and one edit/score/emit/train cell


@dataclass
class Corpus:
    """The base corpus a cell reads: scenes, queries, programs and traces."""

    queries: list[sw.Query]
    scenes: dict[str, sw.Scene]
    faithful: set[str]  # query ids whose trace is ok with the expected answer
    missing: set[str]  # query ids with no program or no trace row


def check_corpus(config, report: Report) -> Corpus:
    """Traces agree with the plain evaluator; the faithful count is exact."""
    queries = sw.load_queries(config.path("queries"))
    by_id = {q.query_id: q for q in queries}
    scenes = {s.scene_id: s for s in sw.load_scenes(config.path("scenes"))}
    sources = {row["query_id"]: row["source"] for row in read_jsonl(config.path("programs"))}
    n = int(config["scene_count"])
    if len(queries) != n:
        report.fail(f"{len(queries)} queries for {n} scenes")

    faithful = set()
    traced = set()
    asts = {}
    for rec in read_jsonl(config.path("traces")):
        qid = rec["query_id"]
        traced.add(qid)
        query = by_id[qid]
        source = sources[qid]
        try:
            if source not in asts:
                asts[source] = parse(source)
            result = _to_record_value(evaluate(asts[source], scenes[query.scene_id]))
        except Exception as exc:
            if rec["status"] != "runtime_error":
                report.fail(f"{qid}: trace status {rec['status']}, evaluator raised {exc!r}")
            continue
        if rec["status"] != "ok" or rec["result"] != result:
            report.fail(f"{qid}: trace gives {rec['status']}/{rec['result']!r}, evaluator {result!r}")
            continue
        if isinstance(result, (str, int, float)) and normalize_answer(
            _as_str(result)
        ) == normalize_answer(query.expected_answer):
            faithful.add(qid)

    want = n - math.ceil(float(config["corruption_rate"]) * n)
    if len(faithful) != want:
        report.fail(f"{len(faithful)} faithful traces, want n - ceil(rate*n) = {want}")
    manifest = config.path("manifest")
    if manifest.exists():
        counts = read_json(manifest)["counts"]
        if counts.get("faithful_kept") != len(faithful):
            report.fail(f"manifest faithful_kept {counts.get('faithful_kept')} != {len(faithful)}")
    missing = {q.query_id for q in queries} - traced
    return Corpus(queries=queries, scenes=scenes, faithful=faithful, missing=missing)


def check_cell(corpus: Corpus, config, report: Report, *, count_student_faults: bool,
               trained: bool) -> tuple[set[str], dict[str, str]]:
    """Checks one pass of edit -> score -> emit (-> train) over ``corpus``.

    Returns the failed query ids of the pass and the rationale text per
    query id. A scored row whose student outcomes differ from
    ``expected_outcomes`` fails when its question text is shared with a
    query of another answer and ``count_student_faults`` is set, is left
    unchecked when it is shared and the flag is not set, and is a problem
    otherwise: the text-keyed student lookup can only go wrong on shared
    text."""
    by_id = {q.query_id: q for q in corpus.queries}
    n = len(corpus.queries)
    harm = int(config["harm_verdict"])
    min_score = int(config["min_score"])

    texts = {}
    for row in read_jsonl(config.path("rationales")):
        qid = row["query_id"]
        texts[qid] = row["text"]
        if qid not in corpus.faithful:
            report.fail(f"{qid}: rationale for a trace that is not faithful")
            continue
        match = LAST_SENTENCE.match(row["sentences"][-1]) if row["sentences"] else None
        if match is None:
            report.fail(f"{qid}: last sentence {row['sentences'][-1:]!r}")
        elif normalize_answer(match.group(1)) != normalize_answer(by_id[qid].expected_answer):
            report.fail(f"{qid}: rationale answers {match.group(1)!r}")
    failed = set(corpus.missing) | (corpus.faithful - set(texts))

    shared = shared_text_queries(corpus.queries)
    kept = set()
    scored = set()
    for row in read_jsonl(config.path("scored")):
        qid = row["query_id"]
        scored.add(qid)
        total = 0
        for o in row["outcomes"]:
            if o["verdict"] == "abstained":
                ok, value = not (o["before_correct"] or o["after_correct"]), 0
            else:
                verdict, value = VERDICTS[(o["before_correct"], o["after_correct"])]
                ok, value = verdict == o["verdict"], harm if value is None else value
            if not ok:
                report.fail(f"{qid}: verdict {o['verdict']} breaks the verdict table: {o}")
            total += value
        if total != row["score"]:
            report.fail(f"{qid}: score {row['score']} != verdict sum {total}")
        if row["score"] >= min_score:
            kept.add(qid)
        query = by_id[qid]
        got = [(o["student"], o["before_correct"], o["after_correct"]) for o in row["outcomes"]]
        want = expected_outcomes(config, query, corpus.scenes[query.scene_id], texts.get(qid, ""))
        if got != want:
            if qid not in shared:
                report.fail(f"{qid}: student outcomes {got} != recomputed {want}")
            elif count_student_faults:
                failed.add(qid)
    failed |= set(texts) - scored

    dataset = config.path("dataset")
    if dataset.exists():
        rows = list(read_jsonl(dataset))
        meta, rows = rows[0].get("__meta__", {}), rows[1:]
        masked = sum(1 for r in rows if r["rationale"] is None)
        if len(rows) != n or meta.get("rows") != n:
            report.fail(f"dataset has {len(rows)} rows (header {meta.get('rows')}), want {n}")
        if masked != n - len(kept) or meta.get("masked") != masked:
            report.fail(f"dataset masks {masked} (header {meta.get('masked')}), "
                        f"want n - score_kept = {n - len(kept)}")
        with_text = {r["query_id"] for r in rows if r["rationale"] is not None}
        if with_text != kept:
            report.fail("dataset rationales are not exactly the score-kept ones")
    if trained:
        m = read_json(config.path("metrics"))
        losses = (m["L"], m["L_label"], m["L_rationale"])
        if not all(math.isfinite(x) for x in losses):
            report.fail(f"non-finite losses {losses}")
        elif m["L"] != m["L_label"] + m["lambda"] * m["L_rationale"]:
            report.fail(f"L != L_label + lambda * L_rationale: {m}")
    return failed, texts


def check_grid(cell_texts: dict[tuple[int, int, int], dict[str, str]], report: Report) -> None:
    """Every cell holds the same query ids; bridging never shortens a
    rationale; pruning never lengthens an unbridged one."""
    ids = {frozenset(t) for t in cell_texts.values()}
    if len(ids) != 1:
        report.fail(f"cells hold {len(ids)} different query id sets")
        return

    def tokens(cell, qid):
        return len(cell_texts[cell][qid].split())

    for qid in next(iter(ids)):
        for p in (0, 1):
            for m in (0, 1):
                if tokens((p, m, 1), qid) < tokens((p, m, 0), qid):
                    report.fail(f"{qid}: bridging shortened the rationale (prune={p}, merge={m})")
        for m in (0, 1):
            if tokens((1, m, 0), qid) > tokens((0, m, 0), qid):
                report.fail(f"{qid}: pruning lengthened the unbridged rationale (merge={m})")


def digest_files(root: Path) -> dict[str, str]:
    """sha256 of every stage file under ``root``; the manifest holds timings
    and is left out."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = sha256(path.read_bytes()).hexdigest()
    return out
