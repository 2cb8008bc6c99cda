"""Deterministic offline program generator and the optional external client.

Five program sketches cover the question grammar: count-loop,
existence-check, attribute-lookup, spatial-comparison, and relation-lookup.
Each sketch includes a couple of statements whose values feed nothing, so
that pruning has real work to do. A seeded, exact-count fraction of a batch
can be emitted as deliberately wrong variants (flipped comparison,
off-by-one count, mangled answer) to exercise the faithfulness filter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import scenes as sw
from .dsl import parse
from .errors import GenerationError
from .jsonlio import post_json
from .scenes import Query, Scene


@dataclass
class Program:
    """One programs.jsonl row: a generated program as source text; exec is
    the stage that parses it."""

    program_id: str
    query_id: str
    source: str


def _count_source(name: str, corrupted: bool) -> str:
    ret = "count + 1" if corrupted else "count"
    return "\n".join(
        [
            "count = 0",
            "width = 224",
            f"patches = image.find('{name}')",
            "num = len(patches)",
            "for p in patches:",
            "    count = count + 1",
            f"return str({ret})",
        ]
    )


def _exists_source(name: str, corrupted: bool) -> str:
    arg = "not flag" if corrupted else "flag"
    return "\n".join(
        [
            f"flag = image.exists('{name}')",
            "checked = 224",
            f"return bool_to_yesno({arg})",
        ]
    )


def _attribute_source(attr_class: str, name: str, corrupted: bool) -> str:
    options = ", ".join(f"'{v}'" for v in sw.ATTRIBUTE_CLASSES[attr_class])
    ret = "answer + '?'" if corrupted else "answer"
    return "\n".join(
        [
            f"patches = image.find('{name}')",
            "target = patches[0]",
            "hint = target.compute_depth()",
            f"answer = target.best_text_match([{options}])",
            f"return {ret}",
        ]
    )


def _spatial_source(a: str, rel: str, b: str, corrupted: bool) -> str:
    axis, op = sw.SPATIAL_RELATIONS[rel]
    if corrupted:
        op = {"<": ">", ">": "<"}[op]
    return "\n".join(
        [
            f"a_patches = image.find('{a}')",
            "a = a_patches[0]",
            f"b_patches = image.find('{b}')",
            "b = b_patches[0]",
            "gap = distance(a, b)",
            f"if a.{axis} {op} b.{axis}:",
            "    answer = 'yes'",
            "else:",
            "    answer = 'no'",
            "return answer",
        ]
    )


def _relation_source(name: str, pred: str, corrupted: bool) -> str:
    ret = "answer + '?'" if corrupted else "answer"
    return "\n".join(
        [
            f"patches = image.find('{name}')",
            "anchor = patches[0]",
            "probe = anchor.compute_depth()",
            f"answer = image.simple_query('what is the {name} {pred}')",
            f"return {ret}",
        ]
    )


_TEMPLATES = {
    "count": _count_source,
    "exists": _exists_source,
    "attribute": _attribute_source,
    "spatial": _spatial_source,
    "relation": _relation_source,
}


def template_source(question: str, corrupted: bool = False) -> str:
    """Instantiate the sketch matching the question; raises GenerationError
    when no template matches."""
    parsed = sw.parse_question(question)
    if parsed is None:
        raise GenerationError(f"no template matches question {question!r}")
    form, parts = parsed
    return _TEMPLATES[form](*parts, corrupted)


def generate_program(query: Query, *, corrupted: bool = False) -> Program:
    """Deterministic program for one query. Whether a query in a batch is
    corrupted is decided by generate_programs so the corrupted count over a
    batch is exact; the flag here makes a single corrupted instance."""
    return Program(
        program_id=f"p{query.query_id}",
        query_id=query.query_id,
        source=template_source(query.question, corrupted),
    )


def generate_programs(queries: list[Query], corruption_rate: float, seed: int) -> list[Program]:
    """Batch generation with exactly ceil(corruption_rate * n) corrupted
    programs, chosen by seeded sampling."""
    n = len(queries)
    rng = random.Random(seed)
    corrupted_idx = set(rng.sample(range(n), math.ceil(corruption_rate * n)))
    return [generate_program(q, corrupted=(i in corrupted_idx)) for i, q in enumerate(queries)]


# ---------------------------------------------------------------------------
# external generator client (the LLM role; disabled by default)

def scene_summary(scene: Scene) -> str:
    parts = [f"{o.name}@{o.box}" for o in scene.objects]
    return f"scene {scene.scene_id}: " + "; ".join(parts)


def external_generate(settings: dict, query: Query, summary: str) -> Program:
    """Fetch a program from the remote generator that ``settings`` (the
    config's ``external_generator``) names; the returned source must parse
    or the example is rejected with a GenerationError."""
    request = {
        "question": query.question,
        "scene_summary": summary,
        "api_doc_version": settings["api_doc_version"],
    }
    try:
        payload = post_json(settings["endpoint"], request, settings["timeout"])
    except Exception as exc:
        raise GenerationError(f"external generator transport failure: {exc}") from exc
    source = payload.get("source") if isinstance(payload, dict) else None
    if not isinstance(source, str):
        raise GenerationError("external generator returned no source")
    try:
        parse(source)
    except Exception as exc:
        raise GenerationError(f"external generator returned unparseable source: {exc}") from exc
    return Program(program_id=f"p{query.query_id}", query_id=query.query_id, source=source)
