"""Utility scoring of rationales against an ensemble of student oracles.

Each student is asked the query bare first, then with the rationale as
context. Per-student verdicts follow the fixed table
(wrong-to-right +1, wrong-to-wrong -1, right-to-right 0; right-to-wrong is
configurable between -1 and 0) and the ensemble score is their sum.
A rationale is kept when its score >= min_score (default 0); its scored row
records that decision as ``kept``, which emit reads.

A student's truth is the query's ``expected_answer``, which scene-gen
computed on the query's own scene, so scoring needs no scene.

A built-in student kind is a dataclass here, named in ``_KINDS``, whose
fields are ``name`` and its spec keys, none with a default: the keys'
defaults and bounds are in ``config``, and ``builtin_students`` passes
every field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from hashlib import sha256
from typing import Protocol

from .config import student_keys
from .interp import normalize_answer
from .scenes import Query

class StudentOracle(Protocol):
    name: str

    def answer(self, query: Query, context: str | None = None) -> str:
        """Deterministic answer to ``query``, the row being scored;
        ``context`` carries the rationale text."""
        ...


VERDICTS = ("useful", "non_useful", "unsure", "harmful")


@dataclass
class UtilityOutcome:
    student: str
    before_correct: bool
    after_correct: bool
    verdict: str  # one of VERDICTS


@dataclass
class ScoredRationale:
    """One scored.jsonl row: these fields, each outcome a
    ``UtilityOutcome``'s fields."""

    query_id: str
    outcomes: list[UtilityOutcome]
    score: int
    kept: bool


def verdict_for(before: bool, after: bool, harm_value: int = -1) -> tuple[str, int]:
    """The verdict table; total over all four (before, after) combinations."""
    if not before and after:
        return "useful", 1
    if not before and not after:
        return "non_useful", -1
    if before and after:
        return "unsure", 0
    return "harmful", harm_value


def utility_score(
    text: str,
    query: Query,
    students: list[StudentOracle],
    harm_value: int = -1,
    min_score: int = 0,
) -> ScoredRationale:
    """Probe each student before/after seeing the rationale ``text``, sum
    verdicts, and keep the rationale when that sum reaches ``min_score``.

    An exception a student raises propagates: the caller records it as a
    row error, or aborts under --strict.
    """
    if not students:
        raise ValueError("utility_score needs at least one student")
    expected = normalize_answer(query.expected_answer)
    outcomes = []
    score = 0
    for student in students:
        before = normalize_answer(student.answer(query)) == expected
        after = normalize_answer(student.answer(query, text)) == expected
        verdict, value = verdict_for(before, after, harm_value)
        outcomes.append(UtilityOutcome(student.name, before, after, verdict))
        score += value
    return ScoredRationale(query_id=query.query_id, outcomes=outcomes, score=score,
                           kept=score >= min_score)


# ---------------------------------------------------------------------------
# built-in students (deterministic stand-ins for end-to-end models)

def _tokens(text: str) -> set[str]:
    return set(re.findall(r"[a-z0-9_]+", text.lower()))


@dataclass
class NoisyOracleStudent:
    """Answers the query's recorded ``expected_answer``, but fails on a
    seeded subset of question texts (every query sharing a text fails
    together); context cannot sway it. Only a hand-edited queries.jsonl
    whose ``expected_answer`` disagrees with its scene makes this differ
    from the scene's oracle answer; the faithfulness filter, the labels and
    ``rationale_sensitive`` already take ``expected_answer``."""

    name: str
    seed: int
    failure_rate: float

    def _fails(self, question: str) -> bool:
        digest = sha256(f"noisy|{self.seed}|{question}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self.failure_rate

    def answer(self, query: Query, context: str | None = None) -> str:
        truth = query.expected_answer
        if self._fails(query.question):
            return "unknown" if truth != "unknown" else "yes"
        return truth


@dataclass
class RationaleSensitiveStudent:
    """Fails by default; succeeds when the rationale mentions the expected
    answer. An optional token budget models a short attention span: the
    answer must appear within the first ``token_budget`` tokens."""

    name: str
    token_budget: int | None

    def answer(self, query: Query, context: str | None = None) -> str:
        if not context:
            return "unknown"
        window = context.split()
        if self.token_budget is not None:
            window = window[: self.token_budget]
        hit = normalize_answer(query.expected_answer) in _tokens(" ".join(window))
        return query.expected_answer if hit else "unknown"


@dataclass
class StubbornStudent:
    """Ignores context entirely; answers a fixed token, so its verdicts can
    only be unsure (0) or non-useful (-1)."""

    name: str
    fixed_answer: str

    def answer(self, query: Query, context: str | None = None) -> str:
        return self.fixed_answer


_KINDS = {
    "noisy_oracle": NoisyOracleStudent,
    "rationale_sensitive": RationaleSensitiveStudent,
    "stubborn": StubbornStudent,
}


def builtin_students(specs: list[dict]) -> list[StudentOracle]:
    """Build the configured ensemble from specs in the config's normal form.
    A key a spec omits takes its default from ``config.student_keys``; a key
    its kind does not have is ignored."""
    students: list[StudentOracle] = []
    for i, spec in enumerate(specs):
        args = {key: spec.get(key, default) for key, default in student_keys(spec, i).items()}
        students.append(_KINDS[args.pop("kind")](**args))
    return students
