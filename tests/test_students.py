from __future__ import annotations

from dataclasses import asdict
from itertools import product

import pytest
from hypothesis import given, strategies as st

from tracedistill.config import STUDENT_DEFAULTS
from tracedistill.errors import ConfigError
from tracedistill.scenes import Query, generate_queries, generate_scenes
from tracedistill.students import (
    builtin_students,
    utility_score,
    verdict_for,
)


class FixedStudent:
    """Scripted (before, after) behavior for verdict tests."""

    def __init__(self, name, before_right, after_right, expected="3"):
        self.name = name
        self.before_right = before_right
        self.after_right = after_right
        self.expected = expected

    def answer(self, question, context=None):
        right = self.after_right if context is not None else self.before_right
        return self.expected if right else "wrong"


class TestVerdicts:
    def test_fixed_verdict_cells(self):
        assert verdict_for(False, True) == ("useful", 1)
        assert verdict_for(False, False) == ("non_useful", -1)
        assert verdict_for(True, True) == ("unsure", 0)

    def test_harmful_default_and_switch(self):
        assert verdict_for(True, False) == ("harmful", -1)
        assert verdict_for(True, False, harm_value=0) == ("harmful", 0)

    def test_mixed_ensemble_sums_to_zero(self):
        query = Query("q", "s", "how many muffins", "3")
        students = [
            FixedStudent("a", before_right=False, after_right=True),   # +1
            FixedStudent("b", before_right=False, after_right=False),  # -1
            FixedStudent("c", before_right=True, after_right=True),    # 0
        ]
        scored = utility_score("whatever", query, students)
        assert scored.score == 0
        assert scored.kept  # retained at the default threshold

    def test_all_wrong_rejected(self):
        query = Query("q", "s", "how many muffins", "3")
        students = [FixedStudent(str(i), False, False) for i in range(4)]
        scored = utility_score("whatever", query, students)
        assert scored.score == -4
        assert not scored.kept

    def test_student_failure_propagates(self):
        class Exploding:
            name = "exploding"

            def answer(self, question, context=None):
                raise TimeoutError("slow model")

        query = Query("q", "s", "how many muffins", "3")
        with pytest.raises(TimeoutError, match="slow model"):
            utility_score("x", query, [FixedStudent("a", False, True), Exploding()])

    def test_requires_students(self):
        query = Query("q", "s", "how many muffins", "3")
        with pytest.raises(ValueError):
            utility_score("x", query, [])

    def test_score_additivity(self):
        query = Query("q", "s", "how many muffins", "3")
        students = [
            FixedStudent("a", False, True),
            FixedStudent("b", True, False),
            FixedStudent("c", True, True),
        ]
        ensemble = utility_score("x", query, students).score
        singles = sum(
            utility_score("x", query, [s]).score for s in students
        )
        assert ensemble == singles

    def test_brute_force_enumeration_k3(self):
        """All 4^3 before/after outcome tuples against a brute-force oracle."""
        query = Query("q", "s", "how many muffins", "3")
        values = {"FT": 1, "FF": -1, "TT": 0, "TF": -1}
        combos = list(product(["FT", "FF", "TT", "TF"], repeat=3))
        assert len(combos) == 64
        for combo in combos:
            students = [
                FixedStudent(f"s{i}", before_right=c[0] == "T", after_right=c[1] == "T")
                for i, c in enumerate(combo)
            ]
            scored = utility_score("x", query, students)
            expected_score = sum(values[c] for c in combo)
            assert scored.score == expected_score
            assert scored.kept == (expected_score >= 0)


def scored_at(score, min_score):
    """``utility_score``'s row for an ensemble whose verdicts sum to
    ``score``: one useful (+1) or non-useful (-1) student per point, and one
    unsure (0) student so that the ensemble is never empty."""
    query = Query("q", "s", "how many muffins", "3")
    students = [FixedStudent("u", True, True)] + [
        FixedStudent(str(i), False, score > 0) for i in range(abs(score))
    ]
    scored = utility_score("x", query, students, min_score=min_score)
    assert scored.score == score
    return scored


class TestFilter:
    def test_threshold_partition(self):
        rows = [scored_at(s, min_score=0) for s in (-2, 0, 3)]
        assert [s.score for s in rows if s.kept] == [0, 3]
        assert [s.score for s in rows if not s.kept] == [-2]

    def test_strict_threshold(self):
        rows = [scored_at(s, min_score=1) for s in (-1, 0, 1)]
        assert [s.score for s in rows if s.kept] == [1]

    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=30), st.integers(-4, 4))
    def test_monotone(self, scores, threshold):
        kept_low = {i for i, s in enumerate(scores) if scored_at(s, threshold).kept}
        kept_high = {i for i, s in enumerate(scores) if scored_at(s, threshold + 1).kept}
        assert kept_high <= kept_low


class TestBuiltinStudents:
    def _corpus(self):
        return generate_queries(generate_scenes(30, seed=3), seed=4)

    def test_stubborn_verdicts_limited(self):
        queries = self._corpus()
        student = builtin_students([{"kind": "stubborn"}])[0]
        for query in queries:
            scored = utility_score("text", query, [student])
            assert scored.score in (0, -1)

    def test_rationale_sensitive_empty_rationale(self):
        queries = self._corpus()
        student = builtin_students([{"kind": "rationale_sensitive"}])[0]
        query = queries[0]
        scored = utility_score("", query, [student])
        assert scored.outcomes[0].verdict == "non_useful"
        assert scored.score == -1

    def test_rationale_sensitive_flips_on_answer_mention(self):
        queries = self._corpus()
        student = builtin_students([{"kind": "rationale_sensitive"}])[0]
        query = queries[0]
        text = f"Therefore the answer is {query.expected_answer}."
        scored = utility_score(text, query, [student])
        assert scored.outcomes[0].verdict == "useful"
        assert scored.score == 1

    def test_rationale_sensitive_token_budget(self):
        queries = self._corpus()
        query = queries[0]
        filler = "filler " * 50
        text = filler + f"the answer is {query.expected_answer}."
        narrow, wide = builtin_students(
            [
                {"kind": "rationale_sensitive", "token_budget": 10},
                {"kind": "rationale_sensitive", "token_budget": 200},
            ]
        )
        assert narrow.answer(query, text) == "unknown"
        assert wide.answer(query, text) == query.expected_answer
        # The budget counts whitespace-split tokens: the answer is the third.
        short, exact = builtin_students(
            [
                {"kind": "rationale_sensitive", "token_budget": 2},
                {"kind": "rationale_sensitive", "token_budget": 3},
            ]
        )
        cups = Query("q0", "s0", "how many cups", "2")
        assert short.answer(cups, "There are 2 cups.") == "unknown"
        assert exact.answer(cups, "There are 2 cups.") == "2"

    def test_noisy_oracle_reproducible_accuracy(self):
        queries = self._corpus()
        make = lambda: builtin_students(
            [{"kind": "noisy_oracle", "seed": 9, "failure_rate": 0.4}]
        )[0]
        def accuracy(student):
            hits = sum(
                1 for q in queries if student.answer(q) == q.expected_answer
            )
            return hits / len(queries)

        first, second = accuracy(make()), accuracy(make())
        assert first == second
        assert 0.3 <= first <= 0.9  # failure_rate 0.4 keeps roughly 60% right

    def test_noisy_oracle_ignores_context(self):
        queries = self._corpus()
        student = builtin_students(
            [{"kind": "noisy_oracle", "seed": 9, "failure_rate": 0.4}]
        )[0]
        for query in queries[:10]:
            assert student.answer(query) == student.answer(query, "hint")

    def test_a_bare_spec_takes_every_field_from_student_defaults(self):
        built = builtin_students([{"kind": kind} for kind in STUDENT_DEFAULTS])
        assert [asdict(student) for student in built] == [
            {"name": f"{kind}_{i}", **defaults} for i, (kind, defaults) in enumerate(STUDENT_DEFAULTS.items())
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown student kind"):
            builtin_students([{"kind": "psychic"}])

    def test_queries_sharing_a_question_text_each_answer_their_own(self):
        # Two scenes can hold different answers to one question text; each
        # query must be answered (and scored) for itself, not for the other.
        queries = [Query("q0", "s0", "how many cups", "2"),
                   Query("q1", "s1", "how many cups", "5")]
        oracle, sensitive = builtin_students(
            [{"kind": "noisy_oracle", "failure_rate": 0.0}, {"kind": "rationale_sensitive"}]
        )
        for query in queries:
            text = f"Therefore the answer is {query.expected_answer}."
            assert oracle.answer(query) == query.expected_answer
            assert sensitive.answer(query, text) == query.expected_answer
            verdicts = [o.verdict for o in utility_score(text, query, [oracle, sensitive]).outcomes]
            assert verdicts == ["unsure", "useful"]
