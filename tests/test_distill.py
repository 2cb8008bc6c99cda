from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracedistill import distill, pipeline
from tracedistill.config import default_config
from tracedistill.distill import (
    DistillExample,
    TrainConfig,
    TrainRow,
    build_model,
    emit_dataset,
    encode,
    extract_keywords,
    load_dataset,
    loss_and_grads,
    split_dataset,
    train,
    training_input,
)
from tracedistill.errors import EmissionError
from tracedistill.jsonlio import read_jsonl
from tracedistill.scenes import Query

from .conftest import build_correlation_task
from .oracles import grad_check


def make_queries(n, prefix="q"):
    return [Query(f"{prefix}{i}", f"s{i}", f"how many muffins {i}", str(i % 4)) for i in range(n)]


class TestEmitDataset:
    def test_row_and_mask_counts(self, tmp_path):
        queries = make_queries(15)
        kept = {f"q{i}": f"the answer is {i % 4}" for i in range(10)}
        path = tmp_path / "dataset.jsonl"
        assert emit_dataset(kept, queries, path) == 15
        rows = [r for r in read_jsonl(path) if "__meta__" not in r]
        assert len(rows) == 15
        assert sum(1 for r in rows if r["rationale"] is None) == 5

    def test_empty_kept_header_only_when_no_queries(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        assert emit_dataset({}, [], path) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and "__meta__" in lines[0]

    def test_dangling_query_listed(self, tmp_path):
        with pytest.raises(EmissionError, match="ghost"):
            emit_dataset({"ghost": "t"}, make_queries(2), tmp_path / "d.jsonl")

    def test_re_emission_byte_identical(self, tmp_path):
        queries = make_queries(8)
        kept = {f"q{i}": "…" for i in range(4)}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_dataset(kept, queries, a)
        emit_dataset(kept, queries, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_round_trip(self, tmp_path):
        queries = make_queries(6)
        kept = {f"q{i}": f"text {i}" for i in range(3)}
        path = tmp_path / "dataset.jsonl"
        emit_dataset(kept, queries, path)
        examples = load_dataset(path)
        assert len(examples) == 6
        assert sum(1 for e in examples if e.rationale is None) == 3


class TestKeywords:
    def test_stopwords_removed(self):
        assert "the" not in extract_keywords("Therefore the answer is 3.")
        assert "3" in extract_keywords("Therefore the answer is 3.")

    def test_quoted_tokens_unwrapped(self):
        assert "muffin" in extract_keywords("Called find('muffin') and got 3.")


def small_batch():
    return training_input([
        DistillExample("a", "what color is the cup", "red", "answer red"),
        DistillExample("b", "what color is the box", "blue", "answer blue"),
        DistillExample("c", "how many cups", "2", None),
        DistillExample("d", "what color is the mug", "red", "answer red"),
    ])


def correlation_rows(seed, n=300):
    return training_input(build_correlation_task(seed, n=n))


class TestLoss:
    def test_identity_holds(self):
        batch = small_batch()
        model = build_model(batch, lam=1.0, seed=3)
        report = loss_and_grads(model, encode(model, batch))[0]
        assert report.total == report.label_loss + report.lam * report.rationale_loss

    def test_identity_with_other_lambda(self):
        batch = small_batch()
        model = build_model(batch, lam=0.25, seed=3)
        report = loss_and_grads(model, encode(model, batch))[0]
        assert report.total == report.label_loss + 0.25 * report.rationale_loss

    def test_all_masked_keeps_label_only(self):
        batch = [TrainRow(f"q {i}", str(i % 2), None) for i in range(6)]
        model = build_model(batch, lam=1.0, seed=0)
        report = loss_and_grads(model, encode(model, batch))[0]
        assert report.rationale_loss == 0.0
        assert report.total == report.label_loss

    def test_uniform_init_three_class_label_loss(self):
        batch = [TrainRow(f"thing {i} marker{i % 7}", ["a", "b", "c"][i % 3], None) for i in range(30)]
        model = build_model(batch, lam=1.0, seed=5, init_scale=0.001)
        report = loss_and_grads(model, encode(model, batch))[0]
        assert abs(report.label_loss - math.log(3)) / math.log(3) < 0.10

    def test_mask_invariance(self):
        batch = small_batch()
        model = build_model(batch, lam=1.0, seed=3)
        before = loss_and_grads(model, encode(model, batch))[0]
        extended = batch + (TrainRow("what color is the cup", "red", None),)
        after = loss_and_grads(model, encode(model, extended))[0]
        assert after.rationale_loss == before.rationale_loss
        assert after.label_loss != before.label_loss

    def test_non_negativity(self):
        for seed in range(5):
            batch = correlation_rows(seed, n=40)
            model = build_model(batch, lam=1.0, seed=seed)
            report = loss_and_grads(model, encode(model, batch))[0]
            assert report.label_loss >= 0.0
            assert report.rationale_loss >= 0.0

    def test_empty_batch_rejected(self):
        model = build_model(small_batch(), seed=0)
        with pytest.raises(ValueError):
            loss_and_grads(model, encode(model, ()))

    def test_unknown_label_rejected(self):
        model = build_model(small_batch(), seed=0)
        with pytest.raises(ValueError, match="green"):
            encode(model, (TrainRow("what color is the cup", "green", None),))


def feature_rows(model, rows):
    """One feature row per row, built from ``feature_key`` without grouping."""
    X = np.zeros((len(rows), len(model.feature_index)))
    for i, r in enumerate(rows):
        X[i, list(model.feature_key(r.question))] = 1.0
    return X


def dense_reference(model, rows):
    """The all-rows formula: keyword targets from an N x K loop, BCE and
    sigmoid over every row of R, masked rows of dR zeroed afterwards."""
    X = feature_rows(model, rows)
    y = np.array([model.label_vocab.index(r.label) for r in rows])
    mask = np.array([r.keywords is not None for r in rows])
    n, K = len(rows), len(model.keywords)
    T = np.zeros((n, K))
    for i, r in enumerate(rows):
        if r.keywords is None:
            continue
        present = set(r.keywords)
        for j, k in enumerate(model.keywords):
            if k in present:
                T[i, j] = 1.0

    V = len(model.label_vocab)
    Z = X @ model.W[:V].T
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    P = E / E.sum(axis=1, keepdims=True)
    label_loss = float((-np.log(np.clip(P[np.arange(n), y], 1e-12, None))).mean())
    dZ = P.copy()
    dZ[np.arange(n), y] -= 1.0
    dW = np.zeros_like(model.W)
    dW[:V] = (dZ.T @ X) / n
    unmasked = int(mask.sum())
    rationale_loss = 0.0
    if K > 0 and unmasked > 0:
        R = X @ np.stack([model.W[r] for r in model.key_rows]).T
        bce = np.maximum(R, 0.0) - R * T + np.log1p(np.exp(-np.abs(R)))
        rationale_loss = float(bce.sum(axis=1)[mask].mean())
        sig = np.empty_like(R)
        pos = R >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-R[pos]))
        e = np.exp(R[~pos])
        sig[~pos] = e / (1.0 + e)
        dR = (sig - T) / unmasked
        dR[~mask] = 0.0
        dWk = dR.T @ X
        for j, r in enumerate(model.key_rows):
            dW[r] += model.lam * dWk[j]
    total = label_loss + model.lam * rationale_loss
    return label_loss, rationale_loss, total, dW


WORDS = ["cup", "box", "red", "blue", "2", "mug", "left", "count"]


@st.composite
def masked_batches(draw):
    n = draw(st.integers(1, 10))
    rows = [
        DistillExample(
            f"q{i}",
            " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))),
            draw(st.sampled_from(["red", "blue", "2"])),
            " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))),
        )
        for i in range(n)
    ]
    kind = draw(st.sampled_from(["all_masked", "none_masked", "random"]))
    if kind == "random":
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        keep = [kind == "none_masked"] * n
    batch = [e if k else DistillExample(e.query_id, e.question, e.label, None) for e, k in zip(rows, keep)]
    return training_input(rows), training_input(batch)


def assert_matches_dense_reference(model, batch):
    """The grouped loss sums rows in another order than the per-row formula,
    so they agree to rounding: each loss within 1e-12 relative, dW within
    1e-12 of the reference's largest entry."""
    report, dW = loss_and_grads(model, encode(model, batch))
    label_loss, rationale_loss, total, ref_dW = dense_reference(model, batch)
    for got, want in ((report.label_loss, label_loss), (report.rationale_loss, rationale_loss),
                      (report.total, total)):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)
    assert np.max(np.abs(dW - ref_dW)) <= 1e-12 * np.max(np.abs(ref_dW))


class TestMaskedHead:
    @settings(max_examples=150, deadline=None)
    @given(
        masked_batches(),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.integers(0, 5),
        st.sampled_from([0.01, 1.0, 8.0]),
    )
    def test_matches_dense_reference_to_rounding(self, drawn, lam, seed, scale):
        corpus, batch = drawn
        # the model's keywords come from the unmasked corpus, so an
        # all-masked batch still has a non-empty rationale head
        model = build_model(corpus, lam=lam, seed=seed, init_scale=scale)
        assert_matches_dense_reference(model, batch)

    @settings(max_examples=100, deadline=None)
    @given(masked_batches())
    def test_unmasked_groups_are_the_encoding_of_the_unmasked_rows(self, drawn):
        corpus, batch = drawn
        model = build_model(corpus, seed=0)
        encoded = encode(model, batch)
        unmasked = tuple(r for r in batch if r.keywords is not None)
        assert encoded.m == len(unmasked)
        if not unmasked:
            assert encoded.Xm.shape == (0, len(model.feature_index))
            assert encoded.counts_m.shape == (0,) and encoded.T.shape == (0, len(model.keywords))
            return
        alone = encode(model, unmasked)
        assert np.array_equal(alone.X, encoded.Xm)
        assert np.array_equal(alone.counts, encoded.counts_m)
        assert np.array_equal(alone.T, encoded.T)

    def test_a_question_with_no_known_token_has_a_zero_feature_row(self):
        batch = small_batch() + training_input([
            DistillExample("e", "?", "blue", "answer blue"),
            DistillExample("f", "?", "2", None),
        ])
        model = build_model(batch, lam=1.0, seed=3, init_scale=1.0)
        encoded = encode(model, batch)
        assert not encoded.X[0].any() and not encoded.Xm[0].any()
        assert_matches_dense_reference(model, batch)
        assert grad_check(model, batch, epsilon=1e-5) <= 1e-5


class TestGrouping:
    """The loss reads the rows only through each feature row's counts, so
    row order and a uniform repetition of the rows change no bit of it."""

    @staticmethod
    def _loss(examples):
        model = build_model(correlation_rows(0, n=200), lam=1.0, seed=0, init_scale=1.0)
        report, dW = loss_and_grads(model, encode(model, examples))
        return report, dW

    def test_permuting_the_rows_changes_no_bit(self):
        examples = correlation_rows(0, n=200)
        shuffled = list(examples)
        random.Random(1).shuffle(shuffled)
        report, dW = self._loss(examples)
        report_shuffled, dW_shuffled = self._loss(shuffled)
        assert report_shuffled == report
        assert np.array_equal(dW_shuffled, dW)

    def test_repeating_every_row_changes_no_bit(self):
        examples = correlation_rows(0, n=200)
        report, dW = self._loss(examples)
        report_twice, dW_twice = self._loss(examples + examples)
        assert report_twice == report
        assert np.array_equal(dW_twice, dW)


class TestGradCheck:
    def test_seeded_batches_pass_tolerance(self):
        for seed in range(3):
            batch = correlation_rows(seed, n=25)
            model = build_model(batch, lam=1.0, seed=seed)
            assert grad_check(model, batch, epsilon=1e-5) <= 1e-5

    def test_single_class_label_gradient_zero(self):
        batch = [TrainRow(f"q {i}", "only", None) for i in range(4)]
        model = build_model(batch, lam=1.0, seed=1)
        _, dW = loss_and_grads(model, encode(model, batch))
        assert np.allclose(dW[: len(model.label_vocab)], 0.0)

    def test_lambda_zero_rationale_gradient_zero(self):
        batch = small_batch()
        model = build_model(batch, lam=0.0, seed=2)
        _, dW = loss_and_grads(model, encode(model, batch))
        assert np.allclose(dW[len(model.label_vocab) :], 0.0)

    def test_epsilon_validated(self):
        batch = small_batch()
        model = build_model(batch, seed=0)
        with pytest.raises(ValueError):
            grad_check(model, batch, epsilon=0.5)

    def test_tied_rows_share_storage(self):
        batch = small_batch()
        model = build_model(batch, seed=0)
        assert "red" in model.label_vocab and "red" in model.keywords
        assert model.key_rows[model.keywords.index("red")] == model.label_vocab.index("red")


def emit_and_config(tmp_path, examples):
    """A default config in ``tmp_path`` whose dataset.jsonl holds ``examples``."""
    config = default_config(tmp_path)
    queries = [Query(e.query_id, "s", e.question, e.label) for e in examples]
    texts = {e.query_id: e.rationale for e in examples if e.rationale is not None}
    emit_dataset(texts, queries, config.path("dataset"))
    return config


class TestTrainingInput:
    def test_a_masked_row_and_an_empty_rationale_differ(self):
        masked = DistillExample("q0", "how many cups", "2", None)
        empty = DistillExample("q0", "how many cups", "2", "")
        assert training_input([masked]) != training_input([empty])

    def test_rationales_with_equal_keywords_train_to_identical_metrics(self, tmp_path):
        examples = build_correlation_task(0, n=60)
        # other query ids, and rationales that add only stopwords, as the
        # default bridge sentences do
        reworded = [
            DistillExample(
                f"other-{e.query_id}", e.question, e.label,
                None if e.rationale is None else f"Recall that {e.rationale}. Next, it comes into play.",
            )
            for e in examples
        ]
        assert [e.rationale for e in reworded] != [e.rationale for e in examples]
        assert training_input(reworded) == training_input(examples)
        metrics = []
        for name, rows in (("plain", examples), ("reworded", reworded)):
            (tmp_path / name).mkdir()
            config = emit_and_config(tmp_path / name, rows)
            pipeline.stage_train(config, pipeline.new_manifest(config))
            metrics.append(config.path("metrics").read_bytes())
        assert metrics[0] == metrics[1]

    def test_train_reads_the_rows_of_the_reuse_key(self, tmp_path, monkeypatch):
        config = emit_and_config(tmp_path, build_correlation_task(0, n=30))
        received = []

        def recorded(rows, train_config):
            received.append(rows)
            return real_train(rows, train_config)

        real_train = distill.train
        monkeypatch.setattr(distill, "train", recorded)
        held = {"trained": {}}
        pipeline.stage_train(config, pipeline.new_manifest(config), held)
        [(_, key_rows)] = held["trained"]
        [train_rows] = received
        assert train_rows is key_rows


class TestTrain:
    def test_encodes_once(self, monkeypatch):
        calls = {"encode": 0, "loss_and_grads": 0}

        def counted(name):
            fn = getattr(distill, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(distill, "encode", counted("encode"))
        monkeypatch.setattr(distill, "loss_and_grads", counted("loss_and_grads"))
        _, report = train(correlation_rows(0, n=60), TrainConfig(lam=1.0, epochs=7, step_size=0.5, seed=1))
        assert calls == {"encode": 1, "loss_and_grads": 8}
        assert report.epochs_run == 7

    def test_accuracy_is_the_per_row_argmax_of_the_label_logits(self):
        # repeated questions, so some feature rows stand for several rows
        rows = correlation_rows(0, n=80)
        rows += rows[:40]
        config = TrainConfig(lam=1.0, epochs=8, step_size=0.8, seed=4)
        model, report = train(rows, config)
        W_label = model.W[: len(model.label_vocab)]

        def per_row(scored):
            X = feature_rows(model, scored)
            hits = [model.label_vocab[int(np.argmax(W_label @ x))] == r.label for x, r in zip(X, scored)]
            return sum(hits) / len(scored)

        train_rows, held_rows = split_dataset(rows, config.seed)
        assert report.accuracy_train == per_row(train_rows)
        assert report.accuracy_heldout == per_row(held_rows)
        assert 0.0 < report.accuracy_heldout < 1.0

    def test_deterministic_rerun(self):
        rows = correlation_rows(0, n=80)
        config = TrainConfig(lam=1.0, epochs=8, step_size=0.8, seed=4)
        _, a = train(rows, config)
        _, b = train(rows, config)
        assert a == b

    def test_zero_step_size_keeps_parameters(self):
        rows = correlation_rows(1, n=40)
        model, report = train(rows, TrainConfig(lam=1.0, epochs=1, step_size=0.0, seed=0))
        fresh = build_model(rows, lam=1.0, seed=0)
        assert np.array_equal(model.W, fresh.W)

    def test_divergence_aborts_with_last_finite_state(self):
        # A step this size overflows the logits on the first update.
        rows = correlation_rows(2, n=40)
        _, report = train(rows, TrainConfig(lam=1.0, epochs=50, step_size=1e308, seed=0))
        assert report.diverged
        assert math.isfinite(report.loss.total)

    def test_directional_gap(self):
        gaps = []
        for seed in range(5):
            rows = correlation_rows(seed)
            _, with_r = train(rows, TrainConfig(lam=1.0, epochs=10, step_size=0.8, seed=seed))
            _, without = train(rows, TrainConfig(lam=0.0, epochs=10, step_size=0.8, seed=seed))
            gaps.append(with_r.accuracy_heldout - without.accuracy_heldout)
        assert sum(gaps) / len(gaps) >= 0.05
