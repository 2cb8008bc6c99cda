"""Distillation dataset emission and the toy two-head multi-task trainer.

The student is a linear model over bag-of-token question features with a
label head (softmax cross-entropy against the answer vocabulary) and a
rationale head (independent per-keyword logistic outputs against the
keyword set extracted from the rationale). Keywords that are themselves
answer-vocabulary tokens share their output row with the label head (tied
output embedding): the model keeps one weight matrix, and each keyword
names its row in it. That sharing is what lets rationale supervision move
label accuracy, which a pair of disjoint matrices could not.

The combined objective is ``L = L_label + lambda * L_rationale`` with the
rationale term averaged over unmasked rows only.

numpy is imported inside the functions that use it, not at the top: only
train needs it, and every other stage imports this module without paying
for loading it.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import EmissionError
from .interp import normalize_answer
from .jsonlio import read_rows, write_rows
from .scenes import Query

STOPWORDS = {
    "a", "an", "the", "is", "are", "was", "of", "in", "on", "at", "to", "and",
    "or", "that", "this", "it", "via", "gives", "each", "turn", "therefore",
    "with", "settled", "step", "follows", "next", "recall", "into", "came",
    "comes", "play", "got", "there", "what", "how", "many",
}


@dataclass
class DistillExample:
    """One dataset.jsonl row: these fields."""

    query_id: str
    question: str
    label: str
    rationale: str | None  # None masks the rationale loss for this row


def extract_keywords(text: str) -> list[str]:
    """Sorted content tokens (stopwords removed) of a rationale."""
    tokens = {t.strip("'") for t in re.findall(r"[a-z0-9_']+", text.lower())}
    return sorted(t for t in tokens if t and t not in STOPWORDS)


def emit_dataset(texts: dict[str, str], queries: list[Query], path: str | Path) -> int:
    """Write dataset.jsonl: one row per query, rationale attached where
    ``texts`` (kept rationale text by query id) has one, absent (masked)
    otherwise. The first line is a metadata header so even an empty dataset
    carries its counts. Returns the number of example rows.
    """
    dangling = sorted(set(texts) - {q.query_id for q in queries})
    if dangling:
        raise EmissionError(f"kept rationales reference unknown queries: {dangling}")
    examples = [
        DistillExample(q.query_id, q.question, normalize_answer(q.expected_answer), texts.get(q.query_id))
        for q in queries
    ]
    masked = sum(1 for e in examples if e.rationale is None)
    return write_rows(path, examples, meta={"rows": len(examples), "masked": masked})


def load_dataset(path: str | Path) -> list[DistillExample]:
    return read_rows(path, DistillExample, unique="query_id")


class TrainRow(NamedTuple):
    """What train reads of one dataset row."""

    question: str
    label: str
    keywords: tuple[str, ...] | None  # the rationale's; None masks the rationale loss


def training_input(examples: list[DistillExample]) -> tuple[TrainRow, ...]:
    """``train``'s argument: one TrainRow per example, in order, with the
    rationale's ``extract_keywords``. Under one TrainConfig, equal inputs
    train to equal reports, so the ablation grid reuses one report for
    every dataset with an equal training input. It leaves out ``query_id``,
    which train never reads, and any rationale wording beyond the
    keywords."""
    return tuple(
        TrainRow(e.question, e.label, None if e.rationale is None else tuple(extract_keywords(e.rationale)))
        for e in examples
    )


# ---------------------------------------------------------------------------
# toy model

def _question_tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9_]+", text.lower())


@dataclass
class ToyModel:
    feature_index: dict[str, int]
    label_vocab: list[str]
    keywords: list[str]
    # (V + E, F): the V label rows, then one row for each of the E keywords
    # outside the answer vocabulary
    W: np.ndarray
    # (K,) row of W for each keyword; an answer token's keyword uses its label row
    key_rows: np.ndarray
    lam: float = 1.0

    def feature_key(self, question: str) -> tuple[int, ...]:
        """Sorted indices of the question's known tokens: the positions
        where its feature row is 1. Questions with equal keys share their
        logits."""
        return tuple(sorted({
            idx for idx in map(self.feature_index.get, _question_tokens(question)) if idx is not None
        }))


def build_model(
    rows: tuple[TrainRow, ...], lam: float = 1.0, seed: int = 0, init_scale: float = 0.01
) -> ToyModel:
    """Vocabulary, feature map, and keyword set from the corpus; seeded
    small-scale random init."""
    import numpy as np

    labels = sorted({r.label for r in rows})
    features = sorted({t for r in rows for t in _question_tokens(r.question)})
    keywords = sorted({k for r in rows if r.keywords is not None for k in r.keywords})
    label_pos = {lab: i for i, lab in enumerate(labels)}
    key_rows = []
    n_rows = len(labels)
    for k in keywords:
        if k in label_pos:
            key_rows.append(label_pos[k])
        else:
            key_rows.append(n_rows)
            n_rows += 1
    rng = np.random.default_rng(seed)
    feature_index = {tok: i for i, tok in enumerate(features)}
    return ToyModel(
        feature_index=feature_index,
        label_vocab=labels,
        keywords=keywords,
        W=rng.normal(0.0, init_scale, size=(n_rows, len(features))),
        key_rows=np.array(key_rows, dtype=np.intp),
        lam=lam,
    )


# ---------------------------------------------------------------------------
# loss and gradients

@dataclass
class LossReport:
    label_loss: float
    rationale_loss: float
    total: float
    lam: float


@dataclass(frozen=True, eq=False)
class Batch:
    """Training rows encoded against one model's vocabularies, grouped by
    feature row.

    The student reads only question features, so rows with one feature row
    share their logits, and the loss and its gradient depend on the rows
    only through each distinct feature row's row count, label counts and
    summed keyword targets. Groups are sorted by their feature indices, so
    the batch does not depend on row order.
    """

    n: int  # rows
    X: np.ndarray  # (G, F) the distinct feature rows
    counts: np.ndarray  # (G,) rows with each feature row
    Y: np.ndarray  # (G, V) label counts
    m: int  # unmasked rows (rows with a rationale)
    Xm: np.ndarray  # (Gm, F) the rows of X that unmasked rows have, in X's order
    counts_m: np.ndarray  # (Gm,) unmasked rows with each of them
    T: np.ndarray  # (Gm, K) keyword targets summed over those rows


def _group(model: ToyModel, row_keys: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The distinct feature rows among ``row_keys`` (sorted by key), the
    number of rows with each, and each row's index among them."""
    import numpy as np

    keys = sorted(set(row_keys))
    index = {key: g for g, key in enumerate(keys)}
    X = np.zeros((len(keys), len(model.feature_index)))
    for g, key in enumerate(keys):
        X[g, list(key)] = 1.0
    group = [index[key] for key in row_keys]
    counts = np.zeros(len(keys))
    for g in group:
        counts[g] += 1.0
    return X, counts, group


def encode(model: ToyModel, rows: tuple[TrainRow, ...]) -> Batch:
    """Encode ``rows`` once for any number of loss evaluations of ``model``.
    The unmasked groups are the selection of the groups with a rationale row.

    Raises ValueError on an empty batch or a label outside the model's
    vocabulary.
    """
    import numpy as np

    if not rows:
        raise ValueError("batch must be non-empty")
    label_pos = {lab: i for i, lab in enumerate(model.label_vocab)}
    unknown = sorted({r.label for r in rows} - label_pos.keys())
    if unknown:
        raise ValueError(f"labels not in the model's vocabulary: {unknown}")
    key_pos = {k: j for j, k in enumerate(model.keywords)}
    X, counts, group = _group(model, [model.feature_key(r.question) for r in rows])
    Y = np.zeros((len(X), len(model.label_vocab)))
    counts_m = np.zeros(len(X))
    T = np.zeros((len(X), len(model.keywords)))
    for g, r in zip(group, rows):
        Y[g, label_pos[r.label]] += 1.0
        if r.keywords is not None:
            counts_m[g] += 1.0
            T[g, [key_pos[k] for k in r.keywords if k in key_pos]] += 1.0
    unmasked = counts_m > 0
    return Batch(n=len(rows), X=X, counts=counts, Y=Y, m=int(counts_m.sum()),
                 Xm=X[unmasked], counts_m=counts_m[unmasked], T=T[unmasked])


def _softmax(z: np.ndarray) -> np.ndarray:
    import numpy as np

    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(model: ToyModel, batch: Batch) -> tuple[LossReport, np.ndarray]:
    """LossReport plus the analytic gradient for ``model.W``.

    Overflow is not trapped: a diverged model yields a non-finite loss,
    which train() detects.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads(model, batch)


def _loss_and_grads(model: ToyModel, batch: Batch):
    import numpy as np

    X, counts, Y, n = batch.X, batch.counts[:, None], batch.Y, batch.n
    V = len(model.label_vocab)

    P = _softmax(X @ model.W[:V].T)  # (G, V)
    label_loss = float((Y * -np.log(np.clip(P, 1e-12, None))).sum() / n)
    dW = np.zeros_like(model.W)
    dW[:V] = ((counts * P - Y).T @ X) / n

    rationale_loss = 0.0
    if model.keywords and batch.m > 0:
        Xm, counts_m, T, m = batch.Xm, batch.counts_m[:, None], batch.T, batch.m
        R = Xm @ model.W[model.key_rows].T  # (Gm, K)
        # softplus(r) = max(r, 0) + log1p(exp(-|r|)); softplus(-r) the same
        # with max(-r, 0). Both share one exp(-|r|), as does the sigmoid.
        e = np.exp(-np.abs(R))
        log1p_e = np.log1p(e)
        # BCE-with-logits summed over a group's rows: the rows without a
        # keyword pay softplus(r), the rows with it softplus(-r). The two
        # terms are non-negative; the shorter counts*softplus(r) - r*T
        # subtracts nearly equal numbers on confident, correct groups.
        bce = (counts_m - T) * (np.maximum(R, 0.0) + log1p_e) + T * (np.maximum(-R, 0.0) + log1p_e)
        # Per-row loss sums the per-keyword BCEs (one generation task per
        # row). The sum grows with the keyword count, so at lambda=1 this
        # term dominates: L_rationale / L_label is 14.0 for run-all at
        # n=2000, corruption 0.2.
        rationale_loss = float(bce.sum() / m)
        # 1/(1+exp(-r)) for r >= 0, exp(r)/(1+exp(r)) otherwise
        sig = np.where(R >= 0, 1.0, e) / (1.0 + e)
        # d/dr of bce-with-logits is sigmoid(r) - t, summed over the rows;
        # key_rows holds distinct rows, so this adds to each row once
        dW[model.key_rows] += model.lam * (((counts_m * sig - T).T @ Xm) / m)

    report = LossReport(
        label_loss=label_loss,
        rationale_loss=rationale_loss,
        total=label_loss + model.lam * rationale_loss,
        lam=model.lam,
    )
    return report, dW


# ---------------------------------------------------------------------------
# training

HELDOUT_FRACTION = 0.2


@dataclass
class TrainConfig:
    lam: float
    epochs: int
    step_size: float
    seed: int


@dataclass
class TrainReport:
    accuracy_train: float
    accuracy_heldout: float | None  # None when one example leaves no held-out row
    loss: LossReport
    epochs_run: int
    loss_curve: list[float]  # total L before training, then after each epoch run
    feature_rows: int  # distinct feature rows of the training rows
    unmasked_feature_rows: int  # distinct feature rows of those with a rationale
    diverged: bool = False


def split_dataset(rows: tuple[TrainRow, ...], seed: int) -> tuple[list[TrainRow], list[TrainRow]]:
    """Fixed seeded 80/20 split. Each side keeps at least one row, except
    that a single row goes to train."""
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    cut = max(1, min(len(rows) - 1, int(round(len(rows) * (1.0 - HELDOUT_FRACTION)))))
    return [rows[i] for i in order[:cut]], [rows[i] for i in order[cut:]]


def _accuracy(model: ToyModel, rows: list[TrainRow]) -> float | None:
    """The share of ``rows`` whose label is the argmax of their distinct
    feature row's label logits; None when there are no rows to score."""
    import numpy as np

    if not rows:
        return None
    X, _, group = _group(model, [model.feature_key(r.question) for r in rows])
    predicted = np.argmax(X @ model.W[: len(model.label_vocab)].T, axis=1)
    hits = sum(1 for g, r in zip(group, rows) if model.label_vocab[predicted[g]] == r.label)
    return hits / len(rows)


def train(rows: tuple[TrainRow, ...], config: TrainConfig) -> tuple[ToyModel, TrainReport]:
    """Deterministic full-batch gradient descent on the multi-task loss
    over ``training_input`` rows.

    Divergence (non-finite loss) aborts with the last finite parameters.
    """
    if not rows:
        raise ValueError("dataset must be non-empty")
    train_rows, held_rows = split_dataset(rows, config.seed)
    model = build_model(rows, lam=config.lam, seed=config.seed)
    batch = encode(model, train_rows)
    report, dW = loss_and_grads(model, batch)
    loss_curve = [report.total]
    diverged = False
    epochs_run = 0
    for _ in range(config.epochs):
        prev = model.W
        model.W = model.W - config.step_size * dW
        candidate, dW = loss_and_grads(model, batch)
        if not math.isfinite(candidate.total):
            model.W = prev
            diverged = True
            break
        report = candidate
        loss_curve.append(report.total)
        epochs_run += 1
    return model, TrainReport(
        accuracy_train=_accuracy(model, train_rows),
        accuracy_heldout=_accuracy(model, held_rows),
        loss=report,
        epochs_run=epochs_run,
        loss_curve=loss_curve,
        feature_rows=len(batch.X),
        unmasked_feature_rows=len(batch.Xm),
        diverged=diverged,
    )
