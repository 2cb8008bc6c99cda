"""Distillation dataset emission and the toy two-head multi-task trainer.

The student is a linear model over bag-of-token question features with a
label head (softmax cross-entropy against the answer vocabulary) and a
rationale head (independent per-keyword logistic outputs against the
keyword set extracted from the rationale). Keywords that are themselves
answer-vocabulary tokens share their output row with the label head (tied
output embedding); that sharing is what lets rationale supervision move
label accuracy, which a pair of disjoint matrices could not.

The combined objective is ``L = L_label + lambda * L_rationale`` with the
rationale term averaged over unmasked rows only.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmissionError, GradCheckError
from .interp import normalize_answer
from .jsonlio import read_jsonl, write_jsonl
from .scenes import Query

STOPWORDS = {
    "a", "an", "the", "is", "are", "was", "of", "in", "on", "at", "to", "and",
    "or", "that", "this", "it", "via", "gives", "each", "turn", "therefore",
    "with", "settled", "step", "follows", "next", "recall", "into", "came",
    "comes", "play", "got", "there", "what", "how", "many",
}


@dataclass
class DistillExample:
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
    rows = [
        {
            "query_id": q.query_id,
            "question": q.question,
            "label": normalize_answer(q.expected_answer),
            "rationale": texts.get(q.query_id),
        }
        for q in queries
    ]
    masked = sum(1 for row in rows if row["rationale"] is None)
    header = {"__meta__": {"rows": len(rows), "masked": masked}}
    write_jsonl(path, [header] + rows)
    return len(rows)


def load_dataset(path: str | Path) -> list[DistillExample]:
    examples = []
    for row in read_jsonl(path):
        if "__meta__" in row:
            continue
        examples.append(
            DistillExample(
                query_id=row["query_id"],
                question=row["question"],
                label=row["label"],
                rationale=row["rationale"],
            )
        )
    return examples


# ---------------------------------------------------------------------------
# toy model

def _question_tokens(text: str) -> list[str]:
    return re.findall(r"[a-z0-9_]+", text.lower())


@dataclass
class ToyModel:
    feature_index: dict[str, int]
    label_vocab: list[str]
    keywords: list[str]
    W_label: np.ndarray  # (V, F)
    W_extra: np.ndarray  # rows for keywords outside the answer vocabulary
    lam: float = 1.0
    # keyword row i lives in W_label when keywords[i] is an answer token
    key_rows: list[tuple[str, int]] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_index)

    def featurize(self, question: str) -> np.ndarray:
        x = np.zeros(self.n_features)
        for tok in _question_tokens(question):
            idx = self.feature_index.get(tok)
            if idx is not None:
                x[idx] = 1.0
        return x

    def keyword_matrix(self) -> np.ndarray:
        rows = []
        for where, idx in self.key_rows:
            rows.append(self.W_label[idx] if where == "label" else self.W_extra[idx])
        if not rows:
            return np.zeros((0, self.n_features))
        return np.stack(rows)

    def parameters(self) -> np.ndarray:
        return np.concatenate([self.W_label.ravel(), self.W_extra.ravel()])

    def set_parameters(self, flat: np.ndarray) -> None:
        nl = self.W_label.size
        self.W_label = flat[:nl].reshape(self.W_label.shape).copy()
        self.W_extra = flat[nl:].reshape(self.W_extra.shape).copy()

    def predict_label(self, question: str) -> str:
        logits = self.W_label @ self.featurize(question)
        return self.label_vocab[int(np.argmax(logits))]


def build_model(
    examples: list[DistillExample], lam: float = 1.0, seed: int = 0, init_scale: float = 0.01
) -> ToyModel:
    """Vocabulary, feature map, and keyword set from the corpus; seeded
    small-scale random init."""
    labels = sorted({e.label for e in examples})
    features = sorted({t for e in examples for t in _question_tokens(e.question)})
    keywords = sorted(
        {k for e in examples if e.rationale is not None for k in extract_keywords(e.rationale)}
    )
    label_pos = {lab: i for i, lab in enumerate(labels)}
    key_rows: list[tuple[str, int]] = []
    extra = 0
    for k in keywords:
        if k in label_pos:
            key_rows.append(("label", label_pos[k]))
        else:
            key_rows.append(("extra", extra))
            extra += 1
    rng = np.random.default_rng(seed)
    feature_index = {tok: i for i, tok in enumerate(features)}
    return ToyModel(
        feature_index=feature_index,
        label_vocab=labels,
        keywords=keywords,
        W_label=rng.normal(0.0, init_scale, size=(len(labels), len(features))),
        W_extra=rng.normal(0.0, init_scale, size=(extra, len(features))),
        lam=lam,
        key_rows=key_rows,
    )


# ---------------------------------------------------------------------------
# loss and gradients

@dataclass
class LossReport:
    label_loss: float
    rationale_loss: float
    total: float
    lam: float
    per_example: list[dict]

    def identity_holds(self) -> bool:
        return self.total == self.label_loss + self.lam * self.rationale_loss


def _batch_arrays(model: ToyModel, batch: list[DistillExample]):
    X = np.stack([model.featurize(e.question) for e in batch])
    y = np.array([model.label_vocab.index(e.label) for e in batch])
    mask = np.array([e.rationale is not None for e in batch])
    K = len(model.keywords)
    T = np.zeros((len(batch), K))
    for i, e in enumerate(batch):
        if e.rationale is None:
            continue
        present = set(extract_keywords(e.rationale))
        for j, k in enumerate(model.keywords):
            if k in present:
                T[i, j] = 1.0
    return X, y, mask, T


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _bce_with_logits(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    # max(r,0) - r*t + log(1 + exp(-|r|)), elementwise-stable
    return np.maximum(r, 0.0) - r * t + np.log1p(np.exp(-np.abs(r)))


def _sigmoid(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def loss_and_grads(
    model: ToyModel, batch: list[DistillExample]
) -> tuple[LossReport, np.ndarray, np.ndarray]:
    """LossReport plus analytic gradients for (W_label, W_extra).

    Overflow is not trapped: a diverged model yields a non-finite loss,
    which train() detects and grad_check() rejects.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads(model, batch)


def _loss_and_grads(model, batch):
    X, y, mask, T = _batch_arrays(model, batch)
    n = len(batch)
    V = len(model.label_vocab)

    Z = X @ model.W_label.T  # (N, V)
    P = _softmax(Z)
    eps_p = np.clip(P[np.arange(n), y], 1e-12, None)
    label_losses = -np.log(eps_p)
    label_loss = float(label_losses.mean())

    dZ = P.copy()
    dZ[np.arange(n), y] -= 1.0
    dW_label = (dZ.T @ X) / n
    dW_extra = np.zeros_like(model.W_extra)

    K = len(model.keywords)
    unmasked = int(mask.sum())
    rationale_loss = 0.0
    row_rationale = [None] * n
    if K > 0 and unmasked > 0:
        Wk = model.keyword_matrix()  # (K, F)
        R = X @ Wk.T  # (N, K)
        bce = _bce_with_logits(R, T)  # (N, K)
        # Per-row loss sums the per-keyword BCEs (one generation task per
        # row). The sum grows with the keyword count, so at lambda=1 this
        # term dominates: L_rationale / L_label is 14.0 for run-all at
        # n=2000, corruption 0.2.
        per_row = bce.sum(axis=1)
        rationale_loss = float(per_row[mask].mean())
        for i in range(n):
            if mask[i]:
                row_rationale[i] = float(per_row[i])
        # d/dr of bce-with-logits is sigmoid(r) - t
        dR = (_sigmoid(R) - T) / unmasked
        dR[~mask] = 0.0
        dWk = dR.T @ X  # (K, F)
        for j, (where, idx) in enumerate(model.key_rows):
            if where == "label":
                dW_label[idx] += model.lam * dWk[j]
            else:
                dW_extra[idx] += model.lam * dWk[j]

    total = label_loss + model.lam * rationale_loss
    per_example = [
        {
            "label_loss": float(label_losses[i]),
            "rationale_loss": row_rationale[i],
            "masked": not bool(mask[i]),
        }
        for i in range(n)
    ]
    report = LossReport(
        label_loss=label_loss,
        rationale_loss=rationale_loss,
        total=total,
        lam=model.lam,
        per_example=per_example,
    )
    return report, dW_label, dW_extra


def loss(model: ToyModel, batch: list[DistillExample]) -> LossReport:
    report, _, _ = loss_and_grads(model, batch)
    return report


def grad_check(model: ToyModel, batch: list[DistillExample], epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-finite-difference
    gradients over every parameter; relative error is measured against
    max(1, |analytic|, |numeric|)."""
    if not (0.0 < epsilon <= 1e-2):
        raise ValueError("epsilon must be in (0, 1e-2]")
    report, dW_label, dW_extra = loss_and_grads(model, batch)
    if not math.isfinite(report.total):
        raise GradCheckError("loss is non-finite; cannot check gradients")
    analytic = np.concatenate([dW_label.ravel(), dW_extra.ravel()])
    theta = model.parameters()
    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = epsilon
        model.set_parameters(theta + bump)
        hi = loss(model, batch).total
        model.set_parameters(theta - bump)
        lo = loss(model, batch).total
        numeric[i] = (hi - lo) / (2.0 * epsilon)
    model.set_parameters(theta)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    lam: float = 1.0
    epochs: int = 60
    step_size: float = 0.5
    seed: int = 0
    heldout_fraction: float = 0.2


@dataclass
class TrainReport:
    accuracy_train: float
    accuracy_heldout: float
    loss: LossReport
    lam: float
    seed: int
    epochs_run: int
    diverged: bool = False


def split_dataset(
    examples: list[DistillExample], seed: int, heldout_fraction: float = 0.2
) -> tuple[list[DistillExample], list[DistillExample]]:
    """Fixed seeded 80/20 split."""
    order = list(range(len(examples)))
    random.Random(seed).shuffle(order)
    cut = max(1, int(round(len(examples) * (1.0 - heldout_fraction))))
    train_idx, held_idx = order[:cut], order[cut:]
    return [examples[i] for i in train_idx], [examples[i] for i in held_idx]


def _accuracy(model: ToyModel, examples: list[DistillExample]) -> float:
    if not examples:
        return 0.0
    hits = sum(1 for e in examples if model.predict_label(e.question) == e.label)
    return hits / len(examples)


def train(examples: list[DistillExample], config: TrainConfig) -> tuple[ToyModel, TrainReport]:
    """Deterministic full-batch gradient descent on the multi-task loss.

    Divergence (non-finite loss) aborts with the last finite parameters.
    """
    if not examples:
        raise ValueError("dataset must be non-empty")
    train_rows, held_rows = split_dataset(examples, config.seed, config.heldout_fraction)
    model = build_model(examples, lam=config.lam, seed=config.seed)
    report, dW_label, dW_extra = loss_and_grads(model, train_rows)
    diverged = False
    epochs_run = 0
    for _ in range(config.epochs):
        prev = (model.W_label.copy(), model.W_extra.copy())
        model.W_label = model.W_label - config.step_size * dW_label
        model.W_extra = model.W_extra - config.step_size * dW_extra
        candidate, dW_label, dW_extra = loss_and_grads(model, train_rows)
        if not math.isfinite(candidate.total):
            model.W_label, model.W_extra = prev
            diverged = True
            break
        report = candidate
        epochs_run += 1
    return model, TrainReport(
        accuracy_train=_accuracy(model, train_rows),
        accuracy_heldout=_accuracy(model, held_rows),
        loss=report,
        lam=config.lam,
        seed=config.seed,
        epochs_run=epochs_run,
        diverged=diverged,
    )
