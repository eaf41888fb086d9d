"""Training loop (Adam + early stopping) and whole-video prediction."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .segmap import ScoreMap
from .transformer import SequenceClassifier, cross_entropy, forward_with_cache, loss_and_grads
from .windowing import FeatureSequence, frames_from_windows, make_windows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """A loss or gradient became non-finite; names the epoch and the step
    (counted from 1 over the whole run) where it first happened."""

    def __init__(self, what: str, epoch: int, step: int):
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.

    Training stops once validation loss has failed to improve for more than
    `early_stop_patience` consecutive epochs, and the parameters from the
    best validation epoch are restored.
    """

    batch_size: int = 64
    learning_rate: float = 1e-4
    max_epochs: int = 100
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class TrainHistory:
    epochs: tuple[EpochStats, ...]
    best_epoch: int
    stopped_early: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "epochs": [asdict(e) for e in self.epochs],
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
        }


def evaluate(model: SequenceClassifier, x: np.ndarray, y: np.ndarray, batch_size: int = 256):
    """Mean cross-entropy and accuracy in inference mode."""
    total_loss = 0.0
    correct = 0
    for lo in range(0, len(x), batch_size):
        xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
        logits, probs, _ = forward_with_cache(model, xb)
        total_loss += cross_entropy(logits, yb) * len(xb)
        correct += int((probs.argmax(axis=1) == yb).sum())
    return total_loss / len(x), correct / len(x)


class FlatAdam:
    """Adam over a model's whole parameter buffer, with in-place updates.

    The gradient, the two moments and two scratch arrays are flat buffers
    the size of the model, allocated once. `pack` copies the per-tensor
    gradients into `grad` (in `param_layout` order); `step` then applies
    the update with in-place ufuncs. Element for element the arithmetic is
    the textbook per-tensor Adam in the model's dtype, so the result is
    bit-identical to it.
    """

    def __init__(self, model: SequenceClassifier, learning_rate: float):
        self.model = model
        self.names = list(model.params)
        self.lr = model.dtype.type(learning_rate)
        self.grad = np.empty_like(model.flat)
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        self._s1 = np.empty_like(model.flat)
        self._s2 = np.empty_like(model.flat)
        self.steps = 0

    def pack(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Copy per-tensor gradients into `grad`; returns it."""
        np.concatenate([grads[name].reshape(-1) for name in self.names], out=self.grad)
        return self.grad

    def step(self) -> None:
        """One Adam update from the gradient currently packed in `grad`."""
        self.steps += 1
        bias1 = 1.0 - ADAM_BETA1**self.steps
        bias2 = 1.0 - ADAM_BETA2**self.steps
        g, m, v, s1, s2 = self.grad, self.m, self.v, self._s1, self._s2
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1 - ADAM_BETA1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(g, g, out=s1)
        np.multiply(s1, 1 - ADAM_BETA2, out=s1)
        np.multiply(v, ADAM_BETA2, out=v)
        np.add(v, s1, out=v)
        np.divide(v, bias2, out=s1)
        np.sqrt(s1, out=s1)
        np.add(s1, ADAM_EPS, out=s1)
        np.divide(m, bias1, out=s2)
        np.divide(s2, s1, out=s2)
        np.multiply(s2, self.lr, out=s2)
        np.subtract(self.model.flat, s2, out=self.model.flat)


def train(
    model: SequenceClassifier,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> tuple[SequenceClassifier, TrainHistory]:
    """Train in place with Adam; returns the model (restored to its best
    validation epoch) and the per-epoch history.

    Fully deterministic given the seed: shuffling and dropout draw from one
    seeded generator in a fixed order. Raises TrainingDivergedError at the
    first non-finite training loss, gradient or validation loss.
    """
    x_tr, y_tr = train_set
    x_val, y_val = val_set
    y_tr = np.asarray(y_tr)
    y_val = np.asarray(y_val)
    if len(x_tr) == 0 or len(x_val) == 0:
        raise ValueError("training and validation sets must be non-empty")
    if np.unique(y_tr).size < 2:
        raise ValueError("training set contains a single class; need both Real and Fake windows")

    rng = np.random.default_rng(cfg.seed)
    adam = FlatAdam(model, cfg.learning_rate)

    best_val = np.inf
    best_params = model.copy_params()
    best_epoch = 0
    wait = 0
    stopped_early = False
    history: list[EpochStats] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(x_tr))
        run_loss = 0.0
        run_correct = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = x_tr[idx], y_tr[idx]
            loss, probs, grads = loss_and_grads(model, xb, yb, train=True, rng=rng)
            if not math.isfinite(loss):
                raise TrainingDivergedError("training loss", epoch, adam.steps + 1)
            flat_grad = adam.pack(grads)
            if not np.isfinite(flat_grad).all():
                raise TrainingDivergedError("gradient", epoch, adam.steps + 1)
            run_loss += loss * len(idx)
            run_correct += int((probs.argmax(axis=1) == yb).sum())
            adam.step()

        val_loss, val_acc = evaluate(model, x_val, y_val, cfg.batch_size)
        if not math.isfinite(val_loss):
            raise TrainingDivergedError("validation loss", epoch, adam.steps)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=run_loss / len(x_tr),
                train_accuracy=run_correct / len(x_tr),
                val_loss=val_loss,
                val_accuracy=val_acc,
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.copy_params()
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait > cfg.early_stop_patience:
                stopped_early = True
                break

    model.flat[...] = best_params
    return model, TrainHistory(tuple(history), best_epoch=best_epoch, stopped_early=stopped_early)


def predict_video(
    model: SequenceClassifier,
    seq: FeatureSequence,
    overlap: int,
    mode: str = "mean",
    batch_size: int = 256,
) -> ScoreMap:
    """Frame-level Fake scores for one video: window, classify, project back."""
    w = model.config.window
    batch = make_windows(seq, w, overlap)
    scores = np.empty(batch.num_windows)
    for lo in range(0, batch.num_windows, batch_size):
        _, probs, _ = forward_with_cache(model, batch.windows[lo : lo + batch_size])
        scores[lo : lo + batch_size] = probs[:, 1]
    return frames_from_windows(scores, batch.window_starts, w, seq.num_frames, mode=mode)
