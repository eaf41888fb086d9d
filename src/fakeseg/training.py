"""Training loop (Adam + early stopping) and whole-video prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .segmap import ScoreMap
from .transformer import SequenceClassifier, cross_entropy, forward_with_cache, loss_and_grads
from .windowing import FRAME_MODES, FeatureSequence, SplitWindows, check_features, frames_from_windows, make_windows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Windows per forward in predict_video. Each forward has a fixed cost: against
# 256, 128 windows halve the activations for a few percent more time, and 64
# take 20-30% more. Batches of 64, 128 or 256 gave the same score bytes under
# SkylakeX, Sandybridge and Prescott at every video length tried; under
# Haswell and Zen the scores' bytes hold for this partition only.
PREDICT_BATCH = 128
# Elements per pass of FlatAdam.step and of its gradient check. Every
# desk-scale model fits in one (the quickstart model has 13,634), and at
# the paper's width the two scratch arrays stay 0.5 MiB instead of two
# more copies of the model.
ADAM_CHUNK = 1 << 16


class TrainingDivergedError(RuntimeError):
    """A loss or gradient became non-finite; names the epoch and the step
    (counted from 1 over the whole run) where it first happened."""

    def __init__(self, what: str, epoch: int, step: int):
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}")
        self.what = what
        self.epoch = epoch
        self.step = step

    def __reduce__(self):  # pickle rebuilds through __init__, which takes more than the message
        return type(self), (self.what, self.epoch, self.step)


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
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
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


def evaluate(model: SequenceClassifier, x: np.ndarray | SplitWindows, y: np.ndarray, batch_size: int = 256):
    """Mean cross-entropy and accuracy in inference mode, over indexable
    windows `x` (an (N, W, d) array or a `SplitWindows`); ValueError for no windows."""
    if len(x) == 0:
        raise ValueError("no windows to evaluate")
    total_loss = 0.0
    correct = 0
    for lo in range(0, len(x), batch_size):
        xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
        logits, probs, _ = forward_with_cache(model, xb, keep_cache=False)
        total_loss += cross_entropy(logits, yb) * len(xb)
        correct += int((probs.argmax(axis=1) == yb).sum())
    return total_loss / len(x), correct / len(x)


class FlatAdam:
    """Adam over a model's whole parameter buffer, with in-place updates.

    The gradient and the two moments are flat buffers the size of the model,
    allocated once; `loss_and_grads(..., out=adam.grads)` writes the gradient
    through `grads`, the views of `grad` built once with it. `step` applies
    the update ADAM_CHUNK elements at a time with in-place ufuncs on two
    chunk-sized scratch arrays.
    Element for element the arithmetic is the textbook per-tensor Adam in
    the model's dtype, so the result is bit-identical to it at any chunk.
    """

    def __init__(self, model: SequenceClassifier, learning_rate: float):
        self.model = model
        self.lr = model.dtype.type(learning_rate)
        self.grads = SequenceClassifier(model.config, np.empty_like(model.flat))
        self.grad = self.grads.flat
        self.m = np.zeros_like(model.flat)
        self.v = np.zeros_like(model.flat)
        chunk = min(ADAM_CHUNK, model.flat.size)
        self._s1 = np.empty(chunk, model.dtype)
        self._s2 = np.empty(chunk, model.dtype)
        self.steps = 0

    def _chunks(self):
        """The (lo, hi) bounds of each chunk of the flat buffers."""
        size, chunk = self.grad.size, self._s1.size
        return ((lo, min(lo + chunk, size)) for lo in range(0, size, chunk))

    def grad_is_finite(self) -> bool:
        """Whether every element of `grad` is finite, checked a chunk at a time."""
        return all(np.isfinite(self.grad[lo:hi]).all() for lo, hi in self._chunks())

    def step(self) -> None:
        """One Adam update from the gradient currently in `grad`."""
        self.steps += 1
        bias1 = 1.0 - ADAM_BETA1**self.steps
        bias2 = 1.0 - ADAM_BETA2**self.steps
        for lo, hi in self._chunks():
            g, m, v, p = self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi], self.model.flat[lo:hi]
            s1, s2 = self._s1[: hi - lo], self._s2[: hi - lo]
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
            np.subtract(p, s2, out=p)


def train(
    model: SequenceClassifier,
    train_set: tuple[np.ndarray | SplitWindows, np.ndarray],
    val_set: tuple[np.ndarray | SplitWindows, np.ndarray],
    cfg: TrainConfig,
) -> tuple[SequenceClassifier, TrainHistory]:
    """Train in place with Adam; returns the model (restored to its best
    validation epoch) and the per-epoch history.

    Each set is indexable windows and their labels: the windows are an
    (N, W, d) array or a `SplitWindows`, which cuts each batch on demand.

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
    if y_tr.min() == y_tr.max():  # not np.unique, which imports numpy.ma
        raise ValueError("training set contains a single class; need both Real and Fake windows")

    rng = np.random.default_rng(cfg.seed)
    adam = FlatAdam(model, cfg.learning_rate)

    best_val = np.inf
    best_params = model.copy_params()  # refreshed in place: one snapshot at any time
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
            loss, probs, _ = loss_and_grads(model, xb, yb, train=True, rng=rng, out=adam.grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError("training loss", epoch, adam.steps + 1)
            if not adam.grad_is_finite():
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
            np.copyto(best_params, model.flat)
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait > cfg.early_stop_patience:
                stopped_early = True
                break

    np.copyto(model.flat, best_params)
    return model, TrainHistory(tuple(history), best_epoch=best_epoch, stopped_early=stopped_early)


def predict_video(
    model: SequenceClassifier,
    seq: FeatureSequence,
    overlap: int,
    mode: str = "mean",
) -> ScoreMap:
    """Frame-level Fake scores for one video: window, classify, project back.

    Windows are cut and classified PREDICT_BATCH at a time. A mode not in
    FRAME_MODES or a video the model cannot take raises a ValueError first."""
    if mode not in FRAME_MODES:
        raise ValueError(f"unknown projection mode {mode!r}")
    check_features([seq], model.config)
    windows = make_windows(seq, model.config.window, overlap)
    scores = np.empty(len(windows))
    for lo in range(0, len(windows), PREDICT_BATCH):
        _, probs, _ = forward_with_cache(model, windows[lo : lo + PREDICT_BATCH], keep_cache=False)
        scores[lo : lo + PREDICT_BATCH] = probs[:, 1]
    return frames_from_windows(scores, windows.starts, windows.window, seq.num_frames, mode=mode)
