import numpy as np
import pytest

import fakeseg.training
from fakeseg import (
    FeatureSequence,
    SequenceClassifier,
    TrainConfig,
    TrainingDivergedError,
    TransformerConfig,
    evaluate,
    loss_and_grads,
    predict_video,
    train,
)
from fakeseg.training import FlatAdam
from helpers import adam_reference_step

CFG = TransformerConfig(
    input_dim=8, window=3, num_blocks=1, num_heads=2, head_dim=4,
    ff_hidden=16, mlp_hidden=(8,), dropout=0.1,
)


def _separable_windows(n, cfg, seed, gap=3.0):
    """n windows per class; the class offset alternates sign across channels
    so layer normalization cannot cancel it."""
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(cfg.input_dim) % 2 == 0, 1.0, -1.0)
    offset = gap / 2 * signs
    x0 = rng.standard_normal((n, cfg.window, cfg.input_dim)) - offset
    x1 = rng.standard_normal((n, cfg.window, cfg.input_dim)) + offset
    x = np.concatenate([x0, x1]).astype(np.float32)
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def test_training_reaches_high_accuracy_on_separable_data():
    train_set = _separable_windows(150, CFG, seed=0)
    val_set = _separable_windows(40, CFG, seed=1)
    model = SequenceClassifier.initialize(CFG, seed=0)
    cfg = TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=20, early_stop_patience=5, seed=0)
    model, history = train(model, train_set, val_set, cfg)
    assert len(history.epochs) <= 20
    best = history.epochs[history.best_epoch - 1]
    assert best.val_accuracy >= 0.99


def test_plateau_with_patience_one_stops_after_two_checks():
    # a vanishing learning rate leaves parameters (and val loss) unchanged,
    # so every epoch after the first is non-improving
    train_set = _separable_windows(30, CFG, seed=2)
    val_set = _separable_windows(10, CFG, seed=3)
    model = SequenceClassifier.initialize(CFG, seed=0)
    cfg = TrainConfig(batch_size=16, learning_rate=1e-30, max_epochs=50, early_stop_patience=1, seed=0)
    model, history = train(model, train_set, val_set, cfg)
    assert history.stopped_early
    assert history.best_epoch == 1
    assert len(history.epochs) == 3  # epoch 1 improves, epochs 2 and 3 do not


def test_training_is_deterministic():
    train_set = _separable_windows(60, CFG, seed=4)
    val_set = _separable_windows(20, CFG, seed=5)
    cfg = TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=5, early_stop_patience=3, seed=9)
    m1, h1 = train(SequenceClassifier.initialize(CFG, seed=1), train_set, val_set, cfg)
    m2, h2 = train(SequenceClassifier.initialize(CFG, seed=1), train_set, val_set, cfg)
    assert h1 == h2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name]), name


def test_training_restores_best_epoch_parameters():
    train_set = _separable_windows(60, CFG, seed=6)
    val_set = _separable_windows(20, CFG, seed=7)
    cfg = TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=8, early_stop_patience=2, seed=0)
    model, history = train(SequenceClassifier.initialize(CFG, seed=2), train_set, val_set, cfg)
    val_loss, _ = evaluate(model, *val_set, batch_size=cfg.batch_size)
    assert val_loss == min(e.val_loss for e in history.epochs)
    assert history.epochs[history.best_epoch - 1].val_loss == val_loss


def test_loss_decreases_over_first_five_epochs_for_ten_seeds():
    cfg = TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=5, early_stop_patience=5, seed=0)
    for seed in range(10):
        train_set = _separable_windows(50, CFG, seed=100 + seed)
        val_set = _separable_windows(15, CFG, seed=200 + seed)
        model = SequenceClassifier.initialize(CFG, seed=seed)
        _, history = train(model, train_set, val_set, TrainConfig(
            batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
            max_epochs=cfg.max_epochs, early_stop_patience=cfg.early_stop_patience, seed=seed,
        ))
        assert history.epochs[4].val_loss < history.epochs[0].val_loss, f"seed {seed}"


def test_single_class_training_set_is_rejected():
    x, _ = _separable_windows(10, CFG, seed=8)
    y = np.zeros(len(x), dtype=int)
    with pytest.raises(ValueError, match="single class"):
        train(SequenceClassifier.initialize(CFG, seed=0), (x, y), (x, y), TrainConfig())


def test_empty_split_is_rejected():
    x, y = _separable_windows(10, CFG, seed=8)
    empty = (x[:0], y[:0])
    with pytest.raises(ValueError, match="non-empty"):
        train(SequenceClassifier.initialize(CFG, seed=0), (x, y), empty, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=0)


def test_predict_video_constant_features_give_constant_scores():
    model = SequenceClassifier.initialize(CFG, seed=0)
    feats = np.ones((12, CFG.input_dim), dtype=np.float32)
    seq = FeatureSequence(video_id="c", features=feats)
    scores = predict_video(model, seq, overlap=2)
    assert np.allclose(scores.scores, scores.scores[0])
    assert len(scores) == 12


def test_predict_video_too_short_is_an_error():
    model = SequenceClassifier.initialize(CFG, seed=0)
    seq = FeatureSequence(video_id="s", features=np.zeros((2, CFG.input_dim), dtype=np.float32))
    with pytest.raises(ValueError, match="window"):
        predict_video(model, seq, overlap=2)


def test_history_serialization():
    train_set = _separable_windows(20, CFG, seed=9)
    val_set = _separable_windows(10, CFG, seed=10)
    cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=2, early_stop_patience=2, seed=0)
    _, history = train(SequenceClassifier.initialize(CFG, seed=0), train_set, val_set, cfg)
    d = history.to_dict()
    assert len(d["epochs"]) == 2
    assert {"epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"} <= set(d["epochs"][0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_flat_adam_matches_per_tensor_oracle_bit_for_bit(dtype):
    x, y = _separable_windows(16, CFG, seed=11)
    model = SequenceClassifier.initialize(CFG, seed=4).astype(dtype)
    ref = SequenceClassifier.initialize(CFG, seed=4).astype(dtype)
    adam = FlatAdam(model, 1e-3)
    m = {k: np.zeros_like(p) for k, p in ref.params.items()}
    v = {k: np.zeros_like(p) for k, p in ref.params.items()}
    rng = np.random.default_rng(0)
    for step in range(1, 6):
        _, _, grads = loss_and_grads(model, x, y, train=True, rng=rng)
        adam.pack(grads)
        adam.step()
        adam_reference_step(ref.params, grads, m, v, step, dtype(1e-3))
        assert np.array_equal(model.flat, ref.flat), f"step {step}"
    assert np.array_equal(adam.m, np.concatenate([m[k].reshape(-1) for k in model.params]))
    assert np.array_equal(adam.v, np.concatenate([v[k].reshape(-1) for k in model.params]))


def test_best_epoch_snapshot_is_a_copy_and_restore_keeps_views(monkeypatch):
    snapshots = []
    original = SequenceClassifier.copy_params

    def recording(self):
        snap = original(self)
        snapshots.append((self, snap))
        return snap

    monkeypatch.setattr(SequenceClassifier, "copy_params", recording)
    train_set = _separable_windows(60, CFG, seed=6)
    val_set = _separable_windows(20, CFG, seed=7)
    cfg = TrainConfig(batch_size=32, learning_rate=1e-3, max_epochs=8, early_stop_patience=2, seed=0)
    model = SequenceClassifier.initialize(CFG, seed=2)
    buffer = model.flat
    model, history = train(model, train_set, val_set, cfg)
    assert model.flat is buffer
    assert all(np.shares_memory(view, buffer) for view in model.params.values())
    assert snapshots and all(owner is model for owner, _ in snapshots)
    assert not any(np.shares_memory(snap, buffer) for _, snap in snapshots)
    assert np.array_equal(model.flat, snapshots[-1][1])  # the best epoch's parameters


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the forward pass
def test_infinite_parameter_stops_training_at_first_step():
    train_set = _separable_windows(30, CFG, seed=2)
    val_set = _separable_windows(10, CFG, seed=3)
    model = SequenceClassifier.initialize(CFG, seed=0)
    model.params["block0.ff.w1"][0, 0] = np.inf
    cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=5, early_stop_patience=2, seed=0)
    with pytest.raises(TrainingDivergedError, match="epoch 1, step 1") as info:
        train(model, train_set, val_set, cfg)
    assert (info.value.epoch, info.value.step) == (1, 1)


def test_non_finite_gradient_names_epoch_and_step(monkeypatch):
    calls = []

    def poisoned(*args, **kwargs):
        loss, probs, grads = loss_and_grads(*args, **kwargs)
        calls.append(None)
        if len(calls) == 6:  # the second step of epoch 2 (four steps per epoch)
            grads["head.layer1.b"] = np.full_like(grads["head.layer1.b"], np.nan)
        return loss, probs, grads

    monkeypatch.setattr(fakeseg.training, "loss_and_grads", poisoned)
    train_set = _separable_windows(30, CFG, seed=2)
    val_set = _separable_windows(10, CFG, seed=3)
    cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=5, early_stop_patience=2, seed=0)
    with pytest.raises(TrainingDivergedError, match="non-finite gradient at epoch 2, step 6"):
        train(SequenceClassifier.initialize(CFG, seed=0), train_set, val_set, cfg)


def test_non_finite_validation_loss_is_an_error(monkeypatch):
    monkeypatch.setattr(fakeseg.training, "evaluate", lambda *args: (float("nan"), 0.0))
    train_set = _separable_windows(30, CFG, seed=2)
    val_set = _separable_windows(10, CFG, seed=3)
    cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=5, early_stop_patience=2, seed=0)
    with pytest.raises(TrainingDivergedError, match="validation loss at epoch 1, step 4"):
        train(SequenceClassifier.initialize(CFG, seed=0), train_set, val_set, cfg)
