import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import fakeseg.training
from fakeseg import (
    FeatureSequence,
    SegmentationMap,
    SequenceClassifier,
    TrainConfig,
    TrainingDivergedError,
    TransformerConfig,
    evaluate,
    loss_and_grads,
    predict_video,
    train,
)
from fakeseg.training import PREDICT_BATCH, FlatAdam
from fakeseg.windowing import check_features, window_starts
from helpers import PackedAdamReference, adam_reference_step, loss_and_grads_dict_reference, predict_video_reference

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


def test_evaluate_on_no_windows_is_an_error():
    x, y = _separable_windows(10, CFG, seed=8)
    with pytest.raises(ValueError, match="^no windows to evaluate$"):
        evaluate(SequenceClassifier.initialize(CFG, seed=0), x[:0], y[:0])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for lr in (math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=0)


def test_predict_video_constant_features_give_constant_scores():
    model = SequenceClassifier.initialize(CFG, seed=0)
    feats = np.ones((12, CFG.input_dim), dtype=np.float32)
    seq = FeatureSequence(video_id="c", features=feats)
    scores = predict_video(model, seq, overlap=2)
    assert np.allclose(scores.scores, scores.scores[0])
    assert len(scores) == 12


@pytest.mark.parametrize("mode", ["mean", "max", "center"])
@pytest.mark.parametrize("num_windows", sorted({1, PREDICT_BATCH - 1, PREDICT_BATCH, PREDICT_BATCH + 1,
                                                2 * PREDICT_BATCH + 1, 513}))
def test_predict_video_matches_the_whole_video_oracle_byte_for_byte(num_windows, mode):
    """Batches cut as predict goes and forwarded without a cache give the bytes
    of every window cut at once and forwarded with it, on each side of the
    batch size and past two batches."""
    model = SequenceClassifier.initialize(CFG, seed=3)
    overlap = CFG.window - 1  # stride 1: T - W + 1 windows
    frames = num_windows + CFG.window - 1
    assert len(window_starts(frames, CFG.window, overlap)) == num_windows
    rng = np.random.default_rng(num_windows)
    seq = FeatureSequence("v", rng.standard_normal((frames, CFG.input_dim)).astype(np.float32))
    got = predict_video(model, seq, overlap, mode=mode).scores
    assert got.tobytes() == predict_video_reference(model, seq, overlap, mode).tobytes()


def test_predict_video_rejects_an_unknown_mode_before_any_forward(monkeypatch):
    calls, forward = [], fakeseg.training.forward_with_cache

    def counted(model, batch, **kwargs):
        calls.append(len(batch))
        return forward(model, batch, **kwargs)

    monkeypatch.setattr(fakeseg.training, "forward_with_cache", counted)
    model = SequenceClassifier.initialize(CFG, seed=0)
    seq = FeatureSequence("v", np.zeros((300, CFG.input_dim), dtype=np.float32))
    with pytest.raises(ValueError, match="unknown projection mode 'median'"):
        predict_video(model, seq, overlap=2, mode="median")
    assert calls == []


def test_predict_video_too_short_is_an_error():
    model = SequenceClassifier.initialize(CFG, seed=0)
    seq = FeatureSequence(video_id="s", features=np.zeros((2, CFG.input_dim), dtype=np.float32))
    with pytest.raises(ValueError, match="window"):
        predict_video(model, seq, overlap=2)


def _video(vid, frames=12, dim=CFG.input_dim, fill=0.0, labeled=True):
    labels = SegmentationMap(np.zeros(frames, dtype=bool)) if labeled else None
    return FeatureSequence(vid, np.full((frames, dim), fill, dtype=np.float32), labels)


def test_predict_video_cuts_each_video_once_through_make_windows(monkeypatch):
    """Predict cuts through the module's `make_windows`, so a wrapper of that
    name (a tracer's span) sees every video's cut, once."""
    calls, cut = [], fakeseg.training.make_windows

    def counted(seq, window, overlap):
        calls.append((seq.video_id, window, overlap))
        return cut(seq, window, overlap)

    monkeypatch.setattr(fakeseg.training, "make_windows", counted)
    model = SequenceClassifier.initialize(CFG, seed=0)
    for vid, frames in (("a", CFG.window), ("b", 12), ("c", 300)):
        predict_video(model, _video(vid, frames=frames, labeled=False), overlap=2)
    assert calls == [("a", CFG.window, 2), ("b", CFG.window, 2), ("c", CFG.window, 2)]


@pytest.mark.parametrize(
    "bad, labeled, message",
    [
        (_video("bad", dim=4), False, "video 'bad' has 4-dim features, the model takes 8"),
        (_video("bad", frames=2), False, "video 'bad' has 2 frames, fewer than the window of 3"),
        (_video("bad", fill=np.inf), False, "video 'bad' has non-finite features"),
        (_video("bad", labeled=False), True, "video 'bad' has no labels"),
    ],
    ids=["dim", "short", "non-finite", "unlabeled"],
)
def test_check_features_names_the_first_bad_video(bad, labeled, message):
    good = _video("good")
    later = _video("later", frames=1, dim=1, fill=np.nan, labeled=False)
    with pytest.raises(ValueError, match=message):
        check_features(iter([good, bad, later]), CFG, labeled=labeled)
    (checked,) = check_features(iter([good]), CFG, labeled=True)
    assert checked is good


@pytest.mark.parametrize("bad_row", [None, 0, -1], ids=["finite", "first-row", "last-row"])
def test_check_features_tests_finiteness_without_a_frame_sized_mask(bad_row):
    frames = 200_000
    feats = np.zeros((frames, CFG.input_dim), dtype=np.float32)
    if bad_row is not None:
        feats[bad_row, -1] = np.nan
    seq = FeatureSequence("long", feats)
    tracemalloc.start()
    try:
        if bad_row is None:
            assert check_features([seq], CFG) == [seq]
        else:
            with pytest.raises(ValueError, match="video 'long' has non-finite features"):
                check_features([seq], CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (T, d) boolean mask alone would be feats.size bytes
    assert peak < feats.size // 8


def test_history_serialization():
    train_set = _separable_windows(20, CFG, seed=9)
    val_set = _separable_windows(10, CFG, seed=10)
    cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=2, early_stop_patience=2, seed=0)
    _, history = train(SequenceClassifier.initialize(CFG, seed=0), train_set, val_set, cfg)
    d = dataclasses.asdict(history)
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
        _, _, grads = loss_and_grads(model, x, y, train=True, rng=rng, out=adam.grads)
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
            grads["head.layer1.b"][...] = np.nan  # a view of the buffer Adam reads
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


def test_a_divergence_error_survives_pickle():
    """A training error raised in a worker process reaches the caller by pickle."""
    err = TrainingDivergedError("gradient", 2, 9)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TrainingDivergedError
    assert str(back) == str(err) == "non-finite gradient at epoch 2, step 9"
    assert (back.epoch, back.step) == (2, 9)


# positional embedding, scale-shift head, dropout
STEP_CASES = [(pos, ss, drop) for pos in (False, True) for ss in (False, True) for drop in (0.0, 0.25)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("pos,scale_shift,dropout", STEP_CASES)
def test_steps_into_adams_buffer_match_the_packing_step_bit_for_bit(pos, scale_shift, dropout, dtype):
    """Gradients written into `FlatAdam.grad` and the chunked update give the
    bytes of the dict of gradients packed into a one-pass Adam, step after step."""
    cfg = dataclasses.replace(CFG, num_blocks=2, mlp_hidden=(8, 4), use_positional=pos,
                              use_scale_shift_head=scale_shift, dropout=dropout)
    x, y = _separable_windows(16, cfg, seed=12)
    model = SequenceClassifier.initialize(cfg, seed=5).astype(dtype)
    ref = SequenceClassifier.initialize(cfg, seed=5).astype(dtype)
    adam, ref_adam = FlatAdam(model, 1e-2), PackedAdamReference(ref, 1e-2)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for step in range(1, 5):
        loss, probs, grads = loss_and_grads(model, x, y, train=True, rng=rng, out=adam.grads)
        ref_loss, ref_probs, ref_grads = loss_and_grads_dict_reference(ref, x, y, train=True, rng=ref_rng)
        assert loss == ref_loss and probs.tobytes() == ref_probs.tobytes(), f"step {step}"
        assert list(grads) == list(model.params)
        for name, view in grads.items():
            assert np.shares_memory(view, adam.grad) and view.tobytes() == ref_grads[name].tobytes(), name
        adam.step()
        ref_adam.pack(ref_grads)
        ref_adam.step()
        for got, want in ((model.flat, ref.flat), (adam.m, ref_adam.m), (adam.v, ref_adam.v)):
            assert got.tobytes() == want.tobytes(), f"step {step}"


# ADAM_CHUNK for a model of n elements: the model is one element short of a
# chunk, exactly one, one element over, and many chunks with a partial last
CHUNKS = {"chunk-1": lambda n: n + 1, "chunk": lambda n: n, "chunk+1": lambda n: n - 1, "many": lambda n: 64}


@pytest.mark.parametrize("chunk_of", list(CHUNKS.values()), ids=list(CHUNKS))
def test_adam_in_chunks_matches_one_pass(monkeypatch, chunk_of):
    model = SequenceClassifier.initialize(CFG, seed=8)
    ref = SequenceClassifier.initialize(CFG, seed=8)
    chunk = chunk_of(model.flat.size)
    monkeypatch.setattr(fakeseg.training, "ADAM_CHUNK", chunk)
    adam, ref_adam = FlatAdam(model, 1e-2), PackedAdamReference(ref, 1e-2)
    assert adam._s1.size == min(model.flat.size, chunk) and model.flat.size % 64 != 0
    rng = np.random.default_rng(3)
    for step in range(1, 4):
        grad = rng.standard_normal(model.flat.size).astype(np.float32)
        grad[::7] *= 1e-6  # some tiny, some large steps
        adam.grad[...] = grad
        ref_adam.grad[...] = grad
        assert adam.grad_is_finite()
        adam.step()
        ref_adam.step()
        for got, want in ((model.flat, ref.flat), (adam.m, ref_adam.m), (adam.v, ref_adam.v)):
            assert got.tobytes() == want.tobytes(), f"step {step}"
    adam.grad[-1] = np.inf  # in the last chunk, whole or partial
    assert not adam.grad_is_finite()


def test_training_holds_four_models_and_a_little_scratch():
    """At a width where the parameters dominate, `train` over two improving
    epochs allocates the snapshot, Adam's gradient and two moments, and less
    than half a model besides (the chunk scratch, one batch's activations):
    no second snapshot, dict of gradients or model-sized Adam scratch."""
    cfg = TransformerConfig(input_dim=256, window=3, num_blocks=1, num_heads=4, head_dim=64, mlp_hidden=(16,),
                            dropout=0.0)
    train_set = _separable_windows(4, cfg, seed=14)
    val_set = _separable_windows(4, cfg, seed=15)
    model = SequenceClassifier.initialize(cfg, seed=0)
    tc = TrainConfig(batch_size=4, learning_rate=1e-4, max_epochs=2, early_stop_patience=1, seed=0)
    tracemalloc.start()
    try:
        _, history = train(model, train_set, val_set, tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history.best_epoch == 2  # so the snapshot was refreshed
    assert peak < 4.5 * model.flat.nbytes, peak / model.flat.nbytes


def test_training_lays_out_the_gradient_views_once_not_per_step(monkeypatch):
    """`train` builds the `{name: view}` dict over Adam's gradient buffer once,
    so the `param_layout` calls do not grow with the steps."""
    from fakeseg import transformer

    layout, calls = transformer.param_layout, []
    monkeypatch.setattr(transformer, "param_layout", lambda cfg: calls.append(cfg) or layout(cfg))
    x, y = _separable_windows(6, CFG, seed=16)
    counts = []
    for epochs in (1, 3):  # 3 and 9 steps of batch 4
        model = SequenceClassifier.initialize(CFG, seed=0)
        calls.clear()
        _, history = train(model, (x, y), (x, y), TrainConfig(batch_size=4, max_epochs=epochs, early_stop_patience=5))
        assert len(history.epochs) == epochs
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
