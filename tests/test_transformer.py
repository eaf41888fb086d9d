import dataclasses
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fakeseg import (
    FeatureSequence,
    SequenceClassifier,
    TransformerConfig,
    load_checkpoint,
    loss_and_grads,
    predict_video,
    save_checkpoint,
)
from fakeseg import transformer
from fakeseg.harness.config import load_experiment_config
from fakeseg.transformer import (
    LN_EPS,
    WINDOW_CHUNK,
    _attention_backward,
    _attention_forward,
    _attention_rebuild,
    _layer_norm_forward,
    _layer_norm_output,
    _softmax,
    config_kwargs,
    cross_entropy,
    forward,
    forward_with_cache,
    param_layout,
)
from helpers import (
    einsum_attention_backward,
    einsum_attention_forward,
    fd_gradcheck,
    forward_reference,
    loss_and_grads_dict_reference,
    loss_and_grads_reference,
    softmax_reference,
)

ROOT = Path(__file__).resolve().parent.parent

TINY = TransformerConfig(
    input_dim=8,
    window=3,
    num_blocks=1,
    num_heads=2,
    head_dim=4,
    ff_hidden=16,
    mlp_hidden=(8,),
    dropout=0.1,
    use_positional=True,
    use_scale_shift_head=True,
)


def _batch(cfg, n=4, seed=0, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal((n, cfg.window, cfg.input_dim)).astype(dtype)


def test_probabilities_are_normalized():
    model = SequenceClassifier.initialize(TINY, seed=0)
    probs = forward(model, _batch(TINY, n=16, dtype=np.float32))
    assert probs.shape == (16, 2)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6
    assert (probs >= 0).all()


def test_permutation_invariance_without_positional():
    cfg = TransformerConfig(
        input_dim=8, window=5, num_blocks=2, num_heads=2, head_dim=4,
        ff_hidden=16, mlp_hidden=(8,), use_positional=False,
    )
    model = SequenceClassifier.initialize(cfg, seed=1).astype(np.float64)
    x = _batch(cfg, n=6, seed=2)
    perm = np.random.default_rng(3).permutation(cfg.window)
    base = forward(model, x)
    shuffled = forward(model, x[:, perm, :])
    assert np.abs(base - shuffled).max() < 1e-12

    model32 = SequenceClassifier.initialize(cfg, seed=1)
    x32 = x.astype(np.float32)
    assert np.abs(forward(model32, x32) - forward(model32, x32[:, perm, :])).max() < 1e-6


def test_positional_embedding_breaks_permutation_invariance():
    cfg = TransformerConfig(
        input_dim=8, window=5, num_blocks=1, num_heads=2, head_dim=4,
        ff_hidden=16, mlp_hidden=(8,), use_positional=True,
    )
    model = SequenceClassifier.initialize(cfg, seed=1).astype(np.float64)
    x = _batch(cfg, n=6, seed=2)
    shifted = x[:, ::-1, :].copy()
    assert not np.allclose(forward(model, x), forward(model, shifted))


def test_single_position_window_collapses_analytically():
    # with W = 1 attention reduces to the value path: ctx = v, out = v @ wo + bo
    cfg = TransformerConfig(
        input_dim=6, window=1, num_blocks=1, num_heads=2, head_dim=3,
        ff_hidden=8, mlp_hidden=(4,), use_positional=False,
    )
    model = SequenceClassifier.initialize(cfg, seed=4).astype(np.float64)
    p = model.params
    x = _batch(cfg, n=5, seed=5)

    def ln(z, gain, bias):
        mu = z.mean(axis=-1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
        return gain * (z - mu) / np.sqrt(var + LN_EPS) + bias

    z = x[:, 0, :]
    h = ln(z, p["block0.ln1.gain"], p["block0.ln1.bias"])
    v = h @ p["block0.attn.wv"] + p["block0.attn.bv"]
    z = z + v @ p["block0.attn.wo"] + p["block0.attn.bo"]
    h2 = ln(z, p["block0.ln2.gain"], p["block0.ln2.bias"])
    z = z + np.maximum(h2 @ p["block0.ff.w1"] + p["block0.ff.b1"], 0) @ p["block0.ff.w2"] + p["block0.ff.b2"]
    z = ln(z, p["final_norm.gain"], p["final_norm.bias"])
    z = np.maximum(z @ p["head.layer0.w"] + p["head.layer0.b"], 0)
    logits = z @ p["head.layer1.w"] + p["head.layer1.b"]
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)

    assert np.abs(forward(model, x) - expected).max() < 1e-12


def test_gradients_match_finite_differences():
    model = SequenceClassifier.initialize(TINY, seed=1).astype(np.float64)
    rng = np.random.default_rng(7)
    x = _batch(TINY, n=4, seed=7)
    y = np.array([0, 1, 1, 0])
    _, _, grads = loss_and_grads(model, x, y)
    assert set(grads) == set(model.params)
    failures = fd_gradcheck(model, x, y, grads, rng, coords_per_tensor=5, rel_tol=1e-4)
    assert failures == []


def test_duplicated_sample_has_same_gradient():
    cfg = TransformerConfig(
        input_dim=8, window=3, num_blocks=1, num_heads=2, head_dim=4,
        ff_hidden=16, mlp_hidden=(8,), dropout=0.0,
    )
    model = SequenceClassifier.initialize(cfg, seed=2).astype(np.float64)
    x1 = _batch(cfg, n=1, seed=8)
    x2 = np.concatenate([x1, x1])
    _, _, g1 = loss_and_grads(model, x1, np.array([1]))
    _, _, g2 = loss_and_grads(model, x2, np.array([1, 1]))
    for name in g1:
        assert np.allclose(g1[name], g2[name], rtol=0, atol=1e-13), name


def test_head_bias_gradient_closed_form():
    cfg = TransformerConfig(
        input_dim=8, window=3, num_blocks=1, num_heads=2, head_dim=4,
        ff_hidden=16, mlp_hidden=(8,), dropout=0.0,
    )
    model = SequenceClassifier.initialize(cfg, seed=3).astype(np.float64)
    row = np.random.default_rng(9).standard_normal((1, 3, 8))
    x = np.repeat(row, 4, axis=0)  # zero-variance batch
    y = np.array([0, 1, 0, 1])  # uniform targets
    _, probs, grads = loss_and_grads(model, x, y)
    onehot = np.eye(2)[y]
    expected = (probs - onehot).mean(axis=0)
    assert np.allclose(grads["head.layer1.b"], expected, atol=1e-12)


@pytest.mark.parametrize("pos,scale_shift", [(False, False), (True, True)])
def test_gradients_are_written_into_every_element_of_the_buffer(pos, scale_shift):
    """A buffer full of NaN comes back finite: every view is written on every
    call, and the views are the buffer's, in the parameters' layout."""
    cfg = TransformerConfig(input_dim=8, window=3, num_blocks=2, num_heads=2, head_dim=4, ff_hidden=16,
                            mlp_hidden=(8, 4), use_positional=pos, use_scale_shift_head=scale_shift)
    model = SequenceClassifier.initialize(cfg, seed=4)
    x, y = _batch(cfg, n=6, seed=10, dtype=np.float32), np.arange(6) % 2
    out = SequenceClassifier(cfg, np.full_like(model.flat, np.nan))
    for seed in (0, 1):
        _, _, grads = loss_and_grads(model, x, y, train=True, rng=np.random.default_rng(seed), out=out)
        assert np.isfinite(out.flat).all()
        _, _, fresh = loss_and_grads(model, x, y, train=True, rng=np.random.default_rng(seed))
        assert list(grads) == list(fresh) == list(model.params)
        views = SequenceClassifier(cfg, out.flat).params
        for name, view in grads.items():
            assert view.shape == views[name].shape and view.ctypes.data == views[name].ctypes.data, name
            assert view.tobytes() == fresh[name].tobytes(), name
        out.flat[...] = np.nan


def test_a_step_holds_little_more_than_its_forward():
    """A batch-64 quickstart step peaks at most 800 KiB: each block caches
    x-hat of its two layer norms, the attention's probabilities, the
    feed-forward's hidden activation and the dropout masks as booleans; the
    backward makes Q, K, V, the context and the layer norms' outputs again,
    and frees each block's cache and its own temporaries once read (851 KiB
    while the layer norms' outputs and float masks were cached, 1,287 KiB
    while Q, K^T, V and the context were too)."""
    cfg = load_experiment_config(ROOT / "configs" / "quickstart.json").model
    model = SequenceClassifier.initialize(cfg, seed=0)
    rng = np.random.default_rng(0)
    x, y = _batch(cfg, n=64, seed=11, dtype=np.float32), rng.integers(0, 2, 64)
    out = SequenceClassifier(cfg, np.empty_like(model.flat))
    step_peak = _traced_peak(lambda: loss_and_grads(model, x, y, train=True, rng=rng, out=out))
    assert step_peak <= 800 << 10, step_peak / 1024


def test_forward_input_validation():
    model = SequenceClassifier.initialize(TINY, seed=0)
    with pytest.raises(ValueError, match="shape"):
        forward(model, np.zeros((2, 4, 8), dtype=np.float32))
    bad = np.zeros((2, 3, 8), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        forward(model, bad)
    with pytest.raises(ValueError, match="generator"):
        forward(model, np.zeros((2, 3, 8), dtype=np.float32), train=True)
    with pytest.raises(ValueError, match=r"batch of shape \(0, 3, 8\) has no windows"):
        forward(model, np.zeros((0, 3, 8), dtype=np.float32))


def test_loss_target_validation():
    model = SequenceClassifier.initialize(TINY, seed=0)
    x = _batch(TINY, n=2, dtype=np.float32)
    with pytest.raises(ValueError, match="targets"):
        loss_and_grads(model, x, np.array([0, 1, 1]))


def test_training_mode_dropout_is_seeded():
    model = SequenceClassifier.initialize(TINY, seed=0)
    x = _batch(TINY, n=8, dtype=np.float32)
    a = forward(model, x, train=True, rng=np.random.default_rng(11))
    b = forward(model, x, train=True, rng=np.random.default_rng(11))
    c = forward(model, x, train=True, rng=np.random.default_rng(12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(input_dim=0)
    with pytest.raises(ValueError):
        TransformerConfig(input_dim=8, dropout=1.0)
    with pytest.raises(ValueError):
        TransformerConfig(input_dim=8, mlp_hidden=(0,))
    with pytest.raises(ValueError, match="unknown"):
        config_kwargs(TransformerConfig, {"input_dim": 8, "bogus": 1}, "model")
    assert TransformerConfig(input_dim=8, ff_hidden=None).ff_dim == 32


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    model = SequenceClassifier.initialize(TINY, seed=5)
    path = tmp_path / "model.tfkm"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.config == model.config
    assert set(back.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name]), name
    x = _batch(TINY, n=6, dtype=np.float32)
    assert np.array_equal(forward(model, x), forward(back, x))
    # a second save of the loaded model is byte-identical
    save_checkpoint(tmp_path / "again.tfkm", back)
    assert (tmp_path / "again.tfkm").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.tfkm"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: {k: v for k, v in t.items() if k != "block0.attn.wq"}, "missing.*block0.attn.wq"),
        (lambda t: {**t, "block0.attn.extra": np.zeros(3)}, "block0.attn.extra"),
        (lambda t: {**t, "block0.ff.w1": np.zeros((16, 8))}, "block0.ff.w1.*shape"),
    ],
    ids=["missing", "extra", "misshaped"],
)
def test_checkpoint_rejects_tensor_set_mismatch(tmp_path, edit, message):
    model = SequenceClassifier.initialize(TINY, seed=5)
    model.params = edit(model.params)  # the saver writes whatever tensors `params` holds
    bad = tmp_path / "bad.tfkm"
    save_checkpoint(bad, model)
    with pytest.raises(ValueError, match=message) as info:
        load_checkpoint(bad)
    assert "bad.tfkm" in str(info.value)


@pytest.mark.parametrize(
    "blob, message",
    [
        (lambda cfg: b"{" * len(json.dumps(cfg)), "Expecting property name"),
        (lambda cfg: json.dumps({**cfg, "input_dim": 0}).encode(), "input_dim must be >= 1"),
    ],
    ids=["garbled", "invalid"],
)
def test_checkpoint_names_a_bad_config(tmp_path, blob, message):
    good = tmp_path / "good.tfkm"
    save_checkpoint(good, SequenceClassifier.initialize(TINY, seed=5))
    raw = good.read_bytes()
    (config_len,) = struct.unpack("<I", raw[8:12])
    config = blob(json.loads(raw[12 : 12 + config_len]))
    bad = tmp_path / "bad.tfkm"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(config)) + config + raw[12 + config_len :])
    with pytest.raises(ValueError, match=message) as info:
        load_checkpoint(bad)
    assert str(info.value).count("bad.tfkm") == 1


def test_checkpoint_rejects_truncated_header(tmp_path):
    good = tmp_path / "good.tfkm"
    save_checkpoint(good, SequenceClassifier.initialize(TINY, seed=5))
    raw = good.read_bytes()
    for cut in (6, 10, 30):
        bad = tmp_path / f"cut{cut}.tfkm"
        bad.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated") as info:
            load_checkpoint(bad)
        assert bad.name in str(info.value)


def test_checkpoint_rejects_truncated_tensor(tmp_path):
    good = tmp_path / "good.tfkm"
    save_checkpoint(good, SequenceClassifier.initialize(TINY, seed=5))
    bad = tmp_path / "bad.tfkm"
    bad.write_bytes(good.read_bytes()[:-3])
    # tensors are written sorted by name, so the last one is cut short
    last = sorted(SequenceClassifier.initialize(TINY, seed=5).params)[-1]
    with pytest.raises(ValueError, match=f"truncated.*{last}"):
        load_checkpoint(bad)


def test_checkpoint_names_a_tensor_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.tfkm"
    save_checkpoint(path, SequenceClassifier.initialize(TINY, seed=5))
    raw = bytearray(path.read_bytes())
    (config_len,) = struct.unpack("<I", raw[8:12])
    raw[12 + config_len + 4 + 2] = 0xFF  # first byte of tensor #0's name
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"bad\.tfkm: tensor #0 name is not UTF-8") as info:
        load_checkpoint(path)
    assert str(info.value).count("bad.tfkm") == 1


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    good = tmp_path / "good.tfkm"
    save_checkpoint(good, SequenceClassifier.initialize(TINY, seed=5))
    bad = tmp_path / "bad.tfkm"
    bad.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing") as info:
        load_checkpoint(bad)
    assert "bad.tfkm" in str(info.value)


def _assert_close_to_oracle(got, ref, dtype, what):
    """Batched matmul and einsum sum the same products in different orders,
    so each entry may differ by a few ulps of the tensor's scale: bound the
    error by 32 eps of max(1, max |ref|). The scale is floored at 1 for
    tensors that are zero in exact arithmetic (the key-bias gradient, since
    softmax ignores a per-row shift) and hold only rounding noise."""
    assert got.dtype == ref.dtype == dtype, what
    bound = 32 * np.finfo(dtype).eps * max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(got - ref).max())
    assert err <= bound, f"{what}: max error {err:.3g} > {bound:.3g}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 7, 64, 256])
def test_matmul_attention_matches_einsum_oracle(dtype, n):
    cfg = TransformerConfig(input_dim=16, window=5, num_blocks=1, num_heads=4, head_dim=16)
    model = SequenceClassifier.initialize(cfg, seed=3).astype(dtype)
    rng = np.random.default_rng(n)
    h = rng.standard_normal((n, cfg.window, cfg.input_dim)).astype(dtype)
    g = rng.standard_normal((n, cfg.window, cfg.input_dim)).astype(dtype)

    out, cache = _attention_forward(h, model.params, "block0.attn.", cfg)
    ref_out, ref_cache = einsum_attention_forward(h, model.params, "block0.attn.", cfg)
    _assert_close_to_oracle(out, ref_out, dtype, "forward")

    # the backward writes into the views it is given; NaN shows one left unwritten
    grads = {k: np.full_like(p, np.nan) for k, p in model.params.items() if k.startswith("block0.attn.")}
    ref_grads = {}
    dh = _attention_backward(g, h.reshape(-1, cfg.input_dim), cache, model.params, grads, "block0.attn.")
    ref_dh = einsum_attention_backward(g, ref_cache, ref_grads, "block0.attn.")
    _assert_close_to_oracle(dh, ref_dh, dtype, "input gradient")
    assert set(grads) == set(ref_grads)
    for name in ref_grads:
        _assert_close_to_oracle(grads[name], ref_grads[name], dtype, name)


def test_params_are_views_of_one_buffer():
    model = SequenceClassifier.initialize(TINY, seed=0)
    layout = param_layout(TINY)
    assert list(model.params) == list(layout)
    assert model.flat.ndim == 1 and model.flat.flags.c_contiguous
    assert model.flat.size == sum(int(np.prod(shape)) for shape in layout.values())
    for name, view in model.params.items():
        assert view.shape == layout[name], name
        assert np.shares_memory(view, model.flat), name
    model.params["block0.ff.b1"][:] = 7.0  # a write through a view lands in the buffer
    assert (model.flat == 7.0).sum() == TINY.ff_dim

    snapshot = model.copy_params()
    assert not np.shares_memory(snapshot, model.flat)
    model.flat[...] = snapshot
    cast = model.astype(np.float64)
    assert not np.shares_memory(cast.flat, model.flat)
    assert all(np.shares_memory(v, cast.flat) for v in cast.params.values())


def test_model_rejects_buffer_of_wrong_size():
    with pytest.raises(ValueError, match="buffer"):
        SequenceClassifier(TINY, np.zeros(3, dtype=np.float32))


@st.composite
def softmax_inputs(draw):
    """Logits up to +-80 shaped (N, 2) or (N, H, L, L), with tied values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 40)), 2)
    else:
        length = draw(st.integers(1, 12))
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)), length, length)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-80, 80, size=shape)
    if draw(st.booleans()):  # a few distinct values, so rows hold ties
        z = rng.choice(z.reshape(-1)[:3], size=shape)
    return z.astype(dtype)


@settings(max_examples=300, deadline=None)
@given(z=softmax_inputs())
def test_softmax_matches_the_row_wise_reference(z):
    got, ref = _softmax(z), softmax_reference(z)
    assert got.shape == z.shape and got.dtype == z.dtype
    if z.shape[-1] < 8:  # both sum a row left to right
        assert got.tobytes() == ref.tobytes()
    else:  # numpy sums a long last axis pairwise
        tol = 8 * np.finfo(z.dtype).eps
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=tol * z.shape[-1])
    if z.ndim == 2:  # cross_entropy reduces the same (N, 2) rows
        targets = np.arange(len(z)) % 2
        shifted = z - z.max(axis=1, keepdims=True)
        picked = shifted[np.arange(len(z)), targets]
        ref_loss = float((np.log(np.exp(shifted).sum(axis=1)) - picked).mean())
        assert cross_entropy(z, targets) == ref_loss


# (input_dim, num_heads, head_dim, ff_hidden, mlp_hidden) of the quickstart
# model and of the micro model the CLI and experiment tests train
SHIPPED_WIDTHS = ((16, 4, 16, 64, 32), (8, 2, 8, 32, 16))


@st.composite
def layout_cases(draw, widths):
    """A model of the drawn widths (H * head_dim != d), a batch, targets, a
    mode and a seed for the dropout generator."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d, heads, head_dim, ff, mlp = draw(widths)
    assume(heads * head_dim != d)
    cfg = TransformerConfig(
        input_dim=d, window=draw(st.integers(1, 7)), num_blocks=draw(st.integers(1, 2)),
        num_heads=heads, head_dim=head_dim, ff_hidden=ff, mlp_hidden=(mlp,),
        dropout=draw(st.sampled_from([0.0, 0.25])),
        use_positional=draw(st.booleans()), use_scale_shift_head=draw(st.booleans()),
    )
    n = draw(st.sampled_from([1, 7, 64, 256]))
    seed = draw(st.integers(0, 2**32 - 1))
    return layout_case(cfg, dtype, n, seed, draw(st.booleans()))


def layout_case(cfg, dtype, n, seed, train):
    """The case `layout_cases` draws from these values: the model initialized
    from `seed`, and n windows and their targets from a generator seeded alike."""
    rng = np.random.default_rng(seed)
    model = SequenceClassifier.initialize(cfg, seed=seed % 1000).astype(dtype)
    x = rng.standard_normal((n, cfg.window, cfg.input_dim)).astype(dtype)
    return model, x, rng.integers(0, 2, n), train, seed


def _layout_pairs(case):
    """(name, 2-D layout, 3-D reference) for the logits, the probs and every
    gradient; in train mode both sides draw their dropout masks from
    generators seeded alike, in the same order and shapes."""
    model, x, y, train, seed = case
    logits, probs, _ = forward_with_cache(model, x, train, np.random.default_rng(seed))
    ref_logits, ref_probs, _ = forward_reference(model, x, train, np.random.default_rng(seed))
    loss, g_probs, grads = loss_and_grads(model, x, y, train, np.random.default_rng(seed))
    ref_loss, _, ref_grads = loss_and_grads_reference(model, x, y, train, np.random.default_rng(seed))
    assert set(grads) == set(ref_grads) == set(model.params)
    pairs = [("loss", np.array(loss), np.array(ref_loss)), ("logits", logits, ref_logits),
             ("probs", probs, ref_probs), ("loss probs", g_probs, ref_probs)]
    return pairs + [(name, grads[name], ref_grads[name]) for name in sorted(ref_grads)]


def _assert_within_rounding(pairs, dtype):
    for name, got, ref in pairs:
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        tol = 256 * np.finfo(dtype).eps * max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol, err_msg=name)


@settings(max_examples=120, deadline=None)
@given(case=layout_cases(st.sampled_from(SHIPPED_WIDTHS)))
def test_2d_layout_matches_the_3d_reference_bit_for_bit(case):
    """At the shipped widths OpenBLAS sums every folded product in the order
    of the per-window ones, so the bytes agree. Two cases take a different
    OpenBLAS call and agree only to rounding: one frame per window (a
    vector-matrix product per window against one matrix product), and
    float64 scores for W <= 4 at head_dim 16 (Q @ K^T from a contiguous K^T
    and from K read transposed use different small dgemm kernels)."""
    model, pairs = case[0], _layout_pairs(case)
    cfg = model.config
    if cfg.window == 1 or (model.dtype == np.float64 and cfg.window <= 4 and cfg.head_dim >= 16):
        _assert_within_rounding(pairs, model.dtype)
        return
    for name, got, ref in pairs:
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name


@st.composite
def any_widths(draw):
    return (draw(st.integers(4, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 20)),
            draw(st.integers(1, 24)), draw(st.integers(1, 8)))


@settings(max_examples=120, deadline=None)
@given(case=layout_cases(any_widths()))
# found with --hypothesis-seed 189 under OPENBLAS_CORETYPE=Zen, where block0.ff.w1's
# gradient misses the oracle's by 3.9e-5 against a bound of 3.6e-5
@example(case=layout_case(TransformerConfig(input_dim=4, window=1, num_blocks=2, num_heads=1, head_dim=12,
                                            ff_hidden=12, mlp_hidden=(1,), dropout=0.0), np.float32, 64, 1, False))
def test_2d_layout_matches_the_3d_reference_at_any_width(case):
    """At other widths OpenBLAS may block a folded product differently from
    the per-window ones, so the layouts agree to rounding. (From d = 4: layer
    norm over fewer features amplifies the rounding past any fixed bound.)"""
    _assert_within_rounding(_layout_pairs(case), case[0].dtype)


def _assert_bare_forward_matches(case):
    model, x, _, train, seed = case
    logits, probs, cache = forward_with_cache(model, x, train, np.random.default_rng(seed))
    bare = forward_with_cache(model, x, train, np.random.default_rng(seed), keep_cache=False)
    assert cache is not None and bare[2] is None
    assert bare[0].tobytes() == logits.tobytes() and bare[1].tobytes() == probs.tobytes()


ANY_LAYOUT = st.one_of(layout_cases(st.sampled_from(SHIPPED_WIDTHS)), layout_cases(any_widths()))


@settings(max_examples=120, deadline=None)
@given(case=ANY_LAYOUT)
def test_forward_without_a_cache_gives_the_same_bytes_and_no_cache(case):
    _assert_bare_forward_matches(case)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=ANY_LAYOUT)
def test_forward_without_a_cache_gives_the_same_bytes_in_chunks_of_two_windows(monkeypatch, case):
    """Every batch of more than two windows crosses chunks of K^T and the context."""
    monkeypatch.setattr(transformer, "WINDOW_CHUNK", 2)
    _assert_bare_forward_matches(case)


def _attention_in_one_pass(h, params, prefix, config):
    """(output, Q, K^T, V, context, probs) of attention with K^T, the scores
    and the context each made by one matmul over the whole batch, bias
    added as bk[:, None]."""
    w, nh, hd = config.window, config.num_heads, config.head_dim
    n = len(h) // w
    q = (h @ params[prefix + "wq"] + params[prefix + "bq"]).reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    kt = params[prefix + "wk"].T @ h.reshape(n, w, -1).transpose(0, 2, 1)
    kt += params[prefix + "bk"][:, None]
    kt = kt.reshape(n, nh, hd, w)
    scores = q @ kt
    scores *= 1.0 / math.sqrt(hd)
    probs = _softmax(scores)
    v = (h @ params[prefix + "wv"] + params[prefix + "bv"]).reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    ctx = np.empty((n, w, nh, hd), h.dtype)
    np.matmul(probs, v, out=ctx.transpose(0, 2, 1, 3))
    out = ctx.reshape(n * w, nh * hd) @ params[prefix + "wo"] + params[prefix + "bo"]
    return out, q, kt, v, ctx, probs


# windows per batch: one short of a chunk, one chunk, one over, several with a partial last
CHUNK_EDGES = {"chunk-1": -1, "chunk": 0, "chunk+1": 1, "several": 2 * WINDOW_CHUNK + 5}


def _chunk_edge_case(dtype, extra):
    """The quickstart model in `dtype`, its config and an attention input of chunk + extra windows."""
    cfg = load_experiment_config(ROOT / "configs" / "quickstart.json").model
    model = SequenceClassifier.initialize(cfg, seed=4).astype(dtype)
    n = WINDOW_CHUNK + extra
    return model, cfg, np.random.default_rng(n).standard_normal((n * cfg.window, cfg.input_dim)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("extra", list(CHUNK_EDGES.values()), ids=list(CHUNK_EDGES))
def test_attention_in_window_chunks_gives_the_bytes_of_one_pass(dtype, extra):
    model, cfg, h = _chunk_edge_case(dtype, extra)
    n = len(h) // cfg.window
    want, *_, want_probs = _attention_in_one_pass(h, model.params, "block0.attn.", cfg)
    out, probs = _attention_forward(h, model.params, "block0.attn.", cfg)
    assert out.tobytes() == want.tobytes()
    assert probs.shape == want_probs.shape and probs.tobytes() == want_probs.tobytes()  # what the backward reads
    x = np.random.default_rng(n).standard_normal((n, cfg.window, cfg.input_dim)).astype(dtype)
    logits, probs, _ = forward_with_cache(model, x)
    bare_logits, bare_probs, _ = forward_with_cache(model, x, keep_cache=False)
    assert bare_logits.tobytes() == logits.tobytes() and bare_probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("extra", list(CHUNK_EDGES.values()), ids=list(CHUNK_EDGES))
def test_the_backward_rebuilds_q_k_v_and_the_context_with_the_forwards_bytes(dtype, extra):
    model, cfg, h = _chunk_edge_case(dtype, extra)
    _, want_q, want_kt, want_v, want_ctx, _ = _attention_in_one_pass(h, model.params, "block0.attn.", cfg)
    _, probs = _attention_forward(h, model.params, "block0.attn.", cfg)
    q, k, v, ctx = _attention_rebuild(h, probs, model.params, "block0.attn.")
    assert k.flags.c_contiguous and ctx.flags.c_contiguous
    for name, got, want in (("Q", q, want_q), ("K^T", k.swapaxes(-1, -2), want_kt), ("V", v, want_v),
                            ("context", ctx, want_ctx)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("rows", [1, 5, 320, 1280])
@pytest.mark.parametrize("d", [16, 768])
def test_the_backward_rebuilds_a_layer_norms_output_with_the_forwards_bytes(dtype, rows, d):
    """x-hat written into the centered buffer and the bias added in place
    give the bytes of the out-of-place formula, and `_layer_norm_output`
    makes the output again from the cache in those bytes."""
    rng = np.random.default_rng(rows * d)
    x = (3 * rng.standard_normal((rows, d)) + 1).astype(dtype)
    gain, bias = rng.standard_normal(d).astype(dtype), rng.standard_normal(d).astype(dtype)
    out, cache = _layer_norm_forward(x, gain, bias)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    want = gain * xhat + bias
    assert cache[0].tobytes() == xhat.tobytes() and cache[1].tobytes() == inv.tobytes()
    assert out.dtype == dtype and out.tobytes() == want.tobytes()
    assert _layer_norm_output(cache, bias).tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_a_dropout_step_with_boolean_masks_matches_the_float_mask_reference(dtype):
    """Each block caches its two dropout masks as boolean views of the one
    draw and neither layer norm's output. The step gives the bytes of the
    reference step that makes each float mask and layer norm output by the
    plain expressions, on every OpenBLAS kernel, and agrees to rounding
    with the (N, W, d) reference, which draws and caches a float mask at a
    time (on SkylakeX in its bytes too, as the 2-D against 3-D tests check)."""
    cfg = dataclasses.replace(load_experiment_config(ROOT / "configs" / "quickstart.json").model, dropout=0.3)
    model = SequenceClassifier.initialize(cfg, seed=2).astype(dtype)
    x, y = _batch(cfg, n=64, seed=5, dtype=dtype), np.arange(64) % 2
    blocks = forward_with_cache(model, x, train=True, rng=np.random.default_rng(9))[2][0]
    masks = [mask for c in blocks for mask in (c[2], c[5])]
    assert all(m.dtype == bool and m.shape == (64 * cfg.window, cfg.input_dim) for m in masks)
    assert len({id(m.base) for m in masks}) == 1
    # the attention's cache is its probabilities; its input is made again
    assert all(c[1].shape == (64, cfg.num_heads, cfg.window, cfg.window) for c in blocks)
    loss, probs, grads = loss_and_grads(model, x, y, train=True, rng=np.random.default_rng(9))
    ref_loss, ref_probs, ref_grads = loss_and_grads_dict_reference(model, x, y, True, np.random.default_rng(9))
    assert loss == ref_loss and probs.tobytes() == ref_probs.tobytes()
    for name, want in ref_grads.items():
        assert grads[name].tobytes() == want.tobytes(), name
    ref_loss, ref_probs, ref_grads = loss_and_grads_reference(model, x, y, True, np.random.default_rng(9))
    pairs = [("loss", np.array(loss), np.array(ref_loss)), ("probs", probs, ref_probs)]
    _assert_within_rounding(pairs + [(name, grads[name], ref_grads[name]) for name in ref_grads], dtype)


# the tests above that compare bytes: with each other, or with an oracle
BYTE_FOR_BYTE = ("every_element or row_wise_reference or bit_for_bit or same_bytes or bytes_of_one_pass"
                 " or forwards_bytes or float_mask_reference")
_CORENAME = """
import ctypes, numpy
name = ctypes.CDLL(numpy._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
name.restype = ctypes.c_char_p
print(name().decode(), end="")
"""


@pytest.mark.skipif(transformer._OPENBLAS is None, reason="numpy's BLAS is not the bundled OpenBLAS")
def test_the_byte_comparisons_hold_under_the_sandybridge_kernel():
    """OpenBLAS picks its kernel by CPU, and each kernel may round a product
    its own way. The byte comparisons of this file hold under SkylakeX and
    SandyBridge, so they run again in a fresh process under SandyBridge,
    every one that the filter collects under the default kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE="SandyBridge", PYTHONPATH=str(ROOT / "src"))
    core = subprocess.run([sys.executable, "-c", _CORENAME], capture_output=True, text=True, env=env, check=True)
    if core.stdout.lower() != "sandybridge":  # OpenBLAS names it Sandybridge
        pytest.skip(f"OpenBLAS runs {core.stdout!r} when asked for SandyBridge on this CPU")
    pytest_k = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", BYTE_FOR_BYTE]
    default = {key: value for key, value in env.items() if key != "OPENBLAS_CORETYPE"}
    collected = subprocess.run(pytest_k + ["--collect-only"], capture_output=True, text=True, env=default, cwd=ROOT)
    count = re.search(r"^(\d+)/\d+ tests collected", collected.stdout, re.MULTILINE)
    assert collected.returncode == 0 and count, collected.stdout[-3000:]
    proc = subprocess.run(pytest_k, capture_output=True, text=True, env=env, cwd=ROOT)
    ran = re.search(r"^(\d+) passed, \d+ deselected in ", proc.stdout, re.MULTILINE)  # none skipped or failed
    assert proc.returncode == 0 and ran and ran[1] == count[1], (count[1], proc.stdout[-3000:])


def _traced_peak(call) -> int:
    """Bytes allocated at the peak of one call of call(), warm."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_batch_256_forward_without_a_cache_peaks_at_a_fraction_of_one_with_it():
    """A warm batch-256 quickstart forward peaks at most 1,700 KiB with the
    cache (1,952 KiB while it held the layer norms' outputs, 4,514 KiB while
    it held Q, K^T, V and the context too) and at most 800 KiB without one."""
    cfg = load_experiment_config(ROOT / "configs" / "quickstart.json").model
    model = SequenceClassifier.initialize(cfg, seed=0)
    batch = _batch(cfg, n=256, dtype=np.float32)
    cached = _traced_peak(lambda: forward_with_cache(model, batch))
    bare = _traced_peak(lambda: forward_with_cache(model, batch, keep_cache=False))
    assert cached <= 1700 << 10 and bare <= 800 << 10, (cached / 1024, bare / 1024)


def test_predict_video_on_an_hour_holds_one_batch_and_the_score_arrays():
    """At T = 90,000 making every window at once would take 28.8 MB alone."""
    cfg = load_experiment_config(ROOT / "configs" / "quickstart.json").model
    model = SequenceClassifier.initialize(cfg, seed=0)
    rng = np.random.default_rng(0)
    seq = FeatureSequence("hour", rng.standard_normal((90_000, cfg.input_dim)).astype(np.float32))
    peak = _traced_peak(lambda: predict_video(model, seq, 4, mode="mean"))
    assert peak <= 8 << 20, peak


def test_predict_video_on_a_clip_holds_the_activations_of_128_windows():
    """A 300-frame clip has 296 windows at the quickstart overlap: forwarded
    256 at a time its warm predict peaked at 783 KiB, 128 at a time 454 KiB."""
    cfg = load_experiment_config(ROOT / "configs" / "quickstart.json").model
    model = SequenceClassifier.initialize(cfg, seed=0)
    rng = np.random.default_rng(0)
    seq = FeatureSequence("clip", rng.standard_normal((300, cfg.input_dim)).astype(np.float32))
    peak = _traced_peak(lambda: predict_video(model, seq, 4, mode="mean"))
    assert peak <= 600 << 10, peak / 1024


# Runs in a fresh interpreter, so the heap it measures is its own: warm up,
# size the activations one call holds, then count minor page faults over 50
# more calls. Three kinds of call, each large enough that its activations
# span more pages than reuse and faulting can be told apart by: a batch-512
# forward with the cache and one without (at batch 256 they hold about 430
# and 175 pages), and a batch-256 training step (loss_and_grads, then the
# Adam update; at batch 128 it holds about 205 pages).
_FAULT_PROBE = """
import json, resource, sys, tracemalloc
import numpy as np
from fakeseg.harness.config import load_experiment_config
from fakeseg.training import FlatAdam
from fakeseg.transformer import SequenceClassifier, forward_with_cache, loss_and_grads

def owned_bytes(obj, seen):
    if isinstance(obj, (tuple, list)):
        return sum(owned_bytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return owned_bytes(list(obj.values()), seen)
    if not isinstance(obj, np.ndarray):
        return 0
    base = obj if obj.base is None else obj.base
    if not isinstance(base, np.ndarray) or id(base) in seen:
        return 0
    seen.add(id(base))
    return base.nbytes

def traced_peak(call):  # bytes allocated at the peak of one call, kept or not
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak

def probe(call, size):  # faults per call of call(), and the pages of the bytes size() returns
    for _ in range(5):
        call()
    pages = size() / 4096
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"faults_per_call": faults / 50, "activation_pages": pages}

cfg = load_experiment_config(sys.argv[1]).model
model = SequenceClassifier.initialize(cfg, seed=0)
rng = np.random.default_rng(0)
batch = rng.standard_normal((256, cfg.window, cfg.input_dim)).astype(np.float32)
targets = rng.integers(0, 2, 256)
adam = FlatAdam(model, 1e-3)

def train_step():
    loss_and_grads(model, batch, targets, train=True, rng=rng, out=adam.grads)
    adam.step()

def train_activations():
    # what a step holds at its peak: the training forward's cache and the gradients
    return forward_with_cache(model, batch, train=True, rng=rng), loss_and_grads(model, batch, targets)

wide = np.concatenate([batch, batch])
forward = lambda: forward_with_cache(model, wide)
bare_forward = lambda: forward_with_cache(model, wide, keep_cache=False)
calls = {
    "forward": (forward, lambda: owned_bytes(forward(), set())),
    "bare_forward": (bare_forward, lambda: traced_peak(bare_forward)),
    "train_step": (train_step, lambda: owned_bytes(train_activations(), set())),
}
print(json.dumps(probe(*calls[sys.argv[2]])))
"""


def _fault_probe(call):
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, str(ROOT / "configs" / "quickstart.json"), call],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return json.loads(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator tuning is glibc only")
def test_batch_256_forwards_reuse_their_heap_pages():
    """Without the allocator setting every forward faults its activations in
    again, about one fault per page; with it the pages are reused. The probe
    forwards 512 windows, whose cache spans more than 500 pages."""
    result = _fault_probe("forward")
    assert result["activation_pages"] > 500
    assert result["faults_per_call"] < 0.1 * result["activation_pages"], result


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator tuning is glibc only")
def test_batch_64_training_steps_reuse_their_heap_pages():
    """A training step (forward with dropout, backward into Adam's buffer and Adam update)
    reuses its pages too, the rebuilt Q, K, V and context included. The probe
    steps on 256 windows, whose activations span more than 250 pages."""
    result = _fault_probe("train_step")
    assert result["activation_pages"] > 250
    assert result["faults_per_call"] < 0.1 * result["activation_pages"], result


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator tuning is glibc only")
def test_batch_256_forwards_without_a_cache_reuse_their_heap_pages():
    """A forward that keeps no cache frees each activation once read; the
    pages of its peak are reused by the next call all the same. The probe
    forwards 512 windows, whose peak still spans more than 250 pages."""
    result = _fault_probe("bare_forward")
    assert result["activation_pages"] > 250
    assert result["faults_per_call"] < 0.1 * result["activation_pages"], result


# -- the BLAS thread count --


@pytest.fixture
def blas_sets(monkeypatch):
    """The real OpenBLAS (getter, setter), and the list of every count
    fakeseg sets from here on; the process's count is put back after."""
    real = transformer._OPENBLAS
    if real is None:
        pytest.skip("numpy's BLAS has no scipy_openblas thread symbols")
    counts, before = [], real[0]()

    def put(n):
        counts.append(n)
        real[1](n)

    monkeypatch.setattr(transformer, "_OPENBLAS", (real[0], put))
    yield real, counts
    real[1](before)


def test_a_forward_picks_its_blas_threads_by_its_largest_gemm(blas_sets):
    """Up to BLAS_SERIAL_MACS it runs on one thread and sets the caller's 2
    back; above, it runs on the caller's count and sets none."""
    real, counts = blas_sets
    rng = np.random.default_rng(0)
    small = SequenceClassifier.initialize(TransformerConfig(input_dim=16, num_heads=4, head_dim=16, ff_hidden=64))
    wide_cfg = TransformerConfig(input_dim=128, num_blocks=1, num_heads=4, head_dim=128, ff_hidden=512)
    wide = SequenceClassifier.initialize(wide_cfg)
    rows = transformer.BLAS_SERIAL_MACS // (wide_cfg.window * 128 * 512)
    for model, n, want in ((small, 256, [1, 2]), (wide, rows, [1, 2]), (wide, rows + 1, []), (small, 1, [1, 2])):
        real[1](2)
        counts.clear()
        forward(model, rng.standard_normal((n, 5, model.config.input_dim), dtype=np.float32))
        assert counts == want and real[0]() == 2, (model.config.input_dim, n)


def test_the_blas_helper_does_nothing_without_the_symbols(monkeypatch):
    import ctypes.util

    assert transformer._openblas_threads(ctypes.util.find_library("c")) is None
    assert transformer._openblas_threads(str(ROOT / "no-such-library.so")) is None
    real = transformer._OPENBLAS
    before = real[0]() if real is not None else None
    if real is not None:
        real[1](2)
    seen, softmax = [], transformer._softmax

    def probe(z):  # the count in force as each softmax of a forward runs
        seen.append(real[0]() if real is not None else None)
        return softmax(z)

    monkeypatch.setattr(transformer, "_softmax", probe)
    monkeypatch.setattr(transformer, "_OPENBLAS", None)
    model = SequenceClassifier.initialize(TransformerConfig(input_dim=4, num_heads=1, head_dim=4))
    x = np.random.default_rng(1).standard_normal((3, 5, 4), dtype=np.float32)
    want = forward(model, x)
    transformer.limit_blas_threads(1)
    assert forward(model, x).tobytes() == want.tobytes()
    assert seen and set(seen) == {2 if real is not None else None}
    if real is not None:
        assert real[0]() == 2
        real[1](before)


def _thread_model_and_data():
    model = SequenceClassifier.initialize(TransformerConfig(input_dim=4, num_heads=1, head_dim=4))
    rng = np.random.default_rng(2)
    return model, rng.standard_normal((12, 5, 4), dtype=np.float32), np.arange(12) % 2, rng


def test_a_bare_forward_and_step_give_the_callers_blas_threads_back(blas_sets):
    """Each runs on one thread and leaves the caller's count, 2 or 1, as it
    was; a batch above BLAS_SERIAL_MACS under a count of 1 stays on 1."""
    real, counts = blas_sets
    model, x, y, rng = _thread_model_and_data()
    calls = {"forward": lambda: forward(model, x), "loss_and_grads": lambda: loss_and_grads(model, x, y)}
    for start in (2, 1):
        for name, call in calls.items():
            real[1](start)
            counts.clear()
            call()
            assert counts[0] == 1 and real[0]() == start, (name, start, counts)
    wide = SequenceClassifier.initialize(TransformerConfig(input_dim=128, num_blocks=1, num_heads=4, head_dim=128))
    big = rng.standard_normal((transformer.BLAS_SERIAL_MACS // (5 * 128 * 512) + 1, 5, 128), dtype=np.float32)
    real[1](1)
    counts.clear()
    forward(wide, big)
    loss_and_grads(wide, big, np.arange(len(big)) % 2)
    assert counts == [] and real[0]() == 1


def test_train_evaluate_and_predict_put_the_blas_threads_back(blas_sets):
    """Their forwards run on one thread; the caller's count is theirs again after."""
    from fakeseg.training import TrainConfig, evaluate, predict_video, train
    from fakeseg.windowing import FeatureSequence

    real, counts = blas_sets
    model, x, y, rng = _thread_model_and_data()
    seq = FeatureSequence("v", rng.standard_normal((40, 4), dtype=np.float32))
    calls = {
        "train": lambda: train(model, (x, y), (x, y), TrainConfig(batch_size=4, max_epochs=1)),
        "evaluate": lambda: evaluate(model, x, y),
        "predict_video": lambda: predict_video(model, seq, 4),
    }
    for start in (2, 1):
        for name, call in calls.items():
            real[1](start)
            counts.clear()
            call()
            assert counts[0] == 1 and counts[-1] == start and real[0]() == start, (name, start, counts)
