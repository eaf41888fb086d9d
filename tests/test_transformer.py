import numpy as np
import pytest

from fakeseg import (
    SequenceClassifier,
    TransformerConfig,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from fakeseg.transformer import (
    LN_EPS,
    _attention_backward,
    _attention_forward,
    forward,
    param_layout,
)
from helpers import einsum_attention_backward, einsum_attention_forward, fd_gradcheck

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
        TransformerConfig.from_dict({"input_dim": 8, "bogus": 1})
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

    grads, ref_grads = {}, {}
    dh = _attention_backward(g, cache, grads, "block0.attn.")
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
