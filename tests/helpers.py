"""Shared test oracles and fixtures: finite differences, pairwise AUC,
per-tensor Adam, row-wise softmax, einsum attention, the scale-shift
adapter, the (N, W, d) forward and backward, the training step that
packed a dict of gradients into a whole-model Adam, loop versions of the per-frame kernels, whole-video
predict, the row-by-row synth, configs."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from fakeseg.injection import render_map
from fakeseg.prng import derive_seed
from fakeseg.synth import class_means
from fakeseg.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, PREDICT_BATCH
from fakeseg.transformer import (
    SequenceClassifier,
    _attention_rebuild,
    _layer_norm_forward,
    _mean_last,
    _reduce_rows,
    cross_entropy,
    forward_with_cache,
)
from fakeseg.windowing import FeatureSequence, make_windows

MICRO_CONFIG = {
    "dataset": {
        "mode": "one",
        "seed": 7,
        "num_train_videos": 6,
        "num_val_videos": 2,
        "num_test_videos": 3,
        "num_real_test_videos": 2,
        "min_length": 250,
        "max_length": 280,
        "feature_dim": 8,
        "separation": 6.0,
        "temporal_rho": 0.1,
        "noise_std": 1.0,
    },
    "model": {
        "window": 5,
        "num_blocks": 1,
        "num_heads": 2,
        "head_dim": 8,
        "ff_hidden": 32,
        "mlp_hidden": [16],
        "dropout": 0.1,
    },
    "train": {
        "batch_size": 64,
        "learning_rate": 0.001,
        "max_epochs": 6,
        "early_stop_patience": 3,
        "seed": 1,
    },
    "eval": {"smooth_k": 7, "threshold": 0.5, "overlap": 4, "frame_mode": "mean"},
}


def micro_config_dict(**section_overrides) -> dict:
    """Deep copy of the fast test config, with per-section dict overrides."""
    cfg = copy.deepcopy(MICRO_CONFIG)
    for section, overrides in section_overrides.items():
        cfg[section].update(overrides)
    return cfg


def pairwise_auc(gt_labels: np.ndarray, scores: np.ndarray) -> float:
    """O(T^2) ROC-AUC oracle: wins + half-credit for ties over all pos/neg pairs."""
    pos = scores[gt_labels.astype(bool)]
    neg = scores[~gt_labels.astype(bool)]
    wins = 0
    ties = 0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def fd_gradcheck(
    model: SequenceClassifier,
    x: np.ndarray,
    y: np.ndarray,
    grads: dict[str, np.ndarray],
    rng: np.random.Generator,
    coords_per_tensor: int = 5,
    step: float = 1e-6,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-8,
) -> list[tuple[str, int, float]]:
    """Central finite differences on every parameter tensor of `model`.

    Perturbs `coords_per_tensor` random coordinates per tensor in place and
    compares the numeric derivative of the mean cross-entropy against the
    analytic gradient. A coordinate passes when the absolute difference is
    below `abs_tol` (gradient is genuinely ~0) or the relative error is
    below `rel_tol`. Returns the list of failures.
    """

    def loss_at() -> float:
        logits, _, _ = forward_with_cache(model, x)
        return cross_entropy(logits, y)

    failures = []
    for name in sorted(grads):
        flat = model.params[name].reshape(-1)
        gf = grads[name].reshape(-1)
        idxs = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_at()
            flat[i] = orig - step
            lm = loss_at()
            flat[i] = orig
            numeric = (lp - lm) / (2 * step)
            diff = abs(numeric - gf[i])
            if diff <= abs_tol:
                continue
            rel = diff / max(abs(numeric), abs(gf[i]))
            if rel > rel_tol:
                failures.append((name, int(i), float(rel)))
    return failures


def adam_reference_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    step: int,
    lr,
) -> None:
    """Textbook Adam, one tensor at a time; updates `params`, `m` and `v` in place.

    `m` and `v` start as zeros shaped like the parameters; `step` counts from 1.
    """
    bias1 = 1.0 - ADAM_BETA1**step
    bias2 = 1.0 - ADAM_BETA2**step
    for name, g in grads.items():
        m[name] = ADAM_BETA1 * m[name] + (1 - ADAM_BETA1) * g
        v[name] = ADAM_BETA2 * v[name] + (1 - ADAM_BETA2) * (g * g)
        update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + ADAM_EPS)
        params[name] -= lr * update.astype(params[name].dtype)


def softmax_reference(z):
    """Softmax over the last axis, reduced along that axis row by row."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _linear_reference(x, w, b):
    rows = x.reshape(-1, x.shape[-1]) @ w  # one product over all the rows
    return rows.reshape(x.shape[:-1] + (w.shape[1],)) + b, (x, w)


def _linear_reference_backward(g, cache):
    x, w = cache
    rows = g.reshape(-1, g.shape[-1])
    dx = (rows @ w.T).reshape(g.shape[:-1] + (w.shape[0],))  # one product over all the rows
    dw = x.reshape(-1, x.shape[-1]).T @ rows
    db = rows.sum(axis=0)
    return dx, dw, db


def einsum_attention_forward(h, params, prefix, config):
    """Multi-head self-attention written with einsum; returns (out, cache)."""
    n, w, _ = h.shape
    nh, hd = config.num_heads, config.head_dim

    def split_heads(z):
        return z.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)  # (N, H, W, hd)

    q_flat, cq = _linear_reference(h, params[prefix + "wq"], params[prefix + "bq"])
    k_flat, ck = _linear_reference(h, params[prefix + "wk"], params[prefix + "bk"])
    v_flat, cv = _linear_reference(h, params[prefix + "wv"], params[prefix + "bv"])
    q, k, v = split_heads(q_flat), split_heads(k_flat), split_heads(v_flat)
    scale = 1.0 / math.sqrt(hd)
    scores = np.einsum("nhic,nhjc->nhij", q, k) * scale
    probs = softmax_reference(scores)
    ctx = np.einsum("nhij,nhjc->nhic", probs, v)
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)
    out, co = _linear_reference(ctx_flat, params[prefix + "wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd))


def einsum_attention_backward(g, cache, grads, prefix):
    """Backward of `einsum_attention_forward`; fills `grads`, returns d(input)."""
    cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd) = cache
    dctx_flat, dwo, dbo = _linear_reference_backward(g, co)
    grads[prefix + "wo"] = dwo
    grads[prefix + "bo"] = dbo
    dctx = dctx_flat.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    dprobs = np.einsum("nhic,nhjc->nhij", dctx, v)
    dv = np.einsum("nhij,nhic->nhjc", probs, dctx)
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = np.einsum("nhij,nhjc->nhic", dscores, k) * scale
    dk = np.einsum("nhij,nhic->nhjc", dscores, q) * scale

    def merge_heads(z):
        return z.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)

    dh = np.zeros_like(cq[0])
    for dz, c, name in ((dq, cq, "q"), (dk, ck, "k"), (dv, cv, "v")):
        dhi, dwz, dbz = _linear_reference_backward(merge_heads(dz), c)
        grads[prefix + "w" + name] = dwz
        grads[prefix + "b" + name] = dbz
        dh += dhi
    return dh


# -- the scale-shift adapter: y[i, j] = gamma[j] * x[i, j] + beta[j] --
#
# The classifier head computes this map inline from its parameter views;
# these are the reference it is tested against (the float64 reference model
# below, and acceptance criterion 3's gradient check).


@dataclass
class ScaleShift:
    """Per-channel scale (gamma) and shift (beta) vectors."""

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if self.gamma.ndim != 1 or self.gamma.shape != self.beta.shape:
            raise ValueError("gamma and beta must be 1-D vectors of equal length")
        if not (np.isfinite(self.gamma).all() and np.isfinite(self.beta).all()):
            raise ValueError("scale/shift parameters must be finite")

    @property
    def dim(self) -> int:
        return int(self.gamma.size)

    @classmethod
    def identity(cls, dim: int, dtype=np.float64) -> "ScaleShift":
        return cls(gamma=np.ones(dim, dtype=dtype), beta=np.zeros(dim, dtype=dtype))


def scale_shift_forward(x: np.ndarray, params: ScaleShift) -> np.ndarray:
    """Elementwise y = gamma * x + beta, broadcast over leading axes."""
    if x.shape[-1] != params.dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match adapter dim {params.dim}")
    return params.gamma * x + params.beta


def scale_shift_backward(
    x: np.ndarray, params: ScaleShift, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the modulation: returns (grad_x, grad_gamma, grad_beta).

    grad_x = gamma * g; grad_gamma[j] = sum_i x[i, j] * g[i, j];
    grad_beta[j] = sum_i g[i, j], summing over all leading axes.
    """
    if x.shape != grad_out.shape:
        raise ValueError("x and grad_out must have equal shapes")
    if x.shape[-1] != params.dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match adapter dim {params.dim}")
    lead = tuple(range(x.ndim - 1))
    grad_x = params.gamma * grad_out
    grad_gamma = (x * grad_out).sum(axis=lead)
    grad_beta = grad_out.sum(axis=lead)
    return grad_x, grad_gamma, grad_beta


# -- the transformer with a 3-D (N, W, d) residual stream --
#
# The library's forward keeps a 2-D (N * W, d) stream and takes K^T straight
# from its projection; these are the earlier bodies it replaced: every linear
# is `x @ w + b` on (N, W, .) arrays, K is split into heads and transposed
# inside the score product, and the context is merged back by a copy. Each
# linear and each input gradient is one product over the flattened rows, as
# the library's is.


def _attention_reference_forward(h, params, prefix, config):
    n, w, _ = h.shape
    nh, hd = config.num_heads, config.head_dim

    def split_heads(z):
        return z.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)  # (N, H, W, hd)

    q_flat, cq = _linear_reference(h, params[prefix + "wq"], params[prefix + "bq"])
    k_flat, ck = _linear_reference(h, params[prefix + "wk"], params[prefix + "bk"])
    v_flat, cv = _linear_reference(h, params[prefix + "wv"], params[prefix + "bv"])
    q, k, v = split_heads(q_flat), split_heads(k_flat), split_heads(v_flat)
    scale = 1.0 / math.sqrt(hd)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    probs = softmax_reference(scores)
    ctx = probs @ v
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)
    out, co = _linear_reference(ctx_flat, params[prefix + "wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd))


def _attention_reference_backward(g, cache, grads, prefix):
    cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd) = cache
    dctx_flat, dwo, dbo = _linear_reference_backward(g, co)
    grads[prefix + "wo"] = dwo
    grads[prefix + "bo"] = dbo
    dctx = dctx_flat.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    dprobs = dctx @ v.swapaxes(-1, -2)
    dv = probs.swapaxes(-1, -2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = (dscores @ k) * scale
    dk = (dscores.swapaxes(-1, -2) @ q) * scale

    def merge_heads(z):
        return z.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)

    dh = np.zeros_like(cq[0])
    for dz, c, name in ((dq, cq, "q"), (dk, ck, "k"), (dv, cv, "v")):
        dhi, dwz, dbz = _linear_reference_backward(merge_heads(dz), c)
        grads[prefix + "w" + name] = dwz
        grads[prefix + "b" + name] = dbz
        dh += dhi
    return dh


def _dropout_mask_from(keep, rate, dtype):
    """The inverted-dropout mask of the boolean draws `keep`."""
    return keep.astype(dtype) / dtype.type(1.0 - rate)


def _dropout_mask_reference(shape, rate, rng, dtype):
    """One dropout mask, drawn on its own."""
    return _dropout_mask_from(rng.random(shape) >= rate, rate, dtype)


def forward_reference(model, batch, train=False, rng=None):
    """(logits, probs, cache) of the classifier, computed on (N, W, d) arrays."""
    cfg = model.config
    p = model.params
    dtype = model.dtype
    x = batch.astype(dtype, copy=False)
    if cfg.use_positional:
        x = x + p["pos_embed"]

    block_caches = []
    for b in range(cfg.num_blocks):
        pre = f"block{b}."
        h, c_ln1 = _layer_norm_forward(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        attn_out, c_attn = _attention_reference_forward(h, p, pre + "attn.", cfg)
        m_attn = None
        if train and cfg.dropout > 0.0:
            m_attn = _dropout_mask_reference(attn_out.shape, cfg.dropout, rng, dtype)
            attn_out = attn_out * m_attn
        x = x + attn_out

        h2, c_ln2 = _layer_norm_forward(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        z1, c_ff1 = _linear_reference(h2, p[pre + "ff.w1"], p[pre + "ff.b1"])
        a1 = np.maximum(z1, 0)
        ff_out, c_ff2 = _linear_reference(a1, p[pre + "ff.w2"], p[pre + "ff.b2"])
        m_ff = None
        if train and cfg.dropout > 0.0:
            m_ff = _dropout_mask_reference(ff_out.shape, cfg.dropout, rng, dtype)
            ff_out = ff_out * m_ff
        x = x + ff_out
        block_caches.append((c_ln1, c_attn, m_attn, c_ln2, c_ff1, z1, c_ff2, m_ff))

    normed, c_final = _layer_norm_forward(x, p["final_norm.gain"], p["final_norm.bias"])
    pooled = normed.sum(axis=1) / cfg.window

    head_caches = []
    z = pooled
    n_layers = len(cfg.mlp_hidden) + 1
    for i in range(n_layers):
        z, c_lin = _linear_reference(z, p[f"head.layer{i}.w"], p[f"head.layer{i}.b"])
        c_ss = None
        if cfg.use_scale_shift_head:
            ss = ScaleShift(p[f"head.layer{i}.scale"], p[f"head.layer{i}.shift"])
            c_ss = (z, ss)
            z = scale_shift_forward(z, ss)
        z_pre = z
        if i < n_layers - 1:
            z = np.maximum(z, 0)
        head_caches.append((c_lin, c_ss, z_pre))
    logits = z
    probs = softmax_reference(logits)
    return logits, probs, (block_caches, c_final, head_caches, batch.shape[0])


def loss_and_grads_reference(model, batch, targets, train=False, rng=None):
    """(loss, probs, grads) from `forward_reference` and its backward."""
    targets = np.asarray(targets)
    logits, probs, cache = forward_reference(model, batch, train=train, rng=rng)
    loss = cross_entropy(logits, targets)

    cfg = model.config
    block_caches, c_final, head_caches, n = cache
    grads: dict[str, np.ndarray] = {}

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), targets] = 1
    g = (probs - onehot) / n

    for i in range(len(head_caches) - 1, -1, -1):
        c_lin, c_ss, z_pre = head_caches[i]
        if i < len(head_caches) - 1:
            g = g * (z_pre > 0)
        if c_ss is not None:
            x_ss, ss = c_ss
            g, dgamma, dbeta = scale_shift_backward(x_ss, ss, g)
            grads[f"head.layer{i}.scale"] = dgamma
            grads[f"head.layer{i}.shift"] = dbeta
        g, dw, db = _linear_reference_backward(g, c_lin)
        grads[f"head.layer{i}.w"] = dw
        grads[f"head.layer{i}.b"] = db

    g = np.repeat(g[:, None, :], cfg.window, axis=1) / cfg.window
    g, dgain, dbias = _layer_norm_reference_backward(g, c_final, model.params["final_norm.gain"])
    grads["final_norm.gain"] = dgain
    grads["final_norm.bias"] = dbias

    for b in range(cfg.num_blocks - 1, -1, -1):
        pre = f"block{b}."
        c_ln1, c_attn, m_attn, c_ln2, c_ff1, z1, c_ff2, m_ff = block_caches[b]

        g_ff = g * m_ff if m_ff is not None else g
        da1, dw2, db2 = _linear_reference_backward(g_ff, c_ff2)
        grads[pre + "ff.w2"] = dw2
        grads[pre + "ff.b2"] = db2
        dz1 = da1 * (z1 > 0)
        dh2, dw1, db1 = _linear_reference_backward(dz1, c_ff1)
        grads[pre + "ff.w1"] = dw1
        grads[pre + "ff.b1"] = db1
        dx, dgain2, dbias2 = _layer_norm_reference_backward(dh2, c_ln2, model.params[pre + "ln2.gain"])
        grads[pre + "ln2.gain"] = dgain2
        grads[pre + "ln2.bias"] = dbias2
        g = g + dx

        g_attn = g * m_attn if m_attn is not None else g
        dh = _attention_reference_backward(g_attn, c_attn, grads, pre + "attn.")
        dx, dgain1, dbias1 = _layer_norm_reference_backward(dh, c_ln1, model.params[pre + "ln1.gain"])
        grads[pre + "ln1.gain"] = dgain1
        grads[pre + "ln1.bias"] = dbias1
        g = g + dx

    if cfg.use_positional:
        grads["pos_embed"] = g.sum(axis=0)
    return loss, probs, grads


# -- the training step with a dict of gradients and a packing Adam --
#
# The library writes each gradient straight into a flat buffer (Adam's own),
# frees each block's cache once the backward has read it, runs Adam a chunk
# at a time on chunk-sized scratch, and reads K contiguous in the backward;
# these are the bodies it replaced: the backward returns a dict of new
# arrays with the whole cache live and reads K^T transposed, and Adam
# copies the dict into its buffer and updates on model-sized scratch. Each
# layer norm's output (the attention's and ff.w1's input) and each float
# dropout mask are made here from the cache's x-hat and booleans by the
# plain expressions, not by the library's routines.


def _layer_norm_reference_backward(g, cache, gain):
    xhat, inv = cache
    lead = tuple(range(g.ndim - 1))
    dgain = (g * xhat).sum(axis=lead)
    dbias = g.sum(axis=lead)
    dxhat = g * gain
    dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
    return dx, dgain, dbias


def _layer_norm_output_reference(cache, gain, bias):
    return gain * cache[0] + bias


def _linear_dict_backward(g, cache):
    x, w = cache
    return g @ w.T, x.T @ g, g.sum(axis=0)


def _attention_dict_backward(g, h2, probs, params, grads, prefix):
    """The attention backward of input h2 as it read a cache of Q, K^T, V
    and the context: K^T contiguous and read transposed.
    Those activations are made again here by the library's own products."""
    n, nh, w, _ = probs.shape
    q, k, v, ctx = _attention_rebuild(h2, probs, params, prefix)
    kt, hd = np.ascontiguousarray(k.swapaxes(-1, -2)), q.shape[-1]
    scale = 1.0 / math.sqrt(hd)
    co = (ctx.reshape(n * w, nh * hd), params[prefix + "wo"])
    dctx, grads[prefix + "wo"], grads[prefix + "bo"] = _linear_dict_backward(g.reshape(n * w, -1), co)
    dctx = dctx.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    dprobs = dctx @ v.swapaxes(-1, -2)
    dv = probs.swapaxes(-1, -2) @ dctx
    dscores = probs * (dprobs - _reduce_rows(np.add, dprobs * probs))
    dq = (dscores @ kt.swapaxes(-1, -2)) * scale
    dk = (dscores.swapaxes(-1, -2) @ q) * scale
    dh = None
    for dz, name in ((dq, "q"), (dk, "k"), (dv, "v")):
        merged = dz.transpose(0, 2, 1, 3).reshape(n * w, nh * hd)
        c = (h2, params[prefix + "w" + name])
        dhi, grads[prefix + "w" + name], grads[prefix + "b" + name] = _linear_dict_backward(merged, c)
        dh = dhi if dh is None else np.add(dh, dhi, out=dh)
    return dh.reshape(g.shape)


def loss_and_grads_dict_reference(model, batch, targets, train=False, rng=None):
    """(loss, probs, grads) from `forward_with_cache`, grads a dict of new arrays."""
    targets = np.asarray(targets)
    logits, probs, cache = forward_with_cache(model, batch, train=train, rng=rng)
    loss = cross_entropy(logits, targets)

    cfg = model.config
    block_caches, c_final, head_caches, n = cache
    grads: dict[str, np.ndarray] = {}

    g = probs.copy(order="C")
    g[np.arange(n), targets] -= 1
    g /= n

    p = model.params
    for i in range(len(head_caches) - 1, -1, -1):
        z_in, z_ss = head_caches[i]
        if i < len(head_caches) - 1:
            g = g * (head_caches[i + 1][0] > 0)
        if z_ss is not None:
            grads[f"head.layer{i}.scale"] = (z_ss * g).sum(axis=0)
            grads[f"head.layer{i}.shift"] = g.sum(axis=0)
            g = p[f"head.layer{i}.scale"] * g
        c_lin = (z_in, p[f"head.layer{i}.w"])
        g, grads[f"head.layer{i}.w"], grads[f"head.layer{i}.b"] = _linear_dict_backward(g, c_lin)

    g = np.repeat(g, cfg.window, axis=0) / cfg.window
    g, grads["final_norm.gain"], grads["final_norm.bias"] = _layer_norm_reference_backward(
        g, c_final, p["final_norm.gain"])

    for b in range(cfg.num_blocks - 1, -1, -1):
        pre = f"block{b}."
        c_ln1, c_attn, keep_attn, c_ln2, c_ff2, keep_ff = block_caches[b]

        g_ff = g * _dropout_mask_from(keep_ff, cfg.dropout, model.dtype) if keep_ff is not None else g
        da1, grads[pre + "ff.w2"], grads[pre + "ff.b2"] = _linear_dict_backward(g_ff, (c_ff2, p[pre + "ff.w2"]))
        da1 *= c_ff2 > 0
        c_ff1 = (_layer_norm_output_reference(c_ln2, p[pre + "ln2.gain"], p[pre + "ln2.bias"]), p[pre + "ff.w1"])
        dh2, grads[pre + "ff.w1"], grads[pre + "ff.b1"] = _linear_dict_backward(da1, c_ff1)
        dx, grads[pre + "ln2.gain"], grads[pre + "ln2.bias"] = _layer_norm_reference_backward(
            dh2, c_ln2, p[pre + "ln2.gain"])
        dx += g
        g = dx

        g_attn = g * _dropout_mask_from(keep_attn, cfg.dropout, model.dtype) if keep_attn is not None else g
        h = _layer_norm_output_reference(c_ln1, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        dh = _attention_dict_backward(g_attn, h, c_attn, p, grads, pre + "attn.")
        dx, grads[pre + "ln1.gain"], grads[pre + "ln1.bias"] = _layer_norm_reference_backward(
            dh, c_ln1, p[pre + "ln1.gain"])
        dx += g
        g = dx

    if cfg.use_positional:
        grads["pos_embed"] = g.reshape(n, cfg.window, -1).sum(axis=0)

    return loss, probs, grads


class PackedAdamReference:
    """Adam over the whole parameter buffer on model-sized scratch: `pack`
    copies a dict of gradients into `grad`, and `step` updates in one pass."""

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
        np.concatenate([grads[name].reshape(-1) for name in self.names], out=self.grad)
        return self.grad

    def step(self) -> None:
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


# -- loop oracles for the vectorized per-frame kernels --


def _majority_reference(window: np.ndarray) -> int | None:
    """0 or 1 when one label strictly dominates, None on tie or empty."""
    if window.size == 0:
        return None
    fakes = int(window.sum())
    reals = window.size - fakes
    if fakes > reals:
        return 1
    if reals > fakes:
        return 0
    return None


def smooth_reference(labels: np.ndarray, k: int) -> np.ndarray:
    """Frame-by-frame majority-vote smoothing (the rules of `fakeseg.smoothing`)."""
    out = labels.copy()
    if k == 0:
        return out
    for i in range(labels.size):
        left = labels[max(0, i - k) : i]
        right = labels[i + 1 : i + 1 + k]
        m_left = _majority_reference(left)
        m_right = _majority_reference(right)
        if left.size == 0:
            if m_right is not None and labels[i] != m_right:
                out[i] = m_right
        elif right.size == 0:
            if m_left is not None and labels[i] != m_left:
                out[i] = m_left
        elif m_left is not None and m_left == m_right and labels[i] != m_left:
            out[i] = m_left
    return out


def window_starts_reference(num_frames: int, window: int, overlap: int) -> np.ndarray:
    """Window starts built as a Python list: the regular grid, then the right-aligned tail."""
    starts = list(range(0, num_frames - window + 1, window - overlap))
    if starts[-1] != num_frames - window:
        starts.append(num_frames - window)
    return np.asarray(starts, dtype=np.int64)


def frames_from_windows_reference(
    window_scores: np.ndarray, starts: np.ndarray, window: int, num_frames: int, mode: str
) -> np.ndarray:
    """Window-by-window projection of window scores to frames (mean, max or center)."""
    if mode == "mean":
        total = np.zeros(num_frames)
        count = np.zeros(num_frames)
        for s, score in zip(starts, window_scores):
            total[s : s + window] += score
            count[s : s + window] += 1
        return total / count
    if mode == "max":
        best = np.full(num_frames, -1.0)
        for s, score in zip(starts, window_scores):
            np.maximum(best[s : s + window], score, out=best[s : s + window])
        return best
    if mode == "center":
        frame_scores = np.full(num_frames, np.nan)
        for s, score in zip(starts, window_scores):
            frame_scores[s + window // 2] = score
        scored = np.flatnonzero(~np.isnan(frame_scores))
        missing = np.flatnonzero(np.isnan(frame_scores))
        if missing.size:
            # (missing x scored) distances: only for small T
            nearest = scored[np.abs(missing[:, None] - scored[None, :]).argmin(axis=1)]
            frame_scores[missing] = frame_scores[nearest]
        return frame_scores
    raise ValueError(f"unknown projection mode {mode!r}")


def predict_video_reference(model, seq, overlap: int, mode: str) -> np.ndarray:
    """Frame scores with every window of the video made at once, forwarded
    PREDICT_BATCH at a time with the cache kept, and projected window by window."""
    w = model.config.window
    cut = make_windows(seq, w, overlap)
    windows = cut[:]
    n = windows.shape[0]
    scores = np.empty(n)
    for lo in range(0, n, PREDICT_BATCH):
        _, probs, _ = forward_with_cache(model, windows[lo : lo + PREDICT_BATCH])
        scores[lo : lo + PREDICT_BATCH] = probs[:, 1]
    return frames_from_windows_reference(scores, cut.starts, w, seq.num_frames, mode)


def midranks_reference(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of their group."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        # positions i..j (0-based) share the average 1-based rank
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def map_text_reference(labels: np.ndarray) -> str:
    """One 'R'/'F' character per frame, newline-terminated."""
    return "".join("F" if v else "R" for v in labels) + "\n"


def synth_video_reference(plan, length: int, cfg) -> FeatureSequence:
    """Every frame drawn and mixed at once in float64, the AR(1) recurrence a
    row at a time, cast to float32 at the end."""
    labels = render_map(plan, length)
    mu_real, mu_fake = class_means(cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, plan.video_id))
    means = np.where(labels.labels[:, None], mu_fake, mu_real)
    draws = means + cfg.noise_std * rng.standard_normal((length, cfg.dim))
    feats = np.empty_like(draws)
    feats[0] = draws[0]
    rho = cfg.temporal_rho
    for t in range(1, length):
        feats[t] = (1.0 - rho) * draws[t] + rho * feats[t - 1]
    return FeatureSequence(video_id=plan.video_id, features=feats.astype(np.float32), labels=labels)
