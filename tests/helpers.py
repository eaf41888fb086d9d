"""Shared test oracles and fixtures: finite differences, pairwise AUC,
per-tensor Adam, einsum attention, configs."""

from __future__ import annotations

import copy
import math

import numpy as np

from fakeseg.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from fakeseg.transformer import (
    SequenceClassifier,
    _linear_backward,
    _linear_forward,
    _softmax,
    cross_entropy,
    forward_with_cache,
)

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


def einsum_attention_forward(h, params, prefix, config):
    """Multi-head self-attention written with einsum; returns (out, cache)."""
    n, w, _ = h.shape
    nh, hd = config.num_heads, config.head_dim

    def split_heads(z):
        return z.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)  # (N, H, W, hd)

    q_flat, cq = _linear_forward(h, params[prefix + "wq"], params[prefix + "bq"])
    k_flat, ck = _linear_forward(h, params[prefix + "wk"], params[prefix + "bk"])
    v_flat, cv = _linear_forward(h, params[prefix + "wv"], params[prefix + "bv"])
    q, k, v = split_heads(q_flat), split_heads(k_flat), split_heads(v_flat)
    scale = 1.0 / math.sqrt(hd)
    scores = np.einsum("nhic,nhjc->nhij", q, k) * scale
    probs = _softmax(scores)
    ctx = np.einsum("nhij,nhjc->nhic", probs, v)
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)
    out, co = _linear_forward(ctx_flat, params[prefix + "wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd))


def einsum_attention_backward(g, cache, grads, prefix):
    """Backward of `einsum_attention_forward`; fills `grads`, returns d(input)."""
    cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd) = cache
    dctx_flat, dwo, dbo = _linear_backward(g, co)
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
        dhi, dwz, dbz = _linear_backward(merge_heads(dz), c)
        grads[prefix + "w" + name] = dwz
        grads[prefix + "b" + name] = dbz
        dh += dhi
    return dh
