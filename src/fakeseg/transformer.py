"""Windowed sequence transformer classifier, implemented from scratch.

Encoder-only transformer over windows of per-frame feature vectors: a stack
of pre-norm blocks (multi-head self-attention and a feed-forward sublayer,
each wrapped in a residual connection), a final layer norm, 1-D global
average pooling over the window positions, and an MLP head that emits
Real/Fake class probabilities.

Everything is plain numpy with hand-written analytic gradients, so every
parameter tensor can be verified against central finite differences. Forward
and backward are deterministic given the model, the inputs, and (in training
mode) the dropout generator.

All parameters live in one contiguous 1-D buffer; each named tensor is a view
into it, laid out by `param_layout`. Whole-model operations (the optimizer
step, snapshots, dtype casts) act on the buffer, while the layers and the
gradients address tensors by name.

Head projections are sized independently of the input dimension: each of the
H heads projects the d-dim stream to head_dim, and the concatenated
H * head_dim context is mapped back to d by the output projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .scale_shift import ScaleShift, scale_shift_backward, scale_shift_forward

NUM_CLASSES = 2  # Real, Fake
LN_EPS = 1e-5

# Full-size reference settings are 8 blocks, 8 heads, head dimension 512
# over 768-dim frame features; the defaults below are desk-scale so the
# whole pipeline trains in seconds on one CPU core.


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture of the windowed sequence classifier.

    Attributes:
        input_dim: dimension d of each per-frame feature vector.
        window: frames per input window (W).
        num_blocks: transformer blocks in the encoder stack.
        num_heads: attention heads per block.
        head_dim: per-head projection width (independent of input_dim).
        ff_hidden: feed-forward hidden width; None means 4 * input_dim.
        mlp_hidden: hidden layer widths of the classification head.
        dropout: dropout rate on the two residual branches (training only).
        use_positional: add a learned per-position embedding to the window.
        use_scale_shift_head: insert a scale-shift adapter after every
            linear layer of the head.
    """

    input_dim: int
    window: int = 5
    num_blocks: int = 2
    num_heads: int = 4
    head_dim: int = 32
    ff_hidden: int | None = None
    mlp_hidden: tuple[int, ...] = (64,)
    dropout: float = 0.1
    use_positional: bool = False
    use_scale_shift_head: bool = False

    def __post_init__(self):
        for name in ("input_dim", "window", "num_blocks", "num_heads", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.ff_hidden is not None and self.ff_hidden < 1:
            raise ValueError("ff_hidden must be >= 1")
        if any(h < 1 for h in self.mlp_hidden):
            raise ValueError("mlp_hidden widths must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def ff_dim(self) -> int:
        return self.ff_hidden if self.ff_hidden is not None else 4 * self.input_dim

    def to_dict(self) -> dict[str, Any]:
        return {
            "input_dim": self.input_dim,
            "window": self.window,
            "num_blocks": self.num_blocks,
            "num_heads": self.num_heads,
            "head_dim": self.head_dim,
            "ff_hidden": self.ff_hidden,
            "mlp_hidden": list(self.mlp_hidden),
            "dropout": self.dropout,
            "use_positional": self.use_positional,
            "use_scale_shift_head": self.use_scale_shift_head,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TransformerConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "mlp_hidden" in kwargs:
            kwargs["mlp_hidden"] = tuple(kwargs["mlp_hidden"])
        return cls(**kwargs)


def param_layout(config: TransformerConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in buffer (and init) order."""
    d, proj = config.input_dim, config.num_heads * config.head_dim
    layout: dict[str, tuple[int, ...]] = {}
    if config.use_positional:
        layout["pos_embed"] = (config.window, d)
    for b in range(config.num_blocks):
        pre = f"block{b}."
        layout[pre + "ln1.gain"] = (d,)
        layout[pre + "ln1.bias"] = (d,)
        for name in ("q", "k", "v"):
            layout[pre + "attn.w" + name] = (d, proj)
            layout[pre + "attn.b" + name] = (proj,)
        layout[pre + "attn.wo"] = (proj, d)
        layout[pre + "attn.bo"] = (d,)
        layout[pre + "ln2.gain"] = (d,)
        layout[pre + "ln2.bias"] = (d,)
        layout[pre + "ff.w1"] = (d, config.ff_dim)
        layout[pre + "ff.b1"] = (config.ff_dim,)
        layout[pre + "ff.w2"] = (config.ff_dim, d)
        layout[pre + "ff.b2"] = (d,)
    layout["final_norm.gain"] = (d,)
    layout["final_norm.bias"] = (d,)

    widths = (d,) + tuple(config.mlp_hidden) + (NUM_CLASSES,)
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        layout[f"head.layer{i}.w"] = (fan_in, fan_out)
        layout[f"head.layer{i}.b"] = (fan_out,)
        if config.use_scale_shift_head:
            layout[f"head.layer{i}.scale"] = (fan_out,)
            layout[f"head.layer{i}.shift"] = (fan_out,)
    return layout


class SequenceClassifier:
    """Parameter container for the transformer.

    `flat` is one contiguous 1-D array holding every parameter; `params`
    maps each tensor name of `param_layout(config)` to a view into it, so
    checkpoints and gradient checks can enumerate tensors by name while the
    optimizer and snapshots work on the whole buffer at once. Write into the
    views (or `flat`) in place; rebinding them breaks the aliasing.
    """

    def __init__(self, config: TransformerConfig, flat: np.ndarray):
        layout = param_layout(config)
        size = sum(math.prod(shape) for shape in layout.values())
        if flat.shape != (size,):
            raise ValueError(f"parameter buffer has shape {flat.shape}, config needs ({size},)")
        self.config = config
        self.flat = flat
        self.params: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in layout.items():
            n = math.prod(shape)
            self.params[name] = flat[offset : offset + n].reshape(shape)
            offset += n

    @classmethod
    def zeros(cls, config: TransformerConfig, dtype=np.float32) -> "SequenceClassifier":
        return cls(config, np.zeros(sum(math.prod(s) for s in param_layout(config).values()), dtype))

    @classmethod
    def initialize(cls, config: TransformerConfig, seed: int = 0, dtype=np.float32) -> "SequenceClassifier":
        """Glorot-normal weights, unit gains and scales, zero biases and
        shifts; draws follow the layout order, so a seed fixes every value."""
        rng = np.random.default_rng(seed)
        model = cls.zeros(config, dtype)
        for name, view in model.params.items():
            if name == "pos_embed":
                view[...] = 0.02 * rng.standard_normal(view.shape)
            elif view.ndim == 2:
                fan_in, fan_out = view.shape
                view[...] = math.sqrt(2.0 / (fan_in + fan_out)) * rng.standard_normal(view.shape)
            elif name.endswith((".gain", ".scale")):
                view.fill(1)
        return model

    @property
    def dtype(self):
        return self.flat.dtype

    def copy_params(self) -> np.ndarray:
        """A snapshot of the parameter buffer; restore with `model.flat[...] = snapshot`."""
        return self.flat.copy()

    def astype(self, dtype) -> "SequenceClassifier":
        return SequenceClassifier(self.config, self.flat.astype(dtype))


# -- primitives (forward returns a cache consumed by the matching backward) --


def _linear_forward(x, w, b):
    return x @ w + b, (x, w)


def _linear_backward(g, cache):
    x, w = cache
    dx = g @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    db = g.reshape(-1, g.shape[-1]).sum(axis=0)
    return dx, dw, db


def _mean_last(x):
    # the same bits as x.mean(axis=-1, keepdims=True), without its Python wrapper
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm_forward(x, gain, bias):
    mu = _mean_last(x)
    xc = x - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv, gain)


def _layer_norm_backward(g, cache):
    xhat, inv, gain = cache
    lead = tuple(range(g.ndim - 1))
    dgain = (g * xhat).sum(axis=lead)
    dbias = g.sum(axis=lead)
    dxhat = g * gain
    dx = inv * (dxhat - _mean_last(dxhat) - xhat * _mean_last(dxhat * xhat))
    return dx, dgain, dbias


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _dropout_mask(shape, rate, rng, dtype):
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / dtype.type(1.0 - rate)


def _attention_forward(h, params, prefix, config):
    n, w, _ = h.shape
    nh, hd = config.num_heads, config.head_dim

    def split_heads(z):
        return z.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)  # (N, H, W, hd)

    q_flat, cq = _linear_forward(h, params[prefix + "wq"], params[prefix + "bq"])
    k_flat, ck = _linear_forward(h, params[prefix + "wk"], params[prefix + "bk"])
    v_flat, cv = _linear_forward(h, params[prefix + "wv"], params[prefix + "bv"])
    q, k, v = split_heads(q_flat), split_heads(k_flat), split_heads(v_flat)
    scale = 1.0 / math.sqrt(hd)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    probs = _softmax(scores)
    ctx = probs @ v
    ctx_flat = ctx.transpose(0, 2, 1, 3).reshape(n, w, nh * hd)
    out, co = _linear_forward(ctx_flat, params[prefix + "wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd))


def _attention_backward(g, cache, grads, prefix):
    cq, ck, cv, q, k, v, probs, co, scale, (n, w, nh, hd) = cache
    dctx_flat, dwo, dbo = _linear_backward(g, co)
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
        dhi, dwz, dbz = _linear_backward(merge_heads(dz), c)
        grads[prefix + "w" + name] = dwz
        grads[prefix + "b" + name] = dbz
        dh += dhi
    return dh


def forward_with_cache(
    model: SequenceClassifier,
    batch: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the network; returns (logits, probs, cache for the backward pass)."""
    cfg = model.config
    p = model.params
    if batch.ndim != 3 or batch.shape[1] != cfg.window or batch.shape[2] != cfg.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} does not match (N, {cfg.window}, {cfg.input_dim})"
        )
    if not np.isfinite(batch).all():
        raise ValueError("batch contains non-finite values")
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs a random generator")

    dtype = model.dtype
    x = batch.astype(dtype, copy=False)  # never written in place
    if cfg.use_positional:
        x = x + p["pos_embed"]

    block_caches = []
    for b in range(cfg.num_blocks):
        pre = f"block{b}."
        h, c_ln1 = _layer_norm_forward(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        attn_out, c_attn = _attention_forward(h, p, pre + "attn.", cfg)
        m_attn = None
        if train and cfg.dropout > 0.0:
            m_attn = _dropout_mask(attn_out.shape, cfg.dropout, rng, dtype)
            attn_out = attn_out * m_attn
        x = x + attn_out

        h2, c_ln2 = _layer_norm_forward(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        z1, c_ff1 = _linear_forward(h2, p[pre + "ff.w1"], p[pre + "ff.b1"])
        a1 = np.maximum(z1, 0)
        ff_out, c_ff2 = _linear_forward(a1, p[pre + "ff.w2"], p[pre + "ff.b2"])
        m_ff = None
        if train and cfg.dropout > 0.0:
            m_ff = _dropout_mask(ff_out.shape, cfg.dropout, rng, dtype)
            ff_out = ff_out * m_ff
        x = x + ff_out
        block_caches.append((c_ln1, c_attn, m_attn, c_ln2, c_ff1, z1, c_ff2, m_ff))

    normed, c_final = _layer_norm_forward(x, p["final_norm.gain"], p["final_norm.bias"])
    pooled = np.add.reduce(normed, axis=1) / cfg.window  # 1-D global average pool over window positions

    head_caches = []
    z = pooled
    n_layers = len(cfg.mlp_hidden) + 1
    for i in range(n_layers):
        z, c_lin = _linear_forward(z, p[f"head.layer{i}.w"], p[f"head.layer{i}.b"])
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
    probs = _softmax(logits)
    cache = (block_caches, c_final, head_caches, batch.shape[0])
    return logits, probs, cache


def forward(
    model: SequenceClassifier,
    batch: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a batch of windows; rows sum to 1."""
    _, probs, _ = forward_with_cache(model, batch, train=train, rng=rng)
    return probs


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean categorical cross-entropy from raw logits (numerically stable)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(targets)), targets]
    return float((log_z - picked).mean())


def loss_and_grads(
    model: SequenceClassifier,
    batch: np.ndarray,
    targets: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Mean cross-entropy and its exact analytic gradients for every parameter.

    Returns (loss, probs, grads) where grads maps each parameter name to an
    array of the parameter's shape.
    """
    targets = np.asarray(targets)
    if targets.shape != (batch.shape[0],):
        raise ValueError("targets must be a vector with one class index per window")
    logits, probs, cache = forward_with_cache(model, batch, train=train, rng=rng)
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
        g, dw, db = _linear_backward(g, c_lin)
        grads[f"head.layer{i}.w"] = dw
        grads[f"head.layer{i}.b"] = db

    # un-pool: distribute the pooled gradient evenly over window positions
    g = np.repeat(g[:, None, :], cfg.window, axis=1) / cfg.window
    g, dgain, dbias = _layer_norm_backward(g, c_final)
    grads["final_norm.gain"] = dgain
    grads["final_norm.bias"] = dbias

    for b in range(cfg.num_blocks - 1, -1, -1):
        pre = f"block{b}."
        c_ln1, c_attn, m_attn, c_ln2, c_ff1, z1, c_ff2, m_ff = block_caches[b]

        g_ff = g * m_ff if m_ff is not None else g
        da1, dw2, db2 = _linear_backward(g_ff, c_ff2)
        grads[pre + "ff.w2"] = dw2
        grads[pre + "ff.b2"] = db2
        dz1 = da1 * (z1 > 0)
        dh2, dw1, db1 = _linear_backward(dz1, c_ff1)
        grads[pre + "ff.w1"] = dw1
        grads[pre + "ff.b1"] = db1
        dx, dgain2, dbias2 = _layer_norm_backward(dh2, c_ln2)
        grads[pre + "ln2.gain"] = dgain2
        grads[pre + "ln2.bias"] = dbias2
        g = g + dx  # residual around the feed-forward sublayer

        g_attn = g * m_attn if m_attn is not None else g
        dh = _attention_backward(g_attn, c_attn, grads, pre + "attn.")
        dx, dgain1, dbias1 = _layer_norm_backward(dh, c_ln1)
        grads[pre + "ln1.gain"] = dgain1
        grads[pre + "ln1.bias"] = dbias1
        g = g + dx  # residual around attention

    if cfg.use_positional:
        grads["pos_embed"] = g.sum(axis=0)

    return loss, probs, grads
