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

import ctypes
import functools
import math
import typing
from dataclasses import dataclass
from typing import Any

import numpy as np

NUM_CLASSES = 2  # Real, Fake
LN_EPS = 1e-5

# glibc mallopt parameters (malloc.h)
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let freed activations stay in the heap for the next forward to reuse.

    A batch-256 forward allocates and frees a few MB of arrays of 100 KB to
    1 MB each. With glibc's defaults each free lifts the mmap threshold to
    the array's size and the trim threshold to twice that, so what one call
    frees at once is handed back to the kernel and the next call faults it
    in again, page by page. A fixed 4 MiB mmap threshold keeps those arrays
    on the heap, and a 16 MiB top pad keeps that much freed heap mapped.
    The setting is process-wide; a libc without `mallopt` is left alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TOP_PAD, 16 << 20)


_keep_freed_heap()


def _openblas_threads(library: str):
    """The thread-count getter and setter of the OpenBLAS that `library`
    links (numpy's bundled one), or None where it has no such symbols."""
    try:
        lib = ctypes.CDLL(library)  # dlsym also searches the libraries it links
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_OPENBLAS = _openblas_threads(np._core._multiarray_umath.__file__) if hasattr(np, "_core") else None

# A forward whose largest GEMM has at most this many multiply-adds runs on
# one OpenBLAS thread, and larger ones on the caller's. Where the boundary
# lies is known only roughly: every desk-scale forward (the quickstart's
# batch-256 forward is 1.3M) gained nothing from a second thread,
# and paper-scale ones (billions) do. bench/memory.py's forward sweep
# (`blas_threads`) put the boundary anywhere from 21M to 189M from run to
# run, so any value between desk and paper scale behaves the same. Next to
# one busy process, 2 threads made a desk-scale predict 3x slower.
BLAS_SERIAL_MACS = 20_971_520


def limit_blas_threads(n: int) -> None:
    """Run later BLAS calls on n OpenBLAS threads; a no-op without the
    symbols. Forwards and steps never raise the count, so a worker sharing
    the cores that sets 1 keeps 1."""
    if _OPENBLAS is not None:
        _OPENBLAS[1](n)


def _blas_threads_by_size(fn):
    """Run `fn(model, batch, ...)` on one OpenBLAS thread when the batch's
    largest GEMM has at most BLAS_SERIAL_MACS multiply-adds, and give the
    caller's count back on return; a larger batch runs on the caller's."""

    @functools.wraps(fn)
    def run(model, batch, *args, **kwargs):
        cfg = model.config
        if _OPENBLAS is None or batch.size * max(cfg.num_heads * cfg.head_dim, cfg.ff_dim) > BLAS_SERIAL_MACS:
            return fn(model, batch, *args, **kwargs)
        before = _OPENBLAS[0]()
        limit_blas_threads(1)
        try:
            return fn(model, batch, *args, **kwargs)
        finally:
            limit_blas_threads(before)

    return run


# Windows per pass of the forward attention's K^T, scores and context
# products; the backward's rebuild makes them over the whole batch. Each
# product is one BLAS call per window (and head) whatever the chunk, so the
# bytes hold at any value, and the forward holds K^T and the context one
# chunk at a time. The quickstart model's batch-128 predict forward makes
# two chunks.
WINDOW_CHUNK = 64

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


def is_integer(value: Any) -> bool:
    """Whether a JSON value is an integer: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


_FIELD_TYPES = {  # a config field's type -> (whether a JSON value is one, what the error calls it)
    int: (is_integer, "an integer"),
    float: (lambda v: is_integer(v) or isinstance(v, float), "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def config_kwargs(cls, data: Any, section: str) -> dict[str, Any]:
    """The keyword arguments of config dataclass `cls` from `data`, the JSON
    value of `section`, with lists made tuples.

    Raises ValueError for a value that is not an object, an unknown key, or
    a value that is not of its field's type: an integer for `int` (not a
    bool), a number for `float` (not a bool), a bool for `bool`, a string
    for `str`, an integer list for `tuple[int, ...]`, and None as well where
    the field is `... | None`. Every other check is the dataclass's own.
    """
    if not isinstance(data, dict):
        raise ValueError(f"section {section!r} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    kwargs = dict(data)
    for key, value in data.items():
        hint = hints[key]
        if hint == tuple[int, ...]:
            if not (isinstance(value, list) and all(map(is_integer, value))):
                raise ValueError(f"{section}.{key} must be an integer list, got {value!r}")
            kwargs[key] = tuple(value)
            continue
        optional = type(None) in typing.get_args(hint)
        check, kind = _FIELD_TYPES[typing.get_args(hint)[0] if optional else hint]
        if not (check(value) or optional and value is None):
            raise ValueError(f"{section}.{key} must be {kind}, got {value!r}")
    return kwargs


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


# -- primitives: a cache holds activations only, and each backward reads its weights by name --
#
# Activations are laid out for the products that read them: the residual
# stream is one (N * W, d) array, so each linear is one GEMM with its bias
# added in place; K^T is projected per window (`wk.T @ h`), and the
# attention context is written in the (N, W, H, hd) layout that the output
# projection reads as (N * W, H * hd), so no transpose is copied.


def _linear_forward(x, w, b):
    out = x @ w
    out += b
    return out


def _linear_backward(g, x, w, dw, db):
    """dx for 2-D rows g of the linear x @ w + b, with the gradients of w
    and b written into dw and db: each is one product over all the rows."""
    np.matmul(x.T, g, out=dw)
    np.add.reduce(g, axis=0, out=db)
    return g @ w.T


def _mean_last(x):
    # the same bits as x.mean(axis=-1, keepdims=True), without its Python wrapper
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm_forward(x, gain, bias):
    mu = _mean_last(x)
    xc = x - mu
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xc *= inv  # x-hat, in the centered buffer
    return _layer_norm_output((xc, inv), gain, bias), (xc, inv)


def _layer_norm_output(cache, gain, bias):
    """gain * xhat + bias from a layer norm's (xhat, inv) cache: the backward makes the output again in its bytes."""
    out = gain * cache[0]
    out += bias
    return out


def _layer_norm_backward(g, cache, gain, dgain, dbias):
    """dx for 2-D rows g, with the gain and bias gradients written into
    dgain and dbias."""
    xhat, inv = cache
    np.add.reduce(g * xhat, axis=0, out=dgain)
    np.add.reduce(g, axis=0, out=dbias)
    dxhat = g * gain
    dx = dxhat - _mean_last(dxhat)  # inv * (dxhat - mean - xhat * mean), a step at a time in place
    dx -= xhat * _mean_last(dxhat * xhat)
    dx *= inv
    return dx


# numpy reduces a short contiguous last axis one row at a time, so the row
# reductions below run on a contiguous (L, rows) copy and reduce its axis 0
# in a few whole-array passes. Both orders add a row left to right for
# L < 8, giving the same bits; from L = 8 numpy sums a last axis pairwise,
# so the results agree only to rounding (no shipped config has W >= 8).


def _rows_leading(x):
    """A C-contiguous (L, rows) copy of the length-L rows of x's last axis."""
    return x.reshape(-1, x.shape[-1]).T.copy()


def _reduce_rows(ufunc, x):
    """`ufunc.reduce(x, axis=-1, keepdims=True)`, reduced with the rows leading."""
    return ufunc.reduce(_rows_leading(x), axis=0).reshape(x.shape[:-1] + (1,))


def _softmax(z):
    """Softmax over the last axis; a view of z's shape on a rows-leading buffer."""
    zt = _rows_leading(z)
    zt -= np.maximum.reduce(zt, axis=0)
    np.exp(zt, out=zt)
    zt /= np.add.reduce(zt, axis=0)
    return zt.T.reshape(z.shape)


def _dropout_mask(keep, rate, dtype):
    """The inverted-dropout mask of the boolean draws `keep`, cast and divided in one call."""
    return np.divide(keep, dtype.type(1.0 - rate), dtype=dtype)


def _projected(h2, params, prefix, name, shape):
    """Q or V (`name`) of the (N * W, d) input h2 as (N, W, H, hd): one
    GEMM, the bias added in place."""
    return _linear_forward(h2, params[prefix + "w" + name], params[prefix + "b" + name]).reshape(shape)


def _keys_t(h_t, params, prefix, out=None):
    """K^T of the (d, W) windows h_t, (windows, H * hd, W): one `wk.T @ h`
    per window, the bias added as one contiguous block."""
    kt = np.matmul(params[prefix + "wk"].T, h_t, out=out)
    kt += np.repeat(params[prefix + "bk"], h_t.shape[-1]).reshape(-1, h_t.shape[-1])  # bk[:, None]
    return kt


def _attention_forward(h, params, prefix, config):
    """Self-attention over windows of config.window rows; h is (N, W, d) or
    (N * W, d) and the output has h's shape. K^T, the scores and the context
    are made WINDOW_CHUNK windows at a time, each context chunk written back
    into V's (N, W, H, hd) buffer. The cache is the (N, H, W, W)
    probabilities: from them and the input the backward makes Q, K, V and
    the context again."""
    h2 = h.reshape(-1, h.shape[-1])
    w, nh, hd = config.window, config.num_heads, config.head_dim
    n = h2.shape[0] // w
    chunks = [(lo, min(lo + WINDOW_CHUNK, n)) for lo in range(0, n, WINDOW_CHUNK)]
    q = _projected(h2, params, prefix, "q", (n, w, nh, hd)).transpose(0, 2, 1, 3)  # (N, H, W, hd)
    h_t = h2.reshape(n, w, -1).transpose(0, 2, 1)  # each window's (d, W) view
    kt = np.empty((min(WINDOW_CHUNK, n), nh * hd, w), h2.dtype)
    scores = np.empty((n, nh, w, w), h2.dtype)
    for lo, hi in chunks:
        kt_c = _keys_t(h_t[lo:hi], params, prefix, kt[: hi - lo])
        np.matmul(q[lo:hi], kt_c.reshape(-1, nh, hd, w), out=scores[lo:hi])
    del q, kt, kt_c
    scores *= 1.0 / math.sqrt(hd)
    probs = _softmax(scores)
    del scores  # V is projected only now: Q, K^T, the scores and V are never all live
    v = _projected(h2, params, prefix, "v", (n, w, nh, hd))  # the layout the output projection reads
    ctx = np.empty((min(WINDOW_CHUNK, n), w, nh, hd), h2.dtype)
    for lo, hi in chunks:
        np.matmul(probs[lo:hi], v[lo:hi].transpose(0, 2, 1, 3), out=ctx[: hi - lo].transpose(0, 2, 1, 3))
        v[lo:hi] = ctx[: hi - lo]  # these windows of V are read
    del ctx
    out = _linear_forward(v.reshape(h2.shape[0], -1), params[prefix + "wo"], params[prefix + "bo"])
    return out.reshape(h.shape), probs


def _attention_rebuild(h2, probs, params, prefix):
    """Q, a contiguous K and V, each (N, H, W, hd), and the (N, W, H, hd)
    context of attention over the (N * W, d) input h2 with probabilities
    `probs`, each over the whole batch by the forward's own per-window and
    per-(window, head) products, so in the forward's bytes."""
    n, nh, w, _ = probs.shape
    shape = (n, w, nh, params[prefix + "wq"].shape[1] // nh)
    q = _projected(h2, params, prefix, "q", shape).transpose(0, 2, 1, 3)
    kt = _keys_t(h2.reshape(n, w, -1).transpose(0, 2, 1), params, prefix)
    k = np.ascontiguousarray(kt.reshape(n, nh, -1, w).swapaxes(-1, -2))  # the layout dq = dscores @ K reads fastest
    del kt
    v = _projected(h2, params, prefix, "v", shape).transpose(0, 2, 1, 3)
    ctx = np.empty(shape, h2.dtype)
    np.matmul(probs, v, out=ctx.transpose(0, 2, 1, 3))
    return q, k, v, ctx


def _attention_backward(g, h2, probs, params, grads, prefix):
    """d(input) of attention over the (N * W, d) input h2, from its cached
    probabilities; writes the weight and bias gradients into the views of
    `grads`. Q, K, V and the context are made again by `_attention_rebuild`."""
    n, nh, w, _ = probs.shape
    q, k, v, ctx = _attention_rebuild(h2, probs, params, prefix)
    hd = q.shape[-1]
    dctx = _linear_backward(g.reshape(n * w, -1), ctx.reshape(n * w, nh * hd), params[prefix + "wo"],
                            grads[prefix + "wo"], grads[prefix + "bo"])
    del ctx
    dctx = dctx.reshape(n, w, nh, hd).transpose(0, 2, 1, 3)
    dprobs = dctx @ v.swapaxes(-1, -2)
    dv = probs.swapaxes(-1, -2) @ dctx
    del v, dctx

    def d_input(dz, name):  # d(input) through one projection, dz freed once read
        merged = dz.transpose(0, 2, 1, 3).reshape(n * w, nh * hd)
        del dz
        return _linear_backward(merged, h2, params[prefix + "w" + name], grads[prefix + "w" + name],
                                grads[prefix + "b" + name])

    dh_v = d_input(dv, "v")  # dV goes first, then dQ, then dK ...
    del dv
    dscores = probs * (dprobs - _reduce_rows(np.add, dprobs * probs))
    del dprobs
    scale = 1.0 / math.sqrt(hd)
    dh = d_input((dscores @ k) * scale, "q")
    del k
    dh += d_input((dscores.swapaxes(-1, -2) @ q) * scale, "k")
    dh += dh_v  # ... and the input gradients add up in q, k, v order
    return dh.reshape(g.shape)


@_blas_threads_by_size
def forward_with_cache(
    model: SequenceClassifier,
    batch: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    keep_cache: bool = True,
):
    """Run the network; returns (logits, probs, cache for the backward pass).

    With `keep_cache=False` (no backward follows) activations are freed once
    read and the cache is None; the arithmetic is the same. A batch up to
    BLAS_SERIAL_MACS runs on one OpenBLAS thread (`_blas_threads_by_size`)."""
    cfg = model.config
    p = model.params
    if batch.ndim != 3 or batch.shape[1] != cfg.window or batch.shape[2] != cfg.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} does not match (N, {cfg.window}, {cfg.input_dim})"
        )
    if batch.shape[0] == 0:
        raise ValueError(f"batch of shape {batch.shape} has no windows")
    if not np.isfinite(batch).all():
        raise ValueError("batch contains non-finite values")
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs a random generator")

    dtype = model.dtype
    n, w, d = batch.shape
    x = batch.astype(dtype, copy=False)  # never written in place
    if cfg.use_positional:
        x = x + p["pos_embed"]
    x = x.reshape(n * w, d)  # the residual stream, one row per frame
    drop = train and cfg.dropout > 0.0
    # every block's two dropout draws in one call: the generator's stream
    # splits in order, so each is the draw made on its own
    keep = rng.random((2 * cfg.num_blocks, n * w, d)) >= cfg.dropout if drop else [None] * (2 * cfg.num_blocks)

    def kept(result):  # a primitive's (output, cache), its cache dropped at once without keep_cache
        return result if keep_cache else (result[0], None)

    block_caches = []
    for b in range(cfg.num_blocks):
        pre = f"block{b}."
        h, c_ln1 = kept(_layer_norm_forward(x, p[pre + "ln1.gain"], p[pre + "ln1.bias"]))
        branch, c_attn = kept(_attention_forward(h, p, pre + "attn.", cfg))  # its input is made again from c_ln1
        del h
        if drop:
            branch *= _dropout_mask(keep[2 * b], cfg.dropout, dtype)
        branch += x
        x = branch  # each residual add writes into its branch, which becomes the stream: the old one is freed

        h, c_ln2 = kept(_layer_norm_forward(x, p[pre + "ln2.gain"], p[pre + "ln2.bias"]))
        z1 = _linear_forward(h, p[pre + "ff.w1"], p[pre + "ff.b1"])  # its input is made again from c_ln2 too
        del h
        np.maximum(z1, 0, out=z1)
        branch, c_ff2 = kept((_linear_forward(z1, p[pre + "ff.w2"], p[pre + "ff.b2"]), z1))  # ff.w2's input
        del z1
        if drop:
            branch *= _dropout_mask(keep[2 * b + 1], cfg.dropout, dtype)
        branch += x
        x = branch
        if keep_cache:  # each dropout mask as its booleans
            block_caches.append((c_ln1, c_attn, keep[2 * b], c_ln2, c_ff2, keep[2 * b + 1]))
        del c_ln1, c_attn, c_ln2, c_ff2  # only the cache holds them on

    normed, c_final = kept(_layer_norm_forward(x, p["final_norm.gain"], p["final_norm.bias"]))
    del x, branch
    z = np.add.reduce(normed.reshape(n, w, d), axis=1) / w  # 1-D global average pool over window positions
    del normed

    head_caches = []
    n_layers = len(cfg.mlp_hidden) + 1
    for i in range(n_layers):
        z_in, z = z, _linear_forward(z, p[f"head.layer{i}.w"], p[f"head.layer{i}.b"])
        z_ss = None  # the scale-shift adapter's input
        if cfg.use_scale_shift_head:
            z_ss, z = z, p[f"head.layer{i}.scale"] * z + p[f"head.layer{i}.shift"]
        if i < n_layers - 1:
            np.maximum(z, 0, out=z)
        if keep_cache:
            head_caches.append((z_in, z_ss))
    return z, _softmax(z), (block_caches, c_final, head_caches, n) if keep_cache else None


def forward(
    model: SequenceClassifier,
    batch: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Class probabilities for a batch of windows; rows sum to 1."""
    _, probs, _ = forward_with_cache(model, batch, train=train, rng=rng, keep_cache=False)
    return probs


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean categorical cross-entropy from raw logits (numerically stable)."""
    shifted = logits - _reduce_rows(np.maximum, logits)
    log_z = np.log(_reduce_rows(np.add, np.exp(shifted))[:, 0])
    picked = shifted[np.arange(len(targets)), targets]
    return float((log_z - picked).mean())


@_blas_threads_by_size
def loss_and_grads(
    model: SequenceClassifier,
    batch: np.ndarray,
    targets: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    out: SequenceClassifier | None = None,
):
    """Mean cross-entropy and its exact analytic gradients for every parameter.

    Returns (loss, probs, grads) where grads is `out.params`: `out` is laid
    out like `model` (a new one when None), and the call writes every
    element of its buffer through those views, which it builds no more of.
    The backward frees each block's cache once it has read it.
    """
    targets = np.asarray(targets)
    if targets.shape != (batch.shape[0],):
        raise ValueError("targets must be a vector with one class index per window")
    cfg, p = model.config, model.params
    grads = (SequenceClassifier(cfg, np.empty_like(model.flat)) if out is None else out).params
    logits, probs, cache = forward_with_cache(model, batch, train=train, rng=rng)
    loss = cross_entropy(logits, targets)
    block_caches, c_final, head_caches, n = cache
    del logits, cache

    g = probs.copy(order="C")  # probs - onehot(targets), rows contiguous for the sums below
    g[np.arange(n), targets] -= 1
    g /= n

    last = len(head_caches) - 1
    for i in range(last, -1, -1):
        z_in, z_ss = head_caches[i]
        if i < last:
            g = g * (head_caches[i + 1][0] > 0)  # ReLU: the layer above's input is positive where its own was
        if z_ss is not None:
            np.add.reduce(z_ss * g, axis=0, out=grads[f"head.layer{i}.scale"])
            np.add.reduce(g, axis=0, out=grads[f"head.layer{i}.shift"])
            g = p[f"head.layer{i}.scale"] * g
        g = _linear_backward(g, z_in, p[f"head.layer{i}.w"], grads[f"head.layer{i}.w"], grads[f"head.layer{i}.b"])
    del head_caches

    # un-pool: distribute the pooled gradient evenly over window positions
    g = np.repeat(g, cfg.window, axis=0)
    g /= cfg.window
    g = _layer_norm_backward(g, c_final, p["final_norm.gain"], grads["final_norm.gain"], grads["final_norm.bias"])
    del c_final

    for b in range(cfg.num_blocks - 1, -1, -1):
        pre = f"block{b}."
        c_ln1, c_attn, keep_attn, c_ln2, c_ff2, keep_ff = block_caches.pop()

        g_ff = g if keep_ff is None else g * _dropout_mask(keep_ff, cfg.dropout, g.dtype)
        da1 = _linear_backward(g_ff, c_ff2, p[pre + "ff.w2"], grads[pre + "ff.w2"], grads[pre + "ff.b2"])
        da1 *= c_ff2 > 0  # ReLU: the cached activation is positive where its input was
        del g_ff, keep_ff, c_ff2
        h = _layer_norm_output(c_ln2, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        dh2 = _linear_backward(da1, h, p[pre + "ff.w1"], grads[pre + "ff.w1"], grads[pre + "ff.b1"])
        del da1, h
        dx = _layer_norm_backward(dh2, c_ln2, p[pre + "ln2.gain"], grads[pre + "ln2.gain"], grads[pre + "ln2.bias"])
        del dh2, c_ln2
        dx += g  # residual around the feed-forward sublayer
        g = dx

        g_attn = g if keep_attn is None else g * _dropout_mask(keep_attn, cfg.dropout, g.dtype)
        h = _layer_norm_output(c_ln1, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        dh = _attention_backward(g_attn, h, c_attn, p, grads, pre + "attn.")
        del g_attn, keep_attn, h, c_attn
        dx = _layer_norm_backward(dh, c_ln1, p[pre + "ln1.gain"], grads[pre + "ln1.gain"], grads[pre + "ln1.bias"])
        del dh, c_ln1
        dx += g  # residual around attention
        g = dx

    if cfg.use_positional:
        np.add.reduce(g.reshape(n, cfg.window, -1), axis=0, out=grads["pos_embed"])

    return loss, probs, grads
