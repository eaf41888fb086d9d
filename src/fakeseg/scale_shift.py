"""Scale-and-shift feature modulation: y[i, j] = gamma[j] * x[i, j] + beta[j].

A parameter-efficient adapter that linearly remaps each feature channel of a
frozen representation. Initialized to the identity (gamma = 1, beta = 0) so
training departs smoothly from the unmodulated features. The classifier head
computes the same map inline; this module is the reference that inline map
is tested against (the float64 reference model in `tests/helpers.py`, and
acceptance criterion 3's gradient check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
