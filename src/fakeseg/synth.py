"""Synthetic per-frame features with controllable class separation.

Emulates a frozen image encoder's per-frame embeddings so the temporal
pipeline can be trained and verified at desk scale with closed-form
oracles. Frames are Gaussian around a class mean, optionally mixed with the
previous frame (AR(1)) to create temporal correlation:

    x[0] = sample(mean(label[0]), noise)
    x[t] = (1 - rho) * sample(mean(label[t]), noise) + rho * x[t - 1]

The two class means sit `separation * noise_std` apart in Euclidean
distance, spread evenly over all coordinates, so a nearest-mean classifier
has error Phi(-separation / 2) at rho = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .injection import SegmentPlan, render_map
from .prng import derive_seed
from .windowing import FeatureSequence

SYNTH_ROWS = 8192  # frames drawn, mixed and cast at a time in synth_video


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    Attributes:
        dim: feature dimension per frame.
        separation: distance between class means in units of noise_std.
        temporal_rho: AR(1) mixing weight of the previous frame, in [0, 1).
        noise_std: per-coordinate sampling noise.
        seed: master seed; each video derives its own stream from
            (seed, video id).
    """

    dim: int
    separation: float = 6.0
    temporal_rho: float = 0.0
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0.0 <= self.separation < math.inf):
            raise ValueError("separation must be finite and >= 0")
        if not (0.0 <= self.temporal_rho < 1.0):
            raise ValueError("temporal_rho must lie in [0, 1)")
        if not (0.0 < self.noise_std < math.inf):
            raise ValueError("noise_std must be positive and finite")


def class_means(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """(real_mean, fake_mean), separated by separation * noise_std.

    The means differ along a sign-alternating direction rather than the
    all-ones one: a uniform shift of every channel is exactly what layer
    normalization subtracts, so it would be invisible to the classifier.
    """
    delta = cfg.separation * cfg.noise_std / np.sqrt(cfg.dim)
    signs = np.where(np.arange(cfg.dim) % 2 == 0, 1.0, -1.0)
    half = delta / 2.0 * signs
    return -half, half


def synth_video(plan: SegmentPlan, length: int, cfg: SynthConfig) -> FeatureSequence:
    """Generate one video's features; labels come from rendering the plan.

    Frames are drawn, mixed and cast SYNTH_ROWS at a time into the float32
    result, so at most one block is held in float64. The draws continue one
    generator stream and the AR(1) state carries over each block edge, so
    the bytes equal drawing and mixing the whole video at once."""
    labels = render_map(plan, length)
    fake = labels.labels[:, None].astype(bool)
    mu_real, mu_fake = class_means(cfg)
    rng = np.random.default_rng(derive_seed(cfg.seed, plan.video_id))
    rho = cfg.temporal_rho
    feats = np.empty((length, cfg.dim), np.float32)
    for lo in range(0, length, SYNTH_ROWS):
        hi = min(lo + SYNTH_ROWS, length)
        block = cfg.noise_std * rng.standard_normal((hi - lo, cfg.dim))
        np.add(block, mu_real, out=block, where=~fake[lo:hi])
        np.add(block, mu_fake, out=block, where=fake[lo:hi])
        if lo == 0:
            block[1:] *= 1.0 - rho  # x[0] is its draw, unmixed
        else:
            block *= 1.0 - rho
            block[0] += rho * prev
        for before, row in itertools.pairwise(block):  # cheaper than indexing block[t]
            row += rho * before
        prev = block[-1].copy()
        feats[lo:hi] = block
    return FeatureSequence(video_id=plan.video_id, features=feats, labels=labels)
