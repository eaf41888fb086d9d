"""Majority-vote smoothing of noisy frame-level predictions.

For each frame, the k labels to its left and the k labels to its right are
polled separately (truncated at the map boundaries). A frame's label is
replaced only when the evidence is unanimous about direction:

  * left side empty (first frame): adopt the right majority if it differs;
  * right side empty (last frame): adopt the left majority if it differs;
  * both sides present: change only when both majorities agree with each
    other and disagree with the current label.

All votes are taken against the original input map and written to a fresh
output, so the result is order-independent (no cascade from earlier
rewrites). A tied side has no majority and never forces a change. With
k = 0 the operation is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmap import ScoreMap, SegmentationMap

# default neighborhood: 7 per side, i.e. a 15-frame voting window


@dataclass(frozen=True)
class SmoothConfig:
    k: int = 7

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")


def smooth(pred: SegmentationMap, cfg: SmoothConfig) -> SegmentationMap:
    """Majority-vote smoothing; output length equals input length."""
    labels = pred.labels
    out = labels.copy()
    n = labels.size
    k = min(cfg.k, n)  # wider windows are truncated to the map anyway
    if k == 0:
        return SegmentationMap(out)
    # fakes[i] = Fake votes among labels[:i]
    fakes = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(labels, dtype=np.int32, out=fakes[1:])
    i = np.arange(n, dtype=np.int32)
    lo = np.maximum(i - k, 0)
    hi = np.minimum(i + (k + 1), n)
    # 2 * Fake votes - side size: > 0 Fake majority, < 0 Real, 0 tie or empty
    left = 2 * (fakes[:-1] - fakes[lo]) - (i - lo)
    right = 2 * (fakes[hi] - fakes[1:]) - (hi - i - 1)
    # a side votes against a frame when its majority is the other label
    fake = labels.astype(bool)
    against_left = np.where(fake, left < 0, left > 0)
    against_right = np.where(fake, right < 0, right > 0)
    flip = against_left & against_right
    flip[0] = against_right[0]  # first frame: right side only
    flip[-1] = against_left[-1]  # last frame: left side only
    out[flip] ^= 1
    return SegmentationMap(out)


def smooth_scores(scores: ScoreMap, threshold: float, cfg: SmoothConfig) -> SegmentationMap:
    """Threshold scores (Fake when score >= threshold), then smooth."""
    return smooth(scores.threshold(threshold), cfg)
