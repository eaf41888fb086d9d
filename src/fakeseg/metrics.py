"""Frame-level and video-level metrics over segmentation maps.

The 1-D IoU here follows the set formulation over per-frame label pairs:
the intersection is the count of correctly predicted frames and the union
counts every wrong frame twice, so IoU = C / (C + 2W). This is NOT the
per-class (two-way) mean IoU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmap import FrameLabel, ScoreMap, SegmentationMap


@dataclass(frozen=True)
class BaselineParams:
    """Inputs of the analytic random-guess IoU baseline.

    Attributes:
        f: ratio of Real frames in the ground truth.
        p: probability that the random guesser emits Real for a frame.

    Note the Real-frame convention: the agreement probability
    f*p + (1-f)*(1-p) is symmetric under complementing both ratios, so the
    baseline value is identical if f and p are read as Fake ratios instead.
    """

    f: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.f <= 1.0 and 0.0 <= self.p <= 1.0):
            raise ValueError("f and p must lie in [0, 1]")


def _check_same_length(gt: SegmentationMap, other) -> None:
    if len(gt) != len(other):
        raise ValueError(f"length mismatch: ground truth has {len(gt)} frames, other has {len(other)}")


def iou(gt: SegmentationMap, pred: SegmentationMap) -> float:
    """1-D IoU between two equal-length maps: C / (C + 2W).

    C is the number of frames where the maps agree and W = T - C. Returns
    1.0 iff the maps are identical and 0.0 iff no frame agrees.
    """
    _check_same_length(gt, pred)
    correct = int((gt.labels == pred.labels).sum())
    wrong = len(gt) - correct
    return correct / (correct + 2 * wrong)


def frame_accuracy(gt: SegmentationMap, pred: SegmentationMap) -> float:
    """Fraction of frames with equal labels."""
    _check_same_length(gt, pred)
    return float((gt.labels == pred.labels).mean())


def expected_iou_baseline(params: BaselineParams) -> float:
    """Expected IoU of a per-frame random guesser, as a ratio of expectations.

    The per-frame agreement probability is a = f*p + (1-f)*(1-p)
    (equivalently 1 + 2fp - f - p), and the returned value is a / (2 - a):
    expected intersection over expected union, not the expectation of the
    per-map IoU ratio. At p = 0.5 this is 1/3 for every f.
    """
    a = params.f * params.p + (1.0 - params.f) * (1.0 - params.p)
    return a / (2.0 - a)


def frame_auc(gt: SegmentationMap, scores: ScoreMap) -> float:
    """ROC-AUC of the per-frame Fake scores against the ground truth.

    Computed from the Mann-Whitney rank statistic with average (mid) ranks
    for tied scores. Requires both classes in the ground truth.
    """
    _check_same_length(gt, scores)
    y = gt.labels.astype(bool)
    n_pos = int(y.sum())
    n_neg = len(gt) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: ground truth contains a single class")
    ranks = _midranks(scores.scores)
    rank_sum_pos = float(ranks[y].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of their group."""
    order = np.argsort(values)
    sorted_vals = values[order]
    # 0-based sorted positions where a group of equal values begins and ends
    first = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    last = np.append(first[1:], values.size) - 1
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2 + 1, last - first + 1)
    return ranks


def video_label(scores: ScoreMap, threshold: float = 0.5) -> FrameLabel:
    """Video-level prediction: mean frame score compared against `threshold`.

    The video score (mean per-frame Fake probability) is also what feeds
    video-level AUC; a mean >= threshold labels the video Fake.
    """
    return FrameLabel.FAKE if video_score(scores) >= threshold else FrameLabel.REAL


def video_score(scores: ScoreMap) -> float:
    """Mean per-frame Fake probability of one video."""
    return float(scores.scores.mean())
