"""Per-frame Real/Fake label maps and score maps.

A segmentation map assigns one Boolean label (Real or Fake) to every frame
of a video; a score map carries the per-frame probability of Fake. These two
carriers are the currency of the whole toolkit: planners render them,
models emit them, metrics consume them.

Serialization formats:
  * segmentation map, text: one ASCII character per frame, ``R``/``F``,
    newline-terminated.
  * score map, JSON: ``{"scores": [0.12, ...]}``.
"""

from __future__ import annotations

import json
from enum import IntEnum
from typing import Iterable

import numpy as np


class FrameLabel(IntEnum):
    """Binary frame class. Real sorts below Fake; 1 means Fake on the wire."""

    REAL = 0
    FAKE = 1


class SegmentationMap:
    """Immutable per-frame Real/Fake labeling of one video.

    Args:
        labels: per-frame labels; anything coercible to a 0/1 integer array
            (FrameLabel values, bools, or 0/1 ints). Length must be >= 1.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[int] | np.ndarray):
        arr = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a segmentation map needs a 1-D sequence of at least one label")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("labels must be 0 (Real) or 1 (Fake)")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SegmentationMap is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses slot restore
        return type(self), (self.labels,)

    def __len__(self) -> int:
        return int(self.labels.size)

    def __getitem__(self, i: int) -> FrameLabel:
        return FrameLabel(int(self.labels[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentationMap):
            return NotImplemented
        return len(self) == len(other) and bool((self.labels == other.labels).all())

    def __repr__(self) -> str:
        body = self.to_text().rstrip("\n")
        if len(body) > 40:
            body = body[:37] + "..."
        return f"SegmentationMap({body!r}, T={len(self)})"

    @property
    def fake_ratio(self) -> float:
        """Fraction of frames labeled Fake."""
        return float(self.labels.mean())

    def to_text(self) -> str:
        chars = np.where(self.labels, ord("F"), ord("R")).astype(np.uint8)
        return chars.tobytes().decode("ascii") + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SegmentationMap":
        body = text.rstrip("\n")
        bad = set(body) - {"R", "F"}
        if bad:
            raise ValueError(f"invalid characters in map text: {sorted(bad)}")
        return cls(np.frombuffer(body.encode("ascii"), dtype=np.uint8) == ord("F"))


class ScoreMap:
    """Per-frame probability of Fake, aligned with a SegmentationMap."""

    __slots__ = ("scores",)

    def __init__(self, scores: Iterable[float] | np.ndarray):
        arr = np.asarray(scores, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a score map needs a 1-D sequence of at least one score")
        if not np.isfinite(arr).all():
            raise ValueError("scores must be finite")
        if (arr < 0).any() or (arr > 1).any():
            raise ValueError("scores must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ScoreMap is immutable")

    def __reduce__(self):
        return type(self), (self.scores,)

    def __len__(self) -> int:
        return int(self.scores.size)

    def threshold(self, threshold: float) -> SegmentationMap:
        """Label every frame Fake whose score is >= `threshold`."""
        return SegmentationMap(self.scores >= threshold)

    def to_json(self) -> str:
        return json.dumps({"scores": self.scores.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "ScoreMap":
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("scores"), list):
            raise ValueError('score JSON must be an object with a "scores" array')
        if not set(map(type, data["scores"])) <= {int, float}:
            raise ValueError('score JSON "scores" must hold numbers only')
        return cls(data["scores"])


def segments_of(segmap: SegmentationMap) -> list[tuple[int, int]]:
    """Maximal runs of Fake frames as (start, length) pairs, sorted by start."""
    labels = segmap.labels
    padded = np.concatenate(([0], labels, [0])).astype(np.int8)
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return [(int(s), int(e - s)) for s, e in zip(starts, ends)]
