"""Fake-segment injection planning and benchmark dataset statistics.

Planning rules mirror the benchmark construction this toolkit reproduces:

  * one segment: start uniform in the first half of the video, length a
    uniform choice from {125, 150, 175} frames; if the drawn segment would
    run past the end, the start is redrawn (not clamped) so placement stays
    uniform on the feasible set.
  * two segments: the first starts uniformly within the first 125 frames,
    the second uniformly within the first 75 frames of the second half;
    both lengths come from the same {125, 150, 175} menu. Overlapping draws
    are redrawn jointly.

Plans are deterministic functions of (seed, video id) via a portable
SplitMix64 stream, so a plan file can be regenerated bit-exactly anywhere.

File formats:
  * plan file: JSON lines, one object per video:
    ``{"id": ..., "length": ..., "segments": [[start, len], ...]}``
  * video list: JSON lines ``{"id": ..., "length": ...}``
  * stats file, written by ``fakeseg plan --stats``: JSON object with the
    three DatasetStats fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .prng import stream_for
from .segmap import SegmentationMap
from .transformer import is_integer

SEGMENT_LENGTH_MENU = (125, 150, 175)
ONE_SEGMENT_MIN_FRAMES = 250
TWO_SEGMENT_MIN_FRAMES = 500
FIRST_START_WINDOW = 125   # two-segment mode: segment 1 starts in [0, 125)
SECOND_START_WINDOW = 75   # two-segment mode: segment 2 starts in [T//2, T//2 + 75)


@dataclass(frozen=True)
class VideoSpec:
    """One video to plan against: an id and its frame count."""

    id: str
    length_frames: int

    def __post_init__(self):
        if not self.id:
            raise ValueError("video id must be non-empty")
        if self.length_frames < 1:
            raise ValueError("length_frames must be positive")


@dataclass(frozen=True)
class SegmentPlan:
    """Fake intervals injected into one video, as (start, length) pairs."""

    video_id: str
    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev_end = 0
        for start, length in self.segments:
            if start < 0 or length < 1:
                raise ValueError(f"invalid segment ({start}, {length})")
            if start < prev_end:
                raise ValueError("segments must be sorted and non-overlapping")
            prev_end = start + length

    @property
    def fake_frames(self) -> int:
        return sum(length for _, length in self.segments)


@dataclass(frozen=True)
class DatasetStats:
    """Aggregate benchmark statistics; a ratio is None when its mode is absent."""

    fake_ratio_one_seg: float | None
    fake_ratio_two_seg: float | None
    avg_length: float


def plan_one_segment(video: VideoSpec, rng_seed: int) -> SegmentPlan:
    """Plan exactly one fake segment for `video`, deterministically."""
    t = video.length_frames
    if t < ONE_SEGMENT_MIN_FRAMES:
        raise ValueError(
            f"video {video.id!r} has {t} frames; one-segment plans need at least "
            f"{ONE_SEGMENT_MIN_FRAMES}"
        )
    rng = stream_for(rng_seed, video.id)
    start = rng.below(t // 2)
    length = rng.choice(SEGMENT_LENGTH_MENU)
    while start + length > t:
        start = rng.below(t // 2)
    return SegmentPlan(video.id, ((start, length),))


def plan_two_segments(video: VideoSpec, rng_seed: int) -> SegmentPlan:
    """Plan two non-overlapping fake segments for `video`, deterministically."""
    t = video.length_frames
    if t < TWO_SEGMENT_MIN_FRAMES:
        raise ValueError(
            f"video {video.id!r} has {t} frames; two-segment plans need at least "
            f"{TWO_SEGMENT_MIN_FRAMES}"
        )
    rng = stream_for(rng_seed, video.id)
    half = t // 2
    while True:
        s1 = rng.below(FIRST_START_WINDOW)
        l1 = rng.choice(SEGMENT_LENGTH_MENU)
        s2 = half + rng.below(SECOND_START_WINDOW)
        l2 = rng.choice(SEGMENT_LENGTH_MENU)
        if s1 + l1 <= s2 and s2 + l2 <= t:
            return SegmentPlan(video.id, ((s1, l1), (s2, l2)))


# dataset mode -> its planner, and the fewest frames that planner takes
PLANNERS = {"one": plan_one_segment, "two": plan_two_segments}
MIN_FRAMES = {"one": ONE_SEGMENT_MIN_FRAMES, "two": TWO_SEGMENT_MIN_FRAMES}


def plan_fixed_segment(video: VideoSpec, length: int, rng_seed: int) -> SegmentPlan:
    """Plan one segment of an exact length, placed uniformly at random.

    Used by the varying-segment-length sweep, where lengths come from the
    caller rather than from the standard menu.
    """
    t = video.length_frames
    if length < 1:
        raise ValueError("segment length must be positive")
    if length > t:
        raise ValueError(f"segment of {length} frames does not fit in {t}-frame video {video.id!r}")
    rng = stream_for(rng_seed, video.id)
    start = rng.below(t - length + 1)
    return SegmentPlan(video.id, ((start, length),))


def _check_fits(plan: SegmentPlan, length: int) -> None:
    """Raise a ValueError naming the plan's video if a segment runs past its `length` frames."""
    for start, seg_len in plan.segments:
        if start + seg_len > length:
            raise ValueError(
                f"segment ({start}, {seg_len}) exceeds video length {length} in plan "
                f"for {plan.video_id!r}"
            )


def render_map(plan: SegmentPlan, length: int) -> SegmentationMap:
    """Render a plan to a per-frame map: Fake inside segments, Real elsewhere."""
    _check_fits(plan, length)
    labels = np.zeros(length, dtype=np.uint8)
    for start, seg_len in plan.segments:
        labels[start : start + seg_len] = 1
    return SegmentationMap(labels)


def dataset_stats(plans: Iterable[SegmentPlan], videos: Sequence[VideoSpec]) -> DatasetStats:
    """Mean fake-frame ratio per mode and mean video length.

    Every plan must reference a video in `videos`, whose ids must differ;
    plans are bucketed by their segment count (1 or 2).
    """
    lengths: dict[str, int] = {}
    for v in videos:
        if v.id in lengths:
            raise ValueError(f"repeated video id {v.id!r}")
        lengths[v.id] = v.length_frames
    if not lengths:
        raise ValueError("no videos given")
    ratios: dict[int, list[float]] = {1: [], 2: []}
    for plan in plans:
        if plan.video_id not in lengths:
            raise ValueError(f"plan references unknown video id {plan.video_id!r}")
        n_seg = len(plan.segments)
        if n_seg not in ratios:
            raise ValueError(f"plan for {plan.video_id!r} has {n_seg} segments; expected 1 or 2")
        ratios[n_seg].append(plan.fake_frames / lengths[plan.video_id])
    mean = lambda xs: float(np.mean(xs)) if xs else None
    return DatasetStats(
        fake_ratio_one_seg=mean(ratios[1]),
        fake_ratio_two_seg=mean(ratios[2]),
        avg_length=float(np.mean(list(lengths.values()))),
    )


# -- file formats --


def _read_video_lines(path: str | Path) -> list[tuple[int, VideoSpec, dict]]:
    """Each non-blank line's number and JSON object, with the VideoSpec of its
    id and length; ValueError naming the line for a line that is not a JSON
    object, an id or length missing, an id that is not a non-empty string, a
    length that is not a positive integer, or an id an earlier line has."""
    records, seen = [], set()
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: invalid JSON: {exc.msg} at column {exc.colno}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {number}: expected a JSON object, got {obj!r}")
        for key in ("id", "length"):
            if key not in obj:
                raise ValueError(f"line {number}: missing key {key!r}")
        if not (isinstance(obj["id"], str) and obj["id"]):
            raise ValueError(f"line {number}: id must be a non-empty string, got {obj['id']!r}")
        if not is_integer(obj["length"]):
            raise ValueError(f"line {number}: length must be an integer, got {obj['length']!r}")
        if obj["id"] in seen:
            raise ValueError(f"line {number}: repeated video id {obj['id']!r}")
        seen.add(obj["id"])
        try:
            video = VideoSpec(id=obj["id"], length_frames=obj["length"])
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        records.append((number, video, obj))
    return records


def read_videos(path: str | Path) -> list[VideoSpec]:
    return [video for _, video, _ in _read_video_lines(path)]


def write_plans(path: str | Path, records: Iterable[tuple[VideoSpec, SegmentPlan]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for video, plan in records:
            if plan.video_id != video.id:
                raise ValueError(f"plan id {plan.video_id!r} does not match video {video.id!r}")
            obj = {
                "id": video.id,
                "length": video.length_frames,
                "segments": [[s, l] for s, l in plan.segments],
            }
            fh.write(json.dumps(obj) + "\n")


def read_plans(path: str | Path) -> list[tuple[VideoSpec, SegmentPlan]]:
    """Each line's video and plan. ValueError naming the line as
    `_read_video_lines` does and for segments missing or not a list, and
    naming the video for a segment that is not an integer pair, is empty or
    negative, overlaps or precedes the one before it, or runs past the
    video's end."""
    records = []
    for number, video, obj in _read_video_lines(path):
        if "segments" not in obj:
            raise ValueError(f"line {number}: missing key 'segments'")
        segments = obj["segments"]
        if not isinstance(segments, list):
            raise ValueError(f"line {number}: segments must be a list, got {segments!r}")
        if not all(isinstance(seg, list) and len(seg) == 2 and all(map(is_integer, seg)) for seg in segments):
            raise ValueError(f"video {video.id!r}: segments must be [start, length] integer pairs, "
                             f"got {segments!r}")
        try:
            plan = SegmentPlan(video.id, tuple(map(tuple, segments)))
        except ValueError as exc:
            raise ValueError(f"video {video.id!r}: {exc}") from None
        _check_fits(plan, video.length_frames)
        records.append((video, plan))
    return records
