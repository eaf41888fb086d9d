"""Per-frame features: read, checked against a model, cut into windows,
and window scores projected back to frames.

Per-frame feature vectors are accumulated sequentially for one video and cut
into overlapping windows of W frames (stride = W - overlap). Windows never
cross video boundaries. Each window carries the label of its center frame
for training; window-level scores are projected back to frames by averaging
over every window that covers the frame.

Feature file format (little-endian binary):
    magic "TFKF", u32 version=1, u32 T, u32 d, then T*d float32 row-major.
An optional sibling file (same path with a ".labels" suffix) stores the
ground-truth map in the text segmap format.
"""

from __future__ import annotations

import functools
import itertools
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .segmap import ScoreMap, SegmentationMap
from .transformer import TransformerConfig

FEATURE_MAGIC = b"TFKF"
FEATURE_VERSION = 1
FRAME_MODES = ("mean", "max", "center")  # the projections of frames_from_windows
FINITE_ROWS = 8192  # feature rows per finiteness check in check_features


@dataclass(frozen=True)
class FeatureSequence:
    """T x d per-frame features for one video, with optional labels."""

    video_id: str
    features: np.ndarray
    labels: SegmentationMap | None = None

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ValueError("features must be a T x d matrix with T, d >= 1")
        if self.labels is not None and len(self.labels) != self.features.shape[0]:
            raise ValueError(
                f"label length {len(self.labels)} does not match {self.features.shape[0]} frames"
            )

    @property
    def num_frames(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


def window_starts(num_frames: int, window: int, overlap: int) -> np.ndarray:
    """Start indices for sliding windows over `num_frames` frames.

    Starts advance by stride = window - overlap; if the regular grid leaves
    trailing frames uncovered, one extra window right-aligned at T - W is
    appended so the union of windows is always [0, T).
    """
    if window < 1:
        raise ValueError("window size must be >= 1")
    if window > num_frames:
        raise ValueError(f"window size {window} exceeds video length {num_frames}")
    if not (0 <= overlap < window):
        raise ValueError(f"overlap must satisfy 0 <= overlap < window, got {overlap}")
    last, stride = num_frames - window, window - overlap
    # the grid's one start past `last`, if any, becomes the right-aligned window
    starts = np.arange(0, last + stride, stride, dtype=np.int64)
    starts[-1] = last
    return starts


@dataclass(frozen=True)
class SplitWindows:
    """The windows of one video (`make_windows`) or of a split's videos
    (`windows_for_split`), cut when they are indexed.

    `features` holds the videos' frames one after another, `starts` the
    row of `features` at which each window begins (no window crosses a
    video), and `window` the frames per window. Indexing with an index
    array or a slice gathers those windows, C-contiguous, from `views`,
    so only the batch in use is ever materialized.
    """

    features: np.ndarray
    starts: np.ndarray
    window: int

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, idx) -> np.ndarray:
        return np.ascontiguousarray(self.views[self.starts[idx]])

    @functools.cached_property
    def views(self) -> np.ndarray:
        """The read-only (F - window + 1, window, d) view of every window of
        the features, built once: building it costs several times what
        gathering a training batch from it does."""
        return np.lib.stride_tricks.sliding_window_view(self.features, (self.window, self.features.shape[1]))[:, 0]


def make_windows(seq: FeatureSequence, window: int, overlap: int) -> SplitWindows:
    """One video's overlapping windows (see `window_starts`), cut when indexed."""
    if window > seq.num_frames:
        raise ValueError(
            f"video {seq.video_id!r} has {seq.num_frames} frames, fewer than the window of {window}"
        )
    return SplitWindows(seq.features, window_starts(seq.num_frames, window, overlap), window)


def frames_from_windows(
    window_scores: np.ndarray,
    starts: np.ndarray,
    window: int,
    num_frames: int,
    mode: str = "mean",
) -> ScoreMap:
    """Project window-level Fake scores back to a per-frame score map.

    mode "mean" (default) averages the scores of every window covering the
    frame; "max" takes their maximum; "center" assigns each window's score
    to its center frame and fills the remaining frames from the nearest
    scored frame.
    """
    window_scores = np.asarray(window_scores, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    if window_scores.shape != starts.shape:
        raise ValueError("window_scores and starts must have equal length")
    if starts.size and (starts.min() < 0 or starts.max() + window > num_frames):
        raise ValueError("window extends outside the video")

    if mode == "mean":
        # frame starts + j gets its window's score at offset j; adding the
        # offsets from window-1 down to 0 (add.at keeps repeated starts, in
        # order) sums each frame's windows in ascending start order, as a
        # window-by-window loop over sorted starts does, bit for bit
        total = np.zeros(num_frames)
        count = np.zeros(num_frames, np.int64)
        for j in range(window - 1, -1, -1):
            np.add.at(total, starts + j, window_scores)
            np.add.at(count, starts + j, 1)
        if (count == 0).any():
            raise RuntimeError("internal error: frame not covered by any window")
        return ScoreMap(total / count)
    if mode == "max":
        # best score among the windows starting at s goes to s + window - 1;
        # frame f then takes the maximum over f .. f + window - 1
        by_start = np.full(num_frames + window - 1, -1.0)
        np.maximum.at(by_start, starts + (window - 1), window_scores)
        best = np.full(num_frames, -1.0)
        for j in range(window):
            np.maximum(best, by_start[j : j + num_frames], out=best)
        if (best < 0).any():
            raise RuntimeError("internal error: frame not covered by any window")
        return ScoreMap(best)
    if mode == "center":
        frame_scores = np.full(num_frames, np.nan)
        frame_scores[starts + window // 2] = window_scores
        scored = np.flatnonzero(~np.isnan(frame_scores))
        if scored.size == 0:
            raise RuntimeError("internal error: no window centers")
        missing = np.flatnonzero(np.isnan(frame_scores))
        if missing.size:
            # nearest scored frame on each side; the left one wins a tie
            after = np.searchsorted(scored, missing)
            left = scored[np.maximum(after - 1, 0)]
            right = scored[np.minimum(after, scored.size - 1)]
            nearest = np.where(missing - left <= right - missing, left, right)
            frame_scores[missing] = frame_scores[nearest]
        return ScoreMap(frame_scores)
    raise ValueError(f"unknown projection mode {mode!r}")


# -- binary feature file --


def label_path_for(feature_path: str | Path) -> Path:
    """Sibling label file: the feature path with a '.labels' suffix appended."""
    p = Path(feature_path)
    return p.with_name(p.name + ".labels")


def write_features(path: str | Path, seq: FeatureSequence) -> None:
    """Write the binary feature file, plus the sibling label file if labeled."""
    feats = np.ascontiguousarray(seq.features, dtype="<f4")
    t, d = feats.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, d))
        fh.write(feats.tobytes())
    if seq.labels is not None:
        label_path_for(path).write_text(seq.labels.to_text(), encoding="ascii")


def feature_paths(path: str | Path) -> list[Path]:
    """`path` if it is a file, else the `.feat` files in it, sorted; FileNotFoundError if none."""
    paths = [Path(path)] if Path(path).is_file() else sorted(Path(path).glob("*.feat"))
    if not paths:
        raise FileNotFoundError(f"no .feat files in {path}")
    return paths


def _read_header(fh, path: Path) -> tuple[int, int]:
    """(T, d) from an open feature file's header, once the file's size matches it."""
    header = fh.read(16)
    if header[:4] != FEATURE_MAGIC:
        raise ValueError(f"{path}: not a feature file (bad magic {header[:4]!r})")
    if len(header) < 16:
        raise ValueError(f"{path}: truncated feature file header ({len(header)} of 16 bytes)")
    version, t, d = struct.unpack("<III", header[4:])
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported feature file version {version}")
    size, needs = os.fstat(fh.fileno()).st_size, 16 + 4 * t * d
    if size < needs:
        raise ValueError(
            f"{path}: truncated feature file: a {t}x{d} header needs {needs} bytes, the file has {size}"
        )
    if size > needs:
        raise ValueError(f"{path}: {size - needs} trailing bytes after the {t}x{d} features")
    return t, d


def _sequence(path: Path, feats: np.ndarray) -> FeatureSequence:
    """The video of the feature file at `path`, with its sibling label file if present."""
    labels = None
    lp = label_path_for(path)
    if lp.exists():
        try:
            labels = SegmentationMap.from_text(lp.read_text(encoding="ascii"))
        except ValueError as exc:
            raise ValueError(f"{lp}: {exc}") from exc
        if len(labels) != len(feats):
            raise ValueError(f"{lp}: label length {len(labels)} does not match {len(feats)} frames")
    try:
        return FeatureSequence(video_id=path.stem, features=feats, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_files(paths: list[Path]) -> list[FeatureSequence]:
    """The videos of the feature files `paths`, each opened once: its
    header checked, then its rows read unbuffered (as the file is after the
    check) into its T x d view of one float32 buffer sized from the files'
    sizes, in as many `readinto` calls as the OS needs (about 2 GiB each)."""
    slots = [max(os.stat(path).st_size - 16, 0) // 4 for path in paths]
    buffer = np.empty(sum(slots), dtype="<f4")
    seqs, lo = [], 0
    for path, slot in zip(paths, slots):
        with open(path, "rb", buffering=0) as fh:
            t, d = _read_header(fh, path)
            if t * d != slot:
                raise ValueError(f"{path}: the file changed size while it was read")
            feats = buffer[lo : lo + slot].reshape(t, d)
            rows, got = feats.reshape(-1).view(np.uint8), 0
            while got < rows.size and (n := fh.readinto(rows[got:])):
                got += n
        if got != rows.size:
            raise ValueError(f"{path}: truncated feature file: read {got} of its {t}x{d} features' {rows.size} bytes")
        seqs.append(_sequence(path, feats))
        lo += slot
    return seqs


def read_features(path: str | Path) -> FeatureSequence:
    """Read a binary feature file; picks up the sibling label file if present."""
    (seq,) = _read_files([Path(path)])
    return seq


def load_split_features(split_dir: str | Path) -> list[FeatureSequence]:
    """The videos of `feature_paths(split_dir)`, each checked as
    `read_features` checks it, read into one float32 buffer: each video's
    T x d features are a view of it, so the split's frames are held once,
    and videos of one width join without a copy (`joined_features`).
    Whether a width suits a model is `check_features`' test."""
    return _read_files(feature_paths(split_dir))


def joined_features(seqs: list[FeatureSequence]) -> np.ndarray:
    """The videos' features one after another as one (F, d) array. Videos
    that fill one buffer in order, as `load_split_features` reads a split
    of one width, give a view of it; others are concatenated."""
    ends = list(itertools.accumulate(seq.num_frames for seq in seqs))
    first = seqs[0].features
    whole = first if first.base is None else first.base
    if isinstance(whole, np.ndarray) and whole.flags.c_contiguous and whole.size == ends[-1] * first.shape[1]:
        whole = whole.reshape(-1, first.shape[1])
        if all(
            whole[end - seq.num_frames : end].__array_interface__ == seq.features.__array_interface__
            for seq, end in zip(seqs, ends)
        ):
            return whole
    return np.concatenate([seq.features for seq in seqs])


# -- a split's checked, labeled windows --


def check_features(
    seqs: Iterable[FeatureSequence], config: TransformerConfig, labeled: bool = False
) -> list[FeatureSequence]:
    """The videos as a list, once each fits a model of `config`.

    Raises a ValueError naming the first video whose features are not
    `config.input_dim` wide, that has fewer frames than the window, that
    holds a non-finite value (checked FINITE_ROWS rows at a time) or, when
    `labeled`, that has no labels."""
    seqs = list(seqs)
    for seq in seqs:
        if seq.dim != config.input_dim:
            problem = f"has {seq.dim}-dim features, the model takes {config.input_dim}"
        elif seq.num_frames < config.window:
            problem = f"has {seq.num_frames} frames, fewer than the window of {config.window}"
        elif not all(
            np.isfinite(seq.features[lo : lo + FINITE_ROWS]).all() for lo in range(0, seq.num_frames, FINITE_ROWS)
        ):
            problem = "has non-finite features"
        elif labeled and seq.labels is None:
            problem = "has no labels"
        else:
            continue
        raise ValueError(f"video {seq.video_id!r} {problem}")
    return seqs


def windows_for_split(
    seqs: Iterable[FeatureSequence], model_cfg: TransformerConfig, overlap: int
) -> tuple[SplitWindows, np.ndarray]:
    """One split's windows, cut on demand from its features, and their
    center-frame labels, once `check_features` passes."""
    seqs = check_features(seqs, model_cfg, labeled=True)
    w = model_cfg.window
    starts, labels, offset = [], [], 0
    for seq in seqs:
        video_starts = make_windows(seq, w, overlap).starts
        labels.append(seq.labels.labels[video_starts + w // 2])
        starts.append(video_starts + offset)
        offset += seq.num_frames
    return SplitWindows(joined_features(seqs), np.concatenate(starts), w), np.concatenate(labels)
