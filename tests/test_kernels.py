"""The vectorized per-frame kernels against their loop versions in helpers.

Labels and ranks must be equal; projected scores and map text must be equal
byte for byte, since the vectorized kernels keep the loops' summation order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fakeseg import (
    ScoreMap,
    SegmentationMap,
    SmoothConfig,
    frame_auc,
    frames_from_windows,
    smooth,
    window_starts,
)
from fakeseg.metrics import _midranks
from helpers import (
    frames_from_windows_reference,
    map_text_reference,
    midranks_reference,
    smooth_reference,
    window_starts_reference,
)

PROPERTY = settings(max_examples=200, deadline=None)

label_lists = st.lists(st.integers(0, 1), min_size=1, max_size=120)


@st.composite
def blocky_labels(draw):
    """Runs of equal labels, so every run length near k shows up."""
    runs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=20))
    return [label for label, length in runs for _ in range(length)]


@st.composite
def tie_heavy_scores(draw, size):
    """Scores with many exact ties: a few levels, constant runs, or one value."""
    kind = draw(st.sampled_from(["levels", "rounded", "runs", "constant"]))
    if kind == "levels":
        return np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=size, max_size=size)))
    if kind == "constant":
        return np.full(size, draw(st.floats(0.0, 1.0)))
    values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    if kind == "rounded":
        return np.round(values, draw(st.integers(0, 2)))
    run = draw(st.integers(1, 8))
    return np.repeat(values[::run], run)[:size]


@st.composite
def window_grids(draw):
    """(T, W, starts, window scores) for a regular sliding-window grid."""
    t = draw(st.integers(1, 150))
    w = draw(st.integers(1, min(t, 24)))
    overlap = draw(st.integers(0, w - 1))
    starts = window_starts(t, w, overlap)
    return t, w, starts, draw(tie_heavy_scores(starts.size))


@PROPERTY
@given(data=st.data())
def test_window_starts_equal_the_list_version(data):
    """The regular grid and, where it leaves frames uncovered, the right-aligned window."""
    t = data.draw(st.integers(1, 3000))
    w = data.draw(st.integers(1, min(t, 64)))
    overlap = data.draw(st.integers(0, w - 1))
    got, want = window_starts(t, w, overlap), window_starts_reference(t, w, overlap)
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(labels=st.one_of(label_lists, blocky_labels()), k=st.integers(0, 130))
def test_smooth_equals_loop(labels, k):
    labels = np.array(labels, dtype=np.uint8)
    out = smooth(SegmentationMap(labels), SmoothConfig(k=k)).labels
    assert np.array_equal(out, smooth_reference(labels, k))


@PROPERTY
@given(labels=label_lists)
def test_smooth_with_k_at_least_the_length_equals_loop(labels):
    labels = np.array(labels, dtype=np.uint8)
    for k in (labels.size - 1, labels.size, labels.size + 1, 10**12):
        out = smooth(SegmentationMap(labels), SmoothConfig(k=k)).labels
        assert np.array_equal(out, smooth_reference(labels, k))


@PROPERTY
@given(grid=window_grids(), mode=st.sampled_from(["mean", "max", "center"]))
def test_projection_equals_loop_byte_for_byte(grid, mode):
    t, w, starts, scores = grid
    got = frames_from_windows(scores, starts, w, t, mode=mode).scores
    assert got.tobytes() == frames_from_windows_reference(scores, starts, w, t, mode).tobytes()


@PROPERTY
@given(data=st.data())
def test_projection_with_repeated_starts_equals_loop(data):
    t, w, starts, _ = data.draw(window_grids())
    extra = data.draw(st.lists(st.integers(0, t - w), max_size=10))
    starts = np.sort(np.concatenate([starts, np.array(extra, dtype=np.int64)]))
    scores = data.draw(tie_heavy_scores(starts.size))
    for mode in ("mean", "max"):
        got = frames_from_windows(scores, starts, w, t, mode=mode).scores
        assert got.tobytes() == frames_from_windows_reference(scores, starts, w, t, mode).tobytes()


@PROPERTY
@given(data=st.data())
def test_center_fill_equals_broadcast_nearest(data):
    # sparse, irregular centers leave long gaps and equidistant frames
    t = data.draw(st.integers(1, 150))
    w = data.draw(st.integers(1, t))
    starts = np.array(sorted(data.draw(st.sets(st.integers(0, t - w), min_size=1))), dtype=np.int64)
    scores = data.draw(tie_heavy_scores(starts.size))
    got = frames_from_windows(scores, starts, w, t, mode="center").scores
    assert got.tobytes() == frames_from_windows_reference(scores, starts, w, t, "center").tobytes()


def test_center_fill_tie_takes_the_left_center():
    # centers at frames 0 and 4; frame 2 is two away from both
    scores = frames_from_windows(np.array([0.2, 0.8]), np.array([0, 4]), 1, 7, mode="center").scores
    assert scores.tolist() == [0.2, 0.2, 0.2, 0.8, 0.8, 0.8, 0.8]
    ref = frames_from_windows_reference(np.array([0.2, 0.8]), np.array([0, 4]), 1, 7, "center")
    assert scores.tobytes() == ref.tobytes()


@PROPERTY
@given(data=st.data())
def test_midranks_equal_loop(data):
    values = data.draw(tie_heavy_scores(data.draw(st.integers(1, 200))))
    assert np.array_equal(_midranks(values), midranks_reference(values))


@PROPERTY
@given(labels=st.one_of(label_lists, blocky_labels()))
def test_map_text_and_json_equal_loop(labels):
    smap = SegmentationMap(labels)
    assert smap.to_text() == map_text_reference(smap.labels)
    scores = ScoreMap(np.random.default_rng(len(labels)).random(len(labels)))
    assert scores.to_json() == json.dumps({"scores": [float(v) for v in scores.scores]})


@pytest.fixture(scope="module")
def hour_video():
    """90,000 frames (an hour at 25 fps): blocky labels with isolated flips, tied scores."""
    t = 90_000
    rng = np.random.default_rng(90)
    labels = np.repeat(rng.integers(0, 2, size=t // 50), 50).astype(np.uint8)
    labels[rng.integers(0, t, size=t // 20)] ^= 1
    return labels, np.round(rng.random(t), 3)


def test_hour_long_video_equals_loop(hour_video):
    labels, frame_scores = hour_video
    t = labels.size
    smap = SegmentationMap(labels)
    assert np.array_equal(smooth(smap, SmoothConfig(k=7)).labels, smooth_reference(labels, 7))
    assert smap.to_text() == map_text_reference(labels)
    ranks = midranks_reference(frame_scores)
    assert np.array_equal(_midranks(frame_scores), ranks)
    gt_labels = labels.astype(bool)
    n_pos = int(gt_labels.sum())
    n_neg = t - n_pos
    expected_auc = (float(ranks[gt_labels].sum()) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    assert frame_auc(smap, ScoreMap(frame_scores)) == expected_auc
    w = 5
    starts = window_starts(t, w, 4)
    window_scores = frame_scores[: starts.size]
    for mode in ("mean", "max", "center"):
        got = frames_from_windows(window_scores, starts, w, t, mode=mode).scores
        ref = frames_from_windows_reference(window_scores, starts, w, t, mode)
        assert got.tobytes() == ref.tobytes(), mode
