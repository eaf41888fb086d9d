import copy
import pickle

import numpy as np
import pytest

from fakeseg import FrameLabel, ScoreMap, SegmentationMap, render_map, segments_of
from fakeseg.injection import SegmentPlan


def test_frame_label_order_and_chars():
    assert FrameLabel.REAL < FrameLabel.FAKE


def test_map_validation():
    with pytest.raises(ValueError):
        SegmentationMap([])
    with pytest.raises(ValueError):
        SegmentationMap([0, 2])
    m = SegmentationMap([0, 1, 1])
    assert len(m) == 3
    assert m.fake_ratio == pytest.approx(2 / 3)
    assert m[1] is FrameLabel.FAKE


@pytest.mark.parametrize(
    "labels, accepted",
    [
        (np.array([False, True, True]), True),
        (np.array([0, 1, 0], dtype=np.uint8), True),
        (np.array([1, 0, 1], dtype=np.int64), True),
        (np.array([0.0, 1.0]), True),
        ([FrameLabel.REAL, FrameLabel.FAKE], True),
        (np.array([0, 2]), False),
        (np.array([-1, 0]), False),
        (np.array([0.5, 1.0]), False),
        (np.array([np.nan, 0.0]), False),
        (np.array(["0", "1"]), False),
    ],
    ids=["bool", "uint8", "int64", "float", "enum", "two", "minus-one", "half", "nan", "str"],
)
def test_map_accepts_the_labels_isin_accepts(labels, accepted):
    assert bool(np.isin(np.asarray(labels), (0, 1)).all()) is accepted
    if accepted:
        assert SegmentationMap(labels).labels.tolist() == np.asarray(labels).astype(int).tolist()
    else:
        with pytest.raises(ValueError, match="0 \\(Real\\) or 1 \\(Fake\\)"):
            SegmentationMap(labels)


def test_map_is_immutable():
    m = SegmentationMap([0, 1])
    with pytest.raises(AttributeError):
        m.labels = np.array([1, 1])
    with pytest.raises(ValueError):
        m.labels[0] = 1


@pytest.mark.parametrize("round_trip", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy])
def test_maps_survive_pickle_and_copy(round_trip):
    """Maps cross process boundaries (results of the fanned-out stages) by pickle."""
    m = SegmentationMap([0, 1, 1, 0])
    back = round_trip(m)
    assert back == m and back.labels.dtype == np.uint8
    assert not back.labels.flags.writeable
    with pytest.raises(AttributeError):
        back.labels = np.array([1, 1, 1, 1])
    s = ScoreMap([0.25, 0.5, 0.125])
    back = round_trip(s)
    assert back.scores.tobytes() == s.scores.tobytes() and back.scores.dtype == np.float64
    assert not back.scores.flags.writeable
    with pytest.raises(AttributeError):
        back.scores = np.zeros(3)


def test_text_round_trip():
    m = SegmentationMap.from_text("RRFFFRR\n")
    assert m.to_text() == "RRFFFRR\n"
    assert SegmentationMap.from_text(m.to_text()) == m
    with pytest.raises(ValueError):
        SegmentationMap.from_text("RRXF\n")


def test_score_map_validation():
    with pytest.raises(ValueError):
        ScoreMap([])
    with pytest.raises(ValueError):
        ScoreMap([0.5, 1.2])
    with pytest.raises(ValueError):
        ScoreMap([0.5, float("nan")])


def test_score_threshold_is_inclusive():
    s = ScoreMap([0.0, 0.5, 0.9])
    assert s.threshold(0.5).to_text() == "RFF\n"
    # threshold 0 labels every frame Fake, whatever the scores
    assert s.threshold(0.0).to_text() == "FFF\n"


def test_score_json_round_trip():
    s = ScoreMap([0.25, 0.75])
    back = ScoreMap.from_json(s.to_json())
    assert np.array_equal(back.scores, s.scores)


def test_score_json_holds_numbers_only():
    for text in ('{"scores": [0.5, true]}', '{"scores": ["0.5", "1e-1"]}', '{"scores": [0.5, null]}',
                 '{"scores": [[0.5]]}', '{"scores": 0.5}', '{"scores": "0.5"}'):
        with pytest.raises(ValueError, match="^score JSON"):
            ScoreMap.from_json(text)
    assert ScoreMap.from_json('{"scores": [0, 1, 0.5]}').scores.tolist() == [0.0, 1.0, 0.5]


def test_segments_of_examples():
    assert segments_of(SegmentationMap.from_text("RRRR\n")) == []
    assert segments_of(SegmentationMap.from_text("RRFFFRR\n")) == [(2, 3)]
    assert segments_of(SegmentationMap.from_text("FFRRFF\n")) == [(0, 2), (4, 2)]
    assert segments_of(SegmentationMap.from_text("F\n")) == [(0, 1)]


def test_segments_round_trip_random_maps():
    rng = np.random.default_rng(42)
    for _ in range(200):
        t = int(rng.integers(1, 60))
        m = SegmentationMap(rng.integers(0, 2, size=t))
        segs = segments_of(m)
        rebuilt = render_map(SegmentPlan("v", tuple(segs)), t)
        assert rebuilt == m
        # segments are maximal runs: sorted, non-overlapping, length >= 1
        prev_end = -1
        for start, length in segs:
            assert length >= 1
            assert start > prev_end  # maximality: no two adjacent runs touch
            prev_end = start + length
