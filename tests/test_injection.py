import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from fakeseg import (
    DatasetStats,
    SegmentPlan,
    VideoSpec,
    dataset_stats,
    plan_fixed_segment,
    plan_one_segment,
    plan_two_segments,
    render_map,
    segments_of,
)
from fakeseg.injection import (
    ONE_SEGMENT_MIN_FRAMES,
    SEGMENT_LENGTH_MENU,
    TWO_SEGMENT_MIN_FRAMES,
    read_plans,
    read_videos,
    write_plans,
)

DATA = Path(__file__).parent / "data"


# -- one-segment planning --


def test_one_segment_rule():
    for seed in range(50):
        plan = plan_one_segment(VideoSpec("v", 668), seed)
        assert len(plan.segments) == 1
        start, length = plan.segments[0]
        assert 0 <= start < 334
        assert length in SEGMENT_LENGTH_MENU
        assert start + length <= 668


def test_one_segment_boundary_video():
    # T = 250: start < 125 and any drawn length must still fit after resampling
    for seed in range(200):
        (start, length), = plan_one_segment(VideoSpec("v", 250), seed).segments
        assert 0 <= start < 125
        assert start + length <= 250


def test_one_segment_too_short_names_minimum():
    with pytest.raises(ValueError, match=str(ONE_SEGMENT_MIN_FRAMES)):
        plan_one_segment(VideoSpec("v", 249), 0)


def test_one_segment_mean_fake_ratio():
    t = 634
    ratios = [plan_one_segment(VideoSpec(f"v{i}", t), i).fake_frames / t for i in range(1000)]
    assert abs(np.mean(ratios) - 150 / t) < 0.02


def test_two_segment_mean_fake_ratio():
    # reusing the one-segment length menu predicts a 300/634 = 0.473 mean
    # ratio at T = 634; the published benchmark reports 0.411 for this mode,
    # a documented consequence of the menu-reuse assumption
    t = 634
    ratios = [plan_two_segments(VideoSpec(f"w{i}", t), i).fake_frames / t for i in range(1000)]
    assert abs(np.mean(ratios) - 300 / t) < 0.02


# -- two-segment planning --


def test_two_segment_rule():
    for seed in range(50):
        plan = plan_two_segments(VideoSpec("v", 668), seed)
        (s1, l1), (s2, l2) = plan.segments
        assert 0 <= s1 < 125
        assert 334 <= s2 < 409
        assert l1 in SEGMENT_LENGTH_MENU and l2 in SEGMENT_LENGTH_MENU
        assert s1 + l1 <= s2
        assert s2 + l2 <= 668


def test_two_segment_extreme_left_plan_is_valid():
    plan = SegmentPlan("v", ((0, 125), (334, 125)))
    m = render_map(plan, 668)
    assert segments_of(m) == [(0, 125), (334, 125)]


def test_two_segment_too_short():
    with pytest.raises(ValueError, match=str(TWO_SEGMENT_MIN_FRAMES)):
        plan_two_segments(VideoSpec("v", 499), 0)


def test_planning_is_deterministic():
    video = VideoSpec("clip42", 700)
    assert plan_one_segment(video, 5) == plan_one_segment(video, 5)
    assert plan_two_segments(video, 5) == plan_two_segments(video, 5)
    assert plan_one_segment(video, 5) != plan_one_segment(video, 6)
    assert plan_one_segment(VideoSpec("other", 700), 5) != plan_one_segment(video, 5)


def test_plan_invariants_fuzz():
    rng = np.random.default_rng(0)
    for i in range(2000):
        if i % 2 == 0:
            t = int(rng.integers(ONE_SEGMENT_MIN_FRAMES, 2000))
            plan = plan_one_segment(VideoSpec(f"f{i}", t), i)
            (start, length), = plan.segments
            assert 0 <= start < t // 2
            assert start + length <= t
        else:
            t = int(rng.integers(TWO_SEGMENT_MIN_FRAMES, 2000))
            plan = plan_two_segments(VideoSpec(f"f{i}", t), i)
            (s1, l1), (s2, l2) = plan.segments
            assert s1 < 125
            assert t // 2 <= s2 < t // 2 + 75
            assert s1 + l1 <= s2
            assert s2 + l2 <= t


def test_length_menu_is_uniform():
    counts = {length: 0 for length in SEGMENT_LENGTH_MENU}
    for i in range(10_000):
        (_, length), = plan_one_segment(VideoSpec(f"u{i}", 1000), 0).segments
        counts[length] += 1
    result = chisquare(list(counts.values()))
    assert result.pvalue > 0.01


def test_fixed_segment_planner():
    (start, length), = plan_fixed_segment(VideoSpec("v", 600), 25, 3).segments
    assert length == 25
    assert 0 <= start <= 575
    with pytest.raises(ValueError):
        plan_fixed_segment(VideoSpec("v", 600), 0, 3)
    with pytest.raises(ValueError):
        plan_fixed_segment(VideoSpec("v", 600), 601, 3)


# -- plan validation and rendering --


def test_segment_plan_rejects_overlap_and_disorder():
    with pytest.raises(ValueError):
        SegmentPlan("v", ((10, 20), (25, 10)))
    with pytest.raises(ValueError):
        SegmentPlan("v", ((50, 10), (10, 10)))
    with pytest.raises(ValueError):
        SegmentPlan("v", ((-1, 10),))
    with pytest.raises(ValueError):
        SegmentPlan("v", ((0, 0),))


def test_render_map_examples():
    assert render_map(SegmentPlan("v", ()), 5).to_text() == "RRRRR\n"
    assert render_map(SegmentPlan("v", ((2, 3),)), 7).to_text() == "RRFFFRR\n"
    assert render_map(SegmentPlan("v", ((0, 2), (4, 2))), 6).to_text() == "FFRRFF\n"
    with pytest.raises(ValueError):
        render_map(SegmentPlan("v", ((5, 3),)), 7)


def test_render_segments_round_trip_idempotent():
    rng = np.random.default_rng(1)
    for i in range(100):
        t = int(rng.integers(ONE_SEGMENT_MIN_FRAMES, 1200))
        plan = plan_one_segment(VideoSpec(f"r{i}", t), i)
        m = render_map(plan, t)
        assert segments_of(m) == list(plan.segments)
        assert render_map(SegmentPlan(plan.video_id, tuple(segments_of(m))), t) == m


# -- statistics --


def test_dataset_stats_single_video():
    stats = dataset_stats([SegmentPlan("a", ((0, 50),))], [VideoSpec("a", 100)])
    assert stats.fake_ratio_one_seg == pytest.approx(0.5)
    assert stats.fake_ratio_two_seg is None
    assert stats.avg_length == pytest.approx(100.0)


def test_dataset_stats_match_rendered_maps():
    rng = np.random.default_rng(2)
    videos, plans = [], []
    for i in range(100):
        t = int(rng.integers(500, 701))
        video = VideoSpec(f"s{i}", t)
        videos.append(video)
        plans.append(plan_one_segment(video, 7) if i % 2 else plan_two_segments(video, 7))
    stats = dataset_stats(plans, videos)

    # independent recomputation from rendered maps
    by_mode = {1: [], 2: []}
    for video, plan in zip(videos, plans):
        m = render_map(plan, video.length_frames)
        by_mode[len(plan.segments)].append(m.fake_ratio)
    assert stats.fake_ratio_one_seg == pytest.approx(np.mean(by_mode[1]))
    assert stats.fake_ratio_two_seg == pytest.approx(np.mean(by_mode[2]))
    assert stats.avg_length == pytest.approx(np.mean([v.length_frames for v in videos]))


def test_dataset_stats_unknown_video():
    with pytest.raises(ValueError, match="unknown video"):
        dataset_stats([SegmentPlan("ghost", ((0, 10),))], [VideoSpec("a", 100)])


def test_published_benchmark_stats_fixture():
    # aggregate row of the benchmark this toolkit mirrors, kept as a format fixture
    stats = DatasetStats(**json.loads((DATA / "benchmark_stats.json").read_text()))
    assert stats.fake_ratio_one_seg == pytest.approx(0.243)
    assert stats.fake_ratio_two_seg == pytest.approx(0.411)
    assert stats.avg_length == pytest.approx(633.9)


# -- plan/video files --


def test_plan_file_round_trip(tmp_path):
    videos = [VideoSpec("a", 600), VideoSpec("b", 700)]
    records = [(v, plan_one_segment(v, 11)) for v in videos]
    path = tmp_path / "plans.jsonl"
    write_plans(path, records)
    assert read_plans(path) == records


def test_video_file_round_trip(tmp_path):
    videos = [VideoSpec("a", 600), VideoSpec("b", 700)]
    path = tmp_path / "videos.jsonl"
    path.write_text('{"id": "a", "length": 600}\n\n{"id": "b", "length": 700}\n')
    assert read_videos(path) == videos


@pytest.mark.parametrize("length", [300.7, True, "320"], ids=repr)
def test_video_and_plan_files_take_an_integer_length_only(tmp_path, length):
    got = re.escape(repr(length))
    videos = tmp_path / "videos.jsonl"
    videos.write_text(f'{{"id": "a", "length": 600}}\n{{"id": "b", "length": {json.dumps(length)}}}\n')
    with pytest.raises(ValueError, match=f"^line 2: length must be an integer, got {got}$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(f'{{"id": "b", "length": {json.dumps(length)}, "segments": [[10, 125]]}}\n')
    with pytest.raises(ValueError, match=f"^line 1: length must be an integer, got {got}$"):
        read_plans(plans)


@pytest.mark.parametrize("length", [0, -5])
def test_a_length_below_one_frame_names_its_line(tmp_path, length):
    videos = tmp_path / "videos.jsonl"
    videos.write_text(f'{{"id": "a", "length": 600}}\n{{"id": "b", "length": {length}}}\n')
    with pytest.raises(ValueError, match="^line 2: length_frames must be positive$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(f'{{"id": "b", "length": {length}, "segments": []}}\n')
    with pytest.raises(ValueError, match="^line 1: length_frames must be positive$"):
        read_plans(plans)


@pytest.mark.parametrize("segments, message", [([[10, 0]], r"invalid segment \(10, 0\)"),
                                               ([[-1, 5]], r"invalid segment \(-1, 5\)"),
                                               ([[50, 20], [10, 5]], "segments must be sorted and non-overlapping")],
                         ids=["empty", "negative-start", "unsorted"])
def test_a_bad_plan_segment_names_the_video(tmp_path, segments, message):
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"id": "a", "length": 600, "segments": [[10, 125]]}\n'
                     + json.dumps({"id": "b", "length": 600, "segments": segments}) + "\n")
    with pytest.raises(ValueError, match=f"^video 'b': {message}$"):
        read_plans(plans)


@pytest.mark.parametrize("segments", [[[10.9, 125]], [[10, 125.0]], [[True, 125]], [["10", 125]], [[10]], [10, 125]],
                         ids=repr)
def test_plan_files_take_integer_segment_bounds_only(tmp_path, segments):
    plans = tmp_path / "plans.jsonl"
    plans.write_text(json.dumps({"id": "a", "length": 600, "segments": segments}) + "\n")
    with pytest.raises(ValueError, match=r"^video 'a': segments must be \[start, length\] integer pairs"):
        read_plans(plans)


def test_a_plan_segment_past_the_end_of_its_video_names_the_video(tmp_path):
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"id": "a", "length": 300, "segments": [[10, 125]]}\n'
                     '{"id": "b", "length": 300, "segments": [[290, 50]]}\n')
    with pytest.raises(ValueError, match=r"^segment \(290, 50\) exceeds video length 300 in plan for 'b'$"):
        read_plans(plans)


@pytest.mark.parametrize("line", ["[1, 2]", "5", '"a"', "null"])
def test_a_line_that_is_not_an_object_is_named(tmp_path, line):
    videos = tmp_path / "videos.jsonl"
    videos.write_text(f'{{"id": "a", "length": 600}}\n{line}\n')
    with pytest.raises(ValueError, match=f"^line 2: expected a JSON object, got {re.escape(repr(json.loads(line)))}$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(f"{line}\n")
    with pytest.raises(ValueError, match="^line 1: expected a JSON object"):
        read_plans(plans)


@pytest.mark.parametrize("obj, missing", [({"length": 600}, "'id'"), ({"id": "b"}, "'length'"), ({}, "'id'")],
                         ids=["no-id", "no-length", "neither"])
def test_a_line_without_an_id_or_a_length_is_named(tmp_path, obj, missing):
    videos = tmp_path / "videos.jsonl"
    videos.write_text(f'{{"id": "a", "length": 600}}\n{json.dumps(obj)}\n')
    with pytest.raises(ValueError, match=f"^line 2: missing key {missing}$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(json.dumps({**obj, "segments": [[10, 125]]}) + "\n")
    with pytest.raises(ValueError, match=f"^line 1: missing key {missing}$"):
        read_plans(plans)


@pytest.mark.parametrize("segments, message", [({}, "missing key 'segments'"),
                                               ({"segments": 5}, "segments must be a list, got 5"),
                                               ({"segments": {"0": 10}}, "segments must be a list, got {'0': 10}")],
                         ids=["missing", "number", "object"])
def test_a_plan_line_without_a_segment_list_is_named(tmp_path, segments, message):
    plans = tmp_path / "plans.jsonl"
    plans.write_text('{"id": "a", "length": 600, "segments": [[10, 125]]}\n'
                     + json.dumps({"id": "b", "length": 600, **segments}) + "\n")
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        read_plans(plans)


def test_a_line_that_is_not_json_is_named(tmp_path):
    videos = tmp_path / "videos.jsonl"
    videos.write_text('{"id": "a", "length": 600}\n\n{"id": "b", "length": 600,}\n')
    with pytest.raises(ValueError, match="^line 3: invalid JSON: "):
        read_videos(videos)


@pytest.mark.parametrize("video_id", [5, "", None, ["a"]], ids=repr)
def test_video_and_plan_files_take_a_non_empty_string_id_only(tmp_path, video_id):
    got = re.escape(repr(video_id))
    videos = tmp_path / "videos.jsonl"
    videos.write_text(f'{{"id": "5", "length": 600}}\n{{"id": {json.dumps(video_id)}, "length": 600}}\n')
    with pytest.raises(ValueError, match=f"^line 2: id must be a non-empty string, got {got}$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(json.dumps({"id": video_id, "length": 600, "segments": [[10, 125]]}) + "\n")
    with pytest.raises(ValueError, match=f"^line 1: id must be a non-empty string, got {got}$"):
        read_plans(plans)


def test_a_repeated_video_id_is_rejected(tmp_path):
    videos = tmp_path / "videos.jsonl"
    videos.write_text('{"id": "a", "length": 600}\n\n{"id": "b", "length": 600}\n{"id": "a", "length": 700}\n')
    with pytest.raises(ValueError, match="^line 4: repeated video id 'a'$"):
        read_videos(videos)
    plans = tmp_path / "plans.jsonl"
    write_plans(plans, [(VideoSpec("a", 600), SegmentPlan("a", ((0, 125),)))] * 2)
    with pytest.raises(ValueError, match="^line 2: repeated video id 'a'$"):
        read_plans(plans)
    with pytest.raises(ValueError, match="^repeated video id 'a'$"):
        dataset_stats([SegmentPlan("a", ((0, 50),))], [VideoSpec("a", 100), VideoSpec("a", 200)])
