"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json

import numpy as np
import pytest

import fakeseg.smoothing
import run
import tracing
import worker
from fakeseg.harness.experiment import evaluate_maps
from fakeseg.segmap import ScoreMap, SegmentationMap
from tracing import Span


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == spans[0].duration


def test_layer_metrics_on_nested_training_spans():
    spans = [
        Span("training.train", 0.0, 10.0, counts={"epochs": 1}),
        Span("transformer.backward", 1.0, 3.0, parent=0),
        Span("transformer.forward", 1.5, 2.5, parent=1, counts={"windows": 64}),
        Span("training.evaluate", 5.0, 6.0, parent=0),
        Span("transformer.forward", 5.25, 5.75, parent=3, counts={"windows": 16}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["transformer.backward_s"] == 1.0
    assert m["transformer.forward_s"] == 1.5
    assert m["training.evaluate_s"] == 0.5
    assert m["training.optimizer_s"] == 7.0  # 10 - 2 (step) - 1 (validation)
    assert m["training.steps"] == 1 and m["transformer.backward_calls"] == 1
    assert m["training.epochs"] == 1
    assert m["training.step_ms"] == 9000.0  # train minus validation, per step
    assert m["transformer.forward_calls"] == 2 and m["transformer.forward_windows"] == 80
    assert m["transformer.forward_us_per_window"] == pytest.approx(1.5 / 80 * 1e6)
    assert m["smoothing.smooth_s"] == 0 and m["synth.frames"] == 0
    assert set(m) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)


def test_wrapper_sits_where_the_caller_looks_it_up(monkeypatch):
    # smooth_scores calls `smooth` through fakeseg.smoothing's globals
    smoothing = fakeseg.smoothing
    monkeypatch.setattr(smoothing, "smooth", smoothing.smooth)  # restored afterwards
    hook = ("smoothing.smooth", "fakeseg.smoothing", "smooth", tracing._smoothed_frames)
    monkeypatch.setattr(tracing, "HOOKS", (hook,))
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    with tracer.span("iteration"):
        smoothing.smooth_scores(ScoreMap(np.linspace(0, 1, 40)), 0.5, smoothing.SmoothConfig(k=3))
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("iteration", None, {}),
        ("smoothing.smooth", 0, {"frames": 40}),
    ]


def test_missing_function_is_reported_absent_not_raised(monkeypatch):
    hook = ("transformer.backward", "fakeseg.training", "no_such_function", None)
    monkeypatch.setattr(tracing, "HOOKS", (hook,))
    assert tracing.install(tracing.Tracer()) == ["transformer.backward"]
    assert tracing.absent_metrics(["transformer.backward"]) == [
        "training.steps",
        "transformer.backward_calls",
        "transformer.backward_s",
    ]


def test_p95_needs_ten_samples_beyond_it():
    assert run.percentile([float(x) for x in range(300)], 95) == (284.0, 15)
    assert run.tail_percentile([float(x) for x in range(200)], 95) == 189.0
    assert run.tail_percentile([float(x) for x in range(199)], 95) is None
    assert run.tail_percentile([4.2, 4.3], 95) is None
    assert run.percentile([4.2, 4.3, 9.0], 50) == (4.3, 1)


def _iterations(item_ms_per_run):
    its = run.Iterations("score_clips")
    for item_ms in item_ms_per_run:
        its.results.append(
            {
                "traced": False,
                "wall_s": 5.0,
                "frames": 90_000,
                "item_ms": item_ms,
                "peak_rss_mb": 40.0,
                "iou_smoothed": 0.99,
                "auc": 0.999,
            }
        )
    return its


def test_video_p95_falls_back_to_the_median_without_ten_samples_beyond():
    clips = _iterations([[10.0] * 100, [20.0] * 99 + [30.0]])
    values, samples, is_median = run.end_to_end(clips, [1.0, 2.0, 3.0])
    assert (values["video_p95_ms"], samples["video_p95_ms"], is_median) == (20.0, 200, False)
    values, samples, is_median = run.end_to_end(_iterations([[4000.0], [4200.0], [9000.0]]), [1.0])
    assert (values["video_p95_ms"], values["video_p50_ms"]) == (4200.0, 4200.0)
    assert (samples["video_p95_ms"], is_median) == (3, True)
    assert values["frames_per_s"] == 18_000.0 and samples["setup_s"] == 1


def _two_videos():
    labels = np.zeros(300, dtype=np.uint8)
    labels[100:250] = 1
    return {"a": SegmentationMap(labels), "b": SegmentationMap(labels[::-1].copy())}


def test_quality_floor_fires_on_a_bad_score_map():
    gt = _two_videos()
    good = {vid: ScoreMap(0.1 + 0.8 * m.labels) for vid, m in gt.items()}
    inverted = {vid: ScoreMap(0.9 - 0.8 * m.labels) for vid, m in gt.items()}
    assert worker.quality_failures(evaluate_maps(gt, good, 0.5, 7).aggregate) == []
    assert worker.quality_failures(evaluate_maps(gt, inverted, 0.5, 7).aggregate) == [
        "iou_smoothed_floor",
        "auc_floor",
    ]


def test_unscored_videos_names_short_and_missing_score_files(tmp_path):
    from fakeseg.windowing import FeatureSequence, write_features

    for vid in ("a", "b", "c"):
        write_features(tmp_path / f"{vid}.feat", FeatureSequence(vid, np.zeros((5, 2), np.float32)))
    (tmp_path / "a.scores.json").write_text(ScoreMap(np.full(5, 0.5)).to_json())
    (tmp_path / "b.scores.json").write_text(ScoreMap(np.full(4, 0.5)).to_json())
    paths = sorted(tmp_path.glob("*.feat"))
    assert worker.feature_frames(paths[0]) == 5
    assert worker.unscored_videos(paths, tmp_path) == ["b", "c"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
