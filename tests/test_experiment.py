import csv
import dataclasses
import json
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fakeseg import (
    FeatureSequence,
    ScoreMap,
    SegmentationMap,
    SequenceClassifier,
    SmoothConfig,
    TrainConfig,
    TransformerConfig,
    VideoSpec,
    frame_accuracy,
    frame_auc,
    iou,
    load_checkpoint,
    make_windows,
    plan_fixed_segment,
    predict_video,
    read_features,
    smooth_scores,
    synth_video,
    train,
    write_features,
)
from fakeseg.harness import StageError, VideoEval, evaluate_maps, run_experiment, sweep_segment_lengths, sweep_window_grid
from fakeseg.harness.config import parse_experiment_config
from fakeseg.harness.experiment import fit
from fakeseg.injection import read_plans
from fakeseg.training import TrainingDivergedError
from fakeseg.windowing import load_split_features, windows_for_split
from helpers import micro_config_dict


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    cfg = parse_experiment_config(micro_config_dict())
    run_dir = tmp_path_factory.mktemp("run")
    report = run_experiment(cfg, run_dir)
    return cfg, run_dir, report


def test_run_writes_all_artifacts(micro_run):
    _, run_dir, _ = micro_run
    assert (run_dir / "config.json").exists()
    for split in ("train", "val", "test"):
        assert (run_dir / "plans" / f"{split}.jsonl").exists()
        assert list((run_dir / "features" / split).glob("*.feat"))
        assert list((run_dir / "features" / split).glob("*.feat.labels"))
    assert (run_dir / "model.tfkm").exists()
    assert (run_dir / "history.json").exists()
    assert len(list((run_dir / "scores").glob("*.scores.json"))) == 5
    assert len(list((run_dir / "maps").glob("*.gt.map"))) == 5
    assert len(list((run_dir / "maps").glob("*.pred.map"))) == 5
    assert len(list((run_dir / "maps").glob("*.smooth.map"))) == 5
    for suffix in (".json", ".txt", ".csv"):
        assert (run_dir / f"report{suffix}").exists()


def test_report_csv_holds_each_video_eval_under_its_field_names(micro_run):
    _, run_dir, report = micro_run
    with open(run_dir / "report.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == [field.name for field in dataclasses.fields(VideoEval)]
    assert rows == [["" if v is None else str(v) for v in dataclasses.astuple(r)] for r in report.per_video]


def test_report_aggregates_match_recomputation_from_disk(micro_run):
    # cross-module oracle: recompute every metric from the persisted artifacts
    cfg, run_dir, report = micro_run
    data = json.loads((run_dir / "report.json").read_text())
    ious, ious_sm, accs, accs_sm, aucs = [], [], [], [], []
    for row in data["per_video"]:
        vid = row["video_id"]
        gt = SegmentationMap.from_text((run_dir / "maps" / f"{vid}.gt.map").read_text())
        pred = SegmentationMap.from_text((run_dir / "maps" / f"{vid}.pred.map").read_text())
        smoothed = SegmentationMap.from_text((run_dir / "maps" / f"{vid}.smooth.map").read_text())
        scores = ScoreMap.from_json((run_dir / "scores" / f"{vid}.scores.json").read_text())
        assert pred == scores.threshold(cfg.eval.threshold)
        assert smoothed == smooth_scores(scores, cfg.eval.threshold, SmoothConfig(cfg.eval.smooth_k))
        assert row["iou_raw"] == pytest.approx(iou(gt, pred))
        assert row["iou_smoothed"] == pytest.approx(iou(gt, smoothed))
        ious.append(iou(gt, pred))
        ious_sm.append(iou(gt, smoothed))
        accs.append(frame_accuracy(gt, pred))
        accs_sm.append(frame_accuracy(gt, smoothed))
        if row["auc"] is not None:
            aucs.append(row["auc"])
    agg = data["aggregate"]
    assert agg["iou_raw"] == pytest.approx(np.mean(ious))
    assert agg["iou_smoothed"] == pytest.approx(np.mean(ious_sm))
    assert agg["accuracy_raw"] == pytest.approx(np.mean(accs))
    assert agg["accuracy_smoothed"] == pytest.approx(np.mean(accs_sm))
    assert agg["auc"] == pytest.approx(np.mean(aucs))


def test_micro_run_learns_and_reports_video_panel(micro_run):
    _, _, report = micro_run
    assert report.aggregate["iou_smoothed"] > 0.9
    # two all-real and three fake test videos -> video-level AUC is defined
    assert report.video_level["auc"] is not None
    assert report.baseline["expected_random_iou"] == pytest.approx(1 / 3)
    # a well-trained model keeps all-real videos below the 0.5 mean score
    real_rows = [r for r in report.per_video if not r.video_is_fake]
    assert real_rows
    for row in real_rows:
        assert row.video_score < 0.5
        assert row.auc is None  # single-class ground truth


def test_checkpoint_is_loadable(micro_run):
    cfg, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    assert model.config.window == cfg.model.window


def test_zero_separation_run_sits_at_random_baseline(tmp_path):
    data = micro_config_dict(
        dataset={"separation": 0.0, "num_test_videos": 5, "num_real_test_videos": 0,
                 "min_length": 280, "max_length": 320},
        train={"max_epochs": 4},
    )
    cfg = parse_experiment_config(data)
    report = run_experiment(cfg, tmp_path / "run")
    assert abs(report.aggregate["iou_raw"] - 1 / 3) < 0.05
    assert abs(report.aggregate["iou_smoothed"] - 1 / 3) < 0.05


def test_stage_error_names_the_stage(tmp_path):
    data = micro_config_dict(dataset={"features_dir": str(tmp_path / "missing")})
    cfg = parse_experiment_config(data)
    with pytest.raises(StageError, match="train") as err:
        run_experiment(cfg, tmp_path / "run")
    assert err.value.stage == "train"


def test_evaluate_maps_validates_ids():
    gt = {"a": SegmentationMap([0, 1])}
    scores = {"b": ScoreMap([0.5, 0.5])}
    with pytest.raises(ValueError, match="same video ids"):
        evaluate_maps(gt, scores, 0.5, 2)
    # the videos it cannot pair are named
    gt = {"a": SegmentationMap([0, 1]), "b": SegmentationMap([0, 1])}
    scores = {"b": ScoreMap([0.5, 0.5]), "c": ScoreMap([0.5, 0.5])}
    with pytest.raises(ValueError, match=r"no scores for \['a'\], no ground truth for \['c'\]"):
        evaluate_maps(gt, scores, 0.5, 2)
    gt = {"a": SegmentationMap([0, 1, 1]), "b": SegmentationMap([0, 1])}
    scores = {"a": ScoreMap([0.5, 0.5]), "b": ScoreMap([0.5, 0.5])}
    with pytest.raises(ValueError, match="video 'a' has 3 ground-truth frames and 2 scores"):
        evaluate_maps(gt, scores, 0.5, 2)


def test_sweep_segment_lengths(micro_run):
    cfg, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    lengths = [25, 75, 150]
    rows = sweep_segment_lengths(model, lengths, cfg, num_videos=3, video_length=500)
    assert [r["length_frames"] for r in rows] == lengths
    for row in rows:
        assert 0.0 <= row["mean_iou"] <= 1.0
        assert 0.0 <= row["mean_auc"] <= 1.0
        assert row["length_seconds"] == pytest.approx(row["length_frames"] / 25.0)
    with pytest.raises(ValueError, match="positive"):
        sweep_segment_lengths(model, [0], cfg, num_videos=2, video_length=500)
    with pytest.raises(ValueError, match="exceeds"):
        sweep_segment_lengths(model, [600], cfg, num_videos=2, video_length=500)


@pytest.mark.parametrize("lengths", [[100, 700], [100, 0]])
def test_sweep_segment_lengths_checks_every_length_before_it_predicts(micro_run, monkeypatch, lengths):
    from fakeseg.harness import experiment

    cfg, run_dir, _ = micro_run
    calls, predict = [], experiment.predict_video

    def counted(model, seq, *args, **kwargs):
        calls.append(seq.video_id)
        return predict(model, seq, *args, **kwargs)

    monkeypatch.setattr(experiment, "predict_video", counted)
    with pytest.raises(ValueError, match="positive|exceeds"):
        sweep_segment_lengths(load_checkpoint(run_dir / "model.tfkm"), lengths, cfg, num_videos=3, video_length=600)
    assert calls == []


def test_sweep_window_grid(micro_run):
    cfg, run_dir, _ = micro_run
    rows = sweep_window_grid(cfg, run_dir, window_sizes=[2, 3, 5], overlaps=[2, 4])
    assert len(rows) == 6
    by_cell = {(r["window"], r["overlap"]): r for r in rows}
    for cell in ((2, 2), (2, 4), (3, 4)):  # overlap >= window
        assert by_cell[cell]["status"] == "skipped"
    assert by_cell[(5, 4)]["status"] == "ok"
    assert by_cell[(5, 4)]["default"] is True
    assert by_cell[(3, 2)]["default"] is False
    for row in rows:
        if row["status"] == "ok":
            assert 0.0 <= row["mean_iou"] <= 1.0


def test_dotted_report_prefix_appends_suffixes(micro_run, tmp_path):
    from fakeseg.harness.report import write_report_files, write_rows

    _, _, report = micro_run
    write_report_files(report, tmp_path / "report.v2")
    write_rows([{"a": 1}], tmp_path / "grid.v2")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["grid.v2.csv", "grid.v2.json", "report.v2.csv", "report.v2.json", "report.v2.txt"]


def test_sweep_segment_lengths_whole_video_segment(micro_run):
    # a segment covering the whole video leaves a single class: AUC is undefined
    cfg, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    rows = sweep_segment_lengths(model, [100, 300], cfg, num_videos=2, video_length=300)
    assert rows[0]["mean_auc"] is not None
    assert rows[1]["mean_auc"] is None
    assert 0.0 <= rows[1]["mean_iou"] <= 1.0


def _same_bytes(ours, theirs):
    if theirs.is_dir():
        assert sorted(p.name for p in ours.iterdir()) == sorted(p.name for p in theirs.iterdir())
        for child in theirs.iterdir():
            _same_bytes(ours / child.name, child)
    else:
        assert ours.read_bytes() == theirs.read_bytes(), ours.name


def test_stage_commands_reproduce_a_run(tmp_path):
    # the stage commands read every setting from the run's own config.json
    from fakeseg.harness.cli import main

    cfg = parse_experiment_config(micro_config_dict(eval={"threshold": 0.3, "smooth_k": 3, "overlap": 2}))
    run_dir = tmp_path / "run"
    run_experiment(cfg, run_dir)
    config, feats, ours = str(run_dir / "config.json"), run_dir / "features", tmp_path / "stages"
    ours.mkdir()
    videos = ours / "videos.jsonl"
    videos.write_text("".join(json.dumps({"id": v.id, "length": v.length_frames}) + "\n"
                              for v, _ in read_plans(run_dir / "plans" / "train.jsonl")))
    assert main(["plan", "--config", config, "--videos", str(videos), "--out", str(ours / "train.jsonl")]) == 0
    assert main(["synth", "--config", config, "--plans", str(ours / "train.jsonl"),
                 "--out-dir", str(ours / "train")]) == 0
    assert main(["train", "--config", config, "--train-dir", str(ours / "train"),
                 "--val-dir", str(feats / "val"), "--out", str(ours / "model.tfkm"),
                 "--history", str(ours / "history.json")]) == 0
    assert main(["predict", "--config", config, "--model", str(ours / "model.tfkm"),
                 "--features", str(feats / "test"), "--out-dir", str(ours / "scores")]) == 0
    assert main(["eval", "--config", config, "--gt-dir", str(run_dir / "maps"),
                 "--scores-dir", str(ours / "scores"), "--out", str(ours / "report")]) == 0
    _same_bytes(ours / "train.jsonl", run_dir / "plans" / "train.jsonl")
    _same_bytes(ours / "train", feats / "train")
    for name in ("model.tfkm", "history.json", "scores", "report.json"):
        _same_bytes(ours / name, run_dir / name)


def test_sweep_window_grid_fresh_run_dir_holds_features_only(micro_run, tmp_path):
    cfg, run_dir, _ = micro_run
    fresh = tmp_path / "fresh"
    rows = sweep_window_grid(cfg, fresh, window_sizes=[5], overlaps=[4])
    assert sorted(p.name for p in fresh.iterdir()) == ["features", "plans"]
    assert rows == sweep_window_grid(cfg, run_dir, window_sizes=[5], overlaps=[4])


@pytest.mark.parametrize("windows, overlaps, named", [([0, 5], [4], "window 0"), ([5], [4, -1], "overlap -1")])
def test_sweep_window_grid_refuses_an_invalid_size_before_writing(micro_run, tmp_path, windows, overlaps, named):
    cfg, _, _ = micro_run
    with pytest.raises(ValueError, match=named):
        sweep_window_grid(cfg, tmp_path / "fresh", window_sizes=windows, overlaps=overlaps)
    assert not (tmp_path / "fresh").exists()


def _metric_means(model, seqs, overlap, ev):
    """Oracle for a sweep cell: mean unsmoothed IoU, and mean AUC over the
    two-class videos (None if there are none)."""
    ious, aucs = [], []
    for seq in seqs:
        scores = predict_video(model, seq, overlap, mode=ev.frame_mode)
        ious.append(iou(seq.labels, scores.threshold(ev.threshold)))
        if 0 < seq.labels.fake_ratio < 1:
            aucs.append(frame_auc(seq.labels, scores))
    return float(np.mean(ious)), (float(np.mean(aucs)) if aucs else None)


def test_sweep_rows_match_the_metric_means(micro_run):
    cfg, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    rows = sweep_segment_lengths(model, [100, 300], cfg, num_videos=2, video_length=300)
    for row in rows:
        length = row["length_frames"]
        videos = [VideoSpec(f"len{length:05d}_{i:04d}", 300) for i in range(2)]
        seqs = [synth_video(plan_fixed_segment(v, length, cfg.dataset.seed), 300, cfg.dataset.synth)
                for v in videos]
        assert (row["mean_iou"], row["mean_auc"]) == _metric_means(model, seqs, cfg.eval.overlap, cfg.eval)
    assert rows[1]["mean_auc"] is None  # every video is all Fake

    # the default cell trains the run's model again; the test split holds all-real videos
    (cell,) = sweep_window_grid(cfg, run_dir, window_sizes=[5], overlaps=[4])
    seqs = [read_features(p) for p in sorted((run_dir / "features" / "test").glob("*.feat"))]
    assert any(seq.labels.fake_ratio == 0 for seq in seqs)
    assert (cell["mean_iou"], cell["mean_auc"]) == _metric_means(model, seqs, 4, cfg.eval)


def test_sweep_cell_without_videos_raises(micro_run):
    cfg, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    with pytest.raises(ValueError, match="no videos to evaluate"):
        sweep_segment_lengths(model, [50], cfg, num_videos=0, video_length=300)


def test_sweep_window_grid_checks_the_test_split_before_training(micro_run, tmp_path, monkeypatch):
    from fakeseg.harness import experiment

    _, run_dir, _ = micro_run
    feats = tmp_path / "features"
    shutil.copytree(run_dir / "features", feats)
    (feats / "test" / "test0001.feat.labels").unlink()
    cfg = parse_experiment_config(micro_config_dict(dataset={"features_dir": str(feats)}))

    def no_training(*args):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(experiment, "fit", no_training)
    with pytest.raises(ValueError, match="video 'test0001' has no labels"):
        sweep_window_grid(cfg, tmp_path / "sweep", window_sizes=[5], overlaps=[4])


def test_run_reads_the_test_split_again_after_training(micro_run, tmp_path, monkeypatch):
    """The test split is read and checked before training and dropped, so
    training does not hold it; predict reads it again, to the same bytes."""
    from fakeseg.harness import experiment

    cfg, run_dir, _ = micro_run
    test_reads, alive_in_fit = [], []
    read, real_fit = experiment.load_split_features, experiment.fit

    def read_and_watch(split_dir):
        seqs = read(split_dir)
        if Path(split_dir).name == "test":
            test_reads.append(weakref.ref(seqs[0].features.base))  # the split's one buffer
        return seqs

    def fit_and_look(*args):
        alive_in_fit.append([ref() is not None for ref in test_reads])
        return real_fit(*args)

    monkeypatch.setattr(experiment, "load_split_features", read_and_watch)
    monkeypatch.setattr(experiment, "fit", fit_and_look)
    run_experiment(cfg, tmp_path / "run")
    assert alive_in_fit == [[False]] and len(test_reads) == 2
    for name in ("model.tfkm", "report.json", "scores/test0000.scores.json"):
        assert (tmp_path / "run" / name).read_bytes() == (run_dir / name).read_bytes(), name


# -- a split's windows, cut on demand --

_SPLIT_CFG = TransformerConfig(input_dim=3, window=5, num_blocks=1, num_heads=1, head_dim=4,
                               ff_hidden=8, mlp_hidden=(8,))


def _labeled_videos(lengths, dim=3, dtype=np.float32, order="C"):
    videos = []
    for i, frames in enumerate(lengths):
        rng = np.random.default_rng(i)
        feats = rng.standard_normal((frames, dim)).astype(dtype, order=order)
        videos.append(FeatureSequence(f"v{i}", feats, SegmentationMap(rng.integers(0, 2, frames))))
    return videos


def _materialized(seqs, window, overlap):
    """The oracle: every video's `make_windows` materialized, concatenated,
    and each window's center-frame label."""
    cuts = [make_windows(seq, window, overlap) for seq in seqs]
    labels = [seq.labels.labels[cut.starts + window // 2] for seq, cut in zip(seqs, cuts)]
    return np.concatenate([cut[:] for cut in cuts]), np.concatenate(labels)


@pytest.mark.parametrize("overlap", [4, 2, 0])
@pytest.mark.parametrize("dtype, order", [(np.float32, "C"), (np.float64, "C"), (np.float32, "F")])
def test_split_windows_cut_what_make_windows_materializes(overlap, dtype, order):
    seqs = _labeled_videos([7, 5, 9, 6, 12], dtype=dtype, order=order)
    windows, labels = windows_for_split(seqs, _SPLIT_CFG, overlap)
    want, want_labels = _materialized(seqs, 5, overlap)
    assert len(windows) == len(want)
    np.testing.assert_array_equal(labels, want_labels)
    assert labels.dtype == want_labels.dtype
    # the first and last window of every video, the whole split, a shuffle, slices and empty picks
    ends = np.cumsum([len(make_windows(seq, 5, overlap)) for seq in seqs])
    boundary = np.unique(np.concatenate([ends - 1, ends[:-1], [0]]))
    picks = [boundary, np.arange(len(want)), np.random.default_rng(0).permutation(len(want)),
             slice(0, 3), slice(len(want) - 2, len(want) + 64), slice(1, None, 3), slice(4, 4),
             np.empty(0, dtype=np.int64), []]
    for idx in picks:
        got = windows[idx]
        np.testing.assert_array_equal(got, want[idx])
        assert got.dtype == want.dtype and got.shape == want[idx].shape and got.flags.c_contiguous


def test_windows_for_split_holds_the_features_not_their_windows():
    seqs = _labeled_videos([2000] * 20, dim=16)
    feature_bytes = sum(seq.features.nbytes for seq in seqs)
    cfg = dataclasses.replace(_SPLIT_CFG, input_dim=16)
    tracemalloc.start()
    try:
        windows, labels = windows_for_split(seqs, cfg, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == len(labels) == 20 * 1996
    # the materialized windows alone would be 5x the features
    assert peak < 2 * feature_bytes


def test_fit_trains_the_model_train_gives_on_materialized_windows():
    model_cfg = dataclasses.replace(_SPLIT_CFG, dropout=0.1)
    train_cfg = TrainConfig(batch_size=16, learning_rate=1e-3, max_epochs=3, early_stop_patience=1, seed=4)
    train_seqs, val_seqs = _labeled_videos([40, 23, 31]), _labeled_videos([19, 26])
    model, history = fit(model_cfg, train_cfg, train_seqs, val_seqs, 3)
    oracle, oracle_history = train(SequenceClassifier.initialize(model_cfg, seed=train_cfg.seed),
                                   _materialized(train_seqs, 5, 3), _materialized(val_seqs, 5, 3), train_cfg)
    assert model.flat.tobytes() == oracle.flat.tobytes()
    assert history == oracle_history


def test_windows_for_split_cuts_a_read_split_in_place(tmp_path):
    """The split read into one array is the array the windows are cut from."""
    for seq in _labeled_videos([2000] * 20, dim=16):
        write_features(tmp_path / f"{seq.video_id}.feat", seq)
    seqs = load_split_features(tmp_path)
    whole = seqs[0].features.base
    cfg = dataclasses.replace(_SPLIT_CFG, input_dim=16)
    tracemalloc.start()
    try:
        windows, labels = windows_for_split(seqs, cfg, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert windows.features.base is whole
    assert all(np.shares_memory(windows.features, seq.features) for seq in (seqs[0], seqs[-1]))
    # the starts (8 bytes a window) and the labels, not a copy of the features
    assert peak < 0.5 * whole.nbytes, (peak, whole.nbytes)
    want, want_labels = _materialized(seqs, 5, 4)
    np.testing.assert_array_equal(windows[np.arange(len(want))], want)
    np.testing.assert_array_equal(labels, want_labels)


_FIT_PROBE = """
import sys
from pathlib import Path

import numpy as np

from fakeseg import FeatureSequence, SegmentationMap, TrainConfig, TransformerConfig, write_features
from fakeseg.harness.experiment import fit, load_split_features

root = Path(sys.argv[1])
rng = np.random.default_rng(0)
for split, count in (("train", 3), ("val", 1)):
    (root / split).mkdir()
    for i in range(count):
        feats = rng.standard_normal((40, 3), dtype=np.float32)
        write_features(root / split / f"v{i}.feat", FeatureSequence(f"v{i}", feats, SegmentationMap(np.arange(40) % 2)))
model_cfg = TransformerConfig(input_dim=3, window=5, num_blocks=1, num_heads=1, head_dim=4, ff_hidden=8,
                              mlp_hidden=(8,))
splits = [load_split_features(root / split) for split in ("train", "val")]
fit(model_cfg, TrainConfig(batch_size=16, max_epochs=1), *splits, 3)
print("numpy.ma" in sys.modules)
"""


def test_the_train_stage_does_not_import_numpy_ma(tmp_path):
    """numpy.ma adds about 1.2 MB resident; `train` needs one boolean of its labels."""
    proc = subprocess.run(
        [sys.executable, "-c", _FIT_PROBE, str(tmp_path)], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.stdout.strip() == "False"


# -- independent videos fanned out over worker processes --


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.fixture
def forced_fan_out(monkeypatch, tmp_path):
    """Fan out whatever the work, over two workers even on one core; returns
    a call giving the ids of the processes that synthesized or scored a video."""
    from fakeseg.harness import experiment

    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def recorded(fn):
        def call(*args, **kwargs):
            (pid_dir / str(os.getpid())).touch()
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(experiment, "FAN_OUT_WORK", 0)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1})
    for name in ("synth_video", "predict_video"):
        monkeypatch.setattr(experiment, name, recorded(getattr(experiment, name)))

    return lambda: {int(p.name) for p in pid_dir.iterdir()}


def test_a_fanned_out_run_writes_the_serial_bytes(micro_run, forced_fan_out, tmp_path):
    cfg, run_dir, report = micro_run
    fanned = tmp_path / "fanned"
    assert run_experiment(cfg, fanned) == report
    workers = forced_fan_out()
    assert workers and os.getpid() not in workers
    serial, parallel = _tree(run_dir), _tree(fanned)
    assert any(name.endswith(".scores.json") for name in parallel)
    assert any(name.endswith(".feat.labels") for name in parallel)
    assert parallel == serial


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    raise AssertionError("nothing raised")


def test_a_failing_video_raises_what_it_raises_serially(micro_run, forced_fan_out, monkeypatch, tmp_path):
    from fakeseg.harness import experiment

    _, run_dir, _ = micro_run
    model = load_checkpoint(run_dir / "model.tfkm")
    seqs = [read_features(p) for p in sorted((run_dir / "features" / "test").glob("*.feat"))]
    bad = np.array(seqs[3].features)
    bad[7, 1] = np.nan
    seqs[3] = FeatureSequence(seqs[3].video_id, bad, seqs[3].labels)
    seqs[4] = FeatureSequence(seqs[4].video_id, seqs[4].features[:, :4], seqs[4].labels)

    def call():
        return experiment.score_videos(model, seqs, 4, "mean", tmp_path / "scores")

    fanned = _raised(call)
    monkeypatch.setattr(experiment, "FAN_OUT_WORK", float("inf"))
    assert fanned == _raised(call) == (ValueError, f"video {seqs[3].video_id!r} has non-finite features")


def test_fan_out_keeps_input_order_on_one_blas_thread_and_stays_serial_on_one_core(monkeypatch):
    from fakeseg import transformer
    from fakeseg.harness import experiment

    def blas_threads():
        return transformer._OPENBLAS[0]() if transformer._OPENBLAS else 1

    def where(i):
        return i, os.getpid(), blas_threads()

    monkeypatch.setattr(experiment, "FAN_OUT_WORK", 0)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1})
    items = list(range(23))
    fanned = experiment.fan_out(where, items, 1)
    assert [i for i, _, _ in fanned] == items
    assert os.getpid() not in {pid for _, pid, _ in fanned} and {t for _, _, t in fanned} == {1}
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0})
    assert [pid for _, pid, _ in experiment.fan_out(where, items, 1)] == [os.getpid()] * len(items)


_QUICKSTART_PROBE = """
import resource, sys
from fakeseg.harness.config import load_experiment_config
from fakeseg.harness.experiment import run_experiment

run_experiment(load_experiment_config(sys.argv[1]), sys.argv[2])
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules),
      children.ru_utime + children.ru_stime, children.ru_maxrss)
"""


def test_a_quickstart_run_stays_in_one_process(tmp_path):
    """Fanning out its small stages would cost more than it saves."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _QUICKSTART_PROBE, str(root / "configs" / "quickstart.json"), str(tmp_path / "run")],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.stdout.split() == ["[]", "0.0", "0"]


@pytest.mark.parametrize("cause", [ValueError("bad feature file"), TrainingDivergedError("gradient", 2, 9)])
def test_a_stage_error_survives_pickle(cause):
    """A stage failure raised in a worker process reaches the caller by pickle."""
    err = StageError("train", cause)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is StageError
    assert str(back) == str(err) == f"stage 'train' failed: {cause}"
    assert back.stage == "train"
