"""End-to-end experiment pipeline: plan, synthesize, train, predict, score.

Every stage persists its artifacts under the run directory, so a finished
run is self-describing and a rerun with the same config and seeds rewrites
every file byte-identically:

    run_dir/
      config.json            resolved experiment configuration
      plans/{train,val,test}.jsonl
      features/{train,val,test}/<id>.feat (+ .labels)
      model.tfkm             best-validation checkpoint
      history.json           per-epoch training curves
      scores/<id>.scores.json
      maps/<id>.{gt,pred,smooth}.map
      report.{json,txt,csv}

`run_experiment` composes the stage functions below, which the CLI and the
sweeps call too. A failing stage aborts with the stage name; artifacts
written so far stay in place for inspection.
"""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..checkpoint import save_checkpoint
from ..injection import PLANNERS, SegmentPlan, VideoSpec, plan_fixed_segment, write_plans
from ..metrics import BaselineParams, expected_iou_baseline, frame_accuracy, frame_auc, iou, video_label, video_score
from ..prng import stream_for
from ..segmap import FrameLabel, ScoreMap, SegmentationMap
from ..smoothing import SmoothConfig, smooth_scores
from ..synth import SynthConfig, synth_video
from ..training import TrainConfig, TrainHistory, predict_video, train
from ..transformer import SequenceClassifier, TransformerConfig, limit_blas_threads
from ..windowing import FeatureSequence, check_features, load_split_features, windows_for_split, write_features
from ..windowing import make_windows, read_features  # noqa: F401 - names the frozen perfbench/ hooks and calls
from .config import EvalConfig, ExperimentConfig

SPLITS = ("train", "val", "test")
ASSUMED_FPS = 25.0  # frame<->seconds conversion used in sweep reports


class StageError(RuntimeError):
    """A pipeline stage failed (CLI exit code 3)."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):  # pickle rebuilds through __init__, which takes more than the message
        return type(self), (self.stage, self.cause)


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as StageError(name)."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


# -- fan-out of independent videos --

# Work below which `fan_out` stays serial, in frames scored: starting a pool
# costs about 35-45 ms (imports and forks). On 2 SkylakeX cores, 2 workers
# scored 300-frame clips as fast as serially at about 12,000 frames in all
# and 1.26x faster at 24,000; synthesis broke even at about 55,000 frames,
# which cost about as much as 14,000 scored ones.
FAN_OUT_WORK = 20_000
SYNTH_WORK = 0.25  # the work of synthesizing a frame, in frames scored

_job: tuple[Callable, Sequence] | None = None  # set in each worker process only


def _start_worker(fn: Callable, items: Sequence) -> None:
    global _job
    _job = fn, items
    limit_blas_threads(1)  # the cores are the workers'


def _run_item(i: int):
    fn, items = _job
    return fn(items[i])


def fan_out(fn: Callable, items: Sequence, work: float) -> list:
    """`[fn(item) for item in items]`, over forked worker processes on one
    BLAS thread each once `work` (see FAN_OUT_WORK) is large enough.

    There are at most as many workers as items and this process's cores;
    with one core (`taskset -c 0`) it stays serial. Workers are forked, so
    they import nothing and read `fn` and the items (the model, the
    features) copy-on-write; the results come back pickled, in input order. The first item that fails in input order raises its exception,
    as it would serially (items after it may have run)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(items))
    if workers < 2 or work < FAN_OUT_WORK:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (fn, items))
    try:
        return list(pool.map(_run_item, range(len(items)), chunksize=max(1, len(items) // (4 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class VideoEval:
    """Metrics for one test video, before and after smoothing."""

    video_id: str
    fake_ratio: float
    iou_raw: float
    iou_smoothed: float
    accuracy_raw: float
    accuracy_smoothed: float
    auc: float | None
    video_score: float
    video_is_fake: bool


@dataclass(frozen=True)
class EvalReport:
    """Per-video and aggregate frame metrics plus the video-level panel."""

    per_video: tuple[VideoEval, ...]
    aggregate: dict[str, float | None]
    video_level: dict[str, float | None]
    baseline: dict[str, float]
    threshold: float
    smooth_k: int

    def __post_init__(self):
        if not self.per_video:
            raise ValueError("report has no videos")

    def to_dict(self) -> dict[str, Any]:
        return {**dataclasses.asdict(self), "num_videos": len(self.per_video)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EvalReport":
        """Inverse of `to_dict`, e.g. for a report JSON read back from disk."""
        fields = {f.name: data[f.name] for f in dataclasses.fields(cls)}
        fields["per_video"] = tuple(VideoEval(**row) for row in fields["per_video"])
        return cls(**fields)


def evaluate_maps(
    gt_maps: dict[str, SegmentationMap],
    score_maps: dict[str, ScoreMap],
    threshold: float,
    smooth_k: int,
) -> EvalReport:
    """Score predicted frame scores against ground-truth maps.

    Per-video AUC is None for single-class videos; the aggregate AUC
    averages the defined values. The analytic random-guess IoU for the
    observed Real ratio at p = 0.5 is reported as the baseline.
    """
    if set(gt_maps) != set(score_maps):
        raise ValueError(
            "ground-truth and score maps must cover the same video ids: "
            f"no scores for {sorted(set(gt_maps) - set(score_maps))}, "
            f"no ground truth for {sorted(set(score_maps) - set(gt_maps))}"
        )
    if not gt_maps:
        raise ValueError("no videos to evaluate")
    cfg = SmoothConfig(k=smooth_k)
    rows = []
    for vid in sorted(gt_maps):
        gt, scores = gt_maps[vid], score_maps[vid]
        if len(gt) != len(scores):
            raise ValueError(f"video {vid!r} has {len(gt)} ground-truth frames and {len(scores)} scores")
        pred_raw = scores.threshold(threshold)
        pred_smooth = smooth_scores(scores, threshold, cfg)
        try:
            auc = frame_auc(gt, scores)
        except ValueError:
            auc = None
        rows.append(
            VideoEval(
                video_id=vid,
                fake_ratio=gt.fake_ratio,
                iou_raw=iou(gt, pred_raw),
                iou_smoothed=iou(gt, pred_smooth),
                accuracy_raw=frame_accuracy(gt, pred_raw),
                accuracy_smoothed=frame_accuracy(gt, pred_smooth),
                auc=auc,
                video_score=video_score(scores),
                video_is_fake=gt.fake_ratio > 0,
            )
        )

    def mean(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    aggregate = {
        "iou_raw": mean(r.iou_raw for r in rows),
        "iou_smoothed": mean(r.iou_smoothed for r in rows),
        "accuracy_raw": mean(r.accuracy_raw for r in rows),
        "accuracy_smoothed": mean(r.accuracy_smoothed for r in rows),
        "auc": mean(r.auc for r in rows),
    }

    video_gt = np.array([r.video_is_fake for r in rows])
    vid_scores = np.array([r.video_score for r in rows])
    video_pred = np.array([video_label(score_maps[r.video_id], threshold) for r in rows]) == FrameLabel.FAKE
    video_level: dict[str, float | None] = {
        "accuracy": float((video_pred == video_gt).mean()),
        "auc": None,
    }
    if 0 < video_gt.sum() < len(video_gt):
        video_level["auc"] = frame_auc(SegmentationMap(video_gt), ScoreMap(vid_scores))

    mean_fake = float(np.mean([r.fake_ratio for r in rows]))
    baseline = {
        "mean_fake_ratio": mean_fake,
        "expected_random_iou": expected_iou_baseline(BaselineParams(f=1.0 - mean_fake, p=0.5)),
    }
    return EvalReport(
        per_video=tuple(rows),
        aggregate=aggregate,
        video_level=video_level,
        baseline=baseline,
        threshold=threshold,
        smooth_k=smooth_k,
    )


# -- pipeline stages --


def write_json(path: str | Path, obj: Any, indent: int | None = None) -> None:
    """Write `obj` as JSON with sorted keys and a trailing newline, streamed
    into the file rather than built as one string first."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def _make_videos(cfg: ExperimentConfig) -> dict[str, list[tuple[VideoSpec, SegmentPlan]]]:
    """Every split's videos with their plans; all-real test videos come last."""
    ds = cfg.dataset
    planner = PLANNERS[ds.mode]
    counts = {"train": ds.num_train_videos, "val": ds.num_val_videos, "test": ds.num_test_videos}
    jobs = [(split, f"{split}{i:04d}", planner) for split, n in counts.items() for i in range(n)]
    jobs += [("test", f"testreal{i:04d}", None) for i in range(ds.num_real_test_videos)]
    out: dict[str, list[tuple[VideoSpec, SegmentPlan]]] = {split: [] for split in SPLITS}
    for split, vid, plan_fn in jobs:
        length = stream_for(ds.seed, "length/" + vid).randrange(ds.min_length, ds.max_length + 1)
        video = VideoSpec(id=vid, length_frames=length)
        out[split].append((video, plan_fn(video, ds.seed) if plan_fn else SegmentPlan(vid, ())))
    return out


def synth_features(
    records: Iterable[tuple[VideoSpec, SegmentPlan]], out_dir: str | Path, synth_cfg: SynthConfig
) -> None:
    """Synthesize each planned video and write it as `out_dir/<id>.feat` (+ labels)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = list(records)

    def synth(record: tuple[VideoSpec, SegmentPlan]) -> None:
        video, plan = record
        write_features(out_dir / f"{video.id}.feat", synth_video(plan, video.length_frames, synth_cfg))

    fan_out(synth, records, SYNTH_WORK * sum(video.length_frames for video, _ in records))


def materialize_features(cfg: ExperimentConfig, run_dir: Path) -> Path:
    """The plan and synth stages: write `plans/` and `features/` under
    `run_dir` and return the features root. A config that names an
    existing `features_dir` skips both stages and returns that directory.
    """
    if cfg.dataset.features_dir is not None:
        return Path(cfg.dataset.features_dir)
    with _stage("plan"):
        split_records = _make_videos(cfg)
        plans_dir = run_dir / "plans"
        plans_dir.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            write_plans(plans_dir / f"{split}.jsonl", split_records[split])
    with _stage("synth"):
        for split in SPLITS:
            synth_features(split_records[split], run_dir / "features" / split, cfg.dataset.synth)
    return run_dir / "features"


def fit(
    model_cfg: TransformerConfig,
    train_cfg: TrainConfig,
    train_seqs: Iterable[FeatureSequence],
    val_seqs: Iterable[FeatureSequence],
    overlap: int,
) -> tuple[SequenceClassifier, TrainHistory]:
    """The train stage: check and window both splits, initialize a model and train it."""
    train_set = windows_for_split(train_seqs, model_cfg, overlap)
    val_set = windows_for_split(val_seqs, model_cfg, overlap)
    model = SequenceClassifier.initialize(model_cfg, seed=train_cfg.seed)
    return train(model, train_set, val_set, train_cfg)


def score_videos(
    model: SequenceClassifier,
    seqs: Iterable[FeatureSequence],
    overlap: int,
    mode: str,
    scores_dir: str | Path,
) -> dict[str, ScoreMap]:
    """The predict stage: frame scores per video, written to `scores_dir/<id>.scores.json`."""
    scores_dir = Path(scores_dir)
    scores_dir.mkdir(parents=True, exist_ok=True)
    seqs = list(seqs)

    def score(seq: FeatureSequence) -> ScoreMap:
        scores = predict_video(model, seq, overlap, mode=mode)
        (scores_dir / f"{seq.video_id}.scores.json").write_text(scores.to_json() + "\n", encoding="utf-8")
        return scores

    score_maps = fan_out(score, seqs, sum(seq.num_frames for seq in seqs))
    return {seq.video_id: scores for seq, scores in zip(seqs, score_maps)}


def run_experiment(cfg: ExperimentConfig, run_dir: str | Path) -> EvalReport:
    """Execute the full pipeline under `run_dir` and return the report."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", dataclasses.asdict(cfg), indent=2)
    ev = cfg.eval
    features_root = materialize_features(cfg, run_dir)

    with _stage("train"):
        train_seqs, val_seqs = (load_split_features(features_root / s) for s in ("train", "val"))
        # a bad test video fails here, before a model is written; the split
        # is read again for predict rather than held through training
        check_features(load_split_features(features_root / "test"), cfg.model, labeled=True)
        model, history = fit(cfg.model, cfg.train, train_seqs, val_seqs, ev.overlap)
        del train_seqs, val_seqs
        save_checkpoint(run_dir / "model.tfkm", model)
        write_json(run_dir / "history.json", dataclasses.asdict(history))

    with _stage("predict"):
        test_seqs = load_split_features(features_root / "test")
        gt_maps = {seq.video_id: seq.labels for seq in test_seqs}
        score_maps = score_videos(model, test_seqs, ev.overlap, ev.frame_mode, run_dir / "scores")
        maps_dir = run_dir / "maps"
        maps_dir.mkdir(exist_ok=True)
        smoother = SmoothConfig(k=ev.smooth_k)
        for vid, scores in score_maps.items():
            pred = scores.threshold(ev.threshold)
            smoothed = smooth_scores(scores, ev.threshold, smoother)
            for kind, smap in (("gt", gt_maps[vid]), ("pred", pred), ("smooth", smoothed)):
                (maps_dir / f"{vid}.{kind}.map").write_text(smap.to_text(), encoding="ascii")

    with _stage("eval"):
        report = evaluate_maps(gt_maps, score_maps, ev.threshold, ev.smooth_k)
        from .report import write_report_files

        write_report_files(report, run_dir / "report")
    return report


# -- sweeps --


def _sweep_cell(
    model: SequenceClassifier, seqs: Iterable[FeatureSequence], overlap: int, ev: EvalConfig
) -> dict[str, float | None]:
    """Mean unsmoothed IoU and AUC from `evaluate_maps` (AUC None if every video is single-class)."""
    gt_maps, score_maps = {}, {}
    for seq in seqs:
        gt_maps[seq.video_id] = seq.labels
        score_maps[seq.video_id] = predict_video(model, seq, overlap, mode=ev.frame_mode)
    aggregate = evaluate_maps(gt_maps, score_maps, ev.threshold, 0).aggregate
    return {"mean_iou": aggregate["iou_raw"], "mean_auc": aggregate["auc"]}


def sweep_segment_lengths(
    model: SequenceClassifier,
    lengths: Iterable[int],
    cfg: ExperimentConfig,
    num_videos: int = 20,
    video_length: int = 600,
) -> list[dict[str, Any]]:
    """Mean IoU/AUC per injected segment length, without smoothing.

    For each length, `num_videos` fresh synthetic test videos receive one
    segment of exactly that length at a uniformly random feasible start.
    Lengths are in frames; the reported seconds assume 25 fps. A segment
    as long as the video leaves no Real frame, so its AUC is None.
    Raises ValueError, before any cell, for a length < 1 or > `video_length`.
    """
    lengths = list(lengths)
    if any(length < 1 for length in lengths):
        raise ValueError("segment lengths must be positive")
    if max(lengths, default=0) > video_length:
        raise ValueError(f"segment length {max(lengths)} exceeds video length {video_length}")
    synth_cfg, seed = cfg.dataset.synth, cfg.dataset.seed
    rows = []
    for length in lengths:
        plans = (
            plan_fixed_segment(VideoSpec(f"len{length:05d}_{i:04d}", video_length), length, seed)
            for i in range(num_videos)
        )
        seqs = (synth_video(plan, video_length, synth_cfg) for plan in plans)
        rows.append(
            {
                "length_frames": int(length),
                "length_seconds": length / ASSUMED_FPS,
                **_sweep_cell(model, seqs, cfg.eval.overlap, cfg.eval),
            }
        )
    return rows


def sweep_window_grid(
    cfg: ExperimentConfig,
    run_dir: str | Path,
    window_sizes: Iterable[int],
    overlaps: Iterable[int],
) -> list[dict[str, Any]]:
    """Train one desk-scale model per (window, overlap) cell and score it.

    A fresh run dir gets only `plans/` and `features/` (see
    `materialize_features`). Cells with overlap >= window are emitted with
    status "skipped". Valid cells report frame-level IoU (unsmoothed) and
    AUC on the test split; the default geometry (window 5, overlap 4) is flagged.
    Raises ValueError, before writing anything, for a window < 1 or an overlap < 0.
    """
    window_sizes, overlaps = list(window_sizes), list(overlaps)
    bad = [f"window {w}" for w in window_sizes if w < 1] + [f"overlap {o}" for o in overlaps if o < 0]
    if bad:
        raise ValueError(f"sweep windows must be >= 1 and overlaps >= 0, got {', '.join(bad)}")
    run_dir = Path(run_dir)
    features_root = run_dir / "features"
    if cfg.dataset.features_dir is not None or not (features_root / "train").exists():
        features_root = materialize_features(cfg, run_dir)
    split_seqs = {s: load_split_features(features_root / s) for s in SPLITS}
    min_frames = min(seq.num_frames for seqs in split_seqs.values() for seq in seqs)

    rows = []
    for w in window_sizes:
        for o in overlaps:
            cell: dict[str, Any] = {
                "window": int(w),
                "overlap": int(o),
                "default": (w, o) == (5, 4),
            }
            if o >= w or w > min_frames:
                cell["status"] = "skipped"
            else:
                model_cfg = dataclasses.replace(cfg.model, window=int(w))
                test_seqs = check_features(split_seqs["test"], model_cfg, labeled=True)
                model, _ = fit(model_cfg, cfg.train, split_seqs["train"], split_seqs["val"], o)
                cell.update(status="ok", **_sweep_cell(model, test_seqs, o, cfg.eval))
            rows.append(cell)
    return rows
