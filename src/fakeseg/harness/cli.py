"""Command-line interface.

Exit codes: 0 success, 2 configuration/usage error, 3 stage failure.
Relative --run-dir paths resolve under $FAKESEG_RUN_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from ..checkpoint import load_checkpoint, save_checkpoint
from ..injection import PLANNERS, dataset_stats, read_plans, read_videos, write_plans
from ..segmap import ScoreMap, SegmentationMap
from ..smoothing import SmoothConfig, smooth, smooth_scores
from ..windowing import load_split_features
from .config import ConfigError, load_experiment_config
from .experiment import (
    EvalReport,
    StageError,
    evaluate_maps,
    fit,
    run_experiment,
    score_videos,
    sweep_segment_lengths,
    sweep_window_grid,
    synth_features,
    write_json,
)
from .report import _fmt, write_report_files, write_rows


def _resolve_run_dir(raw: str) -> Path:
    path = Path(raw)
    if not path.is_absolute():
        root = os.environ.get("FAKESEG_RUN_ROOT")
        if root:
            path = Path(root) / path
    return path


@contextmanager
def _reading(path: str | Path):
    """Raise a malformed input file's error as a ValueError that names the file."""
    try:
        yield Path(path)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {detail}") from exc


def _int_list(text: str, least: int) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    if min(values) < least:
        raise argparse.ArgumentTypeError(f"each must be >= {least}, got {text!r}")
    return values


def _probability(text: str) -> float:
    value = float(text)
    if not (0.0 <= value <= 1.0):  # NaN fails too
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {text!r}")
    return value


def _cmd_plan(args) -> int:
    ds = load_experiment_config(args.config).dataset
    with _reading(args.videos):
        videos = read_videos(args.videos)
    planner = PLANNERS[ds.mode]
    records = [(v, planner(v, ds.seed)) for v in videos]
    write_plans(args.out, records)
    if args.stats:
        write_json(args.stats, asdict(dataset_stats([p for _, p in records], videos)))
    print(f"planned {len(records)} videos -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    synth_cfg = load_experiment_config(args.config).dataset.synth
    with _reading(args.plans):
        records = read_plans(args.plans)
    synth_features(records, args.out_dir, synth_cfg)
    print(f"synthesized {len(records)} videos -> {Path(args.out_dir)}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    train_seqs = load_split_features(Path(args.train_dir))
    val_seqs = load_split_features(Path(args.val_dir))
    model, history = fit(cfg.model, cfg.train, train_seqs, val_seqs, cfg.eval.overlap)
    save_checkpoint(args.out, model)
    if args.history:
        write_json(args.history, asdict(history))
    best = history.epochs[history.best_epoch - 1]
    print(
        f"trained {len(history.epochs)} epochs; best epoch {history.best_epoch} "
        f"(val loss {best.val_loss:.4f}, val acc {best.val_accuracy:.4f}) -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    ev = load_experiment_config(args.config).eval
    model = load_checkpoint(args.model)
    if ev.overlap >= model.config.window:
        raise ConfigError(
            f"eval.overlap ({ev.overlap}) in {args.config} must be smaller than the window "
            f"({model.config.window}) of {args.model}"
        )
    seqs = load_split_features(args.features)
    scores = score_videos(model, seqs, ev.overlap, ev.frame_mode, args.out_dir)
    print(f"scored {len(scores)} videos -> {Path(args.out_dir)}")
    return 0


def _cmd_smooth(args) -> int:
    cfg = SmoothConfig(k=args.k)
    with _reading(args.input) as path:
        text = path.read_text(encoding="utf-8")
        if args.threshold is not None:
            result = smooth_scores(ScoreMap.from_json(text), args.threshold, cfg)
        else:
            result = smooth(SegmentationMap.from_text(text), cfg)
    Path(args.output).write_text(result.to_text(), encoding="ascii")
    return 0


def _cmd_eval(args) -> int:
    ev = load_experiment_config(args.config).eval
    gt_dir = Path(args.gt_dir)
    # a run's maps/ directory mixes gt/pred/smooth maps; prefer the gt ones
    paths = sorted(gt_dir.glob("*.gt.map")) or sorted(gt_dir.glob("*.map"))
    gt_maps = {}
    for path in paths:
        vid = path.name.removesuffix(".gt.map").removesuffix(".map")
        with _reading(path):
            gt_maps[vid] = SegmentationMap.from_text(path.read_text(encoding="ascii"))
    score_maps = {}
    for path in sorted(Path(args.scores_dir).glob("*.scores.json")):
        vid = path.name.removesuffix(".scores.json")
        with _reading(path):
            score_maps[vid] = ScoreMap.from_json(path.read_text(encoding="utf-8"))
    report = evaluate_maps(gt_maps, score_maps, ev.threshold, ev.smooth_k)
    write_report_files(report, args.out)
    print(f"evaluated {len(report.per_video)} videos -> {args.out}.json/.txt/.csv")
    return 0


def _cmd_sweep_lengths(args) -> int:
    cfg = load_experiment_config(args.config)
    model = load_checkpoint(args.model)
    rows = sweep_segment_lengths(
        model,
        args.lengths,
        cfg,
        num_videos=args.num_videos,
        video_length=args.video_length,
    )
    write_rows(rows, args.out)
    print(f"swept {len(rows)} segment lengths -> {args.out}.json/.csv")
    return 0


def _cmd_sweep_window(args) -> int:
    cfg = load_experiment_config(args.config)
    rows = sweep_window_grid(cfg, args.windows, args.overlaps)
    write_rows(rows, args.out)
    print(f"swept {len(rows)} window/overlap cells -> {args.out}.json/.csv")
    return 0


def _cmd_report(args) -> int:
    with _reading(args.report) as path:
        report = EvalReport.from_dict(json.loads(path.read_text(encoding="utf-8")))
    write_report_files(report, args.out)
    print(f"rendered report -> {args.out}.json/.txt/.csv")
    return 0


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    run_dir = _resolve_run_dir(args.run_dir)
    report = run_experiment(cfg, run_dir)
    agg = report.aggregate
    print(
        f"run complete: {len(report.per_video)} test videos, "
        f"IoU {agg['iou_raw']:.4f} -> {agg['iou_smoothed']:.4f} after smoothing, "
        f"AUC {_fmt(agg['auc'], 6).strip()}"
    )
    print(f"artifacts in {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fakeseg",
        description="Temporal fake-segment detection toolkit: plan, synthesize, train, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # the one source of experiment settings
    config.add_argument("--config", required=True, help="experiment config JSON")

    p = sub.add_parser("plan", parents=[config], help="plan fake-segment injections for a video list")
    p.add_argument("--videos", required=True, help="JSONL of {id, length}")
    p.add_argument("--out", required=True, help="output plan JSONL")
    p.add_argument("--stats", help="optional dataset stats JSON to write")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("synth", parents=[config], help="synthesize per-frame features from a plan file")
    p.add_argument("--plans", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", parents=[config], help="train a model on feature directories")
    p.add_argument("--train-dir", required=True)
    p.add_argument("--val-dir", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="optional history JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", parents=[config], help="score videos with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="a .feat file or a directory of them")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("smooth", help="majority-vote smooth a map or scores file")
    p.add_argument("--k", type=functools.partial(_int_at_least, least=0), default=7)
    p.add_argument(
        "--threshold",
        type=_probability,
        default=None,
        help="when given, the input is a scores JSON to threshold first",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("eval", parents=[config], help="score predicted frame scores against ground-truth maps")
    p.add_argument("--gt-dir", required=True, help="directory of *.map text files")
    p.add_argument("--scores-dir", required=True, help="directory of *.scores.json files")
    p.add_argument("--out", required=True, help="report path prefix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-lengths", parents=[config], help="IoU/AUC across injected segment lengths")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--lengths", type=functools.partial(_int_list, least=1), required=True, help="comma-separated frame counts"
    )
    p.add_argument("--num-videos", type=functools.partial(_int_at_least, least=1), default=20)
    p.add_argument("--video-length", type=functools.partial(_int_at_least, least=1), default=600)
    p.add_argument("--out", required=True, help="table path prefix")
    p.set_defaults(func=_cmd_sweep_lengths)

    p = sub.add_parser("sweep-window", parents=[config], help="train and score a window/overlap grid")
    p.add_argument("--windows", type=functools.partial(_int_list, least=1), required=True)
    p.add_argument("--overlaps", type=functools.partial(_int_list, least=0), required=True)
    p.add_argument("--out", required=True, help="table path prefix")
    p.set_defaults(func=_cmd_sweep_window)

    p = sub.add_parser("report", help="re-render text/CSV tables from a report JSON")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", parents=[config], help="run the full experiment pipeline from a config")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
