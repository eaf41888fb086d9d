"""One set-up or one measured iteration, run in a process of its own.

    python3 perfbench/worker.py setup <inputs_dir> <seed> <result.json>
    python3 perfbench/worker.py <workload> <inputs_dir> <out_dir> <trace 0|1> <result.json>

`run.py` starts one worker per set-up and per iteration, so the peak
resident size it reads for a worker belongs to that one iteration. The
worker times its own work (imports excluded), runs the correctness checks
after the timed region and writes its result as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import struct
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
QUICKSTART_CONFIG = ROOT / "configs" / "quickstart.json"

NUM_CLIPS = 300
CLIP_FRAMES = 300  # 300 clips x 300 frames = 90,000 frames: one hour at 25 fps
IOU_FLOOR = 0.95  # the quality floors of acceptance criterion 5
AUC_FLOOR = 0.98


def _quickstart_config():
    """Import fakeseg from this checkout and load the quickstart config.

    Every module an iteration uses is imported here, before any timing.
    """
    import fakeseg

    src = (ROOT / "src").resolve()
    if src not in Path(fakeseg.__file__).resolve().parents:
        raise RuntimeError(f"imported fakeseg from {fakeseg.__file__}, not from {src}")
    import fakeseg.harness.report  # noqa: F401
    from fakeseg.harness.config import load_experiment_config

    return load_experiment_config(QUICKSTART_CONFIG)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def quality_failures(aggregate: dict) -> list[str]:
    """Names of the quality floors that an EvalReport aggregate misses."""
    failed = []
    if aggregate["iou_smoothed"] is None or aggregate["iou_smoothed"] < IOU_FLOOR:
        failed.append("iou_smoothed_floor")
    if aggregate["auc"] is None or aggregate["auc"] < AUC_FLOOR:
        failed.append("auc_floor")
    return failed


def feature_frames(path: Path) -> int:
    """Frame count from a TFKF feature file header."""
    with open(path, "rb") as fh:
        _, _, t, _ = struct.unpack("<4sIII", fh.read(16))
    return t


def unscored_videos(feature_paths: list[Path], scores_dir: Path) -> list[str]:
    """Videos whose scores file is missing or has not one score per frame."""
    bad = []
    for path in feature_paths:
        scores = scores_dir / f"{path.stem}.scores.json"
        count = len(json.loads(scores.read_text())["scores"]) if scores.exists() else None
        if count != feature_frames(path):
            bad.append(path.stem)
    return bad


def setup(inputs: Path, seed: int) -> dict:
    """Train the quickstart model and write the seed's clips.

    Each clip gets its own one-segment plan.
    """
    cfg = _quickstart_config()
    from fakeseg.harness.experiment import run_experiment
    from fakeseg.injection import VideoSpec, plan_one_segment
    from fakeseg.synth import SynthConfig, synth_video
    from fakeseg.windowing import write_features

    ds = cfg.dataset
    synth_cfg = SynthConfig(
        dim=ds.feature_dim,
        separation=ds.separation,
        temporal_rho=ds.temporal_rho,
        noise_std=ds.noise_std,
        seed=seed,
    )
    t0 = perf_counter()
    run_experiment(cfg, inputs / "quickstart")
    (inputs / "clips").mkdir()
    for i in range(NUM_CLIPS):
        video = VideoSpec(id=f"clip{i:04d}", length_frames=CLIP_FRAMES)
        seq = synth_video(plan_one_segment(video, seed), CLIP_FRAMES, synth_cfg)
        write_features(inputs / "clips" / f"{video.id}.feat", seq)
    setup_s = perf_counter() - t0
    return {"setup_s": setup_s, "digest": tree_digest(inputs)}


# -- the measured iteration --


def _quickstart(cfg, out: Path):
    from fakeseg.harness import experiment

    report = experiment.run_experiment(cfg, out)
    return report, [], sorted((out / "features" / "test").glob("*.feat"))


def _score(cfg, inputs: Path, out: Path):
    """The predict and eval stages of run_experiment, from a saved checkpoint.

    Functions are looked up on the modules run_experiment takes them from,
    so a traced iteration sees the same call sites.
    """
    from fakeseg import checkpoint
    from fakeseg.harness import experiment
    from fakeseg.harness import report as report_files

    ev = cfg.eval
    model = checkpoint.load_checkpoint(inputs / "quickstart" / "model.tfkm")
    scores_dir, maps_dir = out / "scores", out / "maps"
    scores_dir.mkdir(parents=True)
    maps_dir.mkdir()
    smoother = experiment.SmoothConfig(k=ev.smooth_k)
    gt_maps, score_maps, video_ms = {}, {}, []
    paths = sorted((inputs / "clips").glob("*.feat"))
    for path in paths:
        v0 = perf_counter()
        seq = experiment.read_features(path)
        scores = experiment.predict_video(model, seq, ev.overlap, mode=ev.frame_mode)
        gt_maps[seq.video_id] = seq.labels
        score_maps[seq.video_id] = scores
        (scores_dir / f"{seq.video_id}.scores.json").write_text(
            scores.to_json() + "\n", encoding="utf-8"
        )
        (maps_dir / f"{seq.video_id}.pred.map").write_text(
            scores.threshold(ev.threshold).to_text(), encoding="ascii"
        )
        (maps_dir / f"{seq.video_id}.smooth.map").write_text(
            experiment.smooth_scores(scores, ev.threshold, smoother).to_text(), encoding="ascii"
        )
        video_ms.append(1e3 * (perf_counter() - v0))
    report = experiment.evaluate_maps(gt_maps, score_maps, ev.threshold, ev.smooth_k)
    report_files.write_report_files(report, out / "report")
    return report, video_ms, paths


def iterate(workload: str, inputs: Path, out: Path, trace: bool) -> dict:
    """Run one iteration of `workload` into the fresh directory `out`."""
    cfg = _quickstart_config()
    tracer, absent = None, []
    if trace:
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
    if workload == "quickstart":
        run = functools.partial(_quickstart, cfg, out)
    else:
        run = functools.partial(_score, cfg, inputs, out)

    t0 = perf_counter()
    with tracer.span("iteration") if tracer else contextlib.nullcontext():
        report, item_ms, videos = run()
    wall_s = perf_counter() - t0

    if workload == "quickstart":
        # a run is the unit of work; the frames are all the frames it synthesized
        item_ms = [1e3 * wall_s]
        frames = sum(feature_frames(p) for p in (out / "features").rglob("*.feat"))
    else:
        frames = sum(feature_frames(p) for p in videos)
    result = {
        "wall_s": wall_s,
        "item_ms": item_ms,
        "items": len(item_ms),
        "frames": frames,
        "iou_smoothed": report.aggregate["iou_smoothed"],
        "auc": report.aggregate["auc"],
        "failed_checks": quality_failures(report.aggregate),
        "unscored_videos": unscored_videos(videos, out / "scores"),
        "digest": tree_digest(out),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["absent"] = tracing.absent_metrics(absent)
        result["spans"] = tracer.to_json()
    return result


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        inputs, seed, result_path = argv[1:]
        result = setup(Path(inputs), int(seed))
    else:
        workload, inputs, out, trace, result_path = argv
        result = iterate(workload, Path(inputs), Path(out), trace == "1")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
