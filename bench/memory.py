"""Memory and time of synth and predict on long videos, and memory of
training on an hour of frames, written to the next BENCH_<n>.json.

    python bench/memory.py

It measures the fakeseg in this checkout's `src/`, with the quickstart
architecture (`configs/quickstart.json`) at its seed-0 initialisation and
the quickstart `eval.overlap` and `eval.frame_mode`; memory and time of
predict do not depend on trained weights. It records:

  synth_rss_mb        peak resident size (`ru_maxrss`) of a fresh process that
                      runs `synth_video` on one T-frame video (the quickstart
                      generator, one fake segment), with the SHA-256 of the
                      features.
  predict_rss_mb      peak resident size (`ru_maxrss`) of a fresh process that
                      reads a T-frame `.feat` file with `read_features` and
                      runs `predict_video` on it, with the SHA-256 of the
                      scores; the file (random float32 features) is written
                      by a separate process first.
  train_rss_mb        peak resident size of a fresh process that reads a
                      train split of 100 videos of 900 labeled frames (an
                      hour at 25 fps) and a val split of 25 such videos, and
                      runs one epoch of `fit` with the quickstart model and
                      train settings; `fit_rise_mb` is how far `fit` lifts
                      the peak above the read features. With the SHA-256 of
                      the trained parameters. The synthesized files (the
                      quickstart generator, one fake segment per video) are
                      written by a separate process first.
  forward_peak_mib    tracemalloc peak of one warm batch-256 forward, with
                      and without the cache.
  predict_s           `predict_video` wall time in this process: median and
                      interquartile range of repeated runs.
  synth_s             the same for `synth_video` (as in synth_rss_mb).
  environment         Python and numpy versions, core count, git revision,
                      and the OpenBLAS kernel and thread count; both timings
                      and score bytes depend on the kernel.

The result goes to BENCH_<n>.json at the repository root, n one past the
highest there.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fakeseg.harness.config import load_experiment_config  # noqa: E402
from fakeseg.harness.experiment import fit, load_split_features, synth_features  # noqa: E402
from fakeseg.injection import VideoSpec, plan_one_segment  # noqa: E402
from fakeseg.synth import synth_video  # noqa: E402
from fakeseg.training import predict_video  # noqa: E402
from fakeseg.transformer import SequenceClassifier, forward_with_cache  # noqa: E402
from fakeseg.windowing import FeatureSequence, read_features, write_features  # noqa: E402

QUICKSTART = ROOT / "configs" / "quickstart.json"
RSS_FRAMES = (90_000, 450_000)
TIME_FRAMES = 90_000
REPEATS = 7
FORWARD_BATCH = 256
TRAIN_VIDEOS = (100, 900)  # train videos and frames per video; the val split has a quarter as many videos


def _quickstart_model():
    cfg = load_experiment_config(QUICKSTART)
    return SequenceClassifier.initialize(cfg.model, seed=0), cfg.eval


def _features(frames: int, dim: int) -> FeatureSequence:
    rng = np.random.default_rng(frames)
    return FeatureSequence("long", rng.standard_normal((frames, dim), dtype=np.float32))


def _synth_args(frames: int) -> tuple:
    """`synth_video`'s arguments for one quickstart-generator video of `frames` frames with one fake segment."""
    cfg = load_experiment_config(QUICKSTART).dataset
    return plan_one_segment(VideoSpec("long", frames), cfg.seed), frames, cfg.synth


def _synth_child(frames: int) -> None:
    features = synth_video(*_synth_args(frames)).features
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(json.dumps({"peak_mb": peak_mb, "features_sha256": hashlib.sha256(features.tobytes()).hexdigest()}))


def _write_child(path: str, frames: int) -> None:
    model, _ = _quickstart_model()
    write_features(path, _features(frames, model.config.input_dim))


def _predict_child(path: str) -> None:
    model, ev = _quickstart_model()
    scores = predict_video(model, read_features(path), ev.overlap, mode=ev.frame_mode).scores
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(json.dumps({"peak_mb": peak_mb, "scores_sha256": hashlib.sha256(scores.tobytes()).hexdigest()}))


def _write_train_child(root: str, videos: int, frames: int) -> None:
    cfg = load_experiment_config(QUICKSTART)
    for split, count in (("train", videos), ("val", max(1, videos // 4))):
        specs = [VideoSpec(f"{split}{i:04d}", frames) for i in range(count)]
        records = [(v, plan_one_segment(v, cfg.dataset.seed)) for v in specs]
        synth_features(records, Path(root) / split, cfg.dataset.synth)


def _fit_child(root: str) -> None:
    cfg = load_experiment_config(QUICKSTART)
    train_seqs = load_split_features(Path(root) / "train")
    val_seqs = load_split_features(Path(root) / "val")
    before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    one_epoch = dataclasses.replace(cfg.train, max_epochs=1)
    model, _ = fit(cfg.model, one_epoch, train_seqs, val_seqs, cfg.eval.overlap)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(model.flat.tobytes()).hexdigest()
    print(json.dumps({"peak_mb": peak_mb, "fit_rise_mb": peak_mb - before_mb, "model_sha256": digest}))


def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args], capture_output=True, text=True, check=True
    )
    return proc.stdout


def synth_rss(frames: int) -> dict:
    """Peak RSS of a fresh process that synthesizes one `frames`-frame video."""
    return json.loads(_child("synth", str(frames)))


def predict_rss(frames: int) -> dict:
    """Peak RSS of a fresh read-and-predict process on a `frames`-frame file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "long.feat")
        _child("write", path, str(frames))
        return json.loads(_child("predict", path))


def train_rss(videos: int, frames: int) -> dict:
    """Peak RSS of a fresh process that reads `videos` x `frames` training
    frames (and a quarter as many val videos) and trains one epoch on them."""
    with tempfile.TemporaryDirectory() as tmp:
        _child("write-train", tmp, str(videos), str(frames))
        result = json.loads(_child("train", tmp))
    return {"train_videos": videos, "val_videos": max(1, videos // 4), "frames": frames, **result}


def forward_peaks() -> dict:
    """tracemalloc peaks, in MiB, of one warm batch-256 forward with and without the cache."""
    model, _ = _quickstart_model()
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((FORWARD_BATCH, model.config.window, model.config.input_dim), dtype=np.float32)

    def peak(**kwargs) -> float:
        forward_with_cache(model, batch, **kwargs)
        tracemalloc.start()
        try:
            forward_with_cache(model, batch, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return {"cached": peak(), "no_cache": peak(keep_cache=False)}


def _timed(call, frames: int, repeats: int) -> dict:
    """Median and interquartile range of `repeats` calls of `call()`, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"frames": frames, "repeats": repeats, "median": statistics.median(times), "iqr": q3 - q1}


def predict_time(frames: int, repeats: int) -> dict:
    """`predict_video` on `frames` frames, timed by `_timed`."""
    model, ev = _quickstart_model()
    seq = _features(frames, model.config.input_dim)
    return _timed(lambda: predict_video(model, seq, ev.overlap, mode=ev.frame_mode), frames, repeats)


def synth_time(frames: int, repeats: int) -> dict:
    """`synth_video` of `frames` frames, timed by `_timed`."""
    args = _synth_args(frames)
    return _timed(lambda: synth_video(*args), frames, repeats)


def openblas() -> dict:
    """The kernel and thread count of numpy's bundled OpenBLAS, or "unknown"."""
    info = {"kernel": "unknown", "threads": "unknown"}
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        return info
    lib = ctypes.CDLL(str(libs[0]))
    for key, symbol, restype in (
        ("kernel", "scipy_openblas_get_corename64_", ctypes.c_char_p),
        ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            value = fn()
            info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def git_revision() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True).stdout.strip()

    return {"revision": git("rev-parse", "HEAD") or "unknown", "dirty": bool(git("status", "--porcelain"))}


def measure(rss_frames=RSS_FRAMES, time_frames=TIME_FRAMES, repeats=REPEATS, train_videos=TRAIN_VIDEOS) -> dict:
    return {
        "synth_rss_mb": {str(t): synth_rss(t) for t in rss_frames},
        "predict_rss_mb": {str(t): predict_rss(t) for t in rss_frames},
        "train_rss_mb": train_rss(*train_videos),
        "forward_peak_mib": {"batch": FORWARD_BATCH, **forward_peaks()},
        "predict_s": predict_time(time_frames, repeats),
        "synth_s": synth_time(time_frames, repeats),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas": openblas(),
            **git_revision(),
        },
    }


def next_bench_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> None:
    result = measure()
    out = next_bench_path(ROOT)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["synth"]:
        _synth_child(int(sys.argv[2]))
    elif sys.argv[1:2] == ["write"]:
        _write_child(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1:2] == ["predict"]:
        _predict_child(sys.argv[2])
    elif sys.argv[1:2] == ["write-train"]:
        _write_train_child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
    elif sys.argv[1:2] == ["train"]:
        _fit_child(sys.argv[2])
    else:
        main()
