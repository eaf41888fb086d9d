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
  import_mb, rise_mb  beside each fresh process's peak above: its resident size
                      right after its imports, and the peak's rise above
                      that. The import size moves by up to 0.3 MB from run
                      to run and between two checkouts of the same sources,
                      so compare two checkouts by the rise.
  repeats, iqr, runs  each fresh process above (and paper_scale below) runs
                      RSS_REPEATS times in a row: its numbers are the medians
                      of the repeats, `iqr` their interquartile ranges and
                      `runs` each repeat's numbers; every repeat must give
                      the same digests.
  paper_scale         peak resident size of a fresh process that takes one
                      training step as `train` does (`loss_and_grads` with
                      dropout, then `FlatAdam.step`) on a 1-block model of the
                      paper's width: d = 768, 8 heads of 512, feed-forward
                      3072, batch 64. With the parameter bytes, the peak's
                      ratio to them (imports included), and the SHA-256 of
                      the parameters after the step.
  paper_step_s        wall time of that step (as in paper_scale) in a fresh
                      process: one cold step, then PAPER_STEPS warm ones on
                      the same batch, the generator drawing on; the warm
                      steps' median and IQR, each step's seconds and rise of
                      `ru_minflt` (minor page faults), and the SHA-256 of the
                      parameters after the last step. It runs on the
                      process's OpenBLAS thread count.
  forward_peak_mib    tracemalloc peak of one warm batch-256 forward, with
                      and without the cache.
  step_peak_mib       tracemalloc peak of one warm batch-64 training step of
                      the quickstart model (as in paper_scale), and of the
                      training forward with the cache that it starts with.
  cache_kib           the bytes that cache holds: every distinct array
                      buffer reachable from it, counted once, the model's
                      parameter buffer (which its weight views share) not.
  paper_forward       tracemalloc peak of one warm batch-256 forward without
                      a cache of a 1-block model of the paper's width (as in
                      paper_scale), with the SHA-256 of its logits.
  predict_clip_peak_kib
                      tracemalloc peak of one warm `predict_video` on one clip
                      of 300 frames (as in score_videos_s), with the SHA-256
                      of its scores.
  predict_s           `predict_video` wall time in this process: median and
                      interquartile range of repeated runs.
  synth_s             the same for `synth_video` (as in synth_rss_mb).
  score_videos_s      `score_videos` on 300 clips of 300 frames (the
                      quickstart generator, one fake segment each), serially
                      and fanned out over worker processes (pool start
                      included), in alternating pairs in this process: median
                      and IQR of each, their ratio, and the scores' SHA-256,
                      which both sides must give. Where fakeseg has no
                      fan-out both sides run the same serial code.
  predict_busy_s      `predict_video` at T = 90,000 (as in predict_s) idle and
                      next to one CPU-bound process that the bench starts and
                      kills, in alternating pairs: medians, IQRs and the ratio
                      busy / idle.
  blas_threads        a batch-64 forward of a 1-block model of width d (4 heads
                      of d, feed-forward 4d) for d = 16 ... 768, on 1 and 2
                      OpenBLAS threads in alternating pairs, whatever fakeseg's
                      own thread policy; each width is keyed by its largest
                      GEMM's multiply-adds. `serial_macs` is the largest of
                      those at which the second thread saved less than 20% of
                      the time. It moves with the host's load (21M to 189M
                      in the recorded runs), so it is a record of where the
                      boundary lies; fakeseg's `BLAS_SERIAL_MACS` (`in_use`)
                      need only lie between desk and paper scale.
  environment         Python and numpy versions, core count, git revision,
                      whether the checkout differs from it, the SHA-256 of
                      the measured sources (`src_sha256`: every file under
                      src/fakeseg but bytecode caches, by relative path and
                      bytes in sorted order), the OpenBLAS kernel and the
                      thread count a quickstart forward runs with, read
                      inside it (the count after it is the caller's); both
                      timings and score bytes depend on the kernel.

The result goes to BENCH_<n>.json at the repository root, n one past the
highest there.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fakeseg import transformer  # noqa: E402
from fakeseg.harness import experiment  # noqa: E402
from fakeseg.harness.config import load_experiment_config  # noqa: E402
from fakeseg.harness.experiment import fit, load_split_features, score_videos, synth_features  # noqa: E402
from fakeseg.injection import VideoSpec, plan_one_segment  # noqa: E402
from fakeseg.synth import synth_video  # noqa: E402
from fakeseg.training import FlatAdam, predict_video  # noqa: E402
from fakeseg.transformer import SequenceClassifier, TransformerConfig, forward_with_cache, loss_and_grads  # noqa: E402
from fakeseg.windowing import FeatureSequence, read_features, write_features  # noqa: E402

QUICKSTART = ROOT / "configs" / "quickstart.json"
RSS_FRAMES = (90_000, 450_000)
TIME_FRAMES = 90_000
REPEATS = 7
RSS_REPEATS = 5  # fresh processes per RSS measurement: one does not resolve 0.2 MB
FORWARD_BATCH = 256
TRAIN_VIDEOS = (100, 900)  # train videos and frames per video; the val split has a quarter as many videos
CLIPS = (300, 300)  # clips and frames per clip, as perfbench's score_clips
PAIRS = 6
SWEEP_WIDTHS = (16, 32, 64, 128, 192, 256, 384, 512, 768)
SWEEP_BATCH = 64
SERIAL_GAIN = 0.2  # a second thread that saves less than this share of the time is not worth its risk
PAPER_WIDTHS = (768, 8, 512, 3072)  # input_dim, heads, head_dim, feed-forward of the paper's block
PAPER_KEYS = ("input_dim", "num_heads", "head_dim", "ff_hidden")
PAPER_BATCH = 64
PAPER_STEPS = 5  # warm steps timed after the cold one in paper_step_s
STEP_BATCH = 64


def _quickstart_model():
    cfg = load_experiment_config(QUICKSTART)
    return SequenceClassifier.initialize(cfg.model, seed=0), cfg.eval


def _features(frames: int, dim: int) -> FeatureSequence:
    rng = np.random.default_rng(frames)
    return FeatureSequence("long", rng.standard_normal((frames, dim), dtype=np.float32))


def _synth_args(frames: int, video_id: str = "long") -> tuple:
    """`synth_video`'s arguments for one quickstart-generator video of `frames` frames with one fake segment."""
    cfg = load_experiment_config(QUICKSTART).dataset
    return plan_one_segment(VideoSpec(video_id, frames), cfg.seed), frames, cfg.synth


def _rss_mb() -> float:
    """This process's peak resident size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def _peak(import_mb: float) -> dict:
    """The peak resident size now, the size `import_mb` read right after the
    imports, and the rise between them. Read it before hashing a result, as
    `tobytes` copies."""
    peak_mb = _rss_mb()
    return {"peak_mb": peak_mb, "import_mb": import_mb, "rise_mb": peak_mb - import_mb}


def _synth_child(frames: int) -> None:
    import_mb = _rss_mb()
    features = synth_video(*_synth_args(frames)).features
    print(json.dumps({**_peak(import_mb), "features_sha256": hashlib.sha256(features.tobytes()).hexdigest()}))


def _write_child(path: str, frames: int) -> None:
    model, _ = _quickstart_model()
    write_features(path, _features(frames, model.config.input_dim))


def _predict_child(path: str) -> None:
    import_mb = _rss_mb()
    model, ev = _quickstart_model()
    scores = predict_video(model, read_features(path), ev.overlap, mode=ev.frame_mode).scores
    print(json.dumps({**_peak(import_mb), "scores_sha256": hashlib.sha256(scores.tobytes()).hexdigest()}))


def _write_train_child(root: str, videos: int, frames: int) -> None:
    cfg = load_experiment_config(QUICKSTART)
    for split, count in (("train", videos), ("val", max(1, videos // 4))):
        specs = [VideoSpec(f"{split}{i:04d}", frames) for i in range(count)]
        records = [(v, plan_one_segment(v, cfg.dataset.seed)) for v in specs]
        synth_features(records, Path(root) / split, cfg.dataset.synth)


def _fit_child(root: str) -> None:
    import_mb = _rss_mb()
    cfg = load_experiment_config(QUICKSTART)
    train_seqs = load_split_features(Path(root) / "train")
    val_seqs = load_split_features(Path(root) / "val")
    before_mb = _rss_mb()
    one_epoch = dataclasses.replace(cfg.train, max_epochs=1)
    model, _ = fit(cfg.model, one_epoch, train_seqs, val_seqs, cfg.eval.overlap)
    peak = _peak(import_mb)
    digest = hashlib.sha256(model.flat.tobytes()).hexdigest()
    print(json.dumps({**peak, "fit_rise_mb": peak["peak_mb"] - before_mb, "model_sha256": digest}))


def _train_step(model, adam, batch, targets, rng) -> None:
    """One training step as `train` takes it: `loss_and_grads` with dropout
    into Adam's gradient, then `FlatAdam.step`."""
    if hasattr(adam, "pack"):  # fakeseg that returned the gradients as a dict for Adam to copy
        _, _, grads = loss_and_grads(model, batch, targets, train=True, rng=rng)
        adam.pack(grads)
    else:  # Adam's gradient views; a fakeseg that built them per call took the flat buffer
        out = adam.grads if hasattr(adam, "grads") else adam.grad
        _, _, grads = loss_and_grads(model, batch, targets, train=True, rng=rng, out=out)
    adam.step()  # with `grads` still bound, as in `train`


def _paper_step_args(input_dim: int, heads: int, head_dim: int, ff_hidden: int) -> tuple:
    """`_train_step`'s arguments for a 1-block model of these widths at its
    seed-0 initialisation and a PAPER_BATCH batch drawn from seed 0."""
    cfg = TransformerConfig(input_dim=input_dim, num_blocks=1, num_heads=heads, head_dim=head_dim, ff_hidden=ff_hidden)
    model = SequenceClassifier.initialize(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((PAPER_BATCH, cfg.window, input_dim), dtype=np.float32)
    return model, FlatAdam(model, 1e-4), batch, np.arange(PAPER_BATCH) % 2, rng


def _paper_step_child(*widths: int) -> None:
    import_mb = _rss_mb()
    model, *rest = _paper_step_args(*widths)
    _train_step(model, *rest)
    peak = _peak(import_mb)
    param_mb = model.flat.nbytes / 2**20
    digest = hashlib.sha256(model.flat.tobytes()).hexdigest()
    print(json.dumps({**peak, "param_mb": param_mb, "ratio": peak["peak_mb"] / param_mb, "params_sha256": digest}))


def _paper_time_child(*widths: int) -> None:
    model, *rest = _paper_step_args(*widths)
    seconds, faults = [], []
    for _ in range(1 + PAPER_STEPS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter()
        _train_step(model, *rest)
        seconds.append(perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    digest = hashlib.sha256(model.flat.tobytes()).hexdigest()
    print(json.dumps({"seconds": seconds, "faults": faults, "params_sha256": digest}))


def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args], capture_output=True, text=True, check=True
    )
    return proc.stdout


def _children(repeats: int, *args: str) -> dict:
    """`repeats` fresh processes of `_child(*args)` in a row: the median of
    each number they print, its IQR (`iqr`) and each repeat's numbers
    (`runs`), and the digests, which must be equal in every repeat."""
    runs = [json.loads(_child(*args)) for _ in range(repeats)]
    digests = {key: {run[key] for run in runs} for key in runs[0] if key.endswith("_sha256")}
    if any(len(values) != 1 for values in digests.values()):
        raise RuntimeError(f"{args[0]}: repeats gave different digests: {digests}")
    numbers = [{key: value for key, value in run.items() if key not in digests} for run in runs]
    quartiles = {key: _quartiles([run[key] for run in numbers]) for key in numbers[0]}
    return {
        **{key: q["median"] for key, q in quartiles.items()},
        "repeats": repeats,
        "iqr": {key: q["iqr"] for key, q in quartiles.items()},
        "runs": numbers,
        **{key: values.pop() for key, values in digests.items()},
    }


def synth_rss(frames: int, repeats: int) -> dict:
    """Peak RSS of a fresh process that synthesizes one `frames`-frame video."""
    return _children(repeats, "synth", str(frames))


def predict_rss(frames: int, repeats: int) -> dict:
    """Peak RSS of a fresh read-and-predict process on a `frames`-frame file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "long.feat")
        _child("write", path, str(frames))
        return _children(repeats, "predict", path)


def train_rss(videos: int, frames: int, repeats: int) -> dict:
    """Peak RSS of a fresh process that reads `videos` x `frames` training
    frames (and a quarter as many val videos) and trains one epoch on them."""
    with tempfile.TemporaryDirectory() as tmp:
        _child("write-train", tmp, str(videos), str(frames))
        result = _children(repeats, "train", tmp)
    return {"train_videos": videos, "val_videos": max(1, videos // 4), "frames": frames, **result}


def paper_scale(widths, repeats: int) -> dict:
    """Peak RSS of a fresh process that takes one training step of a 1-block
    model of `widths` (input_dim, heads, head_dim, feed-forward)."""
    result = _children(repeats, "paper-step", *map(str, widths))
    return {**dict(zip(PAPER_KEYS, widths)), "num_blocks": 1, "batch": PAPER_BATCH, **result}


def paper_step_time(widths) -> dict:
    """One cold and PAPER_STEPS warm training steps of a 1-block model of
    `widths` in a fresh process: the warm steps' median and IQR, each
    step's seconds and minor faults, and the parameters' SHA-256 after."""
    run = json.loads(_child("paper-time", *map(str, widths)))
    return {**dict(zip(PAPER_KEYS, widths)), "num_blocks": 1, "batch": PAPER_BATCH, "steps": PAPER_STEPS,
            **_quartiles(run["seconds"][1:]), "cold_s": run["seconds"][0], "warm_s": run["seconds"][1:],
            "cold_faults": run["faults"][0], "warm_faults": run["faults"][1:], "params_sha256": run["params_sha256"]}


def _traced(call):
    """tracemalloc peak, in MiB, of the second of two calls of `call()`, and what it returned."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1] / 2**20, result
    finally:
        tracemalloc.stop()


def _forward_peak(model, **kwargs) -> tuple[float, np.ndarray]:
    """tracemalloc peak, in MiB, of one warm batch-256 forward of `model`, and its logits."""
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((FORWARD_BATCH, model.config.window, model.config.input_dim), dtype=np.float32)
    peak, (logits, _, _) = _traced(lambda: forward_with_cache(model, batch, **kwargs))
    return peak, logits


def forward_peaks() -> dict:
    """tracemalloc peaks, in MiB, of one warm batch-256 forward with and without the cache."""
    model, _ = _quickstart_model()
    return {"cached": _forward_peak(model)[0], "no_cache": _forward_peak(model, keep_cache=False)[0]}


def step_peaks() -> dict:
    """tracemalloc peaks, in MiB, of one warm batch-64 quickstart training
    step and of its training forward with the cache."""
    model, _ = _quickstart_model()
    cfg = model.config
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((STEP_BATCH, cfg.window, cfg.input_dim), dtype=np.float32)
    targets = np.arange(STEP_BATCH) % 2
    adam = FlatAdam(model, 1e-3)
    return {
        "step": _traced(lambda: _train_step(model, adam, batch, targets, rng))[0],
        "forward": _traced(lambda: forward_with_cache(model, batch, train=True, rng=rng))[0],
    }


def _owned_bytes(obj, seen: set) -> int:
    """Bytes of the distinct array buffers reachable from obj through
    tuples, lists and dicts; a buffer whose id is in `seen` counts once."""
    if isinstance(obj, (tuple, list)):
        return sum(_owned_bytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return _owned_bytes(list(obj.values()), seen)
    if not isinstance(obj, np.ndarray):
        return 0
    base = obj if obj.base is None else obj.base
    if not isinstance(base, np.ndarray) or id(base) in seen:
        return 0
    seen.add(id(base))
    return base.nbytes


def cache_size() -> dict:
    """KiB of the cache of a batch-64 quickstart training forward (as in
    step_peaks), parameters left out."""
    model, _ = _quickstart_model()
    cfg = model.config
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((STEP_BATCH, cfg.window, cfg.input_dim), dtype=np.float32)
    cache = forward_with_cache(model, batch, train=True, rng=rng)[2]
    return {"batch": STEP_BATCH, "kib": _owned_bytes(cache, {id(model.flat)}) / 1024}


def paper_forward(widths) -> dict:
    """`_forward_peak` without a cache of a 1-block model of `widths`
    (input_dim, heads, head_dim, feed-forward), with its logits' SHA-256."""
    input_dim, heads, head_dim, ff_hidden = widths
    cfg = TransformerConfig(input_dim=input_dim, num_blocks=1, num_heads=heads, head_dim=head_dim, ff_hidden=ff_hidden)
    peak, logits = _forward_peak(SequenceClassifier.initialize(cfg, seed=0), keep_cache=False)
    return {**dict(zip(PAPER_KEYS, widths)), "num_blocks": 1, "batch": FORWARD_BATCH, "no_cache_mib": peak,
            "logits_sha256": hashlib.sha256(logits.tobytes()).hexdigest()}


def predict_clip_peak(frames: int) -> dict:
    """tracemalloc peak, in KiB, of one warm `predict_video` on one
    `frames`-frame clip (as in score_videos_time), with its scores' SHA-256."""
    model, ev = _quickstart_model()
    seq = synth_video(*_synth_args(frames, "clip0000"))
    peak, scores = _traced(lambda: predict_video(model, seq, ev.overlap, mode=ev.frame_mode).scores)
    return {"frames": frames, "kib": peak * 1024, "scores_sha256": hashlib.sha256(scores.tobytes()).hexdigest()}


def _timed(call, frames: int, repeats: int) -> dict:
    """Median and interquartile range of `repeats` calls of `call()`, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return {"frames": frames, "repeats": repeats, **_quartiles(times)}


def predict_time(frames: int, repeats: int) -> dict:
    """`predict_video` on `frames` frames, timed by `_timed`."""
    model, ev = _quickstart_model()
    seq = _features(frames, model.config.input_dim)
    return _timed(lambda: predict_video(model, seq, ev.overlap, mode=ev.frame_mode), frames, repeats)


def synth_time(frames: int, repeats: int) -> dict:
    """`synth_video` of `frames` frames, timed by `_timed`."""
    args = _synth_args(frames)
    return _timed(lambda: synth_video(*args), frames, repeats)


def _openblas_lib():
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def _openblas_call(lib, symbol: str, restype, *args):
    """`symbol(*args)` in numpy's OpenBLAS, or "unknown" where it is missing."""
    fn = getattr(lib, symbol, None)
    if fn is None:
        return "unknown"
    fn.argtypes, fn.restype = [ctypes.c_int] * len(args), restype
    value = fn(*args)
    return value.decode() if isinstance(value, bytes) else value


def openblas() -> dict:
    """The kernel of numpy's bundled OpenBLAS and the thread count that a
    quickstart forward runs with, read inside it (as its last softmax runs),
    or "unknown"."""
    model, _ = _quickstart_model()
    lib = _openblas_lib()
    seen, softmax = [], transformer._softmax

    def probe(z):
        seen.append(_openblas_call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int))
        return softmax(z)

    transformer._softmax = probe
    try:
        forward_with_cache(model, np.zeros((FORWARD_BATCH, model.config.window, model.config.input_dim), np.float32))
    finally:
        transformer._softmax = softmax
    return {"kernel": _openblas_call(lib, "scipy_openblas_get_corename64_", ctypes.c_char_p), "threads": seen[-1]}


def _quartiles(times: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median": statistics.median(times), "iqr": q3 - q1}


def _pairs(sides: dict, pairs: int) -> dict[str, list[float]]:
    """Seconds of each side's call over `pairs` pairs, alternating which runs first."""
    names = list(sides)
    times: dict[str, list[float]] = {name: [] for name in names}
    for r in range(pairs):
        for name in names if r % 2 == 0 else names[::-1]:
            times[name].append(sides[name]())
    return times


@contextmanager
def _serially():
    """fakeseg's fan-out kept serial, where it has one."""
    saved = getattr(experiment, "FAN_OUT_WORK", None)
    if saved is not None:
        experiment.FAN_OUT_WORK = math.inf
    try:
        yield
    finally:
        if saved is not None:
            experiment.FAN_OUT_WORK = saved


def score_videos_time(clips: int, frames: int, pairs: int) -> dict:
    """`score_videos` on `clips` clips of `frames` frames, serially and fanned out."""
    model, ev = _quickstart_model()
    seqs = [synth_video(*_synth_args(frames, f"clip{i:04d}")) for i in range(clips)]
    digests = set()

    def run(out: Path) -> float:
        t0 = perf_counter()
        maps = score_videos(model, seqs, ev.overlap, ev.frame_mode, out)
        elapsed = perf_counter() - t0
        digests.add(hashlib.sha256(b"".join(maps[s.video_id].scores.tobytes() for s in seqs)).hexdigest())
        return elapsed

    def serial(out: Path) -> float:
        with _serially():
            return run(out)

    with tempfile.TemporaryDirectory() as tmp:
        times = _pairs({"serial": lambda: serial(Path(tmp) / "serial"), "fanned": lambda: run(Path(tmp) / "fanned")}, pairs)
    if len(digests) != 1:
        raise RuntimeError(f"serial and fanned-out scores differ: {sorted(digests)}")
    serial, fanned = _quartiles(times["serial"]), _quartiles(times["fanned"])
    return {
        "clips": clips,
        "frames": frames,
        "pairs": pairs,
        "serial": serial,
        "fanned": fanned,
        "speedup": serial["median"] / fanned["median"],
        "scores_sha256": digests.pop(),
    }


def predict_busy_time(frames: int, pairs: int) -> dict:
    """`predict_video` on `frames` frames, idle and next to one busy process."""
    model, ev = _quickstart_model()
    seq = _features(frames, model.config.input_dim)

    def predict() -> float:
        t0 = perf_counter()
        predict_video(model, seq, ev.overlap, mode=ev.frame_mode)
        return perf_counter() - t0

    def busy() -> float:
        hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            time.sleep(0.2)  # let it start spinning
            return predict()
        finally:
            hog.kill()
            hog.wait()

    predict()
    times = _pairs({"idle": predict, "busy": busy}, pairs)
    idle, contended = _quartiles(times["idle"]), _quartiles(times["busy"])
    return {"frames": frames, "pairs": pairs, "idle": idle, "busy": contended,
            "ratio": contended["median"] / idle["median"]}


@contextmanager
def _fixed_blas_threads(lib, n: int):
    """Run forwards on n OpenBLAS threads, with fakeseg's own policy set aside."""
    policy = getattr(transformer, "limit_blas_threads", None)
    before = _openblas_call(lib, "scipy_openblas_get_num_threads64_", ctypes.c_int)
    if policy is not None:
        transformer.limit_blas_threads = lambda _: None
    _openblas_call(lib, "scipy_openblas_set_num_threads64_", None, n)
    try:
        yield
    finally:
        if policy is not None:
            transformer.limit_blas_threads = policy
        if before != "unknown":
            _openblas_call(lib, "scipy_openblas_set_num_threads64_", None, before)


def blas_thread_sweep(widths=SWEEP_WIDTHS, pairs: int = PAIRS) -> dict:
    """A batch-`SWEEP_BATCH` forward per width on 1 and 2 OpenBLAS threads."""
    lib = _openblas_lib()
    if lib is None:
        return {"unknown": "numpy has no bundled OpenBLAS"}
    rng = np.random.default_rng(0)
    rows = []
    for d in widths:
        cfg = TransformerConfig(input_dim=d, num_blocks=1, num_heads=4, head_dim=d, ff_hidden=4 * d, mlp_hidden=(32,))
        model = SequenceClassifier.initialize(cfg, seed=0)
        batch = rng.standard_normal((SWEEP_BATCH, cfg.window, d), dtype=np.float32)
        macs = SWEEP_BATCH * cfg.window * d * 4 * d
        reps = max(3, min(100, int(3e8 // macs)))

        def timed(threads: int) -> float:
            with _fixed_blas_threads(lib, threads):
                forward_with_cache(model, batch, keep_cache=False)
                t0 = perf_counter()
                for _ in range(reps):
                    forward_with_cache(model, batch, keep_cache=False)
                return (perf_counter() - t0) / reps

        times = _pairs({"1": lambda: timed(1), "2": lambda: timed(2)}, pairs)
        one, two = statistics.median(times["1"]), statistics.median(times["2"])
        rows.append({"input_dim": d, "macs": macs, "one_thread_ms": 1e3 * one, "two_threads_ms": 1e3 * two,
                     "saved": 1 - two / one})
    cheap = [row["macs"] for row in rows if row["saved"] < SERIAL_GAIN]
    return {
        "batch": SWEEP_BATCH,
        "pairs": pairs,
        "widths": rows,
        "serial_macs": max(cheap, default=0),
        "in_use": getattr(transformer, "BLAS_SERIAL_MACS", None),
    }


def git_revision() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True).stdout.strip()

    return {"revision": git("rev-parse", "HEAD") or "unknown", "dirty": bool(git("status", "--porcelain"))}


def src_sha256(root: Path = ROOT / "src" / "fakeseg") -> str:
    """SHA-256 over every file under `root` but bytecode caches: each
    file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(
    rss_frames=RSS_FRAMES,
    time_frames=TIME_FRAMES,
    repeats=REPEATS,
    train_videos=TRAIN_VIDEOS,
    clips=CLIPS,
    pairs=PAIRS,
    sweep_widths=SWEEP_WIDTHS,
    paper_widths=PAPER_WIDTHS,
    rss_repeats=RSS_REPEATS,
) -> dict:
    return {
        "synth_rss_mb": {str(t): synth_rss(t, rss_repeats) for t in rss_frames},
        "predict_rss_mb": {str(t): predict_rss(t, rss_repeats) for t in rss_frames},
        "train_rss_mb": train_rss(*train_videos, rss_repeats),
        "paper_scale": paper_scale(paper_widths, rss_repeats),
        "paper_step_s": paper_step_time(paper_widths),
        "forward_peak_mib": {"batch": FORWARD_BATCH, **forward_peaks()},
        "step_peak_mib": {"batch": STEP_BATCH, **step_peaks()},
        "cache_kib": cache_size(),
        "paper_forward": paper_forward(paper_widths),
        "predict_clip_peak_kib": predict_clip_peak(clips[1]),
        "predict_s": predict_time(time_frames, repeats),
        "synth_s": synth_time(time_frames, repeats),
        "score_videos_s": score_videos_time(*clips, pairs),
        "predict_busy_s": predict_busy_time(time_frames, pairs),
        "blas_threads": blas_thread_sweep(sweep_widths, pairs),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas": openblas(),
            **git_revision(),
            "src_sha256": src_sha256(),
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
    elif sys.argv[1:2] == ["paper-step"]:
        _paper_step_child(*map(int, sys.argv[2:6]))
    elif sys.argv[1:2] == ["paper-time"]:
        _paper_time_child(*map(int, sys.argv[2:6]))
    else:
        main()
