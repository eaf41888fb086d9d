"""The fakeseg benchmark: quickstart training, and one hour of frames scored
as 300 clips.

    python3 perfbench/run.py --workload score_clips --seed 1 --seconds 30 --trace 0

Workloads (a closed loop: one process runs one iteration at a time):

  quickstart   run_experiment on configs/quickstart.json into a fresh run
               directory; training is nearly all of it.
  score_clips  90,000 frames (one hour at 25 fps) as 300 clips of 300
               frames through the predict and eval stages: load_checkpoint,
               read_features, predict_video with the scores JSON and the
               pred and smooth maps written, evaluate_maps and
               write_report_files. Per-file and per-video overhead, and the
               per-frame kernels on short arrays.

There are two workloads so that each run can be long: on a shared 2-core
host the machine's speed drifts over tens of seconds to minutes, and the
longer a run spans that drift, the better its medians repeat. A third workload (the same frames
as one 90,000-frame video) would leave too little time per run.

Set-up trains the quickstart model once and writes the seed's clips; it
runs SETUP_REPS times and its median is `setup_s`. --seed picks the clips'
plans and features; the quickstart config is fixed, so its run does not
depend on the seed. Every iteration runs in a fresh worker process, whose
peak resident size is read from outside it. Each iteration is checked: the
quality floors of acceptance criterion 5, one score per frame for every
video, and the same output digest on every iteration of one invocation.
Failed checks are printed by name and count towards `failed`.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics from traced iterations, which alternate with
untraced ones so that `trace.overhead_s` compares the two. Records and spans
are written under .perfbench/ in the checkout. The benchmark's own tests:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from worker import NUM_CLIPS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
STATE_DIR = ROOT / ".perfbench"

WORKLOADS = ("quickstart", "score_clips")
ITEMS = {"quickstart": 1, "score_clips": NUM_CLIPS}  # runs or videos per iteration
DEFAULT_SEED = 1
SETUP_REPS = 3
MIN_ITERATIONS = 2
TAIL_MIN_BEYOND = 10  # a percentile is reported only with this many samples above it

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "frames_per_s": ("frames/s", "higher"),
    "video_p50_ms": ("ms", "lower"),
    "video_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "iou_smoothed": ("ratio", "higher"),
    "auc": ("ratio", "higher"),
}


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples: list[float], p: float) -> float | None:
    """The p-th percentile, or None when fewer than TAIL_MIN_BEYOND samples lie beyond it."""
    value, beyond = percentile(samples, p)
    return value if beyond >= TAIL_MIN_BEYOND else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cores": os.cpu_count(),
    }


def run_worker(args: list[str], result_path: Path) -> tuple[dict | None, float]:
    """Run one worker to the end; returns its result (None if it failed) and
    its peak resident size in MB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, str(WORKER), *args, str(result_path)], env=env)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    peak_mb = usage.ru_maxrss / 1024  # kB on Linux
    if proc.returncode != 0 or not result_path.exists():
        return None, peak_mb
    return json.loads(result_path.read_text(encoding="utf-8")), peak_mb


def set_up(work: Path, seed: int, reps: int) -> tuple[Path, list[float], bool]:
    """Build the score inputs `reps` times; returns the inputs of the first
    build, every set-up time and whether all builds wrote the same bytes."""
    times, digests = [], set()
    for rep in range(reps):
        inputs = work / f"inputs{rep}"
        result, _ = run_worker(["setup", str(inputs), str(seed)], work / f"setup{rep}.json")
        if result is None:
            raise RuntimeError(f"set-up {rep} failed")
        times.append(result["setup_s"])
        digests.add(result["digest"])
        if rep:
            shutil.rmtree(inputs)
    return work / "inputs0", times, len(digests) == 1


class Iterations:
    """The measured iterations of one invocation and their checks."""

    def __init__(self, workload: str):
        self.workload = workload
        self.results: list[dict] = []  # successful iterations, with "traced" and "peak_rss_mb"
        self.attempted = 0
        self.failed = 0
        self.failed_checks: dict[str, int] = {}
        self.digest: str | None = None
        self.count = 0

    def _fail(self, check: str, items: int) -> None:
        self.failed_checks[check] = self.failed_checks.get(check, 0) + items

    def run(self, work: Path, inputs: Path, traced: bool) -> None:
        """One iteration in a fresh worker, and its checks."""
        self.count += 1
        out = work / f"out{self.count}"
        args = [self.workload, str(inputs), str(out), "1" if traced else "0"]
        result, peak_mb = run_worker(args, work / f"iteration{self.count}.json")
        shutil.rmtree(out, ignore_errors=True)
        items = ITEMS[self.workload]
        self.attempted += items
        if result is None:
            self.failed += items
            self._fail("worker_error", items)
            return
        if self.digest is None:
            self.digest = result["digest"]
        checks = list(result["failed_checks"])
        if result["digest"] != self.digest:
            checks.append("same_digest")
        if result["items"] != items:
            checks.append("video_count")
        for check in checks:
            self._fail(check, items)
        if result["unscored_videos"]:
            self._fail("one_score_per_frame", len(result["unscored_videos"]))
        self.failed += items if checks else min(items, len(result["unscored_videos"]))
        self.results.append(dict(result, traced=traced, peak_rss_mb=peak_mb))

    def select(self, traced: bool) -> list[dict]:
        return [r for r in self.results if r["traced"] == traced]


def end_to_end(its: Iterations, setup_times: list[float]) -> tuple[dict, dict, bool]:
    """The end-to-end metrics, the sample count behind each, and whether
    video_p95_ms had too few samples and reports the median instead.

    Only score_clips has enough videos in a run for a p95; on the other
    workloads the median is the highest percentile the samples support.
    """
    runs = its.select(traced=False)
    item_ms = [ms for r in runs for ms in r["item_ms"]]
    p95 = tail_percentile(item_ms, 95)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "frames_per_s": statistics.median(r["frames"] / r["wall_s"] for r in runs),
        "video_p50_ms": statistics.median(item_ms),
        "video_p95_ms": p95 if p95 is not None else statistics.median(item_ms),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "iou_smoothed": statistics.median(r["iou_smoothed"] for r in runs),
        "auc": statistics.median(r["auc"] for r in runs),
    }
    samples = {name: len(runs) for name in values}
    samples.update(setup_s=len(setup_times), video_p50_ms=len(item_ms), video_p95_ms=len(item_ms))
    return values, samples, p95 is None


def per_layer(its: Iterations) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced iterations, and the absent ones."""
    traced, plain = its.select(traced=True), its.select(traced=False)
    layers = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in layers}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
    # an absent layer has no spans, so it reads 0; it is named in the output
    absent = sorted({m for r in traced for m in r["absent"]})
    return values, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "fakeseg" / "__init__.py", ROOT / "configs" / "quickstart.json")
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a fakeseg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if traced else "")
    work = STATE_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    its = Iterations(args.workload)
    try:
        inputs, setup_times, setup_same = set_up(work, args.seed, 1 if traced else SETUP_REPS)
        t0 = perf_counter()
        while perf_counter() - t0 < args.seconds or len(its.select(traced=False)) < MIN_ITERATIONS:
            its.run(work, inputs, traced=False)
            if traced:
                its.run(work, inputs, traced=True)
            if not its.results:
                break
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not setup_same:
        its.failed_checks["setup_digest"] = 1
    correct = its.failed == 0 and setup_same
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "iterations": len(its.select(traced=False)),
        "iteration_wall_s": [r["wall_s"] for r in its.select(traced=False)],
        "traced_iterations": len(its.select(traced=True)),
        "setup_runs": len(setup_times),
        "attempted": its.attempted,
        "failed": its.failed,
        "failed_ratio": its.failed / its.attempted,
        "failed_checks": its.failed_checks,
    }
    if not its.select(traced=False) or (traced and not its.select(traced=True)):
        print(f"perfbench: every iteration failed: {its.failed_checks}", file=sys.stderr)
        return 1

    if traced:
        values, absent = per_layer(its)
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
        record.update(absent_layers=absent, layers=values)
        for name, (unit, _, moves) in tracing.LAYER_METRICS.items():
            note = "absent" if name in absent else f"moves {moves}"
            print(f"{name:36s} {values[name]:14.6g} {unit:8s} {note}")
        spans = [r["spans"] for r in its.select(traced=True)]  # one list per traced iteration
        trace_file = STATE_DIR / f"trace-{tag}.json"
        trace_file.write_text(json.dumps(dict(record, spans=spans)), encoding="utf-8")
    else:
        values, samples, p95_is_median = end_to_end(its, setup_times)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        record.update(metrics=values, samples=samples, video_p95_ms_is_median=p95_is_median)
        for name, value in values.items():
            note = ""
            if name == "video_p95_ms" and p95_is_median:
                note = "  (the median: under 10 samples beyond p95)"
            print(f"{name:14s} {value:14.6g} {units[name]:9s} n={samples[name]}{note}")
        print(f"{'failed_ratio':14s} {record['failed_ratio']:14.6g} {'ratio':9s} n={its.attempted}")
        record_file = STATE_DIR / f"record-{tag}.json"
        record_file.write_text(json.dumps(record, indent=2), encoding="utf-8")
    for check, count in its.failed_checks.items():
        print(f"FAILED check {check}: {count}")
    summary = {k: v for k, v in record.items() if k not in ("layers", "metrics")}
    print("record: " + json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": its.attempted,
                "failed": its.failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
