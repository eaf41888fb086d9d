"""Spans around calls into fakeseg, and the per-layer metrics made from them.

The wrappers are installed from the benchmark's own code on the module or
class attribute each caller looks up at call time (for example
`loss_and_grads` as seen from `fakeseg.training`), so nothing under `src/`
changes. Spans live in memory with a link to their parent span and are
written out when the iteration ends.

Every `_s` layer metric is a self time: a span's duration minus the
durations of its child spans, summed over all spans of that layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records properly nested spans from a single thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._finish(s)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` with every call recorded as a span called `name`.

        `count(args, kwargs, result)` returns the work counts of one call; it
        runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(s)
            if count is not None:
                s.counts = count(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


# -- where each layer is entered --


def _windows(args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"windows": int(batch.shape[0])}


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1].epochs)}


def _smoothed_frames(args, kwargs, result):
    return {"frames": len(result)}


def _synth_frames(args, kwargs, result):
    return {"frames": int(result.num_frames)}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    labels = f"{path}.labels"
    size = os.path.getsize(path) + (os.path.getsize(labels) if os.path.exists(labels) else 0)
    return {"bytes": size}


# (span name, module, attribute as the caller looks it up, work counter)
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("harness.run_experiment", "fakeseg.harness.experiment", "run_experiment", None),
    ("synth.synth_video", "fakeseg.harness.experiment", "synth_video", _synth_frames),
    ("windowing.write_features", "fakeseg.harness.experiment", "write_features", _file_bytes),
    ("windowing.read_features", "fakeseg.harness.experiment", "read_features", _file_bytes),
    ("windowing.make_windows", "fakeseg.harness.experiment", "make_windows", None),
    ("windowing.make_windows", "fakeseg.training", "make_windows", None),
    ("training.train", "fakeseg.harness.experiment", "train", _epochs),
    ("transformer.backward", "fakeseg.training", "loss_and_grads", None),
    ("transformer.forward", "fakeseg.transformer", "forward_with_cache", _windows),
    ("transformer.forward", "fakeseg.training", "forward_with_cache", _windows),
    ("training.evaluate", "fakeseg.training", "evaluate", None),
    ("checkpoint.save", "fakeseg.harness.experiment", "save_checkpoint", None),
    ("checkpoint.load", "fakeseg.checkpoint", "load_checkpoint", None),
    ("training.predict_video", "fakeseg.harness.experiment", "predict_video", None),
    ("windowing.frames_from_windows", "fakeseg.training", "frames_from_windows", None),
    ("segmap.score_to_json", "fakeseg.segmap", "ScoreMap.to_json", None),
    ("segmap.map_to_text", "fakeseg.segmap", "SegmentationMap.to_text", None),
    ("smoothing.smooth", "fakeseg.smoothing", "smooth", _smoothed_frames),
    ("harness.evaluate_maps", "fakeseg.harness.experiment", "evaluate_maps", None),
    ("metrics.frame_auc", "fakeseg.harness.experiment", "frame_auc", None),
    ("harness.report", "fakeseg.harness.report", "write_report_files", None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every hooked function; returns the span names found nowhere.

    A hook whose module or attribute no longer exists is skipped, so a
    renamed or fused function shows up as an absent layer, not a crash.
    """
    found: set[str] = set()
    for name, module_name, attr, count in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            continue
        setattr(owner, leaf, tracer.wrap(name, original, count))
        found.add(name)
    return sorted({h[0] for h in HOOKS} - found)


# -- per-layer metrics --

# Which end-to-end metric, on which workload, each layer metric should move.
_TRAINING = "quickstart wall_s; zero on score_clips"
_FORWARD = "quickstart wall_s; score_clips frames_per_s"
_KERNELS = "score_clips video_p50_ms and frames_per_s (short arrays)"
_PER_FILE = "score_clips video_p50_ms and frames_per_s"
_SETUP = "setup_s on every workload; a small share of quickstart wall_s"

# name -> (unit, better, what it should move)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "transformer.backward_s": ("s", "lower", _TRAINING),
    "transformer.backward_calls": ("count", "lower", _TRAINING),
    "training.optimizer_s": ("s", "lower", _TRAINING),
    "training.steps": ("count", "lower", _TRAINING),
    "training.epochs": ("count", "lower", _TRAINING),
    "training.step_ms": ("ms", "lower", _TRAINING),
    "transformer.forward_s": ("s", "lower", _FORWARD),
    "transformer.forward_calls": ("count", "lower", _FORWARD),
    "transformer.forward_windows": ("count", "lower", _FORWARD),
    "transformer.forward_us_per_window": ("us", "lower", _FORWARD),
    "training.evaluate_s": ("s", "lower", _FORWARD),
    "training.predict_video_s": ("s", "lower", _KERNELS),
    "windowing.make_windows_s": ("s", "lower", _KERNELS),
    "windowing.frames_from_windows_s": ("s", "lower", _KERNELS),
    "smoothing.smooth_s": ("s", "lower", _KERNELS),
    "smoothing.frames": ("count", "lower", _KERNELS),
    "metrics.frame_auc_s": ("s", "lower", _KERNELS),
    "windowing.read_features_s": ("s", "lower", _PER_FILE),
    "windowing.bytes_read": ("count", "lower", _PER_FILE),
    "checkpoint.load_s": ("s", "lower", _PER_FILE),
    "segmap.score_to_json_s": ("s", "lower", _PER_FILE),
    "segmap.map_to_text_s": ("s", "lower", _PER_FILE),
    "harness.evaluate_maps_s": ("s", "lower", _PER_FILE),
    "synth.synth_video_s": ("s", "lower", _SETUP),
    "synth.frames": ("count", "lower", _SETUP),
    "windowing.write_features_s": ("s", "lower", _SETUP),
    "windowing.bytes_written": ("count", "lower", _SETUP),
    "checkpoint.save_s": ("s", "lower", _SETUP),
    "harness.run_experiment_s": ("s", "lower", "quickstart wall_s"),
    "harness.report_s": ("s", "lower", "wall_s on every workload"),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced wall_s, same workload"),
}

# metric -> span whose self time it sums
_SELF_TIME = {
    "transformer.backward_s": "transformer.backward",
    "training.optimizer_s": "training.train",
    "transformer.forward_s": "transformer.forward",
    "training.evaluate_s": "training.evaluate",
    "training.predict_video_s": "training.predict_video",
    "windowing.make_windows_s": "windowing.make_windows",
    "windowing.frames_from_windows_s": "windowing.frames_from_windows",
    "smoothing.smooth_s": "smoothing.smooth",
    "metrics.frame_auc_s": "metrics.frame_auc",
    "windowing.read_features_s": "windowing.read_features",
    "checkpoint.load_s": "checkpoint.load",
    "segmap.score_to_json_s": "segmap.score_to_json",
    "segmap.map_to_text_s": "segmap.map_to_text",
    "harness.evaluate_maps_s": "harness.evaluate_maps",
    "synth.synth_video_s": "synth.synth_video",
    "windowing.write_features_s": "windowing.write_features",
    "checkpoint.save_s": "checkpoint.save",
    "harness.run_experiment_s": "harness.run_experiment",
    "harness.report_s": "harness.report",
}
# metric -> (span, count key): sums a work count of that span
_COUNTS = {
    "training.epochs": ("training.train", "epochs"),
    "transformer.forward_windows": ("transformer.forward", "windows"),
    "smoothing.frames": ("smoothing.smooth", "frames"),
    "windowing.bytes_read": ("windowing.read_features", "bytes"),
    "synth.frames": ("synth.synth_video", "frames"),
    "windowing.bytes_written": ("windowing.write_features", "bytes"),
}
# metric -> span whose calls it counts
_CALLS = {
    "transformer.backward_calls": "transformer.backward",
    "transformer.forward_calls": "transformer.forward",
}
# metrics that rest on each span (for reporting absent layers)
_SPAN_OF = {
    **_SELF_TIME,
    **{m: s for m, (s, _) in _COUNTS.items()},
    **_CALLS,
    "training.steps": "transformer.backward",
    "training.step_ms": "training.train",
    "transformer.forward_us_per_window": "transformer.forward",
}


def absent_metrics(absent_spans: list[str]) -> list[str]:
    """Layer metrics that rest on a span no hook could be installed for."""
    return sorted(m for m, s in _SPAN_OF.items() if s in absent_spans)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every layer metric except trace.overhead_s, from one iteration's spans."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, span in _SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s.name == span)
    for metric, (span, key) in _COUNTS.items():
        out[metric] = sum(s.counts.get(key, 0) for s in spans if s.name == span)
    for metric, span in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == span)

    def in_train(s: Span, name: str) -> bool:
        return s.name == name and s.parent is not None and spans[s.parent].name == "training.train"

    steps = sum(1 for s in spans if in_train(s, "transformer.backward"))
    train_s = sum(s.duration for s in spans if s.name == "training.train")
    validate_s = sum(s.duration for s in spans if in_train(s, "training.evaluate"))
    out["training.steps"] = steps
    out["training.step_ms"] = 1e3 * (train_s - validate_s) / steps if steps else 0.0
    windows = out["transformer.forward_windows"]
    out["transformer.forward_us_per_window"] = (
        1e6 * out["transformer.forward_s"] / windows if windows else 0.0
    )
    return out
