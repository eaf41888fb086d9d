"""Experiment configuration: a single JSON file, strictly validated.

Four sections: ``dataset`` (plan mode, seeds, video counts and lengths, or
an external feature directory), ``model`` (architecture), ``train``
(optimization), ``eval`` (smoothing offset, threshold, window overlap).
Unknown keys anywhere are rejected. Every section is read by
`fakeseg.transformer.config_kwargs`, as is a checkpoint's model config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..injection import MIN_FRAMES, PLANNERS
from ..synth import SynthConfig
from ..training import TrainConfig
from ..transformer import TransformerConfig, config_kwargs
from ..windowing import FRAME_MODES


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic dataset construction settings (or an external feature dir).

    When `features_dir` is set, it must contain train/, val/ and test/
    subdirectories of binary feature files with sibling label files, and
    the video counts and lengths are ignored. The generator fields, which
    `fakeseg synth` reads, are checked either way.
    """

    mode: str = "one"
    seed: int = 0
    num_train_videos: int = 16
    num_val_videos: int = 4
    num_test_videos: int = 10
    num_real_test_videos: int = 0
    min_length: int = 280
    max_length: int = 340
    feature_dim: int = 16
    separation: float = 6.0
    temporal_rho: float = 0.0
    noise_std: float = 1.0
    features_dir: str | None = None

    def __post_init__(self):
        if self.mode not in PLANNERS:
            raise ConfigError(f"dataset.mode must be {' or '.join(map(repr, PLANNERS))}, got {self.mode!r}")
        if self.features_dir is None:
            for name in ("num_train_videos", "num_val_videos", "num_test_videos"):
                if getattr(self, name) < 1:
                    raise ConfigError(f"dataset.{name} must be >= 1")
            if self.num_real_test_videos < 0:
                raise ConfigError("dataset.num_real_test_videos must be >= 0")
            if not (1 <= self.min_length <= self.max_length):
                raise ConfigError("dataset lengths must satisfy 1 <= min_length <= max_length")
            if self.min_length < MIN_FRAMES[self.mode]:
                raise ConfigError(
                    f"dataset.min_length must be >= {MIN_FRAMES[self.mode]} for mode {self.mode!r} "
                    f"so planned segments fit"
                )
        self.synth  # noqa: B018 - SynthConfig raises ValueError for invalid settings

    @property
    def synth(self) -> SynthConfig:
        """The feature generator's settings (dim, separation, temporal_rho, noise_std, seed)."""
        return SynthConfig(self.feature_dim, self.separation, self.temporal_rho, self.noise_std, self.seed)


@dataclass(frozen=True)
class EvalConfig:
    smooth_k: int = 7
    threshold: float = 0.5
    overlap: int = 4
    frame_mode: str = "mean"

    def __post_init__(self):
        if self.smooth_k < 0:
            raise ConfigError("eval.smooth_k must be >= 0")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("eval.threshold must lie in [0, 1]")
        if self.overlap < 0:
            raise ConfigError("eval.overlap must be >= 0")
        if self.frame_mode not in FRAME_MODES:
            raise ConfigError(f"eval.frame_mode must be one of {'/'.join(FRAME_MODES)}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: TransformerConfig
    train: TrainConfig
    eval: EvalConfig


_SECTIONS = ("dataset", "model", "train", "eval")


def _build_section(cls, data, section: str):
    try:
        kwargs = config_kwargs(cls, data, section)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {section!r}: {exc}") from exc


def parse_experiment_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")

    dataset = _build_section(DatasetConfig, data.get("dataset", {}), "dataset")

    model_data = data.get("model", {})
    if isinstance(model_data, dict):
        model_data = {"input_dim": dataset.feature_dim, **model_data}
    model = _build_section(TransformerConfig, model_data, "model")
    if dataset.features_dir is None and model.input_dim != dataset.feature_dim:
        raise ConfigError(
            f"model.input_dim ({model.input_dim}) must equal dataset.feature_dim "
            f"({dataset.feature_dim}) when features are synthesized"
        )

    train = _build_section(TrainConfig, data.get("train", {}), "train")
    eval_cfg = _build_section(EvalConfig, data.get("eval", {}), "eval")
    if eval_cfg.overlap >= model.window:
        raise ConfigError(
            f"eval.overlap ({eval_cfg.overlap}) must be smaller than model.window ({model.window})"
        )
    return ExperimentConfig(dataset=dataset, model=model, train=train, eval=eval_cfg)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_experiment_config(data)
