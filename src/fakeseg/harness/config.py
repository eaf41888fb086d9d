"""Experiment configuration: a single JSON file, strictly validated.

Four sections: ``dataset`` (plan mode, seeds, video counts and lengths, or
an external feature directory), ``model`` (architecture), ``train``
(optimization), ``eval`` (smoothing offset, threshold, window overlap).
Unknown keys anywhere are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from ..synth import SynthConfig
from ..training import TrainConfig
from ..transformer import TransformerConfig
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
        if self.mode not in ("one", "two"):
            raise ConfigError(f"dataset.mode must be 'one' or 'two', got {self.mode!r}")
        if self.features_dir is None:
            for name in ("num_train_videos", "num_val_videos", "num_test_videos"):
                if getattr(self, name) < 1:
                    raise ConfigError(f"dataset.{name} must be >= 1")
            if self.num_real_test_videos < 0:
                raise ConfigError("dataset.num_real_test_videos must be >= 0")
            if not (1 <= self.min_length <= self.max_length):
                raise ConfigError("dataset lengths must satisfy 1 <= min_length <= max_length")
            floor = 250 if self.mode == "one" else 500
            if self.min_length < floor:
                raise ConfigError(
                    f"dataset.min_length must be >= {floor} for mode {self.mode!r} "
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


def _check_ints(cls, data: dict, section: str) -> None:
    """ConfigError naming `section.key` for a value of an integer field of
    `cls` that is not an int, or a list entry of a tuple[int, ...] field
    that is not; a bool is not an int here."""
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        hint = hints.get(key)
        if hint == int | None and value is None:
            continue
        if hint == tuple[int, ...] and isinstance(value, list):
            values, what = value, "an integer list"
        elif hint in (int, int | None):
            values, what = [value], "an integer"
        else:
            continue
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")


def _build_section(cls, data: dict, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    _check_ints(cls, data, section)
    try:
        return cls(**data)
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

    model_data = dict(data.get("model", {}))
    if "input_dim" not in model_data:
        model_data["input_dim"] = dataset.feature_dim
    _check_ints(TransformerConfig, model_data, "model")
    try:
        model = TransformerConfig.from_dict(model_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section 'model': {exc}") from exc
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
