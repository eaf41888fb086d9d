import dataclasses
import json
import math
import struct
from pathlib import Path

import pytest

from fakeseg import SequenceClassifier, load_checkpoint, save_checkpoint
from fakeseg.harness import ConfigError, load_experiment_config
from fakeseg.harness.config import parse_experiment_config
from fakeseg.injection import ONE_SEGMENT_MIN_FRAMES, TWO_SEGMENT_MIN_FRAMES
from fakeseg.windowing import FRAME_MODES
from helpers import micro_config_dict

QUICKSTART = Path(__file__).parent.parent / "configs" / "quickstart.json"


def test_quickstart_config_loads():
    cfg = load_experiment_config(QUICKSTART)
    assert cfg.dataset.num_train_videos + cfg.dataset.num_val_videos == 20
    assert cfg.dataset.num_test_videos == 10
    assert cfg.model.window == 5
    assert cfg.eval.overlap == 4
    assert cfg.eval.smooth_k == 7


def test_model_input_dim_defaults_to_feature_dim():
    cfg = parse_experiment_config(micro_config_dict())
    assert cfg.model.input_dim == cfg.dataset.feature_dim


def test_unknown_top_level_section_rejected():
    data = micro_config_dict()
    data["extra"] = {}
    with pytest.raises(ConfigError, match="top-level"):
        parse_experiment_config(data)


def test_unknown_section_key_rejected():
    data = micro_config_dict(dataset={"bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        parse_experiment_config(data)
    data = micro_config_dict(model={"bogus": 1})
    with pytest.raises(ConfigError, match="model"):
        parse_experiment_config(data)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="dataset.mode must be 'one' or 'two', got 'three'"):
        parse_experiment_config(micro_config_dict(dataset={"mode": "three"}))
    with pytest.raises(ConfigError, match="train"):
        parse_experiment_config(micro_config_dict(train={"learning_rate": -1}))
    with pytest.raises(ConfigError, match="overlap"):
        parse_experiment_config(micro_config_dict(eval={"overlap": 5}))
    with pytest.raises(ConfigError, match="input_dim"):
        parse_experiment_config(micro_config_dict(model={"input_dim": 99}))


@pytest.mark.parametrize("mode, floor", [("one", ONE_SEGMENT_MIN_FRAMES), ("two", TWO_SEGMENT_MIN_FRAMES)])
def test_dataset_min_length_is_the_planners_floor(mode, floor):
    lengths = {"mode": mode, "max_length": floor + 50}
    assert parse_experiment_config(micro_config_dict(dataset={**lengths, "min_length": floor})).dataset.mode == mode
    with pytest.raises(ConfigError, match=f"dataset.min_length must be >= {floor} for mode '{mode}' so planned"):
        parse_experiment_config(micro_config_dict(dataset={**lengths, "min_length": floor - 1}))


def test_eval_frame_mode_is_one_of_the_projections():
    for mode in FRAME_MODES:
        assert parse_experiment_config(micro_config_dict(eval={"frame_mode": mode})).eval.frame_mode == mode
    with pytest.raises(ConfigError, match="eval.frame_mode must be one of mean/max/center"):
        parse_experiment_config(micro_config_dict(eval={"frame_mode": "median"}))


def test_sections_get_defaults():
    cfg = parse_experiment_config({"dataset": {"feature_dim": 4, "min_length": 250, "max_length": 300}})
    assert cfg.train.learning_rate == pytest.approx(1e-4)
    assert cfg.train.early_stop_patience == 10
    assert cfg.eval.smooth_k == 7
    assert cfg.model.input_dim == 4


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_experiment_config(bad)


def test_config_round_trip():
    cfg = parse_experiment_config(micro_config_dict())
    again = parse_experiment_config(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_synth_settings_are_checked_with_or_without_features():
    # `fakeseg synth` reads the generator fields of any config, features_dir or not
    for setting in ({"temporal_rho": 1.5}, {"noise_std": 0.0}, {"separation": -1.0}):
        for dataset in (setting, {**setting, "features_dir": "feats"}):
            with pytest.raises(ConfigError, match=next(iter(setting))):
                parse_experiment_config(micro_config_dict(dataset=dataset))
    ds = parse_experiment_config(micro_config_dict()).dataset
    synth = ds.synth
    assert (synth.dim, synth.separation, synth.temporal_rho, synth.noise_std, synth.seed) == (
        ds.feature_dim, ds.separation, ds.temporal_rho, ds.noise_std, ds.seed)


_INT_FIELDS = {
    "dataset": ("seed", "num_train_videos", "num_val_videos", "num_test_videos", "num_real_test_videos",
                "min_length", "max_length", "feature_dim"),
    "model": ("input_dim", "window", "num_blocks", "num_heads", "head_dim", "ff_hidden"),
    "train": ("batch_size", "max_epochs", "early_stop_patience", "seed"),
    "eval": ("smooth_k", "overlap"),
}
_NON_INTS = (
    [(section, key, 2.5) for section, keys in _INT_FIELDS.items() for key in keys]
    + [(section, key, True) for section, keys in _INT_FIELDS.items() for key in keys]
    + [("eval", "smooth_k", math.nan), ("eval", "overlap", 1.5), ("train", "max_epochs", math.inf),
       ("train", "batch_size", False), ("dataset", "seed", 1.5),
       ("model", "window", 5.0), ("model", "num_heads", 2.0), ("model", "ff_hidden", "8"),
       ("model", "mlp_hidden", [64.0]), ("model", "mlp_hidden", [8, True]), ("model", "mlp_hidden", ["8"])]
)


@pytest.mark.parametrize("section, key, value", _NON_INTS, ids=lambda v: repr(v))
def test_a_non_integer_setting_is_a_config_error_naming_it(section, key, value):
    data = micro_config_dict(**{section: {key: value}})
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be an integer"):
        parse_experiment_config(data)


def test_integer_settings_still_load():
    cfg = parse_experiment_config(micro_config_dict(model={"ff_hidden": None, "mlp_hidden": [8, 4]}))
    assert cfg.model.ff_hidden is None and cfg.model.mlp_hidden == (8, 4)
    assert parse_experiment_config(micro_config_dict(dataset={"seed": 2**40})).dataset.seed == 2**40


_MISTYPED = [  # section, key, value, what the error asks for
    ("train", "learning_rate", True, "a number"), ("train", "learning_rate", "1e-3", "a number"),
    ("dataset", "separation", False, "a number"), ("eval", "threshold", None, "a number"),
    ("model", "dropout", False, "a number"), ("model", "dropout", "0.1", "a number"),
    ("model", "use_positional", 2, "true or false"), ("model", "use_scale_shift_head", "true", "true or false"),
    ("model", "use_positional", None, "true or false"),
    ("dataset", "mode", 1, "a string"), ("dataset", "features_dir", 3, "a string"),
    ("eval", "frame_mode", None, "a string"), ("eval", "frame_mode", ["mean"], "a string"),
]


@pytest.mark.parametrize("section, key, value, kind", _MISTYPED, ids=repr)
def test_a_float_bool_or_str_setting_of_another_type_is_a_config_error(section, key, value, kind):
    message = rf"^{section}\.{key} must be {kind}, got "
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(micro_config_dict(**{section: {key: value}}))


@pytest.mark.parametrize("section, key, value, kind", [m for m in _MISTYPED if m[0] == "model"], ids=repr)
def test_a_checkpoint_storing_a_float_or_bool_of_another_type_is_refused(tmp_path, section, key, value, kind):
    with pytest.raises(ValueError, match=rf"bad\.tfkm: invalid model config: model\.{key} must be {kind}, got "):
        load_checkpoint(_checkpoint_storing(tmp_path / "bad.tfkm", **{key: value}))


def test_number_bool_and_str_settings_still_load(tmp_path):
    cfg = parse_experiment_config(micro_config_dict(train={"learning_rate": 1}, model={"dropout": 0},
                                                    eval={"threshold": 1}, dataset={"features_dir": None}))
    assert (cfg.train.learning_rate, cfg.model.dropout, cfg.eval.threshold, cfg.dataset.features_dir) == (1, 0, 1, None)
    model = load_checkpoint(_checkpoint_storing(tmp_path / "ok.tfkm", dropout=0, use_positional=False))
    assert (model.config.dropout, model.config.use_positional) == (0, False)


@pytest.mark.parametrize("model", [[1], "x", None], ids=repr)
def test_a_model_section_that_is_not_an_object_is_a_config_error(model):
    with pytest.raises(ConfigError, match="^section 'model' must be an object$"):
        parse_experiment_config({**micro_config_dict(), "model": model})


def _checkpoint_storing(path: Path, **changes) -> Path:
    """A checkpoint of the micro config's model whose stored config has `changes`."""
    model = SequenceClassifier.initialize(parse_experiment_config(micro_config_dict()).model, seed=0)
    save_checkpoint(path, model)
    raw = path.read_bytes()
    (size,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps({**json.loads(raw[12 : 12 + size]), **changes}).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + size :])
    return path


@pytest.mark.parametrize(
    "key, value",
    [("num_blocks", True), ("num_heads", 1.0), ("mlp_hidden", [8.0]), ("window", "5"),
     ("ff_hidden", False), ("mlp_hidden", 8)],
    ids=repr,
)
def test_a_bad_model_value_fails_the_config_and_the_checkpoint_alike(tmp_path, key, value):
    message = rf"model\.{key} must be an integer"
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(micro_config_dict(model={key: value}))
    with pytest.raises(ValueError, match=rf"bad\.tfkm: invalid model config: {message}"):
        load_checkpoint(_checkpoint_storing(tmp_path / "bad.tfkm", **{key: value}))
