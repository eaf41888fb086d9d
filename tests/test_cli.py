import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fakeseg import (
    FeatureSequence,
    ScoreMap,
    SegmentationMap,
    SequenceClassifier,
    TransformerConfig,
    save_checkpoint,
    write_features,
)
from fakeseg.harness.cli import build_parser, main
from fakeseg.injection import dataset_stats, read_plans, read_videos
from helpers import micro_config_dict


def _write_config(tmp_path, **overrides) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(micro_config_dict(**overrides)))
    return path


def _write_videos(tmp_path, lengths, prefix="v") -> Path:
    path = tmp_path / "videos.jsonl"
    with open(path, "w") as fh:
        for i, t in enumerate(lengths):
            fh.write(json.dumps({"id": f"{prefix}{i}", "length": t}) + "\n")
    return path


def test_stagewise_pipeline(tmp_path, capsys):
    config = _write_config(tmp_path)
    videos = _write_videos(tmp_path, [260, 270, 280, 290])
    plans = tmp_path / "plans.jsonl"
    stats = tmp_path / "stats.json"
    assert main(["plan", "--config", str(config), "--videos", str(videos),
                 "--out", str(plans), "--stats", str(stats)]) == 0
    assert len(plans.read_text().splitlines()) == 4
    expected = dataset_stats([plan for _, plan in read_plans(plans)], read_videos(videos))
    assert stats.read_text() == json.dumps(dataclasses.asdict(expected), sort_keys=True) + "\n"

    feat_dir = tmp_path / "feats"
    assert main(["synth", "--config", str(config), "--plans", str(plans),
                 "--out-dir", str(feat_dir)]) == 0
    assert len(list(feat_dir.glob("*.feat"))) == 4

    # train on a synthesized split layout
    for split, n in (("train", 4), ("val", 2)):
        split_videos = _write_videos(tmp_path, [260] * n, prefix=split)
        split_plans = tmp_path / f"{split}.jsonl"
        main(["plan", "--config", str(config), "--videos", str(split_videos),
              "--out", str(split_plans)])
        main(["synth", "--config", str(config), "--plans", str(split_plans),
              "--out-dir", str(tmp_path / split)])
    model_path = tmp_path / "model.tfkm"
    history_path = tmp_path / "history.json"
    assert main(["train", "--config", str(config), "--train-dir", str(tmp_path / "train"),
                 "--val-dir", str(tmp_path / "val"), "--out", str(model_path),
                 "--history", str(history_path)]) == 0
    assert model_path.exists() and history_path.exists()

    scores_dir = tmp_path / "scores"
    assert main(["predict", "--config", str(config), "--model", str(model_path),
                 "--features", str(feat_dir), "--out-dir", str(scores_dir)]) == 0
    score_files = sorted(scores_dir.glob("*.scores.json"))
    assert len(score_files) == 4

    # eval needs gt maps: derive them from the label siblings
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    for feat in feat_dir.glob("*.feat"):
        labels = (feat.parent / (feat.name + ".labels")).read_text()
        (gt_dir / f"{feat.stem}.map").write_text(labels)
    report_prefix = tmp_path / "report"
    assert main(["eval", "--config", str(config), "--gt-dir", str(gt_dir),
                 "--scores-dir", str(scores_dir), "--out", str(report_prefix)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["num_videos"] == 4
    assert 0.0 <= report["aggregate"]["iou_smoothed"] <= 1.0

    # re-render tables from the JSON
    assert main(["report", "--report", str(tmp_path / "report.json"),
                 "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again.txt").read_text() == (tmp_path / "report.txt").read_text()


def test_smooth_command_map_and_scores(tmp_path):
    map_in = tmp_path / "in.map"
    map_in.write_text("RRRRFRRRR\n")
    map_out = tmp_path / "out.map"
    assert main(["smooth", "--k", "2", "--input", str(map_in), "--output", str(map_out)]) == 0
    assert map_out.read_text() == "RRRRRRRRR\n"

    scores_in = tmp_path / "in.scores.json"
    scores_in.write_text(ScoreMap([0.1, 0.1, 0.9, 0.1, 0.1]).to_json())
    scores_out = tmp_path / "out2.map"
    assert main(["smooth", "--k", "2", "--threshold", "0.5",
                 "--input", str(scores_in), "--output", str(scores_out)]) == 0
    assert scores_out.read_text() == "RRRRR\n"


def test_run_command(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config), "--run-dir", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out
    assert (tmp_path / "run" / "report.json").exists()


def test_run_dir_resolves_against_env_root(tmp_path, monkeypatch):
    config = _write_config(tmp_path)
    monkeypatch.setenv("FAKESEG_RUN_ROOT", str(tmp_path / "root"))
    assert main(["run", "--config", str(config), "--run-dir", "exp1"]) == 0
    assert (tmp_path / "root" / "exp1" / "report.json").exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": {"mode": "three"}}))
    assert main(["run", "--config", str(bad), "--run-dir", str(tmp_path / "r")]) == 2
    assert "config error" in capsys.readouterr().err


def test_stage_failure_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, dataset={"features_dir": str(tmp_path / "missing")})
    assert main(["run", "--config", str(cfg), "--run-dir", str(tmp_path / "r")]) == 3
    assert "stage 'train' failed" in capsys.readouterr().err


def test_other_errors_exit_code(tmp_path, capsys):
    assert main(["predict", "--config", str(_write_config(tmp_path)),
                 "--model", str(tmp_path / "none.tfkm"),
                 "--features", str(tmp_path), "--out-dir", str(tmp_path / "o")]) == 3


def test_predict_on_an_empty_directory_fails(tmp_path, capsys):
    model_path = tmp_path / "model.tfkm"
    model_cfg = TransformerConfig(input_dim=4, window=5, num_heads=1, head_dim=4,
                                  ff_hidden=8, mlp_hidden=(8,))
    save_checkpoint(model_path, SequenceClassifier.initialize(model_cfg, seed=0))
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["predict", "--config", str(_write_config(tmp_path)), "--model", str(model_path),
                 "--features", str(empty), "--out-dir", str(tmp_path / "o")]) == 3
    assert f"no .feat files in {empty}" in capsys.readouterr().err


def test_predict_names_a_video_shorter_than_the_window(tmp_path, capsys):
    model_path = tmp_path / "model.tfkm"
    model_cfg = TransformerConfig(input_dim=4, window=5, num_heads=1, head_dim=4,
                                  ff_hidden=8, mlp_hidden=(8,))
    save_checkpoint(model_path, SequenceClassifier.initialize(model_cfg, seed=0))
    feats = tmp_path / "feats"
    feats.mkdir()
    write_features(feats / "short.feat",
                   FeatureSequence("short", np.zeros((3, 4), np.float32)))
    assert main(["predict", "--config", str(_write_config(tmp_path)), "--model", str(model_path),
                 "--features", str(feats), "--out-dir", str(tmp_path / "o")]) == 3
    assert "video 'short' has 3 frames, fewer than the window of 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "features, message",
    [
        (np.full((20, 4), np.nan, np.float32), "video 'bad' has non-finite features"),
        (np.zeros((20, 8), np.float32), "video 'bad' has 8-dim features, the model takes 4"),
    ],
    ids=["nan", "dim"],
)
def test_predict_names_a_video_with_bad_features(tmp_path, capsys, features, message):
    model_path = tmp_path / "model.tfkm"
    model_cfg = TransformerConfig(input_dim=4, window=5, num_heads=1, head_dim=4,
                                  ff_hidden=8, mlp_hidden=(8,))
    save_checkpoint(model_path, SequenceClassifier.initialize(model_cfg, seed=0))
    feats = tmp_path / "feats"
    feats.mkdir()
    write_features(feats / "bad.feat", FeatureSequence("bad", features))
    assert main(["predict", "--config", str(_write_config(tmp_path)), "--model", str(model_path),
                 "--features", str(feats), "--out-dir", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err


def test_predict_checks_the_config_overlap_against_the_checkpoint(tmp_path, capsys):
    """A config overlap of 4 does not fit a window-3 model: exit 2, naming both
    files, before any feature file is read (the features path does not exist)."""
    model_path = tmp_path / "model.tfkm"
    model_cfg = TransformerConfig(input_dim=4, window=3, num_heads=1, head_dim=4,
                                  ff_hidden=8, mlp_hidden=(8,))
    save_checkpoint(model_path, SequenceClassifier.initialize(model_cfg, seed=0))
    config = tmp_path / "config.json"
    config.write_text("{}")
    assert main(["predict", "--config", str(config), "--model", str(model_path),
                 "--features", str(tmp_path / "missing"), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "eval.overlap (4)" in err and "window (3)" in err
    assert str(config) in err and str(model_path) in err
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_commands(tmp_path):
    config = _write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    out1 = tmp_path / "lengths"
    assert main(["sweep-lengths", "--config", str(config), "--model", str(run_dir / "model.tfkm"),
                 "--lengths", "25,100", "--num-videos", "2", "--video-length", "400",
                 "--out", str(out1)]) == 0
    rows = json.loads((tmp_path / "lengths.json").read_text())
    assert [r["length_frames"] for r in rows] == [25, 100]
    assert (tmp_path / "lengths.csv").exists()

    out2 = tmp_path / "grid"
    assert main(["sweep-window", "--config", str(config),
                 "--windows", "5", "--overlaps", "0,4", "--out", str(out2)]) == 0
    rows = json.loads((tmp_path / "grid.json").read_text())
    assert len(rows) == 2
    assert all(r["status"] == "ok" for r in rows)
    # the window sweep writes its table only
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "grid.csv", "grid.json", "lengths.csv", "lengths.json", "run"]


def test_a_run_into_a_used_directory_exits_3_and_leaves_it(tmp_path, capsys):
    config = _write_config(tmp_path)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "notes.txt").write_text("mine\n")
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 3
    assert f"error: FileExistsError: run directory {run_dir} is not empty" in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == ["notes.txt"] and (run_dir / "notes.txt").read_text() == "mine\n"


_EVAL = "eval --config c.json --gt-dir gt --scores-dir scores --out report"
_BAD_INPUTS = {  # files to write, command, the file it must name, what is wrong with it
    "smooth-scores": ({"in.json": '{"scores": [0.1, NaN, 0.9]}'},
                      "smooth --threshold 0.5 --input in.json --output out.map", "in.json",
                      "scores must be finite"),
    "smooth-map": ({"in.map": "RRXF\n"}, "smooth --input in.map --output out.map", "in.map",
                   "invalid characters"),
    "eval-scores": ({"c.json": "{}", "gt/a.map": "RF\n", "scores/a.scores.json": '{"scores": [NaN, 0.5]}'},
                    _EVAL, "scores/a.scores.json", "scores must be finite"),
    "eval-map": ({"c.json": "{}", "gt/a.map": "RX\n", "scores/a.scores.json": '{"scores": [0.1, 0.9]}'},
                 _EVAL, "gt/a.map", "invalid characters"),
    "plan-videos": ({"c.json": "{}", "v.jsonl": '{"id": "v0", "length": 300}\n{"id": "v1"}\n'},
                    "plan --config c.json --videos v.jsonl --out p.jsonl", "v.jsonl",
                    "line 2: missing key 'length'"),
    "synth-plans": ({"c.json": "{}", "p.jsonl": '{"id": "v0", "length": 300}\n'},
                    "synth --config c.json --plans p.jsonl --out-dir f",
                    "p.jsonl", "line 1: missing key 'segments'"),
    "report": ({"r.json": '{"per_video": []}'}, "report --report r.json --out again", "r.json",
               "missing key 'aggregate'"),
    "report-json": ({"r.json": "{not json"}, "report --report r.json --out again", "r.json",
                    "Expecting property name"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_cli_inputs_name_their_file(tmp_path, monkeypatch, capsys, case):
    files, command, bad, detail = _BAD_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 3
    assert f"error: ValueError: {bad}: {detail}" in capsys.readouterr().err


_READ_AS_WRITTEN = {  # files to write, command, the file it must name, what is wrong with it
    "plan-repeated-id": ({"c.json": "{}", "v.jsonl": '{"id": "a", "length": 300}\n{"id": "a", "length": 320}\n'},
                         "plan --config c.json --videos v.jsonl --out p.jsonl --stats s.json", "v.jsonl",
                         "line 2: repeated video id 'a'"),
    "plan-float-length": ({"c.json": "{}", "v.jsonl": '{"id": "a", "length": 300.7}\n'},
                          "plan --config c.json --videos v.jsonl --out p.jsonl", "v.jsonl",
                          "line 1: length must be an integer, got 300.7"),
    "plan-integer-id": ({"c.json": "{}", "v.jsonl": '{"id": "5", "length": 300}\n{"id": 5, "length": 320}\n'},
                        "plan --config c.json --videos v.jsonl --out p.jsonl", "v.jsonl",
                        "line 2: id must be a non-empty string, got 5"),
    "synth-repeated-id": ({"c.json": "{}", "p.jsonl": '{"id": "a", "length": 300, "segments": [[10, 125]]}\n' * 2},
                          "synth --config c.json --plans p.jsonl --out-dir f", "p.jsonl",
                          "line 2: repeated video id 'a'"),
    "synth-float-segment": ({"c.json": "{}", "p.jsonl": '{"id": "a", "length": 300, "segments": [[10.9, 125]]}\n'},
                            "synth --config c.json --plans p.jsonl --out-dir f", "p.jsonl",
                            "video 'a': segments must be [start, length] integer pairs"),
    "synth-segment-past-the-end": ({"c.json": "{}", "p.jsonl": '{"id": "a", "length": 300, "segments": [[10, 125]]}\n'
                                                            '{"id": "b", "length": 300, "segments": [[290, 50]]}\n'},
                                   "synth --config c.json --plans p.jsonl --out-dir f", "p.jsonl",
                                   "segment (290, 50) exceeds video length 300 in plan for 'b'"),
    "eval-bool-score": ({"c.json": "{}", "gt/a.map": "RF\n", "scores/a.scores.json": '{"scores": [0.5, true]}'},
                        _EVAL, "scores/a.scores.json", 'score JSON "scores" must hold numbers only'),
    "smooth-string-scores": ({"in.json": '{"scores": ["0.5", "1e-1"]}'},
                             "smooth --threshold 0.5 --input in.json --output out.map", "in.json",
                             'score JSON "scores" must hold numbers only'),
}


@pytest.mark.parametrize("case", sorted(_READ_AS_WRITTEN))
def test_cli_reads_videos_plans_and_scores_as_written(tmp_path, monkeypatch, capsys, case):
    files, command, bad, detail = _READ_AS_WRITTEN[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 3
    assert f"error: ValueError: {bad}: {detail}" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == sorted(files)


def test_run_rejects_a_model_section_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**micro_config_dict(), "model": [1]}))
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    assert "config error: section 'model' must be an object" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [(["sweep-lengths", "--lengths", ",", "--model", "m.tfkm"], "--lengths"),
     (["sweep-lengths", "--lengths", "25", "--num-videos", "0", "--model", "m.tfkm"], "--num-videos"),
     (["sweep-lengths", "--lengths", "25", "--num-videos", "-1", "--model", "m.tfkm"], "--num-videos"),
     (["sweep-window", "--windows", "", "--overlaps", "0"], "--windows"),
     (["sweep-window", "--windows", "5", "--overlaps", " , "], "--overlaps"),
     (["sweep-window", "--windows", "0", "--overlaps", "0"], "--windows"),
     (["sweep-window", "--windows", "5,-2", "--overlaps", "4"], "--windows"),
     (["sweep-window", "--windows", "5", "--overlaps", "-1"], "--overlaps"),
     (["sweep-lengths", "--lengths", "0", "--model", "m.tfkm"], "--lengths"),
     (["sweep-lengths", "--lengths", "25", "--video-length", "-5", "--model", "m.tfkm"], "--video-length"),
     (["sweep-lengths", "--lengths", "25", "--video-length", "0", "--model", "m.tfkm"], "--video-length")],
    ids=["no-lengths", "zero-videos", "negative-videos", "no-windows", "no-overlaps", "zero-window",
         "negative-window", "negative-overlap", "zero-length", "negative-video-length", "zero-video-length"],
)
def test_a_sweep_with_nothing_to_sweep_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    (tmp_path / "c.json").write_text(json.dumps(micro_config_dict()))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", "c.json", "--out", "table"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("setting", [{"temporal_rho": 1.5}, {"noise_std": 0}], ids=["rho", "noise"])
def test_run_rejects_invalid_synth_settings_before_writing(tmp_path, capsys, setting):
    config = _write_config(tmp_path, dataset=setting)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: invalid section 'dataset'" in err
    assert next(iter(setting)) in err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "section, setting",
    [("dataset", {"noise_std": math.nan}), ("dataset", {"separation": math.inf}),
     ("dataset", {"separation": math.nan}), ("train", {"learning_rate": math.nan}),
     ("train", {"learning_rate": math.inf})],
    ids=["noise-nan", "separation-inf", "separation-nan", "lr-nan", "lr-inf"],
)
def test_run_rejects_non_finite_settings_before_writing(tmp_path, capsys, section, setting):
    config = _write_config(tmp_path, **{section: setting})
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    assert f"config error: invalid section {section!r}: {next(iter(setting))}" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("eval", "smooth_k", math.nan), ("eval", "overlap", 1.5), ("train", "max_epochs", math.inf),
     ("train", "batch_size", True), ("dataset", "seed", 1.5), ("model", "mlp_hidden", [16.0])],
    ids=["smooth_k-nan", "overlap-float", "max_epochs-inf", "batch_size-bool", "seed-float", "mlp_hidden-float"],
)
def test_run_rejects_a_non_integer_setting_before_writing(tmp_path, capsys, section, key, value):
    config = _write_config(tmp_path, **{section: {key: value}})
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
    assert f"config error: {section}.{key} must be an integer" in capsys.readouterr().err
    assert not run_dir.exists()


def test_report_without_videos_is_rejected_before_writing(tmp_path, capsys):
    report = {"per_video": [], "aggregate": {}, "video_level": {}, "baseline": {},
              "threshold": 0.5, "smooth_k": 7, "num_videos": 0}
    (tmp_path / "r.json").write_text(json.dumps(report))
    out = tmp_path / "again"
    assert main(["report", "--report", str(tmp_path / "r.json"), "--out", str(out)]) == 3
    assert f"error: ValueError: {tmp_path / 'r.json'}: report has no videos" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "r.json"]


@pytest.mark.parametrize("flags", [["--threshold", "1.5"], ["--threshold", "nan"],
                                   ["--threshold", "-3"], ["--k", "-1"]],
                         ids=["threshold-above-1", "threshold-nan", "threshold-negative", "k-negative"])
def test_smooth_rejects_an_out_of_range_setting_as_a_usage_error(tmp_path, capsys, flags):
    scores_in = tmp_path / "in.scores.json"
    scores_in.write_text(ScoreMap([0.1, 0.9, 0.9]).to_json())
    out = tmp_path / "out.map"
    with pytest.raises(SystemExit) as exc:
        main(["smooth", *flags, "--input", str(scores_in), "--output", str(out)])
    assert exc.value.code == 2
    assert f"argument {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_predict_scores_a_single_feature_file(tmp_path):
    model_path = tmp_path / "model.tfkm"
    model_cfg = TransformerConfig(input_dim=4, window=5, num_heads=1, head_dim=4,
                                  ff_hidden=8, mlp_hidden=(8,))
    save_checkpoint(model_path, SequenceClassifier.initialize(model_cfg, seed=0))
    feats = np.random.default_rng(0).standard_normal((20, 4)).astype(np.float32)
    write_features(tmp_path / "one.feat", FeatureSequence("one", feats))
    write_features(tmp_path / "other.feat", FeatureSequence("other", feats))
    out = tmp_path / "scores"
    assert main(["predict", "--config", str(_write_config(tmp_path)), "--model", str(model_path),
                 "--features", str(tmp_path / "one.feat"), "--out-dir", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["one.scores.json"]
    assert len(ScoreMap.from_json((out / "one.scores.json").read_text()).scores) == 20


@pytest.mark.parametrize("features_dir", [False, True], ids=["synthesized", "features_dir"])
def test_synth_rejects_an_invalid_generator_setting(tmp_path, capsys, features_dir):
    dataset = {"noise_std": 0, **({"features_dir": str(tmp_path / "feats")} if features_dir else {})}
    config = _write_config(tmp_path, dataset=dataset)
    plans = tmp_path / "p.jsonl"
    plans.write_text('{"id": "v0", "length": 300, "segments": [[10, 20]]}\n')
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--plans", str(plans), "--out-dir", str(out)]) == 2
    assert "config error: invalid section 'dataset': noise_std" in capsys.readouterr().err
    assert not out.exists()


def _clip(vid: str, frames: int = 40, dim: int = 8, labeled: bool = True, nan: bool = False):
    feats = np.random.default_rng(len(vid)).standard_normal((frames, dim)).astype(np.float32)
    if nan:
        feats[frames // 2, 0] = np.nan
    labels = SegmentationMap(np.arange(frames) >= frames // 2) if labeled else None
    return FeatureSequence(vid, feats, labels)


_BAD_VIDEOS = {  # split, the bad video, what the error says about it
    "test-nan": ("test", _clip("bad", nan=True), "has non-finite features"),
    "test-short": ("test", _clip("bad", frames=3), "has 3 frames, fewer than the window of 5"),
    "test-dim": ("test", _clip("bad", dim=16), "has 16-dim features, the model takes 8"),
    "test-unlabeled": ("test", _clip("bad", labeled=False), "has no labels"),
    "train-nan": ("train", _clip("bad", nan=True), "has non-finite features"),
    "train-dim": ("train", _clip("bad", dim=16), "has 16-dim features, the model takes 8"),
    "val-unlabeled": ("val", _clip("bad", labeled=False), "has no labels"),
}


@pytest.mark.parametrize("case", list(_BAD_VIDEOS))
def test_run_names_a_bad_video_in_features_dir_before_training(tmp_path, capsys, case):
    split, bad, detail = _BAD_VIDEOS[case]
    feats = tmp_path / "feats"
    for name in ("train", "val", "test"):
        (feats / name).mkdir(parents=True)
        for i in range(2):
            write_features(feats / name / f"{name}{i}.feat", _clip(f"{name}{i}"))
    write_features(feats / split / "bad.feat", bad)
    config = _write_config(tmp_path, dataset={"features_dir": str(feats)})
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 3
    assert f"stage 'train' failed: video 'bad' {detail}" in capsys.readouterr().err
    assert [p.name for p in run_dir.iterdir()] == ["config.json"]


def test_run_finishes_when_the_test_split_has_no_frame_auc(tmp_path, capsys):
    """All-Real test videos leave the aggregate AUC undefined: the run
    still exits 0 and prints it as `n/a`, as report.txt shows it."""
    feats = tmp_path / "feats"
    for name in ("train", "val", "test"):
        (feats / name).mkdir(parents=True)
        for i in range(2):
            clip = _clip(f"{name}{i}")
            if name == "test":
                clip = FeatureSequence(clip.video_id, clip.features, SegmentationMap(np.zeros(clip.num_frames, bool)))
            write_features(feats / name / f"{name}{i}.feat", clip)
    config = _write_config(tmp_path, dataset={"features_dir": str(feats)})
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 0
    assert ", AUC n/a\n" in capsys.readouterr().out
    assert json.loads((run_dir / "report.json").read_text())["aggregate"]["auc"] is None
    assert "n/a" in (run_dir / "report.txt").read_text()


_SETTING_FLAGS = {"--mode", "--seed", "--dim", "--separation", "--temporal-rho", "--noise-std",
                  "--overlap", "--frame-mode", "--k", "--threshold"}


def test_only_smooth_declares_setting_flags():
    # experiment settings come from --config; `smooth` works on one file outside a run
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        if name != "smooth":
            assert not flags & _SETTING_FLAGS, name
