"""bench/memory.py end to end at 1,000 frames, a 4-video train split, 4
clips, two narrow widths, a narrow paper-scale step (its peak and its
time) and forward, and the quickstart step: every field it records is
filled."""

import hashlib
import importlib.util
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "memory.py"


def _memory_bench():
    spec = importlib.util.spec_from_file_location("bench_memory", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_memory_bench_runs_at_a_thousand_frames():
    memory = _memory_bench()
    result = memory.measure(rss_frames=(1000,), time_frames=1000, repeats=3, train_videos=(4, 260),
                            clips=(4, 300), pairs=2, sweep_widths=(8, 16), paper_widths=(16, 2, 8, 32),
                            rss_repeats=2)
    synth = result["synth_rss_mb"]["1000"]
    want = memory.synth_video(*memory._synth_args(1000)).features
    assert want.shape == (1000, 16) and synth["features_sha256"] == hashlib.sha256(want.tobytes()).hexdigest()
    rss = result["predict_rss_mb"]["1000"]
    assert len(rss["scores_sha256"]) == 64
    trained = result["train_rss_mb"]
    paper = result["paper_scale"]
    for child in (synth, rss, trained, paper):  # a fresh process's peak, its size after the imports, the rise
        assert child["repeats"] == len(child["runs"]) == 2
        for run in child["runs"]:
            assert 0 < run["import_mb"] <= run["peak_mb"]
            assert run["rise_mb"] == run["peak_mb"] - run["import_mb"]
        for key in ("peak_mb", "import_mb", "rise_mb"):  # each number is the median of the repeats
            assert child[key] == statistics.median(run[key] for run in child["runs"]) and child["iqr"][key] >= 0
    assert (trained["train_videos"], trained["val_videos"], trained["frames"]) == (4, 1, 260)
    assert 0 <= trained["fit_rise_mb"] <= trained["rise_mb"] and len(trained["model_sha256"]) == 64
    assert (paper["input_dim"], paper["num_heads"], paper["head_dim"], paper["ff_hidden"]) == (16, 2, 8, 32)
    assert (paper["num_blocks"], paper["batch"]) == (1, 64)
    assert 0 < paper["param_mb"] < paper["peak_mb"] and paper["ratio"] == paper["peak_mb"] / paper["param_mb"]
    assert len(paper["params_sha256"]) == 64
    step = result["paper_step_s"]  # one cold and PAPER_STEPS warm steps of the same model in a fresh process
    assert (step["input_dim"], step["num_heads"], step["head_dim"], step["ff_hidden"]) == (16, 2, 8, 32)
    assert (step["num_blocks"], step["batch"], step["steps"]) == (1, 64, memory.PAPER_STEPS)
    assert len(step["warm_s"]) == len(step["warm_faults"]) == memory.PAPER_STEPS and step["cold_s"] > 0
    assert step["median"] == statistics.median(step["warm_s"]) and step["iqr"] >= 0
    assert all(t > 0 for t in step["warm_s"]) and all(f >= 0 for f in [step["cold_faults"], *step["warm_faults"]])
    model, adam, batch, targets, rng = memory._paper_step_args(16, 2, 8, 32)
    for _ in range(1 + memory.PAPER_STEPS):
        memory._train_step(model, adam, batch, targets, rng)
    assert step["params_sha256"] == hashlib.sha256(model.flat.tobytes()).hexdigest()
    peaks = result["forward_peak_mib"]
    assert 0 < peaks["no_cache"] < peaks["cached"]
    step = result["step_peak_mib"]
    assert step["batch"] == 64 and 0 < step["forward"] < step["step"]
    cache = result["cache_kib"]
    assert cache["batch"] == 64 and 0 < cache["kib"] < 1024 * step["forward"]
    wide = result["paper_forward"]
    assert (wide["input_dim"], wide["num_heads"], wide["head_dim"], wide["ff_hidden"]) == (16, 2, 8, 32)
    assert (wide["num_blocks"], wide["batch"]) == (1, 256)
    assert wide["no_cache_mib"] > 0 and len(wide["logits_sha256"]) == 64
    clip = result["predict_clip_peak_kib"]
    assert clip["frames"] == 300 and clip["kib"] > 0
    model, ev = memory._quickstart_model()
    seq = memory.synth_video(*memory._synth_args(300, "clip0000"))
    want = memory.predict_video(model, seq, ev.overlap, mode=ev.frame_mode).scores
    assert clip["scores_sha256"] == hashlib.sha256(want.tobytes()).hexdigest()
    for timing in (result["predict_s"], result["synth_s"]):
        assert timing["frames"] == 1000 and timing["repeats"] == 3
        assert timing["median"] > 0 and timing["iqr"] >= 0
    clips = result["score_videos_s"]
    assert (clips["clips"], clips["frames"], clips["pairs"]) == (4, 300, 2) and len(clips["scores_sha256"]) == 64
    busy = result["predict_busy_s"]
    assert (busy["frames"], busy["pairs"]) == (1000, 2)
    for timing in (clips["serial"], clips["fanned"], busy["idle"], busy["busy"]):
        assert timing["median"] > 0 and timing["iqr"] >= 0
    assert clips["speedup"] > 0 and busy["ratio"] > 0
    sweep = result["blas_threads"]
    assert [row["input_dim"] for row in sweep["widths"]] == [8, 16]
    macs = [row["macs"] for row in sweep["widths"]]
    assert macs == [64 * 5 * 8 * 32, 64 * 5 * 16 * 64] and sweep["serial_macs"] in (0, *macs)
    assert all(row["one_thread_ms"] > 0 and row["two_threads_ms"] > 0 for row in sweep["widths"])
    assert sweep["in_use"] == memory.transformer.BLAS_SERIAL_MACS
    env = result["environment"]
    assert env["python"] and env["numpy"] and env["revision"] and isinstance(env["dirty"], bool)
    assert env["src_sha256"] == memory.src_sha256() and len(env["src_sha256"]) == 64
    assert set(env["openblas"]) == {"kernel", "threads"}
    # a desk-scale forward runs on one thread wherever the thread count can be set
    assert env["openblas"]["threads"] in (1, "unknown")


def test_memory_bench_numbers_its_file_one_past_the_highest(tmp_path):
    memory = _memory_bench()
    assert memory.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_12.json", "BENCH_x.json", "BENCH_3.json.bak"):
        (tmp_path / name).touch()
    assert memory.next_bench_path(tmp_path).name == "BENCH_13.json"


def test_the_source_digest_names_the_files_and_their_bytes_not_bytecode(tmp_path):
    memory = _memory_bench()
    (tmp_path / "harness").mkdir()
    (tmp_path / "a.py").write_bytes(b"x = 1\n")
    (tmp_path / "harness" / "b.py").write_bytes(b"y = 2\n")
    want = hashlib.sha256(b"a.py\0x = 1\nharness/b.py\0y = 2\n").hexdigest()
    assert memory.src_sha256(tmp_path) == want
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert memory.src_sha256(tmp_path) == want
    (tmp_path / "a.py").write_bytes(b"x = 2\n")
    assert memory.src_sha256(tmp_path) != want
