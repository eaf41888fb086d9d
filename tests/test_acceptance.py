"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from fakeseg import (
    BaselineParams,
    ScoreMap,
    SegmentationMap,
    SegmentPlan,
    SequenceClassifier,
    SmoothConfig,
    TransformerConfig,
    VideoSpec,
    expected_iou_baseline,
    frame_accuracy,
    frame_auc,
    iou,
    load_checkpoint,
    loss_and_grads,
    plan_one_segment,
    plan_two_segments,
    render_map,
    smooth,
    smooth_scores,
)
from fakeseg.harness import run_experiment, sweep_segment_lengths
from fakeseg.harness.config import parse_experiment_config
from fakeseg.injection import ONE_SEGMENT_MIN_FRAMES, TWO_SEGMENT_MIN_FRAMES
from helpers import ScaleShift, fd_gradcheck, micro_config_dict, pairwise_auc, scale_shift_backward, scale_shift_forward

REPO = Path(__file__).parent.parent


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_analytic_baseline():
    t0 = time.perf_counter()
    exact = all(
        expected_iou_baseline(BaselineParams(f=k / 10, p=0.5)) == 1 / 3 for k in range(11)
    )

    # Monte Carlo oracle: 10^4 random predictions against a fixed map, T = 10^4
    rng = np.random.default_rng(2024)
    t, trials, chunk = 10_000, 10_000, 1_000
    gt_real = np.zeros(t, dtype=bool)
    gt_real[: round(0.757 * t)] = True
    agree = 0
    for _ in range(trials // chunk):
        preds = rng.random((chunk, t)) < 0.5
        agree += int((preds == gt_real).sum())
    alpha = agree / (t * trials)
    mc = alpha / (2 - alpha)
    elapsed = time.perf_counter() - t0

    ok = exact and abs(mc - 1 / 3) < 0.005 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"baseline exactly 1/3 on f-grid ({exact}), Monte Carlo {mc:.5f} within 0.005, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_metric_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 300))
        a = SegmentationMap(rng.integers(0, 2, size=t))
        b = SegmentationMap(rng.integers(0, 2, size=t))
        acc = frame_accuracy(a, b)
        worst = max(worst, abs(iou(a, b) - acc / (2 - acc)))
    identity_ok = worst < 1e-12

    auc_ok = True
    for trial in range(40):
        t = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=t)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(t)
        if trial % 2:
            scores = np.round(scores, 1)
        got = frame_auc(SegmentationMap(labels), ScoreMap(scores))
        if got != pairwise_auc(labels, scores):
            auc_ok = False
            break

    _verdict(
        2,
        identity_ok and auc_ok,
        f"IoU = acc/(2-acc) on 1000 pairs (worst gap {worst:.2e} < 1e-12), "
        f"AUC equals pairwise oracle exactly for T <= 200 ({auc_ok})",
    )


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    cfg = TransformerConfig(
        input_dim=8, window=3, num_blocks=1, num_heads=2, head_dim=4,
        ff_hidden=16, mlp_hidden=(8,), dropout=0.1,
        use_positional=True, use_scale_shift_head=True,
    )
    model = SequenceClassifier.initialize(cfg, seed=1).astype(np.float64)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, cfg.window, cfg.input_dim))
    y = np.array([0, 1, 1, 0])
    _, _, grads = loss_and_grads(model, x, y)
    model_failures = fd_gradcheck(model, x, y, grads, rng, coords_per_tensor=5, rel_tol=1e-4)

    # standalone scale-shift layer
    xs = rng.standard_normal((6, 9))
    params = ScaleShift(gamma=rng.standard_normal(9), beta=rng.standard_normal(9))
    upstream = rng.standard_normal((6, 9))
    gx, gg, gb = scale_shift_backward(xs, params, upstream)
    ss_ok = True
    h = 1e-6
    for _ in range(10):
        i, j = int(rng.integers(0, 6)), int(rng.integers(0, 9))
        for target, analytic in (("x", gx[i, j]), ("gamma", gg[j]), ("beta", gb[j])):
            xp, gp, bp = xs.copy(), params.gamma.copy(), params.beta.copy()
            xm, gm, bm = xs.copy(), params.gamma.copy(), params.beta.copy()
            {"x": xp, "gamma": gp, "beta": bp}[target][
                (i, j) if target == "x" else j
            ] += h
            {"x": xm, "gamma": gm, "beta": bm}[target][
                (i, j) if target == "x" else j
            ] -= h
            lp = float((scale_shift_forward(xp, ScaleShift(gp, bp)) * upstream).sum())
            lm = float((scale_shift_forward(xm, ScaleShift(gm, bm)) * upstream).sum())
            numeric = (lp - lm) / (2 * h)
            diff = abs(numeric - analytic)
            if diff > 1e-8 and diff / max(abs(numeric), abs(analytic)) > 1e-4:
                ss_ok = False
    elapsed = time.perf_counter() - t0

    ok = not model_failures and ss_ok and elapsed < 60.0
    n_tensors = len(model.params)
    _verdict(
        3,
        ok,
        f"all {n_tensors} transformer tensors and the scale-shift layer pass central "
        f"finite differences at rel err < 1e-4 in 64-bit, {elapsed:.1f}s < 60s "
        f"(failures: {model_failures})",
    )


def test_criterion_4_injection_statistics():
    t = 634
    mean_ratio = np.mean(
        [plan_one_segment(VideoSpec(f"mc{i}", t), i).fake_frames / t for i in range(10_000)]
    )
    target = 150 / t
    ratio_ok = abs(mean_ratio - target) < 0.005

    rng = np.random.default_rng(11)
    invariants_ok = True
    for i in range(100_000):
        if i % 2 == 0:
            length = int(rng.integers(ONE_SEGMENT_MIN_FRAMES, 1500))
            plan = plan_one_segment(VideoSpec(f"z{i}", length), i)
            (s, l), = plan.segments
            if not (0 <= s < length // 2 and s + l <= length):
                invariants_ok = False
                break
        else:
            length = int(rng.integers(TWO_SEGMENT_MIN_FRAMES, 1500))
            plan = plan_two_segments(VideoSpec(f"z{i}", length), i)
            (s1, l1), (s2, l2) = plan.segments
            if not (
                0 <= s1 < 125
                and length // 2 <= s2 < length // 2 + 75
                and s1 + l1 <= s2
                and s2 + l2 <= length
            ):
                invariants_ok = False
                break

    ok = ratio_ok and invariants_ok
    _verdict(
        4,
        ok,
        f"mean fake ratio over 10^4 plans at T=634 is {mean_ratio:.4f} "
        f"(|diff| {abs(mean_ratio - target):.4f} < 0.005 from 150/634); "
        f"start/containment/non-overlap invariants hold for 10^5 fuzzed plans ({invariants_ok})",
    )


def test_criterion_5_quickstart_end_to_end(tmp_path):
    t0 = time.perf_counter()
    cfg_path = REPO / "configs" / "quickstart.json"
    cfg = parse_experiment_config(json.loads(cfg_path.read_text()))
    report = run_experiment(cfg, tmp_path / "quickstart")
    elapsed = time.perf_counter() - t0
    iou_sm = report.aggregate["iou_smoothed"]
    auc = report.aggregate["auc"]
    ok = iou_sm >= 0.95 and auc >= 0.98 and elapsed < 300.0
    _verdict(
        5,
        ok,
        f"quickstart: post-smoothing IoU {iou_sm:.4f} >= 0.95, frame AUC {auc:.4f} >= 0.98, "
        f"{elapsed:.0f}s < 300s on one core",
    )


def test_criterion_6_smoothing_benefit():
    k = 7
    cfg = SmoothConfig(k=k)

    # (a) isolated flips at epsilon = 0.05, pairwise gaps > 2k+1 and more than
    # k frames from every true transition (the algorithm deliberately leaves a
    # flip alone when its side majorities disagree, as they do at a boundary);
    # transitions also stay > k from the map ends so the one-sided boundary
    # votes see a clean neighborhood
    restore_ok = True
    rng = np.random.default_rng(13)
    for seed in range(25):
        t = int(rng.integers(400, 700))
        plan = plan_one_segment(VideoSpec(f"flip{seed}", t), seed)
        (start, length) = plan.segments[0]
        start = min(max(start, k + 1), t - k - 1 - length)
        plan = SegmentPlan(plan.video_id, ((start, length),))
        clean = render_map(plan, t)
        boundaries = set()
        for start, length in plan.segments:
            boundaries.update({start, start + length - 1})
        candidates = [
            i for i in range(k, t - k)
            if all(abs(i - b) > k for b in boundaries)
        ]
        flips = []
        for idx in rng.permutation(len(candidates)):
            pos = candidates[idx]
            if all(abs(pos - f) > 2 * k + 1 for f in flips):
                flips.append(pos)
            if len(flips) >= int(0.05 * t):
                break
        noisy = clean.labels.copy()
        noisy[flips] = 1 - noisy[flips]
        if smooth(SegmentationMap(noisy), cfg) != clean:
            restore_ok = False
            break

    # (b) AR-correlated noisy score maps: mean IoU must not get worse
    befores, afters = [], []
    for seed in range(100):
        trial_rng = np.random.default_rng(1000 + seed)
        t = int(trial_rng.integers(500, 700))
        plan = plan_one_segment(VideoSpec(f"ar{seed}", t), seed)
        clean = render_map(plan, t)
        base = 0.2 + 0.6 * clean.labels.astype(float)
        noise = np.empty(t)
        noise[0] = 0.35 * trial_rng.standard_normal()
        for i in range(1, t):
            noise[i] = 0.8 * noise[i - 1] + 0.35 * trial_rng.standard_normal()
        scores = ScoreMap(np.clip(base + noise, 0.0, 1.0))
        befores.append(iou(clean, scores.threshold(0.5)))
        afters.append(iou(clean, smooth_scores(scores, 0.5, cfg)))
    mean_before, mean_after = float(np.mean(befores)), float(np.mean(afters))
    improve_ok = mean_after >= mean_before

    ok = restore_ok and improve_ok
    _verdict(
        6,
        ok,
        f"k=7 restores isolated-flip maps exactly ({restore_ok}); on 100 AR-noise trials "
        f"mean IoU {mean_before:.4f} -> {mean_after:.4f} (non-decreasing: {improve_ok})",
    )


def test_criterion_7_segment_length_sweep(tmp_path):
    data = micro_config_dict(
        dataset={
            "seed": 7, "separation": 1.2, "temporal_rho": 0.6,
            "num_train_videos": 10, "num_val_videos": 3, "num_test_videos": 3,
            "num_real_test_videos": 0, "min_length": 400, "max_length": 500,
        },
        train={"max_epochs": 10, "early_stop_patience": 4},
        eval={"threshold": 0.30},
    )
    cfg = parse_experiment_config(data)
    run_experiment(cfg, tmp_path / "sweeprun")
    model = load_checkpoint(tmp_path / "sweeprun" / "model.tfkm")
    lengths = list(range(25, 251, 25))
    rows = sweep_segment_lengths(model, lengths, cfg, num_videos=30, video_length=600)
    ious = [r["mean_iou"] for r in rows]
    aucs = [r["mean_auc"] for r in rows]
    rho_iou = float(spearmanr(lengths, ious).statistic)
    rho_auc = float(spearmanr(lengths, aucs).statistic)
    ok = rho_iou > 0 and rho_auc > 0
    _verdict(
        7,
        ok,
        f"IoU {ious[0]:.3f}->{ious[-1]:.3f} (Spearman {rho_iou:+.3f} > 0), "
        f"AUC {aucs[0]:.3f}->{aucs[-1]:.3f} (Spearman {rho_auc:+.3f} > 0) over lengths 25..250",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = parse_experiment_config(micro_config_dict())
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")

    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    same_tree = files_a == files_b
    diffs = [
        str(rel)
        for rel in files_a
        if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes()
    ] if same_tree else ["<different file sets>"]
    ok = same_tree and not diffs
    _verdict(
        8,
        ok,
        f"re-running the same config+seed wrote {len(files_a)} files byte-identically "
        f"(plans, features, checkpoint, maps, reports); differing: {diffs or 'none'}",
    )
