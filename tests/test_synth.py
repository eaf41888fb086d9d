import math
import tracemalloc

import numpy as np
import pytest

from fakeseg import (
    ScoreMap,
    SegmentPlan,
    SynthConfig,
    VideoSpec,
    class_means,
    frame_auc,
    plan_one_segment,
    render_map,
    synth_video,
)
from fakeseg.synth import SYNTH_ROWS
from helpers import synth_video_reference


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(dim=0)
    with pytest.raises(ValueError):
        SynthConfig(dim=4, separation=-1)
    with pytest.raises(ValueError):
        SynthConfig(dim=4, temporal_rho=1.0)
    with pytest.raises(ValueError):
        SynthConfig(dim=4, noise_std=0.0)
    for setting in ({"separation": math.inf}, {"separation": math.nan}, {"noise_std": math.inf},
                    {"noise_std": math.nan}):
        with pytest.raises(ValueError, match=next(iter(setting))):
            SynthConfig(dim=4, **setting)


def test_class_mean_distance():
    cfg = SynthConfig(dim=16, separation=6.0, noise_std=2.0)
    mu_r, mu_f = class_means(cfg)
    assert np.linalg.norm(mu_f - mu_r) == pytest.approx(12.0)


def test_determinism_and_labels():
    plan = SegmentPlan("vid", ((40, 130),))
    cfg = SynthConfig(dim=8, separation=4.0, temporal_rho=0.3, seed=5)
    a = synth_video(plan, 300, cfg)
    b = synth_video(plan, 300, cfg)
    assert np.array_equal(a.features, b.features)
    assert a.labels == render_map(plan, 300)
    assert a.features.dtype == np.float32
    c = synth_video(SegmentPlan("other", ((40, 130),)), 300, cfg)
    assert not np.array_equal(a.features, c.features)


def test_nearest_mean_classifier_on_separable_data():
    # error of the nearest-mean rule is Phi(-separation/2) ~ 1.3e-3 at 6 sigma
    cfg = SynthConfig(dim=16, separation=6.0, temporal_rho=0.0, seed=1)
    mu_r, mu_f = class_means(cfg)
    correct = total = 0
    for i in range(10):
        video = VideoSpec(f"held{i}", 400)
        plan = plan_one_segment(video, 3)
        seq = synth_video(plan, 400, cfg)
        d_r = np.linalg.norm(seq.features - mu_r, axis=1)
        d_f = np.linalg.norm(seq.features - mu_f, axis=1)
        pred = (d_f < d_r).astype(int)
        correct += int((pred == seq.labels.labels).sum())
        total += 400
    assert correct / total > 0.99


def test_zero_separation_gives_chance_auc():
    cfg = SynthConfig(dim=16, separation=0.0, temporal_rho=0.0, seed=2)
    ref = SynthConfig(dim=16, separation=6.0)  # direction a classifier might use
    mu_r, mu_f = class_means(ref)
    direction = (mu_f - mu_r) / np.linalg.norm(mu_f - mu_r)
    aucs = []
    for i in range(50):
        video = VideoSpec(f"chance{i}", 400)
        plan = plan_one_segment(video, 7)
        seq = synth_video(plan, 400, cfg)
        raw = seq.features @ direction
        scores = (raw - raw.min()) / (raw.max() - raw.min())
        aucs.append(frame_auc(seq.labels, ScoreMap(scores)))
    assert abs(np.mean(aucs) - 0.5) < 0.05


def test_temporal_autocorrelation():
    cfg = SynthConfig(dim=8, separation=4.0, temporal_rho=0.9, noise_std=1.0, seed=3)
    seq = synth_video(SegmentPlan("ar", ()), 4000, cfg)
    x = seq.features.astype(np.float64)[500:]  # drop the burn-in transient
    x = x - x.mean(axis=0)
    num = (x[1:] * x[:-1]).sum(axis=0)
    den = (x * x).sum(axis=0)
    lag1 = num / den
    assert abs(lag1.mean() - 0.9) < 0.05


def test_class_mean_convergence():
    cfg = SynthConfig(dim=8, separation=4.0, temporal_rho=0.0, noise_std=1.0, seed=4)
    seq = synth_video(SegmentPlan("conv", ()), 5000, cfg)
    mu_r, _ = class_means(cfg)
    deviations = seq.features.astype(np.float64) - mu_r
    pooled = deviations.mean()
    n = deviations.size
    assert abs(pooled) < 3.0 * cfg.noise_std / np.sqrt(n)


def test_invalid_plan_is_rejected():
    cfg = SynthConfig(dim=4)
    with pytest.raises(ValueError):
        synth_video(SegmentPlan("bad", ((100, 50),)), 120, cfg)


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.9])
@pytest.mark.parametrize("length", [1, 2, 300, SYNTH_ROWS - 1, SYNTH_ROWS, SYNTH_ROWS + 1, 2 * SYNTH_ROWS + 3])
def test_synth_equals_the_row_by_row_oracle_at_block_edges(length, rho):
    """Drawn, mixed and cast SYNTH_ROWS rows at a time, the features keep
    the bytes of the whole-video float64 oracle, on both sides of each block edge."""
    plan = SegmentPlan("edges", ((length // 3, length - length // 3 - 1),) if length > 3 else ())
    cfg = SynthConfig(dim=5, separation=3.0, temporal_rho=rho, noise_std=0.7, seed=11)
    got, want = synth_video(plan, length, cfg), synth_video_reference(plan, length, cfg)
    assert got.features.dtype == np.float32 and got.features.shape == (length, 5)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels == want.labels


def test_synth_holds_the_float32_features_and_a_block():
    """Three float64 (T, d) arrays would be 6x the float32 features."""
    length, cfg = 8 * SYNTH_ROWS, SynthConfig(dim=16, temporal_rho=0.5, seed=2)
    plan = SegmentPlan("long", ((1000, 5000),))
    tracemalloc.start()
    try:
        seq = synth_video(plan, length, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * seq.features.nbytes, (peak, seq.features.nbytes)
