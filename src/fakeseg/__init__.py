"""Temporal fake-segment detection toolkit.

Benchmark fake-segment injection, sliding-window sequence classification
with a from-scratch transformer encoder, majority-vote smoothing, and
frame-level segmentation metrics with an analytic random-guess baseline.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .injection import (
    DatasetStats,
    SegmentPlan,
    VideoSpec,
    dataset_stats,
    plan_fixed_segment,
    plan_one_segment,
    plan_two_segments,
    render_map,
)
from .metrics import (
    BaselineParams,
    expected_iou_baseline,
    frame_accuracy,
    frame_auc,
    iou,
    video_label,
    video_score,
)
from .segmap import FrameLabel, ScoreMap, SegmentationMap, segments_of
from .smoothing import SmoothConfig, smooth, smooth_scores
from .synth import SynthConfig, class_means, synth_video
from .training import (
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    evaluate,
    predict_video,
    train,
)
from .transformer import (
    SequenceClassifier,
    TransformerConfig,
    cross_entropy,
    forward,
    loss_and_grads,
)
from .windowing import (
    FeatureSequence,
    SplitWindows,
    frames_from_windows,
    make_windows,
    read_features,
    window_starts,
    windows_for_split,
    write_features,
)

__version__ = "0.1.0"
