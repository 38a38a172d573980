"""Detections-to-action-detections pipeline for untrimmed video.

Per-frame object detections are clustered into spatio-temporal cuboid
proposals, densified by temporal jittering, labeled against ground truth
for training, joined with external classifier scores, temporally refined,
pruned with class-wise 3D-NMS, and scored with maximum-matching
miss-rate/false-alarm curves.
"""

from .clustering import ClusterParams, build_linkage, cut_tree, propose_video
from .config import PipelineConfig, load_config, save_config
from .geometry import Cuboid, iou_3d, spatial_iou, temporal_iou
from .ingest import (
    DEFAULT_ACTION_CLASSES,
    DEFAULT_OBJECT_CLASSES,
    GroundTruthAction,
    ScoreRecord,
    ValidationError,
    VideoMeta,
    load_detections,
    load_ground_truth,
    load_scores,
    load_video_meta,
)
from .jitter import JitterParams, anchors, jitter_proposals
from .labeling import (
    LabeledProposal,
    LabelingThresholds,
    balance_classes,
    designate,
    regression_target,
    select_training_set,
)
from .nms import NmsParams, ScoredDetection, nms_3d
from .refine import (
    LossParams,
    apply_refinement,
    cross_entropy,
    full_loss,
    localization_loss,
    smooth_l1,
)
from .proposals import Proposal
from .scoring import (
    DEFAULT_RATE_GRID,
    DetCurve,
    MatchParams,
    aggregate_det_curve,
    det_curve,
    hungarian_match,
    mean_pmiss_at,
    per_class_det_curves,
    recall_curve,
)

__version__ = "0.1.0"
