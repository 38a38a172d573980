"""Detections-to-action-detections pipeline for untrimmed video.

Per-frame object detections are clustered into spatio-temporal cuboid
proposals, densified by temporal jittering, labeled against ground truth
for training, joined with external classifier scores, temporally refined,
pruned with class-wise 3D-NMS, and scored with maximum-matching
miss-rate/false-alarm curves.

Names resolve lazily (PEP 562): `import actionpipe` loads neither NumPy nor
SciPy, and `actionpipe.<name>` imports the submodule that defines (or is)
`<name>` on first use.  So `import actionpipe.cli` runs the CLI module's
first lines before anything loads NumPy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "clustering": ("ClusterParams", "build_linkage", "cut_tree", "propose_video"),
        "config": ("PipelineConfig", "load_config", "save_config"),
        "geometry": ("Cuboid", "iou_3d", "spatial_iou", "temporal_iou"),
        "ingest": (
            "DEFAULT_ACTION_CLASSES",
            "DEFAULT_OBJECT_CLASSES",
            "GroundTruthAction",
            "ScoreRecord",
            "ValidationError",
            "VideoMeta",
            "load_detections",
            "load_ground_truth",
            "load_scores",
            "load_video_meta",
        ),
        "jitter": ("JitterParams", "anchors", "jitter_proposals"),
        "labeling": (
            "LabeledProposal",
            "LabelingThresholds",
            "balance_classes",
            "designate",
            "regression_target",
            "select_training_set",
        ),
        "nms": ("NmsParams", "ScoredDetection", "nms_3d"),
        "refine": ("LossParams", "apply_refinement", "cross_entropy", "full_loss", "localization_loss", "smooth_l1"),
        "proposals": ("Proposal",),
        "scoring": (
            "DEFAULT_RATE_GRID",
            "DetCurve",
            "MatchParams",
            "aggregate_det_curve",
            "det_curve",
            "hungarian_match",
            "mean_pmiss_at",
            "per_class_det_curves",
            "recall_curve",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE.values():  # a submodule; importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
