"""What a fresh process loads and starts before any stage runs.

`import actionpipe` is lazy and loads neither NumPy nor SciPy.  `import
actionpipe.cli` pins OpenBLAS to one thread before NumPy loads, unless the
variable is already set, so a stage process starts no BLAS worker threads.
`propose` starts threads only for a Ward round of `WARD_SPLIT` rows or more.
Each check runs in a fresh interpreter whose environment lacks
`OPENBLAS_NUM_THREADS`: importing `actionpipe.cli` in this process sets it.
"""

import importlib
import os

import pytest

import actionpipe
from oracles import run_python

CLEAN = {"OPENBLAS_NUM_THREADS": None}

# every name `actionpipe/__init__.py` exported when it imported its submodules eagerly
EAGER_EXPORTS = {
    "clustering": ("ClusterParams", "build_linkage", "cut_tree", "propose_video"),
    "config": ("PipelineConfig", "load_config", "save_config"),
    "geometry": ("Cuboid", "iou_3d", "spatial_iou", "temporal_iou"),
    "ingest": ("DEFAULT_ACTION_CLASSES", "DEFAULT_OBJECT_CLASSES", "GroundTruthAction", "ScoreRecord",
               "ValidationError", "VideoMeta", "load_detections", "load_ground_truth", "load_scores",
               "load_video_meta"),
    "jitter": ("JitterParams", "anchors", "jitter_proposals"),
    "labeling": ("LabeledProposal", "LabelingThresholds", "balance_classes", "designate", "regression_target",
                 "select_training_set"),
    "nms": ("NmsParams", "ScoredDetection", "nms_3d"),
    "proposals": ("Proposal",),
    "refine": ("LossParams", "apply_refinement", "cross_entropy", "full_loss", "localization_loss", "smooth_l1"),
    "scoring": ("DEFAULT_RATE_GRID", "DetCurve", "MatchParams", "aggregate_det_curve", "det_curve",
                "hungarian_match", "mean_pmiss_at", "per_class_det_curves", "recall_curve"),
}


def test_cli_import_leaves_one_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    code = (
        "import os\n"
        "import actionpipe.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert run_python(code, env=CLEAN).split() == ["1", "1"]


def test_propose_below_the_split_size_leaves_one_thread(tmp_path):
    # the clean fixture's rounds stay far below `WARD_SPLIT`, so they start no thread
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    code = (
        "import os, sys\n"
        "from actionpipe.cli import main\n"
        "assert main(['synth', '--output', sys.argv[1], '--scenario', 'clean', '--seed', '0', '--videos', '3']) == 0\n"
        "assert main(['propose', '--config', os.path.join(sys.argv[1], 'config.json')]) == 0\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    assert run_python(code, str(tmp_path / "fixture"), env=CLEAN).splitlines()[-1] == "1"


def test_cli_import_keeps_a_preset_thread_count():
    code = "import os\nimport actionpipe.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert run_python(code, env={"OPENBLAS_NUM_THREADS": "2"}).strip() == "2"


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = (
        "import os, sys\n"
        "import actionpipe\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules), 'OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    assert run_python(code, env=CLEAN).strip() == "[] False"


@pytest.mark.parametrize("module", sorted(EAGER_EXPORTS))
def test_every_eager_export_resolves_lazily(module):
    defining = importlib.import_module(f"actionpipe.{module}")
    assert getattr(actionpipe, module) is defining
    for name in EAGER_EXPORTS[module]:
        assert getattr(actionpipe, name) is getattr(defining, name)
        assert name in dir(actionpipe)


def test_namespace_lists_exactly_the_eager_exports():
    assert sorted(actionpipe.__all__) == sorted(name for names in EAGER_EXPORTS.values() for name in names)
    assert actionpipe.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        actionpipe.no_such_name  # noqa: B018
