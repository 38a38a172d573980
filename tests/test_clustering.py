import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage

from actionpipe import clustering
from actionpipe.clustering import (
    ClusterParams,
    build_linkage,
    clusters_to_proposals,
    cut_tree,
    detection_features,
    num_clusters,
    propose_video,
)
from actionpipe.config import load_config
from actionpipe.geometry import Cuboid
from actionpipe.ingest import ValidationError, VideoMeta, load_detections, load_video_meta
from actionpipe.synth import generate_fixture
from oracles import is_ward_hierarchy, reference_cut_tree, reference_envelope, reference_ward_nearest, run_python

META = VideoMeta("v1", 1000, 30.0, 640, 480)


def det(x, y, frame, size=10.0):
    """One detection row: frame, x_min, y_min, x_max, y_max."""
    return (frame, x - size / 2, y - size / 2, x + size / 2, y + size / 2)


def points_of(dets):
    return detection_features(dets)


class TestParams:
    def test_defaults_valid(self):
        p = ClusterParams()
        assert p.linkage == "ward"

    def test_rejects_bad_values(self):
        for linkage in ("centroid", "average", "single", "complete"):
            with pytest.raises(ValidationError):
                ClusterParams(linkage=linkage)
        with pytest.raises(ValidationError):
            ClusterParams(temporal_scale=0.0)
        with pytest.raises(ValidationError):
            ClusterParams(clusters_per_frame=-1.0)
        with pytest.raises(ValidationError):
            ClusterParams(min_cluster_size=0)
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="finite"):
                ClusterParams(temporal_scale=value)
            with pytest.raises(ValidationError, match="finite"):
                ClusterParams(clusters_per_frame=value)

    @pytest.mark.parametrize("field", ["temporal_scale", "clusters_per_frame"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_float_fields_take_numbers_only(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be a number"):
            ClusterParams(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, 2.5, 2.0, True])
    def test_min_cluster_size_must_be_an_integer(self, value):
        with pytest.raises(ValidationError, match="min_cluster_size must be an integer"):
            ClusterParams(min_cluster_size=value)


class TestBuildLinkage:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_linkage([], ClusterParams())

    def test_single_point(self):
        merges = build_linkage(points_of([det(5, 5, 0)]), ClusterParams())
        assert merges.shape == (0, 4)

    def test_two_points_merge_at_scaled_distance(self):
        dets = [det(0, 0, 0), det(3, 4, 0)]
        merges = build_linkage(points_of(dets), ClusterParams())
        assert merges.shape == (1, 4)
        assert merges[0, 2] == pytest.approx(5.0)

    def test_temporal_scale_enters_distance(self):
        dets = [det(0, 0, 0), det(0, 0, 10)]
        merges = build_linkage(points_of(dets), ClusterParams(temporal_scale=0.5))
        assert merges[0, 2] == pytest.approx(5.0)

    def test_two_pairs_top_split(self):
        # two tight pairs far apart: the last merge joins the pairs
        dets = [det(0, 0, 0), det(1, 0, 1), det(200, 200, 0), det(201, 200, 1)]
        merges = build_linkage(points_of(dets), ClusterParams())
        parts = cut_tree(merges, 2)
        assert parts == [[0, 1], [2, 3]]


def merged_sets(merges, n):
    """Members of the cluster each merge makes, in merge order.

    Two merge matrices with equal sequences give the same k-cut partition
    for every k, since the cut at k replays the first n-k merges.
    """
    members = {i: frozenset([i]) for i in range(n)}
    out = []
    for i, row in enumerate(merges):
        members[n + i] = members.pop(int(row[0])) | members.pop(int(row[1]))
        out.append(members[n + i])
    return out


def static_track():
    return np.column_stack([np.full(300, 320.0), np.full(300, 240.0), np.arange(300.0)])


def integer_grid():
    return np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0), np.arange(6.0)), axis=-1).reshape(-1, 3)


def duplicates():
    rng = np.random.default_rng(3)
    return np.repeat(rng.integers(0, 5, (60, 3)).astype(np.float64), rng.integers(1, 5, 60), axis=0)


def clean_video(tmp_path):
    generate_fixture(tmp_path, "clean", seed=0, num_videos=1)
    cfg = load_config(tmp_path / "config.json")
    videos = load_video_meta(cfg.videos)
    (dets,) = load_detections(cfg.detections, videos, cfg.min_confidence, cfg.object_classes).values()
    return detection_features(dets)


# Every round through the k-d tree, from k = 2 for points and clusters alike, in
# small blocks.  Small inputs otherwise score most rounds against every active
# cluster, which never grows k.
FORCED_TREE = {"WARD_ALL_PAIRS": 0, "WARD_K": 2, "WARD_K_POINT": 2, "WARD_BLOCK": 64}
# The same with every round split into two parts, the second on the pool's
# thread, on a box with any number of CPUs.
FORCED_SPLIT = {**FORCED_TREE, "WARD_SPLIT": 1, "_cpus": lambda: 2}


@pytest.fixture(params=["default", "tree", "split"])
def ward_path(request, monkeypatch):
    """Ward with its constants, or forced through the k-d tree (`FORCED_TREE`), split or not (`FORCED_SPLIT`)."""
    for name, value in {"default": {}, "tree": FORCED_TREE, "split": FORCED_SPLIT}[request.param].items():
        monkeypatch.setattr(clustering, name, value)
    return request.param


def tree_and_all_pairs(points):
    """Merge matrices of the forced tree path, its split form and the path that scores every pair in every round."""
    out = []
    for constants in (FORCED_TREE, FORCED_SPLIT, {"WARD_ALL_PAIRS": 1 << 62}):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(clustering, name, value)
            out.append(build_linkage(points, ClusterParams()))
    return out


def decimal_grid():
    # tenths are inexact in binary, and the lattice is dense in duplicates and ties
    return np.random.default_rng(12).integers(0, 4, (300, 3)) * 0.1


class TestWardExactness:
    @pytest.mark.usefixtures("ward_path")
    def test_partitions_equal_scipy_in_general_position(self):
        rng = np.random.default_rng(501)
        for _ in range(120):
            n = int(rng.integers(2, 301))
            scale = float(rng.uniform(0.2, 3.0))
            points = rng.uniform(0.0, 1.0, (n, 3)) * [640.0, 480.0, 900.0]
            merges = build_linkage(points, ClusterParams(temporal_scale=scale))
            oracle = scipy_linkage(points * [1.0, 1.0, scale], "ward")
            assert merged_sets(merges, n) == merged_sets(oracle, n)
            for k in (1, 2, max(1, n // 3), n):
                assert cut_tree(merges, k) == cut_tree(oracle, k)
            np.testing.assert_allclose(merges[:, 2], oracle[:, 2], rtol=1e-9)
            np.testing.assert_array_equal(merges[:, 3], oracle[:, 3])

    @pytest.mark.usefixtures("ward_path")
    @pytest.mark.parametrize("make", [static_track, integer_grid, duplicates])
    def test_tie_heavy_inputs_give_ward_trees(self, make):
        points = make()
        assert is_ward_hierarchy(points, build_linkage(points, ClusterParams()))
        assert is_ward_hierarchy(points, scipy_linkage(points, "ward"))

    @pytest.mark.usefixtures("ward_path")
    def test_decimal_grid_samples_give_ward_trees(self):
        # tenths are inexact in binary: a merge can round below the one before it
        rng = np.random.default_rng(11)
        for _ in range(200):
            points = rng.integers(0, 3, (int(rng.integers(10, 60)), 3)) * 0.1
            assert is_ward_hierarchy(points, build_linkage(points, ClusterParams()))

    @pytest.mark.parametrize("make", [static_track, integer_grid, duplicates, decimal_grid])
    def test_tree_path_equals_all_pairs_bit_for_bit(self, make):
        tree, split, all_pairs = tree_and_all_pairs(make())
        assert np.array_equal(tree, all_pairs)
        assert np.array_equal(split, all_pairs)

    def test_clean_fixture_tree_path_equals_all_pairs_bit_for_bit(self, tmp_path):
        tree, split, all_pairs = tree_and_all_pairs(clean_video(tmp_path))
        assert np.array_equal(tree, all_pairs)
        assert np.array_equal(split, all_pairs)

    def test_clean_fixture_merges_equal_on_one_cpu_and_split(self, tmp_path, monkeypatch):
        # the shipped k and block sizes, every tree round at the split size
        points = clean_video(tmp_path)
        monkeypatch.setattr(clustering, "WARD_SPLIT", 1)
        pool_calls = []
        real_pool = clustering._pool

        def pool():
            pool_calls.append(1)
            return real_pool()

        monkeypatch.setattr(clustering, "_pool", pool)
        merges = []
        for cpus in (1, 2):
            monkeypatch.setattr(clustering, "_cpus", lambda cpus=cpus: cpus)
            merges.append(build_linkage(points, ClusterParams()))
            assert bool(pool_calls) == (cpus > 1)
        assert np.array_equal(*merges)

    def test_child_forked_with_a_live_pool_makes_its_own(self, tmp_path):
        # The parent's split build leaves the pool's thread alive; the child
        # inherits the executor without its thread, so reusing it would hang.
        # In a fresh interpreter: pytest's warning filters do not reach it.
        code = (
            "import sys, warnings, multiprocessing\n"
            "import numpy as np\n"
            "from actionpipe import clustering\n"
            "from actionpipe.clustering import ClusterParams, build_linkage\n"
            "clustering.WARD_SPLIT = 1\n"
            "clustering._cpus = lambda: 2\n"
            "points = np.random.default_rng(5).uniform(0, 100, (3000, 3))\n"
            "merges = build_linkage(points, ClusterParams())\n"
            "assert clustering._split_pool is not None\n"
            "def child():\n"
            "    np.save(sys.argv[1], build_linkage(points, ClusterParams()))\n"
            "process = multiprocessing.get_context('fork').Process(target=child)\n"
            "with warnings.catch_warnings():\n"
            "    # Python 3.12+ warns on a fork with live threads; forking so is the point here\n"
            "    warnings.simplefilter('ignore', DeprecationWarning)\n"
            "    process.start()\n"
            "process.join(60)\n"
            "if process.is_alive():\n"
            "    process.kill()\n"
            "    sys.exit('the child hung')\n"
            "assert process.exitcode == 0, process.exitcode\n"
            "assert np.array_equal(np.load(sys.argv[1]), merges)\n"
            "print('ok')\n"
        )
        assert run_python(code, str(tmp_path / "child.npy")).strip() == "ok"

    @pytest.mark.usefixtures("ward_path")
    def test_ties_go_to_the_least_hashed_priority(self):
        # point 3 is 1 from points 1 and 2; slot 2 hashes lower than slot 1
        points = np.array([[100.0, 0, 0], [0, 0, 0], [2, 0, 0], [1, 0, 0]])
        merges = build_linkage(points, ClusterParams())
        assert merges[0].tolist() == [2.0, 3.0, 1.0, 2.0]

    @pytest.mark.usefixtures("ward_path")
    def test_clean_fixture_video_gives_ward_tree(self, tmp_path):
        # ~430 points with only a few dozen distinct merge heights
        points = clean_video(tmp_path)
        assert is_ward_hierarchy(points, build_linkage(points, ClusterParams()))

    def test_oracle_rejects_other_trees(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0.0, 100.0, (60, 3))
        merges = build_linkage(points, ClusterParams())
        assert is_ward_hierarchy(points, merges)
        assert not is_ward_hierarchy(points, scipy_linkage(points, "average"))
        merges[5, 2] *= 1.01
        assert not is_ward_hierarchy(points, merges)

    def test_package_never_imports_scipy_cluster(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import actionpipe.cli\n"
            "from actionpipe.clustering import ClusterParams, build_linkage\n"
            "points = np.random.default_rng(0).uniform(0, 100, (50, 3))\n"
            "build_linkage(points, ClusterParams())\n"
            "assert 'scipy.cluster' not in sys.modules\n"
        )
        run_python(code)


class TestWardGuards:
    def test_identical_points(self):
        start = time.monotonic()
        merges = build_linkage(np.full((1000, 3), 5.0), ClusterParams())
        assert time.monotonic() - start < 2.0
        assert merges.shape == (999, 4) and not merges[:, 2].any() and merges[-1, 3] == 1000
        assert cut_tree(merges, 1) == [list(range(1000))]

    def test_noise_free_accelerating_track(self):
        # every point's nearest neighbour is the one before it: few reciprocal pairs per round
        f = np.arange(3000.0)
        points = np.column_stack([0.001 * f**2, np.full_like(f, 240.0), f])
        start = time.monotonic()
        merges = build_linkage(points, ClusterParams())
        assert time.monotonic() - start < 10.0
        assert merged_sets(merges, 3000) == merged_sets(scipy_linkage(points, "ward"), 3000)

    @staticmethod
    def wandering_tracks(tracks, frames):
        """Noise-free smooth tracks, one detection per frame: near-chains."""
        rng = np.random.default_rng(5)
        f = np.arange(frames, dtype=np.float64)
        phase = rng.uniform(0.0, 2.0 * np.pi, (tracks, 2))
        centre = rng.uniform([60.0, 60.0], [580.0, 420.0], (tracks, 2))
        xy = centre[:, None, :] + 8.0 * np.sin(2.0 * np.pi * f[None, :, None] / frames + phase[:, None, :])
        return np.column_stack([xy.reshape(-1, 2), np.tile(f, tracks)])

    def test_noise_free_wandering_tracks(self):
        # the spacing along a track changes smoothly: few reciprocal pairs per round
        # a sine is symmetric, so some merge heights tie up to rounding
        small = self.wandering_tracks(2, 600)
        merges = build_linkage(small, ClusterParams())
        assert is_ward_hierarchy(small, merges)
        np.testing.assert_allclose(merges[:, 2], scipy_linkage(small, "ward")[:, 2], rtol=1e-9)
        points = self.wandering_tracks(6, 2000)
        start = time.monotonic()
        merges = build_linkage(points, ClusterParams())
        assert time.monotonic() - start < 10.0
        assert merges[-1, 3] == 12000

    def test_static_track(self):
        # every interior point is equally far from both neighbours
        points = np.column_stack([np.full(10000, 320.0), np.full(10000, 240.0), np.arange(10000.0)])
        start = time.monotonic()
        merges = build_linkage(points, ClusterParams())
        assert time.monotonic() - start < 3.0
        assert merges[-1, 3] == 10000

    def test_features_whose_distances_overflow_are_refused(self):
        points = np.random.default_rng(11).uniform(size=(300, 3))
        merges = build_linkage(points * 1e150, ClusterParams())
        assert merges.shape == (299, 4) and np.isfinite(merges).all()
        with pytest.raises(ValidationError, match="overflow"):
            build_linkage(points * 1e160, ClusterParams())
        # a small spread far from the origin: the weighted centroid sums overflow
        offset = np.column_stack([np.full(1000, 1e306), np.zeros(1000), np.arange(1000.0)])
        with pytest.raises(ValidationError, match="overflow"):
            build_linkage(offset, ClusterParams())

    def test_five_minute_video_memory_stays_linear(self):
        # ~90k detections: SciPy's condensed distance matrix alone would take ~32 GB
        rng = np.random.default_rng(90)
        tracks, frames = 10, 9000
        start = rng.uniform([0.0, 0.0], [640.0, 480.0], (tracks, 2))
        walk = np.cumsum(rng.normal(0.0, 0.5, (tracks, frames, 2)), axis=1) + rng.normal(0.0, 2.0, (tracks, frames, 2))
        xy = (start[:, None, :] + walk).reshape(-1, 2)
        points = np.column_stack([xy, np.tile(np.arange(frames, dtype=np.float64), tracks)])
        start = time.monotonic()
        tracemalloc.start()
        try:
            merges = build_linkage(points, ClusterParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # loose: about a second on a 2-core VM; a slide back to many rounds of O(n) work shows here
        assert time.monotonic() - start < 10.0
        assert peak < 256 * 2**20
        assert merges.shape == (tracks * frames - 1, 4) and merges[-1, 3] == tracks * frames


class TestCutTree:
    def test_k_one_single_cluster(self):
        dets = [det(i * 3.0, 0, i) for i in range(5)]
        merges = build_linkage(points_of(dets), ClusterParams())
        assert cut_tree(merges, 1) == [list(range(5))]

    def test_k_at_least_points_gives_singletons(self):
        dets = [det(i * 3.0, 0, i) for i in range(4)]
        merges = build_linkage(points_of(dets), ClusterParams())
        assert cut_tree(merges, 4) == [[0], [1], [2], [3]]
        assert cut_tree(merges, 99) == [[0], [1], [2], [3]]

    def test_invalid_k(self):
        merges = build_linkage(points_of([det(0, 0, 0)]), ClusterParams())
        with pytest.raises(ValidationError):
            cut_tree(merges, 0)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        dets = [det(float(x), float(y), int(f)) for x, y, f in
                zip(rng.uniform(0, 600, 40), rng.uniform(0, 400, 40), rng.integers(0, 300, 40))]
        merges = build_linkage(points_of(dets), ClusterParams())
        for k in (1, 3, 7, 40):
            parts = cut_tree(merges, k)
            assert len(parts) == min(k, 40)
            flat = sorted(i for part in parts for i in part)
            assert flat == list(range(40))

    def test_cut_refinement_monotonicity(self):
        rng = np.random.default_rng(2)
        dets = [det(float(x), float(y), int(f)) for x, y, f in
                zip(rng.uniform(0, 600, 30), rng.uniform(0, 400, 30), rng.integers(0, 300, 30))]
        merges = build_linkage(points_of(dets), ClusterParams())
        for k in range(1, 30):
            coarse = [frozenset(c) for c in cut_tree(merges, k)]
            fine = cut_tree(merges, k + 1)
            for part in fine:
                assert any(frozenset(part) <= c for c in coarse)


def chain_track(n):
    """A noise-free accelerating track: each Ward round finds few reciprocal pairs, so the tree is deep."""
    return np.column_stack([np.full(n, 320.0), np.full(n, 240.0), np.cumsum(np.arange(n, dtype=np.float64))])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=2, max_size=150))
def test_tree_path_equals_all_pairs_on_integer_lattices(rows):
    tree, split, all_pairs = tree_and_all_pairs(np.array(rows, dtype=np.float64))
    assert np.array_equal(tree, all_pairs)
    assert np.array_equal(split, all_pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_ward_nearest_equals_scalar_loop_on_integer_lattices(m, k, seed):
    """Both candidate forms: per-row (r, k) slots, as a tree round asks, and one shared row, as an all-pairs round."""
    rng = np.random.default_rng(seed)
    n = m + int(rng.integers(0, 8))  # slots beyond the active ones hold merged-away clusters
    centroids = rng.integers(0, 4, (n, 3)).astype(np.float64)  # a dense lattice: many exact distance ties
    sizes = rng.integers(1, 4, n).astype(np.float64)
    prio = clustering._priority(np.arange(n))
    active = np.sort(rng.choice(n, m, replace=False))
    rows = rng.choice(active, int(rng.integers(1, m + 1)), replace=False)
    k = min(k, m)
    # each row's own slot among its candidates at a random column, as the tree returns it
    per_row = rng.permuted(np.array([
        np.append(row, rng.choice(active[active != row], k - 1, replace=False)) for row in rows]), axis=1)
    for cand in (per_row, active):
        nearest, d2 = clustering._ward_nearest(rows, cand, centroids, sizes, prio)
        want_nearest, want_d2 = reference_ward_nearest(rows, cand, centroids, sizes, prio)
        assert nearest.tolist() == want_nearest
        assert d2.tobytes() == np.array(want_d2).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["uniform", "duplicates", "chain"]),
    st.integers(1, 120),
    st.integers(0, 2**32 - 1),
)
def test_cut_tree_equals_merge_replay(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        points = rng.uniform(0.0, 100.0, (n, 3))
    elif kind == "duplicates":
        points = rng.integers(0, 3, (n, 3)).astype(np.float64)
    else:
        points = chain_track(n)
    merges = build_linkage(points, ClusterParams())
    for k in range(1, n + 3):
        assert cut_tree(merges, k) == reference_cut_tree(merges, k)


class TestClustersToProposals:
    def test_single_detection_cluster(self):
        dets = [(5, 10, 10, 20, 20)]
        props = clusters_to_proposals([[0]], dets, META, ClusterParams())
        assert len(props) == 1
        assert props[0].cuboid == Cuboid(10, 10, 20, 20, 5, 5)
        assert props[0].provenance == "clustering"

    def test_envelope_of_two(self):
        dets = [(0, 0, 0, 10, 10), (9, 20, 20, 30, 30)]
        props = clusters_to_proposals([[0, 1]], dets, META, ClusterParams())
        assert props[0].cuboid == Cuboid(0, 0, 30, 30, 0, 9)

    def test_min_cluster_size_filters(self):
        dets = [det(0, 0, 0), det(1, 0, 1), det(100, 100, 50)]
        props = clusters_to_proposals([[0, 1], [2]], dets, META, ClusterParams(min_cluster_size=2))
        assert len(props) == 1 and props[0].cuboid.f_end == 1

    def test_members_contained(self):
        rng = np.random.default_rng(4)
        dets = [det(float(x), float(y), int(f)) for x, y, f in
                zip(rng.uniform(50, 600, 25), rng.uniform(50, 400, 25), rng.integers(0, 300, 25))]
        props = propose_video(dets, META, ClusterParams(clusters_per_frame=0.005))
        by_id = {p.proposal_id: p for p in props}
        merges = build_linkage(points_of(dets), ClusterParams(clusters_per_frame=0.005))
        parts = cut_tree(merges, num_clusters(META.num_frames, ClusterParams(clusters_per_frame=0.005)))
        for idx, part in enumerate(parts):
            cuboid = by_id[f"v1_c{idx:04d}"].cuboid
            for i in part:
                frame, x_min, _, x_max, _ = dets[i]
                assert cuboid.x_min <= x_min and cuboid.x_max >= x_max
                assert cuboid.f_start <= frame <= cuboid.f_end


SIGNED_ZERO_BOUNDS = [(lo, hi) for lo in (-1.0, -0.0, 0.0, 1.0) for hi in (-0.0, 0.0, 1.0, 2.0) if lo < hi]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(SIGNED_ZERO_BOUNDS), st.sampled_from(SIGNED_ZERO_BOUNDS),
                          st.integers(0, 2)), min_size=1, max_size=12))
def test_envelope_picks_signed_zeros_as_python_min_max(draws):
    rows = [(frame, x[0], y[0], x[1], y[1]) for frame, x, y, _ in draws]
    labels = [label for *_, label in draws]
    partition = [[i for i, label in enumerate(labels) if label == c] for c in dict.fromkeys(labels)]
    props = clusters_to_proposals(partition, np.array(rows, dtype=np.float64), META, ClusterParams())
    assert len(props) == len(partition)
    for prop, cluster in zip(props, partition):
        want = reference_envelope([rows[i] for i in cluster])
        # repr tells -0.0 from 0.0
        assert repr(prop.cuboid) == repr(want)


class TestProposeVideo:
    def test_empty_detections(self):
        assert propose_video([], META, ClusterParams()) == []

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        dets = [det(float(x), float(y), int(f)) for x, y, f in
                zip(rng.uniform(0, 600, 60), rng.uniform(0, 400, 60), rng.integers(0, 900, 60))]
        a = propose_video(dets, META, ClusterParams())
        b = propose_video(list(dets), META, ClusterParams())
        assert a == b

    def test_cluster_count_scales_with_video_length(self):
        assert num_clusters(900, ClusterParams()) == 26
        assert num_clusters(9000, ClusterParams()) == 252
        assert num_clusters(1, ClusterParams()) == 1
