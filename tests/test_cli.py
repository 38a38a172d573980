import argparse
import concurrent.futures
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import json
import pickle
import random
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from actionpipe import cli, ingest
from actionpipe.cli import _override, build_parser, main
from actionpipe.config import PipelineConfig, config_from_dict, config_to_dict, load_config, save_config
from actionpipe.geometry import Cuboid
from actionpipe.ingest import ValidationError, load_scores, write_scores
from actionpipe.nms import FINAL_DETECTION_FIELDS, ScoredDetection, write_final_detections
from actionpipe.proposals import Proposal
from actionpipe.refine import LossParams
from oracles import run_python, score_records

OUTPUTS = ("proposals.jsonl", "labels.jsonl", "detections_final.jsonl", "report.json")
MIRRORS = ("proposals.jsonl.cols", "detections_final.jsonl.cols")  # the column mirrors beside two outputs


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    assert main(["synth", "--output", str(root), "--scenario", "clean", "--seed", "0", "--videos", "3"]) == 0
    return root


@pytest.fixture
def serial_pool(monkeypatch):
    """The pool sizes asked of, and the pickled results sent through, a stand-in for ProcessPoolExecutor.

    It maps in this process; each result goes through a pickle round trip, as a worker's does.
    """
    pools = SimpleNamespace(sizes=[], sent=[])

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            pools.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            for task in tasks:
                pools.sent.append(pickle.dumps(fn(task)))
                yield pickle.loads(pools.sent[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def run_pipeline(cfg_path):
    for cmd in ("propose", "label", "finalize", "score"):
        assert main([cmd, "--config", str(cfg_path)]) == 0


# SHA-256 of every file that `synth --scenario noisy --seed 0 --videos 2`, the
# four stages into out/, and `finalize --multi-label --min-class-score 0.005`
# plus `score` into multi/ write.  Reruns agreeing with each other do not show
# that a refactor kept the bytes; these digests do.  Change them only with a
# change that means to change outputs, and say so.  multi/ gets a copy of
# proposals.jsonl without its column mirror, so its stages read the JSONL:
# its digests pin that both reading paths give the same bytes downstream.
GOLDEN_DIGESTS = {
    "config.json": "b99cc0fb456eca4127fbcb292c1e85ff8f7ab5df24b4ebbd4eedb8ea0163aa2c",
    "detections.jsonl": "b963eef58c020f12326887f0e7ebc1115f555e23a06a0fb6c88e75b271427c82",
    "ground_truth.jsonl": "319eae136be6b64a3c59e1ecdd4037b496194a6d2f2724fff3c9a40d2515ae72",
    "multi/curves/aggregate.txt": "4b0bd75ba36b70e398b1aeb960c43cef0e7d3cfd47d9cda0b42698828b20ca20",
    "multi/curves/closing_trunk.txt": "bce943ee512162bddb6811f282504fc735059191c7605fb9a9181b3340248d1b",
    "multi/curves/enter.txt": "a3222a79dda10b25d241e0c14e7ebe4f412f4eef36b154ba2554b86751ac4b79",
    "multi/curves/exit.txt": "21418d4e032b820df6346dc2204ee942fc40fdec87bbaede2ae67185bbf7429f",
    "multi/curves/loading.txt": "5713c41cd2b9b1506666ed0acffd987992a9f7380024bbe96338ee40d0681ced",
    "multi/curves/transport_heavy_carry.txt": "8209a0181f5914b152ab739930637871aa14d99e97f1d1e0fa82fd6fe94587cf",
    "multi/curves/vehicle_u_turn.txt": "d311154105a070585c178d255964fb66491a9a78fac2b2b9a1a772b349bf6c39",
    "multi/detections_final.jsonl": "14f002b511bd7c7fe1b20494f404f36ad6032c237f9f522d669ace63a9b35dba",
    "multi/detections_final.jsonl.cols": "b73267b124f0d12bd18768514671665be9e7183c8a6383aefe38f98d61b24ed4",
    "multi/proposals.jsonl": "6391993d4d3bb3261d6280d5f68985a6c46da4ba723b1e6ce601c08c67a23897",
    "multi/report.json": "fcc4f19fedbd7eec5cac1bcae063789db517b67875a16b3f50bc4ef8f2f9968a",
    "out/curves/aggregate.txt": "4452d929092ae32a00d58b7c9fede7a24e29e9ef2fbcc36c262fa24546c3e71f",
    "out/curves/closing_trunk.txt": "b5902b5c702761e64f41175b6e834921460f226a32f2b19e02a870465758942a",
    "out/curves/enter.txt": "1219319f004d072a17911fad60326b8b57fa5cf4be16b326d2edca33266d8937",
    "out/curves/exit.txt": "312357c36c0436460b0444f4032a50ce0532212997058328291ed323cca8bc15",
    "out/curves/loading.txt": "0e1756af80de71fab599d598a8ed2d345d81486212136eb31e46002c159de257",
    "out/curves/transport_heavy_carry.txt": "1219319f004d072a17911fad60326b8b57fa5cf4be16b326d2edca33266d8937",
    "out/curves/vehicle_u_turn.txt": "312357c36c0436460b0444f4032a50ce0532212997058328291ed323cca8bc15",
    "out/detections_final.jsonl": "d02fb7a5239a662b32056d6e9631333101790eefe0585a0f904d729a1865277f",
    "out/detections_final.jsonl.cols": "538b8dd0c76dc72a133e5adbaa8a71e65f0a01f682361b1aa479728b6a20c221",
    "out/labels.jsonl": "54d8272df55f731fc754c8c49eb2d0ed4afd73cd1d6cca6e24e739743ac09d05",
    "out/proposals.jsonl": "6391993d4d3bb3261d6280d5f68985a6c46da4ba723b1e6ce601c08c67a23897",
    "out/proposals.jsonl.cols": "a0f02e9d6272d008c68daa5a00955bf8110a70fc3811c526fbf554cf377add8f",
    "out/report.json": "17be46bc8869f8195a7e08beb0ce2c6f5b0578e2ddd630f6bbedabf6c6e4679b",
    "scores.jsonl": "d9335ef236ce36c5d6916f89b8b16f192554db585d93d8a4ae50e8df83071a5c",
    "videos.jsonl": "02ae3824cc98c1d700c163cda8c0a2081309c1939aac050dd66fd904f884a39b",
}


class TestEndToEnd:
    def test_full_run_and_outputs(self, fixture_dir):
        run_pipeline(fixture_dir / "config.json")
        out = fixture_dir / "out"
        for name in OUTPUTS:
            assert (out / name).is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["rate_grid"] == [0.01, 0.03, 0.1, 0.15, 0.2, 1.0]
        assert report["aggregate"]["mean_p_miss"][-1] <= 0.1
        assert (out / "curves" / "aggregate.txt").read_text().startswith("# rate_fa p_miss")

    def test_reruns_are_byte_identical(self, fixture_dir):
        cfg_path = fixture_dir / "config.json"
        run_pipeline(cfg_path)
        out = fixture_dir / "out"
        before = {name: (out / name).read_bytes() for name in (*OUTPUTS, *MIRRORS)}
        run_pipeline(cfg_path)
        after = {name: (out / name).read_bytes() for name in (*OUTPUTS, *MIRRORS)}
        assert before == after

    def test_outputs_match_golden_digests(self, tmp_path):
        assert main(["synth", "--output", str(tmp_path), "--scenario", "noisy", "--seed", "0", "--videos", "2"]) == 0
        config = tmp_path / "config.json"
        run_pipeline(config)
        multi = tmp_path / "multi"
        multi.mkdir()
        shutil.copy(tmp_path / "out" / "proposals.jsonl", multi)
        for argv in (["finalize", "--multi-label", "--min-class-score", "0.005"], ["score"]):
            assert main([*argv, "--config", str(config), "--output", str(multi)]) == 0
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*")) if path.is_file()
        }
        assert digests == GOLDEN_DIGESTS

    @pytest.mark.parametrize("mode", [[], ["--multi-label"]], ids=["argmax", "multi_label"])
    def test_finalize_does_not_depend_on_score_line_order_or_read_path(self, tmp_path, monkeypatch, mode):
        assert main(["synth", "--output", str(tmp_path), "--scenario", "noisy", "--seed", "0", "--videos", "2"]) == 0
        assert main(["propose", "--config", str(tmp_path / "config.json")]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        for key in ("detections", "ground_truth", "videos"):
            cfg[key] = str(tmp_path / cfg[key])
        lines = (tmp_path / cfg["scores"]).read_text(encoding="utf-8").splitlines()
        # one record's scores as floats (read as columns) and as ints (its block read record by record)
        hot = {**json.loads(lines[7]), "class_scores": [0.0, 1.0] + [0.0] * 11}
        as_ints = {**hot, "class_scores": [0, 1] + [0] * 11}
        floats, ints = list(lines), list(lines)
        floats[7], ints[7] = json.dumps(hot), json.dumps(as_ints)
        variants = {"lines": lines, "floats": floats, "ints": ints}
        for name, scores in list(variants.items()):
            variants[f"{name}_shuffled"] = random.Random(len(name)).sample(scores, len(scores))
        monkeypatch.setattr(ingest, "RECORD_BLOCK", 64)  # so that the other blocks are still read as columns
        read_line_by_line = []
        parse_lines = ingest._parse_lines
        monkeypatch.setattr(ingest, "_parse_lines", lambda *args: read_line_by_line.append(args) or parse_lines(*args))
        written = {}
        for name, scores in variants.items():
            out = tmp_path / name
            out.mkdir()
            (out / "scores.jsonl").write_text("".join(line + "\n" for line in scores), encoding="utf-8")
            shutil.copy(tmp_path / "out" / "proposals.jsonl", out)
            (out / "config.json").write_text(json.dumps({**cfg, "scores": str(out / "scores.jsonl")}))
            read_line_by_line.clear()
            assert main(["finalize", *mode, "--config", str(out / "config.json"), "--output", str(out)]) == 0
            assert len(read_line_by_line) == name.startswith("ints")  # one block of 64 lines
            written[name] = (out / "detections_final.jsonl").read_bytes()
        assert written["lines"] == written["lines_shuffled"] != written["floats"]
        assert written["floats"] == written["floats_shuffled"] == written["ints"] == written["ints_shuffled"]

    def test_noisy_pipeline_writes_no_line_through_the_encoder(self, tmp_path, monkeypatch):
        # A value of a drifted type (say, a numpy confidence) is still written
        # right, by the encoder, so only this test would see the template lost.
        assert main(["synth", "--output", str(tmp_path), "--scenario", "noisy", "--seed", "0", "--videos", "2"]) == 0
        encoded = []
        iterencode = json.JSONEncoder.iterencode

        def spy(encoder, o, _one_shot=False):
            if encoder is ingest._encode.__self__:  # the encoder `write_records` and the fallbacks use
                encoded.append(o)
            return iterencode(encoder, o, _one_shot)

        monkeypatch.setattr(json.JSONEncoder, "iterencode", spy)
        config = str(tmp_path / "config.json")
        for argv in (["propose"], ["label"], ["finalize"], ["finalize", "--multi-label", "--min-class-score", "0.005"]):
            assert main([*argv, "--config", config]) == 0
        assert '"designation": "positive"' in (tmp_path / "out" / "labels.jsonl").read_text(encoding="utf-8")
        assert encoded == []
        det = ScoredDetection("v", "p", 1, np.float64(0.5), Cuboid(0, 0, 5, 5, 0, 9))
        write_final_detections(tmp_path / "drifted.jsonl", [det], ("loading",))
        assert encoded == [dict(zip(FINAL_DETECTION_FIELDS, ("loading", det.confidence, "v", "p", *det.cuboid)))]

    def test_parallel_propose_matches_serial(self, fixture_dir, tmp_path):
        cfg_path = fixture_dir / "config.json"
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["propose", "--config", str(cfg_path), "--output", str(serial)]) == 0
        assert main(["propose", "--config", str(cfg_path), "--output", str(parallel), "--jobs", "3"]) == 0
        assert (serial / "proposals.jsonl").read_bytes() == (parallel / "proposals.jsonl").read_bytes()

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_parallel_propose_starts_at_most_one_worker_per_video(self, fixture_dir, tmp_path, serial_pool, jobs,
                                                                 workers):
        cfg_path = fixture_dir / "config.json"  # 3 videos
        assert main(["propose", "--config", str(cfg_path), "--output", str(tmp_path), "--jobs", str(jobs)]) == 0
        assert serial_pool.sizes == [workers]

    def test_pooled_proposals_come_back_as_the_serial_records(self, fixture_dir, tmp_path, monkeypatch, serial_pool):
        written = []
        monkeypatch.setattr(cli, "write_proposals", lambda path, proposals: written.append(proposals))
        cfg_path = fixture_dir / "config.json"
        for jobs in ("1", "2"):
            assert main(["propose", "--config", str(cfg_path), "--output", str(tmp_path), "--jobs", jobs]) == 0
        assert serial_pool.sizes == [2]
        assert len(serial_pool.sent) == 3 and not any(b"Proposal" in sent for sent in serial_pool.sent)
        serial, pooled = written
        assert pooled == serial and len(pooled) > 0
        assert {(type(p), type(p.cuboid)) for p in pooled} == {(Proposal, Cuboid)}

    def test_pooled_workers_keep_their_rounds_on_one_thread(self, fixture_dir, tmp_path):
        # Every k-d tree round reaches the split size, on any box.  Each video
        # prints its run's `--jobs`, whether the parent ran it, its process's
        # thread count and whether that process made the rounds' pool:
        # `--jobs 2` in real workers, then `--jobs 1` in the parent, which
        # shows the settings split.  Workers and parent share one stdout pipe,
        # so lines are grouped by the run they name, not read in order, and
        # each line is one `os.write`, which the pipe keeps whole: with
        # PYTHONUNBUFFERED set, `print` writes each piece on its own, and two
        # workers' pieces interleave.
        code = (
            "import os, sys, threading\n"
            "from actionpipe import cli, clustering\n"
            "clustering.WARD_SPLIT = 1\n"
            "clustering._cpus = lambda: 2\n"
            "parent = os.getpid()\n"
            "run = None  # the run's --jobs; forked workers inherit it\n"
            "def propose_video(*args):\n"
            "    out = clustering.propose_video(*args)\n"
            "    seen = (run, os.getpid() == parent, threading.active_count(), clustering._split_pool is not None)\n"
            "    os.write(1, ('video %s %s %s %s\\n' % seen).encode())\n"
            "    return out\n"
            "cli.propose_video = propose_video\n"
            "for run in ('2', '1'):\n"
            "    assert cli.main(['propose', '--config', sys.argv[1], '--output', sys.argv[2], '--jobs', run]) == 0\n"
        )
        out = run_python(code, str(fixture_dir / "config.json"), str(tmp_path))
        videos = {"1": [], "2": []}
        for line in out.splitlines():
            if line.startswith("video "):
                _, run, *seen = line.split()
                videos[run].append(seen)
        assert videos["2"] == [["False", "1", "False"]] * 3
        assert [(in_parent, made_pool) for in_parent, _, made_pool in videos["1"]] == [("True", "True")] * 3

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_propose_refuses_fewer_than_one_job(self, fixture_dir, tmp_path, capsys, jobs):
        cfg_path = fixture_dir / "config.json"
        assert main(["propose", "--config", str(cfg_path), "--output", str(tmp_path / "out"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "out").exists()

    def test_multi_label_emits_at_least_argmax(self, fixture_dir, tmp_path):
        cfg_path = fixture_dir / "config.json"
        run_pipeline(cfg_path)
        out = fixture_dir / "out"
        argmax_count = len((out / "detections_final.jsonl").read_text().splitlines())
        assert main(["finalize", "--config", str(cfg_path), "--multi-label",
                     "--min-class-score", "0.001"]) == 0
        multi_count = len((out / "detections_final.jsonl").read_text().splitlines())
        assert multi_count >= argmax_count
        # restore the argmax output for the determinism checks that follow
        assert main(["finalize", "--config", str(cfg_path)]) == 0

    def test_override_flag_changes_output(self, fixture_dir, tmp_path):
        cfg_path = fixture_dir / "config.json"
        sparse = tmp_path / "sparse"
        assert main(["propose", "--config", str(cfg_path), "--output", str(sparse),
                     "--half-windows", "16", "--stride", "30"]) == 0
        default_count = len((fixture_dir / "out" / "proposals.jsonl").read_text().splitlines())
        sparse_count = len((sparse / "proposals.jsonl").read_text().splitlines())
        assert 0 < sparse_count < default_count


def test_score_never_imports_scipy_optimize_or_a_process_pool(tmp_path):
    fixture = tmp_path / "fixture"
    assert main(["synth", "--output", str(fixture), "--scenario", "clean", "--seed", "0", "--videos", "1"]) == 0
    config = str(fixture / "config.json")
    for stage in ("propose", "label", "finalize"):
        assert main([stage, "--config", config]) == 0
    code = (
        "import sys\n"
        "import actionpipe.cli\n"
        "assert actionpipe.cli.main(['score', '--config', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']"
        " or m == 'concurrent.futures.process'))\n"
    )
    assert run_python(code, config).splitlines()[-1] == "[]"
    assert (fixture / "out" / "report.json").is_file()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("raised,code", [(None, 0), (ValidationError("bad"), 1), (OSError("gone"), 2)],
                             ids=["exit0", "exit1", "exit2"])
    def test_main_pauses_and_restores_the_collector(self, monkeypatch, tmp_path, enabled, raised, code):
        seen = []

        def fake_synth(*args):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised

        monkeypatch.setattr(cli, "cmd_synth", fake_synth)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["synth", "--output", str(tmp_path)]) == code
            assert seen == [False] and gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path):
        # every stage on a 1-video and a 3-video fixture, and loss-oracle on 1 and 3 queries; the pooled
        # propose runs `_propose_one`, the serial code, in workers that inherit the paused collector
        inputs = []
        for size in (1, 3):
            fixture = tmp_path / f"fixture{size}"
            assert main(["synth", "--output", str(fixture), "--scenario", "clean", "--seed", "0",
                         "--videos", str(size)]) == 0
            queries = fixture / "queries.jsonl"
            queries.write_text(size * (json.dumps({"class_scores": [1.0 / 13] * 13, "true_class": 1,
                                                   "predicted": [0.0, 0.0], "target": [0.5, 2.0]}) + "\n"),
                               encoding="utf-8")
            inputs += [str(fixture / "config.json"), str(queries)]
        # the collector stays off throughout; gc.collect() counts the cyclic garbage left since the last one
        code = (
            "import gc, sys\n"
            "from actionpipe.cli import main\n"
            "gc.disable()\n"
            "def garbage(config, queries):\n"
            "    gc.collect()\n"
            "    for stage in (['propose'], ['propose', '--jobs', '2'], ['label'], ['finalize'], ['score']):\n"
            "        assert main([*stage, '--config', config]) == 0\n"
            "    assert main(['loss-oracle', '--input', queries, '--output', queries + '.out']) == 0\n"
            "    return gc.collect()\n"
            "garbage(*sys.argv[1:3])\n"  # first calls fill lazy caches
            "print(garbage(*sys.argv[1:3]), garbage(*sys.argv[3:5]))\n"
        )
        one, three = map(int, run_python(code, *inputs).splitlines()[-1].split())
        assert one == three


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["propose", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bad_config_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["propose", "--config", str(bad)]) == 1

    def test_bad_detection_record(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "config.json").read_text())
        det = tmp_path / "det.jsonl"
        det.write_text(json.dumps({
            "video_id": "clean_00", "frame": 0, "object_class": "person",
            "x_min": 0.0, "y_min": 0.0, "x_max": 5.0, "y_max": 5.0, "confidence": 3.0,
        }) + "\n", encoding="utf-8")
        cfg["detections"] = str(det)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        # other relative paths resolve against the new config's directory
        for key in ("ground_truth", "videos", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["propose", "--config", str(cfg_path)]) == 1

    def test_detection_box_outside_frame(self, fixture_dir, tmp_path, capsys):
        cfg = json.loads((fixture_dir / "config.json").read_text())
        det = tmp_path / "det.jsonl"
        lines = (fixture_dir / cfg["detections"]).read_text().splitlines()
        wide = {**json.loads(lines[0]), "x_max": 1e6}
        det.write_text("".join(line + "\n" for line in [*lines, json.dumps(wide)]), encoding="utf-8")
        for key in ("ground_truth", "videos", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["detections"] = str(det)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["propose", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{det}:{len(lines) + 1}: box outside video bounds of {wide['video_id']!r}" in err
        assert not (tmp_path / "out" / "proposals.jsonl").exists()

    def test_missing_score_record(self, fixture_dir, tmp_path, capsys):
        run_pipeline(fixture_dir / "config.json")
        cfg = json.loads((fixture_dir / "config.json").read_text())
        scores = score_records(load_scores(fixture_dir / "scores.jsonl"))
        truncated = tmp_path / "scores.jsonl"
        write_scores(truncated, scores[:-1])
        for key in ("detections", "ground_truth", "videos"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["scores"] = str(truncated)
        cfg["output_dir"] = str(fixture_dir / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["finalize", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: no score record for proposal {scores[-1].proposal_id!r}\n"

    def test_proposal_of_unknown_video(self, fixture_dir, tmp_path, capsys):
        run_pipeline(fixture_dir / "config.json")
        cfg = json.loads((fixture_dir / "config.json").read_text())
        lines = (fixture_dir / cfg["videos"]).read_text().splitlines()
        videos = tmp_path / "videos.jsonl"
        videos.write_text("".join(line + "\n" for line in lines[1:]), encoding="utf-8")
        for key in ("detections", "ground_truth", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["videos"] = str(videos)
        cfg["output_dir"] = str(tmp_path / "out")
        (tmp_path / "out").mkdir()
        shutil.copy(fixture_dir / "out" / "proposals.jsonl", tmp_path / "out" / "proposals.jsonl")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["finalize", "--config", str(cfg_path)]) == 1
        assert f"has unknown video_id {json.loads(lines[0])['video_id']!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "detections_final.jsonl").exists()

    @pytest.mark.parametrize("stage,upstream,written,what", [
        ("label", "proposals.jsonl", ["labels.jsonl"], "proposal"),
        ("finalize", "proposals.jsonl", ["detections_final.jsonl"], "proposal"),
        ("score", "detections_final.jsonl", ["report.json", "curves"], "detection of proposal"),
    ], ids=["label", "finalize", "score"])
    def test_upstream_record_of_unknown_video(self, fixture_dir, tmp_path, capsys, stage, upstream, written, what):
        run_pipeline(fixture_dir / "config.json")
        out = tmp_path / "out"
        shutil.copytree(fixture_dir / "out", out)
        for name in written:
            shutil.rmtree(out / name) if (out / name).is_dir() else (out / name).unlink()
        lines = (out / upstream).read_text(encoding="utf-8").splitlines()
        first = {**json.loads(lines[0]), "video_id": "ghost"}
        write_jsonl(out / upstream, [first] + [json.loads(line) for line in lines[1:]])
        assert main([stage, "--config", str(fixture_dir / "config.json"), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{out / upstream}: {what} {first['proposal_id']!r} has unknown video_id 'ghost'" in err
        assert not any((out / name).exists() for name in written)

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--videos", "0"], ["--videos", "-2"]])
    def test_synth_rejects_bad_counts(self, tmp_path, capsys, flags):
        out = tmp_path / "fixture"
        assert main(["synth", "--output", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_oversized_integer_is_validation_error(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "config.json").read_text())
        videos = [json.loads(line) for line in (fixture_dir / cfg["videos"]).read_text().splitlines()]
        videos[0]["width"] = 10**400
        bad = tmp_path / "videos.jsonl"
        bad.write_text("".join(json.dumps(v) + "\n" for v in videos), encoding="utf-8")
        for key in ("detections", "ground_truth", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["videos"] = str(bad)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["propose", "--config", str(cfg_path)]) == 1

    def test_non_utf8_detections_are_validation_error(self, fixture_dir, tmp_path, capsys):
        cfg = json.loads((fixture_dir / "config.json").read_text())
        det = tmp_path / "det.jsonl"
        det.write_bytes((fixture_dir / cfg["detections"]).read_bytes() + b'{"video_id": "\xff"}\n')
        line = det.read_bytes().count(b"\n")
        for key in ("ground_truth", "videos", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["detections"] = str(det)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["propose", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{det}:{line}: malformed record: 'utf-8' codec can't decode byte 0xff" in err

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_bytes(json.dumps(SAVED_CONFIG).encode("utf-8").replace(b"out", b"\xff"))
        for command in ("propose", "label", "finalize", "score"):
            assert main([command, "--config", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_score_without_ground_truth(self, fixture_dir, tmp_path):
        run_pipeline(fixture_dir / "config.json")
        cfg = json.loads((fixture_dir / "config.json").read_text())
        empty = tmp_path / "gt.jsonl"
        empty.write_text("", encoding="utf-8")
        for key in ("detections", "videos", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["ground_truth"] = str(empty)
        cfg["output_dir"] = str(fixture_dir / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["score", "--config", str(cfg_path)]) == 1


    def test_failed_score_write_keeps_previous_report(self, fixture_dir, tmp_path, monkeypatch):
        run_pipeline(fixture_dir / "config.json")
        out = tmp_path / "out"
        shutil.copytree(fixture_dir / "out", out)
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("actionpipe.ingest.os.replace", failing_replace)
        assert main(["score", "--config", str(fixture_dir / "config.json"), "--output", str(out)]) == 2
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


def absolute_config(fixture_dir, tmp_path, **changes) -> Path:
    """A copy of the fixture's config in tmp_path, its input paths absolute, output in tmp_path/out."""
    cfg = json.loads((fixture_dir / "config.json").read_text())
    for key in ("detections", "ground_truth", "videos", "scores"):
        cfg[key] = str(fixture_dir / cfg[key])
    cfg.update(output_dir=str(tmp_path / "out"), **changes)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


def write_jsonl(path, records) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


class TestStrictReport:
    """`report.json` is strict JSON: a video length or a false-alarm rate past the float range exits 1."""

    def test_video_minutes_overflow_is_located(self, fixture_dir, tmp_path, capsys):
        videos = [json.loads(line) for line in (fixture_dir / "videos.jsonl").read_text().splitlines()]
        videos[1]["frame_rate"] = 1e-310  # 900 frames / 1e-310 fps overflows to inf minutes
        config = absolute_config(fixture_dir, tmp_path, videos=write_jsonl(tmp_path / "videos.jsonl", videos))
        for stage in ("propose", "label", "finalize", "score"):
            assert main([stage, "--config", str(config)]) == 1
            assert f"{tmp_path / 'videos.jsonl'}:2: video length" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("num_videos,num_frames,frame_rate", [
        (1, 1, 1e307),  # 1.7e-309 minutes, subnormal: one false alarm per minute overflows
        (100, 1, 6e-309),  # 2.8e306 minutes each, finite; their sum overflows
    ], ids=["rate_fa_overflow", "total_minutes_overflow"])
    def test_score_exits_1_rather_than_write_a_non_finite_number(self, tmp_path, capsys, num_videos, num_frames,
                                                                 frame_rate):
        box = {"x_min": 0.0, "y_min": 0.0, "x_max": 10.0, "y_max": 10.0, "f_start": 0, "f_end": 0}
        out = tmp_path / "out"
        out.mkdir()
        videos = [{"video_id": f"v{i:03d}", "num_frames": num_frames, "frame_rate": frame_rate, "width": 20.0,
                   "height": 20.0} for i in range(num_videos)]
        dets = [{"action_class": "loading", "confidence": conf, "video_id": "v000", "proposal_id": f"p{i}", **box}
                for i, conf in enumerate((0.9, 0.8))]  # one hit, one false alarm
        gts = [{"video_id": "v000", "action_class": "loading", **box}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "detections": "unused.jsonl",
            "ground_truth": write_jsonl(tmp_path / "gt.jsonl", gts),
            "videos": write_jsonl(tmp_path / "videos.jsonl", videos),
            "output_dir": str(out),
        }), encoding="utf-8")
        write_jsonl(out / "detections_final.jsonl", dets)
        assert main(["score", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write the non-finite number inf")
        assert sorted(path.name for path in out.iterdir()) == ["detections_final.jsonl"]


@pytest.mark.parametrize("label", ["", ".", "..", "aggregate", "open/close", "nul\x00byte"],
                         ids=["empty", "dot", "dotdot", "aggregate", "slash", "nul"])
def test_label_that_cannot_name_a_curve_file_exits_1_before_any_write(fixture_dir, tmp_path, capsys, label):
    classes = ["vehicle_u_turn", label, *json.loads((fixture_dir / "config.json").read_text())["action_classes"][2:]]
    config = absolute_config(fixture_dir, tmp_path, action_classes=classes)
    for stage in ("propose", "label", "finalize", "score"):
        assert main([stage, "--config", str(config)]) == 1
        assert f"action class label {label!r} cannot name a curve file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rescoring_removes_the_curve_of_a_class_that_lost_its_ground_truth(fixture_dir, tmp_path):
    config = absolute_config(fixture_dir, tmp_path)
    run_pipeline(config)
    curves = tmp_path / "out" / "curves"
    gts = [json.loads(line) for line in (fixture_dir / "ground_truth.jsonl").read_text().splitlines()]
    dropped = gts[0]["action_class"]
    assert (curves / f"{dropped}.txt").is_file()
    (curves / "notes.txt").write_text("not a curve\n", encoding="utf-8")
    kept = write_jsonl(tmp_path / "ground_truth.jsonl", [gt for gt in gts if gt["action_class"] != dropped])
    assert main(["score", "--config", str(absolute_config(fixture_dir, tmp_path, ground_truth=kept))]) == 0
    classes = json.loads((tmp_path / "out" / "report.json").read_text())["classes"]
    assert dropped not in classes
    assert sorted(path.name for path in curves.iterdir()) == sorted(
        ["aggregate.txt", "notes.txt", *(f"{label}.txt" for label in classes)])


class TestNonFiniteOverrides:
    """Argparse reads `inf` and `nan` as floats; the validators refuse them, as a config file cannot hold them."""

    @pytest.mark.parametrize("stage,flags,output", [
        ("propose", ["--clusters-per-frame", "inf"], "proposals.jsonl"),
        ("propose", ["--temporal-scale", "inf"], "proposals.jsonl"),
        ("propose", ["--temporal-scale", "1e160"], "proposals.jsonl"),  # finite, but Ward distances overflow
        ("finalize", ["--min-class-score", "nan"], "detections_final.jsonl"),
        ("score", ["--rates", "nan", "0.1", "inf"], "report.json"),
    ], ids=["clusters_per_frame_inf", "temporal_scale_inf", "temporal_scale_1e160", "min_class_score_nan",
            "rates_nan_inf"])
    def test_exits_1_and_writes_nothing(self, fixture_dir, tmp_path, capsys, stage, flags, output):
        config = ["--config", str(fixture_dir / "config.json"), "--output", str(tmp_path)]
        stages = ("propose", "label", "finalize", "score")
        for before in stages[:stages.index(stage)]:
            assert main([before, *config]) == 0
        capsys.readouterr()
        assert main([stage, *config, *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / output).exists()

    def test_loss_oracle_refuses_a_non_finite_weight(self, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"class_scores": [0.5, 0.5], "true_class": 0}) + "\n", encoding="utf-8")
        assert main(["loss-oracle", "--input", str(queries), "--loc-weight", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: loc_weight")


class TestEdgeInputs:
    def test_empty_detections_succeed(self, fixture_dir, tmp_path):
        cfg = json.loads((fixture_dir / "config.json").read_text())
        empty = tmp_path / "det.jsonl"
        empty.write_text("", encoding="utf-8")
        for key in ("ground_truth", "videos", "scores"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["detections"] = str(empty)
        cfg["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["propose", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "proposals.jsonl").read_text() == ""

    def test_refined_spans_stay_inside_their_video(self, fixture_dir, tmp_path):
        run_pipeline(fixture_dir / "config.json")
        cfg = json.loads((fixture_dir / "config.json").read_text())
        scores = score_records(load_scores(fixture_dir / "scores.jsonl"))
        widened = tmp_path / "scores.jsonl"  # every span refined to 4 times its length about its middle
        write_scores(widened, [rec._replace(refinement=(-4.0, 4.0)) for rec in scores])
        for key in ("detections", "ground_truth", "videos"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["scores"] = str(widened)
        cfg["output_dir"] = str(tmp_path / "out")
        (tmp_path / "out").mkdir()
        shutil.copy(fixture_dir / "out" / "proposals.jsonl", tmp_path / "out" / "proposals.jsonl")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["finalize", "--config", str(cfg_path)]) == 0
        videos = Path(cfg["videos"]).read_text(encoding="utf-8").splitlines()
        frames = {v["video_id"]: v["num_frames"] for v in map(json.loads, videos)}
        dets = [json.loads(line) for line in (tmp_path / "out" / "detections_final.jsonl").read_text().splitlines()]
        assert dets and all(0 <= d["f_start"] <= d["f_end"] <= frames[d["video_id"]] - 1 for d in dets)
        assert any(d["f_start"] == 0 or d["f_end"] == frames[d["video_id"]] - 1 for d in dets)

    def test_all_non_action_scores_give_empty_finalize(self, fixture_dir, tmp_path):
        run_pipeline(fixture_dir / "config.json")
        cfg = json.loads((fixture_dir / "config.json").read_text())
        scores = score_records(load_scores(fixture_dir / "scores.jsonl"))
        flipped = [
            rec.__class__(rec.proposal_id, (0.97,) + (0.03 / 12,) * 12, (0.0, 0.0))
            for rec in scores
        ]
        flat = tmp_path / "scores.jsonl"
        write_scores(flat, flipped)
        for key in ("detections", "ground_truth", "videos"):
            cfg[key] = str(fixture_dir / cfg[key])
        cfg["scores"] = str(flat)
        cfg["output_dir"] = str(tmp_path / "out")
        (tmp_path / "out").mkdir()
        import shutil
        shutil.copy(fixture_dir / "out" / "proposals.jsonl", tmp_path / "out" / "proposals.jsonl")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["finalize", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "detections_final.jsonl").read_text() == ""


class TestLossOracle:
    def test_queries(self, tmp_path):
        queries = tmp_path / "q.jsonl"
        uniform = [1.0 / 13] * 13
        queries.write_text(
            json.dumps({"class_scores": uniform, "true_class": 0}) + "\n"
            + json.dumps({"class_scores": uniform, "true_class": 1,
                          "predicted": [0.0, 0.0], "target": [0.5, 2.0]}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.jsonl"
        assert main(["loss-oracle", "--input", str(queries), "--output", str(out)]) == 0
        results = [json.loads(line) for line in out.read_text().splitlines()]
        assert results[0]["full_loss"] == results[0]["cross_entropy"]
        assert results[0]["localization_loss"] is None
        assert results[1]["localization_loss"] == pytest.approx(1.625)
        assert results[1]["full_loss"] == pytest.approx(2.9712, abs=1e-4)

    def test_action_query_without_refinement_fails(self, tmp_path):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"class_scores": [1.0 / 13] * 13, "true_class": 3}) + "\n")
        assert main(["loss-oracle", "--input", str(queries)]) == 1

    @pytest.mark.parametrize("query", [
        {"class_scores": ["a", 0.5], "true_class": 0},
        {"class_scores": [0.5, 0.5], "true_class": 1, "predicted": 5, "target": [0.0, 0.0]},
        {"class_scores": [0.5, 0.5], "true_class": 1, "predicted": [0], "target": [0.0, 0.0]},
        [0.5, 0.5],
        {"class_scores": [0.5, 0.5], "true_class": True, "predicted": [0.0, 0.0], "target": [0.0, 0.0]},
        {"class_scores": [0.5, 0.5], "true_class": 1, "predicted": [1e308, 0.0], "target": [-1e308, 0.0]},
    ], ids=["string_score", "scalar_predicted", "short_predicted", "array_line", "bool_true_class", "infinite_loss"])
    def test_malformed_query_is_located(self, tmp_path, capsys, query):
        queries = tmp_path / "q.jsonl"
        valid = {"class_scores": [0.5, 0.5], "true_class": 0}
        queries.write_text(json.dumps(valid) + "\n" + json.dumps(query) + "\n", encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["loss-oracle", "--input", str(queries), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {queries}:2: ") and captured.err.count(f"{queries}:") == 1
        assert captured.out == "" and not out.exists()


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self, fixture_dir, tmp_path):
        cfg = load_config(fixture_dir / "config.json")
        copy_path = tmp_path / "copy.json"
        save_config(cfg, copy_path)
        assert load_config(copy_path) == cfg
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"detections": "d", "ground_truth": "g", "videos": "v",
                              "output_dir": "o", "mystery": 1})
        with pytest.raises(ValidationError):
            config_from_dict({"detections": "d", "ground_truth": "g", "videos": "v",
                              "output_dir": "o", "nms": {"bogus": 1}})

    def test_dict_keys_are_the_dataclass_fields(self, fixture_dir):
        data = config_to_dict(load_config(fixture_dir / "config.json"))
        fields = dataclasses.fields(PipelineConfig)
        assert set(data) == {f.name for f in fields}
        sections = [f for f in fields if dataclasses.is_dataclass(f.default)]
        assert {f.name for f in sections} == {"cluster", "jitter", "labeling", "loss", "nms", "match"}
        for f in sections:
            assert set(data[f.name]) == {g.name for g in dataclasses.fields(f.default)}

    def test_null_means_none_where_admitted_else_default(self):
        required = {"detections": "d", "ground_truth": "g", "videos": "v", "output_dir": "o"}
        nulls = {"scores": None, "object_classes": None, "min_confidence": None, "rate_grid": None, "nms": None}
        cfg = config_from_dict({**required, **nulls})
        assert cfg == PipelineConfig(Path("d"), Path("g"), Path("v"), Path("o"), object_classes=None)
        with pytest.raises(ValidationError, match="missing required path 'videos'"):
            config_from_dict({**required, "videos": None})

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_min_confidence_takes_numbers_only(self, value):
        with pytest.raises(ValidationError, match="^min_confidence must be a number"):
            PipelineConfig(Path("d"), Path("g"), Path("v"), Path("o"), min_confidence=value)

    def test_missing_path_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"detections": "d"})

    @pytest.mark.parametrize("key,value", [
        ("min_confidence", "a"),
        ("action_classes", 5),
        ("object_classes", 7),
        ("detections", 5),
        ("rate_grid", "ab"),
    ])
    def test_wrong_json_type_exits_1(self, tmp_path, capsys, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SAVED_CONFIG, key: value}), encoding="utf-8")
        assert main(["propose", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: config key {key!r} has the wrong type: {value!r}\n"

    @pytest.mark.parametrize("section,field,value", [
        ("jitter", "stride", 1.5),
        ("nms", "temporal_iou", True),
        ("cluster", "min_cluster_size", 1.5),
        ("jitter", "half_windows", [True, 2]),
    ])
    def test_wrong_section_field_type_exits_1(self, tmp_path, capsys, section, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SAVED_CONFIG, section: {**SAVED_CONFIG[section], field: value}}),
                        encoding="utf-8")
        assert main(["propose", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad config section {section!r}: field {field!r} has the wrong type: {value!r}\n"
        )

    def test_saved_config_loads(self, tmp_path):
        # a config as `synth` saves it; loss.num_classes is read by nothing but every saved config carries it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SAVED_CONFIG), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.loss == LossParams(loc_weight=0.25, num_classes=12)
        assert config_to_dict(cfg)["loss"] == SAVED_CONFIG["loss"]
        assert cfg == PipelineConfig(
            detections=tmp_path / "detections.jsonl",
            ground_truth=tmp_path / "ground_truth.jsonl",
            videos=tmp_path / "videos.jsonl",
            output_dir=tmp_path / "out",
            scores=tmp_path / "scores.jsonl",
        )


SAVED_CONFIG = {
    "action_classes": [
        "vehicle_u_turn", "vehicle_left_turn", "vehicle_right_turn", "closing_trunk", "opening_trunk",
        "loading", "unloading", "transport_heavy_carry", "open", "close", "enter", "exit",
    ],
    "cluster": {"clusters_per_frame": 0.028, "linkage": "ward", "min_cluster_size": 1, "temporal_scale": 1.0},
    "detections": "detections.jsonl",
    "ground_truth": "ground_truth.jsonl",
    "jitter": {"clamp_to_video": True, "half_windows": [16, 32, 64, 128], "include_end": False,
               "min_span": 2, "stride": 15},
    "labeling": {"hard_temporal_low": 0.01, "spatial_positive": 0.35, "temporal_negative": 0.2,
                 "temporal_positive": 0.5},
    "loss": {"loc_weight": 0.25, "num_classes": 12},
    "match": {"spatial_iou": 0.0, "temporal_iou": 0.2},
    "min_confidence": 0.5,
    "nms": {"spatial_iou": 0.05, "temporal_iou": 0.2},
    "object_classes": ["person", "vehicle"],
    "output_dir": "out",
    "rate_grid": [0.01, 0.03, 0.1, 0.15, 0.2, 1.0],
    "recall_iou_mode": "volume",
    "scores": "scores.jsonl",
    "videos": "videos.jsonl",
}

# (command, flags, config field the flags set, value it takes); every value differs from the default
OVERRIDES = [
    *((cmd, ["--output", "elsewhere"], "output_dir", Path("elsewhere"))
      for cmd in ("propose", "label", "finalize", "score")),
    ("propose", ["--min-confidence", "0.7"], "min_confidence", 0.7),
    ("propose", ["--temporal-scale", "2.5"], "cluster.temporal_scale", 2.5),
    ("propose", ["--clusters-per-frame", "0.01"], "cluster.clusters_per_frame", 0.01),
    ("propose", ["--min-cluster-size", "3"], "cluster.min_cluster_size", 3),
    ("propose", ["--stride", "30"], "jitter.stride", 30),
    ("propose", ["--half-windows", "8", "24"], "jitter.half_windows", (8, 24)),
    ("propose", ["--min-span", "5"], "jitter.min_span", 5),
    ("propose", ["--no-clamp"], "jitter.clamp_to_video", False),
    ("propose", ["--include-end"], "jitter.include_end", True),
    ("label", ["--spatial-positive", "0.4"], "labeling.spatial_positive", 0.4),
    ("label", ["--temporal-positive", "0.6"], "labeling.temporal_positive", 0.6),
    ("label", ["--temporal-negative", "0.1"], "labeling.temporal_negative", 0.1),
    ("label", ["--hard-temporal-low", "0.05"], "labeling.hard_temporal_low", 0.05),
    ("finalize", ["--nms-temporal-iou", "0.3"], "nms.temporal_iou", 0.3),
    ("finalize", ["--nms-spatial-iou", "0.1"], "nms.spatial_iou", 0.1),
    ("score", ["--match-temporal-iou", "0.5"], "match.temporal_iou", 0.5),
    ("score", ["--match-spatial-iou", "0.1"], "match.spatial_iou", 0.1),
    ("score", ["--rates", "0.1", "1"], "rate_grid", (0.1, 1.0)),
]
CONFIG_COMMANDS = ("propose", "label", "finalize", "score")


def with_field(cfg, path, value):
    section, _, field = path.rpartition(".")
    if section:
        value = dataclasses.replace(getattr(cfg, section), **{field: value})
        field = section
    return dataclasses.replace(cfg, **{field: value})


class TestOverrides:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SAVED_CONFIG), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command,flags,field,value", OVERRIDES,
                             ids=[f"{cmd}{flags[0]}" for cmd, flags, _, _ in OVERRIDES])
    def test_flag_sets_exactly_its_field(self, config_path, command, flags, field, value):
        base = load_config(config_path)
        args = build_parser().parse_args([command, "--config", str(config_path), *flags])
        got = _override(base, args)
        assert got == with_field(base, field, value)
        assert got != base

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_no_flags_leave_config_unchanged(self, config_path, command):
        base = load_config(config_path)
        assert _override(base, build_parser().parse_args([command, "--config", str(config_path)])) == base

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_table_covers_every_override_flag(self, command):
        top_level = {f.name for f in dataclasses.fields(PipelineConfig)}
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            action.option_strings[0]
            for action in subparsers.choices[command]._actions
            if "." in action.dest or action.dest in top_level
        }
        assert declared == {flags[0] for cmd, flags, _, _ in OVERRIDES if cmd == command}


def load_spans():
    """The benchmark's span recorder, `perfbench/spans.py`."""
    spans_path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_lookup_sites_resolve():
    """Every (module, attr) the benchmark's traced run patches exists on actionpipe.<module>."""
    spans = load_spans()
    missing = [
        f"actionpipe.{module}.{attr}"
        for module, attr, *_ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"actionpipe.{module}"), attr, None))
    ]
    assert missing == []


def test_traced_run_samples_every_layer(tmp_path, monkeypatch):
    """A traced run of the four stages calls every layer the benchmark traces (else it is not `correct`)."""
    spans = load_spans()
    fixture = tmp_path / "fixture"
    assert main(["synth", "--output", str(fixture), "--scenario", "clean", "--seed", "0", "--videos", "2"]) == 0
    for module_name, attr, *_ in spans.TRACED:
        module = importlib.import_module(f"actionpipe.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    config = str(fixture / "config.json")
    for argv in (["propose"], ["label"], ["finalize", "--multi-label"], ["score"]):
        assert main([*argv, "--config", config]) == 0
    assert {layer for _, _, layer, _ in spans.TRACED} <= {name for name, *_ in recorder.spans}
    assert recorder.counts["refine.calls"] == recorder.counts["nms.candidates"] > 0
    assert recorder.counts["scoring.hungarian_match_calls"] > 0
