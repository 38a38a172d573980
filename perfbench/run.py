"""Stage benchmark for actionpipe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`.  The workload's inputs are generated from the seed
(cached per workload and seed under `.bench_work/`, never timed).  Then the
four stages run in order, each as its own fresh-interpreter call of
`actionpipe.cli.main` with the CLI defaults, one client in a closed loop,
for at least S seconds and at least two whole pipelines.

Every stage call is checked: it must exit 0 and write the same bytes as the
first call of that stage in the run.  The last line of stdout is one JSON
object: `correct`, `attempted` and `failed` (stage calls) and `metrics`.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(see `Run.end_to_end` for how a run's calls are reduced to one value).
With --trace 1 untraced and traced pipelines
alternate, and the metrics are the per-layer metrics: self times and counts
from the spans of the traced calls (see spans.py), plus each stage's
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STAGES = ("propose", "label", "finalize", "score")
STAGE_OUTPUTS = {
    "propose": ("proposals.jsonl",),
    "label": ("labels.jsonl",),
    "finalize": ("detections_final.jsonl",),
    "score": ("report.json", "curves"),
}
MIN_PIPELINES = 2  # the second one is the first that can disagree with the first
STOP_STARTING_AFTER_S = 110.0  # no new pipeline after this, so a run ends well within 180 s
CALL_DEADLINE_S = 170.0
# The reference task runs on each side of a stage call for this share of the
# stage's last wall time (at least once, at most REF_MAX_S), so that a long
# call is compared with a host speed taken over more than an instant.
REF_SHARE = 0.1
REF_MAX_S = 0.6


def load_metric_names() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def fixture_for(workload, seed: int) -> tuple[Path, dict]:
    """Generate the workload's inputs for `seed` once; later runs reuse them."""
    import workloads

    fixture = WORK / "inputs" / f"{workload.name}-{seed}"
    if not (fixture / "inputs.json").is_file():
        partial = fixture.with_name(fixture.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        workloads.generate(workload, seed, partial)
        shutil.rmtree(fixture, ignore_errors=True)
        os.replace(partial, fixture)
    return fixture, json.loads((fixture / "inputs.json").read_text(encoding="utf-8"))


def digest(path: Path) -> str:
    h = hashlib.sha256()
    paths = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def call_stage(stage: str, fixture: Path, out: Path, extra: list[str], trace: bool, deadline: float,
               ref_seconds: float) -> dict:
    """One fresh-interpreter stage call; returns its timings, exit code, reference timings and spans."""
    result_path = out.parent / f"{out.name}.{stage}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "stage.py"), str(result_path), "1" if trace else "0", str(ref_seconds), stage,
            "--config", str(fixture / "config.json"), "--output", str(out), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "error": f"{stage} did not finish before the run deadline"}
    error = proc.stderr.decode(errors="replace").strip()[-500:]
    if not result_path.is_file():
        return {"exit": proc.returncode or "no result file", "error": error}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["error"] = error
    record["setup_s"] = record["imported"] - spawned
    record["wall_s"] = record["end"] - record["start"]
    return record


def host_scale(record: dict, before_only: bool = False) -> float:
    """Factor that turns a time measured in this call into seconds on a lightly loaded core.

    `stage.py` times a fixed reference task (reference.py) right before and
    right after the stage; a time is divided by the reference's mean time
    over those runs.
    """
    refs = [record["ref_before"]] if before_only else [record["ref_before"], record["ref_after"]]
    mean = sum(r["total"] * r["runs"] for r in refs) / sum(r["runs"] for r in refs)
    return reference.NOMINAL_S / mean


def scaled_wall(record: dict) -> float:
    return record["wall_s"] * host_scale(record)


class Run:
    """One benchmark run of one workload and seed: calls, checks and samples."""

    def __init__(self, workload, seed: int, fixture: Path, sizes: dict):
        from actionpipe.config import load_config

        self.workload = workload
        self.fixture = fixture
        self.sizes = sizes
        self.cfg = load_config(fixture / "config.json")
        self.out_root = WORK / "runs" / f"{workload.name}-{seed}"
        self.reference: dict[str, str] = {}  # output name -> sha256 of its first successful call
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: dict[str, float] = {}
        self.samples: dict[bool, list[dict]] = {False: [], True: []}  # traced -> one dict per whole pipeline
        self.setup: list[float] = []
        self.last_wall: dict[str, float] = {}

    def pipeline(self, traced: bool, deadline: float) -> bool:
        """Run the four stages once; return False when a call timed out."""
        out = self.out_root / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.out_root.mkdir(parents=True, exist_ok=True)
        calls = {}
        for stage in STAGES:
            self.attempted += 1
            ref_seconds = min(REF_MAX_S, REF_SHARE * self.last_wall.get(stage, 0.0))
            record = call_stage(stage, self.fixture, out, self.workload.stage_args(stage), traced, deadline,
                                ref_seconds)
            if not self.check(stage, record, out):
                self.failed += 1
                return record["exit"] != "timeout"
            self.setup.append(record["setup_s"])
            self.last_wall[stage] = record["wall_s"]
            calls[stage] = record
        self.samples[traced].append(calls)
        return True

    def check(self, stage: str, record: dict, out: Path) -> bool:
        if record["exit"] != 0:
            self.problems.append(f"{stage}: exit {record['exit']}: {record.get('error', '')}")
            return False
        ok = True
        for name in STAGE_OUTPUTS[stage]:
            path = out / name
            if not path.exists():
                self.problems.append(f"{stage}: {name} was not written")
                ok = False
                continue
            sha = digest(path)
            if name not in self.reference:
                self.reference[name] = sha
                try:
                    self.check_first_output(name, path)
                except (ValueError, KeyError) as exc:  # ValidationError and JSONDecodeError are ValueErrors
                    self.problems.append(f"{stage}: cannot read {name}: {exc!r}")
                    ok = False
            elif sha != self.reference[name]:
                self.problems.append(f"{stage}: {name} differs from the first {stage} call of this run")
                ok = False
        return ok

    def check_first_output(self, name: str, path: Path) -> None:
        """Quality numbers and sanity checks, once per run on the reference outputs."""
        from actionpipe.ingest import load_ground_truth, load_video_meta
        from actionpipe.proposals import load_proposals
        from actionpipe.scoring import recall_curve

        cfg = self.cfg
        if name == "proposals.jsonl":
            proposals = load_proposals(path)
            if len(proposals) != self.sizes["proposals"]:
                self.problems.append(f"propose: {len(proposals)} proposals, scores cover {self.sizes['proposals']}")
            videos = load_video_meta(cfg.videos)
            gts = [g for group in load_ground_truth(cfg.ground_truth, videos, cfg.action_classes).values()
                   for g in group]
            self.quality["propose.recall_0.3"] = recall_curve(proposals, gts, [0.3], cfg.recall_iou_mode)[0]
        elif name == "detections_final.jsonl":
            frames = {v: m.num_frames for v, m in load_video_meta(cfg.videos).items()}
            outside = lines = 0
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    det = json.loads(line)
                    outside += det["f_start"] < 0 or det["f_end"] > frames[det["video_id"]] - 1
                    lines += 1
            self.quality["finalize.out_of_video"] = outside
            self.quality["final_detections"] = lines
        elif name == "report.json":
            report = json.loads(path.read_text(encoding="utf-8"))
            pmiss = report["aggregate"]["mean_p_miss"]
            self.quality["score.pmiss_1.0"] = pmiss[report["rate_grid"].index(1.0)]
            if not all(0.0 <= p <= 1.0 for p in pmiss):
                self.problems.append(f"score: aggregate p_miss outside [0, 1]: {pmiss}")
            if report["num_ground_truth"] != self.sizes["ground_truth"]:
                self.problems.append(f"score: report counts {report['num_ground_truth']} ground-truth actions, "
                                     f"inputs have {self.sizes['ground_truth']}")
            if report["num_detections"] != self.quality.get("final_detections"):
                self.problems.append("score: report detection count differs from detections_final.jsonl")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """End-to-end metrics: name -> (value, how the run's samples were reduced).

        Each time is first scaled by the host's speed at that moment (see
        `host_scale`), then reduced to the median over the run's calls.
        """
        pipelines = self.samples[False]
        if not pipelines:
            return {}
        setup = [c["setup_s"] * host_scale(c, before_only=True) for calls in pipelines for c in calls.values()]
        out = {"setup_s": (statistics.median(setup), f"median of {len(setup)} calls, host-scaled")}
        for stage in STAGES:
            out[f"{stage}_s"] = (statistics.median(scaled_wall(calls[stage]) for calls in pipelines),
                                 f"median of {len(pipelines)} calls, host-scaled")
        out["pipeline_s"] = (sum(out[f"{stage}_s"][0] for stage in STAGES), "sum of the four stage times")
        rss = [max(c["rss_mb"] for c in calls.values()) for calls in pipelines]
        out["peak_rss_mb"] = (statistics.median(rss), f"median of {len(rss)} pipelines")
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the traced calls: name -> (median over traced pipelines, note)."""
        import spans

        values: dict[str, list[float]] = {}
        for calls in self.samples[True]:
            for stage, record in calls.items():
                try:
                    wall, total = spans.check_self_times(record["spans"])
                except ValueError as exc:
                    self.problems.append(f"{stage}: {exc}")
                    continue
                if abs(wall - total) > 1e-6 or abs(wall - record["wall_s"]) > 0.05 * wall + 0.01:
                    self.problems.append(f"{stage}: self times sum to {total:.6f} s, traced wall is {wall:.6f} s")
                scale = host_scale(record)
                sample = {f"{layer}_s": t * scale for layer, t in spans.self_times(record["spans"]).items()}
                sample[f"{spans.ROOT}_self_s"] = sample.pop(f"{spans.ROOT}_s")
                sample.update(record["counts"])
                sample["rss_mb"] = record["rss_mb"]
                for key, value in sample.items():
                    values.setdefault(f"{stage}.{key}", []).append(value)
        out = {name: (statistics.median(v), f"median of {len(v)} traced calls") for name, v in values.items()}
        for stage in STAGES:
            traced = [scaled_wall(calls[stage]) for calls in self.samples[True]]
            plain = [scaled_wall(calls[stage]) for calls in self.samples[False]]
            if traced and plain:
                out[f"{stage}.trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain),
                                                    f"median of {len(traced)} traced - of {len(plain)} untraced")
        for key in ("propose.recall_0.3", "finalize.out_of_video", "score.pmiss_1.0"):
            if key in self.quality:
                out[key] = (self.quality[key], "first outputs of the run")
        return out

    def raw_samples(self) -> dict:
        keep = ("setup_s", "wall_s", "rss_mb", "ref_before", "ref_after")
        return {
            "traced" if traced else "untraced": [
                {stage: {k: record[k] for k in keep} for stage, record in calls.items()} for calls in pipelines
            ]
            for traced, pipelines in self.samples.items()
        }


def report(run: Run, reduced: dict[str, tuple[float, str]], units: dict[str, str], trace: bool) -> dict:
    metrics = {}
    missing = []
    for name, unit in units.items():
        if name not in reduced and trace and not name.endswith("_s"):
            reduced[name] = (0, "no call counted it")
        if name not in reduced:
            missing.append(name)
            continue
        value, how = reduced[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:48s} {value:14.6g} {unit:6s} ({how})")
    if missing and not run.problems:
        run.problems.append(f"no samples for {', '.join(missing)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few-second inputs, for the smoke test")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "actionpipe" / "cli.py").is_file():
        print(f"error: no actionpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_names()
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    fixture, sizes = fixture_for(workload, args.seed)
    print(f"workload {workload.name} seed {args.seed}: " + ", ".join(f"{k}={v:g}" for k, v in sizes.items()))

    run = Run(workload, args.seed, fixture, sizes)
    deadline = started + CALL_DEADLINE_S
    measuring = time.monotonic()
    pipelines = 0
    last = 0.0  # duration of the last pipeline; stop when the next would mostly run past --seconds
    while pipelines < MIN_PIPELINES or time.monotonic() - measuring + last / 2 < args.seconds:
        if time.monotonic() - started > STOP_STARTING_AFTER_S:
            break
        begun = time.monotonic()
        if not run.pipeline(traced=bool(args.trace) and pipelines % 2 == 1, deadline=deadline):
            break
        last = time.monotonic() - begun
        pipelines += 1

    run.out_root.mkdir(parents=True, exist_ok=True)
    (run.out_root / f"samples-trace{args.trace}.json").write_text(json.dumps(run.raw_samples()), encoding="utf-8")
    if args.trace:
        metrics = report(run, run.per_layer(), layer_units, trace=True)
    else:
        metrics = report(run, run.end_to_end(), e2e_units, trace=False)
        # Printed but kept out of the JSON metrics (see README.md): failed_share
        # is 0 on a healthy run, and the quality numbers move in coarse steps
        # between seeds because the workloads hold only 24-40 actions.
        share = run.failed / run.attempted
        print(f"  {'failed_share':48s} {share:14.6g} {'ratio':6s} ({run.failed} of {run.attempted} stage calls)")
        for name, key in (("recall_0.3", "propose.recall_0.3"), ("pmiss_1.0", "score.pmiss_1.0")):
            value = run.quality.get(key, float("nan"))
            print(f"  {name:48s} {value:14.6g} {'ratio':6s} (first outputs of the run)")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
