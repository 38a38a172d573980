"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Takes about half a minute: three runs of the four stages on two-video
inputs.
"""

import json

import run

E2E_UNITS, LAYER_UNITS = run.load_metric_names()
TINY = ["--workload", "weak-multilabel", "--seed", "3", "--seconds", "0", "--tiny"]


def _result(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_every_end_to_end_metric_is_printed(capsys):
    assert run.main(TINY + ["--trace", "0"]) == 0
    result, out = _result(capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 8
    assert {name: m["unit"] for name, m in result["metrics"].items()} == E2E_UNITS
    for name in list(E2E_UNITS) + ["failed_share", "recall_0.3", "pmiss_1.0"]:
        assert f"  {name} " in out


def test_every_per_layer_metric_is_printed(capsys):
    assert run.main(TINY + ["--trace", "1"]) == 0
    result, out = _result(capsys)
    assert result["correct"] is True, out
    assert {name: m["unit"] for name, m in result["metrics"].items()} == LAYER_UNITS
    for name in LAYER_UNITS:
        assert f"  {name} " in out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["finalize.refine.calls"] == metrics["finalize.nms.candidates"] > 0
    assert metrics["score.scoring.hungarian_match_calls"] > 0


def test_corrupted_output_counts_as_failure(capsys, monkeypatch):
    real_call = run.call_stage
    calls = {"label": 0}

    def corrupt_second_label(stage, fixture, out, *args):
        record = real_call(stage, fixture, out, *args)
        if stage == "label":
            calls["label"] += 1
            if calls["label"] == 2:
                with open(out / "labels.jsonl", "a", encoding="utf-8") as fh:
                    fh.write("{}\n")
        return record

    monkeypatch.setattr(run, "call_stage", corrupt_second_label)
    assert run.main(TINY + ["--trace", "0"]) == 0
    result, out = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "labels.jsonl differs" in out
