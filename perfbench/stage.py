"""Run one `actionpipe` stage in this fresh interpreter and record what it cost.

Usage: python3 stage.py RESULT_JSON TRACE REF_SECONDS CLI_ARG...

TRACE is 0 or 1; with 1 the public functions are wrapped by `spans.install`
before the stage starts.  The reference task (reference.py) runs for at
least REF_SECONDS right before and right after the stage.  RESULT_JSON
receives the import-done, start and end times (`time.monotonic`, which on
Linux is one clock for every process, so the caller can subtract its own
spawn time), the exit code of `actionpipe.cli.main`, the process's peak RSS,
the reference timings and, when traced, the spans.
"""

import time

import actionpipe.cli

imported = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402


def main() -> int:
    result_path, trace, ref_seconds, cli_args = sys.argv[1], sys.argv[2] == "1", float(sys.argv[3]), sys.argv[4:]
    run = actionpipe.cli.main
    recorder = None
    if trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
        run = recorder.wrap(spans.ROOT, run)
    ref_before = reference.run(ref_seconds)
    start = time.monotonic()
    code = run(cli_args)
    end = time.monotonic()
    ref_after = reference.run(ref_seconds)
    record = {
        "imported": imported,
        "start": start,
        "end": end,
        "exit": code,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_before": ref_before,
        "ref_after": ref_after,
    }
    if recorder is not None:
        record.update(recorder.to_json())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
