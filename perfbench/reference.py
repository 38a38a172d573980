"""A fixed reference task that measures how fast the host runs right now.

On a shared host, neighbours slow a process by a quarter to more than half,
in stretches of about a second to minutes.  The slowdown belongs to the
virtual CPU the process runs on: a probe on the other CPU does not see it.
Work done close together in one process slows down alike, so `stage.py`
times this task in the stage's own process, right before and right after
the stage call, and the harness divides the stage time by it.

The task never changes and uses only the standard library, so nothing the
program does (its imports, its allocations) moves it.  It has the two kinds
of work that the stages' slowdowns follow:

- `interp`: JSON parsing and Python-level loops over dicts, tuples and floats
  (record validation, designation, NMS and the DET sweep);
- `stream`: fresh large buffers, copied and scanned (page faults and memory
  bandwidth, as in the linkage's condensed distance matrix).

Code that stays in the core's own cache (hashing a small buffer) barely
slows down, so it is not part of the task.
"""

from __future__ import annotations

import gc
import json
import time

_RECORDS = [
    json.dumps({"id": f"r{i:05d}", "frame": i % 900, "box": [i % 17, i % 13, 40 + i % 7, 60 + i % 11],
                "score": (i * 7919 % 1000) / 1000.0})
    for i in range(6000)
]
_STREAM_BYTES = 24 << 20

# The task's time on a lightly loaded core of the 2-vCPU Xeon VM the benchmark
# was written on (the tenth percentile over ~800 stage calls).  A stage time
# divided by the task's time and multiplied by this reads as seconds on such
# a core.
NOMINAL_S = 0.11


def _interp() -> float:
    boxes = []
    for line in _RECORDS:
        rec = json.loads(line)
        x, y, w, h = rec["box"]
        boxes.append((rec["frame"], x, y, x + w, y + h, rec["score"]))
    total = 0.0
    for i in range(0, len(boxes) - 24, 3):
        f0, ax0, ay0, ax1, ay1, _ = boxes[i]
        for f1, bx0, by0, bx1, by1, s in boxes[i + 1 : i + 24]:
            iw = min(ax1, bx1) - max(ax0, bx0)
            ih = min(ay1, by1) - max(ay0, by0)
            if iw > 0 and ih > 0:
                total += s * iw * ih / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - iw * ih)
    return total


def _stream() -> float:
    buf = bytearray(_STREAM_BYTES)
    buf[::4096] = b"\x01" * (_STREAM_BYTES // 4096)
    copy = bytes(buf)
    return float(copy.count(b"\x01") + buf.find(b"\x02"))


PARTS = {"interp": _interp, "stream": _stream}


def run(min_seconds: float = 0.0) -> dict[str, float]:
    """Run the task once, then again until `min_seconds` have passed.

    Returns the mean seconds per run of each part, their sum as `total`, and
    the number of runs as `runs`.  The cyclic garbage collector is off while
    the task runs: a collection would scan the stage's own objects, so the
    task would cost more in a process that holds more of them.
    """
    spent = dict.fromkeys(PARTS, 0.0)
    runs = 0
    started = time.perf_counter()
    gc.disable()
    try:
        while runs == 0 or time.perf_counter() - started < min_seconds:
            for name, part in PARTS.items():
                t = time.perf_counter()
                part()
                spent[name] += time.perf_counter() - t
            runs += 1
    finally:
        gc.enable()
    out = {name: s / runs for name, s in spent.items()}
    out["total"] = sum(out.values())
    out["runs"] = runs
    return out
