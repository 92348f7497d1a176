"""Runs a workload's ops through ``posetcodes.cli.main`` in this process.

Usage: child.py MODE SRC OPS RESULT [SECONDS]

MODE is ``setup`` (import and load the ops, then exit), ``pass`` (run every
op once), ``timed`` (run whole passes until SECONDS have elapsed) or
``traced`` (one pass with the layers wrapped by ``tracing``).  One client
sends the ops back to back in the listed order.  The first-pass stdout of
every op goes to RESULT.outputs.jsonl; later passes only compare digests.
A speed probe (``probe.py``) runs before the first op and after every op.
RESULT receives timings, the peak RSS and, when traced, the layer counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from probe import probe


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"[:300]
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def main(argv):
    mode, src, ops_path, result_path = argv[:4]
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    sys.path.insert(0, src)
    import posetcodes.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"posetcodes imported from {cli.__file__}, not from {src}")
    ops = json.loads(Path(ops_path).read_text())
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    result = {"ready_ns": ready_ns}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return 0

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    first = []
    samples = []
    passes = 0
    with open(result_path + ".outputs.jsonl", "w") as outputs:
        start = time.perf_counter()
        before = probe()
        probe_min = before
        while True:
            for i, op_argv in enumerate(ops):
                if tracer:
                    tracer.op = i
                dt, code, out, err = run_op(cli, op_argv)
                after = probe()
                speed, before = (before + after) / 2, after
                probe_min = min(probe_min, after)
                digest = hashlib.sha256(out.encode()).hexdigest()
                if passes == 0:
                    first.append((digest, code))
                    outputs.write(json.dumps({"exit": code, "stdout": out, "stderr": err[-2000:]}) + "\n")
                    same = True
                else:
                    same = first[i] == (digest, code)
                samples.append((i, dt, same, speed))
            passes += 1
            if mode != "timed" or time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start

    result.update(
        wall_s=wall,
        passes=passes,
        samples=samples,
        probe_min_s=probe_min,
        digests=[d for d, _ in first],
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(result_path + ".spans.jsonl")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
