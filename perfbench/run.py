"""Seeded end-to-end benchmark of the posetcodes command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's input files are generated from the seed (``workloads.py``),
then a fresh child process runs the ops through ``posetcodes.cli.main``
(``child.py``) and every output is validated (``validate.py``).

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh children), throughput, median and tail latency, peak RSS and
the share of ops that succeed and validate.  Every timing is scaled by the
speed probe of ``probe.py`` to a fixed nominal machine speed, so that the
host's slow spells do not move it; the unscaled wall-clock figures are
printed on the text lines.  ``--trace 1`` runs one pass
untraced and one pass traced (``tracing.py``) in two fresh children and
reports per-layer counts and self times.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from validate import check_ops
from algebra import GaussianBinomials
from probe import NOMINAL_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_RUNS = 11
TAIL_BEYOND = 10
CHILD_TIMEOUT = 150

TRACED_SELF = {
    "linalg.enumerate_subspaces.self_s": ["linalg.enumerate_subspaces"],
    "linalg.gaussian_binomial.self_s": ["linalg.gaussian_binomial"],
    "codes.weight_hierarchy.self_s": ["codes.weight_hierarchy"],
    "codes.enumerate_maximal_flags.self_s": ["codes.enumerate_maximal_flags"],
    "codes.find_maximal_flag.self_s": ["codes.find_maximal_flag"],
    "poset.is_total_on.self_s": ["poset.is_total_on"],
    "poset.width_and_min_chain_partition.self_s": ["poset.width_and_min_chain_partition"],
    "poset.load.self_s": [
        "poset.load_poset",
        "poset.poset_from_dict",
        "poset.from_cover_relations",
        "poset.weak_order",
        "poset.chain",
        "poset.antichain",
        "poset.disjoint_chains",
    ],
    "counting.census.self_s": ["counting.census"],
    "counting.chain_condition_lower_bound.self_s": ["counting.chain_condition_lower_bound"],
    "verify.batch_checks.self_s": ["verify.batch_checks"],
    "verify.instance_checks.self_s": ["verify.instance_checks"],
    "cli.main.self_s": ["cli.main"],
}
TRACED_CALLS = {
    "linalg.enumerate_subspaces.calls": "linalg.enumerate_subspaces",
    "linalg.subspaces_yielded": "linalg.subspaces_yielded",
    "linalg.Subspace.constructions": "linalg.Subspace.__post_init__",
    "linalg.is_subspace_of.calls": "linalg.is_subspace_of",
    "linalg.gaussian_binomial.calls": "linalg.gaussian_binomial",
    "gf.add.calls": "gf.add",
    "gf.sub.calls": "gf.sub",
    "gf.mul.calls": "gf.mul",
    "gf.inv.calls": "gf.inv",
    "gf.validate.calls": "gf.validate",
    "codes.weight_hierarchy.calls": "codes.weight_hierarchy",
    "codes.enumerate_maximal_flags.calls": "codes.enumerate_maximal_flags",
    "codes.generalized_weight.calls": "codes.generalized_weight",
    "codes.find_maximal_flag.calls": "codes.find_maximal_flag",
    "poset.ideal_mask.calls": "poset.ideal_mask",
    "poset.is_total_on.calls": "poset.is_total_on",
    "verify.instance_checks.calls": "verify.instance_checks",
}
LAYER_SELF = ("cli", "codes", "counting", "linalg", "poset", "verify")


def run_child(mode, ops_path, result_path, seconds=0.0):
    """Run child.py in a fresh process; return (its result, its start time)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(SRC), str(ops_path), str(result_path), str(seconds)]
    # Same hash layout in every child; bytecode is cached as for an installed package.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        raise SystemExit(f"child ({mode}) exited with {proc.returncode}")
    return json.loads(Path(result_path).read_text()), start_ns


def read_outputs(result_path):
    with open(str(result_path) + ".outputs.jsonl") as f:
        return [json.loads(line) for line in f]


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return ordered[idx], max(0.0, 100.0 * (n - TAIL_BEYOND) / n), n


def pinned_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(seconds, work):
    """Set-up samples from fresh children, taken before and after the timed
    child so that a slow spell of the machine does not pick the median alone.
    Each sample is (seconds, mean of the speed probes just before and after)."""
    ops_path = work / "ops.json"
    run_child("setup", ops_path, work / "warm.json")  # compiles bytecode once, untimed
    setup = []

    def sample(count):
        for _ in range(count):
            before = probe()
            res, start_ns = run_child("setup", ops_path, work / "setup.json")
            setup.append(((res["ready_ns"] - start_ns) / 1e9, (before + probe()) / 2))

    sample(SETUP_RUNS // 2)
    res, _ = run_child("timed", ops_path, work / "timed.json", seconds)
    sample(SETUP_RUNS - SETUP_RUNS // 2)
    return res, setup


def summarize_timed(res, setup, status):
    """End-to-end metrics.  Each time is scaled by the nominal probe time
    over the mean of the probes taken around it (see probe.py)."""
    samples = res["samples"]
    ok = [status[i] is None and same for i, _, same, _ in samples]
    raw = [dt for _, dt, _, _ in samples]
    times = [dt * NOMINAL_S / speed for _, dt, _, speed in samples]
    setup_s = [dt * NOMINAL_S / speed for dt, speed in setup]
    tail_v, tail_p, n = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "throughput_ops_per_s": metric(sum(ok) / sum(times), "1/s"),
        "latency_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_v * 1e3, "ms"),
        "peak_rss_mb": metric(res["rss_kb"] / 1024, "MB"),
        "ok_share": metric(sum(ok) / len(samples), "ratio"),
    }
    notes = [
        f"latency_tail_ms is p{tail_p:.2f} of {n} samples ({TAIL_BEYOND} beyond it)",
        f"{res['passes']} passes in {res['wall_s']:.3f} s; failed_share {1 - sum(ok) / len(samples):.4f}",
        f"speed probe: nominal {NOMINAL_S * 1e3:.4f} ms, fastest {res['probe_min_s'] * 1e3:.4f} ms, "
        f"median {statistics.median(p for *_, p in samples) * 1e3:.4f} ms",
        f"unscaled: setup {statistics.median(dt for dt, _ in setup):.6g} s, "
        f"throughput {sum(ok) / res['wall_s']:.6g} 1/s (ok ops / wall time incl. probes), "
        f"p50 {statistics.median(raw) * 1e3:.6g} ms, tail {tail(raw)[0] * 1e3:.6g} ms",
    ]
    mismatched = sum(1 for _, _, same, _ in samples if not same)
    return metrics, len(samples), len(samples) - sum(ok), mismatched, notes


def summarize_traced(plain, traced, ops, instances):
    tr = traced["trace"]
    calls, self_s = tr["calls"], tr["self_s"]
    metrics = {}
    for name, keys in TRACED_SELF.items():
        metrics[name] = metric(sum(self_s.get(k, 0.0) for k in keys), "s")
    for name, key in TRACED_CALLS.items():
        metrics[name] = metric(calls.get(key, 0), "count")
    nesting = calls.get("linalg.is_subspace_of", 0)
    metrics["linalg.is_subspace_of.true_share"] = metric(
        calls.get("linalg.is_subspace_of.true", 0) / nesting if nesting else 0.0, "ratio"
    )
    # subspaces yielded per subcode a code op must consider, by command
    yielded = tr["yielded_by_op"]
    gauss = {}
    per_cmd = {}
    for i, op in enumerate(ops):
        if op["cmd"] not in ("hierarchy", "chain", "flag"):
            continue
        inst = instances[op["inst"]]
        q, k = inst["q"], len(inst["gens"])
        gauss.setdefault(q, GaussianBinomials(q))
        need = sum(gauss[q].row(k)[1:])
        got = yielded.get(str(i), 0)
        for key in (op["cmd"], "all"):
            a, b = per_cmd.get(key, (0, 0))
            per_cmd[key] = (a + got, b + need)
    for key in ("all", "hierarchy", "chain", "flag"):
        a, b = per_cmd.get(key, (0, 0))
        name = "linalg.subspace_redundancy" + ("" if key == "all" else f".{key}")
        metrics[name] = metric(a / b if b else 0.0, "ratio")
    op_wall = sum(dt for _, dt, _, _ in traced["samples"])
    layer_total = 0.0
    for layer in LAYER_SELF:
        v = sum(s for k, s in self_s.items() if k.split(".", 1)[0] == layer)
        layer_total += v
        metrics[f"{layer}.self_s"] = metric(v, "s")
    metrics["trace.self_time_coverage"] = metric(layer_total / op_wall, "ratio")
    metrics["trace_overhead"] = metric(traced["wall_s"] / plain["wall_s"], "ratio")
    same = plain["digests"] == traced["digests"]
    notes = [
        f"untraced pass {plain['wall_s']:.3f} s, traced pass {traced['wall_s']:.3f} s, {tr['spans']} spans kept",
        f"layer self times sum to {layer_total:.4f} s of {op_wall:.4f} s traced op wall time",
        "traced outputs " + ("byte-identical to untraced" if same else "DIFFER from untraced"),
    ]
    coverage_ok = 0.9 <= layer_total / op_wall <= 1.0 + 1e-6
    return metrics, same and coverage_ok, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="store stdout digests for the default seed")
    args = ap.parse_args(argv)
    if not (SRC / "posetcodes" / "cli.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/posetcodes", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11
        sys.set_int_max_str_digits(0)  # the validator prints exact bounds of any size

    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        instances, ops = workloads.build(args.workload, args.seed, inputs, str(inputs.relative_to(ROOT)))
        (work / "ops.json").write_text(json.dumps([op["argv"] for op in ops]))
        if args.trace:
            plain, _ = run_child("pass", work / "ops.json", work / "plain.json")
            traced, _ = run_child("traced", work / "ops.json", work / "traced.json")
            outputs = read_outputs(work / "plain.json")
            shutil.copy(str(work / "traced.json") + ".spans.jsonl", work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            res, setup = measure(args.seconds, work)
            outputs = read_outputs(work / "timed.json")
    finally:
        shutil.rmtree(work)

    status = check_ops(instances, ops, outputs)
    digests = [hashlib.sha256(o["stdout"].encode()).hexdigest() for o in outputs]
    pinned = None if args.pin else pinned_digests(args.workload, args.seed)
    if pinned is not None and pinned != digests:
        for i, (a, b) in enumerate(zip(pinned, digests)):
            if a != b and status[i] is None:
                status[i] = f"{ops[i]['cmd']} {ops[i]['inst']}: stdout differs from the pinned digest"
        if len(pinned) != len(digests):
            status = [s or "pinned digest list has another length" for s in status]
    unexpected = [s for s in status if s is not None and not s.startswith("known: ")]

    if args.trace:
        metrics, trace_ok, notes = summarize_traced(plain, traced, ops, instances)
        attempted = len(ops)
        failed = sum(s is not None for s in status)
        correct = trace_ok and not unexpected
    else:
        metrics, attempted, failed, mismatched, notes = summarize_timed(res, setup, status)
        correct = not unexpected and mismatched == 0
        if mismatched:
            notes.append(f"{mismatched} repeated ops printed something else than in the first pass")

    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"python {platform.python_version()} on {platform.machine()}")
    for s in sorted({s for s in status if s}):
        print(("known failure: " if s.startswith("known: ") else "FAILED: ") + s.removeprefix("known: "))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.pin and correct and args.seed == DEFAULT_SEED and not args.trace:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
