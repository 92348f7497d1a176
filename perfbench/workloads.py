"""Seeded inputs for the benchmark workloads.

Every poset file and generator-matrix file is drawn here with the
benchmark's own ``random.Random`` and written with fixed formatting, so the
same seed gives byte-identical files whatever the package does.  Instance
shapes (family, n, q, k) are fixed per slot and the seed draws the contents
(block sizes, relations, labels, generator entries), which keeps the cost
of a pass nearly the same from seed to seed.  The op order is shuffled once
per workload, not per seed: with a seeded order the peak RSS of the
``bound`` workload moved by about 5% from seed to seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from algebra import Field, closure, rref

WORKLOADS = ("structured", "hamming", "sweep", "bound")

INT_STR_LIMIT = "int->str conversion over CPython's 4300-digit limit"

# The code of demo/code_27_3.txt: three binary generators of length 27.
DEMO_CODE_27_3 = (
    (1, 0, 0, 1, 0, 0, 1, 0, 0) + (0,) * 18,
    (0,) * 9 + (0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1) + (0,) * 6,
    (0,) * 15 + (0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1),
)


# -- posets: (JSON description, down-set masks) --------------------------------


def chain(n):
    return {"chain": n}, closure(n, [(i, i + 1) for i in range(1, n)])


def antichain(n):
    return {"antichain": n}, closure(n, [])


def weak_order(sizes):
    pairs, start = [], 0
    for a, b in zip(sizes, sizes[1:]):
        pairs += [(x, y) for x in range(start + 1, start + a + 1) for y in range(start + a + 1, start + a + b + 1)]
        start += a
    return {"weak_order": list(sizes)}, closure(sum(sizes), pairs)


def disjoint_chains(length, count):
    pairs = [(j * length + i, j * length + i + 1) for j in range(count) for i in range(1, length)]
    return {"disjoint_chains": {"length": length, "count": count}}, closure(length * count, pairs)


def relabeled(rng, n, pairs):
    """The relation pairs under a random relabelling, as a "covers" description."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    mapped = sorted((perm[a - 1], perm[b - 1]) for a, b in pairs)
    return {"n": n, "covers": [list(p) for p in mapped]}, closure(n, mapped)


def composition(rng, total, parts):
    """Random block sizes: ``parts`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def shuffled(rng, sizes):
    """Block sizes in a random order (a fixed multiset keeps the cost fixed)."""
    sizes = list(sizes)
    rng.shuffle(sizes)
    return sizes


def near_chain(rng, n):
    """Sparse cover poset with few ideals: a chain with some links cut and
    some links skipping one element, randomly relabelled."""
    pairs = []
    for i in range(1, n):
        if rng.random() >= 0.2:
            pairs.append((i, i + 1))
        if i + 2 <= n and rng.random() < 0.5:
            pairs.append((i, i + 2))
    return relabeled(rng, n, pairs)


def bipartite(rng, n, bottom, relations):
    """Height-2 poset: ``bottom`` minimal elements below the rest, with exactly
    ``relations`` distinct comparable pairs, randomly relabelled."""
    grid = [(a, b) for a in range(1, bottom + 1) for b in range(bottom + 1, n + 1)]
    return relabeled(rng, n, rng.sample(grid, relations))


def sparse_random(rng, n, p):
    return relabeled(rng, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p])


# -- codes ------------------------------------------------------------------------


def random_code(rng, q, n, k):
    """k random generators of length n over GF(q), redrawn until independent."""
    field = Field(q)
    while True:
        gens = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if len(rref(field, gens)) == k:
            return gens


def code_text(q, gens, shape=None):
    """Generator file: header 'q n k', then one line per generator, or for a
    (length, count) chain shape one block of ``length`` lines per generator
    read column-major."""
    n, k = len(gens[0]), len(gens)
    lines = [f"{q} {n} {k}"]
    for g in gens:
        if shape is None:
            lines.append(" ".join(map(str, g)))
        else:
            length, count = shape
            for i in range(length):
                lines.append(" ".join(str(g[j * length + i]) for j in range(count)))
    return "\n".join(lines) + "\n"


# -- workloads --------------------------------------------------------------------


class Inputs:
    """Collects instance files and ops for one workload."""

    def __init__(self, workdir: Path, rel: str):
        self.workdir = workdir
        self.rel = rel
        self.instances = {}
        self.ops = []

    def poset(self, name, desc_down):
        desc, down = desc_down
        (self.workdir / f"{name}.json").write_text(json.dumps(desc) + "\n")
        self.instances[name] = {"down": down}
        return f"{self.rel}/{name}.json"

    def code_ops(self, name, desc_down, q, gens, rt_shape=None):
        """hierarchy, chain and flag ops on one code."""
        ppath = self.poset(name, desc_down)
        (self.workdir / f"{name}.txt").write_text(code_text(q, gens, rt_shape))
        self.instances[name].update(q=q, gens=[list(g) for g in gens])
        flatten = ["--flatten", "col"] if rt_shape else []
        for cmd in ("hierarchy", "chain", "flag"):
            argv = [cmd, "--poset", ppath, "--code", f"{self.rel}/{name}.txt"] + flatten
            self.ops.append({"cmd": cmd, "inst": name, "argv": argv})

    def bound_op(self, name, desc_down, q, known_failure=None):
        ppath = self.poset(name, desc_down)
        self.instances[name]["q"] = q
        op = {"cmd": "bound", "inst": name, "argv": ["bound", "--poset", ppath, "--q", str(q)]}
        if known_failure:
            op["known_failure"] = known_failure
        self.ops.append(op)

    def census_op(self, name, desc_down, q):
        ppath = self.poset(name, desc_down)
        self.instances[name]["q"] = q
        self.ops.append({"cmd": "census", "inst": name, "argv": ["census", "--poset", ppath, "--q", str(q)]})

    def verify_op(self, name, seed, batch, q, max_n):
        self.instances[name] = {"seed": seed, "batch": batch}
        argv = ["verify", "--seed", str(seed), "--batch", str(batch), "--q", str(q), "--max-n", str(max_n)]
        self.ops.append({"cmd": "verify", "inst": name, "argv": argv})


def _structured(b, rng):
    b.code_ops("demo_weak_order_9x3", weak_order([3] * 9), 2, DEMO_CODE_27_3)
    b.code_ops("weak_18", weak_order(composition(rng, 18, 6)), 2, random_code(rng, 2, 18, 5))
    b.code_ops("weak_20", weak_order(composition(rng, 20, 5)), 3, random_code(rng, 3, 20, 4))
    b.code_ops("chain_16", chain(16), 3, random_code(rng, 3, 16, 4))
    b.code_ops("chain_12", chain(12), 4, random_code(rng, 4, 12, 4))
    b.code_ops("rt_4x4", disjoint_chains(4, 4), 2, random_code(rng, 2, 16, 5), rt_shape=(4, 4))
    b.code_ops("rt_5x3", disjoint_chains(5, 3), 3, random_code(rng, 3, 15, 4), rt_shape=(5, 3))
    b.code_ops("cover_18", near_chain(rng, 18), 2, random_code(rng, 2, 18, 5))
    # the one largest code: its chain and flag ops alone hold the tail samples
    b.code_ops("cover_28", near_chain(rng, 28), 4, random_code(rng, 4, 28, 4))


def _hamming(b, rng):
    b.code_ops("demo_antichain_27", antichain(27), 2, DEMO_CODE_27_3)
    b.code_ops("anti_16", antichain(16), 2, random_code(rng, 2, 16, 5))
    b.code_ops("anti_20", antichain(20), 3, random_code(rng, 3, 20, 4))
    b.code_ops("anti_24", antichain(24), 4, random_code(rng, 4, 24, 4))
    b.code_ops("anti_27", antichain(27), 3, random_code(rng, 3, 27, 4))
    b.code_ops("weak_10_10", weak_order([10, 10]), 2, random_code(rng, 2, 20, 5))
    b.code_ops("rt_2x9", disjoint_chains(2, 9), 3, random_code(rng, 3, 18, 4), rt_shape=(2, 9))
    b.code_ops("wide_22", bipartite(rng, 22, 12, 25), 2, random_code(rng, 2, 22, 5))
    b.code_ops("wide_18", bipartite(rng, 18, 10, 20), 4, random_code(rng, 4, 18, 4))


def _sweep(b, rng):
    for i in range(3):
        b.census_op(f"census_4_q4_{i}", bipartite(rng, 4, 2, 2), 4)
        b.census_op(f"census_5_q2_{i}", bipartite(rng, 5, 2, 3), 2)
    b.census_op("census_4_q3", bipartite(rng, 4, 2, 2), 3)
    b.verify_op("verify_q2", rng.randrange(1 << 30), 200, 2, 4)
    b.verify_op("verify_q3", rng.randrange(1 << 30), 80, 3, 4)


def _bound(b, rng):
    b.bound_op("chain_120_q4", chain(120), 4)
    b.bound_op("chain_100_q9", chain(100), 9)
    b.bound_op("chain_80_q3", chain(80), 3)
    b.bound_op("weak_200_q3", weak_order(shuffled(rng, [3, 4, 5, 6, 7] * 8)), 3)
    b.bound_op("weak_300_q2", weak_order(shuffled(rng, [6, 8, 10, 12, 14] * 6)), 2)
    b.bound_op("rt_100x2_q2", relabeled(rng, 200, [(i, i + 1) for i in range(1, 200) if i != 100]), 2)
    b.bound_op("rt_60x3_q9", disjoint_chains(60, 3), 9)
    b.bound_op("anti_300_q2", antichain(300), 2)
    b.bound_op("anti_200_q4", antichain(200), 4)
    b.bound_op("cover_300_q3", sparse_random(rng, 300, 0.01), 3)
    b.bound_op("cover_150_q2", sparse_random(rng, 150, 0.02), 2)
    b.bound_op("chain_240_q2", chain(240), 2, known_failure=INT_STR_LIMIT)
    b.bound_op("chain_140_q9", chain(140), 9, known_failure=INT_STR_LIMIT)


_MAKERS = {"structured": _structured, "hamming": _hamming, "sweep": _sweep, "bound": _bound}


def build(workload: str, seed: int, workdir: Path, rel: str):
    """Write the workload's input files into ``workdir`` (``rel`` is the same
    directory relative to the checkout root) and return (instances, ops).
    Each op names its command, instance and argv."""
    b = Inputs(workdir, rel)
    _MAKERS[workload](b, random.Random(f"{workload}:{seed}"))
    random.Random(workload).shuffle(b.ops)
    return b.instances, b.ops
