"""Invariant suites and independent oracles for cross-checking results.

Used by the CLI ``verify`` command and reused by the test suite.  Each
check returns a ``CheckResult``; failing results carry enough detail to
reproduce the instance verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .codes import (
    LinearCode,
    enumerate_maximal_flags,
    find_maximal_flag,
    flatten_matrix,
    hierarchy_within_bounds,
    poset_weight,
    rt_weight,
    support_of_code,
    support_of_vector,
    weight_hierarchy,
)
from .gf import GF
from .linalg import DEFAULT_BUDGET, Subspace, enumerate_subspaces
from .poset import disjoint_chains
from .random_instances import (
    POSET_FAMILIES,
    random_chain_supported_code,
    random_code,
    random_matrix,
    random_poset,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def describe_code(code: LinearCode) -> str:
    """Verbatim reproduction of an instance: field, poset, generator rows."""
    rows = "\n".join("  " + " ".join(map(str, row)) for row in code.subspace.basis)
    return (
        f"q={code.field.q} n={code.n} k={code.k}\n"
        f"poset covers: {code.poset.covers()}\n"
        f"generators:\n{rows or '  (zero code)'}"
    )


def support_union_hierarchy(s: Subspace, budget: int | None = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Classical generalized-weight hierarchy: minimum size of the support
    union over r-dimensional subspaces, with no ideal closure involved.
    Independent oracle for the antichain reduction."""
    out = []
    for r in range(1, s.dim + 1):
        best = None
        for d in enumerate_subspaces(s, r, budget):
            size = len(frozenset().union(*map(support_of_vector, d.basis)))
            if best is None or size < best:
                best = size
        out.append(best)
    return tuple(out)


def instance_checks(code: LinearCode, budget: int | None = DEFAULT_BUDGET, expect=None):
    """All applicable invariants for one instance.

    The exhaustive hierarchy is computed once and the exhaustive flag list at
    most once; the DFS flag is the first flag of that list, as both come from
    the same search.
    """
    out = []
    hier = weight_hierarchy(code, budget)
    out.append(
        CheckResult(
            "monotonicity_and_singleton",
            hierarchy_within_bounds(code.n, code.k, hier),
            f"hierarchy {hier}",
        )
    )
    if code.poset.is_antichain():
        wei = support_union_hierarchy(code.subspace, budget)
        hamming_ok = all(
            poset_weight(code.poset, row) == len(support_of_vector(row))
            for row in code.subspace.basis
        )
        out.append(
            CheckResult(
                "antichain_reduction",
                wei == hier and hamming_ok,
                f"ideal-based {hier} vs support-union {wei}",
            )
        )
    total = code.k > 0 and code.poset.is_total_on(support_of_code(code))
    expects_flags = expect is not None and ("chain_condition" in expect or "unique" in expect)
    flags = None
    if total or expects_flags:
        flags = enumerate_maximal_flags(code, budget, _hierarchy=hier)
    if total:
        greedy = find_maximal_flag(code, method="greedy")
        dfs = flags[0] if flags else None
        out.append(CheckResult("totally_ordered_flag_exists", dfs is not None))
        out.append(
            CheckResult(
                "greedy_matches_dfs",
                greedy == dfs,
                f"greedy weights {greedy.weights}, dfs {dfs.weights if dfs else None}",
            )
        )
        out.append(CheckResult("flag_unique", len(flags) == 1, f"{len(flags)} flags"))
    if expect is not None:
        out.extend(_expectation_checks(code, hier, flags, expect))
    return out


def _expectation_checks(code, hier, flags, expect):
    out = []
    if "hierarchy" in expect:
        out.append(
            CheckResult(
                "expected_hierarchy",
                list(hier) == list(expect["hierarchy"]),
                f"computed {list(hier)}, expected {expect['hierarchy']}",
            )
        )
    if "support" in expect:
        supp = sorted(support_of_code(code))
        out.append(
            CheckResult(
                "expected_support",
                supp == list(expect["support"]),
                f"computed {supp}, expected {expect['support']}",
            )
        )
    if "chain_condition" in expect:
        out.append(
            CheckResult(
                "expected_chain_condition",
                bool(flags) == bool(expect["chain_condition"]),
                f"computed {bool(flags)}, expected {expect['chain_condition']}",
            )
        )
    if "unique" in expect:
        out.append(
            CheckResult(
                "expected_unique",
                (len(flags) == 1) == bool(expect["unique"]),
                f"computed {len(flags)} flags, expected unique={expect['unique']}",
            )
        )
    return out


def batch_checks(
    seed: int,
    batch: int,
    qs=(2, 3),
    max_n: int = 8,
    budget: int | None = DEFAULT_BUDGET,
):
    """Seeded randomized suite: code invariants over mixed poset families,
    dedicated totally-ordered-support draws, and the column-chain weight
    equivalence on random matrices."""
    rng = random.Random(seed)
    results = []

    def record(name, summary, failures):
        """One result per failure (label, index, detail), then the summary."""
        count = 0
        for label, i, detail in failures:
            count += 1
            results.append(CheckResult(label, False, f"seed={seed} index={i}{detail}"))
        results.append(CheckResult(name, count == 0, summary))

    def code_failures(prefix, draw_code):
        for i in range(batch):
            q = rng.choice(qs)
            family = POSET_FAMILIES[i % len(POSET_FAMILIES)]
            p = random_poset(rng, family, rng.randint(1, max_n))
            code = draw_code(GF(q), p)
            for res in instance_checks(code, budget):
                if not res.ok:
                    yield f"{prefix}[{i}].{res.name}", i, f"\n{describe_code(code)}\n{res.detail}"

    def rt_failures():
        for i in range(batch):
            q = rng.choice(qs)
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            m = random_matrix(rng, GF(q), nrows, ncols)
            p = disjoint_chains(nrows, ncols)
            if rt_weight(m) != poset_weight(p, flatten_matrix(m, "col")):
                yield f"rt_equivalence[{i}]", i, f" matrix rows {m.rows}"

    record(
        "randomized_code_invariants",
        f"{batch} random codes, q in {tuple(qs)}, n <= {max_n}",
        code_failures(
            "batch", lambda field, p: random_code(rng, field, p, rng.randint(1, min(4, p.n)))
        ),
    )
    record(
        "totally_ordered_support_properties",
        f"{batch} chain-supported codes",
        code_failures("totally_ordered", lambda field, p: random_chain_supported_code(rng, field, p)),
    )
    record("rt_weight_equivalence", f"{batch} random matrices", rt_failures())
    return results
