"""Invariant suites and independent oracles for cross-checking results.

Used by the CLI ``verify`` command and reused by the test suite.  Each
check returns a ``CheckResult``; failing results carry enough detail to
reproduce the instance verbatim.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .codes import (
    Flag,
    LinearCode,
    _support_mask,
    flatten_matrix,
    hierarchy_within_bounds,
    poset_weight,
    rt_weight,
    support_of_code,
    support_of_vector,
)
from .errors import BudgetExceeded, PreconditionViolated, _Memo, check_budget
from .gf import GF
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    _combine,
    _form_subspace,
    _rref_canonical_forms,
    _rref_rows,
    _span,
    gaussian_binomial,
    is_subspace_of,
)
from .poset import disjoint_chains
from .random_instances import (
    POSET_FAMILIES,
    random_chain_supported_code,
    random_code,
    random_matrix,
    random_poset,
)


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    """A named check, whether it passed, and the detail that reproduces a failure."""

    __slots__ = ()


def describe_code(code: LinearCode) -> str:
    """Verbatim reproduction of an instance: field, poset, generator rows."""
    rows = "\n".join("  " + " ".join(map(str, row)) for row in code.subspace.basis)
    return (
        f"q={code.field.q} n={code.n} k={code.k}\n"
        f"poset covers: {code.poset.covers()}\n"
        f"generators:\n{rows or '  (zero code)'}"
    )


def _forms(table, field, k: int, r: int, budget):
    """The r-by-k RREF coefficient forms over ``field``, in enumeration order.

    The budget check of ``enumerate_subspaces`` comes first, with the
    dimension named.  ``table`` keeps the forms of each (q, r, k) with at
    most ``_TABLE_FORMS`` of them for its later calls; a larger count
    streams from ``_rref_canonical_forms`` on every call.
    """
    count = gaussian_binomial(k, r, field.q)
    message = (
        "hierarchy dimension {r}: {count} subspaces of dimension {r} exceed the budget {budget}"
    )
    try:
        check_budget(count, budget, message, r=r)
    except BudgetExceeded as exc:
        exc.r = r
        raise
    key = (field.q, r, k)
    forms = table.get(key)
    if forms is None:
        forms = _rref_canonical_forms(field, r, k)
        if count <= _TABLE_FORMS:
            forms = table[key] = tuple(forms)
    return forms


def _least_weight_forms(s: Subspace, support, size, budget, table):
    """The least weight of the r-dimensional subspaces of ``s`` for each
    r = 1..dim, and the coefficient forms of that weight in enumeration
    order; ``budget`` caps each r separately.

    A form's weight is ``size`` of the union of the ``support`` bitmasks of
    its words x G, x a row of the form and G the basis of ``s``; each row's
    bitmask is computed once per call while there are at most
    ``_TABLE_FORMS`` rows, [k 1]_q of them.
    """
    field, basis, n = s.field, s.basis, s.n
    bits = _Memo(lambda x: support(_combine(field, x, basis, n)), _TABLE_FORMS)
    least, achievers = [], []
    for r in range(1, s.dim + 1):
        best, kept = None, []
        for form in _forms(table, field, s.dim, r, budget):
            union = 0
            for x in form:
                union |= bits[x]
            w = size(union)
            if best is None or w < best:
                best, kept = w, [form]
            elif w == best:
                kept.append(form)
        least.append(best)
        achievers.append(kept)
    return tuple(least), achievers


def support_union_hierarchy(
    s: Subspace, budget: int | None = DEFAULT_BUDGET, table=None
) -> tuple[int, ...]:
    """Classical generalized-weight hierarchy: minimum size of the support
    union over r-dimensional subspaces, with no ideal closure involved.
    Independent oracle for the antichain reduction.  ``table`` is the forms
    table of the caller; without one the call builds its own."""
    table = {} if table is None else table
    return _least_weight_forms(s, _support_bits, int.bit_count, budget, table)[0]


def _support_bits(word) -> int:
    """The support of ``word`` as a bitmask read off ``support_of_vector``,
    apart from the masks that the poset weight closes."""
    return sum(1 << i for i in support_of_vector(word))


def _poset_achievers(c: LinearCode, budget, table):
    """The weight hierarchy of ``c`` and the coefficient forms achieving
    each dimension: the weight of a union of supports is the size of its
    ideal closure, computed once per union."""
    closure = _Memo(lambda mask: c.poset.ideal_mask(mask).bit_count(), _TABLE_FORMS)
    return _least_weight_forms(c.subspace, _support_mask, closure.__getitem__, budget, table)


def _exhaustive(c: LinearCode, budget):
    """``_poset_achievers`` on a table of its own, refusing a hierarchy
    that violates its invariants."""
    hier, achievers = _poset_achievers(c, budget, {})
    if not hierarchy_within_bounds(c.n, c.k, hier):
        raise AssertionError(f"computed hierarchy {hier} violates its invariants")
    return hier, achievers


def exhaustive_hierarchy(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Weight hierarchy from the subcodes of every dimension; ``budget``
    caps each dimension separately."""
    return _exhaustive(c, budget)[0]


def exhaustive_flags(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> list[Flag]:
    """Every maximal flag achieving the weight hierarchy, in subspace
    enumeration order; empty when the chain condition fails."""
    return _maximal_flags(c.subspace, *_exhaustive(c, budget))


def _maximal_flags(s: Subspace, hierarchy, achievers) -> list[Flag]:
    """Depth-first search for nested achievers, each level in enumeration order."""
    levels = [[_form_subspace(s, form) for form in forms] for forms in achievers]

    def extend(stack):
        if len(stack) == len(levels):
            yield Flag(tuple(stack), hierarchy)
            return
        for d in levels[len(stack)]:
            if not stack or is_subspace_of(stack[-1], d):
                yield from extend(stack + [d])

    return list(extend([]))


def greedy_flag(c: LinearCode) -> Flag:
    """Flag construction for codes whose support is totally ordered.

    Re-reduce the basis with columns prioritized by descending poset order
    of the support: each resulting row has a distinct top element, the row
    with the j-th smallest top achieves the j-th minimum weight, and the
    spans of the j smallest-top rows are automatically nested.
    """
    p = c.poset
    supp = support_of_code(c)
    if not p.is_total_on(supp):
        raise PreconditionViolated("greedy construction requires a totally ordered support")
    ascending = sorted(supp, key=lambda e: p.ideal_mask(1 << (e - 1)).bit_count())
    order = [e - 1 for e in reversed(ascending)]
    order += [j for j in range(c.n) if j + 1 not in supp]
    rows, _ = _rref_rows(c.field, c.subspace.basis, c.n, column_order=order)
    rows = rows[::-1]
    subspaces = tuple(_span(c.field, c.n, rows[:j]) for j in range(1, c.k + 1))
    return Flag(subspaces, tuple(poset_weight(p, row) for row in rows))


def instance_checks(
    code: LinearCode, budget: int | None = DEFAULT_BUDGET, expect=None, table=None
):
    """All applicable invariants for one instance, from the exhaustive
    oracles alone.  Each dimension is enumerated once for the poset weight,
    and the flags, when needed, come from the same achievers.  ``table`` is
    the forms table of the caller's batch; without one the call builds its
    own."""
    table = {} if table is None else table
    out = []
    hier, achievers = _poset_achievers(code, budget, table)
    out.append(
        CheckResult(
            "monotonicity_and_singleton",
            hierarchy_within_bounds(code.n, code.k, hier),
            f"hierarchy {hier}",
        )
    )
    if code.poset.is_antichain():
        wei = support_union_hierarchy(code.subspace, budget, table)
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
    flags = _maximal_flags(code.subspace, hier, achievers) if total or expects_flags else None
    if total:
        greedy = greedy_flag(code)
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


# Distinct instances one ``batch_checks`` call remembers before it forgets
# them all.  A 200-draw batch with n <= 4 holds about 80-130 distinct
# instances, so 512 keeps every repeat there; with n <= 8 most draws are
# distinct anyway, and the bound keeps the memory of a long batch flat.
_VERDICT_KEYS = 512

# Coefficient forms one forms-table entry holds at most, at most about
# 0.5 MB, and keys one per-instance memo holds.  A batch draws k <= 4, so
# at q <= 7 it keeps every (q, r, k) it meets ([4 2]_7 = 2,850 forms,
# 0.18 MB); a larger [k r]_q is listed anew for each instance, so the
# memory of a table stays flat at any q.
_TABLE_FORMS = 4096


def batch_checks(
    seed: int,
    batch: int,
    qs=(2, 3),
    max_n: int = 8,
    budget: int | None = DEFAULT_BUDGET,
):
    """Seeded randomized suite: code invariants over mixed poset families,
    dedicated totally-ordered-support draws, and the column-chain weight
    equivalence on random matrices.

    Every check is a function of (q, order, basis) alone, so the oracles
    run once per distinct instance of the call: a repeated draw reuses the
    failing checks of its first occurrence and still reports them under its
    own index.  At most ``_VERDICT_KEYS`` instances are remembered at a time.
    The instances share one forms table, which the call drops when it
    returns.

    A ``random_cover`` poset on n elements draws one coin per pair, so a
    ``max_n`` with more than ``budget`` pairs is refused before any draw.
    """
    message = "{count} cover draws of a random poset on {max_n} elements exceed the budget {budget}"
    check_budget(max_n * (max_n - 1) // 2, budget, message, max_n=max_n)
    rng = random.Random(seed)
    results = []

    def record(name, summary, failures):
        """One result per failure (label, index, detail), then the summary."""
        count = 0
        for label, i, detail in failures:
            count += 1
            results.append(CheckResult(label, False, f"seed={seed} index={i}{detail}"))
        results.append(CheckResult(name, count == 0, summary))

    # (q, order, basis) -> that instance's failing checks; a passing
    # instance holds the one empty tuple
    verdicts = {}
    table = {}

    def code_failures(prefix, draw_code):
        for i in range(batch):
            q = rng.choice(qs)
            family = POSET_FAMILIES[i % len(POSET_FAMILIES)]
            p = random_poset(rng, family, rng.randint(1, max_n))
            code = draw_code(GF(q), p)
            key = (q, p._down, code.subspace.basis)
            failed = verdicts.get(key)
            if failed is None:
                failed = tuple(r for r in instance_checks(code, budget, table=table) if not r.ok)
                if len(verdicts) >= _VERDICT_KEYS:
                    verdicts.clear()
                verdicts[key] = failed
            for res in failed:
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
