"""Lower bound on the number of chain-condition codes, and exhaustive census.

The bound sums, over the chains of a partition of the poset and over each
dimension available inside a chain, the number of subspaces supported in
that chain; every such code satisfies the chain condition because its
support is totally ordered.  The census enumerates all subcodes of the
ambient space outright and tallies how many satisfy the condition, which
both validates the bound and quantifies its slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .codes import LinearCode, _count_chains, _ideal_walk, _least_ideals, _walk_ideals, analyze_code
from .errors import BudgetExceeded, InputError, RangeError
from .gf import GF, _factor_prime_power
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    _gaussian_prefix,
    _rref_canonical_forms,
    _rref_rows,
    gaussian_row,
)
from .poset import ChainPartition, Poset, _is_int, _read_json


@dataclass(frozen=True)
class BoundReport:
    """Evaluated lower bound with its per-chain, per-dimension addends."""

    nu: tuple[int, ...]
    q: int
    bound: int
    addends: tuple[tuple[int, ...], ...]


def chain_condition_lower_bound(partition: ChainPartition, q: int) -> BoundReport:
    """Sum over chains i and dimensions j of the number of j-dimensional
    subspaces of a nu_i-dimensional space over GF(q); q must be a prime power."""
    if q < 2:
        raise RangeError(f"q must be at least 2, got {q}")
    _factor_prime_power(q)
    nu = partition.sizes
    rows = {s: gaussian_row(s, q)[1:] for s in set(nu)}
    addends = tuple(rows[s] for s in nu)
    bound = sum(sum(row) for row in addends)
    return BoundReport(nu=nu, q=q, bound=bound, addends=addends)


@dataclass(frozen=True)
class CensusReport:
    """Per-dimension tallies of all codes vs chain-condition codes."""

    poset: Poset
    q: int
    n: int
    max_dim: int
    per_dim_total: tuple[int, ...]
    per_dim_chain: tuple[int, ...]
    chain_condition_total: int


# SHARED_SLACK stands for the fixed set-up of the per-code path (the code
# object, the closure of its support, the subcode count), counted in ideals
# of P.  The shared replay costs one table lookup per lattice edge and a
# chain search per distinct m-profile: about 0.3-1 µs per ideal.  Measured
# per code (best of 5, three runs) with Python 3.11 on a shared 2-vCPU VM,
# shared vs per code: chain(6) at q = 3, r = 2: 2.2-3.6 vs 42-58 µs; a
# 5-element height-2 poset with 15 ideals at q = 2, r = 3: 14-15 vs 89-92 µs;
# antichain(7) (128 ideals) at q = 2: r = 1 34-57 vs 16-24 µs, r = 4 53-79
# vs 204-267 µs, r = 5 75-99 vs 351-468 µs.
SHARED_SLACK = 16


def _census_sizes(n: int, q: int, max_dim: int | None, budget: int | None):
    """The field and the subspace counts [n r]_q of the dimensions
    r = 1..max_dim (default n), added up one dimension at a time: the first
    partial sum past ``budget`` raises before the full count, which can have
    far too many digits to compute or print, is reached.  [n 1]_q is at
    least 2^(n-1), so a length past that bound raises before [n 1]_q itself,
    with no count."""
    if max_dim is None:
        max_dim = n
    if not 0 <= max_dim <= n:
        raise RangeError(f"max_dim {max_dim} outside 0..{n}")
    field = GF(q)
    message = f"census over more than {budget} subspaces exceeds the budget {budget}"
    if budget is not None and max_dim and n - 1 >= budget.bit_length():
        raise BudgetExceeded(message, budget=budget)
    per_total, total = [], 0
    for count in islice(_gaussian_prefix(n, q), 1, max_dim + 1):
        per_total.append(count)
        total += count
        if budget is not None and total > budget:
            raise BudgetExceeded(message, count=total, budget=budget)
    return field, per_total


def census(
    p: Poset, q: int, max_dim: int | None = None, budget: int | None = DEFAULT_BUDGET
) -> CensusReport:
    """Run the chain-condition check on every nonzero subspace up to max_dim.

    Subspaces come from the canonical enumeration, so each code is counted
    exactly once.  The ideals of P are walked once, and a code counts when
    its levels have a chain.  Dimension r replays that record for each of
    its codes when P has at most sum_j [r j]_q + SHARED_SLACK ideals
    (sum_j [r j]_q bounds the ideals each code would walk on its own), and
    otherwise analyzes each code on its own.
    """
    n = p.n
    field, per_total = _census_sizes(n, q, max_dim, budget)
    max_dim = len(per_total)
    thresholds = [sum(gaussian_row(r, q)[1:]) + SHARED_SLACK for r in range(1, max_dim + 1)]
    full = (1 << n) - 1
    walk = _ideal_walk(p, full, min(sum(per_total), thresholds[-1]) if thresholds else 0)
    if walk is not None:
        masks = list(_walk_ideals(full, walk))
        lattice = masks, [mask.bit_count() for mask in masks], *walk
    per_chain = []
    for r, threshold in zip(range(1, max_dim + 1), thresholds):
        forms = _rref_canonical_forms(field, r, n)
        if walk is not None and len(walk[0]) <= threshold:
            satisfied = _shared_census(field, r, forms, lattice)
        else:
            codes = (LinearCode(p, Subspace._trusted(field, n, form)) for form in forms)
            satisfied = sum(bool(analyze_code(c, budget).flag_count) for c in codes)
        per_chain.append(satisfied)
    return CensusReport(
        poset=p,
        q=q,
        n=n,
        max_dim=max_dim,
        per_dim_total=tuple(per_total),
        per_dim_chain=tuple(per_chain),
        chain_condition_total=sum(per_chain),
    )


def _shared_census(field, r: int, forms, lattice) -> int:
    """How many of the r-row RREF ``forms`` have levels with a chain, from
    the mask, size, depth and removed element of every ideal of the walk
    record of the whole poset.

    A state is the span of the columns outside an ideal, kept as its RREF
    rows and interned to a small int, so there are at most sum_j [r j]_q of
    them.  The state of an ideal follows from the state one level up the
    depth stack and the column of the removed element, so each code costs
    one lookup per lattice edge, in a transition table filled by one RREF
    elimination on first use, and m(I) = r - dim(state).  The masks and
    sizes are those of every code, so the levels, and with them the verdict,
    depend only on the m-profile: the chain search runs once per distinct
    profile.
    """
    masks, sizes, depths, removed = lattice
    spans, index, ms = [()], {(): 0}, [r]  # state 0: no column outside the top
    steps, verdicts = {}, {}  # (state, column) -> state, m-profile -> verdict

    def advance(state, column):
        rows = tuple(_rref_rows(field, (*spans[state], column), r)[0])
        if rows not in index:
            index[rows] = len(spans)
            spans.append(rows)
            ms.append(r - len(rows))
        return index[rows]

    edges = list(zip(depths, removed))[1:]
    states = [0] * (sizes[0] + 1)  # one state per depth, states[0] for the top
    satisfied = 0
    for form in forms:
        columns = list(zip(*form))
        profile = bytearray([r])
        for depth, e in edges:
            key = (states[depth - 1], columns[e])
            state = steps.get(key)
            if state is None:
                state = steps[key] = advance(*key)
            states[depth] = state
            profile.append(ms[state])
        profile = bytes(profile)
        verdict = verdicts.get(profile)
        if verdict is None:
            levels = _least_ideals(r, zip(masks, sizes, profile))
            verdict = verdicts[profile] = bool(_count_chains(levels)[0])
        satisfied += verdict
    return satisfied


# -- partition files ------------------------------------------------------------


def partition_from_dict(obj, p: Poset) -> ChainPartition:
    """Validate a {"chains": [[elements...], ...]} description against the poset."""
    if not isinstance(obj, dict) or set(obj) != {"chains"}:
        raise InputError('partition description must be {"chains": [[elements...], ...]}')
    chains = obj["chains"]
    if not isinstance(chains, list) or any(not isinstance(c, list) for c in chains):
        raise InputError('"chains" must be a list of element lists')
    seen = set()
    for c in chains:
        for e in c:
            if not _is_int(e) or not 1 <= e <= p.n:
                raise RangeError(f"partition element {e!r} outside 1..{p.n}")
            if e in seen:
                raise InputError(f"partition element {e} repeated")
            seen.add(e)
        if not p.is_total_on(c):
            raise InputError(f"partition part {c} is not a chain of the poset")
    if len(seen) != p.n:
        missing = sorted(set(p.elements) - seen)
        raise InputError(f"partition does not cover the ground set; missing {missing}")
    return ChainPartition(tuple(tuple(c) for c in chains))


def load_partition(path, p: Poset) -> ChainPartition:
    return partition_from_dict(_read_json(path), p)
