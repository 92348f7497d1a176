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

from .codes import LinearCode, _count_chains, _ideal_walk, _replay_levels, analyze_code
from .errors import BudgetExceeded, InputError, RangeError
from .gf import GF, _factor_prime_power
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    _gaussian_prefix,
    _rref_canonical_forms,
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


# Replaying the shared record costs each code about 0.6 µs per ideal of P.
# The per-code path pays a fixed set-up on top of the walk of its own ideals
# (the code object, the closure of its support, the subcode count): about
# 10 µs, the cost of replaying SHARED_SLACK ideals.  Measured per code with
# Python 3.11 on a shared 2-vCPU VM, shared vs per code: chain(6) at q = 3,
# r = 2: 11.2 vs 43.0 µs; a 5-element height-2 poset with 15 ideals at q = 2,
# r = 3: 37.8 vs 55.3 µs; antichain(7) (128 ideals) at q = 2: r = 1 82 vs
# 19 µs, r = 4 379 vs 257 µs, r = 5 249 vs 315 µs.
SHARED_SLACK = 16


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
    if max_dim is None:
        max_dim = n
    if not 0 <= max_dim <= n:
        raise RangeError(f"max_dim {max_dim} outside 0..{n}")
    field = GF(q)
    per_total, total = [], 0
    for count in islice(_gaussian_prefix(n, q), 1, max_dim + 1):
        per_total.append(count)
        total += count
        if budget is not None and total > budget:
            # the full count can have far too many digits to compute or print
            raise BudgetExceeded(
                f"census over more than {budget} subspaces exceeds the budget {budget}",
                count=total,
                budget=budget,
            )
    thresholds = [sum(gaussian_row(r, q)[1:]) + SHARED_SLACK for r in range(1, max_dim + 1)]
    full = (1 << n) - 1
    walk = _ideal_walk(p, full, min(total, thresholds[-1]) if thresholds else 0)
    per_chain = []
    for r, threshold in zip(range(1, max_dim + 1), thresholds):
        forms = _rref_canonical_forms(field, r, n)
        if walk is not None and len(walk[0]) <= threshold:
            satisfied = sum(
                bool(_count_chains(_replay_levels(field, r, list(zip(*form)), full, walk))[0])
                for form in forms
            )
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
