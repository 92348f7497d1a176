"""Lower bound on the number of chain-condition codes, and exhaustive census.

The bound sums, over the chains of a partition of the poset and over each
dimension available inside a chain, the number of subspaces supported in
that chain; every such code satisfies the chain condition because its
support is totally ordered.  The census counts the codes of each dimension
that satisfy the condition, which validates the bound and quantifies its
slack: dimensions 1, 2, n - 2, n - 1 and n by theorem, without enumerating
a code, and the others by replay or by one analysis per code.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .codes import LinearCode, _count_chains, _ideal_walk, _least_ideals, _walk_ideals, analyze_code
from .errors import InputError, RangeError, _Memo, check_budget, count_text
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


class BoundReport(namedtuple("BoundReport", "nu q bound addends")):
    """Evaluated lower bound with its per-chain, per-dimension addends:
    ``addends[i][j - 1]`` counts the j-dimensional codes on chain i, of
    size ``nu[i]``."""

    __slots__ = ()


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


class CensusReport(
    namedtuple(
        "CensusReport",
        "poset q n max_dim per_dim_total per_dim_chain chain_condition_total",
    )
):
    """Per-dimension tallies of all codes vs chain-condition codes, one entry
    per dimension 1..max_dim."""

    __slots__ = ()


THEOREM, REPLAY, PER_CODE = "theorem", "replay", "per-code"

# Dimension r replays the shared record when P has at most
# REPLAY_RATIO * sum_j [r j]_q ideals: a code analyzed on its own walks at most
# sum_j [r j]_q ideals or subcodes, and a replayed ideal costs about
# 1/REPLAY_RATIO of one of them.  Measured per code, replay vs per code (best of
# 2-5 runs on 1,500 uniformly drawn codes, Python 3.11, a shared 2-vCPU VM; *: best
# of 4-6, re-measured once the subcode path folded each pivot suffix once):
# - antichain(6) and (7), 64 and 128 ideals, r = 3 at q <= 4 and r = 4 at
#   q <= 3: 34-80 vs 101-392 µs;
# - antichain(8), 256 ideals: q = 2, r = 3 65 vs 58 µs*, r = 4 75 vs 111 µs*,
#   r = 5 171 vs 866 µs; q = 3 and 4, r = 3 95-105 vs 142 µs;
# - antichain(9), 512 ideals: q = 2, r = 3 116 vs 61 µs*, r = 4 131 vs
#   112 µs*; r = 3 at q = 3 164 vs 151 µs, at q = 4 137 vs 106 µs*;
# - antichain(10), 1024 ideals, q = 2: r = 3 377 vs 140 µs, r = 4 325 vs 221 µs;
# - chain(8), chain(9), weak_order([2, 3, 3]) and weak_order([3, 3, 3]), 9-22
#   ideals, q <= 3, r = 3 and 4: 6-63 vs 69-173 µs.
# The limits 210 and 924 of r = 3 and 4 at q = 2, and 378 and 602 of r = 3 at
# q = 3 and 4, pick the faster path at every point but two: antichain(9) at
# q = 2, r = 4 and at q = 4, r = 3 replay, where per code is now faster.
REPLAY_RATIO = 14

# The verdict memo of a replayed dimension is emptied at this many m-profiles,
# about 20 MB at the 513-byte profiles of antichain(9).  The 200,787 codes of
# weak_order([1, 7]), q = 2, r = 4 have 23,622 profiles and never empty it;
# with no memo, that dimension and others ran 2-4 times slower.
_PROFILE_KEYS = 1 << 15


def _replay_limit(q: int, r: int) -> int:
    """The most ideals of P at which dimension r replays the shared record."""
    return REPLAY_RATIO * sum(gaussian_row(r, q)[1:])


def _census_path(n: int, q: int, r: int, ideals: int | None) -> str:
    """How ``census`` counts the chain-condition codes of dimension r in
    GF(q)^n on a poset P with ``ideals`` ideals (None: more than the walk
    limit, or not walked).

    THEOREM for r <= 2 or r >= n - 2: every such code satisfies the chain
    condition, so the count is [n r]_q.  A code of dimension 1 is its own
    flag, and the full space has the flag of the coordinate spaces of the
    ideals along a linear extension.  A code C of dimension 2 has the flag
    D_1 ⊂ C for D_1 any line of C of least weight: w(D_1) = d_1, and
    w(C) = d_2.  For r = n - 1 and n - 2 the condition is self-dual: C
    satisfies it on P iff C⊥ satisfies it on the reversed poset P̄, and C⊥
    has dimension 1 or 2.  Write m(J) = dim(C ∩ F^J) and let
    d_1 < .. < d_k be the hierarchy of C.
    - C satisfies the condition iff some maximal ideal chain
      J_0 ⊂ J_1 ⊂ .. ⊂ J_n (|J_t| = t) has m jumping exactly at t = d_1,
      .., d_k.  m rises by at most 1 per step and is below r on every
      ideal smaller than d_r, so m jumps exactly at the d_r on any maximal
      chain through the closures I_1 ⊆ .. ⊆ I_k of a flag, where
      m(I_r) = r.  Conversely, such a chain has m(J_{d_r}) = r, so J_{d_r}
      is in the level L_r, and these ideals form a chain through the levels.
    - The complements K_s = J_{n-s}^c form a maximal ideal chain of P̄.
      C⊥ ∩ F^{J^c} is the annihilator of the projection of C onto J^c,
      whose kernel is C ∩ F^J, so
      m⊥(K_s) = s - (k - m(J_{n-s})).  Hence m⊥ jumps at s exactly when m
      does not jump at t = n + 1 - s.
    - By Moura and Firer ("Duality for poset codes", IEEE Trans. Inf.
      Theory 56(7), 2010), the values n + 1 - t, t not among the d_r, are
      the hierarchy of C⊥ on P̄, so the chain K satisfies the condition for
      C⊥.  The converse is the same argument for C⊥ on P̄, since C⊥⊥ = C and
      the reverse of P̄ is P.

    REPLAY through ``_shared_census`` when ``ideals`` is at most
    ``_replay_limit(q, r)``.  PER_CODE through ``analyze_code`` otherwise.
    """
    if r <= 2 or r >= n - 2:
        return THEOREM
    if ideals is not None and ideals <= _replay_limit(q, r):
        return REPLAY
    return PER_CODE


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
        raise RangeError(f"max_dim {max_dim} outside 0..{count_text(n)}")
    field = GF(q)
    message = "census over more than {budget} subspaces exceeds the budget {budget}"
    if budget is not None and max_dim and n - 1 >= budget.bit_length():
        check_budget(None, budget, message)
    per_total, total = [], 0
    for count in islice(_gaussian_prefix(n, q), 1, max_dim + 1):
        per_total.append(count)
        total += count
        check_budget(total, budget, message)
    return field, per_total


def census(
    p: Poset, q: int, max_dim: int | None = None, budget: int | None = DEFAULT_BUDGET
) -> CensusReport:
    """Run the chain-condition check on every nonzero subspace up to max_dim.

    ``_census_path`` picks one of three paths for each dimension r.
    Dimensions 1, 2, n - 2, n - 1 and n are decided by theorem: all [n r]_q
    codes count, and none is enumerated.  Otherwise the codes come from the
    canonical enumeration, so each is counted exactly once, and a code
    counts when its levels have a chain.  They replay one shared record of
    the ideals of P when P has few enough ideals, and are analyzed one by
    one otherwise.  The ideals are walked only when some dimension can
    replay, and the walk stops past the largest replay limit of those
    dimensions or past the census total, so it stays under ``budget``.
    The per-code path never raises inside a census: a code of dimension r
    has sum_{j<=r} [r j]_q <= sum_{j<=r} [n j]_q subcodes, at most the
    census total, which is within ``budget``.
    """
    n = p.n
    field, per_total = _census_sizes(n, q, max_dim, budget)
    dims = range(1, len(per_total) + 1)
    limit = max(
        (_replay_limit(q, r) for r in dims if _census_path(n, q, r, None) != THEOREM), default=0
    )
    lattice = _shared_lattice(p, min(sum(per_total), limit)) if limit else None
    ideals = None if lattice is None else len(lattice[0])
    per_chain = []
    for r, total in zip(dims, per_total):
        path = _census_path(n, q, r, ideals)
        if path == THEOREM:
            satisfied = total
        elif path == REPLAY:
            satisfied = _shared_census(field, r, _rref_canonical_forms(field, r, n), lattice)
        else:
            forms = _rref_canonical_forms(field, r, n)
            codes = (LinearCode(p, Subspace._trusted(field, n, form)) for form in forms)
            satisfied = sum(bool(analyze_code(c, budget).flag_count) for c in codes)
        per_chain.append(satisfied)
    return CensusReport(
        poset=p,
        q=q,
        n=n,
        max_dim=len(per_total),
        per_dim_total=tuple(per_total),
        per_dim_chain=tuple(per_chain),
        chain_condition_total=sum(per_chain),
    )


def _shared_lattice(p: Poset, limit: int):
    """The mask, size, depth and removed element of every ideal of P, from
    one walk, or None once more than ``limit`` ideals exist."""
    full = (1 << p.n) - 1
    walk = _ideal_walk(p, full, limit)
    if walk is None:
        return None
    masks = list(_walk_ideals(full, walk))
    return masks, [mask.bit_count() for mask in masks], *walk


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
    profile while at most ``_PROFILE_KEYS`` of them are remembered.
    """
    masks, sizes, depths, removed = lattice
    spans, index, ms = [()], {(): 0}, [r]  # state 0: no column outside the top
    steps = {}  # (state, column) -> state

    def verdict_of(profile):
        return bool(_count_chains(_least_ideals(r, zip(masks, sizes, profile)))[0])

    verdicts = _Memo(verdict_of, _PROFILE_KEYS)  # m-profile -> verdict

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
        satisfied += verdicts[bytes(profile)]
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
