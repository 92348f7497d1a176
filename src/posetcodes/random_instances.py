"""Seeded random posets, codes, and matrices for randomized property checks.

Everything here draws from a caller-supplied ``random.Random`` so batches
are reproducible from a single seed.
"""

from __future__ import annotations

import random

from .codes import LinearCode
from .gf import FiniteField
from .linalg import Matrix, _span
from .poset import Poset, _bits, antichain, chain, from_cover_relations, weak_order

POSET_FAMILIES = ("chain", "antichain", "weak_order", "random_cover")


def random_poset(rng: random.Random, family: str, n: int) -> Poset:
    if family == "chain":
        return chain(n)
    if family == "antichain":
        return antichain(n)
    if family == "weak_order":
        sizes = []
        left = n
        while left:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        return weak_order(sizes)
    if family == "random_cover":
        # ascending pairs only, so the closure is automatically acyclic
        covers = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.35
        ]
        return from_cover_relations(n, covers)
    raise ValueError(f"unknown poset family {family!r}")


def random_code(rng: random.Random, field: FiniteField, p: Poset, k: int) -> LinearCode:
    """Random code of exact dimension k <= n (redraws until full rank).

    The entries are field elements by construction, so the span skips the
    validation ``span`` does on outside input."""
    for _ in range(128):
        rows = [[rng.randrange(field.q) for _ in range(p.n)] for _ in range(k)]
        s = _span(field, p.n, rows)
        if s.dim == k:
            return LinearCode(p, s)
    raise RuntimeError(f"failed to draw a rank-{k} code of length {p.n} over {field}")


def random_maximal_chain(rng: random.Random, p: Poset) -> tuple[int, ...]:
    """A maximal chain, built by repeatedly picking a minimal element of the
    strict up-set of the last choice."""
    down, up = p._down, p._up
    out = []
    mask = (1 << p.n) - 1
    while mask:
        # the minimal elements of the mask, ascending
        e = rng.choice([i + 1 for i in _bits(mask) if down[i] & mask == 1 << i])
        out.append(e)
        mask = up[e - 1] ^ (1 << (e - 1))
    return tuple(out)


def random_chain_supported_code(
    rng: random.Random, field: FiniteField, p: Poset, k: int | None = None
) -> LinearCode:
    """Random code whose generators live inside one random maximal chain, so
    the code support is totally ordered."""
    chain_els = random_maximal_chain(rng, p)
    if k is None:
        k = rng.randint(1, min(4, len(chain_els)))
    if k > len(chain_els):
        raise ValueError(f"k={k} exceeds the drawn chain length {len(chain_els)}")
    positions = [e - 1 for e in chain_els]
    for _ in range(128):
        rows = []
        for _ in range(k):
            v = [0] * p.n
            for j in positions:
                v[j] = rng.randrange(field.q)
            rows.append(v)
        s = _span(field, p.n, rows)
        if s.dim == k:
            return LinearCode(p, s)
    raise RuntimeError(f"failed to draw a rank-{k} chain-supported code over {field}")


def random_matrix(rng: random.Random, field: FiniteField, nrows: int, ncols: int) -> Matrix:
    rows = tuple(
        tuple(rng.randrange(field.q) for _ in range(ncols)) for _ in range(nrows)
    )
    return Matrix(field, rows, ncols)
