"""Shared fixtures: the 27-coordinate binary demo code and its posets."""

from pathlib import Path

import pytest

from posetcodes import GF, LinearCode, antichain, from_cover_relations, span, weak_order

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO = REPO_ROOT / "demo"

# Generators of the demo code, as row-major flattenings of 9x3 binary matrices.
G1 = tuple([1, 0, 0, 1, 0, 0, 1, 0, 0] + [0] * 18)
G2 = tuple([0] * 9 + [0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1] + [0] * 6)
G3 = tuple([0] * 15 + [0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1])
GENERATORS = (G1, G2, G3)

EXPECTED_SUPPORT = frozenset({1, 4, 7, 11, 14, 17, 21, 24, 27})
HIERARCHY_WEAK = (7, 19, 25)
HIERARCHY_HAMMING = (3, 6, 9)


def random_bipartite(rng, n):
    """Some elements below the others, each such relation drawn with
    probability 1/2, under shuffled labels: posets of height at most 2 whose
    maximal and minimal elements are both many."""
    label = rng.sample(range(1, n + 1), n)
    low = rng.randint(1, n)
    covers = [
        (label[i], label[j])
        for i in range(low)
        for j in range(low, n)
        if rng.random() < 0.5
    ]
    return from_cover_relations(n, covers)


@pytest.fixture(scope="session")
def f2():
    return GF(2)


@pytest.fixture(scope="session")
def weak_order_27():
    return weak_order([3] * 9)


@pytest.fixture(scope="session")
def antichain_27():
    return antichain(27)


@pytest.fixture(scope="session")
def demo_subspace(f2):
    return span(f2, 27, GENERATORS)


@pytest.fixture(scope="session")
def code_weak(weak_order_27, demo_subspace):
    return LinearCode(weak_order_27, demo_subspace)


@pytest.fixture(scope="session")
def code_hamming(antichain_27, demo_subspace):
    return LinearCode(antichain_27, demo_subspace)
