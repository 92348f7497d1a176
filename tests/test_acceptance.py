"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  All comparisons are exact; each criterion also carries a wall-clock
ceiling with a wide margin over the observed runtime.
"""

import random
import time

from posetcodes import (
    GF,
    LinearCode,
    antichain,
    census,
    chain,
    chain_condition_lower_bound,
    disjoint_chains,
    enumerate_nonzero_codewords,
    enumerate_subspaces,
    find_maximal_flag,
    flatten_matrix,
    full_space,
    gaussian_binomial,
    generalized_weight,
    is_flag_unique,
    poset_weight,
    rt_weight,
    span,
    support_of_code,
    weak_order,
    weight_hierarchy,
)
from posetcodes.random_instances import (
    POSET_FAMILIES,
    random_chain_supported_code,
    random_code,
    random_matrix,
    random_poset,
)
from posetcodes.verify import exhaustive_flags, greedy_flag
from conftest import EXPECTED_SUPPORT, GENERATORS


class Criterion:
    """Context manager asserting a wall-clock limit and printing the verdict."""

    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number}: {verdict} ({elapsed:.2f}s / limit {self.limit}s)"
            f" - {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_demo_code_reproduction():
    with Criterion(1, "27-coordinate demo code, both hierarchies and flags", 1.0):
        f2 = GF(2)
        s = span(f2, 27, GENERATORS)
        under_w = LinearCode(weak_order([3] * 9), s)
        under_h = LinearCode(antichain(27), s)

        assert weight_hierarchy(under_h) == (3, 6, 9)
        assert weight_hierarchy(under_w) == (7, 19, 25)
        assert find_maximal_flag(under_h) is None
        flag = find_maximal_flag(under_w)
        assert flag is not None and flag.weights == (7, 19, 25)
        assert is_flag_unique(under_w)
        supp = support_of_code(under_w)
        assert supp == EXPECTED_SUPPORT
        assert under_w.poset.is_total_on(supp)
        assert not under_h.poset.is_total_on(supp)


def test_criterion_2_monotonicity_and_singleton_suite():
    with Criterion(2, "1000 random codes satisfy monotonicity + Singleton", 60.0):
        rng = random.Random(2024)
        failures = 0
        for i in range(1000):
            q = (2, 3)[i % 2]
            family = POSET_FAMILIES[i % len(POSET_FAMILIES)]
            n = rng.randint(1, 8)
            p = random_poset(rng, family, n)
            code = random_code(rng, GF(q), p, rng.randint(1, min(4, n)))
            hier = weight_hierarchy(code)
            increasing = all(hier[j] < hier[j + 1] for j in range(len(hier) - 1))
            singleton = all(
                r <= d <= code.n - code.k + r for r, d in enumerate(hier, 1)
            )
            if not (increasing and singleton and 1 <= hier[0] and hier[-1] <= code.n):
                failures += 1
        assert failures == 0


def test_criterion_3_totally_ordered_support_suite():
    with Criterion(3, "500 totally-ordered-support codes: flag, greedy=dfs, unique", 60.0):
        rng = random.Random(2025)
        failures = 0
        for i in range(500):
            q = (2, 3)[i % 2]
            family = POSET_FAMILIES[i % len(POSET_FAMILIES)]
            n = rng.randint(1, 8)
            p = random_poset(rng, family, n)
            code = random_chain_supported_code(rng, GF(q), p)
            assert code.poset.is_total_on(support_of_code(code))
            flags = exhaustive_flags(code)
            dfs = flags[0] if flags else None
            if dfs is None or greedy_flag(code) != dfs or not is_flag_unique(code):
                failures += 1
        assert failures == 0


def test_criterion_4_single_chain_exhaustive():
    with Criterion(4, "every subspace of F_2^3 / F_2^4 under a chain has a flag", 10.0):
        f2 = GF(2)
        expected_counts = {3: 15, 4: 66}  # sum over j of [n j]_2
        for n, expected in expected_counts.items():
            assert expected == sum(
                gaussian_binomial(n, j, 2) for j in range(1, n + 1)
            )
            p = chain(n)
            ambient = full_space(f2, n)
            seen = 0
            for r in range(1, n + 1):
                for d in enumerate_subspaces(ambient, r):
                    seen += 1
                    assert find_maximal_flag(LinearCode(p, d)) is not None
            assert seen == expected


def test_criterion_5_bound_validation():
    with Criterion(5, "census >= bound (tight on the single chain)", 30.0):
        cases = [
            (chain(3), True),
            (antichain(3), False),
            (weak_order([2, 2]), False),
        ]
        for p, expect_tight in cases:
            partition = p.width_and_min_chain_partition()[1]
            bound = chain_condition_lower_bound(partition, 2).bound
            counted = census(p, 2).chain_condition_total
            assert counted >= bound
            if expect_tight:
                assert counted == bound == 15


def test_criterion_6_oracle_equivalences():
    with Criterion(6, "weight/rt/enumeration oracles agree everywhere", 60.0):
        rng = random.Random(2026)

        # subspace weight via basis supports == full codeword enumeration
        for _ in range(200):
            q = rng.choice((2, 3))
            f = GF(q)
            n = rng.randint(1, 7)
            p = random_poset(rng, rng.choice(POSET_FAMILIES), n)
            dim = rng.randint(0, min(3, n))
            vecs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(dim)]
            d = span(f, n, vecs)
            mask = 0
            for w in enumerate_nonzero_codewords(d):
                supp = 0
                for idx, e in enumerate(w):
                    if e:
                        supp |= 1 << idx
                mask |= p.ideal_mask(supp)
            assert generalized_weight(p, d) == mask.bit_count()

        # column-chain weight == poset weight of the column-major flattening
        for _ in range(200):
            q = rng.choice((2, 3))
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 4)
            m = random_matrix(rng, GF(q), nrows, ncols)
            p = disjoint_chains(nrows, ncols)
            assert rt_weight(m) == poset_weight(p, flatten_matrix(m, "col"))

        # enumeration counts == gaussian binomials for n <= 6, q in {2, 3}
        for q in (2, 3):
            f = GF(q)
            for n in range(1, 7):
                ambient = full_space(f, n)
                for r in range(n + 1):
                    count = sum(1 for _ in enumerate_subspaces(ambient, r))
                    assert count == gaussian_binomial(n, r, q)
