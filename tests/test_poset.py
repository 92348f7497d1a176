import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcodes import (
    CycleError,
    EmptyInputError,
    InputError,
    Poset,
    RangeError,
    antichain,
    chain,
    disjoint_chains,
    from_cover_relations,
    poset_from_dict,
    weak_order,
)


def brute_force_width(p):
    """Maximum antichain size by exhaustive subset search (oracle, n <= 15)."""
    comp = []
    for i in range(p.n):
        mask = 0
        for j in range(p.n):
            if p.comparable(i + 1, j + 1):
                mask |= 1 << j
        comp.append(mask)
    best = 0
    for s in range(1, 1 << p.n):
        if all((comp[i] & s) == 1 << i for i in range(p.n) if (s >> i) & 1):
            best = max(best, s.bit_count())
    return best


def random_cover_poset(rng, n, density=0.35):
    covers = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < density
    ]
    return from_cover_relations(n, covers)


class TestConstructors:
    def test_empty_covers_give_antichain(self):
        p = from_cover_relations(3, [])
        assert all(p.leq(a, b) == (a == b) for a in p.elements for b in p.elements)

    def test_path_covers_close_transitively(self):
        p = from_cover_relations(3, [(1, 2), (2, 3)])
        assert p.leq(1, 3)
        assert not p.leq(3, 1)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            from_cover_relations(2, [(1, 2), (2, 1)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            from_cover_relations(3, [(1, 2), (2, 3), (3, 1)])

    def test_out_of_range_cover(self):
        with pytest.raises(RangeError):
            from_cover_relations(2, [(1, 5)])

    def test_self_cover_rejected(self):
        with pytest.raises(InputError):
            from_cover_relations(2, [(1, 1)])

    def test_weak_order_blocks(self):
        w = weak_order([3] * 9)
        assert w.n == 27
        assert w.leq(1, 4) and w.leq(3, 27)
        assert not w.leq(1, 2) and not w.leq(2, 1)  # same block
        assert not w.leq(4, 1)

    def test_weak_order_single_block_is_antichain(self):
        assert weak_order([5]) == antichain(5)

    def test_weak_order_singletons_match_cover_path(self):
        n = 6
        path = from_cover_relations(n, [(i, i + 1) for i in range(1, n)])
        assert weak_order([1] * n) == path == chain(n)

    def test_weak_order_validation(self):
        with pytest.raises(EmptyInputError):
            weak_order([])
        with pytest.raises(RangeError):
            weak_order([2, 0])

    def test_disjoint_chains_single(self):
        assert disjoint_chains(4, 1) == chain(4)

    def test_disjoint_chains_relations(self):
        p = disjoint_chains(2, 2)
        assert p.leq(1, 2) and p.leq(3, 4)
        assert not p.comparable(1, 3) and not p.comparable(2, 4)

    def test_disjoint_chains_ideal(self):
        p = disjoint_chains(3, 2)
        assert p.ideal({5}) == {4, 5}


class TestIdeal:
    def test_weak_order_generators(self):
        w = weak_order([3] * 9)
        assert w.ideal({1, 4, 7}) == frozenset(range(1, 8))

    def test_empty_generators(self):
        assert chain(5).ideal(set()) == frozenset()

    def test_antichain_ideal_is_the_set(self):
        assert antichain(5).ideal({2, 4}) == {2, 4}

    def test_out_of_range_generator(self):
        with pytest.raises(RangeError):
            chain(3).ideal({4})

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_ideal_properties(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        p = random_cover_poset(rng, n)
        a = {e for e in p.elements if rng.random() < 0.4}
        b = {e for e in p.elements if rng.random() < 0.4}
        ia = p.ideal(a)
        # downward closed
        assert all(x in ia for y in ia for x in p.elements if p.leq(x, y))
        # minimality: removing any non-generator breaks closure or containment
        for e in ia - a:
            smaller = ia - {e}
            closed = all(x in smaller for y in smaller for x in p.elements if p.leq(x, y))
            assert not (closed and a <= smaller)
        # union identity
        assert p.ideal(a | b) == ia | p.ideal(b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_antichain_ideal_sizes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        p = antichain(n)
        a = {e for e in p.elements if rng.random() < 0.5}
        assert len(p.ideal(a)) == len(a)


class TestTotalOrder:
    def test_weak_order_transversal(self):
        w = weak_order([3] * 9)
        assert w.is_total_on({1, 4, 7, 11, 14, 17, 21, 24, 27})

    def test_same_block_not_total(self):
        assert not weak_order([3] * 9).is_total_on({1, 2})

    def test_trivial_subsets(self):
        p = antichain(4)
        assert p.is_total_on(set())
        assert p.is_total_on({3})


class TestWidthAndPartition:
    def test_chain(self):
        width, part = chain(6).width_and_min_chain_partition()
        assert width == 1
        assert part.chains == ((1, 2, 3, 4, 5, 6),)

    def test_antichain(self):
        width, part = antichain(4).width_and_min_chain_partition()
        assert width == 4
        assert part.chains == ((1,), (2,), (3,), (4,))

    def test_weak_order_27(self):
        # any antichain of a weak order sits inside one block, so width = 3
        w = weak_order([3] * 9)
        width, part = w.width_and_min_chain_partition()
        assert width == 3
        assert sorted(part.sizes) == [9, 9, 9]
        assert all(w.is_total_on(c) for c in part.chains)

    @pytest.mark.parametrize("seed", range(12))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 13)
        p = random_cover_poset(rng, n)
        width, part = p.width_and_min_chain_partition()
        assert width == brute_force_width(p)
        assert len(part.chains) == width
        seen = [e for c in part.chains for e in c]
        assert sorted(seen) == list(p.elements)
        assert all(p.is_total_on(c) for c in part.chains)

    def test_deterministic(self):
        p = random_cover_poset(random.Random(42), 9)
        assert (
            p.width_and_min_chain_partition() == p.width_and_min_chain_partition()
        )


class TestDescriptionFormat:
    def test_each_constructor_key(self):
        assert poset_from_dict({"n": 3, "covers": [[1, 2], [2, 3]]}) == chain(3)
        assert poset_from_dict({"weak_order": [2, 2]}) == weak_order([2, 2])
        assert poset_from_dict({"chain": 4}) == chain(4)
        assert poset_from_dict({"antichain": 4}) == antichain(4)
        assert poset_from_dict(
            {"disjoint_chains": {"length": 2, "count": 3}}
        ) == disjoint_chains(2, 3)

    def test_exactly_one_key(self):
        with pytest.raises(InputError):
            poset_from_dict({"chain": 3, "antichain": 3})
        with pytest.raises(InputError):
            poset_from_dict({})
        with pytest.raises(InputError):
            poset_from_dict({"chain": 3, "bogus": 1})

    def test_covers_needs_n(self):
        with pytest.raises(InputError):
            poset_from_dict({"covers": [[1, 2]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"weak_order": [True, 2]},
            {"weak_order": [2.0, 2]},
            {"chain": True},
            {"antichain": True},
            {"n": True, "covers": []},
            {"n": 2, "covers": [[True, 2]]},
            {"disjoint_chains": {"length": 2, "count": True}},
            {"disjoint_chains": {"length": True, "count": 2}},
        ],
    )
    def test_integer_fields_reject_booleans_and_floats(self, obj):
        with pytest.raises(InputError):
            poset_from_dict(obj)


def test_poset_validation_guards():
    with pytest.raises(InputError):
        Poset(2, [0b01, 0b01])  # not reflexive at 2
    with pytest.raises(RangeError):
        Poset(1, [0b11])
    with pytest.raises(RangeError):
        antichain(0)
