import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcodes import (
    ChainPartition,
    CycleError,
    EmptyInputError,
    InputError,
    Poset,
    RangeError,
    antichain,
    chain,
    chain_condition_lower_bound,
    disjoint_chains,
    from_cover_relations,
    poset_from_dict,
    weak_order,
)
from posetcodes.random_instances import POSET_FAMILIES, random_poset


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


def recursive_width_and_partition(p):
    """The recursive augmenting-path matcher that the iterative one replaced
    (oracle for its visiting order; recursion depth grows with the paths)."""
    n = p.n
    succ = [[j for j in range(n) if j != i and (p._down[j] >> i) & 1] for i in range(n)]
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(i, seen):
        for j in succ[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_r[j] == -1 or augment(match_r[j], seen):
                match_l[i] = j
                match_r[j] = i
                return True
        return False

    matched = sum(augment(i, set()) for i in range(n))
    chains = []
    for head in range(n):
        if match_r[head] != -1:
            continue
        chain = [head]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(tuple(e + 1 for e in chain))
    return n - matched, ChainPartition(tuple(chains))


def zigzag(m, rng=None):
    """Covers a_i < b_i and a_i < b_(i-1) on 2m elements, optionally relabelled.
    Its width is m, and the matcher's augmenting paths grow to length m."""
    label = list(range(1, 2 * m + 1))
    if rng is not None:
        rng.shuffle(label)
    covers = [(i, m + i) for i in range(1, m + 1)] + [(i, m + i - 1) for i in range(2, m + 1)]
    return from_cover_relations(2 * m, [(label[a - 1], label[b - 1]) for a, b in covers])


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

    @pytest.mark.parametrize("family", POSET_FAMILIES)
    def test_same_partition_as_the_recursive_matcher(self, family):
        rng = random.Random(f"matcher:{family}")
        for _ in range(15):
            p = random_poset(rng, family, rng.randint(1, 60))
            assert p.width_and_min_chain_partition() == recursive_width_and_partition(p)

    def test_same_partition_on_long_augmenting_paths(self):
        rng = random.Random("matcher:sparse")
        posets = [zigzag(m) for m in (1, 2, 7, 150)]
        posets += [zigzag(rng.randint(2, 150), rng) for _ in range(4)]
        posets += [random_cover_poset(rng, 60, density=0.04) for _ in range(4)]
        for p in posets:
            assert p.width_and_min_chain_partition() == recursive_width_and_partition(p)

    def test_partition_and_bound_leave_no_cyclic_garbage(self):
        # Garbage that only the cycle collector can free piles up between
        # collections and raises the peak memory of a run.
        p = random_cover_poset(random.Random("garbage"), 60, density=0.1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            _, part = p.width_and_min_chain_partition()
            chain_condition_lower_bound(part, 4)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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


def test_package_built_posets_pass_full_validation():
    # the constructors skip re-validation of the masks they build; this is
    # where those masks are checked
    rng = random.Random("built posets")
    built = [antichain(5), chain(7), disjoint_chains(3, 4), weak_order([2, 1, 3])]
    built += [from_cover_relations(4, []), random_cover_poset(rng, 12), zigzag(5, rng)]
    built += [random_poset(rng, f, rng.randint(1, 20)) for f in POSET_FAMILIES for _ in range(5)]
    for p in built:
        checked = Poset(p.n, p._down)
        assert p == checked and hash(p) == hash(checked)


def test_direct_construction_still_validates():
    with pytest.raises(CycleError):
        Poset(2, [0b11, 0b11])
    with pytest.raises(InputError):
        Poset(3, [0b001, 0b011, 0b110])  # 1 <= 2 <= 3 but not 1 <= 3


def test_poset_validation_guards():
    with pytest.raises(InputError):
        Poset(2, [0b01, 0b01])  # not reflexive at 2
    with pytest.raises(RangeError):
        Poset(1, [0b11])
    with pytest.raises(RangeError):
        antichain(0)
