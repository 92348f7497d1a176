import gc
import random
import time
from itertools import combinations

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
from posetcodes.poset import _bits, poset_builder
from posetcodes.random_instances import POSET_FAMILIES, random_maximal_chain, random_poset
from conftest import random_bipartite


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


def warshall_closure(n, covers):
    """Down-set masks of the closure of the covers, by the quadratic Warshall
    loop that the topological closure replaced; raises the same CycleError
    (oracle for the masks and for the cycle pair it names)."""
    down = [1 << i for i in range(n)]
    for a, b in covers:
        down[b - 1] |= 1 << (a - 1)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if down[i] & bit:
                down[i] |= down[k]
    for i in range(n):
        for j in range(n):
            if j != i and (down[i] >> j) & 1 and (down[j] >> i) & 1:
                raise CycleError(f"covers close into a cycle through {j + 1} and {i + 1}")
    return tuple(down)


def transpose(masks):
    n = len(masks)
    return tuple(sum(1 << i for i in range(n) if (masks[i] >> j) & 1) for j in range(n))


def random_cover_list(rng, n, cycles=0):
    """Covers of a random order on n elements, listed in any order, with
    duplicate and transitive (redundant) pairs and ``cycles`` planted 2- or
    3-cycles."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    density = rng.choice((0.02, 0.1, 0.35))
    pairs = [
        (label[i], label[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    pairs += rng.choices(pairs, k=len(pairs) // 4)
    for _ in range(cycles):
        if n < 3:
            break
        ring = rng.sample(range(1, n + 1), rng.choice((2, 3)))
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    rng.shuffle(pairs)
    return pairs


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


def pairwise_maximal_chain(rng, p):
    """The pairwise ``random_maximal_chain``: minimal elements by scanning
    every pair of the current up-set (oracle)."""

    def minimal_of(subset):
        return [e for e in subset if not any(f != e and p.leq(f, e) for f in subset)]

    out = []
    candidates = minimal_of(list(p.elements))
    while candidates:
        e = rng.choice(sorted(candidates))
        out.append(e)
        upset = [f for f in p.elements if f != e and p.leq(e, f)]
        candidates = minimal_of(upset)
    return tuple(out)


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

    @pytest.mark.parametrize("seed", range(40))
    def test_closure_matches_warshall(self, seed):
        rng = random.Random(f"closure:{seed}")
        n = rng.randint(1, 60)
        covers = random_cover_list(rng, n, cycles=seed % 3)
        try:
            expected = warshall_closure(n, covers)
        except CycleError as exc:
            with pytest.raises(CycleError) as got:
                from_cover_relations(n, covers)
            assert str(got.value) == str(exc)
        else:
            p = from_cover_relations(n, covers)
            assert p._down == expected and p._up == transpose(expected)

    def test_cycle_names_its_smallest_elements(self):
        # 5 < 2 < 4 < 5 sits above the chain 1 < 3; 6 sits above the cycle
        covers = [(1, 3), (3, 5), (5, 2), (2, 4), (4, 5), (4, 6)]
        with pytest.raises(CycleError, match=r"^covers close into a cycle through 4 and 2$"):
            from_cover_relations(6, covers)

    def test_long_single_cycle_raises_in_linear_work(self):
        # the Warshall closure of this cycle does 4 * 10^8 mask steps
        n = 20_000
        covers = [(i, i % n + 1) for i in range(1, n + 1)]
        with pytest.raises(CycleError, match=r"^covers close into a cycle through 2 and 1$"):
            from_cover_relations(n, covers)

    @pytest.mark.parametrize("seed", range(12))
    def test_disjoint_cycles_name_the_smallest_ones_partner(self, seed):
        # interleaved labels: the second-smallest cycle element usually sits
        # on another cycle than the smallest, and must not be named
        rng = random.Random(f"cycles:{seed}")
        n = rng.randint(4, 50)
        labels = rng.sample(range(1, n + 1), n)
        rings, start = [], 0
        while n - start >= 2:
            size = min(rng.randint(2, 6), n - start)
            rings.append(labels[start : start + size])
            start += size
        covers = [pair for ring in rings for pair in zip(ring, ring[1:] + ring[:1])]
        # covers from earlier rings to later ones join no two rings into one cycle
        covers += [
            (rng.choice(rings[a]), rng.choice(rings[b]))
            for a, b in combinations(range(len(rings)), 2)
            if rng.random() < 0.3
        ]
        rng.shuffle(covers)
        smallest = min(labels[:start])
        partner = min(e for ring in rings if smallest in ring for e in ring if e != smallest)
        message = f"covers close into a cycle through {partner} and {smallest}"
        with pytest.raises(CycleError) as oracle:
            warshall_closure(n, covers)
        assert str(oracle.value) == message
        with pytest.raises(CycleError) as got:
            from_cover_relations(n, covers)
        assert str(got.value) == message

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


def covers_by_betweenness(p):
    """Cover pairs by testing every element strictly between a and b: the
    former ``Poset.covers``, cubic on a chain (oracle)."""
    out = []
    for b in range(p.n):
        below = p._down[b] & ~(1 << b)
        for a in _bits(below):
            between = below & ~(1 << a)
            if not any((p._down[c] >> a) & 1 for c in _bits(between)):
                out.append((a + 1, b + 1))
    return out


class TestCovers:
    @pytest.mark.parametrize("family", (*POSET_FAMILIES, "bipartite"))
    def test_matches_the_betweenness_oracle(self, family):
        rng = random.Random(f"covers:{family}")
        for n in range(1, 31):
            if family == "bipartite":
                p = random_bipartite(rng, n)
            else:
                p = random_poset(rng, family, n)
            # the families label upward; shuffled labels put elements
            # between a and b on both sides of a's label
            label = rng.sample(range(n), n)
            down = [0] * n
            for i, mask in enumerate(p._down):
                down[label[i]] = sum(1 << label[j] for j in _bits(mask))
            for poset in (p, Poset(n, down)):
                assert poset.covers() == covers_by_betweenness(poset), (family, n)

    def test_known_covers(self):
        assert chain(3).covers() == [(1, 2), (2, 3)]
        assert antichain(3).covers() == []
        assert weak_order([2, 1, 2]).covers() == [(1, 3), (2, 3), (3, 4), (3, 5)]

    def test_repr_of_a_long_chain(self):
        # the betweenness test is cubic on a chain: 2000 elements took minutes
        start = time.perf_counter()
        text = repr(chain(2000))
        assert time.perf_counter() - start < 5.0
        assert text.startswith("Poset(n=2000, covers=[(1, 2), (2, 3), ")
        assert text.endswith("(1999, 2000)])")


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

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_pairwise_definition(self, seed):
        # subsets of a maximal chain (total) and arbitrary ones, duplicates
        # and the empty subset included
        rng = random.Random(f"total:{seed}")
        for family in (*POSET_FAMILIES, "bipartite"):
            for _ in range(10):
                n = rng.randint(1, 12)
                if family == "bipartite":
                    p = random_bipartite(rng, n)
                else:
                    p = random_poset(rng, family, n)
                along = random_maximal_chain(rng, p)
                for _ in range(8):
                    pool = along if rng.random() < 0.5 else p.elements
                    subset = [rng.choice(pool) for _ in range(rng.randint(0, n))]
                    pairwise = all(p.comparable(a, b) for a, b in combinations(subset, 2))
                    assert p.is_total_on(subset) == pairwise, (p, subset)

    def test_elements_outside_the_ground_set(self):
        p = chain(3)
        for bad in (0, 4, -1, "1"):
            with pytest.raises(RangeError):
                p.is_total_on([1, bad])

    def test_a_long_chain_in_linear_mask_work(self):
        # booleans only: a failing assert would render the posets by their covers
        start = time.perf_counter()
        total = chain(4000).is_total_on(range(1, 4001))
        split = disjoint_chains(2000, 2).is_total_on(range(1, 4001))
        assert total and not split
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_random_maximal_chain_matches_the_pairwise_draw(seed):
    # the same seed must give the same chain and leave the generator in the
    # same state, so every seeded batch that draws chains is unchanged
    rng = random.Random(f"maximal chain:{seed}")
    for family in (*POSET_FAMILIES, "bipartite"):
        for _ in range(25):
            n = rng.randint(1, 12)
            if family == "bipartite":
                p = random_bipartite(rng, n)
            else:
                p = random_poset(rng, family, n)
            draw = rng.getrandbits(32)
            masks, pairwise = random.Random(draw), random.Random(draw)
            assert random_maximal_chain(masks, p) == pairwise_maximal_chain(pairwise, p), p
            assert masks.getstate() == pairwise.getstate(), p


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

    def test_same_partition_on_weak_orders_and_dense_covers(self):
        rng = random.Random("matcher:dense")
        posets = [weak_order([6, 8, 10, 12, 14] * 2), weak_order([1] * 40 + [40])]
        posets += [random_poset(rng, "weak_order", rng.randint(1, 120)) for _ in range(4)]
        posets += [random_cover_poset(rng, rng.randint(1, 120)) for _ in range(4)]
        for p in posets:
            assert p.width_and_min_chain_partition() == recursive_width_and_partition(p)

    def test_twenty_thousand_elements(self):
        # the quadratic closure and successor lists took minutes at this size
        m = 10_000
        p = zigzag(m)
        assert p._down[m] == 0b11 | 1 << m  # b_1 covers a_1 and a_2
        assert p._down[-1] == 1 << (m - 1) | 1 << (2 * m - 1)  # b_m covers a_m only
        assert p._up[0] == 1 | 1 << m  # a_1 lies below b_1 only
        assert p._up[m - 1] == 1 << (m - 1) | 0b11 << (2 * m - 2)
        del p
        n = 2 * m
        width, part = chain(n).width_and_min_chain_partition()
        assert (width, part.chains) == (1, (tuple(range(1, n + 1)),))
        width, part = antichain(n).width_and_min_chain_partition()
        assert width == n and part.sizes == (1,) * n

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

    def test_declared_size_without_building(self):
        for obj in (
            {"n": 3, "covers": [[1, 2]]},
            {"weak_order": [2, 1, 3]},
            {"chain": 4},
            {"antichain": 5},
            {"disjoint_chains": {"length": 2, "count": 3}},
        ):
            size, build = poset_builder(obj)
            assert size == build().n
        # nothing is built until the call, however large the size
        assert poset_builder({"antichain": 10**12})[0] == 10**12

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
        assert p._up == checked._up == transpose(p._down)


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
