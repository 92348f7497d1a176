import random
from collections import Counter
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from posetcodes import (
    GF,
    BudgetExceeded,
    ChainPartition,
    InputError,
    LinearCode,
    Poset,
    RangeError,
    antichain,
    census,
    chain,
    chain_condition_lower_bound,
    disjoint_chains,
    enumerate_subspaces,
    from_cover_relations,
    full_space,
    gaussian_binomial,
    gaussian_row,
    partition_from_dict,
    span,
    weak_order,
)
from posetcodes import counting
from posetcodes.codes import _ideal_walk, analyze_code
from posetcodes.linalg import _rref_canonical_forms
from posetcodes.random_instances import POSET_FAMILIES, random_poset
from conftest import random_bipartite


def minimal_partition(p):
    return p.width_and_min_chain_partition()[1]


class TestLowerBound:
    def test_single_chain_of_three(self):
        rep = chain_condition_lower_bound(minimal_partition(chain(3)), 2)
        assert rep.addends == ((7, 7, 1),)
        assert rep.bound == 15

    def test_single_element(self):
        rep = chain_condition_lower_bound(ChainPartition(((1,),)), 5)
        assert rep.bound == 1

    def test_two_chains_of_two(self):
        rep = chain_condition_lower_bound(ChainPartition(((1, 2), (3, 4))), 2)
        assert rep.nu == (2, 2)
        assert rep.bound == 8

    def test_weak_order_3_3_minimal(self):
        part = minimal_partition(weak_order([3, 3]))
        rep = chain_condition_lower_bound(part, 2)
        assert sorted(rep.nu) == [2, 2, 2]
        assert rep.bound == 12

    def test_addends_recompute_bound(self):
        part = minimal_partition(weak_order([2, 3, 1]))
        rep = chain_condition_lower_bound(part, 3)
        assert rep.bound == sum(sum(row) for row in rep.addends)
        for size, row in zip(rep.nu, rep.addends):
            assert row == tuple(gaussian_binomial(size, j, 3) for j in range(1, size + 1))

    def test_repeated_chain_sizes(self):
        # one q-binomial row per distinct size serves every chain of that size
        sizes = (3, 5, 3, 1, 5, 3)
        labels = iter(range(1, sum(sizes) + 1))
        part = ChainPartition(tuple(tuple(next(labels) for _ in range(s)) for s in sizes))
        for q in (2, 4, 9):
            rep = chain_condition_lower_bound(part, q)
            assert rep.nu == sizes
            assert rep.addends == tuple(
                tuple(gaussian_binomial(s, j, q) for j in range(1, s + 1)) for s in sizes
            )
            assert rep.bound == sum(map(sum, rep.addends))

    def test_q_validation(self):
        with pytest.raises(RangeError):
            chain_condition_lower_bound(ChainPartition(((1,),)), 1)


class TestCensus:
    def test_single_chain_is_tight(self):
        p = chain(3)
        rep = census(p, 2)
        assert rep.per_dim_total == (7, 7, 1)
        assert rep.per_dim_chain == (7, 7, 1)
        assert rep.chain_condition_total == 15
        assert rep.chain_condition_total == chain_condition_lower_bound(
            minimal_partition(p), 2
        ).bound

    def test_antichain_two(self):
        rep = census(antichain(2), 2)
        assert rep.chain_condition_total == 4
        assert rep.per_dim_total == (3, 1)

    def test_max_dim_zero(self):
        rep = census(chain(3), 2, max_dim=0)
        assert rep.per_dim_total == ()
        assert rep.chain_condition_total == 0

    def test_census_dominates_bound(self):
        for p in (chain(3), antichain(3), weak_order([2, 2])):
            rep = census(p, 2)
            bound = chain_condition_lower_bound(minimal_partition(p), 2).bound
            assert rep.chain_condition_total >= bound

    def test_per_dim_totals_match_gaussian_binomials(self):
        rep = census(weak_order([2, 2]), 2)
        assert rep.per_dim_total == tuple(
            gaussian_binomial(4, r, 2) for r in range(1, 5)
        )

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            census(antichain(10), 2, budget=100)

    def test_budget_stops_at_the_first_partial_sum_past_it(self):
        # chain(3) at q = 2 has 7 + 7 + 1 = 15 nonzero subspaces
        assert census(chain(3), 2, budget=15).chain_condition_total == 15
        message = "^census over more than 14 subspaces exceeds the budget 14$"
        with pytest.raises(BudgetExceeded, match=message) as exc:
            census(chain(3), 2, budget=14)
        assert exc.value.count == 15
        with pytest.raises(BudgetExceeded) as exc:
            census(chain(3), 2, budget=6)
        assert exc.value.count == 7

    def test_budget_below_two_to_the_n_minus_one_needs_no_count(self):
        # [n 1]_2 = 2^n - 1: at n = 4 it is counted against the budget 14 (4
        # bits), at n = 5 it exceeds 2^4 > 14 and is never computed
        with pytest.raises(BudgetExceeded) as exc:
            counting._census_sizes(4, 2, None, 14)
        assert exc.value.count == 15
        for n, q in ((5, 2), (5, 9)):
            with pytest.raises(BudgetExceeded, match="more than 14 subspaces") as exc:
                counting._census_sizes(n, q, None, 14)
            assert exc.value.count is None
        # no dimension, no count to exceed it
        assert counting._census_sizes(10**9, 2, 0, 14)[1] == []

    def test_minimal_partition_width_remark(self):
        # with the minimal partition, the number of chains equals the width
        for p in (chain(4), antichain(4), weak_order([3, 2])):
            width, part = p.width_and_min_chain_partition()
            assert len(part.chains) == width


def census_per_code(p, q, max_dim):
    """Per-dimension (codes, chain-condition codes) with every code analyzed
    on its own: the former census loop (oracle)."""
    ambient = full_space(GF(q), p.n)
    per_total, per_chain = [], []
    for r in range(1, max_dim + 1):
        seen = 0
        satisfied = 0
        for d in enumerate_subspaces(ambient, r, None):
            seen += 1
            if analyze_code(LinearCode(p, d), None).flag_count:
                satisfied += 1
        per_total.append(seen)
        per_chain.append(satisfied)
    return tuple(per_total), tuple(per_chain)


def replayed_census(p, q, max_dim):
    """Per-dimension chain-condition codes, every dimension replayed."""
    field = GF(q)
    lattice = counting._shared_lattice(p, 1 << p.n)
    return tuple(
        counting._shared_census(field, r, _rref_canonical_forms(field, r, p.n), lattice)
        for r in range(1, max_dim + 1)
    )


def ideal_count(p):
    return len(_ideal_walk(p, (1 << p.n) - 1, 1 << p.n)[0])


@pytest.fixture
def replays(monkeypatch):
    """The dimensions of the codes that replay census's shared record, one
    entry per code."""
    dims = []
    shared = counting._shared_census

    def counted(field, r, forms, lattice):
        def each():
            for form in forms:
                dims.append(r)
                yield form

        return shared(field, r, each(), lattice)

    monkeypatch.setattr(counting, "_shared_census", counted)
    return dims


class TestSharedLattice:
    # 7 is prime, 8 a power of 2 and 9 of an odd prime: each takes its own
    # row operations in the echelon insertions
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    @pytest.mark.parametrize("family", (*POSET_FAMILIES, "bipartite"))
    def test_matches_the_per_code_census(self, family, q):
        rng = random.Random(f"census:{family}:{q}")
        for _ in range(4):
            n = rng.randint(1, 6)
            if family == "bipartite":
                p = random_bipartite(rng, n)
            else:
                p = random_poset(rng, family, n)
            max_dim = rng.choice((n, 1, max(n - 2, 0)))
            # at most 3,000 codes, so the oracle stays quick
            while sum(gaussian_binomial(n, r, q) for r in range(1, max_dim + 1)) > 3000:
                max_dim -= 1
            rep = census(p, q, max_dim, budget=None)
            where = f"{family} q={q} n={n} max_dim={max_dim} covers={p.covers()}"
            counts = census_per_code(p, q, max_dim)
            assert (rep.per_dim_total, rep.per_dim_chain) == counts, where
            # the replay on its own, at the dimensions census decides otherwise too
            assert replayed_census(p, q, max_dim) == counts[1], where

    def test_wide_posets_at_low_dimension_analyze_each_code(self, replays, monkeypatch):
        rep = census(antichain(12), 2, max_dim=1)
        assert rep.per_dim_chain == (4095,)
        assert replays == []
        # antichain(8) has 256 ideals: more than the replay limit of r = 3 at
        # q = 2 (210), within those of r = 4 and 5 (924 and 5,222); a stub
        # stands in for the 97,155 analyses at r = 3
        ideals = ideal_count(antichain(8))
        paths = [counting._census_path(8, 2, r, ideals) for r in range(1, 9)]
        theorem, replay, per_code = counting.THEOREM, counting.REPLAY, counting.PER_CODE
        assert paths == [theorem, theorem, per_code, replay, replay, theorem, theorem, theorem]
        analyzed = []

        def stub(c, budget):
            analyzed.append(c.k)
            return SimpleNamespace(flag_count=1)

        monkeypatch.setattr(counting, "analyze_code", stub)
        rep = census(antichain(8), 2, max_dim=3)
        assert replays == []
        assert analyzed == [3] * rep.per_dim_total[2] == [3] * 97_155
        assert rep.per_dim_chain == rep.per_dim_total

    @pytest.mark.parametrize(
        "n, bottom, relations, q", ((6, 1, 2, 2), (6, 2, 1, 2), (6, 1, 5, 2))
    )
    def test_small_posets_replay_the_shared_record(self, replays, n, bottom, relations, q):
        grid = [(a, b) for a in range(1, bottom + 1) for b in range(bottom + 1, n + 1)]
        for covers in combinations(grid, relations):
            p = from_cover_relations(n, covers)
            replays.clear()
            rep = census(p, q)
            # dimensions 1, 2, n - 2, n - 1 and n are decided by theorem, every
            # other one replays
            assert sorted(set(replays)) == list(range(3, n - 2)), covers
            assert len(replays) == sum(rep.per_dim_total[2 : n - 3])
            assert 33 <= ideal_count(p) <= 48, covers

    def test_sweep_shaped_posets_replay_every_dimension_short_of_a_theorem(self):
        theorem, replay = counting.THEOREM, counting.REPLAY
        # on at most 5 elements every dimension is a theorem dimension, whatever
        # the ideals
        for n, q in product(range(1, 6), (2, 3, 4)):
            for ideals in (None, n + 1, 2**n):
                paths = {counting._census_path(n, q, r, ideals) for r in range(1, n + 1)}
                assert paths == {theorem}, (n, q, ideals)
        # a poset on 6 or 7 elements has at most 2^7 = 128 ideals, within the
        # replay limits of r = 3 and 4 at every q (210 at q = 2, r = 3)
        for n, q in product((6, 7), (2, 3, 4)):
            for ideals in range(n + 1, 2**n + 1):
                paths = [counting._census_path(n, q, r, ideals) for r in range(1, n + 1)]
                assert paths == [theorem] * 2 + [replay] * (n - 5) + [theorem] * 3

    def test_the_verdict_memo_holds_at_most_its_key_limit(self, monkeypatch):
        # disjoint_chains(2, 3) at q = 2, r = 3: 1,371 of the 1,395 codes
        # satisfy the condition, and they have 319 distinct m-profiles
        p, field, r = disjoint_chains(2, 3), GF(2), 3
        lattice = counting._shared_lattice(p, 1 << p.n)
        held = []

        class Recorded(counting._Memo):
            # the keys held once each profile's chains are searched
            def __missing__(self, key):
                value = super().__missing__(key)
                held.append(len(self))
                return value

        def replayed():
            held.clear()
            forms = _rref_canonical_forms(field, r, p.n)
            return counting._shared_census(field, r, forms, lattice)

        monkeypatch.setattr(counting, "_Memo", Recorded)
        expected = census_per_code(p, 2, r)[1][r - 1]
        assert 0 < expected < gaussian_binomial(p.n, r, 2)
        assert replayed() == expected
        profiles = len(held)
        assert held == list(range(1, profiles + 1)) and profiles == 319
        monkeypatch.setattr(counting, "_PROFILE_KEYS", 16)
        assert replayed() == expected
        # emptied at 16 keys, the memo searches some profiles again
        assert max(held) == 16 and len(held) > profiles

    def test_only_a_dimension_that_can_replay_walks_the_ideals(self, monkeypatch):
        limits = []
        walk = counting._ideal_walk

        def recorded(p, top, limit):
            limits.append(limit)
            return walk(p, top, limit)

        monkeypatch.setattr(counting, "_ideal_walk", recorded)
        assert census(antichain(20), 2, max_dim=1).per_dim_chain == (2**20 - 1,)
        # no census on a poset with n <= 5 walks an ideal
        fives = (antichain(5), weak_order([2, 3]), from_cover_relations(5, [(1, 3), (2, 4)]))
        for p in (chain(3), antichain(3), weak_order([1, 2]), antichain(2), chain(1), *fives):
            for q in (2, 3):
                rep = census(p, q)
                assert rep.per_dim_chain == rep.per_dim_total
        assert census(antichain(7), 2, max_dim=2).per_dim_chain == (127, 2667)
        assert limits == []
        # antichain(7) at q = 2: r = 3 and 4 can replay, and the largest limit,
        # 14 * 66 at r = 4, is below the 29,211 codes; a stub stands in for
        # the replays
        monkeypatch.setattr(counting, "_shared_census", lambda field, r, forms, lattice: 0)
        census(antichain(7), 2)
        assert limits == [924]
        census(antichain(7), 2, max_dim=3)
        assert limits == [924, counting._replay_limit(2, 3)] == [924, 210]

    def test_every_height_two_poset_on_five_elements_matches_the_per_code_census(self):
        # two minimal elements under three maximal ones, with three covers
        grid = [(a, b) for a in (1, 2) for b in (3, 4, 5)]
        for covers in combinations(grid, 3):
            p = from_cover_relations(5, covers)
            rep = census(p, 2, budget=None)
            assert (rep.per_dim_total, rep.per_dim_chain) == census_per_code(p, 2, 5), covers

    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_interned_states_are_subspaces_of_the_column_space(self, monkeypatch, q):
        # the replay interns one state per nonzero span its eliminations reach
        spans = set()
        rref_rows = counting._rref_rows

        def recorded(field, rows, ncols, *order):
            result = rref_rows(field, rows, ncols, *order)
            if result[0]:
                spans.add((ncols, span(field, ncols, result[0])))
            return result

        monkeypatch.setattr(counting, "_rref_rows", recorded)
        field = GF(q)
        # census decides r = 2 by theorem, so the replay is called directly;
        # element 4 is maximal in each poset
        for p in (antichain(4), chain(4), weak_order([1, 3])):
            spans.clear()
            lattice = counting._shared_lattice(p, 1 << p.n)
            forms = _rref_canonical_forms(field, 2, 4)
            assert counting._shared_census(field, 2, forms, lattice) == gaussian_binomial(4, 2, q)
            states = Counter(r for r, _ in spans)
            # a state is a subspace of F_q^2
            assert sorted(states) == [2]
            assert states[2] <= sum(gaussian_row(2, q)[1:]), p
            # each line of F_q^2 is the last column of some 2 x 4 form, so r = 2
            # meets every nonzero subspace: no two of them share a state
            assert states[2] == q + 2

    @pytest.mark.parametrize("q", (2, 3, 4))
    def test_the_replay_counts_every_code_at_the_theorem_dimensions(self, q):
        # census takes [n r]_q for r in {1, 2, n - 2, n - 1, n} without a
        # replay; the replay must agree, on dimensions of at most 6,000 codes
        field = GF(q)
        rng = random.Random(f"theorem:{q}")
        checked = set()
        for family in (*POSET_FAMILIES, "bipartite"):
            for _ in range(3):
                n = rng.randint(1, 6)
                p = random_bipartite(rng, n) if family == "bipartite" else random_poset(rng, family, n)
                lattice = counting._shared_lattice(p, 1 << n)
                for r in sorted({1, 2, n - 2, n - 1, n} & set(range(1, n + 1))):
                    assert counting._census_path(n, q, r, len(lattice[0])) == counting.THEOREM
                    codes = gaussian_binomial(n, r, q)
                    if codes > 6000:
                        continue
                    forms = _rref_canonical_forms(field, r, n)
                    where = f"{family} n={n} r={r} covers={p.covers()}"
                    assert counting._shared_census(field, r, forms, lattice) == codes, where
                    checked.add(r if 2 * r <= n else r - n)
        # dimensions 2 and n - 2 (with n - 2 > 2) are among those checked
        assert {2, -2} <= checked

    def test_three_two_element_chains_match_the_per_code_census(self):
        # 24 of its binary codes of dimension 3, the first dimension census
        # searches, fail the condition
        p = disjoint_chains(2, 3)
        counts = census_per_code(p, 2, 6)
        assert counts == ((63, 651, 1395, 651, 63, 1), (63, 651, 1371, 651, 63, 1))
        assert census(p, 2).per_dim_chain == replayed_census(p, 2, 6) == counts[1]


def reversed_poset(p):
    """P̄, the order of P turned upside down: its down-sets are the up-sets of P."""
    return Poset(p.n, p._up)


# q -> largest n of the drawn posets
DUAL_CENSUS_N = {2: 6, 3: 5}


@pytest.mark.parametrize("q", DUAL_CENSUS_N)
def test_census_is_self_dual(q):
    # C satisfies the chain condition on P iff C⊥ does on P̄, and C ↦ C⊥ maps
    # the codes of dimension r one-to-one onto those of dimension n - r
    rng = random.Random(f"dual census:{q}")
    posets = []
    for family in (*POSET_FAMILIES, "bipartite"):
        for _ in range(3):
            n = rng.randint(4, DUAL_CENSUS_N[q])
            posets.append(
                random_bipartite(rng, n) if family == "bipartite" else random_poset(rng, family, n)
            )
    if q == 2:
        # one element below four others, and two more: 11,795 of its binary
        # codes of dimension 3 satisfy the condition and 11,771 of dimension
        # 4, so taking P for P̄ fails here
        posets.append(from_cover_relations(7, [(1, 2), (1, 3), (1, 4), (1, 5)]))
    for p in posets:
        counts = census(p, q, budget=None).per_dim_chain[:-1]
        dual = census(reversed_poset(p), q, budget=None).per_dim_chain[:-1]
        assert counts == dual[::-1], f"n={p.n} covers={p.covers()}"


class TestPartitionFormat:
    def test_valid_partition(self):
        p = weak_order([2, 2])
        part = partition_from_dict({"chains": [[1, 3], [2, 4]]}, p)
        assert part.sizes == (2, 2)

    def test_repeated_element(self):
        with pytest.raises(InputError):
            partition_from_dict({"chains": [[1, 2], [2, 3]]}, chain(3))

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            partition_from_dict({"chains": [[1, 5]]}, chain(3))

    def test_incomplete_cover(self):
        with pytest.raises(InputError):
            partition_from_dict({"chains": [[1, 2]]}, chain(3))

    def test_not_a_chain(self):
        with pytest.raises(InputError):
            partition_from_dict({"chains": [[1, 2], [3, 4]]}, antichain(4))

    def test_wrong_shape(self):
        with pytest.raises(InputError):
            partition_from_dict({"parts": [[1]]}, chain(1))

    def test_boolean_element(self):
        with pytest.raises(InputError):
            partition_from_dict({"chains": [[True]]}, chain(1))
