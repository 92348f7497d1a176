import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcodes import (
    GF,
    BudgetExceeded,
    ChainConditionUnsatisfied,
    CycleError,
    Flag,
    LengthMismatch,
    LinearCode,
    PreconditionViolated,
    antichain,
    chain,
    disjoint_chains,
    from_cover_relations,
    enumerate_nonzero_codewords,
    enumerate_subspaces,
    find_maximal_flag,
    flatten_matrix,
    full_space,
    generalized_weight,
    is_flag_unique,
    is_subspace_of,
    matrix,
    poset_distance,
    poset_weight,
    rt_weight,
    span,
    support_of_code,
    support_of_vector,
    weight_hierarchy,
)
from posetcodes.random_instances import random_code, random_poset
from posetcodes.verify import exhaustive_flags, exhaustive_hierarchy, greedy_flag
from conftest import (
    EXPECTED_SUPPORT,
    G1,
    G2,
    G3,
    GENERATORS,
    HIERARCHY_HAMMING,
    HIERARCHY_WEAK,
)


def codeword_enumeration_weight(p, d):
    """Definitional subspace weight: union of ideals over *all* codewords."""
    mask = 0
    for w in enumerate_nonzero_codewords(d):
        supp = 0
        for i, e in enumerate(w):
            if e:
                supp |= 1 << i
        mask |= p.ideal_mask(supp)
    return mask.bit_count()


class TestSupports:
    def test_zero_vector(self):
        assert support_of_vector((0, 0, 0)) == frozenset()

    def test_unit_vector(self):
        assert support_of_vector((0, 0, 1, 0)) == {3}

    def test_first_generator(self):
        assert support_of_vector(G1) == {1, 4, 7}

    def test_code_support(self, code_weak):
        assert support_of_code(code_weak) == EXPECTED_SUPPORT

    def test_zero_code_support(self, f2, weak_order_27):
        zero = LinearCode(weak_order_27, span(f2, 27, []))
        assert support_of_code(zero) == frozenset()

    def test_full_space_support(self, f2):
        code = LinearCode(antichain(4), full_space(f2, 4))
        assert support_of_code(code) == {1, 2, 3, 4}


class TestPosetWeight:
    def test_first_generator_weak(self, weak_order_27):
        assert poset_weight(weak_order_27, G1) == 7

    def test_other_generators_weak(self, weak_order_27):
        assert poset_weight(weak_order_27, G2) == 19
        assert poset_weight(weak_order_27, G3) == 25

    def test_antichain_reduces_to_hamming(self, antichain_27):
        for g in GENERATORS:
            assert poset_weight(antichain_27, g) == len(support_of_vector(g))

    def test_zero_vector(self, weak_order_27):
        assert poset_weight(weak_order_27, (0,) * 27) == 0

    def test_length_mismatch(self, weak_order_27):
        with pytest.raises(LengthMismatch):
            poset_weight(weak_order_27, (1, 0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scalar_invariance(self, seed):
        rng = random.Random(seed)
        q = rng.choice((3, 4, 5))
        f = GF(q)
        n = rng.randint(1, 8)
        p = random_poset(rng, rng.choice(("chain", "antichain", "weak_order", "random_cover")), n)
        x = tuple(rng.randrange(q) for _ in range(n))
        for lam in range(1, q):
            scaled = tuple(f.mul(lam, e) for e in x)
            assert poset_weight(p, scaled) == poset_weight(p, x)


class TestPosetDistance:
    def test_self_distance(self, f2, weak_order_27):
        assert poset_distance(weak_order_27, f2, G1, G1) == 0

    def test_gf2_distance_is_weight_of_sum(self, f2, weak_order_27):
        s = tuple(a ^ b for a, b in zip(G1, G2))
        assert poset_distance(weak_order_27, f2, G1, G2) == poset_weight(weak_order_27, s)

    def test_chain_example(self, f2):
        p = chain(3)
        assert poset_distance(p, f2, (1, 0, 0), (0, 0, 1)) == 3

    def test_symmetry_gf3(self):
        f = GF(3)
        p = chain(4)
        x = (1, 0, 2, 0)
        y = (0, 2, 2, 1)
        assert poset_distance(p, f, x, y) == poset_distance(p, f, y, x)


class TestGeneralizedWeight:
    def test_two_generator_span_weak(self, f2, weak_order_27):
        d = span(f2, 27, [G1, G2])
        assert generalized_weight(weak_order_27, d) == 19

    def test_zero_subspace(self, f2, weak_order_27):
        assert generalized_weight(weak_order_27, span(f2, 27, [])) == 0

    def test_antichain_is_support_union(self, f2):
        p = antichain(4)
        d = span(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 0)])
        union = frozenset().union(
            *(support_of_vector(w) for w in enumerate_nonzero_codewords(d))
        )
        assert generalized_weight(p, d) == len(union) == 3

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_codeword_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        q = rng.choice((2, 3))
        f = GF(q)
        n = rng.randint(1, 7)
        p = random_poset(rng, rng.choice(("chain", "antichain", "weak_order", "random_cover")), n)
        dim = rng.randint(0, min(3, n))
        vecs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(dim)]
        d = span(f, n, vecs)
        assert generalized_weight(p, d) == codeword_enumeration_weight(p, d)


class TestWeightHierarchy:
    def test_demo_code_hamming(self, code_hamming):
        assert weight_hierarchy(code_hamming) == HIERARCHY_HAMMING

    def test_demo_code_weak(self, code_weak):
        assert weight_hierarchy(code_weak) == HIERARCHY_WEAK

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_space_under_chain(self, f2, n):
        code = LinearCode(chain(n), full_space(f2, n))
        assert weight_hierarchy(code) == tuple(range(1, n + 1))

    def test_zero_code(self, f2):
        code = LinearCode(chain(3), span(f2, 3, []))
        assert weight_hierarchy(code) == ()

    def test_budget_carries_offending_dimension(self, code_weak):
        with pytest.raises(BudgetExceeded):
            weight_hierarchy(code_weak, budget=2)
        with pytest.raises(BudgetExceeded) as exc:
            exhaustive_hierarchy(code_weak, budget=2)
        assert exc.value.r == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_and_singleton_random(self, seed):
        rng = random.Random(seed)
        q = rng.choice((2, 3))
        n = rng.randint(1, 8)
        p = random_poset(rng, rng.choice(("chain", "antichain", "weak_order", "random_cover")), n)
        code = random_code(rng, GF(q), p, rng.randint(1, min(4, n)))
        hier = weight_hierarchy(code)
        assert all(hier[i] < hier[i + 1] for i in range(len(hier) - 1))
        assert all(r <= d <= code.n - code.k + r for r, d in enumerate(hier, 1))


class TestMaximalFlag:
    def test_demo_hamming_has_no_flag(self, code_hamming):
        assert find_maximal_flag(code_hamming) is None

    def test_demo_weak_flag(self, f2, code_weak):
        flag = find_maximal_flag(code_weak)
        assert flag is not None
        assert flag.weights == HIERARCHY_WEAK
        assert flag.subspaces[0] == span(f2, 27, [G1])
        assert flag.subspaces[1] == span(f2, 27, [G1, G2])
        assert flag.subspaces[2] == code_weak.subspace

    def test_greedy_and_dfs_agree_on_demo(self, code_weak):
        dfs = exhaustive_flags(code_weak)[0]
        assert greedy_flag(code_weak) == dfs == find_maximal_flag(code_weak)

    def test_greedy_requires_total_order(self, code_hamming):
        with pytest.raises(PreconditionViolated):
            greedy_flag(code_hamming)

    def test_one_dimensional_code(self, f2):
        code = LinearCode(antichain(3), span(f2, 3, [(1, 1, 0)]))
        flag = find_maximal_flag(code)
        assert flag == Flag((code.subspace,), (2,))

    def test_zero_code(self, f2):
        code = LinearCode(chain(2), span(f2, 2, []))
        assert find_maximal_flag(code) == Flag((), ())
        assert is_flag_unique(code)


class TestFlagUniqueness:
    def test_demo_weak_unique(self, code_weak):
        assert is_flag_unique(code_weak)

    def test_f2_squared_antichain_not_unique(self, f2):
        code = LinearCode(antichain(2), full_space(f2, 2))
        assert not is_flag_unique(code)
        flags = exhaustive_flags(code)
        # two 1-dim achievers of d_1 = 1 (the third line has weight 2)
        assert len(flags) == 2

    def test_k1_always_unique(self, f2):
        code = LinearCode(antichain(3), span(f2, 3, [(1, 0, 1)]))
        assert is_flag_unique(code)

    def test_raises_without_flag(self, code_hamming):
        with pytest.raises(ChainConditionUnsatisfied):
            is_flag_unique(code_hamming)


class TestAchieverNesting:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_totally_ordered_achievers_always_nested(self, seed):
        from posetcodes.random_instances import random_chain_supported_code

        rng = random.Random(seed)
        f = GF(2)
        n = rng.randint(2, 8)
        p = random_poset(rng, rng.choice(("chain", "weak_order", "random_cover")), n)
        code = random_chain_supported_code(rng, f, p)
        hier = weight_hierarchy(code)
        levels = [
            [
                d
                for d in enumerate_subspaces(code.subspace, r)
                if generalized_weight(code.poset, d) == hier[r - 1]
            ]
            for r in range(1, code.k + 1)
        ]
        # any selection of achievers, one per dimension, must come out nested
        for _ in range(5):
            picks = [lvl[rng.randrange(len(lvl))] for lvl in levels]
            assert all(is_subspace_of(a, b) for a, b in zip(picks, picks[1:]))


class TestTotallyOrderedSupport:
    @pytest.mark.parametrize("seed", range(20))
    def test_totally_ordered_support_yields_unique_flag(self, seed):
        from posetcodes.random_instances import random_chain_supported_code

        rng = random.Random(seed)
        q = rng.choice((2, 3))
        n = rng.randint(1, 7)
        p = random_poset(rng, rng.choice(("chain", "antichain", "weak_order", "random_cover")), n)
        code = random_chain_supported_code(rng, GF(q), p)
        assert code.poset.is_total_on(support_of_code(code))
        flags = exhaustive_flags(code)
        assert len(flags) == 1
        assert greedy_flag(code) == flags[0] == find_maximal_flag(code)
        assert is_flag_unique(code)

    def test_exhaustive_over_all_posets_on_four_points(self, f2):
        # every labeled poset on 4 points (219 of them), every 2- and 3-dim
        # binary subspace whose support it totally orders
        import itertools

        pairs = list(itertools.combinations(range(1, 5), 2))
        seen = set()
        checked = 0
        for mask in range(3 ** len(pairs)):
            covers = []
            m = mask
            for a, b in pairs:
                v = m % 3
                m //= 3
                if v == 1:
                    covers.append((a, b))
                elif v == 2:
                    covers.append((b, a))
            try:
                p = from_cover_relations(4, covers)
            except CycleError:
                continue
            if p in seen:
                continue
            seen.add(p)
            ambient = full_space(f2, 4)
            for r in (2, 3):
                for d in enumerate_subspaces(ambient, r):
                    code = LinearCode(p, d)
                    if not p.is_total_on(support_of_code(code)):
                        continue
                    checked += 1
                    flags = exhaustive_flags(code)
                    assert greedy_flag(code) == flags[0] == find_maximal_flag(code)
                    assert len(flags) == 1 and is_flag_unique(code)
        assert len(seen) == 219  # labeled posets on 4 elements
        assert checked > 2000

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_chain_all_codes_satisfy(self, f2, n):
        p = chain(n)
        amb = full_space(f2, n)
        total = 0
        for r in range(1, n + 1):
            for d in enumerate_subspaces(amb, r):
                total += 1
                assert find_maximal_flag(LinearCode(p, d)) is not None
        assert total == sum(
            len(list(enumerate_subspaces(amb, r))) for r in range(1, n + 1)
        )


class TestRtWeight:
    def test_zero_matrix(self, f2):
        assert rt_weight(matrix(f2, [[0, 0], [0, 0]], 2)) == 0

    def test_single_column(self, f2):
        assert rt_weight(matrix(f2, [[0], [1], [0]], 1)) == 2

    def test_flatten_orders(self, f2):
        m = matrix(f2, [[1, 0], [0, 1]])
        assert flatten_matrix(m, "row") == (1, 0, 0, 1)
        assert flatten_matrix(m, "col") == (1, 0, 0, 1)
        m2 = matrix(f2, [[1, 1], [0, 0]])
        assert flatten_matrix(m2, "row") == (1, 1, 0, 0)
        assert flatten_matrix(m2, "col") == (1, 0, 1, 0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_with_column_chain_poset(self, seed):
        rng = random.Random(seed)
        q = rng.choice((2, 3, 4))
        f = GF(q)
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 4)
        rows = tuple(
            tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(nrows)
        )
        m = matrix(f, rows, ncols)
        p = disjoint_chains(nrows, ncols)
        assert rt_weight(m) == poset_weight(p, flatten_matrix(m, "col"))
