import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetcodes import (
    GF,
    BudgetExceeded,
    FieldMismatch,
    LengthMismatch,
    RangeError,
    RankError,
    Subspace,
    contains,
    enumerate_nonzero_codewords,
    enumerate_subspaces,
    full_space,
    gaussian_binomial,
    gaussian_row,
    is_subspace_of,
    matrix,
    rref,
    span,
    zero_subspace,
)
from conftest import GENERATORS


@lru_cache(maxsize=None)
def gb_oracle(n, r, q):
    """q-Pascal recurrence, independent of the product-formula implementation."""
    if r < 0 or r > n:
        return 0
    if r == 0 or r == n:
        return 1
    return gb_oracle(n - 1, r - 1, q) + q**r * gb_oracle(n - 1, r, q)


class TestRref:
    def test_identity(self):
        f = GF(2)
        m = matrix(f, [[1, 0], [0, 1]])
        reduced, rank = rref(m)
        assert reduced == m
        assert rank == 2

    def test_zero_matrix(self):
        f = GF(3)
        m = matrix(f, [[0, 0, 0], [0, 0, 0]])
        reduced, rank = rref(m)
        assert reduced == m
        assert rank == 0

    def test_dependent_rows_gf2(self):
        f = GF(2)
        m = matrix(f, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        reduced, rank = rref(m)
        assert rank == 2
        assert reduced.rows == ((1, 0, 1), (0, 1, 1), (0, 0, 0))

    def test_normalizes_leading_entries(self):
        f = GF(5)
        m = matrix(f, [[2, 4], [0, 3]])
        reduced, rank = rref(m)
        assert rank == 2
        assert reduced.rows == ((1, 0), (0, 1))


class TestSpan:
    def test_empty(self, f2):
        s = span(f2, 3, [])
        assert s.dim == 0
        assert s == zero_subspace(f2, 3)

    def test_duplicates_collapse(self, f2):
        s = span(f2, 2, [(1, 0), (1, 0)])
        assert s.dim == 1
        assert s.basis == ((1, 0),)

    def test_demo_generators_independent(self, f2):
        assert span(f2, 27, GENERATORS).dim == 3

    def test_canonical_and_permutation_invariant(self, f2):
        vecs = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
        s = span(f2, 3, vecs)
        assert span(f2, 3, s.basis) == s
        assert span(f2, 3, vecs[::-1]) == s

    def test_length_mismatch(self, f2):
        with pytest.raises(LengthMismatch):
            span(f2, 3, [(1, 0)])


class TestContainment:
    def test_zero_vector_everywhere(self, f2):
        assert contains(zero_subspace(f2, 3), (0, 0, 0))
        assert contains(span(f2, 3, [(1, 1, 0)]), (0, 0, 0))

    def test_zero_subspace_in_everything(self, f2):
        assert is_subspace_of(zero_subspace(f2, 2), span(f2, 2, [(0, 1)]))

    def test_proper_containment(self, f2):
        e1 = span(f2, 2, [(1, 0)])
        both = span(f2, 2, [(1, 0), (0, 1)])
        assert is_subspace_of(e1, both)
        assert not is_subspace_of(both, e1)

    def test_membership_gf3(self):
        f = GF(3)
        s = span(f, 3, [(1, 2, 0), (0, 0, 1)])
        assert contains(s, (2, 1, 0))
        assert not contains(s, (1, 0, 0))

    def test_field_mismatch(self, f2):
        with pytest.raises(FieldMismatch):
            is_subspace_of(span(f2, 2, [(1, 0)]), span(GF(3), 2, [(1, 0)]))


class TestEnumeration:
    def test_dimension_zero(self, f2):
        subs = list(enumerate_subspaces(full_space(f2, 3), 0))
        assert subs == [zero_subspace(f2, 3)]

    def test_f2_cubed_lines_and_planes(self, f2):
        amb = full_space(f2, 3)
        assert len(list(enumerate_subspaces(amb, 1))) == 7
        assert len(list(enumerate_subspaces(amb, 2))) == 7

    def test_counts_match_gaussian_binomial(self):
        for q in (2, 3):
            f = GF(q)
            for n in range(1, 5):
                amb = full_space(f, n)
                for r in range(n + 1):
                    subs = list(enumerate_subspaces(amb, r))
                    assert len(subs) == gaussian_binomial(n, r, q)
                    assert len(set(subs)) == len(subs)

    def test_yields_valid_nested_subspaces(self, f2):
        amb = span(f2, 4, [(1, 0, 1, 0), (0, 1, 1, 1), (0, 0, 0, 1)])
        subs = list(enumerate_subspaces(amb, 2))
        assert len(subs) == gaussian_binomial(3, 2, 2)
        for d in subs:
            assert d.dim == 2
            assert is_subspace_of(d, amb)

    def test_deterministic_order(self, f2):
        amb = full_space(f2, 4)
        first = list(enumerate_subspaces(amb, 2))
        second = list(enumerate_subspaces(amb, 2))
        assert first == second

    def test_rank_error(self, f2):
        with pytest.raises(RankError):
            enumerate_subspaces(full_space(f2, 3), 4)

    def test_budget_guard(self, f2):
        with pytest.raises(BudgetExceeded):
            enumerate_subspaces(full_space(f2, 8), 4, budget=10)


class TestCodewordEnumeration:
    def test_zero_subspace(self, f2):
        assert list(enumerate_nonzero_codewords(zero_subspace(f2, 3))) == []

    def test_counts(self, f2):
        s = full_space(f2, 3)
        words = list(enumerate_nonzero_codewords(s))
        assert len(words) == 7
        assert len(set(words)) == 7

    def test_demo_code_hamming_weights(self, f2):
        s = span(f2, 27, GENERATORS)
        weights = sorted(sum(map(bool, w)) for w in enumerate_nonzero_codewords(s))
        assert weights == [3, 4, 4, 4, 7, 7, 7]

    def test_budget_guard(self, f2):
        big = full_space(f2, 30)
        with pytest.raises(BudgetExceeded):
            enumerate_nonzero_codewords(big, budget=1000)


class TestGaussianBinomial:
    def test_edges(self):
        assert gaussian_binomial(5, 0, 2) == 1
        assert gaussian_binomial(5, 5, 2) == 1

    def test_known_small_values(self):
        # 1-dim subspaces counted by hand: F_2^2 has 3, F_2^3 has 7
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 2) == 7

    def test_against_recurrence_oracle(self):
        for q in (2, 3, 5):
            for n in range(11):
                for r in range(n + 1):
                    assert gaussian_binomial(n, r, q) == gb_oracle(n, r, q)

    @given(st.integers(0, 16), st.integers(0, 16), st.sampled_from([2, 3, 4, 5]))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, n, r, q):
        assume(r <= n)
        assert gaussian_binomial(n, r, q) == gaussian_binomial(n, n - r, q)

    def test_large_n_near_the_top(self):
        # [n n-1] = [n 1] = (q^n - 1)/(q - 1), in one step instead of n - 1
        lines = (7**2000 - 1) // 6
        assert gaussian_binomial(2000, 1999, 7) == gaussian_binomial(2000, 1, 7) == lines

    def test_range_errors(self):
        with pytest.raises(RangeError):
            gaussian_binomial(3, 4, 2)
        with pytest.raises(RangeError):
            gaussian_binomial(3, -1, 2)
        with pytest.raises(RangeError):
            gaussian_binomial(3, 1, 1)


class TestGaussianRow:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
    def test_matches_entry_by_entry(self, q):
        for n in range(41):
            assert gaussian_row(n, q) == tuple(gaussian_binomial(n, j, q) for j in range(n + 1))

    def test_range_errors(self):
        with pytest.raises(RangeError):
            gaussian_row(-1, 2)
        with pytest.raises(RangeError):
            gaussian_row(3, 1)


def test_subspace_rejects_non_rref(f2):
    with pytest.raises(Exception):
        Subspace(f2, 2, ((0, 1), (1, 0)))
    with pytest.raises(Exception):
        Subspace(f2, 2, ((0, 0),))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_span_idempotent_random(seed):
    rng = random.Random(seed)
    q = rng.choice((2, 3, 4))
    f = GF(q)
    n = rng.randint(1, 6)
    vecs = [
        tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 4))
    ]
    s = span(f, n, vecs)
    assert span(f, n, s.basis) == s
    for v in vecs:
        assert contains(s, v)


@pytest.mark.parametrize("q", (2, 4, 9))
def test_package_built_subspaces_pass_full_validation(q):
    # span, the enumeration, zero_subspace and full_space skip re-validation
    # of the bases they build; this is where those bases are checked.
    f = GF(q)
    rng = random.Random(f"built:{q}")
    ambient = span(f, 5, [[rng.randrange(q) for _ in range(5)] for _ in range(3)])
    built = [zero_subspace(f, 5), full_space(f, 5), ambient]
    for r in range(ambient.dim + 1):
        built += enumerate_subspaces(ambient, r)
    for s in built:
        checked = Subspace(f, s.n, s.basis)
        assert s == checked and hash(s) == hash(checked)
