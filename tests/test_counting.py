import pytest

from posetcodes import (
    BudgetExceeded,
    ChainPartition,
    InputError,
    RangeError,
    antichain,
    census,
    chain,
    chain_condition_lower_bound,
    gaussian_binomial,
    partition_from_dict,
    weak_order,
)


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

    def test_minimal_partition_width_remark(self):
        # with the minimal partition, the number of chains equals the width
        for p in (chain(4), antichain(4), weak_order([3, 2])):
            width, part = p.width_and_min_chain_partition()
            assert len(part.chains) == width


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
