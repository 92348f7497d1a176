"""Every budget refusal: its exact message and the count, budget and
dimension it carries."""

import pytest

from posetcodes import (
    GF,
    BudgetExceeded,
    LinearCode,
    enumerate_nonzero_codewords,
    enumerate_subspaces,
    full_space,
    span,
    weak_order,
)
from posetcodes import cli, counting, verify
from posetcodes.codes import analyze_code
from posetcodes.errors import _Memo, check_budget
from conftest import GENERATORS

F2 = GF(2)
# the demo code: k = 3, so 7 + 7 + 1 = 15 subcodes
DEMO_CODE = LinearCode(weak_order([3] * 9), span(F2, 27, GENERATORS))

REFUSALS = {
    "enumerate_subspaces": (
        lambda: enumerate_subspaces(full_space(F2, 4), 2, budget=34),
        "35 subspaces of dimension 2 exceed the budget 34",
        35, 34, None,
    ),
    "enumerate_nonzero_codewords": (
        lambda: enumerate_nonzero_codewords(full_space(F2, 4), budget=14),
        "15 codewords exceed the budget 14",
        15, 14, None,
    ),
    "analyze_code": (
        lambda: analyze_code(DEMO_CODE, budget=6),
        "more than 6 ideals and 15 subcodes exceed the budget 6",
        15, 6, None,
    ),
    # [5 1]_2 >= 2^4 is past 14 (four bits) before it is computed
    "census_sizes_early": (
        lambda: counting._census_sizes(5, 2, None, 14),
        "census over more than 14 subspaces exceeds the budget 14",
        None, 14, None,
    ),
    # 7 + 7 + 1 subspaces of GF(2)^3
    "census_sizes": (
        lambda: counting._census_sizes(3, 2, None, 14),
        "census over more than 14 subspaces exceeds the budget 14",
        15, 14, None,
    ),
    "check_pairs": (
        lambda: cli._check_pairs(6, 14),
        "15 pairs of a poset on 6 elements exceed the budget 14",
        15, 14, None,
    ),
    "batch_checks": (
        lambda: verify.batch_checks(0, 1, (2,), 8, 27),
        "28 cover draws of a random poset on 8 elements exceed the budget 27",
        28, 27, None,
    ),
    # [4 1]_2 = 15 fits, [4 2]_2 = 35 does not
    "least_weight_subspaces": (
        lambda: verify.support_union_hierarchy(full_space(F2, 4), 15),
        "hierarchy dimension 2: 35 subspaces of dimension 2 exceed the budget 15",
        35, 15, 2,
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_refusal_keeps_its_message_and_numbers(name):
    call, message, count, budget, r = REFUSALS[name]
    with pytest.raises(BudgetExceeded) as exc:
        call()
    assert str(exc.value) == message
    assert (exc.value.count, exc.value.budget, exc.value.r) == (count, budget, r)


def test_check_budget_rule():
    template = "{count} of {n} past {budget}"
    assert check_budget(5, None, template) is None
    assert check_budget(None, None, template) is None
    assert check_budget(5, 5, template, n=1) is None
    with pytest.raises(BudgetExceeded) as exc:
        check_budget(6, 5, template, n=10**5000)
    assert str(exc.value) == f"6 of 1{'0' * 5000} past 5"
    assert (exc.value.count, exc.value.budget, exc.value.r) == (6, 5, None)
    # no count: too large to count, so past any budget
    with pytest.raises(BudgetExceeded) as exc:
        check_budget(None, 10**6, "more than {budget}")
    assert str(exc.value) == "more than 1000000"
    assert (exc.value.count, exc.value.budget) == (None, 10**6)


def test_memo_computes_each_key_once_and_empties_at_its_limit():
    calls = []

    def of(key):
        calls.append(key)
        return key * key

    memo = _Memo(of, 3)
    assert [memo[k] for k in (1, 2, 1, 3, 2)] == [1, 4, 1, 9, 4]
    assert calls == [1, 2, 3] and len(memo) == 3
    # a fourth key empties the memo first, so it holds only that key
    assert memo[4] == 16 and dict(memo) == {4: 16}
    # and it keeps answering, computing the forgotten keys again
    assert [memo[k] for k in (1, 4, 2)] == [1, 16, 4]
    assert calls == [1, 2, 3, 4, 1, 2] and len(memo) == 3
    assert memo[3] == 9 and dict(memo) == {3: 9}
