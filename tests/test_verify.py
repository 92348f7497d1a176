import random

from posetcodes import GF, LinearCode, antichain, chain, full_space, span, weight_hierarchy
from posetcodes import codes, verify
from posetcodes.linalg import enumerate_subspaces
from posetcodes.random_instances import random_code
from posetcodes.verify import (
    batch_checks,
    describe_code,
    instance_checks,
    support_union_hierarchy,
)


def test_instance_checks_pass_on_demo_codes(code_weak, code_hamming):
    assert all(r.ok for r in instance_checks(code_weak))
    assert all(r.ok for r in instance_checks(code_hamming))


def test_expectation_mismatch_is_flagged(code_weak):
    results = instance_checks(code_weak, expect={"hierarchy": [1, 2, 3]})
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == ["expected_hierarchy"]


def test_expectation_match(code_weak):
    expect = {
        "hierarchy": [7, 19, 25],
        "support": [1, 4, 7, 11, 14, 17, 21, 24, 27],
        "chain_condition": True,
        "unique": True,
    }
    assert all(r.ok for r in instance_checks(code_weak, expect=expect))


def test_support_union_hierarchy_matches_on_antichains():
    rng = random.Random(5)
    f = GF(2)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = antichain(n)
        code = random_code(rng, f, p, rng.randint(1, min(3, n)))
        assert support_union_hierarchy(code.subspace) == weight_hierarchy(code)


def test_batch_checks_pass():
    results = batch_checks(seed=11, batch=40, qs=(2, 3), max_n=7)
    assert all(r.ok for r in results)
    names = {r.name for r in results}
    assert "randomized_code_invariants" in names
    assert "totally_ordered_support_properties" in names
    assert "rt_weight_equivalence" in names


def test_describe_code_is_reproducible(f2):
    code = LinearCode(antichain(3), full_space(f2, 3))
    text = describe_code(code)
    assert "q=2 n=3 k=3" in text
    assert "1 0 0" in text


def test_one_exhaustive_hierarchy_per_instance(monkeypatch, f2, code_weak):
    # one enumeration per dimension serves the hierarchy and the flags
    calls = []

    def counted(s, r, budget=None):
        calls.append(r)
        return enumerate_subspaces(s, r, budget)

    monkeypatch.setattr(verify, "enumerate_subspaces", counted)
    expect = {"hierarchy": [7, 19, 25], "chain_condition": True, "unique": True}
    chain_code = LinearCode(chain(4), span(f2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)]))
    for code, exp in ((code_weak, expect), (code_weak, None), (chain_code, {"unique": True})):
        calls.clear()
        results = instance_checks(code, expect=exp)
        assert all(r.ok for r in results), results
        assert "greedy_matches_dfs" in {r.name for r in results}
        assert calls == list(range(1, code.k + 1))


def test_checks_never_ask_the_engine(monkeypatch, code_weak, code_hamming):
    def engine(*args, **kwargs):
        raise AssertionError("verify must not use the engine it checks")

    monkeypatch.setattr(codes, "analyze_code", engine)
    # and the name verify would hold if it imported the engine itself
    monkeypatch.setattr(verify, "analyze_code", engine, raising=False)
    assert all(r.ok for r in instance_checks(code_weak))
    assert all(r.ok for r in instance_checks(code_hamming))
    assert all(r.ok for r in batch_checks(seed=11, batch=20))
