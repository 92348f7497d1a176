import gc
import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from posetcodes import GF, LinearCode, antichain, chain, full_space, span, weight_hierarchy
from posetcodes import cli, codes, verify
from posetcodes.codes import flatten_matrix, poset_weight, rt_weight
from posetcodes.linalg import DEFAULT_BUDGET, enumerate_subspaces
from posetcodes.poset import disjoint_chains
from posetcodes.random_instances import (
    POSET_FAMILIES,
    random_code,
    random_matrix,
    random_maximal_chain,
    random_poset,
)
from posetcodes.verify import (
    CheckResult,
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


# -- batch_checks against the per-draw loop it replaced -------------------


def reference_random_code(rng, field, p, k):
    """The code draw as it was: public ``span`` on every candidate."""
    for _ in range(128):
        rows = [[rng.randrange(field.q) for _ in range(p.n)] for _ in range(k)]
        s = span(field, p.n, rows)
        if s.dim == k:
            return LinearCode(p, s)
    raise RuntimeError("no full-rank draw")


def reference_chain_supported_code(rng, field, p):
    chain_els = random_maximal_chain(rng, p)
    k = rng.randint(1, min(4, len(chain_els)))
    positions = [e - 1 for e in chain_els]
    for _ in range(128):
        rows = []
        for _ in range(k):
            v = [0] * p.n
            for j in positions:
                v[j] = rng.randrange(field.q)
            rows.append(v)
        s = span(field, p.n, rows)
        if s.dim == k:
            return LinearCode(p, s)
    raise RuntimeError("no full-rank draw")


def reference_draws(seed, batch, qs, max_n):
    """Every code a batch draws, as (prefix, index, code), in draw order."""
    rng = random.Random(seed)
    out = []
    for prefix, draw in (
        ("batch", lambda f, p: reference_random_code(rng, f, p, rng.randint(1, min(4, p.n)))),
        ("totally_ordered", lambda f, p: reference_chain_supported_code(rng, f, p)),
    ):
        for i in range(batch):
            q = rng.choice(qs)
            p = random_poset(rng, POSET_FAMILIES[i % len(POSET_FAMILIES)], rng.randint(1, max_n))
            out.append((prefix, i, draw(GF(q), p)))
    return out


def reference_batch_checks(seed, batch, qs=(2, 3), max_n=8, budget=DEFAULT_BUDGET):
    """``batch_checks`` as a plain loop: draw, run every check on every
    draw, record."""
    rng = random.Random(seed)
    results = []

    def record(name, summary, failures):
        count = 0
        for label, i, detail in failures:
            count += 1
            results.append(CheckResult(label, False, f"seed={seed} index={i}{detail}"))
        results.append(CheckResult(name, count == 0, summary))

    def code_failures(prefix, draw_code):
        for i in range(batch):
            q = rng.choice(qs)
            family = POSET_FAMILIES[i % len(POSET_FAMILIES)]
            p = random_poset(rng, family, rng.randint(1, max_n))
            code = draw_code(GF(q), p)
            for res in verify.instance_checks(code, budget):
                if not res.ok:
                    yield f"{prefix}[{i}].{res.name}", i, f"\n{describe_code(code)}\n{res.detail}"

    def rt_failures():
        for i in range(batch):
            q = rng.choice(qs)
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            m = random_matrix(rng, GF(q), nrows, ncols)
            p = disjoint_chains(nrows, ncols)
            if rt_weight(m) != poset_weight(p, flatten_matrix(m, "col")):
                yield f"rt_equivalence[{i}]", i, f" matrix rows {m.rows}"

    record(
        "randomized_code_invariants",
        f"{batch} random codes, q in {tuple(qs)}, n <= {max_n}",
        code_failures(
            "batch",
            lambda field, p: reference_random_code(rng, field, p, rng.randint(1, min(4, p.n))),
        ),
    )
    record(
        "totally_ordered_support_properties",
        f"{batch} chain-supported codes",
        code_failures(
            "totally_ordered", lambda field, p: reference_chain_supported_code(rng, field, p)
        ),
    )
    record("rt_weight_equivalence", f"{batch} random matrices", rt_failures())
    return results


def counted_instance_checks(monkeypatch):
    """Route ``verify.instance_checks`` through a recorder; returns the list
    of ``describe_code`` texts of the instances it was called on."""
    seen = []
    checks = verify.instance_checks

    def counted(code, budget=DEFAULT_BUDGET, expect=None):
        seen.append(describe_code(code))
        return checks(code, budget, expect)

    monkeypatch.setattr(verify, "instance_checks", counted)
    return seen


@pytest.mark.parametrize("qs", [(2,), (3,), (2, 3), (4,)])
@pytest.mark.parametrize("max_n", [1, 3, 4, 8])
def test_batch_checks_match_the_per_draw_loop(qs, max_n):
    for seed in (0, 7, 647637650):
        batch = 40 if max_n < 8 else 20
        assert batch_checks(seed, batch, qs, max_n) == reference_batch_checks(
            seed, batch, qs, max_n
        )


def test_readme_batch_command_prints_the_reference_report(capsys):
    argv = ["verify", "--seed", "7", "--batch", "200", "--q", "2", "--max-n", "8"]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    results = reference_batch_checks(7, 200, (2,), 8)
    report = {"mode": "batch", "seed": 7, "batch": 200, "ok": all(r.ok for r in results)}
    report["checks"] = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    assert out == json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("seed, batch, qs, max_n", [(647637650, 200, (2,), 4), (3, 80, (2, 3), 4)])
def test_oracles_run_once_per_distinct_instance(monkeypatch, seed, batch, qs, max_n):
    # describe_code reproduces q, the order and the basis verbatim, so equal
    # texts are equal instances
    distinct = {describe_code(code) for _, _, code in reference_draws(seed, batch, qs, max_n)}
    seen = counted_instance_checks(monkeypatch)
    batch_checks(seed, batch, qs, max_n)
    assert len(set(seen)) == len(seen) == len(distinct)
    assert set(seen) == distinct
    assert len(distinct) < 2 * batch  # the batch repeats itself


def test_every_repeat_reports_its_own_failure(monkeypatch):
    seed, batch, qs, max_n = 647637650, 200, (2,), 4
    draws = reference_draws(seed, batch, qs, max_n)
    target, times = Counter(describe_code(code) for _, _, code in draws).most_common(1)[0]
    assert times >= 3
    checks = verify.instance_checks

    def planted(code, budget=DEFAULT_BUDGET, expect=None):
        out = checks(code, budget, expect)
        if describe_code(code) == target:
            out[0] = CheckResult(out[0].name, False, "planted failure")
        return out

    monkeypatch.setattr(verify, "instance_checks", planted)
    results = batch_checks(seed, batch, qs, max_n)
    assert results == reference_batch_checks(seed, batch, qs, max_n)
    failed = [r for r in results if not r.ok]
    expected = [
        f"{prefix}[{i}].monotonicity_and_singleton"
        for prefix, i, code in draws
        if describe_code(code) == target
    ]
    assert [r.name for r in failed if "[" in r.name] == expected
    assert all(r.detail.endswith("planted failure") for r in failed if "[" in r.name)


def test_remembered_instances_stay_under_the_bound(monkeypatch):
    bound = 4
    cases = ((647637650, 200, (2,), 4), (5, 60, (2, 3), 3))
    expected = {case: reference_batch_checks(*case) for case in cases}
    monkeypatch.setattr(verify, "_VERDICT_KEYS", bound)
    sizes = []
    checks = verify.instance_checks

    def measured(code, budget=DEFAULT_BUDGET, expect=None):
        # the caller is the batch's draw loop, which holds the memo
        sizes.append(len(sys._getframe(1).f_locals["verdicts"]))
        return checks(code, budget, expect)

    monkeypatch.setattr(verify, "instance_checks", measured)
    for case in cases:
        sizes.clear()
        assert batch_checks(*case) == expected[case]
        assert max(sizes) == bound
        # an instance forgotten when the memo was emptied is checked again
        keys = [describe_code(code) for _, _, code in reference_draws(*case)]
        memo, misses = set(), 0
        for key in keys:
            if key not in memo:
                misses += 1
                if len(memo) >= bound:
                    memo.clear()
                memo.add(key)
        assert len(sizes) == misses > len(set(keys))


def test_long_batch_memory_stays_flat():
    # the per-draw loop peaks at about 1.26 MB here and an unbounded memo of
    # every distinct instance at about 1.6 MB; the full collection empties
    # the free lists, whose recycled objects tracemalloc would not see
    batch_checks(seed=1, batch=20, qs=(2, 3), max_n=8)
    gc.collect()
    tracemalloc.start()
    try:
        batch_checks(seed=7, batch=2000, qs=(2, 3), max_n=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_400_000
