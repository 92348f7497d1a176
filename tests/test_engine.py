"""The ideal-lattice engine against the exhaustive oracles.

Both level builders run on every instance, so each path is checked whichever
one ``analyze_code`` would pick for it.
"""

import random
import tracemalloc
from itertools import product

import pytest

from posetcodes import (
    GF,
    ChainConditionUnsatisfied,
    Flag,
    LinearCode,
    chain,
    antichain,
    find_maximal_flag,
    is_flag_unique,
    span,
    weak_order,
    weight_hierarchy,
    zero_subspace,
)
from posetcodes import codes
from posetcodes.cli import main
from posetcodes.codes import (
    CodeAnalysis,
    _code_support_mask,
    _coefficients_within,
    _ideal_levels,
    _ideal_walk,
    _subcode_levels,
    analyze_code,
)
from posetcodes.linalg import _combine, _span
from posetcodes.random_instances import POSET_FAMILIES, random_code, random_poset
from posetcodes.verify import exhaustive_flags, exhaustive_hierarchy

# q -> (instances, largest k).  The larger fields get fewer and smaller codes:
# the oracles enumerate all [k r]_q subcodes, which grows like q^(r(k - r)).
CASES = {2: (20, 4), 3: (20, 4), 4: (20, 4), 5: (12, 3), 8: (12, 3), 9: (12, 3)}
# Random codes this small nearly always have a maximal flag.  These two
# antichain (Hamming-metric) codes have none, so the loop also meets flag
# count 0; the antichain cases run them after their random draws.
FLAGLESS = {
    2: (
        (1, 0, 0, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 0, 1),
        (0, 0, 1, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 0, 0, 1),
    ),
    3: ((1, 0, 0, 2, 0, 2), (0, 1, 0, 2, 0, 1), (0, 0, 1, 0, 1, 0)),
}


@pytest.mark.parametrize("q", CASES)
@pytest.mark.parametrize("family", POSET_FAMILIES)
def test_both_level_builders_match_the_oracles(family, q):
    rng = random.Random(f"engine:{family}:{q}")
    instances, max_k = CASES[q]
    codes = []
    for _ in range(instances):
        n = rng.randint(1, 8)
        codes.append(
            random_code(rng, GF(q), random_poset(rng, family, n), rng.randint(0, min(max_k, n)))
        )
    if family == "antichain" and q in FLAGLESS:
        n = len(FLAGLESS[q][0])
        codes.append(LinearCode(antichain(n), span(GF(q), n, FLAGLESS[q])))
    for code in codes:
        hierarchy = exhaustive_hierarchy(code)
        flags = exhaustive_flags(code, hierarchy)
        first = flags[0] if flags else None
        top = code.poset.ideal_mask(_code_support_mask(code))
        # S has at most 2^n ideals, so this record is never capped
        walk = _ideal_walk(code.poset, top, 1 << code.n)
        for build, levels in (
            (_ideal_levels, _ideal_levels(code, top, walk)),
            (_subcode_levels, _subcode_levels(code)),
        ):
            analysis = CodeAnalysis(code, levels)
            where = f"{build.__name__} on {family} q={q} n={code.n} basis={code.subspace.basis}"
            assert analysis.hierarchy == hierarchy, where
            assert analysis.flag_count == len(flags), where
            assert analysis.witness() == first, where
        # the public functions, whichever path analyze_code picks
        where = f"{family} q={q} n={code.n} basis={code.subspace.basis}"
        assert weight_hierarchy(code) == hierarchy, where
        assert find_maximal_flag(code) == first, where
        if flags:
            assert is_flag_unique(code) == (len(flags) == 1), where
        else:
            with pytest.raises(ChainConditionUnsatisfied):
                is_flag_unique(code)


def test_zero_code_has_one_empty_flag(f2):
    code = LinearCode(chain(3), zero_subspace(f2, 3))
    analysis = analyze_code(code)
    assert analysis.hierarchy == ()
    assert analysis.flag_count == 1
    assert analysis.witness() == Flag((), ())


def _replay(top, walk):
    """The ideals of a walk record, in the order recorded."""
    ideals = [top] * (top.bit_count() + 1)
    out = []
    for depth, e in zip(*walk):
        if depth:
            ideals[depth] = ideals[depth - 1] ^ (1 << e)
        out.append(ideals[depth])
    return out


def _down_closed_subsets(p, top):
    elements = [e for e in range(p.n) if (top >> e) & 1]
    subsets = []
    for choice in product((0, 1), repeat=len(elements)):
        mask = sum(1 << e for e, chosen in zip(elements, choice) if chosen)
        if all(not p._down[e] & ~mask for e in elements if (mask >> e) & 1):
            subsets.append(mask)
    return subsets


@pytest.mark.parametrize("family", POSET_FAMILIES)
def test_walk_records_every_ideal_once(family):
    rng = random.Random(f"walk:{family}")
    for _ in range(15):
        p = random_poset(rng, family, rng.randint(1, 10))
        top = p.ideal_mask(rng.getrandbits(p.n))
        ideals = _down_closed_subsets(p, top)
        where = f"{p!r} top={top:b}"
        replayed = _replay(top, _ideal_walk(p, top, len(ideals)))
        assert len(replayed) == len(ideals), where
        assert set(replayed) == set(ideals), where
        assert _ideal_walk(p, top, len(ideals) - 1) is None, where


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_coefficients_within_every_ideal_are_the_kernel_rref(q):
    field = GF(q)
    rng = random.Random(f"kernel:{q}")
    max_k = 4 if q < 4 else 3  # the kernel oracle enumerates all q^k coefficient vectors
    for family in POSET_FAMILIES:
        for _ in range(6):
            n = rng.randint(1, 6)
            code = random_code(
                rng, field, random_poset(rng, family, n), rng.randint(1, min(max_k, n))
            )
            words = {
                x: _combine(field, x, code.subspace.basis, n)
                for x in product(range(q), repeat=code.k)
            }
            top = code.poset.ideal_mask(_code_support_mask(code))
            for ideal in _replay(top, _ideal_walk(code.poset, top, 1 << n)):
                kernel = [
                    x
                    for x, word in words.items()
                    if not any(e for j, e in enumerate(word) if not (ideal >> j) & 1)
                ]
                rows = _span(field, code.k, kernel).basis
                pivots = tuple(next(j for j, e in enumerate(row) if e) for row in rows)
                where = f"{family} q={q} basis={code.subspace.basis} ideal={ideal:b}"
                assert _coefficients_within(code, ideal) == (pivots, rows), where


def test_one_walk_per_analysis(monkeypatch, f2):
    walk = codes._ideal_walk
    recorded = []

    def counted(*args):
        record = walk(*args)
        recorded.append(record is not None)
        return record

    monkeypatch.setattr(codes, "_ideal_walk", counted)
    walked = LinearCode(chain(8), span(f2, 8, CHAIN_ROWS))
    enumerated = LinearCode(antichain(6), span(f2, 6, ANTICHAIN_ROWS))
    for code, ideal_path in ((walked, True), (enumerated, False)):
        recorded.clear()
        analyze_code(code).witness()
        assert recorded == [ideal_path]


def test_walk_record_costs_a_few_bytes_per_ideal():
    p = weak_order([16])  # an antichain: all 2^16 subsets are ideals
    tracemalloc.start()
    try:
        walk = _ideal_walk(p, (1 << 16) - 1, 1 << 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(walk[0]) == 1 << 16
    assert peak <= 16 * (1 << 16)


def _write_instance(tmp_path, poset_json, q, rows):
    poset = tmp_path / "poset.json"
    poset.write_text(poset_json)
    code = tmp_path / "code.txt"
    lines = [f"{q} {len(rows[0])} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
    code.write_text("\n".join(lines) + "\n")
    return ["--poset", str(poset), "--code", str(code)]


# A chain code of full support: 9 ideals, 15 + 35 + 15 + 1 = 66 subcodes.
CHAIN_ROWS = (
    (1, 0, 0, 0, 1, 1, 0, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 0),
)
# An antichain code supported on 5 points: 32 ideals, 3 + 1 = 4 subcodes.
ANTICHAIN_ROWS = ((1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0))


@pytest.mark.parametrize("command", ("hierarchy", "chain", "flag"))
def test_budget_on_the_ideal_path_counts_ideals(tmp_path, capsys, command):
    argv = _write_instance(tmp_path, '{"chain": 8}', 2, CHAIN_ROWS)
    assert main([command, *argv, "--budget", "8"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    # fits although the 66 subcodes do not: the ideal lattice answers
    assert main([command, *argv, "--budget", "9"]) == 0


@pytest.mark.parametrize("command", ("hierarchy", "chain", "flag"))
def test_budget_on_the_subcode_path_counts_subcodes(tmp_path, capsys, command):
    argv = _write_instance(tmp_path, '{"antichain": 6}', 2, ANTICHAIN_ROWS)
    assert main([command, *argv, "--budget", "3"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert main([command, *argv, "--budget", "4"]) == 0


def test_tight_budgets_still_give_the_oracle_hierarchy(f2):
    walked = LinearCode(chain(8), span(f2, 8, CHAIN_ROWS))
    assert analyze_code(walked, budget=9).hierarchy == exhaustive_hierarchy(walked)
    enumerated = LinearCode(antichain(6), span(f2, 6, ANTICHAIN_ROWS))
    assert analyze_code(enumerated, budget=4).hierarchy == exhaustive_hierarchy(enumerated)
