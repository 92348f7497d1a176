"""The ideal-lattice engine against the exhaustive oracles.

Both level builders run on every instance, so each path is checked whichever
one ``analyze_code`` would pick for it.
"""

import random
import tracemalloc
from array import array
from functools import reduce
from itertools import combinations, compress, product
from operator import or_

import pytest

from posetcodes import (
    GF,
    ChainConditionUnsatisfied,
    Flag,
    LinearCode,
    Poset,
    Subspace,
    chain,
    antichain,
    disjoint_chains,
    find_maximal_flag,
    from_cover_relations,
    generalized_weight,
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
    _fewest_ideals,
    _ideal_records,
    _ideal_walk,
    _least_ideals,
    _row_closures,
    _subcode_levels,
    _table_row,
    _table_within,
    _walk_ideals,
    _word_table,
    _support_mask,
    analyze_code,
)
from posetcodes.linalg import _combine, _span
from posetcodes.random_instances import POSET_FAMILIES, random_code, random_poset
from posetcodes.verify import exhaustive_flags, exhaustive_hierarchy
from conftest import DEMO, HIERARCHY_HAMMING, HIERARCHY_WEAK, random_bipartite

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
        flags = exhaustive_flags(code)
        first = flags[0] if flags else None
        top = code.poset.ideal_mask(_code_support_mask(code.subspace))
        # S has at most 2^n ideals, so this record is never capped
        walk = _ideal_walk(code.poset, top, 1 << code.n)
        for build, levels in (
            (_least_ideals, _least_ideals(code.k, _ideal_records(code, top, walk))),
            (_subcode_levels, _subcode_levels(_word_table(code))),
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


# q -> largest k: both level builders run, and the subcode path enumerates
# all [k r]_q subcodes
WITNESS_K = {2: 5, 3: 4, 4: 4, 9: 3}


@pytest.mark.parametrize("q", WITNESS_K)
def test_witness_subspaces_pass_full_validation(q):
    # witness() builds its subspaces without re-validation or re-elimination;
    # this is where their bases are checked
    f = GF(q)
    rng = random.Random(f"witness:{q}")
    flags = 0
    for family in POSET_FAMILIES:
        for _ in range(12):
            n = rng.randint(1, 10)
            k = rng.randint(1, min(WITNESS_K[q], n))
            code = random_code(rng, f, random_poset(rng, family, n), k)
            top = code.poset.ideal_mask(_code_support_mask(code.subspace))
            walk = _ideal_walk(code.poset, top, 1 << n)
            table = _word_table(code)
            ideal_levels = _least_ideals(code.k, _ideal_records(code, top, walk))
            for levels in (ideal_levels, _subcode_levels(table)):
                analysis = CodeAnalysis(code, levels)
                flag = analysis.witness()
                if flag is None:
                    continue
                flags += 1
                for s, d in zip(flag.subspaces, analysis.hierarchy):
                    checked = Subspace(f, n, s.basis)
                    assert s == checked and hash(s) == hash(checked)
                    assert generalized_weight(code.poset, checked) == d
    assert flags > 60


# -- the word table of the subcode path ------------------------------------------------

# q -> largest k; the larger fields take every lane layout of the packed rows
TABLE_K = {2: 4, 3: 4, 4: 3, 5: 3, 7: 3, 8: 3, 9: 3, 16: 2, 25: 2, 27: 2, 257: 2}


def _table_cases(name, q, count):
    """Seeded codes of every poset family over GF(q), at most TABLE_K[q]
    dimensional, with the closure of their support."""
    rng = random.Random(f"{name}:{q}")
    for family in POSET_FAMILIES:
        for _ in range(count):
            n = rng.randint(1, 7)
            k = rng.randint(1, min(TABLE_K[q], n))
            code = random_code(rng, GF(q), random_poset(rng, family, n), k)
            yield code, code.poset.ideal_mask(_code_support_mask(code.subspace))


@pytest.mark.parametrize("q", TABLE_K)
def test_word_table_holds_each_normalized_word_in_lexicographic_order(q):
    for code, _ in _table_cases("table", q, 3):
        field, k, n, basis = code.field, code.k, code.n, code.subspace.basis
        where = f"q={q} basis={basis}"
        for pivot, (tags, closures) in enumerate(_word_table(code)):
            xs = [_table_row(k, q, pivot, i) for i in range(len(closures))]
            normalized = [
                (0,) * pivot + (1,) + rest for rest in product(range(q), repeat=k - 1 - pivot)
            ]
            assert xs == normalized, where
            for x, tag, closure in zip(xs, tags, closures):
                assert tag == sum(1 << j for j in range(pivot + 1, k) if x[j]), where
                word = _combine(field, x, basis, n)
                assert closure == code.poset.ideal_mask(_support_mask(word)), (where, x)


@pytest.mark.parametrize("q", TABLE_K)
def test_table_reads_the_eliminated_subcode_of_every_ideal(q):
    for code, top in _table_cases("within", q, 3):
        table = _word_table(code)
        for ideal in _walk_ideals(top, _ideal_walk(code.poset, top, 1 << code.n)):
            where = f"q={q} basis={code.subspace.basis} ideal={ideal:b}"
            within = _table_within(table, code.k, q, ideal)
            assert within == _coefficients_within(code, ideal), where


# q -> largest k of the subcode-path codes checked against the exhaustive
# flag search, which enumerates every subcode
TABLE_WITNESS_K = {7: 3, 16: 3, 25: 3, 27: 3, 257: 2}


@pytest.mark.parametrize("q", TABLE_WITNESS_K)
def test_table_witness_is_the_first_exhaustive_flag(q):
    field = GF(q)
    rng = random.Random(f"table witness:{q}")
    checked = 0
    for i in range(16):
        n = rng.randint(10, 12)
        p = random_bipartite(rng, n) if i % 3 == 0 else antichain(n)
        k = rng.randint(2, TABLE_WITNESS_K[q])
        code = sparse_code(rng, field, p, k, rng.choice((0.5, 0.8, 1.0)))
        analysis = analyze_code(code)
        if analysis._within.func is _coefficients_within:  # the ideal path
            continue
        flags = exhaustive_flags(code)
        where = f"q={q} n={n} basis={code.subspace.basis}"
        assert analysis.witness() == (flags[0] if flags else None), where
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("q", FLAGLESS)
def test_table_witness_of_a_flagless_code_is_none(q):
    n = len(FLAGLESS[q][0])
    analysis = analyze_code(LinearCode(antichain(n), span(GF(q), n, FLAGLESS[q])))
    assert analysis._within.func is _table_within
    assert analysis.flag_count == 0 and analysis.witness() is None


@pytest.mark.parametrize("q", [65536, 65521, 59049])
def test_one_dimensional_table_packs_no_field(q):
    # a k = 1 table holds the one basis row, so it builds no lane bytes of
    # the q field elements, which take megabytes at these orders
    field = GF(q)
    row = (1, 0, 2, q - 1, 0, 3, q - 2, 1)
    code = LinearCode(antichain(8), span(field, 8, [row]))
    tracemalloc.start()
    try:
        flag = analyze_code(code).witness()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert flag == exhaustive_flags(code)[0]


def test_zero_code_has_one_empty_flag(f2):
    code = LinearCode(chain(3), zero_subspace(f2, 3))
    analysis = analyze_code(code)
    assert analysis.hierarchy == ()
    assert analysis.flag_count == 1
    assert analysis.witness() == Flag((), ())


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
        replayed = list(_walk_ideals(top, _ideal_walk(p, top, len(ideals))))
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
            top = code.poset.ideal_mask(_code_support_mask(code.subspace))
            for ideal in _walk_ideals(top, _ideal_walk(code.poset, top, 1 << n)):
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


def test_the_hierarchy_alone_counts_no_chains(monkeypatch, capsys, code_weak, code_hamming):
    def refuse(levels):
        raise AssertionError("the chain counts were built")

    monkeypatch.setattr(codes, "_count_chains", refuse)
    assert weight_hierarchy(code_weak) == HIERARCHY_WEAK
    assert weight_hierarchy(code_hamming) == HIERARCHY_HAMMING
    code = str(DEMO / "code_27_3.txt")
    for poset in ("weak_order_9x3.json", "antichain_27.json"):
        assert main(["hierarchy", "--poset", str(DEMO / poset), "--code", code]) == 0
    capsys.readouterr()
    with pytest.raises(AssertionError, match="chain counts"):
        analyze_code(code_weak).flag_count


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


def test_ideal_path_keeps_no_list_per_ideal(f2):
    # coordinates 2i and 2i + 1 carry the same unit column: all 2^14 ideals
    # of the antichain fit under the 29,211 subcodes, and each level is small
    n, k = 14, 7
    rows = [tuple(int(j // 2 == i) for j in range(n)) for i in range(k)]
    code = LinearCode(antichain(n), span(f2, n, rows))
    top = (1 << n) - 1
    walk = _ideal_walk(code.poset, top, 1 << n)
    record = sum(len(a) * a.itemsize for a in walk)
    peaks = []
    for run in (
        lambda: _least_ideals(code.k, _ideal_records(code, top, walk)),
        lambda: analyze_code(code),
    ):
        tracemalloc.start()
        try:
            result = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result.hierarchy == tuple(range(2, n + 1, 2))
    # the replay itself holds stacks as deep as n; the analysis adds the record
    assert peaks[0] < record
    assert peaks[1] < 2 * record


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


# -- the walk set-up and its early exit --------------------------------------------


def _all_pairs_walk(p, top, limit):
    """The walk as it was before it read the up-sets: ``above`` comes from a
    loop over all pairs of the support, and nothing is decided before the
    walk (oracle for the set-up and the early exit)."""
    down = p._down
    order = sorted(
        (e for e in range(p.n) if (top >> e) & 1), key=lambda e: (down[e].bit_count(), e)
    )
    bit = [1 << e for e in order]
    above = [
        sum(bit[i] for i in range(j + 1, len(order)) if (down[order[i]] >> order[j]) & 1)
        for j in range(len(order))
    ]
    depths, removed = array("I"), array("I")
    stack = [(0, top, len(order), 0)]
    while stack:
        if len(depths) == limit:
            return None
        depth, ideal, t, e = stack.pop()
        depths.append(depth)
        removed.append(e)
        for j in range(t):
            if not above[j] & ideal:
                stack.append((depth + 1, ideal ^ bit[j], j, order[j]))
    return depths, removed


def _walk_cases(name, count, max_n):
    """Seeded (poset, top) pairs from every family and bipartite posets."""
    rng = random.Random(name)
    for family in (*POSET_FAMILIES, "bipartite"):
        for _ in range(count):
            n = rng.randint(1, max_n)
            if family == "bipartite":
                p = random_bipartite(rng, n)
            else:
                p = random_poset(rng, family, n)
            yield family, p, p.ideal_mask(rng.getrandbits(n))


def test_up_set_walk_matches_the_all_pairs_walk():
    for family, p, top in _walk_cases("setup", 25, 12):
        limit = 1 << p.n  # never reached: S has at most 2^n ideals
        assert _ideal_walk(p, top, limit) == _all_pairs_walk(p, top, limit), (
            f"{family} {p!r} top={top:b}"
        )


def test_walk_gives_up_exactly_when_the_ideals_exceed_the_limit():
    for family, p, top in _walk_cases("early exit", 25, 12):
        full = _all_pairs_walk(p, top, 1 << p.n)
        count = len(full[0])
        members = [e for e in p.elements if (top >> (e - 1)) & 1]
        maximal = [a for a in members if not any(p.leq(a, b) for b in members if b != a)]
        minimal = [a for a in members if not any(p.leq(b, a) for b in members if b != a)]
        width = max(len(maximal), len(minimal))
        for limit in {(1 << width) - 1, 1 << width, count - 1, count}:
            where = f"{family} {p!r} top={top:b} ideals={count} limit={limit}"
            walk = _ideal_walk(p, top, limit)
            if count > limit:
                assert walk is None, where
            else:
                assert walk == full, where


def _shuffled_chains(rng, lengths):
    """Disjoint chains of the given lengths on shuffled labels."""
    labels = list(range(1, sum(lengths) + 1))
    rng.shuffle(labels)
    covers, start = [], 0
    for length in lengths:
        block = labels[start : start + length]
        covers += zip(block, block[1:])
        start += length
    return from_cover_relations(len(labels), covers)


def _component_sizes(p, top):
    """Sizes of the connected components of the comparability graph of the
    elements of ``top`` (oracle)."""
    parts = []
    for e in (e for e in p.elements if (top >> (e - 1)) & 1):
        joined = [part for part in parts if any(p.comparable(e, f) for f in part)]
        parts = [part for part in parts if part not in joined]
        parts.append({e}.union(*joined))
    return [len(part) for part in parts]


def test_component_bound_skips_only_walks_that_must_fail(monkeypatch):
    rng = random.Random("components")
    cases = list(_walk_cases("components", 25, 12))
    for _ in range(25):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        p = _shuffled_chains(rng, lengths)
        cases.append(("shuffled chains", p, p.ideal_mask(rng.getrandbits(p.n))))
    recorded = []

    class CountedArray(array):
        def append(self, x):
            recorded.append(x)
            super().append(x)

    monkeypatch.setattr(codes, "array", CountedArray)
    skipped = 0
    for family, p, top in cases:
        full = _all_pairs_walk(p, top, 1 << p.n)
        count = len(full[0])
        bound = 1
        for size in _component_sizes(p, top):
            bound *= size + 1
        where = f"{family} {p!r} top={top:b} ideals={count} bound={bound}"
        assert bound <= count, where
        assert _fewest_ideals(p, top, count) == bound, where
        for limit in {bound - 1, bound, count - 1, count}:
            recorded.clear()
            walk = _ideal_walk(p, top, limit)
            if count > limit:
                assert walk is None, where
            else:
                assert walk == full, where
            if limit < bound:  # decided before the first record
                assert recorded == [], where
                skipped += 1
    assert skipped > 50


# A code on the middle block of weak_order([1, 9, 1]): S = closure(supp C) has
# 1 + 2^9 ideals and 3 + 1 = 4 subcodes.
MIDDLE_BLOCK_ROWS = ((0,) + (1,) * 5 + (0,) * 5, (0,) * 5 + (1,) * 5 + (0,))


def test_wide_closures_record_no_ideal(monkeypatch, code_hamming, code_weak):
    recorded = []

    class CountedArray(array):
        def append(self, x):
            recorded.append(x)
            super().append(x)

    monkeypatch.setattr(codes, "array", CountedArray)
    # nine independent support points generate 2^9 ideals, more than the
    # 7 + 7 + 1 subcodes, so the walk gives up before its first record
    assert analyze_code(code_hamming).hierarchy == HIERARCHY_HAMMING
    assert recorded == []
    # the middle block is maximal in S although the top block lies above it
    middle = LinearCode(weak_order([1, 9, 1]), span(GF(2), 11, MIDDLE_BLOCK_ROWS))
    assert analyze_code(middle).hierarchy == exhaustive_hierarchy(middle)
    assert recorded == []
    # the weak order's closure is one component of 27 elements, so it has at
    # least 28 ideals, again more than the 15 subcodes
    assert analyze_code(code_weak).hierarchy == HIERARCHY_WEAK
    assert recorded == []
    # the counter does count: a chain's closure is walked
    analyze_code(LinearCode(chain(8), span(GF(2), 8, CHAIN_ROWS)))
    assert recorded


# -- the subcode path at workload scale ---------------------------------------------


def _fold_subcode_levels(k, closures_of_rows):
    """Levels L_1..L_k folded from ``closures_of_rows(pivot, free)``, the
    closures of the coefficient rows with 1 at ``pivot``, any value at the
    columns of the tuple ``free`` and zero elsewhere (oracle)."""
    levels = []
    for r in range(1, k + 1):
        best, level = None, set()
        for pivots in combinations(range(k), r):
            unions = {0}
            for pivot in pivots:
                free = tuple(j for j in range(pivot + 1, k) if j not in pivots)
                unions = {u | s for u in unions for s in closures_of_rows(pivot, free)}
            for ideal in unions:
                size = ideal.bit_count()
                if best is None or size < best:
                    best, level = size, {ideal}
                elif size == best:
                    level.add(ideal)
        levels.append(frozenset(level))
    return tuple(levels)


def _combined_subcode_levels(c):
    """The subcode levels as they were built before one row operation per
    word: every coefficient row is combined from the whole basis and closed
    through ``ideal_mask``, with one closure cached per coefficient row
    (oracle)."""
    field, k, p = c.field, c.k, c.poset
    closures = {}
    row_closures = {}

    def closure(coeff):
        if coeff not in closures:
            word = _combine(field, coeff, c.subspace.basis, c.n)
            closures[coeff] = p.ideal_mask(_support_mask(word))
        return closures[coeff]

    def closures_of_rows(pivot, free):
        key = (pivot, free)
        if key not in row_closures:
            row = [0] * k
            row[pivot] = 1
            found = set()
            for values in product(field.elements(), repeat=len(free)):
                for j, v in zip(free, values):
                    row[j] = v
                found.add(closure(tuple(row)))
            row_closures[key] = found
        return row_closures[key]

    return _fold_subcode_levels(k, closures_of_rows)


def _per_free_set_row_closures(c):
    """``closures_of_rows`` as it was before each pivot's words were built
    once: the words of every (pivot, free tuple) pair are built anew, one row
    operation per word (oracle)."""
    field, k, down, basis = c.field, c.k, c.poset._down, c.subspace.basis
    scalars = range(1, field.q)
    row_closures = {}

    def closures_of_rows(pivot, free):
        key = (pivot, free)
        if key not in row_closures:
            words = [basis[pivot]]
            for j in free:
                words += [field.axpy(w, a, basis[j]) for w in words for a in scalars]
            row_closures[key] = {reduce(or_, compress(down, word), 0) for word in words}
        return row_closures[key]

    return closures_of_rows


def sparse_code(rng, field, p, k, density):
    """A code of dimension k whose generator entries are nonzero with the
    given probability (redrawn until the rank is k)."""
    while True:
        rows = [
            [rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(p.n)]
            for _ in range(k)
        ]
        s = span(field, p.n, rows)
        if s.dim == k:
            return LinearCode(p, s)


# q -> largest k; the oracle folds up to q^(k - r) closures per row of a form
WORKLOAD_K = {2: 6, 3: 5, 4: 4, 5: 4, 7: 3, 8: 3, 9: 3}


@pytest.mark.parametrize("q", WORKLOAD_K)
def test_subcode_levels_match_the_combined_rows_at_workload_scale(q):
    field = GF(q)
    rng = random.Random(f"subcode:{q}")
    for family in ("antichain", "bipartite", "weak_order"):
        for _ in range(6):
            n = rng.randint(14, 24)
            if family == "antichain":
                p = antichain(n)
            elif family == "bipartite":
                p = random_bipartite(rng, n)
            else:
                p = weak_order([n // 2, n - n // 2])
            k = rng.randint(2, WORKLOAD_K[q])
            code = sparse_code(rng, field, p, k, rng.choice((0.15, 0.3, 0.6)))
            where = f"{family} q={q} n={n} basis={code.subspace.basis}"
            assert _subcode_levels(_word_table(code)) == _combined_subcode_levels(code), where


# q -> largest k for the per-free-set oracle, which builds sum_p (q + 1)^(k-1-p)
# words against the q^(k-1-p) words of each pivot
PER_FREE_SET_K = {2: 6, 3: 5, 4: 4, 5: 4, 8: 3, 9: 3}


@pytest.mark.parametrize("q", PER_FREE_SET_K)
@pytest.mark.parametrize("family", (*POSET_FAMILIES, "bipartite"))
def test_each_pivots_words_give_the_per_free_set_levels(family, q):
    field = GF(q)
    rng = random.Random(f"pivot-words:{family}:{q}")
    for i in range(12):
        k = 1 + i % PER_FREE_SET_K[q]
        n = rng.randint(max(k, 4), 14)
        p = random_bipartite(rng, n) if family == "bipartite" else random_poset(rng, family, n)
        density = rng.choice((0.15, 0.3, None))
        if density is None:
            code = random_code(rng, field, p, k)
        else:
            code = sparse_code(rng, field, p, k, density)
        where = f"{family} q={q} n={n} basis={code.subspace.basis}"
        _assert_per_free_set_levels(code, where)


def _assert_per_free_set_levels(code, where):
    k = code.k
    oracle = _per_free_set_row_closures(code)
    assert _subcode_levels(_word_table(code)) == _fold_subcode_levels(k, oracle), where
    # The levels cannot see a row that also takes a word with a nonzero
    # coefficient outside its free set: such a form still spans an
    # r-dimensional subcode, one that another form spans too.  So the
    # closures of every row are compared as well.
    closures_of_rows = _row_closures(_word_table(code))
    for pivot in range(k):
        after = range(pivot + 1, k)
        for size in range(len(after) + 1):
            for free in combinations(after, size):
                mask = sum(1 << j for j in free)
                assert closures_of_rows(pivot, mask) == oracle(pivot, free), where


@pytest.mark.parametrize("q, k", [(2, 1), (2, 5), (2, 8), (3, 4), (9, 3)])
def test_each_pivot_is_folded_once_per_set_of_later_pivots(monkeypatch, q, k):
    # A row's free columns are the non-pivots after its pivot.  A fold that
    # frees every column after the pivot yields the same levels, since its
    # extra forms span subcodes that other forms span too, so the calls
    # themselves are checked: one per pivot and set of later pivots.  The
    # levels and row closures are checked as above, here up to k = 8.
    calls = []

    def counted_row_closures(c):
        closures_of_rows = _row_closures(c)

        def closures(pivot, free):
            calls.append((pivot, free))
            return closures_of_rows(pivot, free)

        return closures

    monkeypatch.setattr(codes, "_row_closures", counted_row_closures)
    rng = random.Random(f"fold-count:{q}:{k}")
    code = random_code(rng, GF(q), random_bipartite(rng, k + 8), k)
    _assert_per_free_set_levels(code, f"q={q} basis={code.subspace.basis}")
    assert len(calls) == 2**k - 1
    expected = []
    for pivot in range(k):
        after = range(pivot + 1, k)
        for size in range(len(after) + 1):
            for later in combinations(after, size):
                expected.append((pivot, sum(1 << j for j in after if j not in later)))
    assert sorted(calls) == sorted(expected)


# -- Wei duality ---------------------------------------------------------------------
#
# Moura and Firer ("Duality for poset codes", IEEE Trans. Inf. Theory 56(7),
# 2010): the values d_r(C; P) and n + 1 - d_s(C⊥; P̄), with P̄ the reversed
# poset, partition {1, .., n}.  The engine answers both sides, at sizes the
# exhaustive oracles cannot reach.


def dual_code(c):
    """C⊥ under the reversed poset, whose down-sets are the up-sets of P:
    the kernel of the RREF generator matrix, one vector per free column."""
    field, n, basis = c.field, c.n, c.subspace.basis
    pivots = [next(j for j, e in enumerate(row) if e) for row in basis]
    rows = []
    for f in range(n):
        if f not in pivots:
            y = [0] * n
            y[f] = 1
            for row, p in zip(basis, pivots):
                y[p] = field.neg(row[f])
            rows.append(y)
    return LinearCode(Poset(n, c.poset._up), span(field, n, rows))


def _wei_cases():
    """(code, whether C takes the ideal path): low-rate codes on wide posets,
    whose duals take the ideal path, then codes of any rate on posets with
    few ideals, where both sides do."""
    rng = random.Random("wei")
    for q in (2, 3):
        for family in ("antichain", "bipartite"):
            for k in (2, 3):
                n = rng.randint(14, 16)
                p = antichain(n) if family == "antichain" else random_bipartite(rng, n)
                yield random_code(rng, GF(q), p, k), False
        for family in ("chain", "near_chain", "weak_order"):
            n = rng.randint(30, 40)
            if family == "chain":
                p = chain(n)
            else:
                sizes = []
                while sum(sizes) < n:
                    sizes.append(rng.randint(1, 2 if family == "near_chain" else 3))
                p = weak_order(sizes)
            yield random_code(rng, GF(q), p, rng.randint(n // 4, 3 * n // 4)), True


def test_wei_duality_across_both_paths(monkeypatch):
    walk = codes._ideal_walk
    walked = []

    def recorded(*args):
        record = walk(*args)
        walked.append(record is not None)
        return record

    monkeypatch.setattr(codes, "_ideal_walk", recorded)
    for code, ideal_path in _wei_cases():
        dual = dual_code(code)
        n = code.n
        where = f"q={code.field.q} n={n} k={code.k} covers={code.poset.covers()}"
        assert dual.k == n - code.k, where
        walked.clear()
        values = [*weight_hierarchy(code), *(n + 1 - d for d in weight_hierarchy(dual))]
        assert walked == [ideal_path, True], where
        assert sorted(values) == list(range(1, n + 1)), where


# -- self-duality of the chain condition ---------------------------------------------
#
# C has a maximal flag under P iff C⊥ has one under P̄ (the proof is in
# ``counting._census_path``): census counts every code of dimension n - 2 and
# n - 1 by it, without enumerating one.


def _has_flag_by_each_builder(code):
    """Whether the levels of each level builder have a chain."""
    top = code.poset.ideal_mask(_code_support_mask(code.subspace))
    walk = _ideal_walk(code.poset, top, 1 << code.n)
    return [
        bool(CodeAnalysis(code, levels).flag_count)
        for levels in (
            _least_ideals(code.k, _ideal_records(code, top, walk)),
            _subcode_levels(_word_table(code)),
        )
    ]


def _self_duality_cases(q):
    """Seeded codes of every rate over every family, then codes of dimension
    3 on three 2-element chains, of which about 1 in 60 has no flag at
    q = 2, then the FLAGLESS code of this field."""
    rng = random.Random(f"self-dual:{q}")
    field = GF(q)
    for family in POSET_FAMILIES:
        for _ in range(12):
            n = rng.randint(1, 6)
            yield random_code(rng, field, random_poset(rng, family, n), rng.randint(0, n))
    for _ in range(300 if q == 2 else 40):
        yield random_code(rng, field, disjoint_chains(2, 3), 3)
    if q in FLAGLESS:
        n = len(FLAGLESS[q][0])
        yield LinearCode(antichain(n), span(field, n, FLAGLESS[q]))


@pytest.mark.parametrize("q", (2, 3))
def test_chain_condition_is_self_dual_across_both_paths(q):
    flagless = 0
    for code in _self_duality_cases(q):
        dual = dual_code(code)
        verdicts = _has_flag_by_each_builder(code) + _has_flag_by_each_builder(dual)
        where = f"q={q} n={code.n} basis={code.subspace.basis} covers={code.poset.covers()}"
        assert len(set(verdicts)) == 1, where
        flagless += not verdicts[0]
    # the FLAGLESS code and some drawn codes on the chains have no flag
    assert flagless == {2: 7, 3: 2}[q]
