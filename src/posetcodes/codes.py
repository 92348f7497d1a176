"""Poset weights, weight hierarchies, maximal flags, and the chain condition.

The weight of a subspace is computed from the supports of its basis rows:
the support union over all codewords equals the union over any basis
(every codeword's support sits inside the basis support union, and basis
rows are codewords), so the down-closure of the basis support union gives
the subspace weight without enumerating q**r codewords.  That identity is
exercised against a full-enumeration oracle in the test suite.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import cached_property, partial, reduce
from itertools import compress
from operator import or_, xor

from .errors import (
    ChainConditionUnsatisfied,
    InputError,
    LengthMismatch,
    check_budget,
    count_text,
)
from .gf import GF, FiniteField
from .linalg import (
    DEFAULT_BUDGET,
    GeneratorFile,
    Matrix,
    Subspace,
    _form_subspace,
    _rref_rows,
    _span,
    gaussian_row,
    read_generator_file,
)
from .poset import Poset, _bits


# -- supports and weights -----------------------------------------------------


def support_of_vector(x) -> frozenset[int]:
    """1-based index set of nonzero coordinates."""
    return frozenset(i + 1 for i, e in enumerate(x) if e)


def _support_mask(x) -> int:
    mask = 0
    for i, e in enumerate(x):
        if e:
            mask |= 1 << i
    return mask


def poset_weight(p: Poset, x) -> int:
    """Cardinality of the smallest ideal containing the support of x."""
    if len(x) != p.n:
        raise LengthMismatch(f"vector of length {len(x)} under a poset on {p.n} elements")
    return p.ideal_mask(_support_mask(x)).bit_count()


def poset_distance(p: Poset, field: FiniteField, x, y) -> int:
    """Metric induced by the poset weight: weight of x - y."""
    if len(x) != len(y):
        raise LengthMismatch(f"vectors of lengths {len(x)} and {len(y)}")
    diff = tuple(field.sub(a, b) for a, b in zip(x, y))
    return poset_weight(p, diff)


class LinearCode(namedtuple("LinearCode", "poset subspace")):
    """A subspace of GF(q)^n analyzed under the metric of a bound poset."""

    __slots__ = ()

    def __new__(cls, poset: Poset, subspace: Subspace):
        self = tuple.__new__(cls, (poset, subspace))
        self.__post_init__()
        return self

    def __post_init__(self):
        if self.poset.n != self.subspace.n:
            raise LengthMismatch(
                f"poset on {self.poset.n} elements, code of length {self.subspace.n}"
            )

    @property
    def n(self) -> int:
        return self.subspace.n

    @property
    def k(self) -> int:
        return self.subspace.dim

    @property
    def field(self) -> FiniteField:
        return self.subspace.field


def _code_support_mask(s: Subspace) -> int:
    """The support of ``s`` as a bitmask: the union of its rows' supports."""
    return reduce(or_, map(_support_mask, s.basis), 0)


def support_of_code(c: LinearCode) -> frozenset[int]:
    """Union of codeword supports; equals the union over the basis rows."""
    mask = _code_support_mask(c.subspace)
    return frozenset(i + 1 for i in range(c.n) if (mask >> i) & 1)


def generalized_weight(p: Poset, d: Subspace) -> int:
    """Size of the union of ideals generated by the supports of all vectors of d."""
    if d.n != p.n:
        raise LengthMismatch(f"subspace of length {d.n} under a poset on {p.n} elements")
    return p.ideal_mask(_code_support_mask(d)).bit_count()


# -- weight hierarchy, maximal flags and the chain condition ------------------------
#
# The public answers come from ``analyze_code`` below, so ``budget`` caps the
# ideals walked or the subcodes enumerated, whichever path the analysis takes.


def hierarchy_within_bounds(n: int, k: int, values) -> bool:
    """Monotonicity and the generalized Singleton bound: strictly increasing
    with r <= d_r <= n - k + r for every r."""
    values = tuple(values)
    if len(values) != k:
        return False
    if any(values[i] >= values[i + 1] for i in range(k - 1)):
        return False
    return all(r <= d <= n - k + r for r, d in enumerate(values, 1))


class Flag(namedtuple("Flag", "subspaces weights")):
    """Nested subspaces D_1 < .. < D_k achieving the weight hierarchy, and
    their weights: two tuples of length k."""

    __slots__ = ()


def weight_hierarchy(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Generalized weights (d_1, .., d_k): d_r is the least weight of an
    r-dimensional subcode."""
    return analyze_code(c, budget).hierarchy


def find_maximal_flag(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> Flag | None:
    """A maximal flag achieving the hierarchy (the first in subspace
    enumeration order), or None when the chain condition fails."""
    return analyze_code(c, budget).witness()


def is_flag_unique(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> bool:
    """True iff exactly one maximal flag achieves the hierarchy.

    Raises ``ChainConditionUnsatisfied`` when no flag exists at all.
    """
    count = analyze_code(c, budget).flag_count
    if not count:
        raise ChainConditionUnsatisfied("no maximal flag achieves the hierarchy")
    return count == 1


# -- ideal-lattice engine -----------------------------------------------------------
#
# A subcode D lies in C ∩ F^I for the ideal I = <supp D>, and C ∩ F^I is the
# largest subcode supported in I, so with m(I) = dim(C ∩ F^I)
#     d_r = min{|I| : I an ideal, m(I) >= r}
# (the poset form of Forney's dimension/length profile).  Every ideal of the
# level L_r = {I : |I| = d_r, m(I) >= r} has m(I) = r exactly: m(I) > r would
# give d_{r+1} <= d_r, and the hierarchy is strictly increasing.  So C ∩ F^I
# is the only r-dimensional achiever with closure I, and achievers nest
# exactly when their closures do.  The maximal flags are therefore the ideal
# chains I_1 ⊆ .. ⊆ I_k with I_r in L_r, one flag per chain (the general
# factor [m(I_r) - r + 1]_q of the flag count is 1 on every level).


def _ideal_walk(p: Poset, top: int, limit: int):
    """Every ideal contained in the ideal ``top`` exactly once, depth first,
    or None once more than ``limit`` of them exist.

    Returns two arrays: each ideal's depth and the element removed from its
    parent, the ideal last recorded at depth - 1.  Starting from ``top``,
    maximal elements are removed in decreasing order of a linear extension,
    so each ideal has one removal sequence.  When the maximal or the minimal
    elements of ``top`` alone generate more than ``limit`` ideals, or
    ``_fewest_ideals`` exceeds ``limit``, it returns None before recording any.
    """
    down, up = p._down, p._up
    # an element above order[j] has a larger down-set, so it comes later
    order = sorted(_bits(top), key=lambda e: (down[e].bit_count(), e))
    bit = [1 << e for e in order]
    above = [(up[e] & top) ^ b for e, b in zip(order, bit)]
    # every subset of an antichain of S generates its own ideal, and the
    # maximal elements form one antichain, the minimal elements another
    width = max(above.count(0), sum(down[e] == b for e, b in zip(order, bit)))
    if 1 << width > limit or _fewest_ideals(p, top, limit) > limit:
        return None
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


def _fewest_ideals(p: Poset, top: int, limit: int) -> int:
    """A lower bound on the number of ideals inside the ideal ``top``, or a
    number past ``limit``: the product of |C| + 1 over the connected
    components C of ``top``.  The ideals of a disjoint union multiply, and C
    has at least the |C| + 1 prefixes of a linear extension."""
    down, up = p._down, p._up
    bound, rest = 1, top
    while rest and bound <= limit:
        part, new = 0, rest & -rest
        while new:  # grow the component of rest's lowest element
            part |= new
            reach = 0
            for e in _bits(new):
                reach |= down[e] | up[e]
            new = reach & top & ~part
        bound *= part.bit_count() + 1
        rest ^= part
    return bound


def _insert(field: FiniteField, basis, v):
    """Echelon basis ((pivot, row), ..) of F_q^k extended by the vector v.

    The one elimination besides ``linalg._rref_rows``: the ideal walk
    extends a stacked basis by one column per lattice edge, and re-running
    ``_rref_rows`` on the whole stack instead is about three times slower.
    Best of 3-5 runs on a 2-vCPU VM, Python 3.11: the ideal path's levels of
    the antichain(14), k = 7 code of ``test_ideal_path_keeps_no_list_per_ideal``
    went from 29 to 89 ms, and ``analyze_code`` on the k = 14 dual of a
    seeded k = 2 code on antichain(16) from 0.29 to 0.82 s.
    """
    if len(basis) == len(v):  # the basis spans F_q^k already
        return basis
    for p, row in basis:
        if v[p]:
            v = field.axpy(v, v[p], row)
    for p, x in enumerate(v):
        if x:
            return basis + ((p, field.scale(field.inv(x), v)),)
    return basis


def _walk_ideals(top: int, walk):
    """The mask of each ideal of the walk record of the ideals inside
    ``top``, in record order: one mask per depth, each its parent's with
    the removed element cleared."""
    masks = [top] * (top.bit_count() + 1)
    for depth, e in zip(*walk):
        if depth:
            masks[depth] = masks[depth - 1] ^ (1 << e)
        yield masks[depth]


def _ideal_records(c: LinearCode, top: int, walk):
    """Each ideal of the walk record of the ideals inside ``top``, with its
    size and m(I) = k - rank of the generator columns outside I: one column
    is inserted per lattice edge, into a stack as deep as ``top`` is large."""
    field, k = c.field, c.k
    columns = [tuple(row[j] for row in c.subspace.basis) for j in range(c.n)]
    bases = [()] * (top.bit_count() + 1)
    for depth, e, ideal in zip(*walk, _walk_ideals(top, walk)):
        if depth:
            bases[depth] = _insert(field, bases[depth - 1], columns[e])
        yield ideal, ideal.bit_count(), k - len(bases[depth])


def _least_ideals(k: int, records) -> tuple[frozenset[int], ...]:
    """Levels L_1..L_k from (ideal, size, r) records: L_r is the set of least
    ideals tagged r.  It selects the levels of both paths and of ``census``.

    The subcode path tags each closure of an r-dimensional subcode with r.
    The ideal path tags every ideal I with m(I) (see the note above).  Its
    ideals may be those inside any ideal containing S = closure(supp C): an
    ideal I outside S has m(I) = m(I ∩ S) with |I ∩ S| < |I|, so it is never
    a least ideal of its m and joins no level.
    """
    best = [None] * (k + 1)
    levels = [[] for _ in range(k + 1)]
    for ideal, size, r in records:
        least = best[r]
        if least is None or size < least:
            best[r], levels[r] = size, [ideal]
        elif size == least:
            levels[r].append(ideal)
    return tuple(frozenset(level) for level in levels[1:])


def _subcode_levels(table) -> tuple[frozenset[int], ...]:
    """Levels L_1..L_k: L_r is the set of least ideal closures of the
    r-dimensional subcodes.  ``table`` is C's ``_word_table``, k entries.

    A subcode is the row space of an r-by-k coefficient RREF form, and its
    closure is the union of the closures of the form's rows.  For a fixed
    pivot set every row fills its free entries independently of the other
    rows, so the closures of all forms with that pivot set are the unions of
    one closure per row.  A row's free entries are the non-pivots after its
    pivot, fixed by the pivots after it, so the unions of a pivot suffix
    serve every pivot set that ends in it.  The pivot sets are grown depth
    first from the last pivot down, and each pivot is folded once per set
    of later pivots: 2^k - 1 folds in all.
    """
    k = len(table)
    closures_of_rows = _row_closures(table)

    def fold(unions, taken, last):
        for pivot in range(last):  # each pivot before the suffix ``taken``
            # the free columns of the row: after its pivot, and no pivot
            closures = closures_of_rows(pivot, ((1 << k) - (2 << pivot)) & ~taken)
            grown = {u | s for u in unions for s in closures}
            yield grown, taken.bit_count() + 1
            yield from fold(grown, taken | 1 << pivot, pivot)

    closures = [set() for _ in range(k)]  # of the subcodes of each dimension
    for grown, r in fold({0}, 0, k):
        closures[r - 1] |= grown
    records = ((s, s.bit_count(), r) for r, found in enumerate(closures, 1) for s in found)
    return _least_ideals(k, records)


def _packing(field: FiniteField, n: int):
    """``(width, pack, add)`` for rows of length n: ``width`` bytes per
    coordinate, ``pack(row)`` the packed row, ``add(u, v)`` that of u + v.

    A packed row is one int whose little-endian bytes hold each coordinate
    as its lanes.  In characteristic 2 one lane holds the representative's
    bits, and rows add by XOR.  For odd p every base-p digit has a lane of
    its own, wide enough that p <= 2^g for its top bit g: a lane of u + v
    holds a digit sum s <= 2p - 2, and s + 2^g - p, still below 2^(g + 1),
    has bit g set exactly when s >= p, so those lanes get p taken off.  No
    lane ever carries into the next.
    """
    p, q = field.p, field.q
    base, count = (q, 1) if p == 2 else (p, field.m)  # lanes per coordinate
    lane = -(-(q - 1 if p == 2 else 2 * p - 1).bit_length() // 8)  # bytes per lane
    digits = lanes = [d.to_bytes(lane, "little") for d in range(base)]
    for _ in range(count - 1):  # each element's lanes, the constant digit first
        lanes = [low + high for high in digits for low in lanes]

    def pack(row):
        return int.from_bytes(b"".join(map(lanes.__getitem__, row)), "little")

    if p == 2:
        return lane, pack, xor
    guard = 8 * lane - 1
    ones = int.from_bytes(digits[1] * n * count, "little")  # 1 in every lane
    bias, guards = ((1 << guard) - p) * ones, ones << guard

    def add(u, v):
        s = u + v
        return s - (((s + bias) & guards) >> guard) * p

    return lane * count, pack, add


def _word_table(c: LinearCode):
    """Every normalized coefficient vector x of C, one list per pivot: the
    tags and the ideal closures of the words x.G of that pivot.

    The x of pivot p has 1 at p, zero before it and any values after it, and
    its tag is the mask of its nonzero entries after p.  A pivot's entries
    are in lexicographic order of x: entry i has x_j = digit k - 1 - j of i
    in base q (see ``_table_row``).  The words are built on packed rows by
    additions only: appending, for each a, a * b_j (packed once per (j, a))
    to every word built so far adds column j as the next digit up.  A table
    of k < 2 adds no word, so it packs nothing.
    """
    field, k, n, basis = c.field, c.k, c.n, c.subspace.basis
    if k < 2:
        return [([0], [c.poset.ideal_mask(_support_mask(row))]) for row in basis]
    width, pack, add = _packing(field, n)
    # a coordinate is nonzero iff one of its bytes is
    down = [d for d in c.poset._down for _ in range(width)]
    size = n * width
    scalars = range(1, field.q)
    multiples = [[pack(field.scale(a, row)) for a in scalars] for row in basis[1:]]
    table = []
    for pivot in range(k):
        words, tags = [pack(basis[pivot])], [0]
        for j in range(k - 1, pivot, -1):
            words += [add(w, m) for m in multiples[j - 1] for w in words]
            tags += [t | 1 << j for _ in scalars for t in tags]
        closures = [reduce(or_, compress(down, w.to_bytes(size, "little")), 0) for w in words]
        table.append((tags, closures))
    return table


def _table_row(k: int, q: int, pivot: int, index: int) -> tuple[int, ...]:
    """The x of entry ``index`` of ``pivot`` in ``_word_table``."""
    x = [0] * k
    x[pivot] = 1
    for j in range(k - 1, pivot, -1):
        index, x[j] = divmod(index, q)
    return tuple(x)


def _row_closures(table):
    """A call ``(pivot, free)`` -> the closures of the words whose
    coefficients are 1 at ``pivot``, any value at the columns of the mask
    ``free`` (all after ``pivot``) and zero elsewhere: the closures of the
    ``_word_table`` entries of ``pivot`` whose tag lies inside ``free``."""
    tagged = [set(zip(tags, closures)) for tags, closures in table]

    def closures_of_rows(pivot, free):
        return {s for tag, s in tagged[pivot] if not tag & ~free}

    return closures_of_rows


def _table_within(table, k: int, q: int, ideal: int):
    """``_coefficients_within`` read from the ``_word_table`` of C, without
    elimination.  The nonzero vectors of C ∩ F^I are the multiples of the
    words whose closure lies in I.  Of a pivot p of C ∩ F^I, the RREF row
    is the entry whose tag avoids the other pivots, and it is the first
    entry of p inside I: any other adds a multiple of a later row, so it
    agrees with the RREF row up to that row's pivot, where it is nonzero and
    the RREF row is zero."""
    outside = ~ideal
    pivots, rows = [], []
    for p, (_, closures) in enumerate(table):
        i = next((i for i, s in enumerate(closures) if not s & outside), None)
        if i is not None:
            pivots.append(p)
            rows.append(_table_row(k, q, p, i))
    return tuple(pivots), tuple(rows)


def _coefficients_within(c: LinearCode, ideal: int):
    """Pivots and RREF rows of {x in F_q^k : x.G vanishes outside the ideal}:
    the coefficients of C ∩ F^I in the basis of C.  Eliminating the outside
    columns right to left leaves each pivot row zero beyond its pivot, so the
    kernel vectors, one per free column in order, are already in RREF."""
    field, k = c.field, c.k
    outside = [
        tuple(row[j] for row in c.subspace.basis)
        for j in range(c.n)
        if not (ideal >> j) & 1
    ]
    rows, pivots = _rref_rows(field, outside, k, range(k - 1, -1, -1))
    free = tuple(f for f in range(k) if f not in pivots)
    kernel = []
    for f in free:
        x = [0] * k
        x[f] = 1
        for row, p in zip(rows, pivots):
            x[p] = field.neg(row[f])
        kernel.append(tuple(x))
    return free, tuple(kernel)


def _count_chains(levels):
    """``counts[r - 1]`` maps each ideal of L_r that starts a chain through
    L_r, .., L_k to the number of such chains."""
    counted = []
    after = {-1: 1}  # the all-ones mask: every ideal of L_k ends one chain
    for level in reversed(levels):
        here = {
            ideal: sum(n for upper, n in after.items() if not ideal & ~upper)
            for ideal in level
        }
        after = {ideal: n for ideal, n in here.items() if n}
        counted.append(after)
    return tuple(reversed(counted))


class CodeAnalysis:
    """Hierarchy, flag count and witness flag of one code, from its levels
    L_1..L_k (empty for the zero code) and ``within``, its reader of the
    pivots and RREF rows of C ∩ F^I (``_coefficients_within`` by default).

    The chain counts compare the ideals of consecutive levels pairwise, so
    they are built on first use: the hierarchy alone never pays for them.
    """

    def __init__(self, c: LinearCode, levels, within=None):
        self.code = c
        self.hierarchy = tuple(next(iter(level)).bit_count() for level in levels)
        self._levels = levels
        self._within = partial(_coefficients_within, c) if within is None else within

    @cached_property
    def chain_counts(self):
        """The counts of ``_count_chains``, built on first use."""
        return _count_chains(self._levels)

    @property
    def flag_count(self) -> int:
        """Number of maximal flags achieving the hierarchy (1 for the zero code)."""
        return sum(self.chain_counts[0].values()) if self.chain_counts else 1

    def witness(self) -> Flag | None:
        """The first maximal flag found by the exhaustive depth-first search,
        the first flag of ``verify.exhaustive_flags(c, budget)``.

        That search takes, level by level, the first achiever in subspace
        enumeration order that contains the previous one and still extends
        to a full flag; an achiever extends iff its closure starts a chain.
        Enumeration order is the order of the coefficient RREF forms:
        pivot columns first, then the entries row by row, so the least
        reading of ``within`` wins.
        """
        if not self.flag_count:
            return None
        subspaces = []
        previous = 0
        for level in self.chain_counts:
            forms = (
                (self._within(ideal), ideal)
                for ideal in level
                if not previous & ~ideal
            )
            (_, rows), previous = min(forms)
            subspaces.append(_form_subspace(self.code.subspace, rows))
        return Flag(tuple(subspaces), self.hierarchy)


def analyze_code(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> CodeAnalysis:
    """Weight hierarchy, flag count and witness flag from the ideal lattice.

    The levels come from the ideals inside the closure S of the code support
    when there are at most sum_r [k r]_q of them (recorded before any rank
    work), and otherwise from the closures of C's word table.  The analysis
    reads C ∩ F^I by elimination on the first path and off the table on the
    second.  ``budget`` caps the ideals or the subcodes of the path taken.
    """
    top = c.poset.ideal_mask(_code_support_mask(c.subspace))
    subcodes = sum(gaussian_row(c.k, c.field.q)[1:])
    limit = subcodes if budget is None else min(subcodes, budget)
    walk = _ideal_walk(c.poset, top, limit)
    if walk is not None:
        return CodeAnalysis(c, _least_ideals(c.k, _ideal_records(c, top, walk)))
    message = "more than {limit} ideals and {count} subcodes exceed the budget {budget}"
    check_budget(subcodes, budget, message, limit=limit)
    table = _word_table(c)
    return CodeAnalysis(c, _subcode_levels(table), partial(_table_within, table, c.k, c.field.q))


# -- matrix codes -----------------------------------------------------------------


def rt_weight(a: Matrix) -> int:
    """Column-wise weight for matrix spaces over a union of chains: the sum
    over columns of the highest nonzero row index (zero columns contribute 0)."""
    total = 0
    for j in range(a.ncols):
        top = 0
        for i in range(a.nrows):
            if a.rows[i][j]:
                top = i + 1
        total += top
    return total


def flatten_matrix(a: Matrix, order: str = "row") -> tuple[int, ...]:
    """Matrix-to-vector reading: "row" concatenates rows, "col" concatenates
    columns (pairing column j with chain j of a disjoint-chains poset)."""
    if order == "row":
        return tuple(e for row in a.rows for e in row)
    if order == "col":
        return tuple(a.rows[i][j] for j in range(a.ncols) for i in range(a.nrows))
    raise InputError(f"unknown flattening order {order!r}")


# -- code description files ----------------------------------------------------------


def vectors_from_generator_file(
    gfile: GeneratorFile, flatten: str = "row", chain_shape: tuple[int, int] | None = None
) -> list[tuple[int, ...]]:
    """Assemble the k generators of a parsed file into length-n vectors.

    "row": the body is a stream of k*n tokens, consumed in reading order.
    "col": each generator is a block of chain_shape[0] lines with
    chain_shape[1] tokens, read column-major so column j lands on chain j.
    """
    if flatten == "row":
        tokens = [e for line in gfile.lines for e in line]
        if len(tokens) != gfile.k * gfile.n:
            raise InputError(
                f"expected {gfile.k * gfile.n} entries for {gfile.k} generators "
                f"of length {gfile.n}, found {len(tokens)}"
            )
        return [
            tuple(tokens[g * gfile.n : (g + 1) * gfile.n]) for g in range(gfile.k)
        ]
    if flatten != "col":
        raise InputError(f"unknown flattening order {flatten!r}")
    if chain_shape is None:
        raise InputError("column-major flattening requires the chain shape (length, count)")
    rows, cols = chain_shape
    if rows * cols != gfile.n:
        raise InputError(f"chain shape {rows}x{cols} does not match length {gfile.n}")
    if len(gfile.lines) != gfile.k * rows:
        raise InputError(
            f"column-major layout needs {gfile.k * rows} lines "
            f"({gfile.k} generators of {rows} rows), found {len(gfile.lines)}"
        )
    out = []
    for g in range(gfile.k):
        block = gfile.lines[g * rows : (g + 1) * rows]
        if any(len(line) != cols for line in block):
            raise InputError(f"generator {g + 1}: every line must have {cols} entries")
        out.append(tuple(block[i][j] for j in range(cols) for i in range(rows)))
    return out


def load_code(
    path,
    poset: Poset,
    flatten: str = "row",
    chain_shape: tuple[int, int] | None = None,
) -> LinearCode:
    """Read a generator-matrix file and bind it to the poset."""
    return _load_code(path, poset.n, lambda: poset, flatten, chain_shape)


def _load_code(path, size: int, build_poset, flatten, chain_shape) -> LinearCode:
    """``load_code`` for the poset that ``build_poset`` makes, once the code
    length has matched the poset's declared ``size``: a poset holds about
    2 n^2 bits of order masks, so a mismatch is reported before they exist."""
    gfile = read_generator_file(path)
    if gfile.n != size:
        raise LengthMismatch(
            f"{path}: code length {gfile.n} does not match poset size {count_text(size)}"
        )
    poset = build_poset()
    field = GF(gfile.q)
    vectors = vectors_from_generator_file(gfile, flatten, chain_shape)
    return LinearCode(poset, _span(field, gfile.n, vectors))
