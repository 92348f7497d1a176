"""Poset weights, weight hierarchies, maximal flags, and the chain condition.

The weight of a subspace is computed from the supports of its basis rows:
the support union over all codewords equals the union over any basis
(every codeword's support sits inside the basis support union, and basis
rows are codewords), so the down-closure of the basis support union gives
the subspace weight without enumerating q**r codewords.  That identity is
exercised against a full-enumeration oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

from .errors import BudgetExceeded, ChainConditionUnsatisfied, InputError, LengthMismatch
from .gf import GF, FiniteField
from .linalg import (
    DEFAULT_BUDGET,
    GeneratorFile,
    Matrix,
    Subspace,
    _combine,
    _rref_rows,
    _span,
    gaussian_row,
    read_generator_file,
    span,
)
from .poset import Poset


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


@dataclass(frozen=True)
class LinearCode:
    """A subspace of GF(q)^n analyzed under the metric of a bound poset."""

    poset: Poset
    subspace: Subspace

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


def _code_support_mask(c: LinearCode) -> int:
    mask = 0
    for row in c.subspace.basis:
        mask |= _support_mask(row)
    return mask


def support_of_code(c: LinearCode) -> frozenset[int]:
    """Union of codeword supports; equals the union over the basis rows."""
    mask = _code_support_mask(c)
    return frozenset(i + 1 for i in range(c.n) if (mask >> i) & 1)


def generalized_weight(p: Poset, d: Subspace) -> int:
    """Size of the union of ideals generated by the supports of all vectors of d."""
    if d.n != p.n:
        raise LengthMismatch(f"subspace of length {d.n} under a poset on {p.n} elements")
    mask = 0
    for row in d.basis:
        mask |= _support_mask(row)
    return p.ideal_mask(mask).bit_count()


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


@dataclass(frozen=True)
class Flag:
    """Nested subspaces D_1 < .. < D_k achieving the weight hierarchy."""

    subspaces: tuple[Subspace, ...]
    weights: tuple[int, ...]


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


def _ideals_within(p: Poset, top: int):
    """Every ideal contained in the ideal ``top`` exactly once, depth first.

    Yields (depth, ideal, removed element); a node's parent is the node last
    yielded at depth - 1.  Starting from ``top``, maximal elements are
    removed in decreasing order of a linear extension, so each ideal has one
    removal sequence.
    """
    order = sorted(
        (e for e in range(p.n) if (top >> e) & 1),
        key=lambda e: (p.ideal_mask(1 << e).bit_count(), e),
    )
    bit = [1 << e for e in order]
    down = [p.ideal_mask(b) for b in bit]
    above = [
        sum(bit[i] for i in range(j + 1, len(order)) if (down[i] >> order[j]) & 1)
        for j in range(len(order))
    ]
    stack = [(0, top, len(order), -1)]
    while stack:
        depth, ideal, t, e = stack.pop()
        yield depth, ideal, e
        for j in range(t):
            if not above[j] & ideal:
                stack.append((depth + 1, ideal ^ bit[j], j, order[j]))


def _insert(field: FiniteField, basis, v):
    """Echelon basis ((pivot, row), ..) of F_q^k extended by the vector v."""
    if len(basis) == len(v):  # the basis spans F_q^k already
        return basis
    for p, row in basis:
        if v[p]:
            v = field.axpy(v, v[p], row)
    for p, x in enumerate(v):
        if x:
            return basis + ((p, field.scale(field.inv(x), v)),)
    return basis


def _ideal_levels(c: LinearCode) -> tuple[frozenset[int], ...]:
    """Levels L_1..L_k (ideals as bitmasks) from a walk over the ideals inside
    the closure of the code support; m(I) = k - rank of the generator columns
    outside I, with one column inserted per lattice edge."""
    field, k = c.field, c.k
    columns = [tuple(row[j] for row in c.subspace.basis) for j in range(c.n)]
    top = c.poset.ideal_mask(_code_support_mask(c))
    bases = [()] * (top.bit_count() + 1)
    best = [None] * (k + 1)
    levels = [[] for _ in range(k + 1)]
    for depth, ideal, e in _ideals_within(c.poset, top):
        if depth:
            bases[depth] = _insert(field, bases[depth - 1], columns[e])
        m = k - len(bases[depth])
        size = ideal.bit_count()
        # L_r is the set of least ideals with m(I) = r (see the note above)
        if best[m] is None or size < best[m]:
            best[m], levels[m] = size, [ideal]
        elif size == best[m]:
            levels[m].append(ideal)
    return tuple(frozenset(level) for level in levels[1:])


def _subcode_levels(c: LinearCode) -> tuple[frozenset[int], ...]:
    """Levels L_1..L_k from the ideal closures of the r-dimensional subcodes,
    keeping those of minimum size.

    A subcode is the row space of an r-by-k coefficient RREF form, and its
    closure is the union of the closures of the form's rows.  For a fixed
    pivot set every row fills its free entries independently of the other
    rows, so the closures of all forms with that pivot set are the unions of
    one closure per row: a fold over the rows, with duplicates dropped.
    """
    field, k, p = c.field, c.k, c.poset
    closures = {}
    row_closures = {}

    def closure(coeff):
        if coeff not in closures:
            word = _combine(field, coeff, c.subspace.basis, c.n)
            closures[coeff] = p.ideal_mask(_support_mask(word))
        return closures[coeff]

    def closures_of_rows(pivot, free):
        """Closures of the rows with a 1 at ``pivot``, any entries at ``free``
        and zeros elsewhere."""
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


def _coefficients_within(c: LinearCode, ideal: int):
    """Pivots and RREF rows of {x in F_q^k : x.G vanishes outside the ideal}:
    the coefficients of C ∩ F^I in the basis of C."""
    field, k = c.field, c.k
    outside = [
        tuple(row[j] for row in c.subspace.basis)
        for j in range(c.n)
        if not (ideal >> j) & 1
    ]
    rows, pivots = _rref_rows(field, outside, k)
    kernel = []
    for f in range(k):
        if f in pivots:
            continue
        x = [0] * k
        x[f] = 1
        for row, p in zip(rows, pivots):
            x[p] = field.neg(row[f])
        kernel.append(x)
    rows, pivots = _rref_rows(field, kernel, k)
    return tuple(pivots), tuple(rows)


class CodeAnalysis:
    """Hierarchy, flag count and witness flag of one code, from its levels
    L_1..L_k (empty for the zero code).

    ``chain_counts[r - 1]`` maps each ideal of L_r that starts a chain
    through L_r, .., L_k to the number of such chains.
    """

    __slots__ = ("code", "hierarchy", "chain_counts")

    def __init__(self, c: LinearCode, levels):
        self.code = c
        self.hierarchy = tuple(next(iter(level)).bit_count() for level in levels)
        counted = []
        after = {-1: 1}  # the all-ones mask: every ideal of L_k ends one chain
        for level in reversed(levels):
            here = {
                ideal: sum(n for upper, n in after.items() if not ideal & ~upper)
                for ideal in level
            }
            after = {ideal: n for ideal, n in here.items() if n}
            counted.append(after)
        self.chain_counts = tuple(reversed(counted))

    @property
    def flag_count(self) -> int:
        """Number of maximal flags achieving the hierarchy (1 for the zero code)."""
        return sum(self.chain_counts[0].values()) if self.chain_counts else 1

    def witness(self) -> Flag | None:
        """The first maximal flag found by the exhaustive depth-first search
        (``verify.exhaustive_flags``).

        That search takes, level by level, the first achiever in subspace
        enumeration order that contains the previous one and still extends
        to a full flag; an achiever extends iff its closure starts a chain.
        Enumeration order is the order of the coefficient RREF forms:
        pivot columns first, then the entries row by row.
        """
        if not self.flag_count:
            return None
        c = self.code
        subspaces = []
        previous = 0
        for level in self.chain_counts:
            forms = (
                (_coefficients_within(c, ideal), ideal)
                for ideal in level
                if not previous & ~ideal
            )
            (_, rows), previous = min(forms)
            subspaces.append(
                _span(c.field, c.n, [_combine(c.field, row, c.subspace.basis, c.n) for row in rows])
            )
        return Flag(tuple(subspaces), self.hierarchy)


def analyze_code(c: LinearCode, budget: int | None = DEFAULT_BUDGET) -> CodeAnalysis:
    """Weight hierarchy, flag count and witness flag from the ideal lattice.

    The levels come from the ideals inside the closure S of the code support
    when there are at most sum_r [k r]_q of them (counted before any rank
    work), and otherwise from one pass over the subcodes per dimension.
    ``budget`` caps the ideals or the subcodes of the path taken.
    """
    if c.k == 0:
        return CodeAnalysis(c, ())
    top = c.poset.ideal_mask(_code_support_mask(c))
    subcodes = sum(gaussian_row(c.k, c.field.q)[1:])
    limit = subcodes if budget is None else min(subcodes, budget)
    ideals = sum(1 for _ in islice(_ideals_within(c.poset, top), limit + 1))
    if ideals <= limit:
        levels = _ideal_levels(c)
    elif limit < subcodes:
        raise BudgetExceeded(
            f"more than {limit} ideals and {subcodes} subcodes exceed the budget {budget}",
            count=subcodes,
            budget=budget,
        )
    else:
        levels = _subcode_levels(c)
    return CodeAnalysis(c, levels)


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
    gfile = read_generator_file(path)
    if gfile.n != poset.n:
        raise LengthMismatch(
            f"{path}: code length {gfile.n} does not match poset size {poset.n}"
        )
    field = GF(gfile.q)
    vectors = vectors_from_generator_file(gfile, flatten, chain_shape)
    return LinearCode(poset, span(field, gfile.n, vectors))
