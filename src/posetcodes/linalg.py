"""Linear algebra over GF(q): canonical subspaces, enumeration, q-binomials.

Vectors are plain tuples of canonical field representatives; the field is
passed explicitly wherever arithmetic is needed.  A subspace is identified
with its reduced-row-echelon basis, so equality and hashing of subspaces
are exact set comparisons.

Exhaustive enumerations are guarded by a budget (default 2**24 items) that
turns runaway searches into a clean ``BudgetExceeded`` instead of a hang.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice, product

from .errors import (
    FieldMismatch,
    InputError,
    LengthMismatch,
    RangeError,
    RankError,
    check_budget,
    read_utf8,
)
from .gf import FiniteField

DEFAULT_BUDGET = 1 << 24


def _gaussian_prefix(n: int, q: int):
    """Yield [n 0]_q, [n 1]_q, .., [n n]_q by the exact recurrence
    [n j] = [n j-1] (q^(n-j+1) - 1) / (q^j - 1): one multiply and one
    division per entry; every entry is an integer, so each division is
    exact."""
    g = 1
    yield g
    for j in range(1, n + 1):
        g, rem = divmod(g * (q ** (n - j + 1) - 1), q**j - 1)
        assert not rem
        yield g


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space over GF(q).

    Exact big-integer evaluation in min(r, n - r) steps of the row
    recurrence, using the symmetry [n r] = [n n-r].
    """
    if q < 2:
        raise RangeError(f"q must be at least 2, got {q}")
    if not 0 <= r <= n:
        raise RangeError(f"r={r} outside 0..{n}")
    return next(islice(_gaussian_prefix(n, q), min(r, n - r), None))


def gaussian_row(n: int, q: int) -> tuple[int, ...]:
    """([n 0]_q, .., [n n]_q): the subspace counts of every dimension.

    The first half comes from the recurrence and the rest by the symmetry
    [n j] = [n n-j].
    """
    if q < 2:
        raise RangeError(f"q must be at least 2, got {q}")
    if n < 0:
        raise RangeError(f"n={n} is negative")
    half = list(islice(_gaussian_prefix(n, q), n // 2 + 1))
    return tuple(half + half[: n + 1 - len(half)][::-1])


# -- matrices -----------------------------------------------------------------


class Matrix(namedtuple("Matrix", "field rows ncols")):
    """Immutable rectangular matrix with canonical entries: ``rows`` is a
    tuple of ``ncols``-tuples over ``field``."""

    __slots__ = ()

    def __new__(cls, field: FiniteField, rows, ncols: int):
        self = tuple.__new__(cls, (field, rows, ncols))
        self.__post_init__()
        return self

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ncols:
                raise LengthMismatch(
                    f"row of length {len(row)} in a matrix with {self.ncols} columns"
                )
            for e in row:
                self.field.validate(e)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def matrix(field: FiniteField, rows, ncols: int | None = None) -> Matrix:
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    if ncols is None:
        if not rows:
            raise LengthMismatch("ncols is required for a matrix with no rows")
        ncols = len(rows[0])
    return Matrix(field, rows, ncols)


def _rref_rows(field, rows, ncols, column_order=None):
    """Reduced row echelon form.

    Returns (nonzero rows, pivot columns in elimination order).  When
    ``column_order`` is given, pivots are searched along that column
    priority instead of left to right; rows come out sorted by the order
    in which their pivots were found.
    """
    mat = list(rows)
    order = range(ncols) if column_order is None else column_order
    pivots = []
    top = 0
    for c in order:
        hit = None
        for i in range(top, len(mat)):
            if mat[i][c]:
                hit = i
                break
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        lead = mat[top][c]
        if lead != 1:
            mat[top] = field.scale(field.inv(lead), mat[top])
        prow = mat[top]
        for i in range(len(mat)):
            if i != top and mat[i][c]:
                mat[i] = field.axpy(mat[i], mat[i][c], prow)
        pivots.append(c)
        top += 1
        if top == len(mat):
            break
    return [tuple(r) for r in mat[:top]], pivots


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form (same shape, zero rows at the bottom) and rank."""
    rows, pivots = _rref_rows(m.field, m.rows, m.ncols)
    zero = (0,) * m.ncols
    padded = tuple(rows) + (zero,) * (m.nrows - len(rows))
    return Matrix(m.field, padded, m.ncols), len(pivots)


# -- subspaces ------------------------------------------------------------------


class Subspace(namedtuple("Subspace", "field n basis")):
    """Row space of GF(q)^n identified by its canonical reduced-row-echelon
    basis, a tuple of n-tuples.

    Constructing one validates the basis; ``_trusted`` skips that for bases
    the package itself computed in RREF.
    """

    __slots__ = ()

    def __new__(cls, field: FiniteField, n: int, basis):
        # rows given as lists compare and hash as the tuples of the RREF
        self = tuple.__new__(cls, (field, n, tuple(tuple(row) for row in basis)))
        self.__post_init__()
        return self

    @classmethod
    def _trusted(cls, field: FiniteField, n: int, basis) -> Subspace:
        return tuple.__new__(cls, (field, n, basis))

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.n:
                raise LengthMismatch(f"basis row of length {len(row)}, ambient is {self.n}")
            for e in row:
                self.field.validate(e)
        if len(self.basis) > self.n:
            raise RankError(f"dimension {len(self.basis)} exceeds ambient {self.n}")
        # a basis is canonical iff it is its own reduced row-echelon form
        if tuple(_rref_rows(self.field, self.basis, self.n)[0]) != self.basis:
            raise InputError("subspace basis is not in reduced row-echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis)


def span(field: FiniteField, n: int, vectors) -> Subspace:
    """Canonical subspace spanned by the vectors (any generating set)."""
    vecs = []
    for v in vectors:
        v = tuple(int(e) for e in v)
        if len(v) != n:
            raise LengthMismatch(f"vector of length {len(v)} in ambient dimension {n}")
        for e in v:
            field.validate(e)
        vecs.append(v)
    return _span(field, n, vecs)


def _span(field, n, vectors) -> Subspace:
    """``span`` of valid length-n vectors the package computed itself."""
    rows, _ = _rref_rows(field, vectors, n)
    return Subspace._trusted(field, n, tuple(rows))


def zero_subspace(field: FiniteField, n: int) -> Subspace:
    return Subspace._trusted(field, n, ())


def full_space(field: FiniteField, n: int) -> Subspace:
    return Subspace._trusted(field, n, _identity_rows(n))


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def contains(s: Subspace, v) -> bool:
    """Membership test: v lies in s iff adding it keeps the rank at s.dim."""
    v = tuple(int(e) for e in v)
    if len(v) != s.n:
        raise LengthMismatch(f"vector of length {len(v)}, ambient is {s.n}")
    for e in v:
        s.field.validate(e)
    return len(_rref_rows(s.field, (*s.basis, v), s.n)[0]) == s.dim


def is_subspace_of(a: Subspace, b: Subspace) -> bool:
    """a lies in b iff adding the rows of a keeps the rank at b.dim."""
    if a.field != b.field:
        raise FieldMismatch(f"subspaces over {a.field} and {b.field}")
    if a.n != b.n:
        raise LengthMismatch(f"ambient dimensions differ: {a.n} vs {b.n}")
    return len(_rref_rows(a.field, (*b.basis, *a.basis), a.n)[0]) == b.dim


def _combine(field, coeff, basis, n):
    """Linear combination sum_j coeff[j] * basis[j] as a length-n tuple."""
    out = [0] * n
    for c, brow in zip(coeff, basis):
        if c:
            out = field.axpy(out, field.neg(c), brow)
    return tuple(out)


def _rref_canonical_forms(field, r, k):
    """All rank-r r-by-k RREF matrices: pivot-column sets in lexicographic
    order, free entries in odometer order over the field representatives
    (last free position cycles fastest, rows in order).

    For a fixed pivot set every row fills its free entries independently of
    the other rows, so the forms are the product of one choice per row.  The
    first row, which has the most free entries, is streamed; the choices of
    the others are built once per pivot set.
    """
    elems = tuple(field.elements())
    for pivots in combinations(range(k), r):
        first, *rest = (
            _row_choices(elems, k, p, [j for j in range(p + 1, k) if j not in pivots])
            for p in pivots
        )
        rest = [tuple(choices) for choices in rest]
        for row in first:
            for others in product(*rest):
                yield (row, *others)


def _row_choices(elems, k, pivot, free):
    """Length-k rows with 1 at ``pivot``, every value at the ``free``
    positions (last cycling fastest) and 0 elsewhere."""
    row = [0] * k
    row[pivot] = 1
    for values in product(elems, repeat=len(free)):
        for j, v in zip(free, values):
            row[j] = v
        yield tuple(row)


def enumerate_subspaces(ambient: Subspace, r: int, budget: int | None = DEFAULT_BUDGET):
    """Every r-dimensional subspace of ``ambient`` exactly once, deterministically.

    Enumerates r-by-dim RREF coefficient matrices in the coordinates of the
    ambient basis and maps them through it; the total count equals
    gaussian_binomial(dim, r, q).
    """
    k = ambient.dim
    if not 0 <= r <= k:
        raise RankError(f"requested dimension {r} outside 0..{k}")
    message = "{count} subspaces of dimension {r} exceed the budget {budget}"
    check_budget(gaussian_binomial(k, r, ambient.field.q), budget, message, r=r)
    return _iter_subspaces(ambient, r)


def _iter_subspaces(ambient, r):
    field, n = ambient.field, ambient.n
    if r == 0:
        yield Subspace._trusted(field, n, ())
        return
    basis = ambient.basis
    is_identity = ambient.dim == n and basis == _identity_rows(n)
    # an RREF coefficient form times an RREF basis is in RREF: each row is
    # 1 at the ambient pivot of its own pivot, 0 before it and 0 at the
    # ambient pivots of the other rows' pivots
    for coeff in _rref_canonical_forms(field, r, ambient.dim):
        if not is_identity:
            coeff = tuple(_combine(field, c, basis, n) for c in coeff)
        yield Subspace._trusted(field, n, coeff)


def enumerate_nonzero_codewords(s: Subspace, budget: int | None = DEFAULT_BUDGET):
    """All q**dim - 1 nonzero vectors of the subspace, each exactly once."""
    check_budget(s.field.q**s.dim - 1, budget, "{count} codewords exceed the budget {budget}")
    return _iter_codewords(s)


def _iter_codewords(s):
    elems = tuple(s.field.elements())
    for coeff in product(elems, repeat=s.dim):
        if not any(coeff):
            continue
        yield _combine(s.field, coeff, s.basis, s.n)


# -- generator-matrix files ---------------------------------------------------


class GeneratorFile(namedtuple("GeneratorFile", "q n k lines")):
    """Parsed generator-matrix file: header ``q n k`` then k generators.

    ``lines`` preserves the token layout of the body, one tuple of ints per
    line, so callers can apply either flattening convention to matrix-shaped
    generators.
    """

    __slots__ = ()


def read_generator_file(path) -> GeneratorFile:
    body = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = tuple(int(t) for t in line.split())
        except ValueError:
            if not all((t[1:] if t[0] in "+-" else t).isdecimal() for t in line.split()):
                raise InputError(f"{path}:{lineno}: non-integer token") from None
            # every token is a decimal, so int() refused one past CPython's
            # int->str digit limit, far past any supported field order
            if not body:
                raise InputError(f"{path}: header 'q n k' holds an over-long integer") from None
            q = body[0][0]
            raise RangeError(
                f"{path}:{lineno}: entry too long to be a canonical GF({q}) representative"
            ) from None
        body.append(tokens)
    if not body:
        raise InputError(f"{path}: missing header line 'q n k'")
    header = body[0]
    if len(header) != 3:
        raise InputError(f"{path}: header must be 'q n k', got {' '.join(map(str, header))}")
    q, n, k = header
    if n < 1 or k < 0:
        raise InputError(f"{path}: invalid dimensions n={n}, k={k}")
    for tokens in body[1:]:
        for e in tokens:
            if not 0 <= e < q:
                raise RangeError(f"{path}: entry {e} is not a canonical GF({q}) representative")
    return GeneratorFile(q=q, n=n, k=k, lines=tuple(body[1:]))
