"""Linear algebra over GF(q): canonical subspaces, enumeration, q-binomials.

Vectors are plain tuples of canonical field representatives; the field is
passed explicitly wherever arithmetic is needed.  A subspace is identified
with its reduced-row-echelon basis, so equality and hashing of subspaces
are exact set comparisons.

Exhaustive enumerations are guarded by a budget (default 2**24 items) that
turns runaway searches into a clean ``BudgetExceeded`` instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from pathlib import Path

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InputError,
    LengthMismatch,
    RangeError,
    RankError,
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


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix with canonical entries."""

    field: FiniteField
    rows: tuple[tuple[int, ...], ...]
    ncols: int

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


@dataclass(frozen=True)
class Subspace:
    """Row space identified by its canonical reduced-row-echelon basis.

    Constructing one validates the basis; ``_trusted`` skips that for bases
    the package itself computed in RREF.
    """

    field: FiniteField
    n: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def _trusted(cls, field: FiniteField, n: int, basis) -> Subspace:
        s = object.__new__(cls)
        object.__setattr__(s, "field", field)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "basis", basis)
        return s

    def __post_init__(self):
        last_pivot = -1
        pivot_cols = []
        for row in self.basis:
            if len(row) != self.n:
                raise LengthMismatch(f"basis row of length {len(row)}, ambient is {self.n}")
            for e in row:
                self.field.validate(e)
            pivot = next((j for j, e in enumerate(row) if e), None)
            if pivot is None:
                raise InputError("zero row in a subspace basis")
            if pivot <= last_pivot or row[pivot] != 1:
                raise InputError("subspace basis is not in reduced row-echelon form")
            last_pivot = pivot
            pivot_cols.append(pivot)
        for i, row in enumerate(self.basis):
            for j, p in enumerate(pivot_cols):
                if i != j and row[p]:
                    raise InputError("subspace basis is not in reduced row-echelon form")
        if len(self.basis) > self.n:
            raise RankError(f"dimension {len(self.basis)} exceeds ambient {self.n}")

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
    """Membership test by reduction of v against the basis."""
    v = tuple(int(e) for e in v)
    if len(v) != s.n:
        raise LengthMismatch(f"vector of length {len(v)}, ambient is {s.n}")
    residual = v
    for row in s.basis:
        p = next(j for j, e in enumerate(row) if e)
        c = residual[p]
        if c:
            residual = s.field.axpy(residual, c, row)
    return not any(residual)


def is_subspace_of(a: Subspace, b: Subspace) -> bool:
    if a.field != b.field:
        raise FieldMismatch(f"subspaces over {a.field} and {b.field}")
    if a.n != b.n:
        raise LengthMismatch(f"ambient dimensions differ: {a.n} vs {b.n}")
    if a.dim > b.dim:
        return False
    return all(contains(b, row) for row in a.basis)


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
    (last free position cycles fastest)."""
    elems = tuple(field.elements())
    for pivots in combinations(range(k), r):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, k)
            if j not in pivot_set
        ]
        base = [[0] * k for _ in range(r)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for values in product(elems, repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)


def enumerate_subspaces(ambient: Subspace, r: int, budget: int | None = DEFAULT_BUDGET):
    """Every r-dimensional subspace of ``ambient`` exactly once, deterministically.

    Enumerates r-by-dim RREF coefficient matrices in the coordinates of the
    ambient basis and maps them through it; the total count equals
    gaussian_binomial(dim, r, q).
    """
    k = ambient.dim
    if not 0 <= r <= k:
        raise RankError(f"requested dimension {r} outside 0..{k}")
    if budget is not None:
        total = gaussian_binomial(k, r, ambient.field.q)
        if total > budget:
            raise BudgetExceeded(
                f"{total} subspaces of dimension {r} exceed the budget {budget}",
                count=total,
                budget=budget,
            )
    return _iter_subspaces(ambient, r)


def _iter_subspaces(ambient, r):
    field, n = ambient.field, ambient.n
    if r == 0:
        yield Subspace._trusted(field, n, ())
        return
    is_identity = ambient.dim == n and ambient.basis == _identity_rows(n)
    for coeff in _rref_canonical_forms(field, r, ambient.dim):
        if is_identity:
            yield Subspace._trusted(field, n, coeff)
        else:
            yield _span(field, n, [_combine(field, c, ambient.basis, n) for c in coeff])


def enumerate_nonzero_codewords(s: Subspace, budget: int | None = DEFAULT_BUDGET):
    """All q**dim - 1 nonzero vectors of the subspace, each exactly once."""
    count = s.field.q**s.dim - 1
    if budget is not None and count > budget:
        raise BudgetExceeded(
            f"{count} codewords exceed the budget {budget}", count=count, budget=budget
        )
    return _iter_codewords(s)


def _iter_codewords(s):
    elems = tuple(s.field.elements())
    for coeff in product(elems, repeat=s.dim):
        if not any(coeff):
            continue
        yield _combine(s.field, coeff, s.basis, s.n)


# -- generator-matrix files ---------------------------------------------------


@dataclass(frozen=True)
class GeneratorFile:
    """Parsed generator-matrix file: header ``q n k`` then k generators.

    ``lines`` preserves the token layout of the body so callers can apply
    either flattening convention to matrix-shaped generators.
    """

    q: int
    n: int
    k: int
    lines: tuple[tuple[int, ...], ...]


def read_generator_file(path) -> GeneratorFile:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    body = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens = tuple(int(t) for t in line.split())
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer token") from None
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
