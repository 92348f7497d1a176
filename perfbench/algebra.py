"""The benchmark's own finite-field and poset arithmetic.

The generator and the validator use these helpers instead of the package,
so a change to the package can change neither the workloads nor the checks.
Field elements follow the file format of the program: for GF(4) the
representative a0 + 2*a1 stands for a0 + a1*x modulo x^2 + x + 1.
"""

from __future__ import annotations


class Field:
    """Addition and multiplication tables of GF(q) for prime q and for q = 4."""

    def __init__(self, q: int):
        self.q = q
        if q == 4:
            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            self.mul = [[_gf4_mul(a, b) for b in range(4)] for a in range(4)]
        elif q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1)):
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[a * b % q for b in range(q)] for a in range(q)]
        else:
            raise ValueError(f"no field tables for q={q}")
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [None] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]


def _gf4_mul(a: int, b: int) -> int:
    # (a0 + a1 x)(b0 + b1 x) with x^2 = x + 1
    a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | (c1 << 1)


def rref(field: Field, rows):
    """Reduced row-echelon rows (zero rows dropped), pivots left to right."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    top = 0
    for c in range(ncols):
        hit = next((i for i in range(top, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        inv = field.inv[mat[top][c]]
        mat[top] = [field.mul[inv][e] for e in mat[top]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != top and f:
                nf = field.neg[f]
                mat[i] = [field.add[e][field.mul[nf][p]] for e, p in zip(mat[i], mat[top])]
        top += 1
        if top == len(mat):
            break
    return [tuple(r) for r in mat[:top]]


def is_rref(rows, q: int) -> bool:
    """True iff the rows are nonzero, canonical, and in reduced row-echelon form."""
    pivots = []
    for row in rows:
        if any(not (isinstance(e, int) and 0 <= e < q) for e in row):
            return False
        piv = next((j for j, e in enumerate(row) if e), None)
        if piv is None or row[piv] != 1 or (pivots and piv <= pivots[-1]):
            return False
        pivots.append(piv)
    return all(not row[p] for i, row in enumerate(rows) for j, p in enumerate(pivots) if i != j)


def in_row_space(field: Field, basis, v) -> bool:
    """Membership of v in the span of an RREF basis, by reduction on its pivots."""
    res = list(v)
    for row in basis:
        piv = next(j for j, e in enumerate(row) if e)
        c = res[piv]
        if c:
            nc = field.neg[c]
            res = [field.add[e][field.mul[nc][p]] for e, p in zip(res, row)]
    return not any(res)


def support_mask(rows) -> int:
    mask = 0
    for row in rows:
        for j, e in enumerate(row):
            if e:
                mask |= 1 << j
    return mask


def closure(n: int, pairs) -> list[int]:
    """Down-set bitmasks (bit e-1 of masks[i-1] set iff e <= i) of the
    reflexive-transitive closure of the relation pairs (a, b) meaning a < b."""
    down = [1 << i for i in range(n)]
    for a, b in pairs:
        down[b - 1] |= 1 << (a - 1)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if down[i] & bit:
                down[i] |= down[k]
    return down


def ideal_size(down, mask: int) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= down[i]
        mask >>= 1
        i += 1
    return out.bit_count()


def comparable(down, a: int, b: int) -> bool:
    """0-based elements a, b."""
    return bool((down[b] >> a) & 1 or (down[a] >> b) & 1)


def is_chain(down, elements) -> bool:
    els = list(elements)
    return all(comparable(down, a, b) for i, a in enumerate(els) for b in els[i + 1 :])


def width(down) -> int:
    """Size of a largest antichain: n minus a maximum matching between
    'x' and 'y' copies with an edge x -> y iff x < y (Dilworth/Fulkerson)."""
    n = len(down)
    above = [[j for j in range(n) if j != i and (down[j] >> i) & 1] for i in range(n)]
    match = [-1] * n

    def augment(i, seen):
        for j in above[i]:
            if j not in seen:
                seen.add(j)
                if match[j] == -1 or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    return n - sum(augment(i, set()) for i in range(n))


class GaussianBinomials:
    """[m choose j]_q by the q-Pascal recurrence, one cached row per m."""

    def __init__(self, q: int):
        self.q = q
        self.rows = [[1]]

    def row(self, m: int) -> list[int]:
        q = self.q
        while len(self.rows) <= m:
            prev = self.rows[-1]
            size = len(prev)
            new = [1]
            qj = 1
            for j in range(1, size):
                qj *= q
                new.append(prev[j - 1] + qj * prev[j])
            new.append(1)
            self.rows.append(new)
        return self.rows[m]
