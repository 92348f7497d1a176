"""Exact arithmetic in GF(q) for prime and prime-power q.

Field elements are integer representatives in ``0 .. q - 1``.  For an
extension field GF(p^m) the representative encodes a polynomial over GF(p)
in base p (least-significant digit = constant coefficient), reduced modulo
a fixed monic irreducible modulus.  The modulus is the first irreducible
candidate in ascending order of that base-p encoding, so construction is
reproducible across runs and machines.

Prime fields use direct modular arithmetic.  Extension fields multiply
through exp/log tables built once per field from the smallest generator of
the multiplicative group.

Besides the scalar operations, a field offers row operations (``scale``,
``axpy``) that take whole vectors, so that elimination loops make one call
per row instead of one per entry.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InputError, RangeError

MAX_Q = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with q = p**m and p prime; reject anything else."""
    if q < 2:
        raise InputError(f"field order must be at least 2, got {q}")
    if q > MAX_Q:
        raise InputError(f"field order {q} exceeds the supported cap {MAX_Q}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise InputError(f"{q} is not a prime power")
    p = factors[0]
    return p, len(_digits(q, p)) - 1  # p**m has m + 1 base-p digits


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# --- polynomials over GF(p), coefficient tuples in ascending degree ---


def _digits(v: int, p: int, width: int = 0) -> tuple[int, ...]:
    """Base-p digits of v, constant first: ``width`` of them, or more until
    the rest of v is zero."""
    out = []
    while v or len(out) < width:
        out.append(v % p)
        v //= p
    return tuple(out)


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_mod(tuple(prod), mod, p)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for v in range(p**d):
            divisor = _digits(v, p, d) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    for v in range(p**m):
        cand = _digits(v, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # cannot happen


def _power(mul, a: int, e: int) -> int:
    """a**e for e >= 0 by square-and-multiply under the product ``mul``."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


def _digitwise(a: int, b: int, p: int, sign: int) -> int:
    """a + sign * b in GF(p^m) for odd p: base-p digits add without carries."""
    out, shift = 0, 1
    while a or b:
        out += (a + sign * b) % p * shift
        a //= p
        b //= p
        shift *= p
    return out


class FiniteField:
    """Arithmetic in GF(q) on the integer representatives ``0 .. q - 1``."""

    __slots__ = ("q", "p", "m", "modulus", "_exp", "_log")

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            self.modulus = None
            self._exp = None
            self._log = None
        else:
            self.modulus = _find_modulus(p, m)
            self._build_tables()

    # -- representation ------------------------------------------------

    def _from_poly(self, c: tuple[int, ...]) -> int:
        out = 0
        for coef in reversed(c):
            out = out * self.p + coef
        return out

    def _mul_poly(self, a: int, b: int) -> int:
        p = self.p
        return self._from_poly(_poly_mulmod(_digits(a, p), _digits(b, p), self.modulus, p))

    def _build_tables(self):
        order = self.q - 1
        factors = _prime_factors(order)
        gen = None
        for g in range(2, self.q):
            if all(_power(self._mul_poly, g, order // f) != 1 for f in factors):
                gen = g
                break
        assert gen is not None
        exp = [0] * order
        log = [0] * self.q
        cur = 1
        for i in range(order):
            exp[i] = cur
            log[cur] = i
            cur = self._mul_poly(cur, gen)
        assert cur == 1
        self._exp = exp
        self._log = log

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return _digitwise(a, b, self.p, 1)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return _digitwise(0, a, self.p, -1)

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return _digitwise(a, b, self.p, -1)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.q})")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a] % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return _power(self.mul, a, e)

    # -- rows ------------------------------------------------------------
    #
    # One loop per field kind: prime fields reduce mod p, characteristic-2
    # extensions add by XOR, odd extensions add digit by digit.  Extension
    # products go through exp/log; with ``lo = log[a] - (q - 1)`` the index
    # ``lo + log[v]`` lies in -(q - 1) .. q - 3, so Python's negative
    # indexing into ``_exp`` does the reduction mod q - 1.

    def scale(self, a: int, x) -> list[int]:
        """The row a * x."""
        if self.m == 1:
            p = self.p
            return [a * u % p for u in x]
        if a == 0:
            return [0] * len(x)
        exp, log = self._exp, self._log
        lo = log[a] - (self.q - 1)
        return [exp[lo + log[u]] if u else 0 for u in x]

    def axpy(self, x, a: int, y) -> list[int]:
        """The row x - a * y."""
        if self.m == 1:
            p = self.p
            return [(u - a * v) % p for u, v in zip(x, y)]
        if a == 0:
            return list(x)
        exp, log = self._exp, self._log
        lo = log[a] - (self.q - 1)
        if self.p == 2:
            return [u ^ exp[lo + log[v]] if v else u for u, v in zip(x, y)]
        p = self.p
        return [_digitwise(u, exp[lo + log[v]], p, -1) if v else u for u, v in zip(x, y)]

    def elements(self) -> range:
        """All q elements, zero first, ascending by representative."""
        return range(self.q)

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise RangeError(f"{a!r} is not a canonical GF({self.q}) representative")
        return a

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    """Return the (cached) field of order q; q must be a prime power."""
    return FiniteField(q)
