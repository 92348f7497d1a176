import random

import pytest

from posetcodes import GF, InputError, RangeError
from posetcodes import codes

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
EXHAUSTIVE_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
# prime, characteristic-2 extension and odd extension fields
ROW_Q = [2, 3, 4, 5, 8, 9, 25]


def test_gf2_addition():
    assert GF(2).add(1, 1) == 0


def test_gf3_multiplication():
    assert GF(3).mul(2, 2) == 1


def test_gf4_extension_arithmetic():
    f = GF(4)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, ascending coefficients
    assert f.mul(2, 2) == 3  # a * a = a + 1


def test_elements_order():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(3).elements()) == [0, 1, 2]
    assert len(list(GF(4).elements())) == 4


def test_gf4_nonzero_elements_cyclic_of_order_3():
    f = GF(4)
    nonzero = [e for e in f.elements() if e]
    for a in nonzero:
        assert f.pow(a, 3) == 1
    assert any({f.pow(g, i) for i in range(3)} == set(nonzero) for g in nonzero)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = GF(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", EXHAUSTIVE_Q)
def test_frobenius_exhaustive(q):
    f = GF(q)
    for a in f.elements():
        for b in f.elements():
            assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


@pytest.mark.parametrize("q", EXHAUSTIVE_Q)
def test_multiplicative_group_order(q):
    f = GF(q)
    nonzero = [e for e in f.elements() if e]
    for a in nonzero:
        assert f.pow(a, q - 1) == 1
        assert f.mul(a, f.inv(a)) == 1
    products = {f.mul(a, b) for a in nonzero for b in nonzero}
    assert products == set(nonzero)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_non_prime_power_rejected():
    with pytest.raises(InputError):
        GF(6)
    with pytest.raises(InputError):
        GF(1)


def test_order_cap():
    with pytest.raises(InputError):
        GF(1 << 17)


def test_validate():
    f = GF(3)
    assert f.validate(2) == 2
    with pytest.raises(RangeError):
        f.validate(3)
    with pytest.raises(RangeError):
        f.validate(-1)


def test_fields_are_cached_and_comparable():
    assert GF(4) is GF(4)
    assert GF(4) == GF(4)
    assert GF(4) != GF(5)


@pytest.mark.parametrize("q", ROW_Q)
def test_row_operations_match_their_elementwise_composition(q):
    f = GF(q)
    rng = random.Random(f"rows:{q}")
    for a in f.elements():
        for length in (0, 1, 5, 12):
            x = [rng.randrange(q) for _ in range(length)]
            y = [rng.randrange(q) for _ in range(length)]
            assert f.scale(a, x) == [f.mul(a, u) for u in x]
            assert f.axpy(x, a, y) == [f.sub(u, f.mul(a, v)) for u, v in zip(x, y)]
            assert f.axpy(tuple(x), a, tuple(y)) == f.axpy(x, a, y)


# Extension fields past the exhaustive tests, each with the modulus its
# construction picks: the first monic irreducible in base-p order.  A
# different modulus would renumber the field's elements.
LARGE_EXTENSIONS = {
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    125: (1, 1, 0, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def schoolbook_product(p, modulus, a, b):
    """a * b in GF(p)[x] / (modulus) on base-p encodings: multiply the digit
    polynomials, then cancel each term above degree m with the monic modulus."""
    m = len(modulus) - 1
    da = [a // p**i % p for i in range(m)]
    db = [b // p**i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d] % p
        for i, e in enumerate(modulus):
            prod[d - m + i] -= c * e
    return sum(prod[i] % p * p**i for i in range(m))


@pytest.mark.parametrize("q", LARGE_EXTENSIONS)
def test_large_extension_products_match_the_schoolbook_product(q):
    f = GF(q)
    assert f.modulus == LARGE_EXTENSIONS[q]
    assert f.p**f.m == q and len(f.modulus) == f.m + 1
    rng = random.Random(f"schoolbook:{q}")
    pairs = [(a, b) for a in (0, 1, q - 1) for b in (0, 1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert f.mul(a, b) == schoolbook_product(f.p, f.modulus, a, b), (a, b)
    for a in rng.sample(range(1, q), 20):
        power = 1
        for e in range(8):
            assert f.pow(a, e) == power
            power = schoolbook_product(f.p, f.modulus, power, a)
        assert schoolbook_product(f.p, f.modulus, a, f.pow(a, -1)) == 1


# every kind of field the package accepts, up to q = 2^16: prime fields with
# one-, two- and three-byte lanes (127, the largest prime whose guard bit fits
# one byte), characteristic-2 extensions with one- and two-byte coordinates
# and odd extensions with several one- or two-byte lanes per coordinate (131^2)
PACKED_Q = [
    2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 127, 128, 243, 256, 257, 17161, 65521, 65536
]


def _unpacked(f, width, n, word):
    """The row a packed row holds, read lane by lane (oracle).  Each lane of
    an odd-characteristic row must hold a base-p digit, so no sum is left
    unreduced."""
    data = word.to_bytes(n * width, "little")
    lane = width if f.p == 2 else width // f.m
    row = []
    for i in range(0, len(data), width):
        digits = [int.from_bytes(data[j : j + lane], "little") for j in range(i, i + width, lane)]
        if f.p == 2:
            row.append(digits[0])
        else:
            assert all(d < f.p for d in digits), digits
            row.append(sum(d * f.p**e for e, d in enumerate(digits)))
    return tuple(row)


@pytest.mark.parametrize("q", PACKED_Q)
def test_packed_rows_add_as_axpy(q):
    f = GF(q)
    rng = random.Random(f"packed:{q}")
    for n in (1, 2, 7, 13):
        width, pack, add = codes._packing(f, n)
        top = [q - 1] * n  # every digit p - 1: sums reach 2p - 2
        rows = [top, [0] * n] + [[rng.randrange(q) for _ in range(n)] for _ in range(8)]
        for row in rows:
            assert _unpacked(f, width, n, pack(row)) == tuple(row)
        scalars = [1, q - 1] + [rng.randrange(1, q) for _ in range(4)]
        for u in rows:
            for v in (top, rows[-1]):
                for a in scalars:
                    # x - a * y is x plus the multiple -a * y
                    total = add(pack(u), pack(f.scale(f.neg(a), v)))
                    assert _unpacked(f, width, n, total) == tuple(f.axpy(u, a, v)), (u, a, v)
        # sums of sums stay reduced, as the word table builds them
        word, expected = pack(top), top
        for v in rows:
            word, expected = add(word, pack(v)), [f.add(x, y) for x, y in zip(expected, v)]
            assert _unpacked(f, width, n, word) == tuple(expected)
