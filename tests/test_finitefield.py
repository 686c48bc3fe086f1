import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtkit.fflinalg import FFMatrix
from cgtkit.finitefield import FiniteField, conway_polynomial


KNOWN_CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (5, 1): (3, 1),
    (7, 1): (4, 1),
}


def test_conway_against_published_values():
    for (p, k), want in KNOWN_CONWAY.items():
        assert conway_polynomial(p, k) == want, (p, k)


def test_conway_degree_one_is_x_minus_the_least_primitive_root():
    for p in (n for n in range(2, 500) if all(n % d for d in range(2, isqrt(n) + 1))):
        def order(g):
            o, x = 1, g
            while x != 1:
                x, o = x * g % p, o + 1
            return o
        r = next(g for g in range(1, p) if order(g) == p - 1)
        assert conway_polynomial(p, 1) == ((-r) % p, 1), p


def test_multiplication_beyond_the_log_tables():
    p = 257
    F = FiniteField(p, 2)  # q = 66049: no log/exp tables
    assert F._log is None
    c0, c1, _ = F.poly
    rng = random.Random(p)
    for _ in range(100):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        (a0, a1), (b0, b1) = divmod(a, p)[::-1], divmod(b, p)[::-1]
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0
        top = a1 * b1
        want = (a0 * b0 - top * c0) % p + p * ((a0 * b1 + a1 * b0 - top * c1) % p)
        assert F.mul(a, b) == want
        if a:
            assert F.mul(a, F.inv(a)) == 1


def _multiplicative_order(F, a):
    o, x = 1, a
    while x != 1:
        x, o = F.mul(x, a), o + 1
    return o


def test_conway_polynomials_are_primitive():
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        F = FiniteField(p, k)
        assert _multiplicative_order(F, F.gen_code) == F.q - 1


def test_subfield_embedding_is_canonical_and_homomorphic():
    F4 = FiniteField(2, 2)
    F4096 = FiniteField(2, 12)
    img = F4.embed(F4.gen_code, F4096)
    assert _multiplicative_order(F4096, img) == 3
    for a in range(4):
        for b in range(4):
            assert F4.embed(F4.mul(a, b), F4096) == \
                F4096.mul(F4.embed(a, F4096), F4.embed(b, F4096))
            assert F4.embed(F4.add(a, b), F4096) == \
                F4096.add(F4.embed(a, F4096), F4.embed(b, F4096))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (7, 2), (5, 1)])
def test_field_axioms_exhaustive_small(p, k):
    F = FiniteField(p, k)
    elems = list(range(F.q))
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in elems[: min(len(elems), 9)]:
        for b in elems[: min(len(elems), 9)]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[: min(len(elems), 9)]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=100)
def test_distributivity_gf49(a, b, c):
    F = FiniteField(7, 2)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_mixed_field_arithmetic_rejected():
    F8, F9 = FiniteField(2, 3), FiniteField(3, 2)
    A, B = FFMatrix(F8, [[1]]), FFMatrix(F9, [[1]])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="field mismatch"):
            op(A, B)
