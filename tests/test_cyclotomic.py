from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtkit.cyclotomic import Cyclotomic, sqrt_int, sum_of_products, zeta

CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 12, 15]


def rand_cyclo(e, coeffs):
    return Cyclotomic(e, {j % e: c for j, c in coeffs})


# rational coefficients with small denominators, so sums and products run
# through the common-denominator path
coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
cyclos = st.builds(
    rand_cyclo,
    st.sampled_from(CONDUCTORS),
    st.lists(st.tuples(st.integers(0, 14), coeffs), max_size=4),
)


def test_sum_of_nontrivial_fifth_roots():
    s = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert s == Cyclotomic.from_rational(-1)


def test_conjugation_of_cube_root():
    assert zeta(3).conj() == zeta(3, 2)


def test_product_expansion_hand_oracle():
    # (1+z5)(1+z5^4) = 1 + z5 + z5^4 + z5^5 = 2 + z5 + z5^4
    lhs = (1 + zeta(5)) * (1 + zeta(5, 4))
    assert lhs == 2 + zeta(5) + zeta(5, 4)


def test_minimal_conductor_reduction():
    assert zeta(15, 5).e == 3
    assert zeta(15, 5) == zeta(3)
    assert (zeta(8, 2)).e == 4  # zeta_8^2 = i
    assert (zeta(5) * 0 + 7).e == 1


def test_inverse_and_division():
    x = 1 + zeta(7) + zeta(7, 3)
    assert x.inv() * x == Cyclotomic.one()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero().inv()


def test_golden_ratio_form():
    # -z5^2 - z5^3 is (1+sqrt5)/2, the classical split value
    assert -zeta(5, 2) - zeta(5, 3) == (1 + sqrt_int(5)) / 2


@given(cyclos)
@settings(max_examples=120)
def test_self_difference_is_structurally_zero(a):
    assert (a - a).is_zero()
    assert (a - a).e == 1


@given(cyclos, cyclos, cyclos)
@settings(max_examples=80)
def test_associativity_and_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c


@given(cyclos)
@settings(max_examples=80)
def test_conj_is_an_involution(a):
    assert a.conj().conj() == a


@given(cyclos)
@settings(max_examples=60)
def test_serialization_roundtrip(a):
    assert Cyclotomic.from_json(a.to_json()) == a


@given(cyclos)
@settings(max_examples=40)
def test_nonzero_inverse_roundtrip(a):
    if not a.is_zero():
        assert a * a.inv() == Cyclotomic.one()


@given(st.integers(-200, 200))
@example(-199)
@example(-197)
@example(199)
@settings(max_examples=60)
def test_sqrt_int_squares_back(n):
    r = sqrt_int(n)
    assert r * r == Cyclotomic.from_rational(n)


def test_galois_requires_coprime_exponent():
    with pytest.raises(ValueError):
        zeta(8).galois(2)


def test_rational_extraction():
    v = zeta(3) + zeta(3, 2)
    assert v.is_rational() and v.rational() == -1
    with pytest.raises(ValueError):
        zeta(5).rational()


@given(st.lists(st.tuples(cyclos, cyclos, st.one_of(st.integers(-5, 5), coeffs)),
                max_size=6))
@settings(max_examples=60)
def test_sum_of_products_matches_operator_fold(terms):
    fold = Cyclotomic.zero()
    for a, b, scale in terms:
        fold = fold + a * b * scale
    assert sum_of_products(2 ** 3 * 3 ** 2 * 5 * 7, terms) == fold


def test_sum_of_products_rejects_a_conductor_outside_e():
    with pytest.raises(ValueError):
        sum_of_products(15, [(zeta(7), zeta(3), 1)])


def test_mixed_denominators_to_json():
    # 1/2 + z3/3 = (3 + 2 z3)/6 on one denominator; the wire format keeps
    # each coefficient in lowest terms
    v = Fraction(1, 2) + zeta(3) / 3
    assert (v.e, v.num, v.den) == (3, {0: 3, 1: 2}, 6)
    assert v.to_json() == {"e": 3, "coeffs": [[0, 1, 2], [1, 1, 3]]}
    # z3^2 is rewritten as -1 - z3: 1/2 + z3^2/3 = 1/6 - z3/3
    w = Fraction(1, 2) + zeta(3, 2) / 3
    assert w.to_json() == {"e": 3, "coeffs": [[0, 1, 6], [1, -1, 3]]}
    assert Cyclotomic.from_json(w.to_json()) == w
    assert str(w) == "1/6-1/3*z3"


# -- an oracle that shares no code with the canonical form -------------------

X = sympy.Symbol("X")
ORACLE_CONDUCTORS = [1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 21, 24]
oracle_cyclos = st.builds(
    rand_cyclo,
    st.sampled_from(ORACLE_CONDUCTORS),
    st.lists(st.tuples(st.integers(0, 23), st.one_of(st.integers(-5, 5), coeffs)),
             max_size=5),
)


def _phi(E):
    return sympy.Poly(sympy.cyclotomic_poly(E, X), X, domain="QQ")


def _residue(x, E):
    """x as a polynomial in zeta_E read off its stored coefficients, reduced
    mod the E-th cyclotomic polynomial; equal residues mean equal values."""
    m = E // x.e
    f = sympy.Poly(sum((sympy.Rational(c, x.den) * X ** (j * m) for j, c in x.num.items()),
                       sympy.Integer(0)), X, domain="QQ")
    return f.rem(_phi(E))


@given(oracle_cyclos, oracle_cyclos, st.one_of(st.integers(-5, 5), coeffs))
@settings(max_examples=200, deadline=None)
def test_operators_and_sum_of_products_match_sympy(a, b, scale):
    E = lcm(a.e, b.e)
    ra, rb = _residue(a, E), _residue(b, E)
    assert _residue(a + b, E) == ra + rb
    assert _residue(a * b, E) == (ra * rb).rem(_phi(E))
    got = sum_of_products(E, [(a, b, scale), (b, b, 1)])
    assert _residue(got, E) == (ra * rb * sympy.Rational(scale) + rb * rb).rem(_phi(E))


@given(st.sampled_from([e for e in ORACLE_CONDUCTORS if not sympy.isprime(e) and e > 1]),
       st.lists(st.tuples(st.integers(0, 23), st.one_of(st.integers(-5, 5), coeffs)),
                max_size=5))
@settings(max_examples=60, deadline=None)
def test_galois_trace_comes_back_rational(E, terms):
    # the trace over Q(zeta_E), sum of sigma_u(a) for u coprime to E, is
    # rational whatever a is: one sum_of_products must end at conductor 1
    a = rand_cyclo(E, terms)
    units = [u for u in range(1, E) if gcd(u, E) == 1]
    got = sum_of_products(E, [(a.galois(u), Cyclotomic.one(), 1) for u in units])
    assert got.e == 1
    f = _residue(a, E)
    want = sum((sympy.Poly(f.as_expr().subs(X, X ** u), X, domain="QQ").rem(_phi(E))
                for u in units), sympy.Poly(0, X, domain="QQ"))
    assert want.degree() <= 0
    assert _residue(got, E) == want
