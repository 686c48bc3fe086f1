import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtkit.perms import Permutation, format_perm, parse_perm, parse_perm_file


def test_parse_format_roundtrip():
    p = parse_perm("(1,2)(3,4)", 5)
    assert format_perm(p) == "(1,2)(3,4)"
    assert parse_perm("()", 4).is_identity()
    assert format_perm(Permutation.identity(3)) == "()"


def test_composition_is_left_to_right():
    # (p*q)(i) = q(p(i)): p acts first
    a = parse_perm("(1,2,3)", 3)
    b = parse_perm("(2,3)", 3)
    assert format_perm(a * b) == "(1,3)"
    assert format_perm(b * a) == "(1,2)"


def test_lemma42_product_convention():
    # the reference construction: u = (1 2)(3 4), x = (2 4 5 ... n);
    # "apply x first, then u" is the standard n-cycle
    n = 11
    x = Permutation.from_cycles(n, [[1] + list(range(3, n))])
    u = Permutation.from_cycles(n, [[0, 1], [2, 3]])
    w = x * u
    assert w.images == tuple((i + 1) % n for i in range(n))
    v = u.conj(w ** 4)
    assert format_perm(v) == "(5,6)(7,8)"


def test_conjugation_relabels():
    s = parse_perm("(1,5)(2,6)", 6)
    p = parse_perm("(1,2,3)", 6)
    assert format_perm(p.conj(s)) == "(3,5,6)"  # points 1,2,3 -> 5,6,3


def test_square_of_transposition_is_identity():
    t = parse_perm("(1,2)", 4)
    assert (t * t).is_identity()


def test_cycle_type_order_sign():
    p = parse_perm("(1,2,3)(4,5)", 6)
    assert p.cycle_type() == (3, 2, 1)
    assert p.order() == 6
    assert p.sign() == -1
    assert parse_perm("(1,2,3)", 3).sign() == 1


@st.composite
def perms(draw, n=7):
    import random
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


@given(perms(), perms(), perms())
@settings(max_examples=80)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms())
@settings(max_examples=60)
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    assert (p ** p.order()).is_identity()


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_perm("(1,2", 4)
    with pytest.raises(ValueError):
        parse_perm("(1,9)", 4)
    with pytest.raises(ValueError):
        parse_perm("(1,1)", 4)


def test_perm_file_format():
    text = "degree 5\n(1,2)(3,4)\n(1,2,3,4,5)\n"
    degree, gens = parse_perm_file(text)
    assert degree == 5 and len(gens) == 2
    assert format_perm(gens[0]) == "(1,2)(3,4)"
    with pytest.raises(ValueError):
        parse_perm_file("(1,2)\n")


@pytest.mark.parametrize("images", [(), (0,), (0, 1), (1, 0)])
def test_product_and_inverse_at_small_degrees(images):
    # below degree 2, itemgetter would return a scalar instead of a tuple
    p = Permutation(images)
    assert (p * p).images == tuple(images[i] for i in images)
    assert p.inverse().images == images  # every permutation of degree <= 2 is an involution
    assert (p * p.inverse()).images == tuple(range(len(images)))


def test_product_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation((1, 0)) * Permutation((0, 1, 2))
