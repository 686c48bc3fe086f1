"""The number-theory kit against sympy's own functions, the exact paths
that run on it without loading sympy, and its one square-and-multiply loop
through every caller against repeated products."""

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
import sympy

from cgtkit._ntheory import (_MR_BASES, _MR_PSI, MR_BOUND, factorize, is_prime,
                             is_prime_power, primitive_root)
from cgtkit.cyclotomic import Cyclotomic, _conductor_data, zeta
from cgtkit.fflinalg import FFMatrix
from cgtkit.finitefield import FiniteField, _pdivmod, _pmul, _ppowmod
from cgtkit.perms import Permutation

# 2^61 - 1, 2^89 - 1 and 2^127 - 1 are prime; the rest are powers or near misses
LARGE = [2**61 - 1, (2**61 - 1)**2, 3**40, 2**89 - 1, (2**89 - 1)**3, 2**127, 2**127 - 1,
         10**30]


def test_is_prime_matches_sympy():
    for n in range(-2, 200000):
        assert is_prime(n) == sympy.isprime(n), n
    # psi_k is the least composite that passes the first k bases, where the
    # test stops for n < psi_k; psi_k +- 2 sit on either side of that exit
    for psi in _MR_PSI[:11]:
        for n in (psi - 2, psi, psi + 2):
            assert is_prime(n) == sympy.isprime(n), n
    rng = random.Random(20170101)
    for _ in range(10000):
        n = rng.randrange(MR_BOUND) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for n in [MR_BOUND - 59, MR_BOUND + 1, MR_BOUND + 13] + LARGE:
        assert is_prime(n) == sympy.isprime(n), n


def _strong_probable_prime(n: int, a: int) -> bool:
    """n passes the strong test to base a."""
    s = 0
    d = n - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


def test_each_psi_is_a_composite_strong_pseudoprime_to_its_bases():
    # a mistyped psi_k that is prime, or that fails one of the first k
    # bases, is not the least strong pseudoprime to them
    assert len(_MR_PSI) == len(_MR_BASES) == 12
    assert list(_MR_PSI) == sorted(_MR_PSI) and _MR_PSI[-1] > MR_BOUND > _MR_PSI[-2]
    for k, psi in enumerate(_MR_PSI[:11], 1):
        assert not sympy.isprime(psi), k
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES[:k]), k


def test_is_prime_around_the_small_prime_exit():
    # below 41^2 a number with no prime factor up to 37 is prime: 41^2 is
    # the first composite that passes the trial division by the bases,
    # 1679 = 23 * 73 is caught by it and 1667 is a prime just below
    assert not is_prime(1681)
    assert not is_prime(1679)
    assert is_prime(1667)
    assert is_prime(1321) and not is_prime(41 * 43)


def test_factorize_matches_factorint():
    for n in range(1, 20000):
        assert factorize(n) == sorted(sympy.factorint(n).items()), n
    with pytest.raises(ValueError):
        factorize(0)


def test_primitive_root_matches_sympy():
    for p in sympy.primerange(2, 20000):
        assert primitive_root(p) == sympy.primitive_root(p), p


def test_is_prime_power_matches_factorint():
    for q in list(range(-2, 5000)) + LARGE:
        f = sympy.factorint(q) if q >= 2 else {}
        assert is_prime_power(q) == (next(iter(f.items())) if len(f) == 1 else None), q


def test_conductor_data_is_a_crt_split():
    for e in range(1, 3000):
        data = _conductor_data(e)
        assert [(p, pa) for p, pa, _, _ in data] == \
            [(p, p**a) for p, a in sorted(sympy.factorint(e).items())], e
        assert prod(pa for _, pa, _, _ in data) == e
        for p, pa, phi, c in data:
            assert phi == pa - pa // p and 0 <= c < e
            assert c % pa == 1 and c % (e // pa) == 0, (e, p)


def test_finite_field_refuses_every_time_and_caches_valid_fields():
    for p, k in ((4, 1), (2, 0)):
        for _ in range(3):
            with pytest.raises(ValueError):
                FiniteField(p, k)
    assert FiniteField(2, 6) is FiniteField(2, 6)
    assert FiniteField(2, 2).mul(2, 3) == 1    # x * (x + 1) = x^2 + x = 1


def test_exact_paths_run_without_sympy():
    probe = "\n".join([
        "import sys",
        "from cgtkit import catalog, verify",
        "from cgtkit.chartab import dixon_table",
        "from cgtkit.cyclotomic import sqrt_int",
        "from cgtkit.finitefield import FiniteField",
        "assert 'L2(8)' in catalog.catalog_names()",
        "assert catalog.load_group('L2(8)')[1].order() == 504",
        "assert dixon_table(catalog.load_group('L2(7)')[1], 'L2(7)').n_classes == 6",
        "assert verify.suite_zsigmondy().ok",
        "assert sqrt_int(-15) * sqrt_int(-15) == -15",
        "assert FiniteField(2, 6).pow(2, 63) == 1",
        "print('sympy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


# -- the one square-and-multiply loop, through each of its callers -------------

POWERS = range(41)


def _products(x, one, mul=operator.mul):
    """x^0, x^1, ... x^40 as n-fold products."""
    out = [one]
    for _ in POWERS[1:]:
        out.append(mul(out[-1], x))
    return out


def test_permutation_powers_are_repeated_products():
    p = Permutation((3, 0, 4, 1, 2, 6, 5, 8, 9, 7))  # cycle type 5 + 3 + 2
    ident = Permutation.identity(10)
    assert [p ** n for n in POWERS] == _products(p, ident)
    assert [p ** -n for n in POWERS] == _products(p.inverse(), ident)


def test_cyclotomic_powers_are_repeated_products():
    x = zeta(12) + Cyclotomic.from_rational(Fraction(1, 2))
    assert [x ** n for n in POWERS] == _products(x, Cyclotomic.one())
    assert [x ** -n for n in POWERS] == _products(x.inv(), Cyclotomic.one())
    assert all(zeta(7, 3) ** n == zeta(7, 3 * n) for n in range(-40, 41))


@pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 3)])
def test_matrix_powers_are_repeated_products_and_refuse_negatives(p, k):
    F = FiniteField(p, k)
    m = FFMatrix(F, [[1, 1, 0], [0, F.gen_code, 1], [1, 0, 1]])
    assert [m ** n for n in POWERS] == _products(m, FFMatrix.identity(F, 3))
    with pytest.raises(ValueError):
        m ** -1


@pytest.mark.parametrize("p, k", [(7, 1), (2, 3), (2, 17)])
def test_field_powers_are_repeated_products(p, k):
    # GF(7) by the built-in pow, GF(8) by its log table, GF(2^17) (too big
    # for one) by square-and-multiply
    F = FiniteField(p, k)
    for a in (F.gen_code, F.q - 1, 0):
        assert [F.pow(a, n) for n in POWERS] == _products(a, 1, F.mul)
        if a:
            assert [F.pow(a, -n) for n in POWERS] == _products(F.inv(a), 1, F.mul)


def test_polynomial_powers_mod_are_repeated_products():
    F = FiniteField(3)
    mod = [2, 1, 0, 1]  # x^3 + x + 2
    f = [1, 2, 0, 1, 1]

    def mulmod(a, b):
        return _pdivmod(F, _pmul(F, a, b), mod)[1]

    assert [_ppowmod(F, f, n, mod) for n in POWERS] == \
        _products(_pdivmod(F, f, mod)[1], [1], mulmod)
