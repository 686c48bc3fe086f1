"""The number-theory kit against sympy's own functions, and the exact paths
that run on it without loading sympy."""

import os
import subprocess
import sys
from math import prod

import pytest
import sympy

from cgtkit._ntheory import MR_BOUND, factorize, is_prime, is_prime_power, primitive_root
from cgtkit.cyclotomic import _conductor_data
from cgtkit.finitefield import FiniteField

# 2^61 - 1, 2^89 - 1 and 2^127 - 1 are prime; the rest are powers or near misses
LARGE = [2**61 - 1, (2**61 - 1)**2, 3**40, 2**89 - 1, (2**89 - 1)**3, 2**127, 2**127 - 1,
         10**30]


def test_is_prime_matches_sympy():
    for n in range(-2, 20000):
        assert is_prime(n) == sympy.isprime(n), n
    # psi_4, psi_8 and psi_9: the least strong pseudoprimes to the first
    # 4, 8 and 9 prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        assert not is_prime(n)
    for n in [MR_BOUND - 59, MR_BOUND + 1, MR_BOUND + 13] + LARGE:
        assert is_prime(n) == sympy.isprime(n), n


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
