"""Zsigmondy parts of q^e - 1 and the small-value exception scan.

phi_star(q, e) is the largest divisor of q^e - 1 coprime to q^m - 1 for
all 1 <= m < e.  It is computed factorization-free by iterated gcd
stripping; only the (small) result is ever factored.

The factorizations of phi_star on the verify-paper grid (prime powers
q <= 64, 3 <= e <= 30, q^e - 1 <= 2^128) ship in ``data/zsigmondy.json``,
written by ``scripts/make_zsigmondy_certs.py``.  Nothing in the file is
trusted: on first use every phi_star is recomputed and divided down to 1
by its listed primes, each prime below 2^64 is proven by the deterministic
Miller-Rabin of ``_ntheory.is_prime``, and each prime from 2^64 up by its
Pratt certificate (Pratt, SIAM J. Comput. 4, 1975), checked with ``pow``
alone.  sympy is imported only to factor an n off that table.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from ._ntheory import MR_BOUND, factorize, is_prime, is_prime_power

__all__ = ["phi_star", "prime_divisors", "classify_small_zsigmondy",
           "ZsigmondyReport", "is_prime_power", "primes_have_order_e"]

FACTORIZATION_BOUND = 1 << 128
# The grid whose factorizations the certified table holds.
TABLE_Q_MAX, TABLE_E_MAX = 64, 30
# Primes below this are proven by Miller-Rabin, the rest by certificate.
CERTIFICATE_FLOOR = MR_BOUND
_TABLE_PATH = Path(__file__).parent / "data" / "zsigmondy.json"


@dataclass
class ZsigmondyReport:
    q: int
    e: int
    phi_star: int
    category: str  # generic | one | e_plus_1 | two_e_plus_1

    def to_json(self) -> dict:
        return {"q": self.q, "e": self.e, "phi_star": str(self.phi_star),
                "category": self.category}


def phi_star(q: int, e: int) -> int:
    """Largest divisor of q^e - 1 coprime to every q^m - 1, m < e."""
    if e < 1:
        raise ValueError("e must be positive")
    if is_prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    g = q ** e - 1
    for m in range(1, e):
        other = q ** m - 1
        d = gcd(g, other)
        while d > 1:
            g //= d
            d = gcd(g, other)
    return g


def _categorize(value: int, e: int) -> str:
    if value == 1:
        return "one"
    if value == e + 1:
        return "e_plus_1"
    if value == 2 * e + 1:
        return "two_e_plus_1"
    return "generic"


def _grid_reports(q_max: int, e_max: int, qe_bound: int):
    """Reports for prime powers q <= q_max and 3 <= e <= e_max with
    q^e - 1 <= qe_bound, q ascending, then e ascending."""
    for q in range(2, q_max + 1):
        if is_prime_power(q) is None:
            continue
        for e in range(3, e_max + 1):
            if q ** e - 1 > qe_bound:
                break
            val = phi_star(q, e)
            yield ZsigmondyReport(q, e, val, _categorize(val, e))


def classify_small_zsigmondy(q_max: int, e_max: int, qe_bound: int = FACTORIZATION_BOUND):
    """Scan prime powers q <= q_max, 3 <= e <= e_max; report the exceptional
    (q, e) with phi_star in {1, e+1, 2e+1}."""
    if e_max < 3:
        raise ValueError("e_max must be at least 3")
    return [r for r in _grid_reports(q_max, e_max, qe_bound) if r.category != "generic"]


def scan_reports(q_max: int, e_max: int, qe_bound: int = FACTORIZATION_BOUND):
    """All reports (generic included) on the same grid."""
    return list(_grid_reports(q_max, e_max, qe_bound))


def primes_have_order_e(q: int, e: int, n: int) -> bool:
    """True when q has multiplicative order exactly e modulo every prime
    p | n, hence p = 1 (mod e); n is never factored.  q^e = 1 (mod n) bounds
    each order by a divisor of e, and n coprime to q^(e/r) - 1 for every
    prime r | e rules out each proper divisor."""
    if n == 1:
        return True
    return pow(q, e, n) == 1 and all(gcd(n, q ** (e // r) - 1) == 1
                                     for r, _ in factorize(e))


def _require_ints(where: str, *values) -> None:
    if not all(type(v) is int for v in values):
        raise ValueError(f"{where}: expected integers, got {values!r}")


def _strip(n: int, primes, where: str) -> int:
    """Divide every listed prime out of n; return the cofactor.  The list
    must be strictly ascending and each prime must divide n."""
    if not isinstance(primes, list):
        raise ValueError(f"{where}: expected a list of primes, got {primes!r}")
    _require_ints(where, *primes)
    for prev, p in zip([1] + primes, primes):
        if p <= prev:
            raise ValueError(f"{where}: primes {primes} are not strictly ascending")
        if n % p:
            raise ValueError(f"{where}: {p} does not divide {n}")
        while n % p == 0:
            n //= p
    return n


@functools.cache
def _certified_table() -> dict:
    """Map phi_star(q, e) -> sorted tuple of its primes for every entry of
    ``_TABLE_PATH``, after proving every entry; a bad entry raises
    ``ValueError`` naming it."""
    data = json.loads(_TABLE_PATH.read_text())
    certificates = {}
    for row in data["certificates"]:
        p, a, rs = row
        _require_ints(f"certificate {row!r}", p, a)
        certificates[p] = (a, rs)
    proven = set()

    def prove(p: int, where: str) -> None:
        if p in proven:
            return
        if p < CERTIFICATE_FLOOR:
            if not is_prime(p):
                raise ValueError(f"{where}: {p} is not prime")
        else:
            if p not in certificates:
                raise ValueError(f"{where}: no certificate for {p}")
            a, rs = certificates[p]
            at = f"{where}, certificate of {p}"
            if not 2 <= a < p or pow(a, p - 1, p) != 1:
                raise ValueError(f"{at}: witness {a} fails a^(p-1) = 1 (mod p)")
            if _strip(p - 1, rs, at) != 1:
                raise ValueError(f"{at}: the listed primes leave a cofactor of p - 1")
            for r in rs:
                if pow(a, (p - 1) // r, p) == 1:
                    raise ValueError(f"{at}: witness {a} has a^((p-1)/{r}) = 1 (mod p)")
                prove(r, at)
        proven.add(p)

    table = {}
    for row in data["factorizations"]:
        q, e, primes = row
        where = f"{_TABLE_PATH.name} entry (q={q}, e={e})"
        _require_ints(where, q, e)
        # e <= 128 first, so that q ** e stays small for any q >= 2
        if not (q >= 2 and 1 <= e <= 128 and q ** e - 1 <= FACTORIZATION_BOUND
                and is_prime_power(q)):
            raise ValueError(f"{where}: off the grid (q is not a prime power, "
                             "or q^e - 1 > 2^128)")
        n = phi_star(q, e)
        if _strip(n, primes, where) != 1:
            raise ValueError(f"{where}: the listed primes leave a cofactor of phi_star")
        for p in primes:
            prove(p, where)
        table[n] = tuple(primes)
    return table


def prime_divisors(n: int) -> list:
    """Complete sorted list of prime divisors of n (n within the 2^128 policy).

    phi_star values of the certified table are answered from it; any other
    n is factored by ``sympy.factorint``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FACTORIZATION_BOUND:
        raise ValueError("factorization budget exceeded (n > 2^128)")
    if n == 1:
        return []
    primes = _certified_table().get(n)
    if primes is not None:
        return list(primes)
    import sympy
    return sorted(sympy.factorint(n))
