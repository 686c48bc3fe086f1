"""Zsigmondy parts of q^e - 1 and the small-value exception scan.

phi_star(q, e) is the largest divisor of q^e - 1 coprime to q^m - 1 for
all 1 <= m < e.  It is computed factorization-free by iterated gcd
stripping; only the (small) result is ever factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import sympy

__all__ = ["phi_star", "prime_divisors", "classify_small_zsigmondy",
           "ZsigmondyReport", "is_prime_power"]

FACTORIZATION_BOUND = 1 << 128


def is_prime_power(q: int):
    """Return (p, a) with q = p^a, or None. Exhaustive root extraction."""
    if q < 2:
        return None
    for a in range(q.bit_length(), 0, -1):
        r, exact = sympy.integer_nthroot(q, a) if a > 1 else (q, True)
        if exact and sympy.isprime(r):
            return int(r), a
    return None


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


def prime_divisors(n: int) -> list:
    """Complete sorted list of prime divisors of n (n within the 2^128 policy)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FACTORIZATION_BOUND:
        raise ValueError(f"factorization budget exceeded (n > 2^128)")
    if n == 1:
        return []
    return sorted(sympy.factorint(n))
