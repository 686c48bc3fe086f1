"""Small-integer number theory: primality, factoring, primitive roots.

Every number factored here is small (an extension degree, a field order
q - 1, a Dixon p - 1, a conductor), so trial division is enough.  Primality
is a deterministic Miller-Rabin below ``MR_BOUND``; only numbers from
outside (``cgtkit zsigmondy --q``) reach the ``sympy.isprime`` fallback
above it.  Nothing here is cached, so there is no state for a session
reset to miss.
"""

from __future__ import annotations

__all__ = ["MR_BOUND", "is_prime", "factorize", "primitive_root", "is_prime_power"]

MR_BOUND = 1 << 64
# The first 12 primes.  No composite below 318665857834031151167461
# (about 3.2e23 > 2^64) is a strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on ``_MR_BASES`` below ``MR_BOUND``,
    ``sympy.isprime`` from there up."""
    if n >= MR_BOUND:
        import sympy
        return sympy.isprime(n)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # no prime factor up to 37, so none at all
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list:
    """[(p, a), ...] with n = prod p^a, p ascending, by trial division;
    n >= 1 (every caller's n is below 2^32)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p (1 for p = 2)."""
    rs = [r for r, _ in factorize(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in rs))


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n, k >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(q: int):
    """Return (p, a) with q = p^a and p prime, or None.  The largest a with
    q a perfect a-th power decides: q is a prime power iff that root is prime."""
    if q < 2:
        return None
    for a in range(q.bit_length() - 1, 1, -1):
        r = _iroot(q, a)
        if r ** a == q:
            return (r, a) if is_prime(r) else None
    return (q, 1) if is_prime(q) else None
