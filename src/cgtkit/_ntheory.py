"""Small-integer number theory: primality, factoring, primitive roots,
and the toolkit's one square-and-multiply loop.

Every number factored here is small (an extension degree, a field order
q - 1, a Dixon p - 1, a conductor), so trial division is enough.  Primality
is a deterministic Miller-Rabin below ``MR_BOUND`` that stops after the
first k prime bases once n < psi_k, the least strong pseudoprime to those
k bases (Jaeschke, Math. Comp. 61, 1993, for k <= 8; Jiang and Deng, Math.
Comp. 83, 2014, for k = 9..11; Sorenson and Webster, Math. Comp. 86, 2017,
for k = 12); so a prime below 2^32 costs at most 4 bases.  Only
numbers from outside (``cgtkit zsigmondy --q``) reach the
``sympy.isprime`` fallback above ``MR_BOUND``.  Nothing here is cached,
so there is no state for a session reset to miss.

``_power`` raises anything with an associative product to a power
n >= 0: permutations, cyclotomic numbers, matrices and codes over a finite
field, and polynomials modulo another.  Each caller keeps its own rule for
n < 0 (invert first, or refuse).
"""

from __future__ import annotations

import operator

__all__ = ["MR_BOUND", "is_prime", "factorize", "primitive_root", "is_prime_power"]

MR_BOUND = 1 << 64
# The first 12 primes, and psi_k (OEIS A014233): the least composite that
# is a strong pseudoprime to each of the first k of them.  psi_12, about
# 3.2e23, exceeds 2^64, so the 12 bases decide every n below MR_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below ``MR_BOUND``, ``sympy.isprime``
    from there up.  The bases of ``_MR_BASES`` run in order, and n is
    prime once it passes the first k with n < psi_k: by the definition of
    psi_k, a composite below it fails one of those k bases."""
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
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:  # psi_12 > MR_BOUND: the 12th base always ends here
            return True


def _power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply, with `one` the identity and
    `mul` the product; a negative n is refused."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    r = one
    while n:
        if n & 1:
            r = mul(r, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return r


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
