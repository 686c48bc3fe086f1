"""Finite fields GF(p^k) with deterministic defining polynomials.

Defining polynomials follow the Conway-polynomial convention, computed on
demand (lexicographically least primitive polynomial, in the Conway word
order, compatible with the Conway polynomials of all proper subfields).
That makes serialized field elements and subfield embeddings reproducible:
GF(p^k) embeds in GF(p^K) by sending the canonical generator to
g^((p^K-1)/(p^k-1)).

Elements are integer codes in [0, p^k): the base-p digits are the
coefficients of the polynomial residue, little-endian.  Small fields get
log/exp tables so multiplication is two lookups.

The module holds the toolkit's one set of polynomial helpers: dense
little-endian lists of codes over any ``FiniteField`` F (trim, multiply,
divmod, powmod, monic gcd), on F's own arithmetic.  The Conway search and
the tableless multiplication run them over GF(p), and ``fflinalg``'s
minimal polynomials over the matrix's field.  C_{p,1} = x - r for the
least primitive root r, so GF(p) itself needs no polynomial arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from ._ntheory import _power, factorize, is_prime, primitive_root

__all__ = ["FiniteField", "conway_polynomial"]

_LOG_TABLE_LIMIT = 1 << 16


# -- polynomials over a FiniteField F: dense little-endian lists of codes --
# A trimmed list ends in a nonzero code; [] is the zero polynomial.

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f

def _pmul(F, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return out

def _pdivmod(F, f, g):
    """(quotient, trimmed remainder) of f by the trimmed nonzero g."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = F.inv(g[-1])
    q = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        if f[i]:
            c = F.mul(f[i], inv_lead)
            q[i - dg] = c
            for j, b in enumerate(g):
                f[i - dg + j] = F.sub(f[i - dg + j], F.mul(c, b))
    return q, _ptrim(f)

def _ppowmod(F, f, n, mod):
    """f^n reduced mod `mod`, for n >= 0."""
    return _power(_pdivmod(F, f, mod)[1], n, [1],
                  lambda a, b: _pdivmod(F, _pmul(F, a, b), mod)[1])

def _pgcd(F, f, g):
    """Monic gcd of f and g ([] when both are zero)."""
    f, g = _ptrim(list(f)), _ptrim(list(g))
    while g:
        f, g = g, _pdivmod(F, f, g)[1]
    if f:
        inv = F.inv(f[-1])
        f = [F.mul(c, inv) for c in f]
    return f

@lru_cache(maxsize=None)
def conway_polynomial(p: int, k: int) -> tuple:
    """Conway polynomial C_{p,k}, little-endian monic coefficient tuple."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k == 1:
        # x - r, r the least residue of order p - 1: the first primitive
        # polynomial in the Conway word order
        return ((-primitive_root(p)) % p, 1)
    Fp = FiniteField(p)
    q = p ** k
    qfactors = [r for r, _ in factorize(q - 1)]
    subs = [(d, conway_polynomial(p, d)) for d in range(1, k) if k % d == 0]

    def is_primitive(f):
        # x of order q - 1 mod f makes GF(p)[x]/(f) a field: a ring of q
        # elements with a zero divisor has fewer than q - 1 units
        x = [0, 1]
        return _ppowmod(Fp, x, q - 1, f) == [1] and all(
            _ppowmod(Fp, x, (q - 1) // r, f) != [1] for r in qfactors)

    def compatible(f):
        for d, cd in subs:
            y = _ppowmod(Fp, [0, 1], (q - 1) // (p ** d - 1), f)
            # evaluate C_{p,d} at y mod f, by Horner's rule
            acc = []
            for c in reversed(cd):
                acc = _pdivmod(Fp, _pmul(Fp, acc, y), f)[1] or [0]
                acc[0] = Fp.add(acc[0], c)
            if _ptrim(acc):
                return False
        return True

    # enumerate candidates in the Conway word order:
    # minimize ((-1)^(k-i) a_i mod p) for i = k-1, ..., 0 lexicographically
    def word_to_poly(word):
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        for idx, w in enumerate(word):
            i = k - 1 - idx
            sign = -1 if (k - i) % 2 else 1
            coeffs[i] = (sign * w) % p
        return coeffs

    word = [0] * k
    while True:
        f = word_to_poly(word)
        if f[0] != 0 and is_primitive(f) and compatible(f):
            return tuple(f)
        i = k - 1
        while i >= 0 and word[i] == p - 1:
            word[i] = 0
            i -= 1
        if i < 0:
            raise AssertionError(f"no Conway polynomial found for ({p},{k})")
        word[i] += 1


class FiniteField:
    """GF(p^k) with integer-coded elements and cached arithmetic tables."""

    _cache: dict = {}

    def __new__(cls, p: int, k: int = 1):
        key = (p, k)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        self._init(p, k)
        cls._cache[key] = self
        return self

    def _init(self, p: int, k: int):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        self.poly = conway_polynomial(p, k)
        self._pows = [p ** i for i in range(k + 1)]
        self._log = None
        self._exp = None
        if k > 1 and self.q <= _LOG_TABLE_LIMIT:
            self._build_tables()

    # generator: the residue class of x for k > 1, else the smallest
    # primitive root (the root of the Conway polynomial x - r)
    @property
    def gen_code(self) -> int:
        if self.k == 1:
            return (-self.poly[0]) % self.p
        return self.p  # digits (0, 1, 0, ...) = x

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        exp = [0] * (q - 1)
        vec = [1] + [0] * (k - 1)
        mod = list(self.poly)
        for i in range(q - 1):
            exp[i] = sum(c * self._pows[j] for j, c in enumerate(vec))
            # multiply by x
            vec = [0] + vec[:-1] if vec[-1] == 0 else self._mulx_reduce(vec, mod)
        log = [0] * q
        for i, code in enumerate(exp):
            log[code] = i
        self._exp = exp
        self._log = log

    def _mulx_reduce(self, vec, mod):
        lead = vec[-1]
        out = [0] + vec[:-1]
        if lead:
            for j in range(self.k):
                out[j] = (out[j] - lead * mod[j]) % self.p
        return out

    # -- code-level arithmetic --------------------------------------------

    def digits(self, a: int):
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return out

    def from_digits(self, digs) -> int:
        return sum(int(d) % self.p * self._pows[i] for i, d in enumerate(digs))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mul = self.p, 0, 1
        for _ in range(self.k):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        p, out, mul = self.p, 0, 1
        for _ in range(self.k):
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        Fp = FiniteField(self.p)
        return self.from_digits(
            _pdivmod(Fp, _pmul(Fp, self.digits(a), self.digits(b)), self.poly)[1])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self._log is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        n = int(n)
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.k == 1:
            return pow(a, n, self.p)
        if self._log is not None and a != 0:
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        return _power(a, n, 1, self.mul)

    def embed(self, a: int, big: "FiniteField") -> int:
        """Canonical (Conway-compatible) embedding into GF(p^K), k | K."""
        if big.p != self.p or big.k % self.k:
            raise ValueError("no embedding")
        if big is self:
            return a
        img_gen = big.pow(big.gen_code, (big.q - 1) // (self.q - 1))
        # write a in powers of the small generator? cheaper: digits are in
        # the x-basis, and x itself is the generator for k > 1
        if self.k == 1:
            return a % self.p
        out, xpow = 0, 1
        for d in self.digits(a):
            if d:
                out = big.add(out, big.mul(d % self.p, xpow))
            xpow = big.mul(xpow, img_gen)
        return out

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

