"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is stored as integer coefficients over one positive common
denominator on a fixed integral basis of Q(zeta_e), with the denominator
and the coefficients kept coprime.  Equality is therefore decidable
structurally and there are no tolerances anywhere; character values are
algebraic integers, so they always carry the denominator 1.  The basis at
conductor e = prod p^a is the tensor product of the power bases of the
Q(zeta_{p^a}): an exponent j in [0, e) is a basis exponent iff
(j mod p^a) < phi(p^a) for every prime power p^a || e.  Out-of-basis
exponents are rewritten with the relation
zeta^{(p-1)p^{a-1}} = -(1 + zeta^{p^{a-1}} + ... + zeta^{(p-2)p^{a-1}})
applied to the p-component only.

After every operation the conductor is reduced to the minimal one: the
value lies in Q(zeta_{e/p}) iff every basis exponent in its support is
divisible by p, in which case exponents divide through by p.  Rationals
therefore always end up at conductor 1, and conductors 2 mod 4 never
survive reduction.

The operators ``a + b`` and ``a * b`` are the two- and one-term cases of
one kernel, ``sum_of_products`` (a*1 + b*1 and a*b, at the lcm of the
conductors), which accumulates raw integer coefficients at one conductor
and canonicalizes once.  Only multiplication by an int or a Fraction
bypasses it, scaling the numerator and the denominator directly.  Sums of
many products are best formed with one ``sum_of_products`` call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._ntheory import factorize

__all__ = ["Cyclotomic", "zeta", "sqrt_int", "sum_of_products"]


@lru_cache(maxsize=None)
def _conductor_data(e: int):
    """Per-conductor structure: [(p, p^a, phi(p^a), crt_unit), ...].

    crt_unit c_p satisfies c_p = 1 mod p^a and c_p = 0 mod e/p^a, so adding
    delta*c_p to an exponent shifts its p-component by delta and fixes the
    rest.
    """
    data = []
    for p, a in factorize(e):
        pa = p ** a
        rest = e // pa
        data.append((p, pa, pa - pa // p, rest * pow(rest, -1, pa) % e))
    return tuple(data)


def _rewrite(e: int, num: dict) -> dict:
    """Rewrite integer coefficients (exponents in [0, e)) onto the basis at
    conductor e, one prime at a time; zero coefficients are dropped."""
    for p, pa, phi_pa, cp in _conductor_data(e):
        if all(j % pa < phi_pa for j in num):
            continue
        shift = cp * (pa // p)
        nxt: dict = {}
        for j, c in num.items():
            if not c:
                continue
            s = j % pa
            if s < phi_pa:
                nxt[j] = nxt.get(j, 0) + c
                continue
            # p-component s = phi + u becomes u + i*p^{a-1}, i < p-1
            jj = j - cp * phi_pa
            for _ in range(p - 1):
                jj %= e
                nxt[jj] = nxt.get(jj, 0) - c
                jj += shift
        num = nxt
    return {j: c for j, c in num.items() if c}


def _canonicalize(e: int, num: dict) -> tuple[int, dict]:
    """Rewrite onto the basis at conductor e, then minimize the conductor."""
    num = _rewrite(e, num)
    if not num:
        return 1, {}
    if len(num) == 1 and 0 in num:  # rational: 0 is a basis exponent everywhere
        return 1, num
    while e > 1:
        for p, _, _, _ in _conductor_data(e):
            if not any(j % p for j in num):
                e //= p
                # re-express on the basis of the smaller conductor
                num = _rewrite(e, {j // p: c for j, c in num.items()})
                break
        else:
            break
    return e, num


def _new(e: int, num: dict, den: int) -> "Cyclotomic":
    """A Cyclotomic from parts already canonical; reduces num/den by their gcd."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {j: c // g for j, c in num.items()}
    x = object.__new__(Cyclotomic)
    x.e = e
    x.num = num
    x.den = den
    return x


def _from_raw(e: int, num: dict, den: int = 1) -> "Cyclotomic":
    """A Cyclotomic from integer coefficients at conductor e (exponents in
    [0, e), any basis) over the denominator den > 0."""
    e, num = _canonicalize(e, num)
    return _new(e, num, den if num else 1)


class Cyclotomic:
    """An element of Q(zeta_e), exact and in canonical form: the value is
    sum(num[j] * zeta_e^j) / den."""

    __slots__ = ("e", "num", "den")

    def __init__(self, e: int, coeffs: dict | None = None):
        if e < 1:
            raise ValueError("conductor must be positive")
        terms: dict = {}
        for j, c in (coeffs or {}).items():
            if c:
                terms[j % e] = terms.get(j % e, 0) + (c if type(c) is int else Fraction(c))
        # ints and Fractions alike have .numerator and .denominator
        den = lcm(*(c.denominator for c in terms.values()))
        num = {j: c.numerator * (den // c.denominator) for j, c in terms.items()}
        x = _from_raw(e, num, den)
        self.e, self.num, self.den = x.e, x.num, x.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "Cyclotomic":
        x = Fraction(x)
        return _new(1, {0: x.numerator} if x else {}, x.denominator)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return _new(1, {}, 1)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return _new(1, {0: 1}, 1)

    # -- predicates / extractors ------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The coefficients as {exponent: Fraction}."""
        return {j: Fraction(c, self.den) for j, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return self.e == 1

    def rational(self) -> Fraction:
        if self.e != 1:
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self.num.get(0, 0), self.den)

    def is_integer(self) -> bool:
        return self.e == 1 and self.den == 1

    def integer(self) -> int:
        if self.e != 1:
            raise ValueError(f"not a rational value: {self}")
        if self.den != 1:
            raise ValueError(f"not an integer: {self}")
        return self.num.get(0, 0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        return sum_of_products(lcm(self.e, o.e), ((self, _ONE, 1), (o, _ONE, 1)))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.e, {j: -c for j, c in self.num.items()}, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.num:
                return Cyclotomic.zero()
            f = Fraction(other)
            return _new(self.e, {j: c * f.numerator for j, c in self.num.items()},
                        self.den * f.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if not self.num or not other.num:
            return Cyclotomic.zero()
        if other.e == 1:
            return self * other.rational()
        if self.e == 1:
            return other * self.rational()
        return sum_of_products(lcm(self.e, other.e), ((self, other, 1),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        r = Cyclotomic.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def galois(self, a: int) -> "Cyclotomic":
        """Apply the automorphism zeta_e -> zeta_e^a (a coprime to e)."""
        e = self.e
        if e == 1:
            return self
        a %= e
        if gcd(a, e) != 1:
            raise ValueError(f"galois exponent {a} not coprime to conductor {e}")
        return _from_raw(e, {j * a % e: c for j, c in self.num.items()}, self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation: zeta_e -> zeta_e^{-1}."""
        if self.e <= 2:
            return self
        return self.galois(self.e - 1)

    def inv(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic")
        if self.e == 1:
            return Cyclotomic.from_rational(1 / self.rational())
        prod = Cyclotomic.one()
        for a in range(2, self.e):
            if gcd(a, self.e) == 1:
                prod = prod * self.galois(a)
        norm = self * prod
        if not norm.is_rational():
            raise AssertionError("norm failed to land in Q")
        return prod * (1 / norm.rational())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self * other.inv()
        return NotImplemented

    # -- container protocol -------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.e == o.e and self.den == o.den and self.num == o.num

    def __hash__(self):
        if self.den == 1:  # hash(Fraction(c)) == hash(c)
            return hash((self.e, frozenset(self.num.items())))
        return hash((self.e, frozenset(self.coeffs.items())))

    def _terms(self):
        """(j, numerator, denominator) of each coefficient in lowest terms,
        j ascending."""
        den = self.den
        if den == 1:
            return [(j, self.num[j], 1) for j in sorted(self.num)]
        out = []
        for j in sorted(self.num):
            c = self.num[j]
            g = gcd(c, den)
            out.append((j, c // g, den // g))
        return out

    def sort_key(self):
        return (self.e, tuple(self._terms()))

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, n, d in self._terms():
            c = Fraction(n, d)
            if j == 0:
                parts.append(str(c))
            else:
                z = f"z{self.e}" if j == 1 else f"z{self.e}^{j}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        s = "+".join(parts).replace("+-", "-")
        return s

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Spec wire format: {"e": int, "coeffs": [[j, num, den], ...]}, j ascending,
        each coefficient in lowest terms."""
        return {"e": self.e, "coeffs": [list(t) for t in self._terms()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Cyclotomic":
        e = obj["e"]
        coeffs = {}
        for j, num, den in obj["coeffs"]:
            coeffs[int(j)] = Fraction(int(num), int(den))
        return cls(int(e), coeffs)


def sum_of_products(e: int, terms) -> Cyclotomic:
    """The sum of a * b * scale over (a, b, scale) terms, canonicalized once.

    a and b are Cyclotomics whose conductors divide e; scale must be an int
    or a Fraction, since it is not coerced.  Raw integer coefficients
    accumulate at conductor e over one common denominator, so the result
    equals the operator fold sum(a * b * scale) at the cost of a single
    canonicalization.
    """
    out: dict = {}
    den = 1
    for a, b, scale in terms:
        if not a.num or not b.num or not scale:
            continue
        if e % a.e or e % b.e:
            raise ValueError(f"conductors {a.e}, {b.e} do not divide {e}")
        d = a.den * b.den
        if type(scale) is not int:
            d *= scale.denominator
            scale = scale.numerator
        if d != den:
            new = lcm(den, d)
            if new != den:
                grow = new // den
                out = {j: c * grow for j, c in out.items()}
                den = new
            scale *= den // d
        ma, mb = e // a.e, e // b.e
        bt = [(jb * mb, cb * scale) for jb, cb in b.num.items()]
        for ja, ca in a.num.items():
            base = ja * ma
            for jb, cb in bt:
                j = (base + jb) % e
                out[j] = out.get(j, 0) + ca * cb
    return _from_raw(e, out, den)


_ONE = Cyclotomic.one()


def zeta(e: int, j: int = 1) -> Cyclotomic:
    """The root of unity zeta_e^j."""
    return Cyclotomic(e, {j % e: 1})


def sqrt_int(n: int) -> Cyclotomic:
    """Exact square root of an integer as a cyclotomic number.

    Uses quadratic Gauss sums: sum_a legendre(a,p) zeta_p^a equals sqrt(p)
    for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4; sqrt(2) = zeta_8 + zeta_8^-1
    and sqrt(-1) = zeta_4.  Each Gauss sum is built as one coefficient dict
    and canonicalized once at conductor p, so its cost is linear in p; adding
    the p-1 terms one by one would re-canonicalize each time and cost O(p^2).
    """
    if n == 0:
        return Cyclotomic.zero()
    neg = n < 0
    square = 1
    i_factors = 0
    out = Cyclotomic.one()
    for p, a in factorize(abs(n)):
        square *= p ** (a // 2)
        if a % 2 == 0:
            continue
        if p == 2:
            out = out * (zeta(8) + zeta(8, 7))
            continue
        gauss = Cyclotomic(p, {t: 1 if pow(t, (p - 1) // 2, p) == 1 else -1 for t in range(1, p)})
        if p % 4 == 3:
            i_factors += 1  # gauss = i*sqrt(p)
        out = out * gauss
    out = out * square
    if neg:
        i_factors -= 1  # multiply by i overall
    i_factors %= 4
    if i_factors == 1:
        out = out * zeta(4, 3)  # divide by i once: * (-i)
    elif i_factors == 2:
        out = -out
    elif i_factors == 3:
        out = out * zeta(4)
    return out
