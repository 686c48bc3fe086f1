"""Published reference values and the checks that hold workload outputs to them.

Every reference here comes from outside cgtkit: the ATLAS of Finite Groups,
the classical character degrees of L2(q), the paper's Table 5 and lists,
Zsigmondy's theorem, and closed forms evaluated here in exact arithmetic.
No check compares against a stored copy of the program's output.

Each ``check_*`` function takes the plain-data record a job produced and
returns a list of failure messages; an empty list means the record holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

import sympy

# -- sources --------------------------------------------------------------------

# Order and sorted irreducible degrees: ATLAS of Finite Groups (Conway,
# Curtis, Norton, Parker, Wilson, 1985).  The class count is the number of
# degrees.
ATLAS = {
    "M11": (7920, [1, 10, 10, 10, 11, 16, 16, 44, 45, 55]),
    "M12": (95040, [1, 11, 11, 16, 16, 45, 54, 55, 55, 55, 66, 99, 120, 144, 176]),
    "J1": (175560, [1, 56, 56, 76, 76, 77, 77, 77, 120, 120, 120, 133, 133, 133,
                    209]),
    "M22": (443520, [1, 21, 45, 45, 55, 99, 154, 210, 231, 280, 280, 385]),
    "U3(3)": (6048, [1, 6, 7, 7, 7, 14, 21, 21, 21, 27, 28, 28, 32, 32]),
    "Sz(8)": (29120, [1, 14, 14, 35, 35, 35, 64, 65, 65, 65, 91]),
    "SL3(2)": (168, [1, 3, 3, 6, 7, 8]),
}

# The paper's Table 5: class C and the pair n_1(C) | n_-2(C).
TABLE5 = {
    "M12": ("11a", 640, 1180),
    "J1": ("19a", 496, 419),
    "M22": ("11a", 3632, 3776),
}

# Zsigmondy (1892): for e >= 3, q^e - 1 has a primitive prime divisor except
# for (q, e) = (2, 6).  The e+1 and 2e+1 lists are the paper's small-value
# exceptions on the grid q <= 64, 3 <= e <= 30.
ZSIG_ONE = [(2, 6)]
ZSIG_E_PLUS_1 = [(2, 4), (2, 10), (2, 12), (2, 18), (3, 4), (3, 6), (5, 6)]
ZSIG_TWO_E_PLUS_1 = [(2, 3), (2, 8), (2, 20), (4, 3), (4, 6)]

# The paper's A10 count for the class 7a with a = 1: all pairs, generating
# pairs, and pairs generating A9 (orbits 9+1) or A8 (orbits 8+1+1).
A10_COUNTS = {"total": 7446, "generating": 42, "A9": 2856, "A8": 3717}

# Proposition 7.7: the orders of a class pair that covers A_n minus 1.  For
# n = 10 the (5, 7) entry is an erratum (no such pair covers); the statement
# holds through the two odd coprime pairs pinned in cgtkit's verify suite.
PROP77_ORDERS = {7: (5, 7), 8: (3, 7), 9: (3, 7), 10: (5, 7), 11: (5, 11),
                 12: (5, 11), 13: (11, 13), 14: (11, 13), 15: (11, 13),
                 16: (7, 13)}
PROP77_A10_PAIRS = [("7+1+1+1", "5+3+1+1"), ("5+5", "9+1a")]

# Sz(8): n_1(13a) from the paper, and the lower bound n_1 >= |G| / 13^2.
SZ8_N1_13A = 273
SZ8_ORDER = 29120


# -- L2(q) -------------------------------------------------------------------------

def l2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def l2_degrees(q: int) -> list:
    """Classical degree multiset of L2(q) (Jordan 1907, Schur 1907)."""
    if q % 2 == 0:
        degs = [1, q] + [q + 1] * ((q - 2) // 2) + [q - 1] * (q // 2)
    elif q % 4 == 1:
        degs = [1, q] + [(q + 1) // 2] * 2 + [q + 1] * ((q - 5) // 4) \
            + [q - 1] * ((q - 1) // 4)
    else:
        degs = [1, q] + [(q - 1) // 2] * 2 + [q + 1] * ((q - 3) // 4) \
            + [q - 1] * ((q - 3) // 4)
    return sorted(degs)


def macbeath_hypothesis(q: int, order: int) -> bool:
    """The rank-1 coverage hypothesis on a nontrivial class of L2(q): q odd
    needs an element that is not unipotent and has order > 2; q even needs an
    order that does not divide q + 1."""
    if q % 2:
        return order != _smallest_prime(q) and order > 2
    return (q + 1) % order != 0


# -- Sz(8) closed form -------------------------------------------------------------

class _QSqrt2:
    """a + b*sqrt(2) with rational a, b."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        o = _lift(o)
        return _QSqrt2(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        o = _lift(o)
        return _QSqrt2(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        o = _lift(o)
        return _QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _QSqrt2(1)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, o):
        o = _lift(o)
        norm = o.a * o.a - 2 * o.b * o.b
        return self * _QSqrt2(o.a / norm, -o.b / norm)


def _lift(x):
    return x if isinstance(x, _QSqrt2) else _QSqrt2(x)


def sz8_eps_closed_form() -> Fraction:
    """eps_1(13a) for Sz(q), q = 2^(2m+1), at q = 8, written with
    Q = sqrt(q) = 2 sqrt 2 as in the paper's closed form."""
    s2 = _QSqrt2(0, 1)
    Q = 2 * s2
    num = 4 * Q ** 5 + 11 * s2 * Q ** 4 + 6 * Q ** 3 - 2 * Q + s2
    den = s2 * Q ** 4 * (Q * Q - 1) * (Q * Q - s2 * Q + 1)
    value = num / den
    if value.b:
        raise AssertionError("closed form left Q")
    return value.a


# -- Zsigmondy ----------------------------------------------------------------------

def _smallest_prime(n: int) -> int:
    p = 2
    while n % p:
        p += 1
    return p


def _prime_factors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _mobius(n: int) -> int:
    ps = _prime_factors(n)
    m = n
    for p in ps:
        m //= p
    return 0 if m != 1 else (-1) ** len(ps)


def is_prime_power(q: int) -> bool:
    return q > 1 and len(_prime_factors(q)) == 1


def phi_star_reference(q: int, e: int) -> int:
    """phi*_e(q) from the cyclotomic value Phi_e(q) = prod_{d|e} (q^d-1)^mu(e/d).

    A prime dividing Phi_e(q) either has q of order e mod p (a primitive
    divisor, p = 1 mod e) or divides e, so phi* is Phi_e(q) with every prime
    of e divided out.
    """
    num, den = 1, 1
    for d in range(1, e + 1):
        if e % d:
            continue
        mu = _mobius(e // d)
        if mu == 1:
            num *= q ** d - 1
        elif mu == -1:
            den *= q ** d - 1
    value, rem = divmod(num, den)
    if rem:
        raise AssertionError("Phi_e(q) is not an integer")
    for p in _prime_factors(e):
        while value % p == 0:
            value //= p
    return value


def zsigmondy_grid(q_max: int, e_max: int, bound: int) -> list:
    """(q, e) for prime powers q <= q_max, 3 <= e <= e_max, q^e - 1 <= bound."""
    return [(q, e) for q in range(2, q_max + 1) if is_prime_power(q)
            for e in range(3, e_max + 1) if q ** e - 1 <= bound]


# -- checks ---------------------------------------------------------------------------

def _expect(failures: list, label: str, want, got) -> None:
    if want != got:
        failures.append(f"{label}: expected {want!r}, got {got!r}")


def _check_table_shape(failures, name, order, n_classes, degrees, rec):
    _expect(failures, f"{name}.order", order, rec["order"])
    _expect(failures, f"{name}.n_classes", n_classes, rec["n_classes"])
    _expect(failures, f"{name}.degrees", degrees, sorted(rec["degrees"]))
    _expect(failures, f"{name}.sum_deg2", order, sum(d * d for d in rec["degrees"]))
    _expect(failures, f"{name}.neumann_ok", True, rec["neumann_ok"])


def check_sporadic(rec: dict) -> list:
    """One sporadic group: ATLAS shape, Neumann scan, and the brute-force
    count equal to the character formula; for a Table 5 group both equal the
    paper's pair."""
    name = rec["group"]
    order, degrees = ATLAS[name]
    failures: list = []
    _check_table_shape(failures, name, order, len(degrees), degrees, rec)
    _expect(failures, f"{name}.brute_vs_formula", tuple(rec["formula"]),
            tuple(rec["brute"]))
    if name in TABLE5:
        _, n1, nm2 = TABLE5[name]
        _expect(failures, f"{name}.table5.formula", (n1, nm2), tuple(rec["formula"]))
        _expect(failures, f"{name}.table5.brute", (n1, nm2), tuple(rec["brute"]))
    return failures


def check_small_group(rec: dict) -> list:
    """One small table: class count and degrees, r-th powers, Neumann scan,
    and for L2(q) Macbeath coverage of every class in the hypothesis."""
    name = rec["group"]
    q = rec.get("q")
    if q is not None:
        order, degrees = l2_order(q), l2_degrees(q)
        n_classes = q + 1 if q % 2 == 0 else (q + 5) // 2
    else:
        order, degrees = ATLAS[name]
        n_classes = len(degrees)
    failures: list = []
    _check_table_shape(failures, name, order, n_classes, degrees, rec)
    _expect(failures, f"{name}.powers_not_ok", [], rec["powers_not_ok"])
    if q is not None:
        mac = rec["macbeath"]
        _expect(failures, f"{name}.macbeath_classes", len(degrees) - 1, len(mac))
        hyp = [(cname, covered) for cname, o, covered in mac
               if macbeath_hypothesis(q, o)]
        if not hyp:
            failures.append(f"{name}.macbeath: no class in the hypothesis")
        _expect(failures, f"{name}.macbeath_uncovered", [],
                [cname for cname, covered in hyp if not covered])
    return failures


def check_sz8(rec: dict) -> list:
    failures: list = []
    _expect(failures, "Sz(8).n1_13a", SZ8_N1_13A, rec["n1_13a"])
    _expect(failures, "Sz(8).eps_closed_form", sz8_eps_closed_form(), rec["eps"])
    _expect(failures, "Sz(8).lower_bound", True,
            Fraction(rec["n1_13a"]) >= Fraction(SZ8_ORDER, 13 * 13))
    return failures


def check_u33_covers(rec: dict) -> list:
    failures: list = []
    _expect(failures, "U3(3).covers", {c: True for c in ("7a", "7b", "8a", "8b")},
            rec["covers"])
    return failures


def check_scott(rec: dict) -> list:
    """Scott's inequality on every sampled generating tuple."""
    failures: list = []
    _expect(failures, f"scott.{rec['module']}.tuples", rec["wanted"], rec["tuples"])
    _expect(failures, f"scott.{rec['module']}.violations", 0, rec["violations"])
    return failures


def check_zsigmondy(rec: dict) -> list:
    """Exception lists against Zsigmondy and the paper; every factorization
    against an independent phi* and the 1 mod e property."""
    failures: list = []
    _expect(failures, "zsig.one", ZSIG_ONE, rec["one"])
    _expect(failures, "zsig.e_plus_1", ZSIG_E_PLUS_1, rec["e_plus_1"])
    _expect(failures, "zsig.two_e_plus_1", ZSIG_TWO_E_PLUS_1, rec["two_e_plus_1"])
    grid = zsigmondy_grid(rec["q_max"], rec["e_max"], rec["bound"])
    factored = rec["factored"]
    _expect(failures, "zsig.grid", grid, sorted(factored))
    for (q, e), (phi, primes) in sorted(factored.items()):
        label = f"zsig.q{q}.e{e}"
        _expect(failures, f"{label}.phi_star", phi_star_reference(q, e), phi)
        rest = phi
        for p in primes:
            if not sympy.isprime(p) or p % e != 1 or rest % p:
                failures.append(f"{label}: bad prime divisor {p}")
                break
            while rest % p == 0:
                rest //= p
        _expect(failures, f"{label}.cofactor", 1, rest)
    return failures


def check_a10(rec: dict) -> list:
    """A10 class 7a, counted without classifying: the paper's total, and the
    character formula agreeing with it."""
    failures: list = []
    _expect(failures, "a10.total", A10_COUNTS["total"], rec["total"])
    _expect(failures, "a10.formula", A10_COUNTS["total"], rec["formula"])
    return failures


def check_a8(rec: dict) -> list:
    """A8 class 7a, every pair classified: the count equals the character
    formula, the histogram accounts for every pair, every subgroup order is
    a multiple of 7 dividing |A8| = 8!/2 (Lagrange), and the generating pairs
    are those whose subgroup has order |A8|."""
    failures: list = []
    order = factorial(8) // 2
    hist = {(sub_order, tuple(orbits)): count
            for (sub_order, orbits), count in rec["histogram"]}
    _expect(failures, "a8.total", rec["formula"], rec["total"])
    _expect(failures, "a8.histogram_sum", rec["total"], sum(hist.values()))
    _expect(failures, "a8.subgroup_orders", [],
            sorted({o for o, _ in hist if order % o or o % 7}))
    _expect(failures, "a8.generating",
            sum(c for (o, _), c in hist.items() if o == order), rec["generating"])
    return failures


def check_lemma(rec: dict) -> list:
    """Lemma 4.2 (n odd, involution moving 8 points) and Lemma 4.3 (n even,
    12 points): the two cycles generate A_n."""
    n = rec["n"]
    failures: list = []
    _expect(failures, f"lemma.n{n}", (factorial(n) // 2, 8 if n % 2 else 12),
            (rec["order"], rec["involution_support"]))
    return failures


def check_prop77(rec: dict) -> list:
    n = rec["n"]
    failures: list = []
    if n == 10:
        _expect(failures, "prop77.A10.orders5_7_erratum", None, rec["found"])
        _expect(failures, "prop77.A10.odd_coprime_pairs",
                [True] * len(PROP77_A10_PAIRS), rec["pairs_cover"])
    elif n == 18:
        _expect(failures, "prop77.A18.two_17_classes", True, rec["covers"])
    elif rec["found"] is None:
        failures.append(f"prop77.A{n}: no covering pair of orders {PROP77_ORDERS[n]}")
    return failures
