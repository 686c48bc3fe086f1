"""Exact complex character tables via the class-algebra (Dixon) method.

The table is computed by splitting the commuting family of class-sum
matrices over a prime field GF(p) with p = 1 mod exponent(G) and
p > 2*sqrt(|G|), then lifting each character value back to the cyclotomic
field through the discrete Fourier transform on the cyclic group generated
by a class representative (using complete power maps).  Every table is
verified, exactly, before it is returned: its column orthogonality relations
are checked, and for a square table with positive class sizes these imply the
row relations too (see ``CharacterTable.verify``).

The mod-p stage runs on int64 numpy arrays: each class-sum matrix comes
from gathers in the element index's Cayley table along one short word per
column (``GroupClasses.product_counts``), the splitting is ``fflinalg``'s
mod-p layer, and the lift of every character on a class of order o is one
(k x o) by (o x o) product mod p.  That layer's bound n*(p-1)^2 < 2^63
holds with room to spare for Dixon primes: the largest for a catalog group
is J1's 43 891, below 2^16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from ._ntheory import is_prime, primitive_root
from .cyclotomic import Cyclotomic, sum_of_products
from .fflinalg import (SplitFailure, check_int64_bound, modp_matvec,
                       simultaneous_eigenspaces_modp)
# not used here: the layer spans of perfbench/tracing.py patch these names on
# this module, beside modp_matvec, which the lift calls
from .fflinalg import modp_charpoly, modp_kernel, modp_roots, modp_rref  # noqa: F401
from .permgroup import ClassSystem, GroupClasses, conjugacy_classes

__all__ = ["ClassInfo", "CharacterTable", "dixon_table", "class_mult_coeff",
           "indicator", "table_from_rows", "TableInvariantError"]


class TableInvariantError(ValueError):
    """A character-table invariant failed (corrupt or inconsistent data)."""


@dataclass
class ClassInfo:
    name: str
    size: int
    rep_order: int
    power_map: dict  # t -> class index, for 0 <= t < rep_order


class CharacterTable(ClassSystem):
    """Matrix of exact character values, rows = irreducibles, cols = classes."""

    def __init__(self, group_name: str, order: int, classes: list, values: list):
        self.group_name = group_name
        self.order = order
        self.classes = classes
        self.values = values
        self.verify()

    # -- basic accessors -----------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def degrees(self) -> list:
        return [v[self._identity_col()].integer() for v in self.values]

    def _identity_col(self) -> int:
        for i, c in enumerate(self.classes):
            if c.rep_order == 1:
                return i
        raise TableInvariantError("no identity class present")

    def linear_characters(self) -> list:
        ic = self._identity_col()
        return [i for i, row in enumerate(self.values) if row[ic] == Cyclotomic.one()]

    # -- verification ----------------------------------------------------------

    def verify(self):
        """Exact invariants; TableInvariantError if one fails.  A class's stored
        power map must be keyed 0..o-1, o its order, start at the identity and
        the class, and send t to a class of order o / gcd(t, o).  A swap of two
        classes of one order in the power maps passes: no check here ties the
        power maps to the values, which a Galois check,
        sigma_a(chi(x)) = chi(x^a), would do.

        One orthogonality pass, the column relations, stands for both.  Let X
        be the k x k value matrix (rows the characters, columns the classes)
        and D = diag(|C_t|), invertible because every size is checked
        positive.  The column relations say X* X = |G| D^-1, so D X* / |G| is
        a left inverse of X; over a field a one-sided inverse of a square
        matrix is two-sided, so X D X* = |G| I too, and these are the row
        relations sum_t chi_i(t) conj(chi_j(t)) |C_t| = |G| delta_ij.  The
        pass checks the entries with a <= b only: the others are their
        complex conjugates."""
        k = self.n_classes
        if len(self.values) != k:
            raise TableInvariantError("table is not square")
        if sum(c.size for c in self.classes) != self.order:
            raise TableInvariantError("class sizes do not sum to the group order")
        ic = self._identity_col()
        degs = []
        for row in self.values:
            if len(row) != k:
                raise TableInvariantError("ragged value matrix")
            d = row[ic]
            if not d.is_integer() or d.integer() <= 0:
                raise TableInvariantError("non-positive or non-integral degree")
            degs.append(d.integer())
            if self.order % d.integer():
                raise TableInvariantError("degree does not divide the group order")
            for v, c in zip(row, self.classes):
                if c.rep_order % v.e:
                    raise TableInvariantError("value outside Q(zeta_o) of its class order o")
        if sum(d * d for d in degs) != self.order:
            raise TableInvariantError("sum of squared degrees != group order")
        for j, c in enumerate(self.classes):
            if c.size <= 0:
                raise TableInvariantError(f"class {c.name} has non-positive size {c.size}")
            if self.order % c.size:
                raise TableInvariantError("class size does not divide the group order")
            o, pm = c.rep_order, c.power_map
            if o < 1:
                raise TableInvariantError(f"class {c.name} has non-positive order {o}")
            if sorted(pm) != list(range(o)):
                raise TableInvariantError(f"power map of {c.name} is not keyed 0..{o - 1}")
            if pm[0] != ic or pm[1 % o] != j:
                raise TableInvariantError(
                    f"power map of {c.name} does not start at the identity and {c.name}")
            for t, v in pm.items():
                if not 0 <= v < k or self.classes[v].rep_order != o // gcd(t, o):
                    raise TableInvariantError(f"power map of {c.name} sends {t} to {v}, "
                                              f"not a class of order {o // gcd(t, o)}")
        self._column_orthogonality()

    def _column_orthogonality(self):
        """Exact: sum_i chi_i(a) conj(chi_i(b)) = |C_G(a)| delta_ab."""
        k = self.n_classes
        conj_rows = [[v.conj() for v in row] for row in self.values]
        for a in range(k):
            for b in range(a, k):
                e_ab = lcm(self.classes[a].rep_order, self.classes[b].rep_order)
                s = sum_of_products(e_ab, ((row[a], conj[b], 1)
                                           for row, conj in zip(self.values, conj_rows)))
                expected = Fraction(self.order, self.classes[a].size) if a == b else 0
                if s != Cyclotomic.from_rational(expected):
                    raise TableInvariantError(
                        f"column orthogonality fails at ({a},{b}): {s}")

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "exponent": self.exponent(),
            "classes": [
                {"name": c.name, "size": c.size, "rep_order": c.rep_order,
                 "power_map": {str(t): v for t, v in sorted(c.power_map.items())}}
                for c in self.classes
            ],
            "characters": [[v.to_json() for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CharacterTable":
        classes = [ClassInfo(c["name"], int(c["size"]), int(c["rep_order"]),
                             {int(t): int(v) for t, v in c["power_map"].items()})
                   for c in obj["classes"]]
        values = [[Cyclotomic.from_json(v) for v in row] for row in obj["characters"]]
        table = cls(obj["group"], int(obj["order"]), classes, values)
        if "exponent" in obj and int(obj["exponent"]) != table.exponent():
            raise TableInvariantError("stored exponent disagrees with class data")
        return table

    def __repr__(self):
        return (f"CharacterTable({self.group_name}, order={self.order}, "
                f"classes={self.n_classes})")


def table_from_rows(name: str, cs: ClassSystem, rows: list) -> CharacterTable:
    """The verified table of `rows` on the classes of `cs`, power maps read
    through ``cs.power_class``, rows ordered by degree, then by the
    ``sort_key`` of their values."""
    ident = next(i for i, c in enumerate(cs.classes) if c.rep_order == 1)
    rows = sorted(rows, key=lambda row: (row[ident].integer(),
                                         tuple(v.sort_key() for v in row)))
    infos = [ClassInfo(c.name, c.size, c.rep_order,
                       {t: cs.power_class(k, t) for t in range(c.rep_order)})
             for k, c in enumerate(cs.classes)]
    return CharacterTable(name, cs.order, infos, rows)


# For x in C_i, z x^-1 runs over w z with w in the inverse class of C_i
# (apply w, then z).  class_mult_coeff looks up all those products at once
# by their base images z[w[base]], in the key table: it is the oracle
# independent of the Cayley-table gathers of _class_sum_matrix_modp.

def class_mult_coeff(gc: GroupClasses, i: int, j: int, k: int) -> int:
    """a_{ijk} = #{(x,y) in C_i x C_j : xy = z} for a fixed z in C_k."""
    w = gc.elements_of_class(gc.inverse_class(i))[:, gc.base]
    z = np.array(gc.classes[k].representative.images)
    return int(np.count_nonzero(gc.classes_of_base_images(z[w]) == j))


def _class_sum_matrix_modp(gc: GroupClasses, i: int, p: int) -> np.ndarray:
    """(M_i)[j][k] = a_{ijk} mod p.  a_{ijk} does not depend on the z in C_k,
    so z is C_k's entry, and x^-1 runs over the inverse class of C_i."""
    return gc.product_counts(gc.inverse_class(i)) % p


def dixon_prime(order: int, exponent: int, skip: int = 0) -> int:
    """Smallest prime p = 1 mod exponent with p > 2*sqrt(|G|) (skipping
    `skip` earlier candidates for retry)."""
    bound = 2 * isqrt(order) + 1
    k = max(1, (bound - 1) // exponent)
    found = 0
    while True:
        p = exponent * k + 1
        if p > bound and is_prime(p):
            if found == skip:
                return p
            found += 1
        k += 1


_MAX_PRIME_RETRIES = 4  # Dixon primes tried before dixon_table gives up


def dixon_table(source, group_name: str | None = None) -> CharacterTable:
    """Character table of the group behind `source` (chain or GroupClasses)."""
    gc = source if isinstance(source, GroupClasses) else conjugacy_classes(source)
    name = group_name or f"G{gc.order}"
    e = gc.exponent()
    last_err = None
    for attempt in range(_MAX_PRIME_RETRIES):
        p = dixon_prime(gc.order, e, skip=attempt)
        try:
            return _dixon_with_prime(gc, name, e, p)
        except SplitFailure as err:
            last_err = err
    raise SplitFailure(f"Dixon splitting failed for {name}: {last_err}")


def _dixon_with_prime(gc: GroupClasses, name: str, e: int, p: int) -> CharacterTable:
    k = len(gc.classes)
    order = gc.order
    # split the commuting family, feeding class-sum matrices of the
    # cheapest (smallest) nontrivial classes first; the splitter builds the
    # next one only while some common eigenspace is still not a line
    by_size = sorted(range(k), key=lambda i: (gc.classes[i].size, i))
    mats = (_class_sum_matrix_modp(gc, i, p) for i in by_size
            if gc.classes[i].rep_order > 1)
    spaces = simultaneous_eigenspaces_modp(k, mats, p)
    if not all(len(b) == 1 for b in spaces):
        raise SplitFailure(f"family did not split into 1-dim spaces over GF({p})")
    if len(spaces) != k:
        raise SplitFailure("wrong number of common eigenvectors")

    # one eigenvector per row, scaled to 1 at the identity class
    w = np.array([b[0] for b in spaces], dtype=np.int64)
    if not w[:, 0].all():
        raise SplitFailure("eigenvector vanishes at the identity class")
    w = w * np.array([pow(x, -1, p) for x in w[:, 0].tolist()])[:, None] % p
    inv_sizes = np.array([pow(c.size, -1, p) for c in gc.classes])
    inv_class = [gc.inverse_class(j) for j in range(k)]
    # |G| / d^2 = sum_j w_j w_{j*} / |C_j|, for every row at once
    functional = modp_matvec(w * w[:, inv_class] % p, inv_sizes, p).tolist()
    if 0 in functional:
        raise SplitFailure("degree functional vanished")
    # d is the least d <= sqrt|G| with d^2 = |G| / functional mod p
    least_root = {}
    for cand in range(isqrt(order), 0, -1):
        least_root[cand * cand % p] = cand
    degrees = [least_root.get(order * pow(c, -1, p) % p) for c in functional]
    if any(d is None or order % d for d in degrees):
        raise SplitFailure("no valid degree recovered")
    chi_mod = np.array(degrees)[:, None] * w % p * inv_sizes % p
    return table_from_rows(name, gc, _lift(gc, chi_mod, degrees, e, p))


def _lift(gc: GroupClasses, chi_mod: np.ndarray, degrees: list, e: int, p: int) -> list:
    """Lift the characters with mod-p values `chi_mod` (one row each) to
    exact cyclotomics.

    On a class of order o, the multiplicity of zeta_o^l as an eigenvalue
    is (1/o) sum_t chi(x^t) z_o^(-lt) mod p, z_o a primitive o-th root of
    unity mod p.  For all characters at once that is one product of their
    values on the powers of x (k x o) with the DFT matrix (o x o).
    """
    check_int64_bound(p, max(c.rep_order for c in gc.classes))
    z_e = pow(primitive_root(p), (p - 1) // e, p)
    bound = np.array(degrees)[:, None]
    dft = {}
    cols = []
    for j, c in enumerate(gc.classes):
        o = c.rep_order
        if o == 1:
            cols.append([Cyclotomic.from_rational(d) for d in degrees])
            continue
        if o not in dft:
            z_inv = pow(z_e, -(e // o), p)
            zpow = np.array([pow(z_inv, t, p) for t in range(o)])
            dft[o] = zpow[np.outer(np.arange(o), np.arange(o)) % o]
        on_powers = chi_mod[:, [gc.power_class(j, t) for t in range(o)]]
        mult = modp_matvec(on_powers, dft[o], p) * pow(o, -1, p) % p
        if (mult > bound).any():
            i, l = np.argwhere(mult > bound)[0]
            raise SplitFailure(f"eigenvalue multiplicity {mult[i, l]} exceeds "
                               f"degree {degrees[i]} (bad lift)")
        cols.append([Cyclotomic(o, {l: m for l, m in enumerate(row) if m})
                     for row in mult.tolist()])
    return [list(row) for row in zip(*cols)]


def indicator(table: CharacterTable, i: int) -> int:
    """Frobenius-Schur indicator of the i-th character,
    (1/|G|) sum_j |C_j| chi(x_j^2), as one exact sum."""
    one = Cyclotomic.one()
    val = sum_of_products(table.exponent(),
                          ((table.values[i][table.power_class(j, 2)], one,
                            Fraction(c.size, table.order))
                           for j, c in enumerate(table.classes)))
    if not val.is_integer() or val.integer() not in (-1, 0, 1):
        raise TableInvariantError(f"indicator out of range: {val}")
    return val.integer()
