"""Exact complex character tables via the class-algebra (Dixon) method.

The table is computed by splitting the commuting family of class-sum
matrices over a prime field GF(p) with p = 1 mod exponent(G) and
p > 2*sqrt(|G|), then lifting each character value back to the cyclotomic
field through the discrete Fourier transform on the cyclic group generated
by a class representative (using complete power maps).  Every table is
verified against the full orthogonality relations, exactly, before it is
returned.

The mod-p stage runs on int64 numpy arrays: each class-sum matrix comes
from batched class lookups, the splitting is ``fflinalg``'s mod-p layer,
and the lift of every character on a class of order o is one (k x o) by
(o x o) product mod p.  That layer's bound n*(p-1)^2 < 2^63 holds with
room to spare for Dixon primes: the largest for a catalog group is J1's
43 891, below 2^16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

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
           "indicator", "tables_equivalent", "table_from_rows", "TableInvariantError"]


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

    def __init__(self, group_name: str, order: int, classes: list,
                 values: list, verify: bool = True):
        self.group_name = group_name
        self.order = order
        self.classes = classes
        self.values = values
        if verify:
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

    def value(self, char_index: int, class_index: int) -> Cyclotomic:
        return self.values[char_index][class_index]

    def linear_characters(self) -> list:
        ic = self._identity_col()
        return [i for i, row in enumerate(self.values) if row[ic] == Cyclotomic.one()]

    # -- verification ----------------------------------------------------------

    def verify(self):
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
        for c in self.classes:
            if self.order % c.size:
                raise TableInvariantError("class size does not divide the group order")
            if c.power_map.get(1 if c.rep_order > 1 else 0) not in (self.classes.index(c),):
                raise TableInvariantError("power_map(1) is not the class itself")
        conj_rows = [[v.conj() for v in row] for row in self.values]
        self._row_orthogonality(conj_rows)
        self._column_orthogonality(conj_rows)

    def _row_orthogonality(self, conj_rows: list):
        """Full, exact: sum_t chi_i(t) conj(chi_j(t)) |C_t| = |G| delta_ij."""
        e = self.exponent()
        sizes = [c.size for c in self.classes]
        for i, row in enumerate(self.values):
            for j in range(i, len(self.values)):
                s = sum_of_products(e, zip(row, conj_rows[j], sizes))
                expected = self.order if i == j else 0
                if s != Cyclotomic.from_rational(expected):
                    raise TableInvariantError(
                        f"row orthogonality fails at ({i},{j}): {s}")

    def _column_orthogonality(self, conj_rows: list):
        """Exact: sum_i chi_i(a) conj(chi_i(b)) = |C_G(a)| delta_ab."""
        k = self.n_classes
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
        table = cls(obj["group"], int(obj["order"]), classes, values, verify=True)
        if "exponent" in obj and int(obj["exponent"]) != table.exponent():
            raise TableInvariantError("stored exponent disagrees with class data")
        return table

    def __repr__(self):
        return (f"CharacterTable({self.group_name}, order={self.order}, "
                f"classes={self.n_classes})")


def table_from_rows(name: str, order: int, classes: list, rows: list) -> CharacterTable:
    """The verified table of `rows` on copies of `classes`, rows ordered by
    degree, then by the ``sort_key`` of their values."""
    ident = next(i for i, c in enumerate(classes) if c.rep_order == 1)
    rows = sorted(rows, key=lambda row: (row[ident].integer(),
                                         tuple(v.sort_key() for v in row)))
    infos = [ClassInfo(c.name, c.size, c.rep_order, dict(c.power_map)) for c in classes]
    return CharacterTable(name, order, infos, rows, verify=True)


# For x in C_i, z x^-1 runs over w z with w in the inverse class of C_i
# (apply w, then z), whose base images are z[w[base]]; the counts below
# look up the products for all those w at once.

def class_mult_coeff(gc: GroupClasses, i: int, j: int, k: int) -> int:
    """a_{ijk} = #{(x,y) in C_i x C_j : xy = z} for a fixed z in C_k."""
    w = gc.base_images_of_class(gc.inverse_class(i))
    z = np.array(gc.classes[k].representative.images)
    return int(np.count_nonzero(gc.classes_of_base_images(z[w]) == j))


# rows of one batched class lookup in _class_sum_matrix_modp; a class larger
# than this is looked up one representative at a time
_LOOKUP_ROWS = 4096


def _class_sum_matrix_modp(gc: GroupClasses, i: int, p: int) -> np.ndarray:
    """(M_i)[j][k] = a_{ijk} mod p.  The products for a batch of
    representatives z go through one class lookup, and one bincount of
    class + k * (z's place in the batch) counts them per column."""
    k = len(gc.classes)
    w = gc.base_images_of_class(gc.inverse_class(i))
    reps = np.array([c.representative.images for c in gc.classes])
    batch = max(1, _LOOKUP_ROWS // len(w))
    cols = []
    for lo in range(0, k, batch):
        z = reps[lo:lo + batch]
        found = (gc.classes_of_base_images(z[:, w].reshape(-1, w.shape[1]))
                 + np.repeat(np.arange(len(z)) * k, len(w)))
        cols.append(np.bincount(found, minlength=len(z) * k).reshape(len(z), k))
    return np.concatenate(cols).T % p


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


def dixon_table(source, group_name: str | None = None,
                max_prime_retries: int = 4) -> CharacterTable:
    """Character table of the group behind `source` (chain or GroupClasses)."""
    gc = source if isinstance(source, GroupClasses) else conjugacy_classes(source)
    name = group_name or f"G{gc.order}"
    e = gc.exponent()
    last_err = None
    for attempt in range(max_prime_retries):
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
    return table_from_rows(name, order, gc.classes, _lift(gc, chi_mod, degrees, e, p))


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
    for c in gc.classes:
        o = c.rep_order
        if o == 1:
            cols.append([Cyclotomic.from_rational(d) for d in degrees])
            continue
        if o not in dft:
            z_inv = pow(z_e, -(e // o), p)
            zpow = np.array([pow(z_inv, t, p) for t in range(o)])
            dft[o] = zpow[np.outer(np.arange(o), np.arange(o)) % o]
        on_powers = chi_mod[:, [c.power_map[t] for t in range(o)]]
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


def tables_equivalent(t1: CharacterTable, t2: CharacterTable) -> bool:
    """Equality up to simultaneous row/column permutation.

    Class matching must preserve size, representative order and power-map
    structure; rows are compared as multisets after column alignment.
    """
    if (t1.order != t2.order or t1.n_classes != t2.n_classes):
        return False
    k = t1.n_classes
    buckets: dict = {}
    for j, c in enumerate(t2.classes):
        buckets.setdefault((c.size, c.rep_order), []).append(j)
    cands = []
    for c in t1.classes:
        lst = buckets.get((c.size, c.rep_order))
        if not lst:
            return False
        cands.append(lst)

    assignment = [-1] * k
    used = [False] * k

    def rows_match(sigma):
        r1 = sorted(tuple(v.sort_key() for v in row) for row in t1.values)
        r2 = sorted(tuple(row[sigma[j]].sort_key() for j in range(k))
                    for row in t2.values)
        return r1 == r2

    def power_ok(j1, j2, sigma_partial):
        c1, c2 = t1.classes[j1], t2.classes[j2]
        if c1.rep_order != c2.rep_order:
            return False
        for t, img in c1.power_map.items():
            img2 = c2.power_map.get(t)
            if img2 is None:
                return False
            if sigma_partial[img] >= 0 and sigma_partial[img] != img2:
                return False
        return True

    def backtrack(pos):
        if pos == k:
            return rows_match(assignment)
        for j2 in cands[pos]:
            if used[j2]:
                continue
            if not power_ok(pos, j2, assignment):
                continue
            assignment[pos] = j2
            used[j2] = True
            if backtrack(pos + 1):
                return True
            assignment[pos] = -1
            used[j2] = False
        return False

    return backtrack(0)
