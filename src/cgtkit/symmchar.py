"""Symmetric and alternating group characters via Murnaghan-Nakayama.

Everything here is combinatorial in the cycle types, so it scales past
element enumeration (n <= 18).  The alternating-group table is obtained by
restriction: conjugate partition pairs give one character, self-conjugate
partitions split into two characters whose values differ only on the split
classes (cycle type = the diagonal hooks), where they are
(eps +- sqrt(eps * prod hooks)) / 2 with eps = (-1)^((n-r)/2).

Murnaghan-Nakayama runs on beta sets as bit masks of n beads: removing a
rim hook of size k moves a bead b to a free b - k, with sign -1 to the
number of beads in between, and the recursion is memoized on (mask, k) and
on (mask, rest of the cycle type).

The sparse coverage check (an_pair_covers, Prop 7.7) counts in integers.
The two halves of a self-conjugate lam form one row: each value is
(a + s*b*sqrt(Delta))/2 for s = +-1, Delta = eps * prod hooks, with b = +-1
on the split class of the hooks' type and 0 elsewhere.  Summed over s, the
odd powers of sqrt(Delta) cancel, so every structure constant is one integer
numerator over 4|A_n|^2, checked to be a non-negative multiple of it.

Split conjugacy classes (all parts odd and distinct) are named 'a'/'b';
the 'a' class contains the representative whose cycles list points in
increasing order.  Membership of the two is decided by the sign of any
aligning conjugator, which is well defined because the centralizer of such
an element is even-free.

One class system works from cycle types alone: SnClassSystem owns the
class order, the index from (cycle type, split letter) to class,
`power_class` and `class_of`, and AnClassSystem, its subclass, gives only
its classes (the even types, split types as two halves), its order and its
element scans.  Neither stores power maps: `power_class` reads each power
off the cycle type on demand.  x^t has the type of x^gcd(t, order), in
which an m-cycle falls into gcd(m, t) cycles of length m / gcd(m, t).  In
A_n that type splits only when t is prime to the order; then x^t is
conjugate to x by i -> t*i on each m-cycle, whose sign is the Jacobi
symbol (t/m), so x^t keeps its letter iff the product of (t/m) over the
parts is 1.  Class elements come as int8 row chunks (_type_rows): their
flat cycle tuples are built one position at a time on arrays, depth first
over blocks of at most _BLOCK_ROWS rows (plus one prefix's children), and
each finished block is scattered into image rows as one chunk, so no
class is ever held whole.

The brute-force scan for products x*y in a target class (of type mu) is a
sieve on the fixed points of powers: P has type mu iff, for j = 1..max(mu),
P^j fixes as many points as the parts of mu that divide j add up to
(Moebius inversion turns these counts into the number of d-cycles for each
d <= max(mu), and they already cover all n points).  The first power is
checked on the int8 product rows, which drops most of them; the rows left
become flat indices into the raveled rows once, each later power is one
take, and the rows that fail are dropped at every j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .chartab import CharacterTable, table_from_rows
from .cyclotomic import Cyclotomic, sqrt_int
from .permgroup import ClassSystem
from .perms import Permutation, _inv, _mul

__all__ = [
    "partitions", "hook_degree", "mn_value", "sn_table", "an_table",
    "AnClassSystem", "SnClassSystem", "an_pair_covers", "conjugate_partition",
]

SN_BUDGET = 18


def partitions(n: int):
    """All partitions of n as weakly decreasing tuples, lex-descending."""
    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    return rec(n, n)


def conjugate_partition(lam: tuple) -> tuple:
    if not lam:
        return ()
    out = []
    for i in range(lam[0]):
        out.append(sum(1 for part in lam if part > i))
    return tuple(out)


def hook_degree(lam: tuple) -> int:
    """Dimension of the irreducible indexed by lam (hook length formula)."""
    n = sum(lam)
    conj = conjugate_partition(lam)
    deg = factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            deg //= row - j + conj[j] - i - 1
    return deg


def _beads(lam: tuple, n: int) -> int:
    """The beta set of lam on n beads as a bit mask: bead i sits at
    lam[i] + n - 1 - i, with lam padded by zeros to n parts."""
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(lam)) \
        + (1 << (n - len(lam))) - 1


@lru_cache(maxsize=None)
def _rim_hooks(mask: int, k: int) -> tuple:
    """Rim hooks of size k of the beta set mask, as (smaller mask, sign).

    Removing one moves a bead b to a free b - k; its sign is -1 to the
    number of beads strictly between b - k and b (the leg length).
    """
    movable = (mask & ~(mask << k)) >> k << k
    out = []
    while movable:
        bead = movable & -movable
        movable ^= bead
        between = mask >> (bead.bit_length() - k) & ((1 << (k - 1)) - 1)
        out.append((mask ^ bead ^ (bead >> k), -1 if between.bit_count() & 1 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn(mask: int, mu: tuple) -> int:
    """chi on cycle type mu of the partition whose beta set is mask."""
    if not mu:
        return 1
    rest = mu[1:]
    return sum(sign * _mn(smaller, rest) for smaller, sign in _rim_hooks(mask, mu[0]))


def mn_value(lam: tuple, mu: tuple) -> int:
    """Character value chi^lam on the class of cycle type mu."""
    lam, mu = tuple(lam), tuple(mu)
    if (not all(isinstance(part, int) and part >= 0 for part in lam)
            or any(a < b for a, b in zip(lam, lam[1:]))):
        raise ValueError(f"{lam} is not a non-increasing sequence of non-negative integers")
    if not all(isinstance(part, int) and part > 0 for part in mu):
        raise ValueError(f"cycle type {mu} has a part that is not a positive integer")
    n = sum(lam)
    if n != sum(mu):
        raise ValueError("partition sizes differ")
    return _mn(_beads(tuple(part for part in lam if part), n), mu)


def class_size_sn(n: int, mu: tuple) -> int:
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        z *= k ** m * factorial(m)
    return factorial(n) // z


def is_even_type(mu: tuple) -> bool:
    return sum(part - 1 for part in mu) % 2 == 0


def splits_in_an(mu: tuple) -> bool:
    return all(p % 2 == 1 for p in mu) and len(set(mu)) == len(mu)


def canonical_rep(mu: tuple, n: int) -> Permutation:
    cycles = []
    pt = 0
    for part in mu:
        cycles.append(list(range(pt, pt + part)))
        pt += part
    return Permutation.from_cycles(n, cycles)


def type_name(mu: tuple) -> str:
    return "+".join(str(p) for p in mu)


def _flat_images(rows: np.ndarray) -> np.ndarray:
    """Image rows as intp indices into the raveled rows: point i of row r
    is r*n + i.  Then row r of P^j is the take of row r of P^(j-1) from
    the raveled P, one gather for all rows, with no index conversion."""
    return rows + np.arange(0, rows.size, rows.shape[1])[:, None]


def _power_fixed_points(mu: tuple) -> list:
    """For P of cycle type mu, the number of points P^j fixes for j = 1..max(mu):
    the sum of the parts that divide j.  These counts tell mu from every
    other type: by Moebius inversion they give the number of d-cycles for
    each d <= max(mu), and those points already add up to n."""
    return [sum(m for m in mu if j % m == 0) for j in range(1, mu[0] + 1)]


def _point_cycle_lengths(rows: np.ndarray) -> np.ndarray:
    """Row by row, the length of the cycle through each point: the first
    j at which P^j fixes it."""
    flat = _flat_images(rows).ravel()
    points = np.arange(flat.size)
    lengths = np.zeros(flat.size, dtype=np.int8)
    power = flat
    for j in range(1, rows.shape[1] + 1):
        lengths[(power == points) & (lengths == 0)] = j
        if lengths.all():
            break
        power = flat.take(power)
    return lengths.reshape(rows.shape)


def _aligns_evenly(rows: np.ndarray, mu: tuple) -> np.ndarray:
    """Whether a conjugator carrying canonical_rep(mu) to the row is even,
    row by row, for rows of a split type mu (the sign does not depend on
    the conjugator chosen).

    The aligning conjugator sends the points of canonical_rep(mu)'s m-cycle
    to the row's m-cycle read from its least point, which is the first
    point of cycle length m (the parts of mu are distinct).  Its sign is
    the parity of its inversions.
    """
    lengths = _point_cycle_lengths(rows)
    sigma = np.empty_like(rows)
    at = np.arange(len(rows))
    pt = 0
    for m in mu:
        cur = np.argmax(lengths == m, axis=1)
        for j in range(m):
            sigma[:, pt + j] = cur
            cur = rows[at, cur]
        pt += m
    inversions = sum((sigma[:, i, None] > sigma[:, i + 1:]).sum(axis=1)
                     for i in range(rows.shape[1] - 1))
    return inversions % 2 == 0


# -- class systems -------------------------------------------------------------

@dataclass
class CombClass:
    """A combinatorially described conjugacy class of S_n or A_n."""
    name: str
    cycle_type: tuple
    representative: Permutation
    size: int
    rep_order: int
    split_letter: str = ""  # "", "a" or "b"


class SnClassSystem(ClassSystem):
    """Conjugacy classes of S_n by cycle type, and the parts AnClassSystem
    shares: classes sorted by (order, size, representative), one index
    from (cycle type, split letter) to class, power_class and class_of.
    Subclasses give their own class records through _entries."""

    def __init__(self, n: int):
        if n > SN_BUDGET:
            raise ValueError(f"n = {n} beyond the n <= {SN_BUDGET} budget")
        self.n = n
        self.degree = n
        self.order = factorial(n)
        self.classes = sorted(self._entries(),
                              key=lambda c: (c.rep_order, c.size, c.representative.images))
        self._index = {(c.cycle_type, c.split_letter): i for i, c in enumerate(self.classes)}

    def _entries(self):
        for mu in partitions(self.n):
            yield CombClass(type_name(mu), mu, canonical_rep(mu, self.n),
                            class_size_sn(self.n, mu), lcm(*mu))

    def power_class(self, k: int, a: int) -> int:
        """The class of x^a for x in class k: x^a has cycle type
        _power_type(mu, gcd(a, order)).  That type has equal parts unless a
        is prime to the order, and then a split class goes to the class of
        its own letter iff the product of the Jacobi symbols (a/m) over its
        parts m is 1."""
        c = self.classes[k]
        a %= c.rep_order
        d = gcd(a, c.rep_order)
        if c.split_letter and d == 1:
            same = prod(_jacobi(a, m) for m in c.cycle_type) == 1
            letter = c.split_letter if same else {"a": "b", "b": "a"}[c.split_letter]
            return self._index[(c.cycle_type, letter)]
        return self._index[(_power_type(c.cycle_type, d), "")]

    def class_of(self, p: Permutation) -> int:
        """p's class: its cycle type and, for a split type, the letter the
        sign of an aligning conjugator gives.  Raises KeyError unless p is
        an element of the group."""
        if sorted(p.images) != list(range(self.n)):
            raise KeyError("not an element of the group")
        mu = p.cycle_type()
        if (mu, "") in self._index:
            return self._index[(mu, "")]
        if (mu, "a") not in self._index:
            raise KeyError("not an element of the group")
        even = _aligns_evenly(np.array([p.images], dtype=np.int8), mu)[0]
        letter = "a" if even else "b"
        return self._index[(mu, letter)]


def _power_type(mu: tuple, t: int) -> tuple:
    """The cycle type of x^t for x of type mu, for any integer t."""
    out = []
    for part in mu:
        g = gcd(part, t)
        out.extend([part // g] * g)
    return tuple(sorted(out, reverse=True))


class AnClassSystem(SnClassSystem):
    """Conjugacy classes of A_n: the even cycle types, each split type as
    two halves."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("A_n class system needs n >= 3")
        super().__init__(n)
        self.order = factorial(n) // 2

    def _entries(self):
        n = self.n
        for mu in partitions(n):
            if not is_even_type(mu):
                continue
            rep, size, order = canonical_rep(mu, n), class_size_sn(n, mu), lcm(*mu)
            if splits_in_an(mu):
                yield CombClass(type_name(mu) + "a", mu, rep, size // 2, order, "a")
                yield CombClass(type_name(mu) + "b", mu,
                                rep.conj(Permutation.from_cycles(n, [[0, 1]])),
                                size // 2, order, "b")
            else:
                yield CombClass(type_name(mu), mu, rep, size, order)

    def _class_chunks(self, k: int):
        """Class k as int8 row chunks in the order of _type_rows; split
        classes keep their half of each chunk."""
        c = self.classes[k]
        for rows in _type_rows(self.n, c.cycle_type):
            if c.split_letter:
                rows = rows[_aligns_evenly(rows, c.cycle_type) == (c.split_letter == "a")]
            yield rows

    def iter_class_images(self, k: int):
        """All elements of class k as image tuples (combinatorial)."""
        for rows in self._class_chunks(k):
            yield from map(tuple, rows.tolist())

    def class_of_images(self, images) -> int:
        return self.class_of(Permutation(images))

    def iter_class_images_with_product(self, k: int, x_images, target: int):
        # the products x*y (images y[x[i]]) of a chunk are sieved by the
        # fixed points of their powers (see the module docstring): j = 1 on
        # the int8 products drops most rows; the rows left become flat
        # indices once, each later power is one take, and the rows that
        # fail go at each j.  Then the half of a split type.
        c = self.classes[target]
        mu = c.cycle_type
        fixed = _power_fixed_points(mu)
        x = np.asarray(x_images, dtype=np.intp)
        points = np.arange(self.n, dtype=np.int8)
        for rows in self._class_chunks(k):
            products = rows[:, x]
            live = np.flatnonzero((products == points).sum(axis=1) == fixed[0])
            power = _flat_images(products[live])
            flat = power.ravel()
            ident = np.arange(flat.size).reshape(power.shape)
            for f in fixed[1:]:
                power = flat.take(power)
                keep = (power == ident).sum(axis=1) == f
                live, power, ident = live[keep], power[keep], ident[keep]
            if c.split_letter:
                live = live[_aligns_evenly(products[live], mu) == (c.split_letter == "a")]
            yield from map(tuple, rows[live].tolist())

    def centralizer_generators(self, x_images) -> list:
        """Image tuples generating C_{A_n}(x), read off x's cycle type.

        C_{S_n}(x) is the product, over the cycle lengths m that occur k
        times in x, of C_m wr S_k: it is generated by turning the first
        m-cycle, swapping the first two point by point and shifting all k
        of them.  Its even part comes from Schreier's lemma on the cosets
        {1, t} of A_n, for t the first odd generator.
        """
        cycles: dict[int, list] = {}
        for cyc in Permutation(x_images).cycles(include_fixed=True):
            cycles.setdefault(len(cyc), []).append(list(cyc))
        moves = []
        for m, cycs in cycles.items():
            if m > 1:
                moves.append((cycs[0], cycs[0][1:] + cycs[0][:1]))
            if len(cycs) > 1:
                moves.append((cycs[0] + cycs[1], cycs[1] + cycs[0]))
            if len(cycs) > 2:
                moves.append((sum(cycs, []), sum(cycs[1:] + cycs[:1], [])))
        gens = []
        for src, dst in moves:
            images = list(range(self.n))
            for a, b in zip(src, dst):
                images[a] = b
            gens.append(tuple(images))
        odd = [g for g in gens if Permutation(g).sign() == -1]
        if not odd:
            return gens
        t = odd[0]
        t_inv = _inv(t)
        even = []
        for g in gens:
            if g in odd:
                even += [_mul(g, t_inv), _mul(t, g)]
            else:
                even += [g, _mul(_mul(t, g), t_inv)]
        identity = tuple(range(self.n))
        return [g for g in even if g != identity]


def _jacobi(t: int, m: int) -> int:
    """Jacobi symbol (t/m) for odd m > 0; 0 when t and m share a factor.

    It is the sign of i -> t*i on Z/m for t prime to m (Zolotarev for m
    prime, Lerch for composite m).
    """
    t %= m
    sign = 1
    while t:
        while t % 2 == 0:
            t //= 2
            if m % 8 in (3, 5):
                sign = -sign
        t, m = m, t
        if t % 4 == 3 and m % 4 == 3:
            sign = -sign
        t %= m
    return sign if m == 1 else 0


# children per working block of _type_rows, and so rows per chunk: a level
# that would pass it is split, so a block holds at most this many plus one
# prefix's children
_BLOCK_ROWS = 8192


def _type_rows(n: int, mu: tuple):
    """All elements of cycle type mu (fixed points implied by mu) as int8
    arrays of image rows, one chunk per finished block.

    Each element is a flat tuple of its cycles' points.  Each cycle is
    written starting from its minimal point (so the other entries are drawn
    from larger points only), and cycles of equal length carry increasing
    starts; both rules kill duplicates.

    The tuples are built one position at a time on arrays.  A level holds
    int8 prefixes and a mask of the points each has still free, and
    extends every prefix by np.nonzero of the points allowed next: inside a
    cycle, a free point above the cycle's start; at a cycle's start, any
    free point, above the previous start when the two cycles have the same
    length.  np.nonzero walks row by row, so the tuples come out in
    lexicographic order.  The levels run depth first over blocks: a level
    whose children would pass _BLOCK_ROWS splits its prefixes by the
    running sum of their child counts and finishes each group in turn.
    Each finished block becomes one chunk of image rows (one scatter per
    column).
    """
    parts = [p for p in mu if p > 1]
    if not parts:
        yield np.arange(n, dtype=np.int8)[None, :]
        return
    # column j of a flat cycle tuple is sent to the point in column succ[j];
    # the point in column j must exceed the one in column low[j] (-1: any)
    succ, low = [], []
    for i, m in enumerate(parts):
        first = len(succ)
        succ += [first + j for j in range(1, m)] + [first]
        low += [first - m if i and parts[i - 1] == m else -1] + [first] * (m - 1)
    points = np.arange(n, dtype=np.int8)
    # groups and extend are functions of their own so that their temporaries
    # (the counts, np.nonzero's intp indices) are freed before the levels
    # below run: the stack holds only each level's prefixes and free masks

    def allowed(prefixes, free):
        # the points each prefix may take next
        j = low[prefixes.shape[1]]
        return free if j < 0 else free & (points > prefixes[:, j, None])

    def groups(prefixes, free):
        # prefix i's first child sits at offsets[i], the running sum of the
        # child counts before it; the prefixes whose first children fall in
        # one stretch of _BLOCK_ROWS go on together
        nexts = allowed(prefixes, free)
        if np.count_nonzero(nexts) <= _BLOCK_ROWS:
            return [0, len(prefixes)]
        counts = np.count_nonzero(nexts, axis=1)
        offsets = np.cumsum(counts) - counts
        return sorted({*(int(np.count_nonzero(offsets < start))
                         for start in range(0, int(offsets[-1]) + 1, _BLOCK_ROWS)),
                       len(prefixes)})

    def extend(prefixes, free):
        at, p = np.nonzero(allowed(prefixes, free))
        children = np.empty((len(at), prefixes.shape[1] + 1), dtype=np.int8)
        children[:, :-1] = prefixes[at]
        children[:, -1] = p
        if children.shape[1] == len(succ):
            return children, None
        rest = free[at]
        rest[np.arange(len(at)), p] = False
        return children, rest

    def blocks(prefixes, free):
        cuts = groups(prefixes, free)
        for a, b in zip(cuts, cuts[1:]):
            children, rest = extend(prefixes[a:b], free[a:b])
            if not len(children):
                continue  # a group of prefixes that cannot go on
            if rest is None:
                yield children
            else:
                yield from blocks(children, rest)

    for seqs in blocks(np.empty((1, 0), dtype=np.int8), np.ones((1, n), dtype=bool)):
        rows = np.tile(points, (len(seqs), 1))
        at = np.arange(len(seqs))
        for j, k in enumerate(succ):
            rows[at, seqs[:, j]] = seqs[:, k]
        yield rows


# -- tables ---------------------------------------------------------------------

def sn_table(n: int) -> CharacterTable:
    """Full integral character table of S_n."""
    cs = SnClassSystem(n)
    rows = [[Cyclotomic.from_rational(mn_value(lam, c.cycle_type)) for c in cs.classes]
            for lam in partitions(n)]
    return table_from_rows(f"S{n}", cs, rows)


def _diagonal_hooks(lam: tuple) -> tuple:
    conj = conjugate_partition(lam)
    out = []
    i = 0
    while i < len(lam) and lam[i] > i:
        out.append(lam[i] + conj[i] - 2 * i - 1)
        i += 1
    return tuple(out)


class _AnRow(NamedTuple):
    """One partition pair {lam, conj(lam)} of n as a row of the integer sums.

    lam <= conj(lam) lexicographically.  A whole row (lam < conj(lam), hooks
    empty, delta 0) is the restriction of chi^lam, of value a.  A
    self-conjugate lam stands for both of its halves, of value
    (a + s*b*sqrt(delta))/2 for s = +1 and -1.  weight puts the row's share
    of a structure-constant sum over the denominator 4|A_n|.
    """
    lam: tuple
    mask: int
    hooks: tuple
    weight: int
    delta: int


@lru_cache(maxsize=None)
def _an_rows(n: int) -> tuple:
    """Irr(A_n) as _AnRows, in the order of partitions(n)."""
    order = factorial(n) // 2
    rows = []
    for lam in partitions(n):
        conj = conjugate_partition(lam)
        if lam > conj:
            continue  # covered by the conjugate partition
        deg = hook_degree(lam)
        if lam < conj:
            rows.append(_AnRow(lam, _beads(lam, n), (), 4 * order // deg, 0))
            continue
        hooks = _diagonal_hooks(lam)
        eps = -1 if ((n - len(hooks)) // 2) % 2 else 1
        rows.append(_AnRow(lam, _beads(lam, n), hooks, 2 * order // deg,
                           eps * prod(hooks)))
    return tuple(rows)


def _an_value(row: _AnRow, cls: CombClass) -> tuple:
    """(a, b) of row on cls: the value is a for a whole row and
    (a + s*b*sqrt(delta))/2 for the halves of a pair row."""
    if cls.split_letter and cls.cycle_type == row.hooks:
        return (1 if row.delta > 0 else -1), (1 if cls.split_letter == "a" else -1)
    a = _mn(row.mask, cls.cycle_type)
    if row.hooks and a % 2:
        raise AssertionError(
            f"odd value {a} for split character at {row.lam} on {cls.cycle_type}")
    return a, 0


def an_table(n: int) -> CharacterTable:
    """Character table of A_n by restriction from S_n, with class splitting."""
    cs = _an_class_system(n)
    rows = []
    for row in _an_rows(n):
        values = [_an_value(row, c) for c in cs.classes]
        if not row.hooks:
            rows.append([Cyclotomic.from_rational(a) for a, _ in values])
            continue
        eps = Cyclotomic.from_rational(1 if row.delta > 0 else -1)
        root = sqrt_int(row.delta)
        plus, minus = (eps + root) / 2, (eps - root) / 2
        for s in (1, -1):
            rows.append([Cyclotomic.from_rational(a // 2) if not b
                         else plus if s * b > 0 else minus for a, b in values])
    return table_from_rows(f"A{n}", cs, rows)


@lru_cache(maxsize=None)
def _an_class_system(n: int) -> AnClassSystem:
    """One A_n class system per n, shared by the tables and the sparse checks."""
    return AnClassSystem(n)


def an_pair_covers(n: int, name1: str, name2: str):
    """Does C1 * C2 cover all of A_n except possibly 1?  (sparse check)

    Uses the character formula without building the full table, in integers:
    summed over its two halves, a pair row contributes
    [a1*a2*a3 + delta*(a1*b2*b3 + b1*a2*b3 + b1*b2*a3)] / (2*deg), the odd
    powers of sqrt(delta) cancelling, and a whole row a1*a2*a3 / deg, for
    deg = chi^lam(1).  Rows that vanish on C1 or C2 are skipped before their
    k-columns are ever evaluated.
    """
    cs = _an_class_system(n)
    ci = cs.classes[cs.class_named(name1)]
    cj = cs.classes[cs.class_named(name2)]
    order = cs.order
    live = []
    for row in _an_rows(n):
        ai, bi = _an_value(row, ci)
        if not (ai or bi):
            continue
        aj, bj = _an_value(row, cj)
        if not (aj or bj):
            continue
        # the row's share is p*a3 + q*b3 over 4|A_n|
        live.append((row, row.weight * (ai * aj + row.delta * bi * bj),
                     row.weight * row.delta * (ai * bj + bi * aj)))
    missed = []
    for k, ck in enumerate(cs.classes):
        if ck.rep_order == 1:
            continue
        ckinv = cs.classes[cs.inverse_class(k)]
        total = 0
        for row, p, q in live:
            ak, bk = _an_value(row, ckinv)
            total += p * ak + q * bk
        # count = |C2| |C3| / |A_n| * total / (4|A_n|)
        count = cj.size * ckinv.size * total
        if count % (4 * order * order) or count < 0:
            raise AssertionError(f"non-integral structure constant for {ck.name}")
        if count == 0:
            missed.append(ck.name)
    return (not missed), missed
