"""Permutation-group engine: stabilizer chains, orbits, blocks, classes.

The stabilizer chain is built with the deterministic Schreier-Sims
algorithm (every Schreier generator is processed), followed by an explicit
verification pass; group order and membership are exact.  A caller who
knows that the generators lie in a group G of known order may instead ask
for a proof against |G| (`build_chain(..., within=|G|)`): random products
of the generators are sifted into a partial chain until its orbit lengths
multiply to |G| (Seress 2003, sec. 4.3-4.5).  That product is a lower bound
on the order of the group generated, which lies in G, so reaching |G|
proves both equality and a complete chain.  Sifts that stall short of it
fall back to the deterministic chain, which then gives every smaller
order.  `known_order` checks the premise for generators taken from the
group of a chain: each must lie in it, and a subgroup with other orbits is
proper, so it is not sifted at all.  The random source has a fixed seed,
so the chain is a function of the inputs; only the running time is
random.  Each level keeps its transversal u_beta, the inverse u_beta^-1
of every entry (computed once, when the entry is made, so sifting only
multiplies) and the list of its orbit points (what `random_element` draws
from).  Conjugacy classes come from a full element-to-class index, built
in numpy passes with no sort and no scatter in a loop: breadth-first
element enumeration one frontier at a time, which keeps the first
occurrence of each new element and every product x g_s it finds, as a
Cayley table; conjugation by each generator as an index permutation read
off that table along the BFS tree, one flat take per level; classes as
the orbits of these permutations, by least labels propagated forward
through each of them, gathers only; and each class's lex-least row one
point at a time.  The index also yields complete power maps, and the
table the class-sum counts of Dixon's class algebra (Dixon 1967;
Schneider 1990).

Elements are found by their base images, which determine an element of
the group, packed into a key of a direct-address table.  Stripping an
element's base images through the first l levels of the chain gives one
orbit position per level, read in mixed radix (Sims 1970; Seress 2003,
ch. 4-5); the base images left after them are read in radix n.  For
orbit lengths r_0, ..., r_(k-1) that gives r_0...r_(l-1) * n^(k-l) keys,
and l is the least level at which these are at most `_KEY_SLOTS` = 4 per
element: M11, M12 and the catalog's L2(q) strip nothing, A8 strips 5 of
its 6 levels, and SL2(q >= 5), J1, J2 and M22 strip every level, where
the keys are exactly [0, order).  One int32 table maps a key to the
element's place in the index, -1 where no element lands.

Bound of the index (`GroupTooLargeError` beyond it): at most
`DEFAULT_CLASS_BOUND` = 2^21 elements, by default.  Memory: about
N*(n*itemsize + 4*K + 4 + 4*S) bytes for N elements of degree n and S
generators (itemsize 1 up to degree 255, else 2) and K <= 4 key slots per
element (K = 1 when every level is stripped): the image rows, the int32
key table, an int32 class per element and the int32 Cayley table.  J2
holds 67 MiB; building it lifts the peak RSS by about 88 MiB.  tracemalloc
puts the build's peak at 86.0 MiB, in class finding, which holds the S
conjugations beside the index; the enumeration's is 84.5 MiB.  Each class
whose class-sum counts are asked for adds k^2 int64 for k classes, kept
with the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm, prod
from operator import getitem
import random
import re

import numpy as np

from .perms import Permutation, _inv, _mul

__all__ = [
    "StabilizerChain", "build_chain", "known_order", "ClassSystem", "ConjClassData",
    "GroupClasses", "conjugacy_classes", "GroupTooLargeError", "orbits", "is_transitive",
    "is_primitive", "minimal_block_system",
]

DEFAULT_CLASS_BOUND = 1 << 21

# build_chain(..., within=...): the seed of its random products, how many
# products it keeps at once, and how many in a row may sift to the identity
# before it builds the deterministic chain instead
_SIFT_SEED = 0
_SIFT_STATE = 10
_SIFT_PATIENCE = 16

# GroupClasses keeps at most this many key slots per element; it strips an
# element's base images through the fewest stabilizer-chain levels for which
# the packed keys fit
_KEY_SLOTS = 4

# GroupClasses.centralizer_generators scans the index in blocks of at most
# this many rows, so its temporaries stay small beside the stored rows
_SCAN_ROWS = 1 << 13

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def class_letter(i: int) -> str:
    """Bijective base 26: a..z, aa..zz, aaa.."""
    return (class_letter(i // 26 - 1) if i >= 26 else "") + _LETTERS[i % 26]


class GroupTooLargeError(RuntimeError):
    pass


class _Level:
    __slots__ = ("base", "gens", "gen_inverses", "transversal", "inverse", "points")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple] = []
        self.gen_inverses: list[tuple] = []  # gen_inverses[i] = gens[i]^-1
        self.transversal: dict[int, tuple] = {}
        self.inverse: dict[int, tuple] = {}  # beta -> transversal[beta]^-1
        self.points: list[int] = []  # list(transversal), in its order

    def add_gen(self, s: tuple, s_inv: tuple):
        self.gens.append(s)
        self.gen_inverses.append(s_inv)


class StabilizerChain:
    """Base and strong generating set for a permutation group."""

    def __init__(self, generators, degree: int | None = None):
        self._seed(generators, degree)
        if self.levels:
            self._build(0)
        self._order = self._orbit_product()
        self.verify()

    @classmethod
    def _sifted(cls, generators, degree: int | None, order: int):
        """Chain of <generators> for a caller who knows that they lie in a
        group of `order` elements; None when they are all the identity, or
        once `_SIFT_PATIENCE` random products in a row have sifted to the
        identity short of that order.

        Random products of the generators (product replacement with an
        accumulator) are sifted into the partial chain, and each residue
        joins the strong generators of the levels down to the one where it
        dropped out, as in `_build`.  The transversal products are distinct
        elements of <generators>, so the product of the orbit lengths is a
        lower bound on its order: reaching `order` proves equality and a
        complete chain, and passing it disproves the caller's premise."""
        self = cls.__new__(cls)
        self._seed(generators, degree)
        if not self.levels:  # the trivial group
            return None
        self._recompute_transversal(0)
        ident = self._identity
        gens = self.levels[0].gens
        rng = random.Random(_SIFT_SEED)
        size = max(len(gens), _SIFT_STATE)
        state = [gens[k % len(gens)] for k in range(size)]
        acc = ident
        stalls = 0
        found = self._orbit_product()
        while found < order:
            if stalls == _SIFT_PATIENCE:
                return None
            # state[a] *= state[b] for two distinct random slots a and b
            a = int(rng.random() * size)
            b = int(rng.random() * (size - 1))
            b += b >= a
            state[a] = _mul(state[a], state[b])
            acc = _mul(acc, state[a])
            y, j = self._strip(acc, 0)
            if y == ident:
                stalls += 1
                continue
            stalls = 0
            if j == len(self.levels):
                self._new_level(y)
            # y fixes the base points before level j, and level 0's orbit is
            # already that of every element of <generators>
            y_inv = _inv(y)
            for l in range(1, j + 1):
                self._extend_transversal(l, y, y_inv)
            found = self._orbit_product()
        if found > order:
            raise AssertionError(
                f"the generators make a group of order at least {found} > {order}")
        self._order = order
        return self

    # -- construction ------------------------------------------------------

    def _seed(self, generators, degree):
        """Generators as tuples, and level 0 holding every nonidentity one."""
        gens = [g.images if isinstance(g, Permutation) else tuple(g)
                for g in generators]
        if not gens and degree is None:
            raise ValueError("empty generator list needs an explicit degree")
        self.degree = degree if degree is not None else len(gens[0])
        for g in gens:
            if len(g) != self.degree:
                raise ValueError("generators of mixed degree")
        self.generators = [Permutation(g) for g in gens]
        self._orbits = None  # filled by `orbits` on first use
        self._identity = tuple(range(self.degree))
        self.levels: list[_Level] = []
        moving = [g for g in gens if g != self._identity]
        if moving:
            self._new_level(moving[0])
            for g in moving:
                self.levels[0].add_gen(g, _inv(g))

    def _orbit_product(self) -> int:
        return prod(len(lv.points) for lv in self.levels)

    def _new_level(self, g: tuple):
        """Append a level based at the first point g moves."""
        self.levels.append(_Level(min(p for p in range(self.degree) if g[p] != p)))

    def _recompute_transversal(self, i: int):
        lv = self.levels[i]
        lv.transversal = {lv.base: self._identity}
        lv.inverse = {lv.base: self._identity}
        self._close_orbit(lv, [lv.base])

    def _extend_transversal(self, i: int, s: tuple, s_inv: tuple):
        """Add s, with its inverse, to level i's strong generators and the
        points it brings to the orbit; the entries already made stay as
        they are."""
        lv = self.levels[i]
        lv.add_gen(s, s_inv)
        if not lv.transversal:  # a new level
            self._recompute_transversal(i)
            return
        # the orbit is closed under the other generators, so new points
        # come from s first; only then do all of them act on the new points
        t, t_inv = lv.transversal, lv.inverse
        new = []
        for beta in lv.points:
            gamma = s[beta]
            if gamma not in t:
                t[gamma] = _mul(t[beta], s)
                t_inv[gamma] = _mul(s_inv, t_inv[beta])
                new.append(gamma)
        if new:
            self._close_orbit(lv, new)

    def _close_orbit(self, lv: _Level, frontier: list):
        """Add to lv's transversal, breadth first, every point its strong
        generators reach from the frontier points."""
        t, t_inv = lv.transversal, lv.inverse
        gens = list(zip(lv.gens, lv.gen_inverses))
        while frontier:
            nxt = []
            for beta in frontier:
                u, u_inv = t[beta], t_inv[beta]
                for s, s_inv in gens:
                    gamma = s[beta]
                    if gamma not in t:
                        t[gamma] = _mul(u, s)
                        t_inv[gamma] = _mul(s_inv, u_inv)  # (u s)^-1 = s^-1 u^-1
                        nxt.append(gamma)
            frontier = nxt
        lv.points = list(t)

    def _strip(self, g: tuple, from_level: int):
        for l in range(from_level, len(self.levels)):
            lv = self.levels[l]
            beta = g[lv.base]
            if beta == lv.base:
                continue
            u_inv = lv.inverse.get(beta)
            if u_inv is None:
                return g, l
            g = _mul(g, u_inv)
        return g, len(self.levels)

    def _build(self, i: int):
        self._recompute_transversal(i)
        lv = self.levels[i]
        for beta in lv.points:
            u_beta = lv.transversal[beta]
            for s in lv.gens:
                gamma = s[beta]
                sg = _mul(_mul(u_beta, s), lv.inverse[gamma])
                if sg == self._identity:
                    continue
                y, j = self._strip(sg, i + 1)
                if y != self._identity:
                    if j == len(self.levels):
                        self._new_level(y)
                    y_inv = _inv(y)
                    for l in range(i + 1, j + 1):
                        self.levels[l].add_gen(y, y_inv)
                    for l in range(j, i, -1):
                        self._build(l)

    def verify(self):
        """Verification pass: strong generation at every level."""
        ident = self._identity
        for idx, lv in enumerate(self.levels):
            for s in lv.gens:
                for l in range(idx):
                    if s[self.levels[l].base] != self.levels[l].base:
                        raise AssertionError("strong generator moves earlier base point")
            for beta, u in lv.transversal.items():
                if u[lv.base] != beta:
                    raise AssertionError("broken transversal")
                for s in lv.gens:
                    sg = _mul(_mul(u, s), lv.inverse[s[beta]])
                    res, _ = self._strip(sg, idx + 1)
                    if res != ident:
                        raise AssertionError("Schreier generator fails to sift")

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return self._order

    @property
    def base(self):
        return [lv.base for lv in self.levels]

    def contains(self, p: Permutation) -> bool:
        img = p.images if isinstance(p, Permutation) else tuple(p)
        if len(img) != self.degree:
            raise ValueError("degree mismatch")
        res, _ = self._strip(img, 0)
        return res == self._identity

    def random_element(self, rng: random.Random) -> Permutation:
        """Uniformly random element: every g factors uniquely as a product
        of one transversal representative per level, deepest level first."""
        g = self._identity
        for lv in reversed(self.levels):
            u = lv.transversal[rng.choice(lv.points)]
            g = _mul(g, u)
        return Permutation(g)

    def elements(self):
        """Iterate all elements (use only for small groups)."""
        def rec(i, prefix):
            if i == len(self.levels):
                yield Permutation(prefix)
                return
            for u in self.levels[i].transversal.values():
                yield from rec(i + 1, _mul(u, prefix))
        yield from rec(0, self._identity)

    def __repr__(self):
        return f"StabilizerChain(degree={self.degree}, order={self._order})"


def build_chain(gens, degree: int | None = None,
                within: int | None = None) -> StabilizerChain:
    """Spec surface: verified stabilizer chain from generators.

    `within`, when given, is the order of a group G that the caller knows
    to contain every generator; the premise is the caller's to guarantee,
    and is not checked here (`known_order` checks it against a chain of
    G, and returns None when it fails).  Random products of the generators
    are then sifted into a partial chain until its orbit lengths multiply
    to `within`, which proves <gens> = G and the chain complete, with no
    verification pass; if they multiply to more, the premise was false
    and AssertionError is raised.  When `_SIFT_PATIENCE` products in a row
    sift to the identity short of `within`, the deterministic chain is
    built instead, so every order below |G| comes from the same code as
    without `within`.  The random source has a fixed seed: only the
    running time is random, and the chain is a function of the inputs."""
    if not gens and degree is None:
        raise ValueError("nonempty generator list required")
    if within is not None:
        chain = StabilizerChain._sifted(gens, degree, within)
        if chain is not None:
            return chain
    return StabilizerChain(gens, degree)


def known_order(gens, group: StabilizerChain) -> int | None:
    """The `within` for `build_chain(gens, group.degree, ...)`: the order of
    the group G of `group` when every generator lies in G (one sift each)
    and <gens> has G's orbits; else None.  A subgroup with other orbits is
    proper, so it gets the deterministic chain without paying for stalled
    sifts first."""
    if orbits(gens, group.degree) != orbits(group):
        return None
    if not all(group.contains(g) for g in gens):
        return None
    return group.order()


# -- orbit / block machinery -------------------------------------------------

def orbit(seed, gens, act) -> list:
    """The orbit of `seed` under the group generated by `gens`, where
    act(g, p) is the image of the point p under g (points are hashable):
    breadth first with a FIFO queue, seed first, each point listed when it
    is first reached (Seress 2003, sec. 2.1)."""
    out = [seed]
    seen = {seed}
    for p in out:  # a list iterated while it grows is the FIFO queue
        for g in gens:
            q = act(g, p)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def orbits(chain_or_gens, degree: int | None = None):
    """The orbits of a chain's group or of generators, each sorted, in the
    order of their least points.  A chain's generators are set once, in
    `_seed`, so its orbits are walked once and kept on it; each caller gets
    its own copy."""
    if isinstance(chain_or_gens, StabilizerChain):
        chain = chain_or_gens
        if chain._orbits is None:
            chain._orbits = orbits(chain.generators, chain.degree)
        return [list(o) for o in chain._orbits]
    gens = [g.images if isinstance(g, Permutation) else tuple(g) for g in chain_or_gens]
    if degree is None:
        degree = len(gens[0])
    seen: set = set()
    out = []
    for start in range(degree):
        if start not in seen:
            orb = orbit(start, gens, getitem)
            seen.update(orb)
            out.append(sorted(orb))
    return out


def is_transitive(chain: StabilizerChain) -> bool:
    return len(orbits(chain)) == 1


def minimal_block_system(chain: StabilizerChain, alpha: int, beta: int):
    """Finest block system whose block contains {alpha, beta} (Atkinson)."""
    n = chain.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    gens = [g.images for g in chain.generators]
    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        a, b = queue.pop()
        for g in gens:
            c, d = g[a], g[b]
            if union(c, d):
                queue.append((c, d))
    blocks: dict[int, list] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def is_primitive(chain: StabilizerChain, with_witness: bool = False):
    """Primitivity via minimal block systems seeded by each point pair.

    Returns bool, or (bool, witness_blocks_or_None) when with_witness.
    """
    n = chain.degree
    if n < 2:
        raise ValueError("primitivity needs degree >= 2")
    orbs = orbits(chain)
    if len(orbs) > 1:
        return (False, orbs) if with_witness else False
    for beta in range(1, n):
        blocks = minimal_block_system(chain, 0, beta)
        if len(blocks) > 1 and len(blocks) < n:
            return (False, blocks) if with_witness else False
    return (True, None) if with_witness else True


# -- conjugacy classes --------------------------------------------------------

@dataclass
class ConjClassData:
    """One conjugacy class: canonical representative and power structure."""
    representative: Permutation
    size: int
    rep_order: int
    power_map: dict = field(default_factory=dict)
    name: str = ""


def _np_dtype(degree: int):
    return np.uint8 if degree <= 255 else np.uint16


class ClassSystem:
    """Lookups shared by every class system and character table.

    The contract: subclasses set `self.order`, the group order, and
    `self.classes`, a list of class records that carry `name`, `size` and
    `rep_order`.  A system either gives every record a complete
    `power_map` (t -> class index for 0 <= t < rep_order) or overrides
    `power_class`.  Callers read power maps only through `power_class`,
    and name classes through `class_index`.
    """

    order: int
    classes: list

    def class_index(self, spec) -> int:
        """The class a name or an integer (numpy's too) stands for."""
        return self.class_named(spec) if isinstance(spec, str) else int(spec)

    def class_named(self, name: str) -> int:
        # names are fixed once a system is built: one dict, first match wins
        if "_name_index" not in self.__dict__:
            self._name_index = {c.name: i for i, c in reversed(list(enumerate(self.classes)))}
        if name in self._name_index:
            return self._name_index[name]
        # order-letter fallback ("7a" = first class of representative order
        # 7 in canonical order), so both naming schemes resolve everywhere;
        # the letters are class_letter's bijective base 26 ("aa" = 26)
        m = re.fullmatch(r"(\d+)([a-z]+)", name)
        if m:
            order, pos = int(m.group(1)), -1
            for ch in m.group(2):
                pos = 26 * (pos + 1) + _LETTERS.index(ch)
            idx = [i for i, c in enumerate(self.classes) if c.rep_order == order]
            if pos < len(idx):
                return idx[pos]
        raise KeyError(f"no class named {name!r}")

    def power_class(self, k: int, a: int) -> int:
        """The class of x^a for x in class k."""
        c = self.classes[k]
        return c.power_map[a % c.rep_order]

    def inverse_class(self, k: int) -> int:
        return self.power_class(k, -1)

    def exponent(self) -> int:
        return lcm(*(c.rep_order for c in self.classes))


class GroupClasses(ClassSystem):
    """Conjugacy classes with a full element-to-class index.

    The index is one N x n array of element images (`_rows`), in the
    breadth-first order of right multiplication by the generators, plus
    an int32 table `_at` from each element's key (its packed base images,
    see the module docstring) to its row, and the S x N int32 Cayley table
    `_times`: `_times[s, x]` is the row of x g_s, kept from the
    enumeration, which finds every such product anyway.  Each BFS level
    gathers its frontier's base images once, one row per base point, and
    makes the keys of every candidate x g_s from them, each looked up in
    `_at` once.  Of the candidates, in (x, s) order, the first one with a
    key not seen before becomes a new row: every unseen slot of `_at` (-1)
    takes the least mark of its candidates by one `np.minimum.at`, marks
    being below -1 and rising with the position, and then its row.  Each
    new row is filled by a gather through its letter's generator.

    The enumeration also records its spanning tree: each row's parent y
    and letter s, with x = y g_s.  Along it, left multiplication by any g
    is one flat take per BFS level, g x = (g y) g_s, so conjugation by a
    generator needs neither keys nor rows.  Classes are the orbits of these
    conjugations, found by propagating least labels forward through each
    one, gathers only, so the label of a row ends as its class's first row
    (`_find_classes` gives the proof).  The tree is not kept: the
    enumeration hands it to class finding, which spells each class's
    entry, its first element, as a word in the generators
    (`_entry_words`), a shortest one, since the BFS goes level by level,
    and the constructor frees it after that stage.

    What uses what:
    - the Cayley table: class finding (conjugation) and the class-sum
      counts (`product_counts`), which apply an entry's word to a whole
      class by gathers;
    - the counts memo `_counts`: each class's count matrix, made on the
      first `product_counts` call and shared by every later one (Dixon's
      class sums at each prime it tries, `classalg.two_mth_powers`);
    - the key table `_at`: every lookup of an arbitrary permutation or
      base image (`class_of_images`, `classes_of_base_images`, the power
      maps and `iter_class_images_with_product`) goes through `_index`,
      whose `_coordinates` refuses a value that is not a point with
      KeyError.  Base images determine an element of the group, so a
      tuple of points that is no element's base images leaves an orbit of
      a stripped level or lands on an empty slot, and `_index` raises
      KeyError for both;
      `class_of_images` also compares the whole row, so a non-member
      permutation raises KeyError;
    - rows: read only through `_images`, by the lex-least representatives
      (one point at a time, keeping the rows that tie with their class's
      least image so far), the row check of `class_of_images`,
      `elements_of_class` (and the two `iter_class_images*` over it) and
      `centralizer_generators`, which reads them in blocks of at most
      `_SCAN_ROWS` rows.
    """

    def __init__(self, chain: StabilizerChain, bound: int = DEFAULT_CLASS_BOUND):
        order = chain.order()
        if order > bound:
            raise GroupTooLargeError(
                f"group order {order} exceeds the class enumeration bound {bound}")
        self.chain = chain
        self.degree = n = chain.degree
        self.order = order
        self.base = np.array(chain.base, dtype=np.intp)
        # the keys after stripping l levels: r_0...r_(l-1) * n^(k-l) of them;
        # strip the fewest levels for which that is _KEY_SLOTS per element
        radii = [len(lv.points) for lv in chain.levels]
        slots = [prod(radii[:l]) * n ** (len(radii) - l) for l in range(len(radii) + 1)]
        strip = next(l for l, m in enumerate(slots) if m <= _KEY_SLOTS * order)
        # per stripped level: each point's position in the orbit (-1 outside
        # it) and the images of the inverse transversal entries, flattened
        self._levels = []
        for lv in chain.levels[:strip]:
            pos = np.full(n, -1, dtype=np.intp)
            pos[lv.points] = np.arange(len(lv.points))
            inverse = np.array([lv.inverse[b] for b in lv.points], dtype=_np_dtype(n))
            self._levels.append((pos, inverse.ravel()))
        tree = self._enumerate_elements(slots[strip])
        raw_class_of, words = self._find_classes(tree)
        del tree
        self._order_and_name_classes(raw_class_of, words)
        del raw_class_of, words
        self._power_maps()
        self._counts: dict[int, np.ndarray] = {}  # product_counts, by class

    # -- keys ----------------------------------------------------------------

    def _coordinates(self, base_images) -> np.ndarray:
        """Keys in `_at` of the elements whose images of `self.base` are the
        rows given; KeyError unless every value is a point, 0 <= image < n:
        packed, an image of n + c would alias the key of one more in the
        previous place, and a negative one would wrap."""
        b = np.asarray(base_images).T  # one row per base point
        if b.size and not (0 <= b.min() and b.max() < self.degree):
            raise KeyError("a base image is not a point: not an element of the group")
        return self._keys(b)

    def _keys(self, columns) -> np.ndarray:
        """Keys of the base-image tuples given as columns, one row per base
        point, all of them points.  Each stripped level reads the position
        p of the first remaining image in its orbit and strips u^-1 off the
        later ones, since (g u^-1)(b) = u^-1[g(b)]; the positions are read in
        mixed radix, then the images left in radix n.  Stripping can be
        undone, so distinct tuples that stay in the orbits get distinct
        keys, and a tuple that is no element's base images either leaves an
        orbit (KeyError) or gets a key that no element has."""
        n = self.degree
        keys = np.zeros(columns.shape[1], dtype=np.intp)
        for pos, inverse in self._levels:
            p = pos[columns[0]]
            if (p < 0).any():
                raise KeyError("a base image leaves its orbit: not an element of the group")
            keys *= len(inverse) // n
            keys += p
            columns = inverse.take(columns[1:] + p * n)
        for images in columns:
            keys *= n
            keys += images
        return keys

    def _index(self, base_images) -> np.ndarray:
        """Rows of the index holding the elements with these base images;
        KeyError when a tuple is the base images of no element."""
        rows = self._at[self._coordinates(base_images)]
        if (rows < 0).any():
            raise KeyError("no element has these base images: not an element of the group")
        return rows

    def _images(self, idx=slice(None), points=slice(None)) -> np.ndarray:
        """The images of `points` under the elements in rows `idx`, a view
        when both are slices.  The only reader of the stored rows; columns
        are gathered first, which keeps numpy off mixed advanced indexing."""
        return self._rows[:, points][idx]

    # element enumeration: BFS closure under right multiplication, one
    # frontier at a time; candidates come in (x, g) order and the first new
    # occurrence of each key is kept, which is the one-at-a-time order
    def _enumerate_elements(self, slots: int):
        n = self.degree
        dtype = _np_dtype(n)
        # a group given by no generators is generated by the identity
        gens = np.array([g.images for g in self.chain.generators] or [range(n)],
                        dtype=dtype)
        base, order, n_gens = self.base, self.order, len(gens)
        # candidate positions and rows are int32
        if order * n_gens >= 1 << 31:
            raise GroupTooLargeError(
                f"{n_gens} generators of a group of order {order} overflow int32 positions")
        # filled level by level; the order is known, so no block is copied
        rows = np.empty((order, n), dtype=dtype)
        rows[0] = np.arange(n)
        at = np.full(slots, -1, dtype=np.int32)
        at[self._coordinates(rows[:1, base])] = 0
        times = np.empty((n_gens, order), dtype=np.int32)
        parent = np.zeros(order, dtype=np.int32)
        letter = np.zeros(order, dtype=np.min_scalar_type(n_gens - 1))
        levels = []
        lo, hi = 0, 1
        while lo < hi:
            frontier = rows[lo:hi]
            # the frontier's base images, one contiguous row per base point;
            # candidate j * n_gens + s is gens[s][frontier[j]]
            columns = frontier.T[base]
            keys = np.empty((hi - lo) * n_gens, dtype=np.intp)
            for s, g in enumerate(gens):
                keys[s::n_gens] = self._keys(g.take(columns))
            # one lookup per candidate; only the fresh ones are read again
            found = at.take(keys)
            fresh = np.flatnonzero(found < 0)
            fresh_keys = keys[fresh]
            # each unseen slot of `at` (-1) takes the least mark of its
            # candidates; marks are below -1 and rise with the position, so
            # the candidate whose mark stays is the first occurrence
            mark = fresh.astype(np.int32) - np.int32(len(keys) + 1)
            np.minimum.at(at, fresh_keys, mark)
            won = at.take(fresh_keys) == mark
            first = fresh[won]
            # every marked slot holds a first occurrence: no mark is left
            at[fresh_keys[won]] = np.arange(hi, hi + len(first))
            found[fresh] = at.take(fresh_keys)
            times[:, lo:hi] = found.reshape(hi - lo, n_gens).T
            # the candidates are freed before the new rows are filled
            del keys, found, fresh, fresh_keys, mark, won
            j, s = np.divmod(first, n_gens)
            new = slice(hi, hi + len(first))
            for t, g in enumerate(gens):
                pick = np.flatnonzero(s == t)
                rows[new][pick] = g[frontier[j[pick]]]
            parent[new] = lo + j
            letter[new] = s
            if len(first):
                levels.append(new)
            lo, hi = hi, hi + len(first)
        if hi != self.order:
            raise AssertionError("element enumeration does not match group order")
        self._rows = rows
        self._at = at
        self._times = times
        # the BFS tree: row x = parent[x] * g_letter[x], level by level
        return parent, letter, levels

    def _left_times(self, steps, g_row: int) -> np.ndarray:
        """The rows of g x for every row x, where g is the element in row
        `g_row`.  Along the tree, x = y g_s gives g x = (g y) g_s, the entry
        s * N + (g y) of the flattened Cayley table: one flat take per BFS
        level, whose steps (the level's rows, their parents and their
        offsets s * N) are made once and shared by every g."""
        left = np.empty(self.order, dtype=np.int32)
        left[0] = g_row
        flat = self._times.ravel()
        for new, parent, offset in steps:
            flat.take(left.take(parent) + offset, out=left[new])
        return left

    def _conjugations(self, tree) -> list:
        """Conjugation by each generator g, as an index permutation: x ->
        g^-1 x g, the row of (g^-1 x) g.  g^-1 is the one row that g takes
        to the identity, row 0."""
        parent, letter, levels = tree
        # int32 offsets: the enumeration checked order * n_gens < 2^31
        steps = [(new, parent[new], letter[new] * np.int32(self.order)) for new in levels]
        return [t.take(self._left_times(steps, int(t.argmin()))) for t in self._times]

    def _find_classes(self, tree):
        """Each row's class, numbered in the order of the classes' first
        elements, and each class's entry spelled as a word along the tree.

        Labels start as label[i] = i and take label = min(label, label[c])
        through each conjugation c, forward only, then jump pointers,
        label = label[label], until a sweep changes nothing.  label[i] stays
        an element of i's class and at most i.  Each step only lowers labels,
        so after a sweep that changes nothing label[i] <= label[c(i)] for
        every row i and every c; along a cycle of c that gives label[i] <=
        label[c(i)] <= ... <= label[i], so labels are equal on each cycle of
        each c.  They are then constant on each orbit of the group the
        conjugations generate, which holds conjugation by every element, so
        on each class; its first element is labelled by itself, so every
        label is its class's first element.  No inverse map is needed."""
        conj = self._conjugations(tree)
        label = np.arange(self.order, dtype=np.int32)
        gathered, before = np.empty_like(label), np.empty_like(label)
        while True:
            before[:] = label
            for c in conj:
                np.minimum(label, label.take(c, out=gathered), out=label)
            label, gathered = label.take(label, out=gathered), label
            if np.array_equal(label, before):
                break
        del conj, gathered, before
        # a class's first element is labelled by itself; the classes are
        # numbered in the order of their first elements
        entries = np.flatnonzero(label == np.arange(len(label), dtype=np.int32))
        raw_class_of = np.empty(len(label), dtype=np.int32)
        raw_class_of[entries] = np.arange(len(entries))
        raw_class_of = raw_class_of[label]
        del label
        # each class's entry, its first element, spelled along the tree: a
        # shortest word in the generators, since the BFS goes level by level
        parent, letter, _ = tree
        words = []
        for x in entries.tolist():
            word = []
            while x:
                word.append(int(letter[x]))
                x = int(parent[x])
            words.append(tuple(reversed(word)))
        return raw_class_of, words

    def _order_and_name_classes(self, raw_class_of, words):
        """Each class's lex-least representative; then the classes sorted
        by representative order, size and representative, and named."""
        sizes = np.bincount(raw_class_of).tolist()
        # lex-min representative: compare the rows of each class one point
        # at a time and keep only the rows that tie with their class's
        # minimum; rows are distinct, so this ends with one row per class,
        # mostly after the first few points
        cand, cls = np.arange(self.order), raw_class_of
        for c in range(self.degree):
            if len(cand) == len(sizes):
                break
            point = self._images(cand, c)
            low = np.full(len(sizes), self.degree - 1, dtype=point.dtype)
            np.minimum.at(low, cls, point)
            tie = point == low[cls]
            cand, cls = cand[tie], cls[tie]
        reps = [Permutation(r) for r in self._images(cand[np.argsort(cls)]).tolist()]
        orders = [r.order() for r in reps]
        perm = sorted(range(len(reps)),
                      key=lambda i: (orders[i], sizes[i], reps[i].images))
        remap = np.zeros(len(reps), dtype=np.int32)
        for new, old in enumerate(perm):
            remap[old] = new
        self.class_of_idx = remap[raw_class_of]
        self.classes = []
        counters: dict[int, int] = {}
        for new, old in enumerate(perm):
            o = orders[old]
            k = counters.get(o, 0)
            counters[o] = k + 1
            self.classes.append(ConjClassData(
                representative=reps[old],
                size=sizes[old],
                rep_order=o,
                name=f"{o}{class_letter(k)}",
            ))
        self._entry_words = [words[old] for old in perm]
        total = sum(c.size for c in self.classes)
        if total != self.order:
            raise AssertionError("class sizes do not sum to group order")
        for c in self.classes:
            if self.order % c.size:
                raise AssertionError("class size does not divide group order")

    def _power_maps(self):
        reps = np.array([c.representative.images for c in self.classes],
                        dtype=_np_dtype(self.degree))
        # the base images of each representative's t-th power, x^(t+1)
        # having the images x[x^t[i]]
        images = np.tile(self.base, (len(reps), 1))
        powers = []
        for _ in range(max(c.rep_order for c in self.classes)):
            powers.append(images)
            images = np.take_along_axis(reps, images, axis=1)
        below = np.arange(len(powers)) < np.array([[c.rep_order] for c in self.classes])
        found = iter(self.classes_of_base_images(np.stack(powers, axis=1)[below]).tolist())
        for c in self.classes:
            c.power_map = {t: next(found) for t in range(c.rep_order)}

    # -- lookups -----------------------------------------------------------

    def classes_of_base_images(self, base_images) -> np.ndarray:
        """Classes of the group elements whose images of `self.base` are the
        rows given, rows of points.  KeyError when a row is the base images
        of no element: it holds a value that is not a point, leaves an orbit
        of a stripped level or lands on an empty slot of the key table."""
        return self.class_of_idx[self._index(base_images)]

    def class_of(self, p: Permutation) -> int:
        return self.class_of_images(p.images)

    def class_of_images(self, images) -> int:
        """Class of one element, given as its image tuple or array; raises
        KeyError unless it is an element of the group."""
        row = np.asarray(images)
        # `_index` checks that the base images are points, and the whole
        # row is compared with the element found
        if row.shape == (self.degree,):
            i = self._index(row[None, self.base])[0]
            if np.array_equal(self._images(i), row):
                return int(self.class_of_idx[i])
        raise KeyError("not an element of the group")

    def elements_of_class(self, k: int) -> np.ndarray:
        """The elements of class k, one row each, in element order."""
        return self._images(self.class_of_idx == k)

    def product_counts(self, k: int) -> np.ndarray:
        """Count matrix, [j, c] = #{x in class k : x z_c in class j}, where
        z_c is class c's entry (its first element).  Each entry's word is
        applied to all of class k by gathers in the Cayley table; the words
        are taken in sorted order, so a prefix shared with the previous one
        is not gathered again.  The matrix is made once per class and
        cached, read-only: the index is fixed once the system is built."""
        if k in self._counts:
            return self._counts[k]
        n_classes = len(self.classes)
        counts = np.empty((n_classes, n_classes), dtype=np.int64)
        # stack[d] is class k times the first d letters of `done`
        stack, done = [np.flatnonzero(self.class_of_idx == k)], ()
        for c in sorted(range(n_classes), key=self._entry_words.__getitem__):
            word = self._entry_words[c]
            shared = 0
            while shared < min(len(word), len(done)) and word[shared] == done[shared]:
                shared += 1
            del stack[shared + 1:]
            for s in word[shared:]:
                stack.append(self._times[s, stack[-1]])
            counts[:, c] = np.bincount(self.class_of_idx[stack[-1]], minlength=n_classes)
            done = word
        counts.flags.writeable = False
        self._counts[k] = counts
        return counts

    def iter_class_images(self, k: int):
        return map(tuple, self.elements_of_class(k).tolist())

    def iter_class_images_with_product(self, k: int, x_images, target: int):
        # x*y has images y[x[i]], so its base images are y[x[base]]
        rows = self.elements_of_class(k)
        xb = np.asarray(x_images, dtype=np.intp)[self.base]
        hit = self.classes_of_base_images(rows[:, xb]) == target
        return map(tuple, rows[hit].tolist())

    def centralizer_generators(self, x_images) -> list:
        """Image tuples generating C_G(x).  One pass over the index, in
        blocks of at most `_SCAN_ROWS` rows, finds C_G(x), the rows c with
        c[x[i]] = x[c[i]]; walking them in element order, c is kept only
        when the kept ones do not generate it, and the walk stops once they
        generate all of C_G(x), so at most log2 |C_G(x)| tuples are made.  One chain is built per kept tuple,
        proved against |C_G(x)| when the tuples generate all of it."""
        x = np.asarray(x_images, dtype=_np_dtype(self.degree))
        blocks = []
        for lo in range(0, self.order, _SCAN_ROWS):
            rows = self._images(slice(lo, lo + _SCAN_ROWS))
            blocks.append(rows[(rows[:, x] == x[rows]).all(axis=1)])
        cent = np.concatenate(blocks)
        ident = tuple(range(self.degree))
        gens: list[tuple] = []
        sub = None  # the chain of <gens>; the trivial group needs none
        for row in cent:
            if sub is not None and sub.order() == len(cent):
                break
            c = tuple(row.tolist())
            if c == ident if sub is None else sub.contains(c):
                continue
            gens.append(c)
            # every kept c lies in C_G(x), which has len(cent) elements
            sub = build_chain(gens, self.degree, within=len(cent))
        return gens


def conjugacy_classes(chain: StabilizerChain,
                      bound: int = DEFAULT_CLASS_BOUND) -> GroupClasses:
    """Spec surface: classes by BFS conjugation orbits, identity class first."""
    return GroupClasses(chain, bound)


def normal_closure(chain: StabilizerChain, seeds) -> StabilizerChain:
    """Normal closure of the seed elements inside the group of `chain`."""
    seeds = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    current = [s for s in seeds if not s.is_identity()]
    sub = StabilizerChain(current, chain.degree)
    changed = True
    while changed:
        changed = False
        for s in list(current):
            for g in chain.generators:
                c = s.conj(g)
                if not sub.contains(c):
                    current.append(c)
                    sub = StabilizerChain(current, chain.degree)
                    changed = True
    return sub


def derived_subgroup(chain: StabilizerChain) -> StabilizerChain:
    gens = chain.generators
    comms = [a.commutator(b) for a in gens for b in gens]
    return normal_closure(chain, comms)
