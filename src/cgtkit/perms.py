"""Permutations of {0..n-1} with disjoint-cycle I/O.

Composition is left-to-right: (p * q)(i) = q(p(i)), i.e. p acts first.
Cycle notation I/O is 1-based, e.g. "(1,2)(3,4)".  Conjugation p.conj(s)
= s^-1 * p * s relabels points by s, so a cycle (a b ...) maps to
(s(a) s(b) ...).
"""

from __future__ import annotations

import re
from math import gcd
from operator import itemgetter

__all__ = ["Permutation", "parse_perm", "parse_perm_file", "format_perm"]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _mul(p: tuple, q: tuple) -> tuple:
    """Images of "p, then q": the tuple q[p[i]]."""
    if len(p) < 2:  # itemgetter of one index returns a scalar, not a tuple
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def _inv(p: tuple) -> tuple:
    """Images of the inverse of p."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class Permutation:
    """Immutable bijection of {0..n-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from 0-based cycles."""
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        p = cls(images)
        p.validate()
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def validate(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation(_mul(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        r = Permutation.identity(len(self.images))
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def conj(self, s: "Permutation") -> "Permutation":
        """s^-1 * self * s (the relabel-by-s conjugate)."""
        si = s.images
        out = [0] * len(si)
        for i, j in enumerate(self.images):
            out[si[i]] = si[j]
        return Permutation(out)

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed: bool = False):
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple:
        """Partition of the degree, weakly decreasing, fixed points included."""
        lengths = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return tuple(lengths)

    def order(self) -> int:
        o = 1
        for c in self.cycles():
            o = o * len(c) // gcd(o, len(c))
        return o

    def sign(self) -> int:
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def support_size(self) -> int:
        return sum(1 for i, j in enumerate(self.images) if i != j)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({format_perm(self)})"

    def __str__(self):
        return format_perm(self)


def format_perm(p: Permutation) -> str:
    """Disjoint cycles, 1-based, e.g. '(1,2)(3,4)'; identity is '()'."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(i + 1) for i in c) + ")" for c in cycs)


def parse_perm(s: str, degree: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation like '(1,2)(3,4)' or '()'."""
    s = s.strip()
    stripped = re.sub(r"\s+", "", s)
    if stripped in ("()", ""):
        return Permutation.identity(degree)
    body = _CYCLE_RE.findall(stripped)
    if not body or _CYCLE_RE.sub("", stripped):
        raise ValueError(f"cannot parse permutation {s!r}")
    cycles = []
    for grp in body:
        if not grp:
            continue
        pts = [int(tok) - 1 for tok in re.split(r"[,\s]+", grp) if tok]
        for pt in pts:
            if not 0 <= pt < degree:
                raise ValueError(f"point {pt + 1} out of range for degree {degree}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {grp!r}")
        cycles.append(pts)
    return Permutation.from_cycles(degree, cycles)


def parse_perm_file(text: str):
    """Spec generator-file format: header 'degree N', then one permutation per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("degree"):
        raise ValueError("generator file must start with a 'degree N' header")
    degree = int(lines[0].split()[1])
    return degree, [parse_perm(ln, degree) for ln in lines[1:]]
