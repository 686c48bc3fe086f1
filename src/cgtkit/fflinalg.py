"""Exact linear algebra over finite fields.

Two layers:

* ``FFMatrix`` — matrices over any ``FiniteField`` (entries are integer
  codes), with rank / nullspace / minimal polynomial.  Used for the
  module-theoretic computations (fixed spaces, Scott bounds, tensor
  modules).

* plain mod-p helpers on lists of ints (``modp_*``) for the class-algebra
  splitting inside the character-table engine, where p is a large Dixon
  prime and k = 1.  ``ff_simultaneous_eigenspaces`` is the public entry
  point for the common-eigenspace decomposition of a commuting family.
"""

from __future__ import annotations

import random

from .finitefield import FiniteField, _pdivmod, _pgcd, _ppowmod, _psub, _ptrim

__all__ = ["FFMatrix", "ff_rank", "ff_simultaneous_eigenspaces"]


class FFMatrix:
    """Immutable matrix over a FiniteField; rows of integer codes."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FiniteField, data):
        self.field = field
        self.data = tuple(tuple(int(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "FFMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FiniteField, rows: int, cols: int) -> "FFMatrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (isinstance(other, FFMatrix) and other.field is self.field
                and other.data == self.data)

    def __hash__(self):
        return hash((id(self.field), self.data))

    def __add__(self, other):
        self._compat(other)
        F = self.field
        return FFMatrix(F, [[F.add(a, b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        self._compat(other)
        F = self.field
        return FFMatrix(F, [[F.sub(a, b) for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        F = self.field
        return FFMatrix(F, [[F.neg(a) for a in row] for row in self.data])

    def _compat(self, other):
        if not isinstance(other, FFMatrix) or other.field is not self.field:
            raise ValueError("field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if not isinstance(other, FFMatrix) or other.field is not self.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        ocols = list(zip(*other.data))
        out = []
        for row in self.data:
            orow = []
            for col in ocols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = F.add(acc, F.mul(a, b))
                orow.append(acc)
            out.append(orow)
        return FFMatrix(F, out)

    def __pow__(self, n: int):
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        if n < 0:
            raise ValueError("negative matrix powers not supported")
        r = FFMatrix.identity(self.field, self.rows)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def transpose(self) -> "FFMatrix":
        return FFMatrix(self.field, list(zip(*self.data)))

    def kron(self, other: "FFMatrix") -> "FFMatrix":
        """Kronecker (tensor) product."""
        if other.field is not self.field:
            raise ValueError("field mismatch")
        F = self.field
        out = []
        for r1 in self.data:
            for r2 in other.data:
                out.append([F.mul(a, b) for a in r1 for b in r2])
        return FFMatrix(F, out)

    def map_entries(self, fn) -> "FFMatrix":
        return FFMatrix(self.field, [[fn(a) for a in row] for row in self.data])

    def frobenius_twist(self, times: int = 1) -> "FFMatrix":
        F = self.field
        return self.map_entries(lambda a: F.pow(a, F.p ** times))

    def change_field(self, big: FiniteField) -> "FFMatrix":
        F = self.field
        return FFMatrix(big, [[F.embed(a, big) for a in row] for row in self.data])

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Row-reduced echelon form; returns (rows, pivot_cols)."""
        F = self.field
        m = [list(r) for r in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = next((i for i in range(r, len(m)) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = F.inv(m[r][c])
            m[r] = [F.mul(inv, x) for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        return m[:r], pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "FFMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        F, n = self.field, self.rows
        aug = FFMatrix(F, [list(row) + [1 if i == j else 0 for j in range(n)]
                           for i, row in enumerate(self.data)])
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)) or len(pivots) < n:
            raise ZeroDivisionError("singular matrix")
        return FFMatrix(F, [row[n:] for row in red])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> "FFMatrix":
        """Basis of the right kernel, as rows."""
        F = self.field
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(red[i][fc])
            basis.append(v)
        return FFMatrix(F, basis) if basis else FFMatrix(F, [])

    # -- minimal polynomial --------------------------------------------------

    def minimal_polynomial(self):
        """Minimal polynomial, little-endian monic list of codes."""
        if self.rows != self.cols:
            raise ValueError("minimal polynomial of non-square matrix")
        F, n = self.field, self.rows
        minpoly = [1]
        for start in range(n):
            # annihilator of e_start relative to current minpoly
            v = [0] * n
            v[start] = 1
            v = _poly_apply(self, minpoly, v)
            if all(x == 0 for x in v):
                continue
            krylov = [v]
            cur = v
            while True:
                cur = _matvec(self, cur)
                dep = _dependency(F, krylov, cur)
                if dep is not None:
                    ann = [F.neg(c) for c in dep] + [1]
                    minpoly = _pmul(F, minpoly, ann)
                    break
                krylov.append(cur)
        return minpoly

    def has_distinct_eigenvalues(self) -> bool:
        """True iff the char poly is squarefree, i.e. minpoly squarefree of full degree."""
        mp = self.minimal_polynomial()
        if len(mp) - 1 != self.rows:
            return False
        F = self.field
        dmp = [F.mul(i % F.p, mp[i]) for i in range(1, len(mp))]
        while dmp and dmp[-1] == 0:
            dmp.pop()
        if not dmp:
            return False
        return len(_pgcd_field(F, mp, dmp)) == 1


def _matvec(M: FFMatrix, v):
    F = M.field
    out = []
    for row in M.data:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out

def _poly_apply(M: FFMatrix, poly, v):
    """poly(M) @ v."""
    F = M.field
    out = [0] * len(v)
    cur = list(v)
    for c in poly:
        if c:
            out = [F.add(o, F.mul(c, x)) for o, x in zip(out, cur)]
        cur = _matvec(M, cur)
    return out

def _dependency(F, basis, vec):
    """Coordinates c with vec = sum c_i basis_i if vec is in span(basis),
    else None; solved by row reducing the matrix [basis | vec] of columns."""
    k = len(basis)
    red, pivots = FFMatrix(F, list(zip(*basis, vec))).rref()
    if pivots and pivots[-1] == k:
        return None
    coords = [0] * k
    for row, pc in zip(red, pivots):
        coords[pc] = row[k]
    return coords

def _pmul(F, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return out

def _pgcd_field(F, f, g):
    f, g = list(f), list(g)
    while g and any(g):
        # f mod g
        dg = max(i for i, c in enumerate(g) if c)
        g = g[:dg + 1]
        inv = F.inv(g[-1])
        while len(f) >= len(g) and any(f):
            df = max(i for i, c in enumerate(f) if c)
            f = f[:df + 1]
            if df < dg:
                break
            c = F.mul(f[-1], inv)
            for j in range(len(g)):
                f[df - dg + j] = F.sub(f[df - dg + j], F.mul(c, g[j]))
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    while f and f[-1] == 0:
        f.pop()
    if f:
        inv = F.inv(f[-1])
        f = [F.mul(inv, c) for c in f]
    return f


def ff_rank(m: FFMatrix) -> int:
    """Rank via exact row reduction."""
    return m.rank()


# -- mod-p dense helpers (k = 1, large p) -----------------------------------

def modp_matmul(A, B, p):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in Bt] for row in A]

def modp_matvec(A, v, p):
    return [sum(a * b for a, b in zip(row, v)) % p for row in A]

def modp_rref(M, p):
    m = [list(r) for r in M]
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots

def modp_kernel(M, p):
    """Right-kernel basis (list of vectors) of M mod p."""
    red, pivots = modp_rref(M, p)
    cols = len(M[0]) if M else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][fc]) % p
        basis.append(v)
    return basis

def modp_charpoly(A, p):
    """Characteristic polynomial mod p by Faddeev-LeVerrier (needs p > n)."""
    n = len(A)
    if p <= n:
        raise ValueError("Faddeev-LeVerrier needs p > n")
    I = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    M = [row[:] for row in I]
    coeffs = [1]  # x^n coefficient, descending
    for k in range(1, n + 1):
        AM = modp_matmul(A, M, p)
        c = (-sum(AM[i][i] for i in range(n)) * pow(k, -1, p)) % p
        coeffs.append(c)
        M = [[(AM[i][j] + (c if i == j else 0)) % p for j in range(n)] for i in range(n)]
    return coeffs[::-1]  # little-endian

def modp_roots(f, p):
    """All roots in GF(p) of f (assumed to split), by Cantor-Zassenhaus.

    The roots come back sorted, so the seeded random splitting choices
    never show in the result.
    """
    rng = random.Random(0x5EED)
    f = _ptrim([c % p for c in f])
    if len(f) <= 1:
        return []
    # strip multiplicities
    deriv = [(i * c) % p for i, c in enumerate(f)][1:]
    g = _pgcd(f, deriv, p)
    if len(g) > 1:
        f = _pdivmod(f, g, p)[0]
    # keep only the part that splits into linears: gcd with x^p - x
    xp = _ppowmod([0, 1], p, f, p)
    f = _pgcd(f, _psub(xp, [0, 1], p), p)
    roots = []
    stack = [f]
    while stack:
        h = stack.pop()
        if len(h) <= 1:
            continue
        if len(h) == 2:
            roots.append((-h[0] * pow(h[1], -1, p)) % p)
            continue
        while True:
            c = rng.randrange(p)
            probe = _psub(_ppowmod([c, 1], (p - 1) // 2, h, p), [1], p)
            d = _pgcd(h, probe, p)
            if 1 < len(d) < len(h):
                stack.append(d)
                stack.append(_pdivmod(h, d, p)[0])
                break
    return sorted(roots)


class SplitFailure(RuntimeError):
    """The commuting family did not split over this prime."""


def simultaneous_eigenspaces_modp(n, mats, p):
    """Common eigenspace decomposition of commuting n x n matrices over GF(p).

    `mats` may be any iterable, a lazy one included: the next matrix is
    drawn only while some space still has dimension above 1.  Returns a
    list of bases (each a list of vectors); they are all lines exactly when
    the family split completely.  Raises SplitFailure when some restricted
    matrix fails to split into eigenspaces over GF(p).
    """
    # every stored basis is kept in rref form so coordinates fall out of the
    # pivot columns directly
    spaces = [([_unit(n, i) for i in range(n)], list(range(n)))]
    mats = iter(mats)
    while any(len(basis) > 1 for basis, _ in spaces):
        M = next(mats, None)
        if M is None:
            break
        new_spaces = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
                continue
            A = _restriction(M, basis, pivots, p)
            cp = modp_charpoly(A, p)
            roots = modp_roots(cp, p)
            total = 0
            for lam in roots:
                Ashift = [[(A[i][j] - (lam if i == j else 0)) % p
                           for j in range(len(A))] for i in range(len(A))]
                ker = modp_kernel(Ashift, p)
                if not ker:
                    continue
                total += len(ker)
                sub = [_combine(basis, coords, p) for coords in ker]
                new_spaces.append(modp_rref(sub, p))
            if total != len(basis):
                raise SplitFailure(
                    f"matrix failed to split over GF({p}) "
                    f"(recovered {total} of {len(basis)} dimensions)")
        spaces = new_spaces
    return [basis for basis, _ in spaces]


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v

def _combine(basis, coords, p):
    n = len(basis[0])
    out = [0] * n
    for c, vec in zip(coords, basis):
        if c:
            for i in range(n):
                out[i] = (out[i] + c * vec[i]) % p
    return out

def _restriction(M, basis, pivots, p):
    """Matrix of M (acting on column vectors) restricted to span(basis).

    basis must be in rref form with the given pivot columns; the span must
    be M-invariant (guaranteed for intersections of eigenspaces of earlier
    members of a commuting family).
    """
    cols = []
    for b in basis:
        img = modp_matvec(M, b, p)
        cols.append(_coords(basis, pivots, img, p))
    return [list(row) for row in zip(*cols)]

def _coords(red, pivots, vec, p):
    """Coordinates of vec in the rref basis red (pivot columns known)."""
    v = list(vec)
    coords = [0] * len(red)
    for i, pc in enumerate(pivots):
        if v[pc]:
            c = v[pc] % p
            coords[i] = c
            v = [(x - c * y) % p for x, y in zip(v, red[i])]
    if any(v):
        raise SplitFailure("vector not in invariant subspace (non-commuting family?)")
    return coords


def ff_simultaneous_eigenspaces(mats):
    """Spec surface: common eigenspaces of commuting FFMatrix over a prime field.

    Returns a list of FFMatrix bases (rows spanning each eigenspace).
    """
    if not mats:
        raise ValueError("empty matrix family")
    F = mats[0].field
    if F.k != 1:
        raise ValueError("simultaneous eigenspaces expect a prime field")
    n = mats[0].rows
    for M in mats:
        if M.field is not F or M.rows != n or M.cols != n:
            raise ValueError("mixed shapes or fields")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise ValueError("matrices do not commute")
    ints = [[list(row) for row in M.data] for M in mats]
    spaces = simultaneous_eigenspaces_modp(n, ints, F.p)
    return [FFMatrix(F, basis) for basis in spaces]
