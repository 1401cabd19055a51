"""Exact matrices over the scalar rings, with the eliminations the rest of
the package leans on.

A matrix is stored by rows, each a {col: entry} dict of its nonzeros
(compressed-row storage; T. A. Davis, Direct Methods for Sparse Linear
Systems, SIAM 2006, ch. 2).  No zero is ever stored, so equality is
structural, and every operation costs the nonzeros it touches: a
permutation matrix costs n entries, not n^2.  Entries are rationals in
the canonical form of scalars (an int when integral, else a Fraction) or
HSeries; a series is zero when all its coefficients vanish.  An operation
puts each entry it computes in that form, and passes the others on.

A matrix made by from_table from a bijection keeps the table as perm
and its inverse as perm_inv; identities and symmetries are such.  A
permutation acts by moving indices, with no arithmetic: a product or
Kronecker product with one relabels the other operand's rows or columns,
and two compose as tables.  Every other matrix has both None.  A product
with an identity, or a Kronecker product with the 1x1 identity, is the
other operand itself, shared rather than rebuilt.

Matrices are dict keys, immutable by contract and unguarded: a raising
__setattr__ would make each of the thousands built per verify pay an
object.__setattr__ per slot.

One sparse exact elimination, _rref, serves kernels, cokernels and
inverses.  It is fraction-free, on integer rows, and deterministic: the
reduced row echelon form with leftmost pivots is unique to the row space,
and each pivot row is divided by its pivot into canonical rationals, an
int wherever the quotient is exact.  A series matrix is inverted through
its degree-0 part, so it is invertible exactly when that part is.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .scalars import RATIONAL, HSeries, Ring, RingMismatch, _int


class Singular(Exception):
    """Matrix has no inverse; carries a nonzero kernel vector as witness,
    over a series ring one of the degree-0 part times hbar^K."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class Matrix:
    """Immutable, hashable matrix; nz[i] holds row i's nonzeros, {col: entry}.

    Matrix(rows, cols, ring, entries) reads a dense row-major tuple and
    keeps its nonzeros; Matrix.sparse takes rows of nonzeros as they are.
    Row dicts may be shared between matrices, so they are never mutated.
    perm / perm_inv are a permutation's table and its inverse (from_table),
    else None; equality and hashing ignore them.  Nothing assigns a slot
    after construction but the cached hash (see the module docstring).
    """

    __slots__ = ("rows", "cols", "ring", "nz", "perm", "perm_inv", "_hash")

    def __init__(self, rows, cols, ring, entries):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self._fill(rows, cols, ring, tuple(
            {j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)))

    def _fill(self, rows, cols, ring, nz):
        self.rows, self.cols, self.ring, self.nz = rows, cols, ring, nz
        self.perm = self.perm_inv = self._hash = None
        return self

    @classmethod
    def sparse(cls, rows, cols, ring, nz):
        """From rows of nonzeros, taken as they are: none may store a zero."""
        return _sparse(rows, cols, ring, nz)

    @classmethod
    def from_rows(cls, ring, rows):
        """From dense rows of ring.coerce inputs.  Each distinct string is
        parsed once per call: a JSON matrix is mostly "0"."""
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        parsed = {}

        def coerce(x):
            if x.__class__ is not str:
                return ring.coerce(x)
            v = parsed.get(x)
            if v is None:
                v = parsed[x] = ring.coerce(x)
            return v

        return _sparse(len(rows), c, ring, [
            {j: x for j, x in enumerate(map(coerce, row)) if x} for row in rows])

    @classmethod
    def from_table(cls, ring, table, rows):
        """0/1 matrix of a function: column j has its one in row table[j];
        perm is the table and perm_inv its inverse when it is a bijection."""
        one, nz, inv = ring.one(), [{} for _ in range(rows)], [None] * rows
        for j, i in enumerate(table):
            nz[i][j] = one
            inv[i] = j
        m = _sparse(rows, len(table), ring, nz)
        if len(table) == rows and all(nz):
            m.perm, m.perm_inv = tuple(table), tuple(inv)
        return m

    @classmethod
    def identity(cls, n, ring):
        return cls.from_table(ring, range(n), n)

    @classmethod
    def zeros(cls, rows, cols, ring):
        return _sparse(rows, cols, ring, ({},) * rows)

    @property
    def entries(self):
        """Dense row-major view, built on each call."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, ij):
        i, j = ij
        return self.nz[i].get(j, self.ring.zero())

    def row(self, i):
        r, zero = self.nz[i], self.ring.zero()
        return tuple(r.get(j, zero) for j in range(self.cols))

    def __eq__(self, other):
        return isinstance(other, Matrix) and ((self.rows, self.cols, self.ring, self.nz)
                                              == (other.rows, other.cols, other.ring, other.nz))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.ring, tuple(
                frozenset(r.items()) for r in self.nz)))
        return self._hash

    def _check_ring(self, other):
        # identity first: RATIONAL and each hseries_ring are shared objects
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("matrices over different rings")

    def __add__(self, other):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return _sparse(self.rows, self.cols, self.ring, [
            _acc(dict(a), b.items()) if a and b else a or b
            for a, b in zip(self.nz, other.nz)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _sparse(self.rows, self.cols, self.ring,
                       [{j: -x for j, x in r.items()} for r in self.nz])

    def scale(self, c):
        c = self.ring.coerce(c)
        return _sparse(self.rows, self.cols, self.ring,
                       [{j: _int(p) for j, x in r.items() if (p := c * x)} for r in self.nz])

    def __mul__(self, other):
        """Matrix product self @ other, over the nonzeros of both."""
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        p, q = self.perm, other.perm
        if p is not None and p == _iota(self.rows):
            return other
        if q is not None and q == _iota(other.rows):
            return self
        if p is not None and q is not None:
            return Matrix.from_table(self.ring, [p[i] for i in q], self.rows)
        if p is not None:
            return _sparse(self.rows, other.cols, self.ring,
                           [other.nz[t] for t in self.perm_inv])
        if q is not None:
            col = other.perm_inv
            return _sparse(self.rows, other.cols, self.ring,
                           [{col[c]: x for c, x in r.items()} for r in self.nz])
        b = other.nz
        out = []
        for arow in self.nz:
            acc = {}
            for t, x in arow.items():
                unit = x == 1
                for j, y in b[t].items():
                    p = y if unit else x * y
                    s = acc.get(j)
                    acc[j] = p if s is None else s + p
            out.append({j: _int(s) for j, s in acc.items() if s})
        return _sparse(self.rows, other.cols, self.ring, out)

    def transpose(self):
        nz = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                nz[j][i] = x
        return _sparse(self.cols, self.rows, self.ring, nz)

    def is_zero(self):
        return not any(self.nz)

    def to_json(self):
        enc = self.ring.to_json
        return [[enc(x) for x in self.row(i)] for i in range(self.rows)]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ring.kind})"


def _sparse(rows, cols, ring, nz):
    """Matrix.sparse, for the results built here, with no method dispatch."""
    return Matrix.__new__(Matrix)._fill(rows, cols, ring, tuple(nz))


@lru_cache(maxsize=None)
def _iota(n):
    """tuple(range(n)): the table of the identity of size n."""
    return tuple(range(n))


def _acc(out, terms, coef=1):
    """out[k] += coef * c for every (k, c) of terms, in place, keeping no
    zero value, each stored value in canonical form; returns out.  The one
    sparse accumulator: matrix rows, the elimination's row operations, and
    the enveloping algebra's elements.  Each sum is taken onto the stored
    value, so a series entry never meets an int zero."""
    if coef != 1:
        terms = ((k, coef * c) for k, c in terms)
    for k, c in terms:
        old = out.get(k)
        if old is not None:
            c = old + c
        if c:
            out[k] = _int(c)
        elif old is not None:
            del out[k]
    return out


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the row-major index convention: entry
    ((ra*b.rows + rb), (ca*b.cols + cb)) = a[ra,ca] * b[rb,cb], strictly
    associative with the composite index of tensor products of objects.
    The 1x1 identity is its unit: with it on either side, the other
    operand is returned as it is."""
    a._check_ring(b)
    bc, pa, pb = b.cols, a.perm, b.perm
    if pb is not None and b.rows == 1:
        return a
    if pa is not None and a.rows == 1:
        return b
    if pa is not None and pb is not None:
        br = b.rows
        return Matrix.from_table(a.ring, [i * br + k for i in pa for k in pb], a.rows * br)
    if pa is not None:
        nz = [{off + cb: y for cb, y in rb.items()}
              for off in [c * bc for c in a.perm_inv] for rb in b.nz]
    elif pb is not None:
        nz = [{ca * bc + c: x for ca, x in ra.items()} for ra in a.nz for c in b.perm_inv]
    else:
        nz = [{ca * bc + cb: _int(p) for ca, x in ra.items() for cb, y in rb.items()
               if (p := y if x == 1 else x * y)} for ra in a.nz for rb in b.nz]
    return _sparse(a.rows * b.rows, a.cols * bc, a.ring, nz)


def hstack(mats):
    if not mats:
        raise ValueError("nothing to stack")
    rows, ring = mats[0].rows, mats[0].ring
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    if any(m.ring != ring for m in mats):
        raise RingMismatch("hstack over mixed rings")
    nz = [{} for _ in range(rows)]
    off = 0
    for m in mats:
        for r, mr in zip(nz, m.nz):
            r.update({off + j: x for j, x in mr.items()})
        off += m.cols
    return _sparse(rows, off, ring, nz)


def _content_free(v):
    """The {col: int} row v divided by the gcd of its entries."""
    g = gcd(*v.values())
    return {k: x // g for k, x in v.items()} if g > 1 else v


def _eliminate(v, row, c):
    """v <- a*v - b*row, integer rows with a/b = row[c]/v[c] in lowest
    terms, so column c clears; divided by its content."""
    g = gcd(row[c], v[c])
    a, b = row[c] // g, v[c] // g
    if a != 1:
        v = {k: a * x for k, x in v.items()}
    return _content_free(_acc(v, row.items(), -b))


def _rref(vectors):
    """Reduced row echelon form, leftmost pivots, of the span of vectors,
    {col: rational} dicts of nonzeros, which it consumes: (rows, pivots),
    pivots ascending, rows[k] the sparse row of pivots[k].  Fraction-free
    (Bareiss, Math. Comp. 22 (1968)): each vector, scaled to a primitive
    integer row, is reduced on ints against the pivot rows so far, leftmost
    first; a pivot row has no column left of its pivot, so one pass from the
    right back-substitutes.  Each pivot row is divided by its pivot once, at
    the end, into an int where the quotient is exact and a Fraction
    elsewhere; the reduced form is unique, so it is the one a Fraction
    elimination gives.
    """
    pivot_rows = {}
    for v in vectors:
        d = lcm(*[x.denominator for x in v.values()])
        v = _content_free({k: x.numerator * (d // x.denominator) for k, x in v.items()})
        todo = [c for c in v if c in pivot_rows]
        queued = set(todo)
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            if c in v:
                row = pivot_rows[c]
                v = _eliminate(v, row, c)
                # clearing c brings in columns right of it only
                for k in row:
                    if k in pivot_rows and k not in queued:
                        queued.add(k)
                        heapq.heappush(todo, k)
        if v:
            pivot_rows[min(v)] = v
    pivots = sorted(pivot_rows)
    for c in reversed(pivots):
        row = pivot_rows[c]
        for k in [k for k in row if k != c and k in pivot_rows]:
            row = _eliminate(row, pivot_rows[k], k)
        pivot_rows[c] = row
    rows = []
    for c in pivots:
        row = pivot_rows[c]
        p = row[c]
        rows.append(row if p == 1 else
                    {k: x // p if not x % p else Fraction(x, p) for k, x in row.items()})
    return rows, pivots


def rational_kernel_vector(m: Matrix):
    """Some nonzero v with m @ v = 0, or None if the columns are independent;
    deterministic, with 1 at the leftmost free column."""
    if m.ring != RATIONAL:
        raise RingMismatch("kernel search is rational-only")
    rows, pivots = _rref(dict(r) for r in m.nz)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if not free:
        return None
    f = free[0]
    v = [0] * m.cols
    v[f] = 1
    for row, c in zip(rows, pivots):
        v[c] = -row.get(f, 0)
    return tuple(v)


def _rational_inverse(m: Matrix):
    """Inverse of a square rational matrix, the right half of the reduced
    rows of [m | 1]; None if m is singular, when a pivot falls right of m."""
    n, one = m.rows, RATIONAL.one()
    rows, pivots = _rref({**r, n + i: one} for i, r in enumerate(m.nz))
    if pivots and pivots[-1] >= n:
        return None
    return _sparse(n, n, RATIONAL, [{j - n: x for j, x in r.items() if j >= n}
                                    for r in rows])


def mat_invert(m: Matrix) -> Matrix:
    """Exact inverse, or Singular.  Over the series ring m = m0 + N with m0
    the degree-0 part and N^(K+1) = 0, so m^-1 = sum_{k<=K} (-m0^-1 N)^k m0^-1."""
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    ring = m.ring
    m0 = reduce_matrix(m)
    inv0 = _rational_inverse(m0)
    if inv0 is None:
        v = rational_kernel_vector(m0)
        if ring == RATIONAL:
            raise Singular("matrix is singular", v)
        # v * hbar^K is a genuine kernel vector in the truncated ring: every
        # product entry is (degree-0 part @ v) * hbar^K = 0.
        top = (0,) * ring.order
        raise Singular("degree-0 part is singular",
                       tuple(HSeries(ring.order, top + (x,)) for x in v))
    if ring == RATIONAL:
        return inv0
    term = total = lift_matrix(inv0, ring)
    step = -(term * (m - lift_matrix(m0, ring)))
    for _ in range(ring.order):
        term = step * term
        total = total + term
    return total


def cokernel_projection(relations: Matrix):
    """Quotient data for span(columns of relations) inside Q^n.

    Returns (p, s): p is r x n with p @ relations = 0 and p @ s = identity,
    r = n - rank(relations).  The quotient basis is the classes of the
    non-pivot coordinates of the column space's echelon form (leftmost
    pivots), and s sections by those coordinates.  Rational ring only.
    """
    if relations.ring != RATIONAL:
        raise RingMismatch("cokernel_projection is rational-only")
    n = relations.rows
    # echelonize the columns, rows of the transpose, each distinct nonzero
    # one once and sparsest first; the reduced form of a span is unique.
    # A transpose lists a row's keys ascending, so equal rows' items agree
    cols = {tuple(c.items()): c for c in relations.transpose().nz if c}
    rows, pivots = _rref(sorted(cols.values(), key=len))
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    slot = {f: t for t, f in enumerate(free)}
    one = RATIONAL.one()
    p = [{f: one} for f in free]
    # e_pivot = -sum(R[row, free] e_free) modulo the relation span
    for row, c in zip(rows, pivots):
        for f, x in row.items():
            if f != c:
                p[slot[f]][c] = -x
    s = [{slot[f]: one} if f in slot else {} for f in range(n)]
    return _sparse(len(free), n, RATIONAL, p), _sparse(n, len(free), RATIONAL, s)


def lift_matrix(m: Matrix, ring: Ring) -> Matrix:
    """Entrywise embedding of a rational matrix into a series ring."""
    if m.ring != RATIONAL:
        raise RingMismatch("can only lift rational matrices")
    if ring.kind == "rational":
        return m
    return _sparse(m.rows, m.cols, ring, [
        {j: HSeries.from_rational(x, ring.order) for j, x in r.items()} for r in m.nz])


def series_matrix(coeffs, ring: Ring) -> Matrix:
    """sum_d hbar^d coeffs[d] over the series ring, from rational matrices
    of one shape listed by degree; the inverse of series_coefficients."""
    rows, cols = coeffs[0].rows, coeffs[0].cols
    nz = []
    for i in range(rows):
        parts = [c.nz[i] for c in coeffs]
        nz.append({j: HSeries.from_coeffs([r.get(j, 0) for r in parts], ring.order)
                   for j in set().union(*parts)})
    return _sparse(rows, cols, ring, nz)


def series_coefficients(m: Matrix) -> list:
    """The rational matrix of each degree of a series matrix, listed by
    degree; the inverse of series_matrix."""
    return [_sparse(m.rows, m.cols, RATIONAL, [
        {j: c for j, x in r.items() if (c := x.coeffs[d])} for r in m.nz])
        for d in range(m.ring.order + 1)]


def reduce_matrix(m: Matrix) -> Matrix:
    """Degree-0 reduction of a series matrix back to the rationals."""
    if m.ring.kind == "rational":
        return m
    return _sparse(m.rows, m.cols, RATIONAL, [
        {j: c for j, x in r.items() if (c := x.constant_term())} for r in m.nz])
