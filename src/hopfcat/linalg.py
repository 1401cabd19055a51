"""Exact matrices over the scalar rings, with the eliminations the rest of
the package leans on.

Rational elimination is sparse and exact: rows are {col: Fraction} dicts
of their nonzeros.  Its results are deterministic because the reduced row
echelon form with leftmost pivots is unique to the row space.  Inversion is
dense; over the truncated series ring its pivots must be units (nonzero
constant term), so it succeeds exactly when the degree-0 part is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import RATIONAL, HSeries, Ring, RingMismatch


class Singular(Exception):
    """Matrix has no inverse; carries a nonzero kernel vector as witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    ring: Ring
    entries: tuple  # row-major, length rows * cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, ring, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(ring.coerce(x) for x in row)
        return cls(r, c, ring, tuple(flat))

    @classmethod
    def identity(cls, n, ring):
        ent = [ring.zero()] * (n * n)
        ent[::n + 1] = [ring.one()] * n
        return cls(n, n, ring, tuple(ent))

    @classmethod
    def zeros(cls, rows, cols, ring):
        z = ring.zero()
        return cls(rows, cols, ring, (z,) * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")

    def __add__(self, other):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        zero = self.ring.zero()
        return Matrix(self.rows, self.cols, self.ring,
                      tuple(a if b is zero or not b else b if a is zero or not a else a + b
                            for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return Matrix(self.rows, self.cols, self.ring,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Matrix(self.rows, self.cols, self.ring, tuple(-a for a in self.entries))

    def scale(self, c):
        c = self.ring.coerce(c)
        return Matrix(self.rows, self.cols, self.ring, tuple(c * a for a in self.entries))

    def __mul__(self, other):
        """Matrix product self @ other."""
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        zero, one = self.ring.zero(), self.ring.one()
        # the nonzeros of a row of other are found once, when first
        # needed; a sum starts at its first product, not at zero
        brows = [None] * k
        out = []
        for i in range(n):
            acc = [zero] * m
            for t, x in enumerate(a[i * k:(i + 1) * k]):
                if x is zero or not x:
                    continue
                brow = brows[t]
                if brow is None:
                    brow = brows[t] = [(j, y) for j, y in enumerate(b[t * m:(t + 1) * m])
                                       if y is not zero and y]
                for j, y in brow:
                    p = y if x is one else x * y
                    s = acc[j]
                    acc[j] = p if s is zero else s + p
            out.extend(acc)
        return Matrix(n, m, self.ring, tuple(out))

    def transpose(self):
        e = self.entries
        c = self.cols
        return Matrix(c, self.rows, self.ring,
                      tuple(e[i * c + j] for j in range(c) for i in range(self.rows)))

    def is_zero(self):
        is_zero = self.ring.is_zero
        return all(is_zero(x) for x in self.entries)

    def to_json(self):
        enc = self.ring.to_json
        return [[enc(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, ring, data):
        return cls.from_rows(ring, data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.ring.kind})"


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the row-major index convention.

    Entry ((ra*b.rows + rb), (ca*b.cols + cb)) = a[ra,ca] * b[rb,cb], so
    kron is strictly associative with the composite-index convention used
    for tensor products of objects.
    """
    a._check_ring(b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    zero, one = a.ring.zero(), a.ring.one()
    out = [zero] * (rows * cols)
    # the nonzeros of b with their offsets in the output, found once
    bnz = [(rb * cols + cb, y)
           for rb in range(b.rows)
           for cb, y in enumerate(b.entries[rb * b.cols:(rb + 1) * b.cols])
           if y is not zero and y]
    for idx, x in enumerate(a.entries):
        if x is zero or not x:
            continue
        ra, ca = divmod(idx, a.cols)
        base = ra * b.rows * cols + ca * b.cols
        for off, y in bnz:
            out[base + off] = y if x is one else x if y is one else x * y
    return Matrix(rows, cols, a.ring, tuple(out))


def hstack(mats):
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    ring = mats[0].ring
    for m in mats[1:]:
        if m.rows != rows:
            raise ValueError("row count mismatch in hstack")
        if m.ring != ring:
            raise RingMismatch("hstack over mixed rings")
    out = []
    for i in range(rows):
        for m in mats:
            out.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in mats), ring, tuple(out))


def _rref(vectors):
    """Reduced row echelon form, leftmost pivots, of the span of vectors.

    vectors: {col: Fraction} dicts of nonzeros, consumed.  Each is reduced
    against the pivot rows so far, normalised on its leftmost entry and
    back-substituted into them.  Returns (rows, pivot_cols), pivots
    ascending, rows[k] the sparse pivot row of pivot_cols[k].
    """
    pivot_rows = {}
    for v in vectors:
        # Pivot rows are zero on every other pivot column, so one pass over
        # the pivot columns v starts with clears them all.
        for c in [c for c in v if c in pivot_rows]:
            _axpy(v, -v[c], pivot_rows[c])
        if not v:
            continue
        lead = min(v)
        pv = v[lead]
        if pv != 1:
            inv = 1 / pv
            v = {k: x * inv for k, x in v.items()}
        for row in pivot_rows.values():
            f = row.get(lead)
            if f:
                _axpy(row, -f, v)
        pivot_rows[lead] = v
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _axpy(y, a, x):
    """y += a * x on sparse rows, dropping entries that cancel."""
    for k, xk in x.items():
        t = y.get(k, 0) + a * xk
        if t:
            y[k] = t
        else:
            del y[k]


def rational_kernel_vector(m: Matrix):
    """Some nonzero v with m @ v = 0, or None if the columns are independent.

    Deterministic: the free column chosen is the leftmost one.
    """
    if m.ring != RATIONAL:
        raise RingMismatch("kernel search is rational-only")
    rows, pivots = _rref({j: x for j, x in enumerate(m.row(i)) if x}
                         for i in range(m.rows))
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if not free:
        return None
    f = free[0]
    v = [Fraction(0)] * m.cols
    v[f] = Fraction(1)
    for row, c in zip(rows, pivots):
        v[c] = -row.get(f, Fraction(0))
    return tuple(v)


def mat_invert(m: Matrix) -> Matrix:
    """Exact inverse; raises Singular with a nonzero kernel-vector witness.

    Over the truncated series ring the pivots must be units, so inversion
    succeeds iff the degree-0 part is invertible; the witness in that case
    is a degree-0 kernel vector placed at top degree, which multiplies the
    matrix to zero exactly in the truncated ring.
    """
    if m.rows != m.cols:
        raise ValueError("inverse needs a square matrix")
    n = m.rows
    ring = m.ring
    aug = [list(m.row(i)) + [ring.one() if i == j else ring.zero() for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pr = None
        for i in range(c, n):
            if ring.is_unit(aug[i][c]):
                pr = i
                break
        if pr is None:
            return _raise_singular(m)
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = ring.inv(aug[c][c])
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                if not ring.is_zero(f):
                    rc = aug[c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], rc)]
    out = []
    for i in range(n):
        out.extend(aug[i][n:])
    return Matrix(n, n, ring, tuple(out))


def _raise_singular(m: Matrix):
    if m.ring == RATIONAL:
        w = rational_kernel_vector(m)
        raise Singular("matrix is singular", w)
    k = m.ring.order
    m0 = Matrix(m.rows, m.cols, RATIONAL, tuple(x.constant_term() for x in m.entries))
    w0 = rational_kernel_vector(m0)
    # v * hbar^K is a genuine kernel vector in the truncated ring: every
    # product entry is (degree-0 part @ v) * hbar^K = 0.
    witness = tuple(
        HSeries(k, tuple(Fraction(0) for _ in range(k)) + (x,)) for x in w0
    )
    raise Singular("degree-0 part is singular", witness)


def cokernel_projection(relations: Matrix, ambient_dim=None):
    """Quotient data for span(columns of relations) inside Q^n.

    Returns (p, s): p is r x n with p @ relations = 0 and p @ s = identity,
    r = n - rank(relations).  The quotient basis is the classes of the
    non-pivot coordinates of the column space's echelon form (leftmost
    pivots), and s sections by those coordinates.  Rational ring only.
    """
    if relations.ring != RATIONAL:
        raise RingMismatch("cokernel_projection is rational-only")
    n, m = relations.rows, relations.cols
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient dimension disagrees with relation rows")
    # Echelonize the span of the columns, viewed as sparse vectors in Q^n.
    cols = [{} for _ in range(m)]
    for idx, x in enumerate(relations.entries):
        if x:
            i, j = divmod(idx, m)
            cols[j][i] = x
    rows, pivots = _rref(cols)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    r = len(free)
    zero, one = RATIONAL.zero(), RATIONAL.one()
    slot = {f: t for t, f in enumerate(free)}
    p = [zero] * (r * n)
    s = [zero] * (n * r)
    for t, f in enumerate(free):
        p[t * n + f] = one
        s[f * r + t] = one
    # e_pivot = -sum(R[row, free] e_free) modulo the relation span
    for row, c in zip(rows, pivots):
        for f, x in row.items():
            if f != c:
                p[slot[f] * n + c] = -x
    return Matrix(r, n, RATIONAL, tuple(p)), Matrix(n, r, RATIONAL, tuple(s))


def lift_matrix(m: Matrix, ring: Ring) -> Matrix:
    """Entrywise embedding of a rational matrix into a series ring."""
    if m.ring != RATIONAL:
        raise RingMismatch("can only lift rational matrices")
    if ring.kind == "rational":
        return m
    zero = ring.zero()
    return Matrix(m.rows, m.cols, ring,
                  tuple(HSeries.from_rational(x, ring.order) if x else zero
                        for x in m.entries))


def reduce_matrix(m: Matrix) -> Matrix:
    """Degree-0 reduction of a series matrix back to the rationals."""
    if m.ring.kind == "rational":
        return m
    return Matrix(m.rows, m.cols, RATIONAL, tuple(x.constant_term() for x in m.entries))
