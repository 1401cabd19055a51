import ast
import inspect
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat import linalg
from hopfcat.linalg import (
    Matrix,
    Singular,
    _rref,
    cokernel_projection,
    hstack,
    lift_matrix,
    mat_invert,
    mat_kron,
    rational_kernel_vector,
    reduce_matrix,
    series_coefficients,
    series_matrix,
)
from hopfcat.scalars import RATIONAL, HSeries, Ring, RingMismatch, hseries_ring

from conftest import (
    DenseMatrix,
    agrees,
    canonical,
    dense_hstack,
    fraction_rref,
    is_canonical,
    permutation_inverse,
)

# in canonical form, as every stored entry is: ints where integral
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8).map(canonical)


def qm(rows):
    return Matrix.from_rows(RATIONAL, rows)


def square_matrices(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(qm)


@st.composite
def series_square_matrices(draw):
    """Square matrices over the series ring of order 1-3, side 0-3; the
    degree-0 parts come from a few small integers, so they are often
    singular, and the higher coefficients are often zero."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entry = st.tuples(st.sampled_from([0, 1, -1, 2]),
                      st.lists(st.one_of(st.just(0), rationals), min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix.from_rows(hseries_ring(k), [[[c0, *cs] for c0, cs in row] for row in rows])


# ---------------------------------------------------------------------------
# dense reference elimination, the oracle for the sparse one in the library


def dense_rref(rows):
    """Reduced row echelon form over the rationals, leftmost pivots.

    Mutates and returns (rows, pivot_cols).  rows is a list of lists of
    rationals; each pivot row is divided over Fraction.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = Fraction(1) / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_kernel_vector(m):
    rows, pivots = dense_rref([list(m.row(i)) for i in range(m.rows)])
    free = [c for c in range(m.cols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    v = [Fraction(0)] * m.cols
    v[f] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -rows[r][f]
    return tuple(v)


def dense_cokernel_projection(relations):
    n = relations.rows
    rows, pivots = dense_rref([[relations[i, j] for i in range(n)]
                               for j in range(relations.cols)])
    free = [c for c in range(n) if c not in pivots]
    r = len(free)
    p_rows = [[Fraction(0)] * n for _ in range(r)]
    for t, f in enumerate(free):
        p_rows[t][f] = Fraction(1)
        for row, c in enumerate(pivots):
            p_rows[t][c] = -rows[row][f]
    s_rows = [[Fraction(0)] * r for _ in range(n)]
    for t, f in enumerate(free):
        s_rows[f][t] = Fraction(1)
    return (Matrix(r, n, RATIONAL, tuple(x for row in p_rows for x in row)),
            Matrix(n, r, RATIONAL, tuple(x for row in s_rows for x in row)))


# mostly zeros, as the relation matrices are, with non-integer entries mixed in
sparse_entries = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def rational_matrices(draw, max_side=7):
    """Wide, tall and square matrices, with repeated, rescaled and zero
    rows appended (factor 0 gives a zero row, factor 1 a repeat)."""
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    copies = draw(st.lists(st.tuples(st.integers(0, r - 1),
                                     st.sampled_from([0, 1, -1, Fraction(2, 3)])),
                           max_size=3))
    for i, k in copies:
        rows.append([k * x for x in rows[i]])
    return qm(rows)


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, RATIONAL, (Fraction(1),))

    def test_product_frozen(self):
        a = qm([[1, 2], [3, 4]])
        b = qm([[0, 1], [1, 0]])
        assert (a * b).entries == tuple(map(Fraction, (2, 1, 4, 3)))

    def test_product_shape_mismatch(self):
        with pytest.raises(ValueError):
            qm([[1, 2]]) * qm([[1, 2]])

    def test_transpose(self):
        a = qm([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().row(0) == tuple(map(Fraction, (1, 4)))

    def test_json_roundtrip(self):
        a = qm([[Fraction(1, 3), -2], [0, 5]])
        assert Matrix.from_rows(RATIONAL, a.to_json()) == a

    @pytest.mark.parametrize("ring", [RATIONAL, hseries_ring(2)])
    def test_from_rows_reads_each_entry_as_coerce_does(self, ring):
        """Repeated strings are parsed once per call; ints, and series
        coefficient lists over the series ring, are read as they come."""
        rows = [["0", "1/2", "0", 1], ["0", 0, "1/2", "-3"]]
        if ring != RATIONAL:
            rows[1][1] = ["0", "1/2"]
        m = Matrix.from_rows(ring, rows)
        assert [list(m.row(i)) for i in range(2)] == [list(map(ring.coerce, r)) for r in rows]
        with pytest.raises(TypeError):
            Matrix.from_rows(ring, [["0", "0"], ["0", 0.0]])


class TestInverse:
    def test_frozen_2x2(self):
        a = qm([[1, 1], [0, 1]])
        assert mat_invert(a) == qm([[1, -1], [0, 1]])

    def test_singular_carries_kernel_witness(self):
        a = qm([[1, 1], [1, 1]])
        with pytest.raises(Singular) as exc:
            mat_invert(a)
        w = exc.value.witness
        assert any(x != 0 for x in w)
        col = Matrix(2, 1, RATIONAL, w)
        assert (a * col).is_zero()

    @pytest.mark.parametrize("order, coeffs", [(2, (1, -1, 1)), (3, (1, -1, 1, -1))],
                             ids=["order2", "order3"])
    def test_series_inverse_of_one_plus_hbar(self, order, coeffs):
        a = Matrix.from_rows(hseries_ring(order), [[["1", "1"]]])
        assert mat_invert(a)[0, 0].coeffs == tuple(map(Fraction, coeffs))

    def test_series_singular_witness_annihilates(self):
        # degree-0 part singular, so no inverse even though entries are nonzero
        r = hseries_ring(1)
        a = Matrix.from_rows(r, [[["1", "0"], ["1", "1"]],
                                 [["1", "0"], ["1", "0"]]])
        with pytest.raises(Singular) as exc:
            mat_invert(a)
        w = exc.value.witness
        assert any(w)
        col = Matrix(2, 1, r, w)
        assert (a * col).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(square_matrices(3), series_square_matrices()))
    def test_inverse_is_exact_or_witnessed(self, a):
        try:
            inv = mat_invert(a)
        except Singular as exc:
            col = Matrix(a.rows, 1, a.ring, exc.witness)
            assert (a * col).is_zero()
            assert any(exc.witness)
        else:
            one = Matrix.identity(a.rows, a.ring)
            assert a * inv == one and inv * a == one


class TestKron:
    def test_frozen_block_order(self):
        a = qm([[1, 2]])
        b = qm([[3], [4]])
        k = mat_kron(a, b)
        assert (k.rows, k.cols) == (2, 2)
        assert k.entries == tuple(map(Fraction, (3, 6, 4, 8)))

    def test_identity_factors(self):
        a = qm([[1, 2], [3, 4]])
        assert mat_kron(Matrix.identity(1, RATIONAL), a) == a
        assert mat_kron(a, Matrix.identity(1, RATIONAL)) == a

    @settings(max_examples=25)
    @given(square_matrices(2), square_matrices(2), square_matrices(2))
    def test_associative(self, a, b, c):
        assert mat_kron(mat_kron(a, b), c) == mat_kron(a, mat_kron(b, c))

    @settings(max_examples=25)
    @given(square_matrices(2), square_matrices(2))
    def test_mixed_product_rule(self, a, b):
        i2 = Matrix.identity(2, RATIONAL)
        lhs = mat_kron(a, i2) * mat_kron(i2, b)
        assert lhs == mat_kron(a, b)
        assert lhs == mat_kron(i2, b) * mat_kron(a, i2)


class TestCokernel:
    def test_no_relations_is_identity(self):
        p, s = cokernel_projection(Matrix.zeros(2, 0, RATIONAL))
        assert p == Matrix.identity(2, RATIONAL)
        assert s == Matrix.identity(2, RATIONAL)

    def test_frozen_difference_relation(self):
        # quotient of Q^2 by span(e0 - e1): classes agree, basis = class(e1)
        rel = qm([[1], [-1]])
        p, s = cokernel_projection(rel)
        assert p == qm([[1, 1]])
        assert s == qm([[0], [1]])

    def test_projection_laws(self):
        rel = qm([[1, 0], [-1, 1], [0, -1]])
        p, s = cokernel_projection(rel)
        assert (p * rel).is_zero()
        assert p * s == Matrix.identity(p.rows, RATIONAL)

    @settings(max_examples=40)
    @given(st.lists(st.lists(rationals, min_size=2, max_size=2),
                    min_size=4, max_size=4).map(qm))
    def test_random_relations(self, rel):
        p, s = cokernel_projection(rel)
        assert (p * rel).is_zero()
        assert p * s == Matrix.identity(p.rows, RATIONAL)
        # rank-nullity against an independent kernel probe
        probe = rel
        rank = 0
        seen = probe
        while True:
            v = rational_kernel_vector(seen)
            if v is None:
                rank = seen.cols
                break
            # drop one column involved in the dependency and retry
            drop = max(i for i, x in enumerate(v) if x != 0)
            cols = [[seen[r, c] for c in range(seen.cols) if c != drop]
                    for r in range(seen.rows)]
            if not cols[0]:
                rank = 0
                break
            seen = qm(cols)
        assert p.rows == 4 - rank


class TestStackAndLift:
    def test_hstack(self):
        a = qm([[1], [2]])
        b = qm([[3, 4], [5, 6]])
        assert hstack([a, b]) == qm([[1, 3, 4], [2, 5, 6]])

    def test_lift_then_reduce(self):
        r = hseries_ring(2)
        a = qm([[1, Fraction(1, 2)], [0, 3]])
        lifted = lift_matrix(a, r)
        assert lifted.ring == r
        assert reduce_matrix(lifted) == a

    def test_series_matrix_from_its_coefficients_and_back(self):
        r = hseries_ring(2)
        coeffs = [qm([[1, 0], [0, 2]]), qm([[0, 3], [0, 0]]), qm([[0, 0], [0, -2]])]
        m = series_matrix(coeffs, r)
        assert m.ring == r
        assert m[0, 1] == HSeries.from_coeffs([0, 3, 0], 2)
        assert m[1, 1] == HSeries.from_coeffs([2, 0, -2], 2)
        assert set(m.nz[1]) == {1}
        assert series_coefficients(m) == coeffs
        assert reduce_matrix(m) == coeffs[0]


class TestSparseEliminationAgainstDense:
    @settings(max_examples=150)
    @given(rational_matrices())
    def test_same_pivots_and_reduced_rows(self, m):
        dense_rows, dense_pivots = dense_rref([list(m.row(i)) for i in range(m.rows)])
        rows, pivots = _rref({j: x for j, x in enumerate(m.row(i)) if x}
                             for i in range(m.rows))
        assert pivots == dense_pivots
        assert len(rows) == len(pivots)
        for row, dense_row in zip(rows, dense_rows):
            assert all(x != 0 for x in row.values())
            assert [row.get(j, 0) for j in range(m.cols)] == dense_row
        assert all(x == 0 for row in dense_rows[len(pivots):] for x in row)

    @settings(max_examples=100)
    @given(rational_matrices())
    def test_kernel_vector_matches_dense(self, m):
        assert rational_kernel_vector(m) == dense_kernel_vector(m)

    @settings(max_examples=100)
    @given(rational_matrices())
    def test_cokernel_projection_matches_dense(self, m):
        assert cokernel_projection(m) == dense_cokernel_projection(m)

    def test_full_rank_relations_leave_a_zero_quotient(self):
        p, s = cokernel_projection(Matrix.identity(3, RATIONAL))
        assert (p.rows, p.cols) == (0, 3)
        assert (s.rows, s.cols) == (3, 0)


# ---------------------------------------------------------------------------
# products, sums and Kronecker products against their textbook definitions


# entries of the fraction-free tests: units, small and large integers,
# proper fractions
FREE_ENTRIES = [canonical(x) for x in (1, -1, 2, -2, 7, Fraction(1, 2), Fraction(-5, 3), 10 ** 6)]


@st.composite
def vector_lists(draw, max_cols=7):
    """(cols, vectors): sparse {col: rational} vectors over cols columns,
    with empty ones, repeats and nonzero multiples of earlier ones mixed in."""
    cols = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(Fraction(0)), st.sampled_from(FREE_ENTRIES))
    vectors = []
    for kind in draw(st.lists(st.sampled_from(["new", "new", "empty", "repeat", "multiple"]),
                              max_size=8)):
        if kind == "new" or not vectors:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
            vectors.append({j: x for j, x in enumerate(row) if x})
        elif kind == "empty":
            vectors.append({})
        else:
            v = draw(st.sampled_from(vectors))
            c = 1 if kind == "repeat" else draw(st.sampled_from(FREE_ENTRIES))
            vectors.append({j: canonical(c * x) for j, x in v.items()})
    return cols, vectors


def square_from(cols, vectors):
    """The square matrix whose rows are the first vectors, padded with
    zero rows and cut to cols columns."""
    rows = [[v.get(j, Fraction(0)) for j in range(cols)] for v in vectors[:cols]]
    rows += [[Fraction(0)] * cols for _ in range(cols - len(rows))]
    return qm(rows)


def inverse_or_witness(m):
    try:
        return "inverse", mat_invert(m)
    except Singular as exc:
        return "singular", exc.witness


class TestFractionFreeElimination:
    """_rref against the Fraction elimination it replaced
    (conftest.fraction_rref): the reduced row echelon form is unique, so
    both must give the same rows and pivots, every entry of the same
    canonical type: an int where it is integral, else a Fraction."""

    @settings(max_examples=300)
    @given(vector_lists())
    def test_same_rows_and_pivots_as_fraction_elimination(self, case):
        _, vectors = case
        rows, pivots = _rref([dict(v) for v in vectors])
        expect = fraction_rref([dict(v) for v in vectors])
        assert (rows, pivots) == expect
        assert [[type(x) for x in row.values()] for row in rows] == \
            [[type(x) for x in row.values()] for row in expect[0]]
        assert all(is_canonical(x) for row in rows for x in row.values())

    @settings(max_examples=150)
    @given(vector_lists())
    def test_kernels_and_inverses_unchanged(self, case):
        cols, vectors = case
        if not cols:
            return
        m = qm([[v.get(j, Fraction(0)) for j in range(cols)] for v in vectors] or
               [[Fraction(0)] * cols])
        sq = square_from(cols, vectors)
        series = lift_matrix(sq, hseries_ring(2))
        got = (rational_kernel_vector(m), inverse_or_witness(sq), inverse_or_witness(series))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_rref", fraction_rref)
            expect = (rational_kernel_vector(m), inverse_or_witness(sq), inverse_or_witness(series))
        assert got == expect
        for kind, value in got[1:]:
            if kind == "singular":
                assert all(is_canonical(x) for x in value)
            else:
                assert all(is_canonical(x) for row in value.nz for x in row.values())

    def test_divides_no_int_by_int(self):
        """The elimination's only division is the exact floor division
        by a common factor, and the last step builds each Fraction from
        its integer parts: no true division that int / int would turn
        into a float."""
        tree = ast.parse(inspect.getsource(linalg))
        parts = {"_content_free", "_eliminate", "_rref"}
        found = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in parts]
        assert {f.name for f in found} == parts
        for f in found:
            assert not any(isinstance(node, ast.Div) for node in ast.walk(f)), f.name

    def test_no_true_division_of_a_value_anywhere(self):
        """No value of the package meets /, which could make a float: the
        only true divisions in it join a path and a string."""
        joins = []
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    right = node.right if isinstance(node, ast.BinOp) else node.value
                    where = (path.name, node.lineno)
                    assert isinstance(right, (ast.JoinedStr, ast.Constant)), where
                    assert isinstance(right, ast.JoinedStr) or type(right.value) is str, where
                    joins.append(path.name)
        assert set(joins) == {"corpus.py"}


def ring_entries(ring):
    """The ring's shared zero and one, which the library passes over by
    identity, next to equal values that are separate objects (over the
    rationals the ints 0, 1, -1, which the interpreter shares), and others."""
    if ring == RATIONAL:
        fresh = st.sampled_from([0, 1, -1])
        values = rationals
    else:
        fresh = st.sampled_from([0, 1, -1]).map(lambda c: HSeries.from_rational(c, ring.order))
        values = st.lists(rationals, min_size=ring.order + 1, max_size=ring.order + 1).map(
            lambda c: HSeries(ring.order, tuple(c)))
    return st.one_of(st.sampled_from([ring.zero(), ring.one()]), fresh, values)


def ring_matrix(draw, ring, rows, cols):
    ent = draw(st.lists(ring_entries(ring), min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, ring, tuple(ent))


def textbook_product(a, b):
    ent = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = a.ring.zero()
            for t in range(a.cols):
                s = s + a[i, t] * b[t, j]
            ent.append(canonical(s))
    return Matrix(a.rows, b.cols, a.ring, tuple(ent))


def textbook_kron(a, b):
    return Matrix(a.rows * b.rows, a.cols * b.cols, a.ring, tuple(
        canonical(a[ra, ca] * b[rb, cb])
        for ra in range(a.rows) for rb in range(b.rows)
        for ca in range(a.cols) for cb in range(b.cols)))


def same_entries(m, expect):
    """m equals expect entry by entry, each of the same, canonical type."""
    return m == expect and all(type(x) is type(y) and is_canonical(x)
                               for x, y in zip(m.entries, expect.entries))


class TestEntrywiseOperations:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from([RATIONAL, hseries_ring(2)]))
    def test_product_sum_and_kron_match_the_definitions(self, data, ring):
        n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = ring_matrix(data.draw, ring, n, k)
        b = ring_matrix(data.draw, ring, k, m)
        c = ring_matrix(data.draw, ring, n, k)
        assert same_entries(a * b, textbook_product(a, b))
        assert same_entries(a + c, Matrix(n, k, ring, tuple(
            canonical(x + y) for x, y in zip(a.entries, c.entries))))
        assert same_entries(mat_kron(a, b), textbook_kron(a, b))

    def test_cancelling_sums_are_zero(self):
        a = qm([[1, 1]])
        b = qm([[1], [-1]])
        assert (a * b).entries == (Fraction(0),)
        assert (a + qm([[-1, 2]])).entries == (Fraction(0), Fraction(3))

    def test_identity(self):
        for ring in (RATIONAL, hseries_ring(1)):
            for n in range(4):
                assert Matrix.identity(n, ring) == Matrix(n, n, ring, tuple(
                    ring.one() if i == j else ring.zero() for i in range(n) for j in range(n)))


# ---------------------------------------------------------------------------
# the sparse matrix against the dense oracle in conftest


SERIES = hseries_ring(2)


def oracle_entries(ring):
    """Mostly zeros, shared and fresh; units and small integers, so sums
    cancel; other values; over the series ring also powers of hbar, whose
    products truncate to zero."""
    if ring == RATIONAL:
        return st.one_of(st.just(ring.zero()), st.sampled_from([0, 1, -1, 2]), rationals)
    k = ring.order
    return st.one_of(
        st.just(ring.zero()),
        st.sampled_from([0, 1, -1]).map(lambda c: HSeries.from_rational(c, k)),
        st.integers(1, k).map(lambda d: HSeries(k, tuple(Fraction(int(i == d))
                                                         for i in range(k + 1)))),
        st.lists(rationals, min_size=k + 1, max_size=k + 1).map(lambda c: HSeries(k, tuple(c))))


sides = st.integers(0, 3)


def matrix_and_oracle(draw, ring, rows, cols):
    """The same entries, explicit zeros included, as a Matrix (read by rows
    or from the dense tuple) and as the dense oracle."""
    ent = draw(st.lists(oracle_entries(ring), min_size=rows * cols, max_size=rows * cols))
    if rows and draw(st.booleans()):
        m = Matrix.from_rows(ring, [ent[i * cols:(i + 1) * cols] for i in range(rows)])
    else:
        m = Matrix(rows, cols, ring, tuple(ent))
    return m, DenseMatrix(rows, cols, ring, ent)


rings = st.sampled_from([RATIONAL, SERIES])


class TestSparseAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_constructors_and_reads(self, data, ring, r, c):
        m, d = matrix_and_oracle(data.draw, ring, r, c)
        assert agrees(m, d)
        for i in range(r):
            assert m.row(i) == tuple(d[i, j] for j in range(c))
            assert all(type(m[i, j]) is type(d[i, j]) and is_canonical(m[i, j])
                       for j in range(c))
        assert m.entries == d.entries
        assert agrees(Matrix.zeros(r, c, ring), DenseMatrix(r, c, ring, [ring.zero()] * (r * c)))
        assert agrees(Matrix.identity(r, ring), DenseMatrix(r, r, ring, [
            ring.one() if i == j else ring.zero() for i in range(r) for j in range(r)]))
        table = data.draw(st.lists(st.integers(0, r - 1), max_size=3)) if r else []
        assert agrees(Matrix.from_table(ring, table, r), DenseMatrix(r, len(table), ring, [
            ring.one() if table[j] == i else ring.zero()
            for i in range(r) for j in range(len(table))]))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), rings, sides, sides, sides)
    def test_product_and_kron(self, data, ring, n, k, m):
        a, da = matrix_and_oracle(data.draw, ring, n, k)
        b, db = matrix_and_oracle(data.draw, ring, k, m)
        assert agrees(a * b, da * db)
        assert agrees(mat_kron(a, b), da.kron(db))
        assert agrees(mat_kron(b, a), db.kron(da))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_sums_negation_and_scaling(self, data, ring, r, c):
        a, da = matrix_and_oracle(data.draw, ring, r, c)
        b, db = matrix_and_oracle(data.draw, ring, r, c)
        x = data.draw(oracle_entries(ring))
        assert agrees(a + b, da + db)
        assert agrees(a - b, da - db)
        assert agrees(-a, -da)
        assert agrees(a.scale(x), da.scale(x))
        assert a.is_zero() == da.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_cancelling_sums_are_the_zero_matrix(self, data, ring, r, c):
        a, _ = matrix_and_oracle(data.draw, ring, r, c)
        zero = Matrix.zeros(r, c, ring)
        for total in (a + -a, a - a, -a + a, a.scale(0)):
            assert total == zero and hash(total) == hash(zero)
            assert total.is_zero() and not any(total.nz)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), rings, sides, st.lists(sides, min_size=1, max_size=3))
    def test_hstack_and_transpose(self, data, ring, r, widths):
        pairs = [matrix_and_oracle(data.draw, ring, r, w) for w in widths]
        assert agrees(hstack([m for m, _ in pairs]), dense_hstack([d for _, d in pairs]))
        for m, d in pairs:
            assert agrees(m.transpose(), d.transpose())

    @settings(max_examples=60, deadline=None)
    @given(st.data(), sides, sides)
    def test_lift_and_reduce(self, data, r, c):
        a, da = matrix_and_oracle(data.draw, RATIONAL, r, c)
        assert agrees(lift_matrix(a, SERIES), da.lift(SERIES))
        s, ds = matrix_and_oracle(data.draw, SERIES, r, c)
        assert agrees(reduce_matrix(s), ds.reduce())

    @settings(max_examples=50, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_equality_and_hash(self, data, ring, r, c):
        a, da = matrix_and_oracle(data.draw, ring, r, c)
        b, db = matrix_and_oracle(data.draw, ring, r, c)
        assert (a == b) == (da.entries == db.entries)
        same = [Matrix(r, c, ring, da.entries), a.transpose().transpose(),
                a + Matrix.zeros(r, c, ring), Matrix.identity(r, ring) * a,
                Matrix.from_rows(ring, [list(a.row(i)) for i in range(r)]) if r else a]
        for m in same:
            assert m == a and hash(m) == hash(a)
        assert {a: 1}[same[0]] == 1

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices())
    def test_elimination_results_are_fractions(self, m):
        p, s = cokernel_projection(m)
        assert agrees(p, DenseMatrix(p.rows, p.cols, RATIONAL, p.entries))
        assert agrees(s, DenseMatrix(s.rows, s.cols, RATIONAL, s.entries))
        v = rational_kernel_vector(m)
        assert v is None or all(is_canonical(x) for x in v)

    def test_empty_shapes(self):
        for ring in (RATIONAL, SERIES):
            wide, tall = Matrix.zeros(0, 3, ring), Matrix.zeros(3, 0, ring)
            assert agrees(wide * Matrix.identity(3, ring), DenseMatrix(0, 3, ring, []))
            assert tall * wide == Matrix.zeros(3, 3, ring)
            assert wide * tall == Matrix.zeros(0, 0, ring)
            assert hstack([tall, Matrix.identity(3, ring)]) == Matrix.identity(3, ring)
            assert mat_kron(wide, Matrix.identity(2, ring)) == Matrix.zeros(0, 6, ring)
            assert wide.transpose() == tall and wide.to_json() == []


class TestCanonicalResults:
    """Every value an operation hands out is canonical: over the rationals
    an int where it is integral and a Fraction elsewhere, over a series
    ring an HSeries with such coefficients; never a float or a bool."""

    @staticmethod
    def values(result):
        if isinstance(result, Matrix):
            return [x for row in result.nz for x in row.values()]
        return list(result)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), rings, sides, sides, sides)
    def test_matrix_operations(self, data, ring, n, k, m):
        a, _ = matrix_and_oracle(data.draw, ring, n, k)
        b, _ = matrix_and_oracle(data.draw, ring, k, m)
        c, _ = matrix_and_oracle(data.draw, ring, n, k)
        x = data.draw(oracle_entries(ring))
        results = [a * b, a + c, a - c, -a, a.scale(x), mat_kron(a, b), mat_kron(b, a),
                   a.transpose(), hstack([a, c])]
        if ring == RATIONAL and n:
            results += [*cokernel_projection(a), rational_kernel_vector(a) or ()]
            # by the inverse of a stored entry, which brings out a 1 there
            e = next((e for row in a.nz for e in row.values()), 1)
            results.append(a.scale(canonical(Fraction(1, e))))
        for result in results:
            assert all(is_canonical(v) for v in self.values(result)), result

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(1, 4).flatmap(square_matrices), series_square_matrices()))
    def test_inverses_and_witnesses(self, m):
        kind, value = inverse_or_witness(m)
        assert all(is_canonical(v) for v in self.values(value)), (kind, value)


def permutation_and_oracle(ring, table):
    """The permutation matrix of a bijection, and the dense oracle."""
    n = len(table)
    return Matrix.from_table(ring, table, n), DenseMatrix(n, n, ring, [
        ring.one() if table[j] == i else ring.zero() for i in range(n) for j in range(n)])


def perm_and_oracle(draw, ring, n):
    return permutation_and_oracle(ring, draw(st.permutations(range(n))))


class TestPermutationsAgainstDense:
    """A permutation operand moves the other's indices instead of
    multiplying; every such product agrees with the dense oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_products(self, data, ring, n, m):
        p, dp = perm_and_oracle(data.draw, ring, n)
        q, dq = perm_and_oracle(data.draw, ring, n)
        a, da = matrix_and_oracle(data.draw, ring, n, m)
        b, db = matrix_and_oracle(data.draw, ring, m, n)
        assert agrees(p * a, dp * da)
        assert agrees(b * p, db * dp)
        pq = p * q
        assert agrees(pq, dp * dq)
        assert pq.perm == tuple(p.perm[i] for i in q.perm)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), rings, sides, sides, sides, sides)
    def test_kron(self, data, ring, n, k, r, c):
        p, dp = perm_and_oracle(data.draw, ring, n)
        q, dq = perm_and_oracle(data.draw, ring, k)
        a, da = matrix_and_oracle(data.draw, ring, r, c)
        assert agrees(mat_kron(p, a), dp.kron(da))
        assert agrees(mat_kron(a, p), da.kron(dp))
        pq = mat_kron(p, q)
        assert agrees(pq, dp.kron(dq))
        assert pq.perm == tuple(i * k + j for i in p.perm for j in q.perm)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), rings, sides, sides)
    def test_identity_operands_return_the_other(self, data, ring, n, m):
        # no product with an identity, nor Kronecker product with the 1x1
        # identity, builds a matrix: the other operand comes back as it is
        a, _ = matrix_and_oracle(data.draw, ring, n, m)
        at = a.transpose()
        p, _ = perm_and_oracle(data.draw, ring, n)
        for one in (Matrix.identity(n, ring), Matrix.from_table(ring, range(n), n),
                    p * Matrix.from_table(ring, p.perm_inv, n)):
            assert one * a is a and at * one is at
        one = Matrix.identity(1, ring)
        assert mat_kron(one, a) is a and mat_kron(a, one) is a

    @settings(max_examples=60, deadline=None)
    @given(st.data(), rings, sides)
    def test_perm_is_set_exactly_for_bijections(self, data, ring, r):
        table = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
        m = Matrix.from_table(ring, table, r)
        if sorted(table) == list(range(r)):
            assert m.perm == tuple(table)
            assert m.perm_inv == tuple(permutation_inverse(table))
        else:
            assert m.perm is None and m.perm_inv is None
        p, _ = perm_and_oracle(data.draw, ring, r)
        q, _ = perm_and_oracle(data.draw, ring, r)
        assert Matrix.identity(r, ring).perm == tuple(range(r))
        assert Matrix.identity(r, ring).perm_inv == tuple(range(r))
        derived = [-p, p.scale(2), p.transpose(), p + q, p - p, Matrix.from_rows(ring, [
            list(p.row(i)) for i in range(r)]) if r else Matrix.sparse(0, 0, ring, [])]
        if ring == RATIONAL:
            derived.append(lift_matrix(p, SERIES))
        else:
            derived.append(reduce_matrix(p))
        for d in derived:
            assert d.perm is None and d.perm_inv is None
        # equality and hashing ignore both slots
        same = Matrix.sparse(r, r, ring, p.nz)
        assert same == p and hash(same) == hash(p)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), rings, st.integers(0, 6))
    def test_recorded_inverse_is_the_inverse_table(self, data, ring, n):
        table = data.draw(st.permutations(range(n)))
        p = Matrix.from_table(ring, table, n)
        assert p.perm_inv == tuple(permutation_inverse(table))
        assert all(p.perm[p.perm_inv[i]] == i for i in range(n))
        # the products that compose tables record the composite's inverse
        q, _ = perm_and_oracle(data.draw, ring, n)
        for composite in (p * q, mat_kron(p, q)):
            assert composite.perm_inv == tuple(permutation_inverse(composite.perm))

    @settings(max_examples=30, deadline=None)
    @given(st.data(), rings, st.integers(1, 3))
    def test_one_permutation_reused_across_many_products(self, data, ring, n):
        """The recorded tables are shared by every product that reads
        them, so none of those products may change them."""
        p, dp = perm_and_oracle(data.draw, ring, n)
        perm, inv = p.perm, p.perm_inv
        for _ in range(6):
            k = data.draw(sides)
            a, da = matrix_and_oracle(data.draw, ring, n, k)
            b, db = matrix_and_oracle(data.draw, ring, k, n)
            c, dc = matrix_and_oracle(data.draw, ring, k, k)
            assert agrees(p * a, dp * da)
            assert agrees(b * p, db * dp)
            assert agrees(b * p * a, db * dp * da)
            assert agrees(mat_kron(mat_kron(p, c), p), dp.kron(dc).kron(dp))
            assert agrees(mat_kron(c, p) * mat_kron(b, p), dc.kron(dp) * db.kron(dp))
        assert (p.perm, p.perm_inv) == (perm, inv)
        assert p == Matrix.from_table(ring, perm, n)

    def test_every_permutation_of_three(self):
        """Exhaustive where the drawn cases are thin: a 3-cycle is the
        smallest permutation that is not its own inverse."""
        for ring in (RATIONAL, SERIES):
            ent = [ring.coerce(x) for x in (1, 2, 0, -3, 5, 7)]
            a, da = Matrix(3, 2, ring, ent), DenseMatrix(3, 2, ring, ent)
            b, db = a.transpose(), da.transpose()
            perms = [permutation_and_oracle(ring, t) for t in itertools.permutations(range(3))]
            for p, dp in perms:
                assert agrees(p * a, dp * da) and agrees(b * p, db * dp)
                assert agrees(mat_kron(p, a), dp.kron(da))
                assert agrees(mat_kron(b, p), db.kron(dp))
                for q, dq in perms:
                    assert agrees(p * q, dp * dq) and agrees(mat_kron(p, q), dp.kron(dq))

    def test_tables_that_are_not_bijections(self):
        for ring in (RATIONAL, SERIES):
            assert Matrix.from_table(ring, [0, 0], 2).perm is None  # not onto
            assert Matrix.from_table(ring, [0, 1], 3).perm is None  # too short
            assert Matrix.from_table(ring, [0, 1, 0], 2).perm is None  # too long
            assert Matrix.from_table(ring, [1, 0], 2).perm == (1, 0)


class TestRingChecks:
    """Rings are shared objects, compared by identity first; matrices over
    different rings never combine, and equal rings made apart still do."""

    def test_series_rings_are_interned(self):
        assert hseries_ring(2) is hseries_ring(2)
        assert hseries_ring(0) is hseries_ring(0)
        assert hseries_ring(1) is not hseries_ring(2)
        with pytest.raises(ValueError):
            hseries_ring(-1)

    @pytest.mark.parametrize("left, right", [
        (RATIONAL, hseries_ring(2)), (hseries_ring(2), RATIONAL),
        (hseries_ring(1), hseries_ring(2)), (hseries_ring(2), hseries_ring(1))])
    def test_mixed_rings_raise(self, left, right):
        a, b = Matrix.identity(2, left), Matrix.identity(2, right)
        c, d = Matrix.from_rows(left, [[1, 2], [3, 4]]), Matrix.from_rows(right, [[0, 1], [1, 5]])
        for x, y in ((a, b), (c, d), (a, d), (c, b)):
            for op in (x.__add__, x.__sub__, x.__mul__, lambda y, x=x: mat_kron(x, y)):
                with pytest.raises(RingMismatch):
                    op(y)

    def test_equal_rings_made_apart_still_combine(self):
        for ring in (RATIONAL, SERIES):
            twin = Ring(ring.kind, ring.order)
            assert twin is not ring and twin == ring
            a, b = Matrix.from_rows(ring, [[1, 2], [0, 1]]), Matrix.identity(2, twin)
            assert a * b == a and b * a == a
            assert mat_kron(a, b) == mat_kron(a, Matrix.identity(2, ring))
            assert (a + Matrix.zeros(2, 2, twin)) == a
