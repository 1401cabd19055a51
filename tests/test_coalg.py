import re
from fractions import Fraction

import pytest

from hopfcat.backends import (
    Atom,
    MorphismRep,
    cyclic_group,
    finset_backend,
    linear_backend,
    regular_atom,
    regular_linear_atom,
    symmetric_group,
)
from hopfcat.coalg import (
    Comonoid,
    HopfMonoidData,
    LawRecord,
    all_hold,
    check_comonoid,
    check_comonoid_morphism,
    check_hopf_monoid,
    diagonal_comonoid,
    failures,
    group_algebra_hopf,
    group_like_comonoid,
    tensor_comonoid,
    unit_comonoid,
)
from hopfcat.corpus import corpus_path
from hopfcat.hopfcategory import build_hopf_category, check_hopf_category
from hopfcat.instances import load_instance
from hopfcat.linalg import Matrix, mat_kron
from hopfcat.scalars import RATIONAL, replace


def z2_sets():
    g = cyclic_group(2)
    return finset_backend(g, [regular_atom("S", g)])


def trivial_linear(dim, name="K"):
    g = cyclic_group(1)
    atom = Atom(name, dim, (Matrix.identity(dim, RATIONAL),))
    return linear_backend(g, [atom])


class TestComonoids:
    def test_diagonal_passes_all_laws(self):
        b = z2_sets()
        c = diagonal_comonoid(b, b.obj("S"))
        recs = check_comonoid(b, c, cocommutative=True)
        assert all_hold(recs), failures(recs)

    def test_diagonal_tables_frozen(self):
        b = z2_sets()
        c = diagonal_comonoid(b, b.obj("S"))
        assert c.delta.table == (0, 3)
        assert c.eps.table == (0, 0)

    def test_group_like_passes_on_regular_rep(self):
        g = cyclic_group(3)
        b = linear_backend(g, [regular_linear_atom("R", g)])
        c = group_like_comonoid(b, b.obj("R"))
        recs = check_comonoid(b, c, cocommutative=True)
        assert all_hold(recs), failures(recs)

    def test_broken_counit_detected(self):
        b = z2_sets()
        s = b.obj("S")
        c = diagonal_comonoid(b, s)
        # wrong splitting: constant map collapses both counit laws
        bad = type(c)(s, b.mor_from_table(s, s.tensor(s), (0, 0)), c.eps, "bad")
        recs = check_comonoid(b, bad)
        assert not all_hold(recs)

    def test_malformed_maps_give_one_shape_record(self):
        """A table value past the codomain used to raise IndexError."""
        b = z2_sets()
        s = b.obj("S")
        c = diagonal_comonoid(b, s)
        past = replace(c, delta=replace(c.delta, table=(0, 4)))
        assert check_comonoid(b, past) == [
            LawRecord("comonoid.shape", False, "splitting map sends 1 to 4, outside range(4)")]
        moved = replace(c, eps=replace(c.eps, cod=s))
        assert check_comonoid(b, moved) == [
            LawRecord("comonoid.shape", False, "counit is S -> S, not S -> 1")]

    def test_unit_comonoid(self):
        b = z2_sets()
        assert all_hold(check_comonoid(b, unit_comonoid(b)))
        bl = trivial_linear(1)
        assert all_hold(check_comonoid(bl, unit_comonoid(bl)))

    def test_tensor_of_diagonals_is_diagonal(self):
        b = z2_sets()
        s = b.obj("S")
        c = diagonal_comonoid(b, s)
        cc = tensor_comonoid(b, c, c)
        expected = diagonal_comonoid(b, s.tensor(s))
        assert b.equal_mor(cc.delta, expected.delta)
        assert b.equal_mor(cc.eps, expected.eps)
        assert all_hold(check_comonoid(b, cc, cocommutative=True))

    def test_comonoid_morphism_laws(self):
        b = z2_sets()
        s = b.obj("S")
        c = diagonal_comonoid(b, s)
        ident = b.identity_mor(s)
        assert all_hold(check_comonoid_morphism(b, ident, c, c))
        assert all_hold(check_comonoid_morphism(b, c.eps, c, unit_comonoid(b)))
        # swapping the two points of S is still a comonoid map
        flip = b.mor_from_table(s, s, (1, 0))
        assert all_hold(check_comonoid_morphism(b, flip, c, c))


class TestGroupAlgebra:
    def test_z3_all_laws(self):
        g = cyclic_group(3)
        b = trivial_linear(3)
        h = group_algebra_hopf(b, b.obj("K"), g)
        recs = check_hopf_monoid(b, h)
        assert all_hold(recs), failures(recs)

    def test_s3_all_laws(self):
        g = symmetric_group(3)
        b = trivial_linear(6)
        h = group_algebra_hopf(b, b.obj("K"), g)
        recs = check_hopf_monoid(b, h)
        assert all_hold(recs), failures(recs)

    def test_z3_mult_frozen(self):
        g = cyclic_group(3)
        b = trivial_linear(3)
        h = group_algebra_hopf(b, b.obj("K"), g)
        # e_1 * e_2 = e_0: column (1*3+2)=5 of mult has a 1 in row 0
        assert h.mult.matrix[0, 5] == 1
        assert h.mult.matrix[1, 5] == 0

    def test_identity_antipode_fails_on_z3(self):
        g = cyclic_group(3)
        b = trivial_linear(3)
        h = group_algebra_hopf(b, b.obj("K"), g)
        mutated = HopfMonoidData(h.obj, h.mult, h.unit, h.delta, h.eps,
                                 b.identity_mor(h.obj), h.name)
        recs = check_hopf_monoid(b, mutated)
        bad = {r.rule for r in failures(recs)}
        assert "hopf.antipode.left" in bad and "hopf.antipode.right" in bad

    def test_identity_antipode_passes_on_z2(self):
        # every element is its own inverse, so the mutation is invisible
        g = cyclic_group(2)
        b = trivial_linear(2)
        h = group_algebra_hopf(b, b.obj("K"), g)
        mutated = HopfMonoidData(h.obj, h.mult, h.unit, h.delta, h.eps,
                                 b.identity_mor(h.obj), h.name)
        assert all_hold(check_hopf_monoid(b, mutated))

    def test_broken_mult_fails_bialgebra_compat(self):
        g = cyclic_group(3)
        b = trivial_linear(3)
        h = group_algebra_hopf(b, b.obj("K"), g)
        # doubling the product keeps associativity but output vectors are
        # no longer group-like, so compatibility with the splitting breaks
        doubled = b.mor_from_matrix(h.mult.dom, h.mult.cod, h.mult.matrix.scale(2))
        mutated = HopfMonoidData(h.obj, doubled, h.unit, h.delta, h.eps, h.antipode)
        recs = check_hopf_monoid(b, mutated)
        assert any(r.rule == "hopf.assoc" and r.holds for r in recs)
        assert any(r.rule == "comorphism.mult.split" and not r.holds for r in recs)


# ---------------------------------------------------------------------------
# witnesses: a failing law names the first place its two sides differ


def table_witnesses(records):
    """{rule: (point, lhs value, rhs value, position)} of failing records
    with a table witness."""
    out = {}
    for r in failures(records):
        m = re.fullmatch(r"lhs\[(\d+)\] = (\d+), rhs\[\1\] = (\d+) at ([\d,]+)", r.detail)
        assert m, r
        out.setdefault(r.rule, []).append((*map(int, m.groups()[:3]), m.group(4)))
    return out


def first_difference(lhs, rhs):
    k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return k, lhs[k], rhs[k]


class TestWitnesses:
    def test_finset_hom_delta_entry(self):
        inst = load_instance(corpus_path("z3_torsors"))
        data = build_hopf_category(inst.functor, inst.comonoids)
        b = data.backend
        assert all(r.detail.startswith("at ") for r in check_hopf_category(b, data))
        key = (0, 1)
        n = b.obj_size(data.hom[key])
        d = list(data.delta[key].table)
        d[1] = 2 * n  # point 1 now splits into (2, 0)
        data.delta[key] = MorphismRep(data.delta[key].dom, data.delta[key].cod, table=tuple(d))
        found = table_witnesses(check_hopf_category(b, data))
        # the two sides of each comonoid law, point by point from the table
        pairs = [divmod(q, n) for q in d]
        sides = {
            "comonoid.coassoc": ([d[q1] * n + q2 for q1, q2 in pairs],
                                 [q1 * n * n + d[q2] for q1, q2 in pairs]),
            "comonoid.counit.left": ([q2 for _, q2 in pairs], list(range(n))),
            "comonoid.counit.right": ([q1 for q1, _ in pairs], list(range(n))),
        }
        for rule, (lhs, rhs) in sides.items():
            if lhs == rhs:
                assert rule not in found
            else:
                assert found[rule] == [(*first_difference(lhs, rhs), "0,1")]
        assert "comonoid.coassoc" in found
        # the comorphism records built on that hom keep their witness
        homs = [Comonoid(data.hom[key], data.delta[key], data.eps[key])
                for key in ((0, 1), (1, 0))]
        square = tensor_comonoid(b, *homs)
        mult = data.mult[(0, 1, 0)]
        lhs = b.compose(mult, data.delta[(0, 0)]).table
        rhs = b.compose(square.delta, b.tensor_all([mult, mult])).table
        assert (*first_difference(lhs, rhs), "0,1,0") in found["comorphism.mult.split"]

    def test_linear_comonoid_matrix_entry(self):
        inst = load_instance(corpus_path("z2_group_algebra"))
        b, c = inst.backend, inst.comonoids[0]
        assert all(r.detail == "" for r in check_comonoid(b, c))
        m = c.delta.matrix
        ent = list(m.entries)
        ent[2] += 1
        d = Matrix(m.rows, m.cols, RATIONAL, tuple(ent))
        bad = Comonoid(c.obj, MorphismRep(c.delta.dom, c.delta.cod, matrix=d), c.eps)
        ident = Matrix.identity(m.cols, RATIONAL)
        e = c.eps.matrix
        sides = {
            "comonoid.coassoc": (mat_kron(d, ident) * d, mat_kron(ident, d) * d),
            "comonoid.counit.left": (mat_kron(e, ident) * d, ident),
            "comonoid.counit.right": (mat_kron(ident, e) * d, ident),
        }
        found = {r.rule: r.detail for r in failures(check_comonoid(b, bad))}
        for rule, (lhs, rhs) in sides.items():
            if lhs == rhs:
                assert rule not in found
                continue
            m = re.fullmatch(r"lhs\[(\d+),(\d+)\] = (\S+), rhs\[\1,\2\] = (\S+)", found[rule])
            assert m, found[rule]
            k, a, x = first_difference(lhs.entries, rhs.entries)
            assert (int(m[1]), int(m[2])) == divmod(k, lhs.cols)
            assert (Fraction(m[3]), Fraction(m[4])) == (a, x)
        assert "comonoid.coassoc" in found
