"""Infinitesimal braidings and the deformed constructor.

The running fixture is a base of two commuting generators acting by
nilpotent shifts: V = Q^4 carries N (x) I and I (x) N, W = Q^2 carries
N and 0, and two trivial lines E, E2 carry the comonoids.  The braiding
datum comes from the antisymmetric pairing on the base.
"""

import itertools
from fractions import Fraction

import pytest

from hopfcat import corpus, deform
from hopfcat.backends import (Atom, BackendError, MorphismRep, ObjectRef, cyclic_group,
                              dy_backend, linear_backend, regular_linear_atom)
from hopfcat.coalg import Comonoid, all_hold, check_comonoid, failures, group_like_comonoid
from hopfcat.cofunctor import (check_comonoidal, dy_coinvariants_functor,
                               group_coinvariants_functor)
from hopfcat.deform import (PreCartierData, PreCartierViolation,
                            build_deformed_hopf_category, casimir_t, change_ring,
                            check_pre_cartier, deformed_braiding, reduce_order0)
from hopfcat.hopfcategory import build_hopf_category, check_hopf_category
from hopfcat.instances import load_instance, parse_instance
from hopfcat.linalg import Matrix, hstack, lift_matrix, mat_kron
from hopfcat.scalars import RATIONAL, HSeries, hseries_ring


def qm(rows):
    return Matrix.from_rows(RATIONAL, rows)


N2 = qm([[0, 0], [1, 0]])
I2 = Matrix.identity(2, RATIONAL)


def nilpotent_dy():
    rho_v0 = mat_kron(N2, I2)
    rho_v1 = mat_kron(I2, N2)
    base = Atom("b", 2, (I2,),
                pi=Matrix.zeros(2, 4, RATIONAL),
                pistar=Matrix.zeros(4, 2, RATIONAL))
    v = Atom("V", 4, (Matrix.identity(4, RATIONAL),),
             pi=hstack([rho_v0, rho_v1]),
             pistar=Matrix.zeros(8, 4, RATIONAL))
    w = Atom("W", 2, (I2,),
             pi=hstack([N2, Matrix.zeros(2, 2, RATIONAL)]),
             pistar=Matrix.zeros(4, 2, RATIONAL))
    lines = []
    for name in ("E", "E2"):
        lines.append(Atom(name, 1, (Matrix.identity(1, RATIONAL),),
                          pi=Matrix.zeros(1, 2, RATIONAL),
                          pistar=Matrix.zeros(2, 1, RATIONAL)))
    return dy_backend(base, [v, w] + lines)


def line_comonoid(be, name):
    obj = be.obj(name)
    one = qm([[1]])
    return Comonoid(obj, be.mor_from_matrix(obj, obj.tensor(obj), one),
                    be.mor_from_matrix(obj, be.unit(), one), name=name)


R_PAIRING = qm([[0, 1], [-1, 0]])


@pytest.fixture(scope="module")
def setup():
    be = nilpotent_dy()
    pc = casimir_t(be, R_PAIRING)
    return be, pc


def t_at(pc, a, b):
    """t on the pair of atoms a, b."""
    return pc.t(ObjectRef.atom(a), ObjectRef.atom(b)).matrix


class TestCasimir:
    def test_atom_table_frozen(self, setup):
        be, pc = setup
        # r = e0 ^ e1 pairs the first action of V with the action of W
        assert t_at(pc, "V", "W") == mat_kron(mat_kron(I2, N2), N2).scale(-1)
        assert t_at(pc, "W", "V") == mat_kron(N2, mat_kron(I2, N2))
        expect_vv = (mat_kron(mat_kron(N2, I2), mat_kron(I2, N2))
                     - mat_kron(mat_kron(I2, N2), mat_kron(N2, I2)))
        assert t_at(pc, "V", "V") == expect_vv

    def test_trivial_pairs_are_zero(self, setup):
        be, pc = setup
        assert ("W", "W") not in pc.table
        assert t_at(pc, "E", "V").is_zero()
        assert t_at(pc, "E", "E2").is_zero()

    def test_needs_base_actions(self):
        g = cyclic_group(2)
        be = linear_backend(g, [regular_linear_atom("R", g)])
        with pytest.raises(BackendError):
            casimir_t(be, R_PAIRING)

    def test_unit_word_gets_zero(self, setup):
        be, pc = setup
        u = be.unit()
        assert pc.t(u, be.obj("V")).matrix.is_zero()
        assert pc.t(be.obj("V"), u).matrix.is_zero()


class TestPreCartierLaws:
    def test_all_laws_pass_with_composites(self, setup):
        be, pc = setup
        sample = [be.obj("V"), be.obj("W"), be.obj("W", "W"), be.obj("E")]
        # naturality against actual module maps, not just symmetries
        f = be.mor_from_matrix(be.obj("W"), be.obj("W"), N2)
        idv = be.identity_mor(be.obj("V"))
        recs = check_pre_cartier(
            pc, sample,
            inf_cocommutative=[line_comonoid(be, "E"), line_comonoid(be, "E2")],
            convention="t_delta_zero",
            inf_braided=dy_coinvariants_functor(be))
        assert all_hold(recs), failures(recs)
        for g, h in [(f, idv), (idv, f)]:
            gh = be.tensor_mor(g, h)
            assert be.equal_mor(be.compose(pc.t(g.dom, h.dom), gh),
                                be.compose(gh, pc.t(g.cod, h.cod)))

    def test_zero_t_fails_only_literal_cocomm(self, setup):
        be, _ = setup
        pc0 = PreCartierData(be)
        m = line_comonoid(be, "E")
        recs = check_pre_cartier(pc0, [be.obj("V"), be.obj("E")],
                                 inf_cocommutative=[m], convention="literal")
        bad = {r.rule for r in recs if not r.holds}
        assert bad == {"precartier.inf_cocomm.t[E]"}

    def test_zero_t_passes_t_delta_zero(self, setup):
        be, _ = setup
        pc0 = PreCartierData(be)
        m = line_comonoid(be, "E")
        recs = check_pre_cartier(pc0, [be.obj("V"), be.obj("E")],
                                 inf_cocommutative=[m], convention="t_delta_zero")
        assert all_hold(recs), failures(recs)

    def test_derived_extension_is_cut_consistent_for_any_atom_data(self, setup):
        be, _ = setup
        # word entries derived by peeling agree at every cut even for
        # lawless atom data; the peeling transports are leg relabelings
        junk = PreCartierData(be, {("W", "W"): qm([[1, 2, 3, 4],
                                                   [0, 1, 0, 0],
                                                   [5, 0, 1, 0],
                                                   [0, 0, 0, 1]])})
        sample = [be.obj("W"), be.obj("W", "W")]
        recs = check_pre_cartier(junk, sample)
        by_rule = {r.rule: r for r in recs}
        assert by_rule["precartier.extension.right"].holds
        assert by_rule["precartier.extension.left"].holds

    def test_explicit_word_entry_violating_extension_detected(self, setup):
        be, pc = setup
        # override one derived word entry with an inconsistent matrix
        w, v = be.obj("W"), be.obj("V")
        table = dict(pc.table)
        table[(("W", "W"), ("V",))] = Matrix.identity(16, RATIONAL)
        bad = PreCartierData(be, table)
        recs = check_pre_cartier(bad, [w, v])
        by_rule = {r.rule: r for r in recs}
        assert not by_rule["precartier.extension.left"].holds
        assert "(W,W,V)" in by_rule["precartier.extension.left"].detail

    def test_explicit_word_entry_violating_right_extension_detected(self, setup):
        be, pc = setup
        w, v = be.obj("W"), be.obj("V")
        table = dict(pc.table)
        table[(("V",), ("W", "W"))] = Matrix.identity(16, RATIONAL)
        recs = check_pre_cartier(PreCartierData(be, table), [w, v])
        by_rule = {r.rule: r for r in recs}
        assert not by_rule["precartier.extension.right"].holds
        assert "(V,W,W)" in by_rule["precartier.extension.right"].detail

    def test_word_entry_breaking_naturality_detected(self, setup):
        be, pc = setup
        # a stored t(W(x)W, V) that sees the first W factor only does not
        # commute with sigma_{W,W} (x) 1_V
        w, v = be.obj("W"), be.obj("V")
        table = dict(pc.table)
        table[(("W", "W"), ("V",))] = mat_kron(qm([[1, 0], [0, 0]]), Matrix.identity(8, RATIONAL))
        recs = check_pre_cartier(PreCartierData(be, table), [w, v])
        by_rule = {r.rule: r for r in recs}
        assert not by_rule["precartier.natural"].holds
        assert "(W(x)W->W(x)W,V->V)" in by_rule["precartier.natural"].detail

    def test_zero_components_skip_no_failure(self, setup, monkeypatch):
        """A law that reads only zero components of t multiplies nothing:
        on intact, zero, lawless and broken data, the records equal those
        of multiplying every component out."""
        be, pc = setup
        v, w, e = be.obj("V"), be.obj("W"), be.obj("E")
        broken = dict(pc.table)
        broken[(("E",), ("V",))] = qm([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]])
        broken[(("W", "W"), ("V",))] = Matrix.identity(16, RATIONAL)
        # zero on E (x) V against W, not on V (x) E: sigma_{E,V} (x) 1_W is not natural
        broken[(("E", "V"), ("W",))] = Matrix.zeros(8, 8, RATIONAL)
        cases = [pc, PreCartierData(be), PreCartierData(be, broken),
                 PreCartierData(be, {("W", "W"): qm([[1, 2, 3, 4], [0, 1, 0, 0],
                                                     [5, 0, 1, 0], [0, 0, 0, 1]])})]
        sample = [v, w, be.obj("W", "W"), e, be.obj("E", "V")]
        lines = [line_comonoid(be, "E"), line_comonoid(be, "E2")]

        def records(data):
            recs = check_pre_cartier(data, sample, inf_cocommutative=lines,
                                     inf_braided=dy_coinvariants_functor(be))
            return [(r.rule, r.holds, r.detail) for r in recs]

        skipped = [records(PreCartierData(be, data.table)) for data in cases]
        monkeypatch.setattr(PreCartierData, "vanishes", lambda self, x, y: False)
        assert skipped == [records(PreCartierData(be, data.table)) for data in cases]
        assert {rule for rule, ok, _ in skipped[2] if not ok} == {
            f"precartier.{law}" for law in ("morphism", "extension.right", "extension.left",
                                             "natural", "commutation", "antisym", "inf_braided")}

    def test_shape_guard(self, setup):
        be, _ = setup
        with pytest.raises(BackendError):
            PreCartierData(be, {("V", "W"): qm([[1]])})

    def test_line_comonoids_are_comonoids(self, setup):
        be, _ = setup
        for name in ("E", "E2"):
            assert all_hold(check_comonoid(be, line_comonoid(be, name)))



def words_up_to(names, k):
    return [ObjectRef(w) for n in range(k + 1) for w in itertools.product(names, repeat=n)]


def letter_support(table):
    """The atom pairs of a table of atom-pair entries with a nonzero matrix."""
    return {(a, b) for ((a,), (b,)), m in table.items() if not m.is_zero()}


class TestVanishesFromLetters:
    """vanishes(x, y) is True, with t unbuilt, when no letter pair of
    (x, y) carries a nonzero stored atom entry; otherwise it tests the
    built t.  Either way it equals t(x, y) == 0."""

    def assert_agrees(self, be, table, words):
        probe, ref = PreCartierData(be, table), PreCartierData(be, table)
        for x, y in itertools.product(words, repeat=2):
            assert probe.vanishes(x, y) == ref.t(x, y).matrix.is_zero(), (x, y)

    def test_casimir_datum_of_abelian_precartier(self):
        inst = load_instance(corpus.corpus_path("abelian_precartier"))
        be, table = inst.backend, inst.deformation["pc"].table
        words = words_up_to(sorted(be.atoms), 2)
        self.assert_agrees(be, table, words)
        support = letter_support(table)
        outside = [(x, y) for x, y in itertools.product(words, repeat=2)
                   if not any((a, b) in support for a in x.factors for b in y.factors)]
        fresh = PreCartierData(be, table)
        assert len(outside) > len(words) and all(fresh.vanishes(x, y) for x, y in outside)
        assert fresh._cache == {}

    def test_stored_composite_entry_is_read(self, setup):
        be, _ = setup
        # the atom entries are all zero; only the stored word entry is not
        table = {(("E", "E"), ("E",)): qm([[1]]), ("E", "E2"): qm([[0]])}
        self.assert_agrees(be, table, words_up_to(["E", "E2", "W"], 2))
        assert not PreCartierData(be, table).vanishes(be.obj("E", "E"), be.obj("E"))

    def test_cancelling_letter_pairs_vanish(self, setup):
        be, _ = setup
        # t((E, E2), E) = t(E2, E) + t(E, E) = 0 with both summands nonzero
        table = {("E", "E"): qm([[1]]), ("E2", "E"): qm([[-1]])}
        pc = PreCartierData(be, table)
        x, y = be.obj("E", "E2"), be.obj("E")
        assert pc.t(x, y).matrix.is_zero() and pc.vanishes(x, y)
        assert not pc.vanishes(be.obj("E"), y)
        self.assert_agrees(be, table, words_up_to(["E", "E2", "V"], 2))


class TestDeformedBraiding:
    def test_scalar_exponential(self, setup):
        be, _ = setup
        pc = PreCartierData(be, {("E", "E"): qm([[3]])})
        sig = deformed_braiding(pc, be.obj("E"), be.obj("E"), 2)
        assert sig.matrix[0, 0] == HSeries.from_coeffs([1, 3, Fraction(9, 2)], 2)

    def test_zero_t_gives_lifted_symmetry(self, setup):
        be, _ = setup
        pc0 = PreCartierData(be)
        v, w = be.obj("V"), be.obj("W")
        for order in (0, 1, 2):
            ring = hseries_ring(order)
            sig = deformed_braiding(pc0, v, w, order)
            assert sig.matrix == lift_matrix(be.braiding(v, w).matrix, ring)

    def test_order_one_is_sigma_plus_hbar_t(self, setup):
        be, pc = setup
        v, w = be.obj("V"), be.obj("W")
        ring = hseries_ring(1)
        sig = be.braiding(v, w).matrix
        expect = lift_matrix(sig, ring)
        t = pc.t(v, w).matrix
        h = HSeries.hbar(1)
        bump = Matrix(8, 8, ring,
                      tuple(HSeries.from_rational(x, 1) * h
                            for x in (sig * t).entries))
        assert deformed_braiding(pc, v, w, 1).matrix == expect + bump

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_involution(self, setup, order):
        be, pc = setup
        pairs = [(be.obj("V"), be.obj("W")),
                 (be.obj("W"), be.obj("V")),
                 (be.obj("V"), be.obj("V")),
                 (be.obj("V", "W"), be.obj("V"))]
        for x, y in pairs:
            fwd = deformed_braiding(pc, x, y, order)
            back = deformed_braiding(pc, y, x, order)
            n = be.obj_size(x.tensor(y))
            assert back.matrix * fwd.matrix == Matrix.identity(n, hseries_ring(order))

    def test_hexagons_at_order_two(self, setup):
        be, pc = setup
        ring = hseries_ring(2)
        lifted = change_ring(be, ring, be.atoms)
        names = ["V", "W"]
        for a in names:
            for b in names:
                for c in names:
                    x, y, z = be.obj(a), be.obj(b), be.obj(c)
                    lhs = deformed_braiding(pc, x, y.tensor(z), 2)
                    rhs = lifted.compose(
                        lifted.tensor_mor(deformed_braiding(pc, x, y, 2),
                                          lifted.identity_mor(z)),
                        lifted.tensor_mor(lifted.identity_mor(y),
                                          deformed_braiding(pc, x, z, 2)))
                    assert lifted.equal_mor(lhs, rhs), (a, b, c)
                    lhs = deformed_braiding(pc, x.tensor(y), z, 2)
                    rhs = lifted.compose(
                        lifted.tensor_mor(lifted.identity_mor(x),
                                          deformed_braiding(pc, y, z, 2)),
                        lifted.tensor_mor(deformed_braiding(pc, x, z, 2),
                                          lifted.identity_mor(y)))
                    assert lifted.equal_mor(lhs, rhs), (a, b, c)


def z2_coinvariants():
    g = cyclic_group(2)
    be = linear_backend(g, [regular_linear_atom("R", g)])
    fun = group_coinvariants_functor(be)
    m = group_like_comonoid(be, be.obj("R"), name="R")
    return be, fun, m


def lift_mor(f, ring):
    return MorphismRep(f.dom, f.cod, matrix=lift_matrix(f.matrix, ring))


def deformed(functor, comonoids, order, pc=None, **kwargs):
    plain = build_hopf_category(functor, comonoids)
    return build_deformed_hopf_category(plain, functor, comonoids, order, pc, **kwargs)


class TestDeformedBuild:
    def test_zero_t_build_equals_lift(self):
        be, fun, m = z2_coinvariants()
        plain = build_hopf_category(fun, [m])
        data = deformed(fun, [m], 2)
        ring = hseries_ring(2)
        assert data.labels == plain.labels
        assert data.hom == plain.hom
        for key in plain.mult:
            assert data.mult[key] == lift_mor(plain.mult[key], ring)
        for key in plain.delta:
            assert data.delta[key] == lift_mor(plain.delta[key], ring)
            assert data.eps[key] == lift_mor(plain.eps[key], ring)
            assert data.antipode[key] == lift_mor(plain.antipode[key], ring)
        for key in plain.unit:
            assert data.unit[key] == lift_mor(plain.unit[key], ring)

    def test_lifts_only_the_maps_it_keeps(self, monkeypatch):
        """At positive order the plain splittings and antipodes are rebuilt
        from the deformed symmetry, so they are never lifted."""
        be, fun, m = z2_coinvariants()
        plain = build_hopf_category(fun, [m])
        lifted = []

        def recorded(mat, ring, real=deform.lift_matrix):
            lifted.append(mat)
            return real(mat, ring)

        monkeypatch.setattr(deform, "lift_matrix", recorded)
        build_deformed_hopf_category(plain, fun, [m], 2)
        kept = [f.matrix for maps in (plain.mult, plain.unit, plain.eps) for f in maps.values()]
        rebuilt = [f.matrix for maps in (plain.delta, plain.antipode) for f in maps.values()]
        assert all(any(mat is k for mat in lifted) for k in kept)
        assert not any(mat is r for mat in lifted for r in rebuilt)

    def test_zero_coefficients_are_not_split(self, monkeypatch):
        """Every positive degree of the zero deformation's symmetry is zero,
        so an order-8 build splits each hom once, at degree 0."""
        inst = z3_zero_deformation()
        plain = build_hopf_category(inst.functor, inst.comonoids)
        calls = []

        def counted(functor, x, y, braid, real=deform.split_and_antipode):
            calls.append((x, y))
            return real(functor, x, y, braid)

        monkeypatch.setattr(deform, "split_and_antipode", counted)
        data = build_deformed_hopf_category(plain, inst.functor, inst.comonoids, 8,
                                            inst.deformation["pc"])
        assert len(calls) == len(data.hom) == len(inst.comonoids) ** 2

    def test_order_zero_build_is_rational(self):
        be, fun, m = z2_coinvariants()
        plain = build_hopf_category(fun, [m])
        data = build_deformed_hopf_category(plain, fun, [m], 0)
        assert data is plain
        assert data.backend.ring == RATIONAL

    def test_degree_zero_reduction(self):
        be, fun, m = z2_coinvariants()
        plain = build_hopf_category(fun, [m])
        red = reduce_order0(build_deformed_hopf_category(plain, fun, [m], 3))
        assert red.hom == plain.hom
        assert red.mult == plain.mult
        assert red.unit == plain.unit
        assert red.delta == plain.delta
        assert red.eps == plain.eps
        assert red.antipode == plain.antipode

    def test_full_verifier_over_series(self, setup):
        be, pc = setup
        fun = dy_coinvariants_functor(be)
        comonoids = [line_comonoid(be, "E"), line_comonoid(be, "E2")]
        data = deformed(fun, comonoids, 2, pc)
        assert data.backend.ring == hseries_ring(2)
        recs = check_hopf_category(data.backend, data)
        assert all_hold(recs), failures(recs)
        plain = build_hopf_category(fun, comonoids)
        red = reduce_order0(data)
        assert red.mult == plain.mult
        assert red.delta == plain.delta
        assert red.antipode == plain.antipode

    def test_literal_convention_rejects_zero_t(self, setup):
        be, pc = setup
        fun = dy_coinvariants_functor(be)
        comonoids = [line_comonoid(be, "E")]
        with pytest.raises(PreCartierViolation):
            deformed(fun, comonoids, 2, pc, convention="literal")

    def test_backend_mismatch_guard(self, setup):
        be, pc = setup
        _, fun, m = z2_coinvariants()
        with pytest.raises(BackendError):
            deformed(fun, [m], 1, pc)

    def test_rejects_orbit_functor(self):
        inst = load_instance(corpus.corpus_path("z2_torsors"))
        plain = build_hopf_category(inst.functor, inst.comonoids)
        with pytest.raises(BackendError):
            build_deformed_hopf_category(plain, inst.functor, inst.comonoids, 1)



class TestChangeRing:
    def test_memoized_move_equals_entrywise_lift(self, monkeypatch):
        """Each distinct matrix object is lifted once, and every atom equals
        its unmemoized lift; moving back gives the rational atoms."""
        inst = load_instance(corpus.corpus_path("abelian_precartier"))
        build_hopf_category(inst.functor, inst.comonoids)
        check_comonoidal(inst.functor, [inst.backend.obj(n) for n in ("E", "E2", "V", "W")])
        ring = hseries_ring(3)
        for be in (inst.backend, inst.functor.target):
            mats = [m for a in be.atoms.values() for m in (*a.action, a.pi, a.pistar)
                    if m is not None]
            lifted = []

            def recorded(mat, ring, real=lift_matrix):
                lifted.append(mat)
                return real(mat, ring)

            monkeypatch.setattr(deform, "lift_matrix", recorded)
            moved = change_ring(be, ring, be.atoms)
            monkeypatch.undo()
            assert len(lifted) == len({id(m) for m in mats})
            # image atoms of one size share one identity
            assert be is inst.backend or len(lifted) < len(mats)

            def lift(m):
                return None if m is None else lift_matrix(m, ring)

            for name, a in be.atoms.items():
                assert moved.atoms[name] == Atom(name, a.size, tuple(map(lift, a.action)),
                                                 pi=lift(a.pi), pistar=lift(a.pistar))
            assert change_ring(moved, RATIONAL, moved.atoms).atoms == be.atoms


# ---------------------------------------------------------------------------
# the reference route: the whole splitting and antipode over the series ring


def series_route(functor, comonoids, pc, order):
    """delta and antipode matrices of every hom, built the long way: the
    splitting over the series ring with the deformed braiding in it, and
    the deformed braiding itself, each pushed through the quotient's
    lifted projection p and section s as p.f.s; the splitting then goes
    through the lifted F2(xy, xy) = (p_xy (x) p_xy) s_xyxy."""
    ring = hseries_ring(order)
    src = change_ring(functor.source, ring, functor.source.atoms)

    def push(f):
        p, s = functor._image(f.cod)[1], functor._image(f.dom)[2]
        return lift_matrix(p, ring) * f.matrix * lift_matrix(s, ring)

    delta, antipode = {}, {}
    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            braid = deformed_braiding(pc, x.obj, y.obj, order)
            split = src.compose(
                src.tensor_mor(lift_mor(x.delta, ring), lift_mor(y.delta, ring)),
                src.tensor_all([src.identity_mor(x.obj), braid, src.identity_mor(y.obj)]))
            xy = x.obj.tensor(y.obj)
            p_xy = functor._image(xy)[1]
            f2 = mat_kron(p_xy, p_xy) * functor._image(xy.tensor(xy))[2]
            delta[(i, j)] = lift_matrix(f2, ring) * push(split)
            antipode[(i, j)] = push(braid)
    return delta, antipode


def z3_zero_deformation():
    doc = corpus._group_algebra_doc("z3_group_algebra", 3)
    doc["deformation"] = {"order": 8, "convention": "t_delta_zero", "t": []}
    return parse_instance(doc)


CASES = [(load_instance(corpus.corpus_path("abelian_precartier")), order)
         for order in (1, 2, 3, 4)] + [(z3_zero_deformation(), 8)]


class TestAgainstSeriesRoute:
    """The degree-by-degree splitting and antipode equal the ones built
    over the series ring in one piece."""

    @pytest.mark.parametrize("inst, order", CASES, ids=[
        f"{inst.doc['name']}-order{order}" for inst, order in CASES])
    def test_delta_and_antipode(self, inst, order):
        pc = inst.deformation["pc"]
        data = deformed(inst.functor, inst.comonoids, order, pc,
                        convention=inst.deformation["convention"])
        delta, antipode = series_route(inst.functor, inst.comonoids, pc, order)
        assert {k: f.matrix for k, f in data.delta.items()} == delta
        assert {k: f.matrix for k, f in data.antipode.items()} == antipode

    @pytest.mark.parametrize("order", [1, 3])
    def test_nonzero_coefficients(self, monkeypatch, order):
        """A datum that is nonzero on the comonoid carriers, which no
        lawful datum of this instance is: the laws are skipped, so that
        every degree of the deformed symmetry reaches the comparison."""
        inst = load_instance(corpus.corpus_path("abelian_precartier"))
        one = Matrix.identity(1, RATIONAL)
        pc = PreCartierData(inst.backend, {("E", "E2"): one, ("E2", "E"): one.scale(-1),
                                           ("E", "E"): one.scale(2)})
        monkeypatch.setattr(deform, "require_pre_cartier", lambda f, c, pc, conv: pc)
        data = deformed(inst.functor, inst.comonoids, order, pc)
        delta, antipode = series_route(inst.functor, inst.comonoids, pc, order)
        assert any(x.coeffs[order] for f in data.delta.values() for r in f.matrix.nz
                   for x in r.values())
        assert {k: f.matrix for k, f in data.delta.items()} == delta
        assert {k: f.matrix for k, f in data.antipode.items()} == antipode
