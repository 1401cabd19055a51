import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat.backends import (
    Atom,
    Backend,
    BackendError,
    MorphismRep,
    ObjectRef,
    cyclic_group,
    dy_backend,
    finset_backend,
    linear_backend,
    regular_atom,
    regular_linear_atom,
    symmetric_group,
)
from hopfcat.cli import run_verify
from hopfcat.coalg import all_hold, diagonal_comonoid, failures, group_like_comonoid
from hopfcat.cofunctor import (
    IdentityFunctor,
    NotAdapted,
    OrbitFunctor,
    certify_adapted,
    check_comonoidal,
    chi,
    dy_coinvariants_functor,
    gamma,
    group_coinvariants_functor,
    group_coinvariants_relations,
    invert_mor,
    mult_along,
)
from hopfcat import cofunctor, corpus
from hopfcat.corpus import corpus_path
from hopfcat.instances import dump_document, load_instance
from hopfcat.linalg import Matrix, cokernel_projection
from hopfcat.scalars import RATIONAL

from conftest import (
    all_elements_coinvariants_relations,
    composite_split,
    coset_atom,
    dihedral_group,
    gset_backend,
    morphism_laws,
    naive_orbit_data,
    naive_orbit_info,
    point_atom,
)


def torsor_backend(group):
    return finset_backend(group, [regular_atom("S", group), regular_atom("T", group)])


def regular_linear(group):
    return linear_backend(group, [regular_linear_atom("R", group)])


class TestOrbitFunctor:
    def test_single_torsor_collapses_to_point(self):
        b = torsor_backend(cyclic_group(3))
        fn = OrbitFunctor(b)
        img = fn.apply_obj(b.obj("S"))
        assert fn.target.obj_size(img) == 1

    def test_pair_of_torsors_has_group_many_orbits(self):
        for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
            b = torsor_backend(group)
            fn = OrbitFunctor(b)
            img = fn.apply_obj(b.obj("S", "T"))
            assert fn.target.obj_size(img) == group.order

    def test_unit_is_strict(self):
        b = torsor_backend(cyclic_group(2))
        fn = OrbitFunctor(b)
        assert fn.apply_obj(b.unit()) == fn.target.unit()

    def test_orbit_labels_of_torsor_pair(self):
        # orbit of (a, b) under the diagonal left action is labelled by
        # a^{-1} b; the representative has first coordinate 0
        g = symmetric_group(3)
        b = torsor_backend(g)
        fn = OrbitFunctor(b)
        st = b.obj("S", "T")
        reps = fn._orbits_of(st.factors)[0]
        n = g.order
        orbit_of = fn._labels_at(st.factors, range(n * n))
        for a in range(n):
            for c in range(n):
                label = orbit_of[a * n + c]
                rep = reps[label]
                assert rep // n == 0
                assert rep % n == g.mul(g.inv(a), c)

    def test_comonoidal_laws(self):
        b = torsor_backend(cyclic_group(3))
        fn = OrbitFunctor(b)
        s, t = b.obj("S"), b.obj("T")
        objs = [b.unit(), s, t, s.tensor(t)]
        swap = b.braiding(s, t)
        mors = [b.identity_mor(s), swap, b.act(1, s), b.act(2, t)]
        recs = check_comonoidal(fn, objs) + morphism_laws(fn, mors)
        assert all_hold(recs), failures(recs)

    def test_apply_mor_descends(self):
        g = cyclic_group(3)
        b = torsor_backend(g)
        fn = OrbitFunctor(b)
        st = b.obj("S", "T")
        # right translation on the second factor is equivariant and shifts
        # the orbit label
        shift = b.tensor_mor(
            b.identity_mor(b.obj("S")),
            b.mor_from_table(b.obj("T"), b.obj("T"),
                             tuple(g.mul(a, 1) for a in range(3))))
        img = fn.apply_mor(shift)
        reps = fn._orbits_of(st.factors)[0]
        orbit_of = fn._labels_at(st.factors, range(9))
        # label s goes to s*1
        for lab, rep in enumerate(reps):
            assert img.table[lab] == orbit_of[rep // 3 * 3 + g.mul(rep % 3, 1)]


class TestOrbitSearchAgainstAllElements:
    @pytest.mark.parametrize("group", [symmetric_group(3), cyclic_group(4), dihedral_group()],
                             ids=["s3", "z4", "d4"])
    def test_orbit_info_matches_naive_walk(self, group):
        b = gset_backend(group)
        fn = OrbitFunctor(b)
        reps, orbit_of = fn.orbit_info(b.obj("U"))
        sizes = sorted(orbit_of.count(k) for k in range(len(reps)))
        assert sizes[:2] == [1, 1] and len(sizes) == 3
        for k in (1, 2, 3):
            for word in itertools.product("STU", repeat=k):
                obj = b.obj(*word)
                assert fn.orbit_info(obj) == naive_orbit_info(b, obj), word


def orbit_cases():
    """(backend, words) pairs whose orbit data is checked against the
    all-elements walk.  X and V are a group acting on the points it
    permutes, so their stabilizers are not trivial; U has fixed points;
    T is a regular atom with renamed points."""
    s4 = symmetric_group(4)
    s4_sets = finset_backend(s4, [point_atom("X", s4), regular_atom("S", s4),
                                  coset_atom("T", s4, [{0}], seed=3)])
    s4_words = (list(itertools.product("XST", repeat=2))
                + list(itertools.product("XS", repeat=3))
                + [tuple("XXXX"), tuple("XSXT"), tuple("SXXX"), tuple("XXXS")])
    d4 = dihedral_group()
    d4_sets = finset_backend(d4, [*gset_backend(d4).atoms.values(), point_atom("V", d4)])
    d4_words = (list(itertools.product("SVU", repeat=3))
                + list(itertools.product("VU", repeat=4))
                + [tuple("VSVT"), tuple("USUT"), tuple("SUVU")])
    s3_sets = gset_backend(symmetric_group(3))
    s3_words = [tuple("UUUU"), tuple("USUT"), tuple("TUSU"), tuple("STUU")]
    trivial = finset_backend(cyclic_group(1), [Atom("P", 1, ((0,),)),
                                               Atom("Q", 3, ((0, 1, 2),))])
    trivial_words = [w for k in range(5) for w in itertools.product("PQ", repeat=k)]
    return [(s4_sets, s4_words), (d4_sets, d4_words), (s3_sets, s3_words),
            (trivial, trivial_words)]


class TestOrbitDataAgainstAllElements:
    @pytest.mark.parametrize("case", orbit_cases(), ids=["s4_points", "d4_square", "s3_gset",
                                                        "trivial"])
    def test_orbit_data_matches_naive_walk(self, case):
        b, words = case
        fn = OrbitFunctor(b)
        for word in words:
            reps, stabs, _ = fn._orbits_of(word)
            orbit_of, trans = fn._per_point(word)
            n_reps, n_orbit_of, n_stabs, acts = naive_orbit_data(b, b.obj(*word))
            assert (reps, orbit_of) == (n_reps, n_orbit_of), word
            assert stabs == n_stabs, word
            assert all(acts[g][p] == reps[orbit_of[p]] for p, g in enumerate(trans)), word

    def test_empty_word_is_one_orbit_fixed_by_the_group(self):
        b = gset_backend(symmetric_group(3))
        fn = OrbitFunctor(b)
        reps, stabs, _ = fn._orbits_of(())
        assert (reps, stabs) == ((0,), (tuple(range(6)),))
        assert fn._per_point(()) == ((0,), (0,))
        assert fn.orbit_info(b.unit()) == ((0,), (0,))

    def test_only_requested_words_get_target_atoms(self):
        d4 = dihedral_group()
        b = finset_backend(d4, [point_atom("V", d4), regular_atom("S", d4)])
        fn = OrbitFunctor(b)
        fn.apply_obj(b.obj("V", "S", "V"))
        assert list(fn.target.atoms) == ["orb[V(x)S(x)V]"]
        assert set(fn._orbits) == {(), ("V",), ("V", "S"), ("V", "S", "V")}


def label_cases():
    """(backend, words) pairs whose labels are read on demand: torsors,
    where every fibre past the first factor has a trivial stabilizer,
    and sets whose fibres have nontrivial stabilizers (D4 on the square's
    corners, the S3 G-sets with fixed points)."""
    s3 = symmetric_group(3)
    torsors = finset_backend(s3, [regular_atom("S", s3), coset_atom("T", s3, [{0}], seed=4)])
    torsor_words = [w for k in range(1, 5) for w in itertools.product("ST", repeat=k)]
    d4 = dihedral_group()
    square = finset_backend(d4, [point_atom("V", d4), regular_atom("S", d4)])
    square_words = ([w for k in range(1, 5) for w in itertools.product("V", repeat=k)]
                    + [tuple("VS"), tuple("SV"), tuple("VVS"), tuple("VSVV"), tuple("SVVV")])
    s3_sets = gset_backend(s3)
    s3_words = ([w for k in (1, 2) for w in itertools.product("STU", repeat=k)]
                + [tuple("UUU"), tuple("UUUU"), tuple("UTUS"), tuple("SUUU")])
    return [(torsors, torsor_words), (square, square_words), (s3_sets, s3_words)]


class TestLabelsOnDemand:
    @pytest.mark.parametrize("case", label_cases(), ids=["s3_torsors", "d4_square", "s3_gset"])
    def test_labels_at_every_point_match_the_full_array(self, case):
        b, words = case
        for word in words:
            n = b.obj_size(b.obj(*word))
            fn = OrbitFunctor(b)
            on_demand = fn._labels_at(word, range(n))
            # read from the prefix and the fibres, not from a label array
            assert word not in fn._points, word
            assert tuple(on_demand) == fn.orbit_info(b.obj(*word))[1], word
            assert tuple(on_demand) == naive_orbit_info(b, b.obj(*word))[1], word

    def test_torsor_fibres_past_the_first_factor_are_not_swept(self):
        b, words = label_cases()[0]
        fn = OrbitFunctor(b)
        for word in words[2:]:
            fibres = fn._orbits_of(word)[2]
            base = 0
            for lab, sel in fibres:
                assert lab == range(base, base + 6) and set(sel) == {0}, word
                base += 6

    def test_apply_mor_and_f2_leave_the_longest_word_unlabelled(self):
        b = torsor_backend(symmetric_group(3))
        fn = OrbitFunctor(b)
        s, sss = b.obj("S"), b.obj("S", "S", "S")
        fn.apply_mor(b.tensor_mor(b.identity_mor(s), b.braiding(s, s.tensor(s))))
        fn.f2(s.tensor(s), s.tensor(s))
        assert set(fn._points) == {(), ("S",), ("S", "S"), ("S", "S", "S")}
        assert ("S", "S", "S", "S") in fn._orbits
        assert fn.orbit_info(sss) == naive_orbit_info(b, sss)


def permutation_linear_backend(group, perms):
    """Linear backend with P, the permutation matrices of perms[g], and E,
    the sign of perms[g] on a line.  perms must compose like the table:
    perms[g * h] = perms[g] o perms[h]."""
    n = len(perms[0])
    one = Fraction(1)
    mats, signs = [], []
    for p in perms:
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[p[i] * n + i] = one
        mats.append(Matrix(n, n, RATIONAL, tuple(ent)))
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        signs.append(Matrix(1, 1, RATIONAL, ((-one) ** inversions,)))
    return linear_backend(group, [Atom("P", n, tuple(mats)), Atom("E", 1, tuple(signs))])


def named_perms(group):
    return [tuple(int(ch) for ch in name) for name in group.names]


class TestCoinvariantRelationsAgainstAllElements:
    @pytest.mark.parametrize("group, perms", [
        (cyclic_group(4), [tuple((i + g) % 4 for i in range(4)) for g in range(4)]),
        (symmetric_group(3), named_perms(symmetric_group(3))),
        (dihedral_group(), named_perms(dihedral_group())),
    ], ids=["z4", "s3", "d4"])
    def test_quotient_matches_every_element_relations(self, group, perms):
        b = permutation_linear_backend(group, perms)
        for k in (1, 2, 3):
            for word in itertools.product("PE", repeat=k):
                obj = b.obj(*word)
                rel = group_coinvariants_relations(b, obj)
                assert rel.cols == len(group.generators) * b.obj_size(obj)
                expect = cokernel_projection(all_elements_coinvariants_relations(b, obj))
                assert cokernel_projection(rel) == expect, word

    def test_trivial_group_has_no_relations(self):
        b = permutation_linear_backend(cyclic_group(1), [(0, 1)])
        rel = group_coinvariants_relations(b, b.obj("P", "E"))
        assert (rel.rows, rel.cols) == (2, 0)
        assert cokernel_projection(rel)[0] == Matrix.identity(2, RATIONAL)


class TestCoinvariantsFunctor:
    def test_regular_rep_collapses_to_line(self):
        b = regular_linear(cyclic_group(3))
        fn = group_coinvariants_functor(b)
        img = fn.apply_obj(b.obj("R"))
        assert fn.target.obj_size(img) == 1

    def test_square_has_group_dimension(self):
        b = regular_linear(cyclic_group(3))
        fn = group_coinvariants_functor(b)
        img = fn.apply_obj(b.obj("R", "R"))
        assert fn.target.obj_size(img) == 3

    def test_projection_section_laws(self):
        b = regular_linear(cyclic_group(2))
        fn = group_coinvariants_functor(b)
        rr = b.obj("R", "R")
        _, p, s = fn._image(rr)
        assert p * s == Matrix.identity(2, RATIONAL)
        for g in (1,):
            rel = b.as_matrix(b.act(g, rr)) - Matrix.identity(4, RATIONAL)
            assert (p * rel).is_zero()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("word", [("R",), ("R", "R")])
    def test_projection_is_orbit_indicator(self, n, word):
        # Coinvariants of a permutation module identify each orbit of basis
        # vectors: p has one row per orbit, ordered by the orbit's largest
        # member, and sums the orbit onto that representative.
        b = regular_linear(cyclic_group(n))
        fn = group_coinvariants_functor(b)
        k = len(word)
        orbits = {}
        for x in range(n ** k):
            digits = [x // n ** (k - 1 - t) % n for t in range(k)]
            orbit = frozenset(sum((d + g) % n * n ** (k - 1 - t)
                                  for t, d in enumerate(digits))
                              for g in range(n))
            orbits[max(orbit)] = orbit
        reps = sorted(orbits)
        expected = Matrix.from_rows(RATIONAL, [
            [1 if x in orbits[rep] else 0 for x in range(n ** k)] for rep in reps])
        _, p, s = fn._image(b.obj(*word))
        assert p == expected
        assert s == Matrix.from_rows(RATIONAL, [
            [1 if x == rep else 0 for rep in reps] for x in range(n ** k)])

    def test_comonoidal_laws(self):
        b = regular_linear(cyclic_group(2))
        fn = group_coinvariants_functor(b)
        r = b.obj("R")
        objs = [b.unit(), r, r.tensor(r)]
        mors = [b.identity_mor(r), b.braiding(r, r), b.act(1, r)]
        recs = check_comonoidal(fn, objs) + morphism_laws(fn, mors)
        assert all_hold(recs), failures(recs)

    def test_one_cokernel_per_relation_matrix(self, monkeypatch):
        # abelian_precartier's dy quotient: words that differ by the trivial
        # lines E, E2 have equal relations, and share one (p, s)
        fn = load_instance(corpus_path("abelian_precartier")).functor
        b = fn.source
        made = []
        monkeypatch.setattr(cofunctor, "cokernel_projection",
                            lambda rel: made.append(rel) or cokernel_projection(rel))
        words = [ObjectRef(w) for w in short_words(b, 64) if b.base not in w]
        for w in words:
            _, p, s = fn._image(w)
            assert (p, s) == cokernel_projection(fn.relations_fn(b, w)), w
        assert len(made) == len(set(made)) < len(words) / 2

    @staticmethod
    def unit_letter_backends():
        """abelian_precartier's atoms and L, a line the base acts on by
        (1, 0); Z2's regular representation R, its trivial line E and its
        sign line S, whose relation is -2.  L and S are lines, and not
        unit letters."""
        dy = load_instance(corpus_path("abelian_precartier")).functor.source
        ones = Matrix.identity(1, RATIONAL)
        line = Atom("L", 1, (ones,), pi=Matrix.from_rows(RATIONAL, [[1, 0]]),
                    pistar=Matrix.zeros(2, 1, RATIONAL))
        dy = dy_backend(dy.atoms["b"], [a for n, a in dy.atoms.items() if n != "b"] + [line])
        z2 = cyclic_group(2)
        linrep = linear_backend(z2, [regular_linear_atom("R", z2), Atom("E", 1, (ones, ones)),
                                     Atom("S", 1, (ones, -ones))])
        return {"dy": (dy_coinvariants_functor(dy), {"E", "E2"}, {"L"}),
                "linrep": (group_coinvariants_functor(linrep), {"E"}, {"S"})}

    @staticmethod
    def quotient_mismatches(fn):
        """The short words whose kept (p, s) are not the quotient data of
        their own relation matrix R, or break p R = 0 or p s = 1."""
        b, bad = fn.source, []
        for w in map(ObjectRef, short_words(b, 64)):
            rel = fn.relations_fn(b, w)
            _, p, s = fn._image(w)
            if ((p, s) != cokernel_projection(rel) or not (p * rel).is_zero()
                    or p * s != Matrix.identity(p.rows, RATIONAL)):
                bad.append(w.factors)
        return bad

    @pytest.mark.parametrize("kind", ["dy", "linrep"])
    def test_unit_letters_keep_each_words_quotient(self, kind):
        fn, units, _ = self.unit_letter_backends()[kind]
        assert fn.units == units
        assert self.quotient_mismatches(fn) == []

    @pytest.mark.parametrize("kind", ["dy", "linrep"])
    def test_dropping_a_line_with_relations_is_caught(self, kind):
        # a functor that takes every line for a unit letter: the words of
        # L or S get the quotient of the word without it, and fail
        fn, units, lines = self.unit_letter_backends()[kind]
        b = fn.source
        mutant = cofunctor.CoinvariantsFunctor(b, fn.relations_fn, units=units | lines)
        bad = self.quotient_mismatches(mutant)
        assert bad and all(lines & set(w) for w in bad)
        assert {(line,) for line in lines} <= set(bad)


class TestIdentityFunctor:
    def test_comonoidal_laws(self):
        b = torsor_backend(cyclic_group(2))
        fn = IdentityFunctor(b)
        s = b.obj("S")
        recs = check_comonoidal(fn, [b.unit(), s]) + morphism_laws(fn, [b.identity_mor(s)])
        assert all_hold(recs), failures(recs)


class TestAdaptedness:
    def test_torsor_is_adapted(self):
        g = cyclic_group(3)
        b = torsor_backend(g)
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        pairs = [(b.unit(), b.unit()), (b.obj("S"), b.obj("S")),
                 (b.obj("T"), b.obj("T")), (b.obj("S"), b.obj("T"))]
        certify_adapted(fn, m, pairs)
        dst = fn.target
        for g, ginv in [(chi(fn, m), fn.chi_inverse(m))] + [
                (gamma(fn, m, x, z), fn.gamma_inverse(m, x, z)) for x, z in pairs]:
            assert dst.equal_mor(dst.compose(g, ginv), dst.identity_mor(g.dom))

    def test_gamma_counts_orbits(self):
        g = cyclic_group(3)
        b = torsor_backend(g)
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        gm = gamma(fn, m, b.obj("T"), b.obj("T"))
        # both sides have |G|^2 orbits
        assert fn.target.obj_size(gm.dom) == 9
        assert fn.target.obj_size(gm.cod) == 9

    def test_two_point_trivial_set_not_adapted(self):
        # a 2-element set with trivial action: F(M) has two orbits, so the
        # counit collapse cannot be a bijection
        from hopfcat.backends import Atom
        g = cyclic_group(2)
        two = Atom("P", 2, ((0, 1), (0, 1)))
        b = finset_backend(g, [two, regular_atom("S", g)])
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("P"))
        with pytest.raises(NotAdapted):
            certify_adapted(fn, m, [])

    def test_regular_rep_is_adapted(self):
        g = cyclic_group(2)
        b = regular_linear(g)
        fn = group_coinvariants_functor(b)
        m = group_like_comonoid(b, b.obj("R"))
        pairs = [(b.obj("R"), b.obj("R"))]
        certify_adapted(fn, m, pairs)
        ginv = fn.gamma_inverse(m, b.obj("R"), b.obj("R"))
        gm = gamma(fn, m, b.obj("R"), b.obj("R"))
        both = fn.target.compose(gm, ginv)
        assert fn.target.equal_mor(both, fn.target.identity_mor(gm.dom))

    def test_mult_along_merges_torsor_classes(self):
        # composing the classes of (a,b) and (b,c) must give the class of
        # (a,c): check through mult_along on the orbit functor
        g = symmetric_group(3)
        b = torsor_backend(g)
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        s = b.obj("S")
        certify_adapted(fn, m, [(s, s)])
        mu = mult_along(fn, m, s, s)
        ss = s.tensor(s)
        orbit_of = fn.orbit_info(ss)[1]
        n = g.order
        wy = fn.target.obj_size(fn.apply_obj(ss))
        for a in range(n):
            for bb in range(n):
                for c in range(n):
                    left = orbit_of[a * n + bb]
                    right = orbit_of[bb * n + c]
                    out = mu.table[left * wy + right]
                    assert out == orbit_of[a * n + c]

    @staticmethod
    def counting_gamma(monkeypatch):
        calls = []

        def counted(functor, m, x, z, real=cofunctor.gamma):
            calls.append((x.factors, z.factors))
            return real(functor, m, x, z)

        monkeypatch.setattr(cofunctor, "gamma", counted)
        return calls

    def test_mult_along_on_an_uncertified_pair(self, monkeypatch):
        # gamma is inverted on the first ask and kept, and the merge is the
        # one a certified functor makes
        b = torsor_backend(symmetric_group(3))
        s = b.obj("S")
        m = diagonal_comonoid(b, s)
        certified = OrbitFunctor(b)
        certify_adapted(certified, m, [(s, s)])
        expected = mult_along(certified, m, s, s)
        calls = self.counting_gamma(monkeypatch)
        fn = OrbitFunctor(b)
        assert mult_along(fn, m, s, s) == expected
        assert mult_along(fn, m, s, s) == expected
        assert calls == [(("S",), ("S",))]

    def test_a_pair_that_is_not_adapted_is_stored_nowhere(self, monkeypatch):
        # a one-point set with trivial action: chi is a bijection, but
        # gamma at (S, S) sends the 2 orbits of S (x) P (x) S to the 1 x 1
        # of F(S (x) P) (x) F(P (x) S)
        g = cyclic_group(2)
        b = finset_backend(g, [Atom("P", 1, ((0,), (0,))), regular_atom("S", g)])
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("P"))
        s = b.obj("S")
        certify_adapted(fn, m, [(s, b.unit())])
        calls = self.counting_gamma(monkeypatch)
        messages = set()
        for ask in (lambda: certify_adapted(fn, m, [(s, s)]),
                    lambda: fn.gamma_inverse(m, s, s),
                    lambda: mult_along(fn, m, s, s),
                    lambda: certify_adapted(fn, m, [(s, b.unit()), (s, s)])):
            with pytest.raises(NotAdapted) as exc:
                ask()
            messages.add(str(exc.value))
        assert len(messages) == 1 and "not a bijection" in messages.pop()
        assert calls == [(("S",), ("S",))] * 4


class TestInvertMor:
    def test_table_inverse(self):
        b = torsor_backend(cyclic_group(3))
        s = b.obj("S")
        f = b.mor_from_table(s, s, (1, 2, 0))
        inv = invert_mor(b, f)
        assert inv.table == (2, 0, 1)

    def test_non_bijective_table_rejected(self):
        b = torsor_backend(cyclic_group(2))
        s = b.obj("S")
        with pytest.raises(NotAdapted):
            invert_mor(b, b.mor_from_table(s, s, (0, 0)))

    def test_singular_matrix_rejected(self):
        b = regular_linear(cyclic_group(2))
        r = b.obj("R")
        f = b.mor_from_matrix(r, r, Matrix.from_rows(RATIONAL, [[1, 1], [1, 1]]))
        with pytest.raises(NotAdapted) as exc:
            invert_mor(b, f)
        assert exc.value.witness is not None


# ---------------------------------------------------------------------------
# split: F(f) then the splitting, straight into F(w1) (x) ... (x) F(wk)


def cuts(word, k=2):
    """Every way to split a word into k words, empty ones included."""
    return [tuple(ObjectRef(word[i:j]) for i, j in zip((0, *ends), (*ends, len(word))))
            for ends in itertools.combinations_with_replacement(range(len(word) + 1), k - 1)]


def split_cases(b, word):
    """(f, words) for k = 1, 2, 3: each cut of the word into k words,
    with each map of split_maps into the first word and the rest."""
    for k in (1, 2, 3):
        for words in cuts(word, k):
            rest = ObjectRef(tuple(a for w in words[1:] for a in w.factors))
            for f in split_maps(b, words[0], rest):
                yield f, words


def split_maps(b, x, y):
    """Source maps into x (x) y: its identity, the braiding from y (x) x,
    and, when x ends and y starts with one atom a, gamma's doubling
    x' (x) a (x) y' -> x' (x) a (x) a (x) y'."""
    maps = [b.identity_mor(x.tensor(y)), b.braiding(y, x)]
    if x.factors and y.factors and x.factors[-1] == y.factors[0]:
        a = ObjectRef.atom(y.factors[0])
        copy = diagonal_comonoid if b.kind == "finset" else group_like_comonoid
        maps.append(b.tensor_all([b.identity_mor(ObjectRef(x.factors[:-1])), copy(b, a).delta,
                                  b.identity_mor(ObjectRef(y.factors[1:]))]))
    return maps


def short_words(b, limit):
    """The words of one to three atoms with at most limit points."""
    return [w for k in (1, 2, 3) for w in itertools.product(sorted(b.atoms), repeat=k)
            if b.obj_size(ObjectRef(w)) <= limit]


def random_matrix(b, dom, cod, seed):
    """A matrix dom -> cod with small integer entries, equivariant by
    accident only."""
    rng = random.Random(seed)
    rows = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(b.obj_size(dom))]
            for _ in range(b.obj_size(cod))]
    return b.mor_from_matrix(dom, cod, Matrix.from_rows(RATIONAL, rows))


def assert_split_matches(fn, f, *words):
    dst = fn.target
    assert dst.equal_mor(fn.split(f, *words), composite_split(fn, f, *words)), \
        (f.dom.label(), *(w.label() for w in words))


def linear_cases():
    """(functor, largest word size) for the group coinvariants of regular
    representations and the dy quotient of abelian_precartier."""
    cases = [(group_coinvariants_functor(regular_linear(g)), 216)
             for g in (cyclic_group(3), cyclic_group(4), symmetric_group(3))]
    cases.append((load_instance(corpus_path("abelian_precartier")).functor, 64))
    return cases


ORBIT_BACKENDS = [b for b, _ in orbit_cases()]


def every_functor():
    """(functor, an atom that is not a dy base) for each functor kind."""
    return [(OrbitFunctor(torsor_backend(symmetric_group(3))), "S"),
            (group_coinvariants_functor(regular_linear(cyclic_group(3))), "R"),
            (load_instance(corpus_path("abelian_precartier")).functor, "V"),
            (IdentityFunctor(torsor_backend(cyclic_group(2))), "S")]


class TestF2AfterAgainstComposite:
    """split(f, w1, ..., wk) against F(f) then F2s, at k = 1, 2 and 3."""

    @pytest.mark.parametrize("b", ORBIT_BACKENDS, ids=["s4_points", "d4_square", "s3_gset",
                                                      "trivial"])
    def test_orbit_functor_equivariant_maps(self, b):
        fn = OrbitFunctor(b)
        for word in short_words(b, 600):
            for f, words in split_cases(b, word):
                assert_split_matches(fn, f, *words)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_orbit_functor_any_table(self, data):
        # split is exact for tables that are not equivariant as well
        b = data.draw(st.sampled_from(ORBIT_BACKENDS))
        fn = OrbitFunctor(b)
        word = data.draw(st.sampled_from(short_words(b, 600)))
        words = data.draw(st.sampled_from(cuts(word, data.draw(st.sampled_from((1, 2, 3))))))
        dom = ObjectRef(data.draw(st.sampled_from(
            [()] + [w for w in short_words(b, 100) if len(w) < 3])))
        n, m = b.obj_size(dom), b.obj_size(ObjectRef(word))
        table = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        assert_split_matches(fn, b.mor_from_table(dom, ObjectRef(word), tuple(table)), *words)

    @pytest.mark.parametrize("case", linear_cases(), ids=["z3", "z4", "s3", "abelian_precartier"])
    def test_coinvariants_functor(self, case):
        fn, limit = case
        b = fn.source
        for word in short_words(b, limit):
            if b.kind == "dy" and b.base in word:
                continue
            for seed, (f, words) in enumerate(split_cases(b, word)):
                atom = ObjectRef.atom(word[seed % len(word)])
                for g in (f, random_matrix(b, atom, f.cod, seed)):
                    assert_split_matches(fn, g, *words)

    def test_identity_functor(self):
        for b in (torsor_backend(cyclic_group(3)), regular_linear(cyclic_group(2))):
            fn = IdentityFunctor(b)
            for f, words in split_cases(b, tuple(sorted(b.atoms)) * 2):
                assert_split_matches(fn, f, *words)

    @pytest.mark.parametrize("case", every_functor(), ids=["orbits", "coinvariants", "dy",
                                                            "identity"])
    def test_f2_is_the_split_of_the_identity(self, case):
        fn, a = case
        b = fn.source
        for x, y in cuts((a, a, a)):
            f2 = fn.f2(x, y)
            assert fn.f2(x, y) is f2
            assert fn.target.equal_mor(f2, fn.split(b.identity_mor(x.tensor(y)), x, y))

    def test_linear_f2_multiplies_no_identity_in(self, monkeypatch, tmp_path):
        """F2(x, y) of a coinvariants functor is (p_x (x) p_y) s_{x (x) y}:
        splitting the backend's identity costs no product, since a product
        with an identity operand is the other operand itself.  That holds
        for every such product of a z4_group_algebra verify, with the
        backend's shared identities and with every identity a fresh matrix,
        and both runs give the same report."""
        real_mul = Matrix.__mul__
        path = tmp_path / "z4_group_algebra.json"
        path.write_text(dump_document(corpus._group_algebra_doc("z4_group_algebra", 4)))
        with_identity = [0]

        def is_identity(m):
            return m.perm is not None and m.perm == tuple(range(m.rows))

        def checked(a, b):
            out = real_mul(a, b)
            if is_identity(a) or is_identity(b):
                with_identity[0] += 1
                assert out is (b if is_identity(a) else a)
            return out

        def verify():
            with_identity[0] = 0
            report, code = run_verify(path)
            assert code == 0
            assert with_identity[0] > 0
            return [(r["rule"], r["holds"], r["detail"]) for r in report["checks"]]

        monkeypatch.setattr(Matrix, "__mul__", checked)
        checks = verify()
        monkeypatch.setattr(Backend, "identity_mor", lambda b, obj: MorphismRep(
            obj, obj, matrix=Matrix.identity(b.obj_size(obj), b.ring)))
        assert verify() == checks

    def test_codomain_is_never_imaged(self):
        # gamma's doubling lands in a four-letter word; split reads only
        # f.dom and the words
        for fn, a in every_functor()[:3]:
            b = fn.source
            x = y = b.obj(a, a)
            f = split_maps(b, x, y)[2]
            fn.split(f, x, y)
            fn.split(f, b.obj(a), b.unit(), b.obj(a, a, a))
            assert len(f.dom) == 3 and (a,) * 4 not in fn._images

    @pytest.mark.parametrize("make", [
        lambda: OrbitFunctor(torsor_backend(cyclic_group(2))),
        lambda: group_coinvariants_functor(regular_linear(cyclic_group(2))),
        lambda: IdentityFunctor(torsor_backend(cyclic_group(2))),
        lambda: load_instance(corpus_path("abelian_precartier")).functor,
    ], ids=["orbits", "coinvariants", "identity", "dy"])
    def test_codomain_mismatch_raises(self, make):
        fn = make()
        b = fn.source
        a = b.obj(sorted(b.atoms)[0])
        f = b.braiding(a, a.tensor(a))
        for words in ((a,), (a, a), (a, a.tensor(a), a)):
            with pytest.raises(BackendError, match="composition mismatch: "):
                fn.split(f, *words)
            with pytest.raises(BackendError, match="composition mismatch: "):
                fn.split_tensor([f, b.identity_mor(b.unit())], *words)
        with pytest.raises(BackendError, match="composition mismatch"):
            composite_split(fn, f, a, a)


# ---------------------------------------------------------------------------
# split_tensor: split of a tensor product, which need not be built


def tensor_lists(b, a, c, seed):
    """Lists gs of source maps on the atoms a and c: the empty list, an
    identity, a diagonal, gamma's 1 (x) delta (x) 1, the collapse
    1 (x) eps (x) 1, a braiding, and a map a (x) c -> c that is
    equivariant by accident only (a random table or matrix)."""
    x, y = b.obj(a), b.obj(c)
    copy = diagonal_comonoid if b.kind == "finset" else group_like_comonoid
    mx, my = copy(b, x), copy(b, y)
    one_x, one_y = b.identity_mor(x), b.identity_mor(y)
    if b.kind == "finset":
        rng = random.Random(seed)
        odd = b.mor_from_table(x.tensor(y), y, tuple(
            rng.randrange(b.obj_size(y)) for _ in range(b.obj_size(x.tensor(y)))))
    else:
        odd = random_matrix(b, x.tensor(y), y, seed)
    return [[], [one_x], [mx.delta], [one_y, mx.delta, one_y], [one_y, mx.eps, one_y],
            [b.braiding(x, y), one_x], [odd, my.delta, mx.eps], [b.identity_mor(b.unit()), odd]]


def split_tensor_cases():
    """(functor, atom a, atom c) for each functor kind; the orbit functor
    on every orbit backend, at its two smallest atoms."""
    cases = []
    for b in ORBIT_BACKENDS:
        a, c = sorted(b.atoms, key=lambda n: (b.atom_size(n), n))[:2]
        cases.append((OrbitFunctor(b), a, c))
    cases += [(group_coinvariants_functor(regular_linear(cyclic_group(3))), "R", "R"),
              (load_instance(corpus_path("abelian_precartier")).functor, "V", "W"),
              (IdentityFunctor(torsor_backend(cyclic_group(2))), "S", "T"),
              (IdentityFunctor(regular_linear(cyclic_group(2))), "R", "R")]
    return cases


SPLIT_TENSOR_CASES = split_tensor_cases()


class TestSplitTensorAgainstSplit:
    """split_tensor(gs, *words) is split(tensor_all(gs), *words), the same
    MorphismRep, at k = 1, 2 and 3, for every functor kind."""

    @pytest.mark.parametrize("case", SPLIT_TENSOR_CASES, ids=[
        "orbits_s4_points", "orbits_d4_square", "orbits_s3_gset", "orbits_trivial",
        "coinvariants", "dy", "identity_finset", "identity_linear"])
    def test_against_split_of_the_tensor_product(self, case):
        fn, a, c = case
        b = fn.source
        for i, gs in enumerate(tensor_lists(b, a, c, seed=7)):
            whole = b.tensor_all(gs)
            for k in (1, 2, 3):
                for words in cuts(whole.cod.factors, k):
                    assert fn.split_tensor(gs, *words) == fn.split(whole, *words), \
                        (i, [w.label() for w in words])

    def test_orbit_functor_builds_no_tensor_table(self, monkeypatch):
        b = ORBIT_BACKENDS[0]
        fn = OrbitFunctor(b)
        cases = []
        for gs in tensor_lists(b, "X", "T", seed=3):
            whole = b.tensor_all(gs)
            for k in (1, 2):
                for words in cuts(whole.cod.factors, k):
                    cases.append((gs, words, fn.split(whole, *words)))

        def refused(*args):
            raise AssertionError("a tensor table was built")

        monkeypatch.setattr(Backend, "tensor_mor", refused)
        monkeypatch.setattr(Backend, "tensor_all", refused)
        for gs, words, want in cases:
            assert fn.split_tensor(gs, *words) == want
