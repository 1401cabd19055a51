"""Acceptance gate: every criterion, exact arithmetic, one line printed
per criterion.  Run with -s to see the lines as they pass.

The oracles here are built independently of the constructors they judge:
groupoids come from brute-force enumeration of equivariant bijections,
the group algebra from its own structure constants, and the twist
equation from a hand-rolled tensor expansion over dictionaries.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hopfcat.backends import MorphismRep
from hopfcat.coalg import all_hold, check_hopf_monoid, failures, group_algebra_hopf
from hopfcat.cofunctor import certify_adapted, mult_along
from hopfcat.hopfcategory import (
    build_hopf_category,
    build_hopf_monoid,
    check_hopf_category,
    extract_set_groupoid,
    hopf_data_equal,
)
from hopfcat.liebialg import (
    LieBialgebra,
    TruncatedUEA,
    check_dy_module,
    check_lie_bialgebra,
    check_twist,
    check_uea_dy_identities,
    twist_bialgebra,
    twist_dy_module,
)
from hopfcat.deform import (
    build_deformed_hopf_category,
    change_ring,
    deformed_braiding,
    reduce_order0,
)
from hopfcat.linalg import Matrix, lift_matrix, mat_invert, mat_kron
from hopfcat.scalars import RATIONAL, hseries_ring
from hopfcat.corpus import _group_algebra_doc, corpus_path, CORPUS_NAMES
from hopfcat.instances import dump_document, load_instance
from hopfcat.cli import run_verify

from conftest import uea_delta_images, uea_eps_matrix


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL  {desc}")
        raise
    print(f"criterion {n}: PASS  {desc}")


def qm(rows):
    return Matrix.from_rows(RATIONAL, rows)


# ---------------------------------------------------------------------------
# oracles


def equivariant_bijections(backend, src_name, dst_name):
    """All equivariant bijections between two atoms, by brute force: pick
    the image of element 0, propagate along the action, then verify."""
    group = backend.group
    src = backend.atoms[src_name]
    dst = backend.atoms[dst_name]
    maps = []
    for image0 in range(dst.size):
        f = [None] * src.size
        consistent = True
        for g in group.elements():
            x, y = src.action[g][0], dst.action[g][image0]
            if f[x] is None:
                f[x] = y
            elif f[x] != y:
                consistent = False
        if not consistent or None in f or sorted(f) != list(range(dst.size)):
            continue
        if all(f[src.action[g][x]] == dst.action[g][f[x]]
               for g in group.elements() for x in range(src.size)):
            maps.append(tuple(f))
    return sorted(maps)


def oracle_groupoid(backend, names):
    """Objects are the named atoms; arrows are the equivariant bijections
    between them, composed pointwise."""
    homs = {(i, j): equivariant_bijections(backend, a, b)
            for i, a in enumerate(names) for j, b in enumerate(names)}
    index = {key: {f: p for p, f in enumerate(fs)} for key, fs in homs.items()}
    comp = {}
    for i in range(len(names)):
        for j in range(len(names)):
            for k in range(len(names)):
                table = []
                for fa in homs[(i, j)]:
                    for fb in homs[(j, k)]:
                        table.append(index[(i, k)][tuple(fb[x] for x in fa)])
                comp[(i, j, k)] = tuple(table)
    identity = {i: index[(i, i)][tuple(range(backend.atoms[names[i]].size))]
                for i in range(len(names))}
    return homs, index, comp, identity


def orbit_matching(inst, data, i, j):
    """Orbit index -> oracle arrow index, via the unique equivariant
    bijection sending the orbit representative's first leg to its second."""
    names = [c.obj.factors[0] for c in inst.comonoids]
    backend = inst.backend
    word = inst.comonoids[i].obj.tensor(inst.comonoids[j].obj)
    reps, _ = inst.functor.orbit_info(word)
    nj = backend.atoms[names[j]].size
    arrows = equivariant_bijections(backend, names[i], names[j])
    match = []
    for r in reps:
        a, b = r // nj, r % nj
        found = [p for p, f in enumerate(arrows) if f[a] == b]
        assert len(found) == 1, "orbit does not pick a unique arrow"
        match.append(found[0])
    return match


def tensor3(entries):
    """Prune zero coefficients of a dict keyed by basis triples."""
    return {k: v for k, v in entries.items() if v}


def _acc(d, key, v):
    nv = d.get(key, Fraction(0)) + v
    if nv:
        d[key] = nv
    elif key in d:
        del d[key]


def oracle_twist_sides(lb, j):
    """Both sides of the twist equation by direct tensor expansion: the
    alternating sum of the split twist, and the three slot-bracket terms."""
    n = lb.dim
    lhs = {}
    for a in range(n):
        for b in range(n):
            c = j[a, b]
            if not c:
                continue
            for (p, q), d in lb.cobracket_of(a):
                for triple in (((p, q, b)), ((q, b, p)), ((b, p, q))):
                    _acc(lhs, triple, c * d)
    rhs = {}
    for a in range(n):
        for b in range(n):
            ca = j[a, b]
            if not ca:
                continue
            for c in range(n):
                for d in range(n):
                    weight = ca * j[c, d]
                    if not weight:
                        continue
                    for k, br in lb.bracket_of(b, c):
                        _acc(rhs, (a, k, d), weight * br)
                    for k, br in lb.bracket_of(a, c):
                        _acc(rhs, (k, b, d), weight * br)
                    for k, br in lb.bracket_of(b, d):
                        _acc(rhs, (a, c, k), weight * br)
    return tensor3(lhs), tensor3(rhs)


def b2():
    bracket = qm([[0, 0, 0, 0], [0, 1, -1, 0]])
    cobracket = qm([[0, 0], [0, 1], [0, -1], [0, 0]])
    return LieBialgebra(2, bracket, cobracket, ("x", "y"))


# ---------------------------------------------------------------------------
# criterion 1: torsor groupoids against the equivariant-bijection oracle


class TestTorsorGroupoids:
    @pytest.mark.parametrize("name", ["z2_torsors", "z3_torsors", "s3_torsors"])
    def test_extracted_groupoid_matches_oracle(self, name):
        with criterion(1, f"torsor groupoid vs equivariant bijections [{name}]"):
            started = time.monotonic()
            inst = load_instance(corpus_path(name))
            data = build_hopf_category(inst.functor, inst.comonoids)
            assert all_hold(check_hopf_category(data.backend, data))
            gt, records = extract_set_groupoid(inst.functor.target, data)
            assert all_hold(records), failures(records)

            names = [c.obj.factors[0] for c in inst.comonoids]
            homs, index, comp, identity = oracle_groupoid(inst.backend, names)
            order = inst.backend.group.order
            rng = range(len(names))
            match = {(i, j): orbit_matching(inst, data, i, j)
                     for i in rng for j in rng}
            for i in rng:
                for j in rng:
                    assert gt.hom_size[(i, j)] == order == len(homs[(i, j)])
                    assert sorted(match[(i, j)]) == list(range(order))
            for i in rng:
                for j in rng:
                    for k in rng:
                        size_jk = gt.hom_size[(j, k)]
                        for a in range(gt.hom_size[(i, j)]):
                            for b in range(size_jk):
                                ours = gt.comp[(i, j, k)][a * size_jk + b]
                                oracle = comp[(i, j, k)][
                                    match[(i, j)][a] * len(homs[(j, k)])
                                    + match[(j, k)][b]]
                                assert match[(i, k)][ours] == oracle
            for i in rng:
                assert match[(i, i)][gt.identity[i]] == identity[i]
            for i in rng:
                for j in rng:
                    for a in range(gt.hom_size[(i, j)]):
                        f = homs[(i, j)][match[(i, j)][a]]
                        finv = tuple(f.index(x) for x in range(len(f)))
                        got = match[(j, i)][gt.inverse[(i, j)][a]]
                        assert homs[(j, i)][got] == finv
            assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 2: the regular torsor gives back the group table


class TestRegularTorsorGroup:
    @pytest.mark.parametrize("name", ["z2_torsors", "z3_torsors", "s3_torsors"])
    def test_one_object_case_recovers_the_group(self, name):
        with criterion(2, f"regular torsor recovers the group [{name}]"):
            inst = load_instance(corpus_path(name))
            group = inst.backend.group
            m = inst.comonoids[0]  # the left-translation torsor
            h = build_hopf_monoid(inst.functor, m)
            assert all_hold(check_hopf_monoid(inst.functor.target, h))

            word = m.obj.tensor(m.obj)
            reps, _ = inst.functor.orbit_info(word)
            n = group.order
            # orbit of (a, b) <-> the arrow value at the basepoint; on the
            # regular torsor that labels orbits by group elements exactly
            label = [group.mul(group.inv(r // n), r % n) for r in reps]
            assert sorted(label) == list(range(n))
            pos = {g: p for p, g in enumerate(label)}

            for g in range(n):
                for k in range(n):
                    got = h.mult.table[pos[g] * n + pos[k]]
                    assert label[got] == group.mul(g, k)
            assert label[h.unit.table[0]] == 0
            for g in range(n):
                assert label[h.antipode.table[pos[g]]] == group.inv(g)
                assert h.delta.table[pos[g]] == pos[g] * n + pos[g]
                assert h.eps.table[pos[g]] == 0


# ---------------------------------------------------------------------------
# criterion 3: coinvariants of the regular representation = group algebra


class TestGroupAlgebraIsomorphism:
    @pytest.mark.parametrize("name", ["z2_group_algebra", "z3_group_algebra"])
    def test_structure_constant_exact_isomorphism(self, name):
        with criterion(3, f"coinvariants vs group algebra [{name}]"):
            started = time.monotonic()
            inst = load_instance(corpus_path(name))
            group = inst.backend.group
            n = group.order
            m = inst.comonoids[0]
            h = build_hopf_monoid(inst.functor, m)
            assert all_hold(check_hopf_monoid(inst.functor.target, h))

            # the group algebra is not a morphism of the regular action, so
            # its laws are judged on the bare vector space
            oracle = group_algebra_hopf(inst.backend, m.obj, group)
            records = [r for r in check_hopf_monoid(inst.backend, oracle)
                       if not r.rule.startswith("hopf.equivariant.")]
            assert all_hold(records), failures(records)

            # phi(class(e_g (x) e_h)) = e_{g^{-1} h}, built through the
            # quotient's section and checked to descend
            rows = [[Fraction(0)] * (n * n) for _ in range(n)]
            for g in range(n):
                for k in range(n):
                    rows[group.mul(group.inv(g), k)][g * n + k] = Fraction(1)
            collapse = qm(rows)
            word = m.obj.tensor(m.obj)
            _, p, s = inst.functor._image(word)
            phi = collapse * s
            assert phi * p == collapse, "the matching does not descend"
            mat_invert(phi)  # raises if singular

            phi2 = mat_kron(phi, phi)
            assert phi * h.mult.matrix == oracle.mult.matrix * phi2
            assert phi * h.unit.matrix == oracle.unit.matrix
            assert phi2 * h.delta.matrix == oracle.delta.matrix * phi
            assert h.eps.matrix == oracle.eps.matrix * phi
            assert phi * h.antipode.matrix == oracle.antipode.matrix * phi
            assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# criterion 4: mixed associativity across two distinct middles


class TestMixedAssociativity:
    def test_merging_along_m_then_n_commutes(self):
        with criterion(4, "mixed associativity over two distinct torsors"):
            inst = load_instance(corpus_path("z3_torsors"))
            fn = inst.functor
            m, n = inst.comonoids
            assert m.obj != n.obj
            assert (inst.backend.atoms[m.obj.factors[0]].action
                    != inst.backend.atoms[n.obj.factors[0]].action)

            ends = [inst.backend.unit(), m.obj, n.obj]
            pairs = [(x, z) for x in ends for z in ends]
            certify_adapted(fn, m, pairs)
            certify_adapted(fn, n, pairs)
            dst = fn.target
            for x in ends:
                for y in ends:
                    fxm = fn.apply_obj(x.tensor(m.obj))
                    fny = fn.apply_obj(n.obj.tensor(y))
                    lhs = dst.compose(
                        dst.tensor_mor(mult_along(fn, m, x, n.obj),
                                       dst.identity_mor(fny)),
                        mult_along(fn, n, x, y))
                    rhs = dst.compose(
                        dst.tensor_mor(dst.identity_mor(fxm),
                                       mult_along(fn, n, m.obj, y)),
                        mult_along(fn, m, x, y))
                    assert dst.equal_mor(lhs, rhs), (x.label(), y.label())


# ---------------------------------------------------------------------------
# criterion 5: antipode mutations are caught with witnesses


class TestAntipodeMutation:
    @pytest.mark.parametrize("name", ["z3_torsors", "s3_torsors"])
    def test_identity_substitution_fails_the_antipode_law(self, name):
        with criterion(5, f"antipode mutation detection [{name}]"):
            inst = load_instance(corpus_path(name))
            data = build_hopf_category(inst.functor, inst.comonoids)
            assert all_hold(check_hopf_category(data.backend, data))
            mutated = 0
            for key in sorted(data.antipode):
                hom = data.hom[key]
                if data.backend.obj_size(hom) <= 1:
                    continue
                original = data.antipode[key]
                ident = data.backend.identity_mor(hom)
                if original.table == ident.table:
                    continue
                data.antipode[key] = ident
                records = check_hopf_category(data.backend, data)
                bad = [r for r in records
                       if not r.holds and r.rule.startswith("hopfcat.antipode")]
                assert bad, f"mutation at {key} not caught"
                assert any(r.detail for r in bad), "no witness reported"
                data.antipode[key] = original
                mutated += 1
            assert mutated > 0
            assert all_hold(check_hopf_category(data.backend, data))

    def test_z2_antipodes_are_already_identities(self):
        # every arrow is an involution there, so the mutation test has
        # nothing to bite on; record the fact rather than skip silently
        inst = load_instance(corpus_path("z2_torsors"))
        data = build_hopf_category(inst.functor, inst.comonoids)
        for key, f in data.antipode.items():
            ident = data.backend.identity_mor(data.hom[key])
            assert f.table == ident.table


# Which records must fail when one entry of a structure map changes.
MUTATION_CATCHERS = {
    "mult": ("hopfcat.", "comorphism.mult."),
    "unit": ("hopfcat.unit.", "comorphism.unit."),
    "delta": ("comonoid.",),
    "eps": ("comonoid.",),
    "antipode": ("hopfcat.antipode.",),
}


def change_first_entry(backend, f):
    """f with its first entry changed: the next codomain index of a table,
    or +1 on a matrix.  None for a table into a one-point set, which has
    no other index to send anything to."""
    if f.table is not None:
        size = backend.obj_size(f.cod)
        if size <= 1 or not f.table:
            return None
        return MorphismRep(f.dom, f.cod, table=((f.table[0] + 1) % size,) + f.table[1:])
    m = f.matrix
    return MorphismRep(f.dom, f.cod, matrix=Matrix(m.rows, m.cols, m.ring,
                                                  (m.entries[0] + 1,) + m.entries[1:]))


class TestBuildMutation:
    @pytest.mark.parametrize("name", ["z3_torsors", "s3_torsors", "z3_group_algebra"])
    def test_one_changed_entry_fails_a_law_of_its_map(self, name):
        with criterion(5, f"structure map mutation detection [{name}]"):
            inst = load_instance(corpus_path(name))
            data = build_hopf_category(inst.functor, inst.comonoids)
            assert all_hold(check_hopf_category(data.backend, data))
            mutated = 0
            for field_name, catchers in MUTATION_CATCHERS.items():
                maps = getattr(data, field_name)
                for key in sorted(maps):
                    original = maps[key]
                    changed = change_first_entry(data.backend, original)
                    if changed is None:
                        continue
                    maps[key] = changed
                    failed = [r.rule for r in check_hopf_category(data.backend, data)
                              if not r.holds]
                    maps[key] = original
                    assert any(rule.startswith(catchers) for rule in failed), \
                        (field_name, key, failed)
                    mutated += 1
            assert mutated > 0
            assert all_hold(check_hopf_category(data.backend, data))


# ---------------------------------------------------------------------------
# criterion 6: Lie bialgebra axioms, perturbations, twists, roundtrips


def perturbations(lb):
    """Twenty single-constant modifications, each touching exactly one
    structure constant."""
    out = []
    n = lb.dim
    for k in range(n):
        for col in range(n * n):  # 8 bracket slots, bumped by one
            ent = list(lb.bracket.entries)
            ent[k * n * n + col] += 1
            out.append(LieBialgebra(n, Matrix(n, n * n, RATIONAL, tuple(ent)),
                                    lb.cobracket, lb.names))
    for row in range(n * n):
        for i in range(n):  # 8 cobracket slots, bumped by one
            ent = list(lb.cobracket.entries)
            ent[row * n + i] += 1
            out.append(LieBialgebra(n, lb.bracket,
                                    Matrix(n * n, n, RATIONAL, tuple(ent)),
                                    lb.names))
    # 4 more: flip the sign of one nonzero constant (distinct from every
    # +1 bump above), leaving the antisymmetric mirror alone
    for pos in (1 * n * n + 1, 1 * n * n + 2):  # the two [x,y] slots
        ent = list(lb.bracket.entries)
        ent[pos] = -ent[pos]
        out.append(LieBialgebra(n, Matrix(n, n * n, RATIONAL, tuple(ent)),
                                lb.cobracket, lb.names))
    for pos in (1 * n + 1, 2 * n + 1):  # the two cobracket slots of y
        ent = list(lb.cobracket.entries)
        ent[pos] = -ent[pos]
        out.append(LieBialgebra(n, lb.bracket,
                                Matrix(n * n, n, RATIONAL, tuple(ent)),
                                lb.names))
    return out


class TestLieBialgebraSuite:
    def test_axioms_perturbations_twists_roundtrip(self):
        with criterion(6, "Lie bialgebra suite with twenty perturbations"):
            inst = load_instance(corpus_path("b2_twists"))
            lb = inst.lie
            assert all_hold(check_lie_bialgebra(lb))

            mutants = perturbations(lb)
            assert len(mutants) == 20
            for mutant in mutants:
                assert not all_hold(check_lie_bialgebra(mutant))

            assert len(inst.twists) == 3
            coeffs = {j[0, 1] for j in inst.twists}
            assert coeffs == {Fraction(1), Fraction(-2), Fraction(5, 3)}
            mod = inst.modules[0]
            for j in inst.twists:
                lhs, rhs = oracle_twist_sides(lb, j)
                assert lhs == {} and rhs == {}, "oracle expansion must vanish"
                assert all_hold(check_twist(lb, j))

                twisted = twist_bialgebra(lb, j)
                assert all_hold(check_lie_bialgebra(twisted))
                back = twist_bialgebra(twisted, j.scale(-1))
                assert back.cobracket == lb.cobracket

                pi1, ps1 = twist_dy_module(lb, j, mod.pi, mod.pistar)
                assert all_hold(check_dy_module(twisted, pi1, ps1))
                pi0, ps0 = twist_dy_module(twisted, j.scale(-1), pi1, ps1)
                assert pi0 == mod.pi and ps0 == mod.pistar


# ---------------------------------------------------------------------------
# criterion 7: truncated enveloping comonoid and its coaction recursion


class TestTruncatedEnveloping:
    def test_uea_identities_and_comonoid_at_order_four(self):
        with criterion(7, "enveloping truncation at order 4, plain and twisted"):
            started = time.monotonic()
            lb = b2()
            j = qm([[0, 1], [-1, 0]])
            plain = TruncatedUEA(lb, 4)
            twisted = TruncatedUEA(twist_bialgebra(lb, j), 4)

            # comonoid laws inside the truncation, via the word expansion
            eng = plain.engine
            for w in plain.basis:
                dw = eng.coproduct({w: Fraction(1)})
                left, right, first = {}, {}, {}
                for (w1, w2), c in dw.items():
                    for (a, b), c2 in eng.coproduct({w1: Fraction(1)}).items():
                        _acc(left, (a, b, w2), c * c2)
                    for (a, b), c2 in eng.coproduct({w2: Fraction(1)}).items():
                        _acc(right, (w1, a, b), c * c2)
                    if w1 == ():
                        _acc(first, w2, c)
                    assert dw.get((w2, w1)) == c, "coproduct not symmetric"
                assert left == right, "coproduct not coassociative"
                assert first == {w: Fraction(1)}, "counit law fails"

            # twisting leaves the comonoid untouched
            assert uea_delta_images(twisted) == uea_delta_images(plain)
            assert uea_eps_matrix(twisted) == uea_eps_matrix(plain)

            # seeds: the empty word coacts by the twist, nothing else
            for uea, jj in ((plain, None), (twisted, j)):
                seed = uea.engine.coact({(): Fraction(1)}, jj)
                assert set(seed) <= {(a, w) for a in range(2) for w in uea.basis}
                for a in range(2):
                    for k in range(uea.dim):
                        expect = Fraction(0)
                        if jj is not None and len(uea.basis[k]) == 1:
                            expect = jj[a, uea.basis[k][0]]
                        assert seed.get((a, uea.basis[k]), 0) == expect

            # the recursion output satisfies the three identities
            for jj in (None, j):
                records = check_uea_dy_identities(lb, 3, twist=jj)
                assert all_hold(records), failures(records)
            assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# criterion 8: deformed braiding laws and degree-0 reduction


class TestDeformationLayer:
    def test_deformed_braiding_and_builds(self):
        with criterion(8, "deformed braiding symmetry, hexagons, reduction"):
            inst = load_instance(corpus_path("abelian_precartier"))
            pc = inst.deformation["pc"]
            be = inst.backend
            v, w = be.obj("V"), be.obj("W")
            vw = v.tensor(w)

            for order in (1, 2, 3):
                ring = hseries_ring(order)
                lifted = change_ring(be, ring, be.atoms)
                for x, y in ((v, w), (w, v), (v, v), (vw, w)):
                    fwd = deformed_braiding(pc, x, y, order)
                    back = deformed_braiding(pc, y, x, order)
                    n = be.obj_size(x.tensor(y))
                    assert back.matrix * fwd.matrix == Matrix.identity(n, ring)
                for x in (v, w):
                    for y in (v, w):
                        for z in (v, w):
                            lhs = deformed_braiding(pc, x.tensor(y), z, order)
                            rhs = lifted.compose(
                                lifted.tensor_mor(
                                    lifted.identity_mor(x),
                                    deformed_braiding(pc, y, z, order)),
                                lifted.tensor_mor(
                                    deformed_braiding(pc, x, z, order),
                                    lifted.identity_mor(y)))
                            assert lhs.matrix == rhs.matrix
                            lhs2 = deformed_braiding(pc, x, y.tensor(z), order)
                            rhs2 = lifted.compose(
                                lifted.tensor_mor(
                                    deformed_braiding(pc, x, y, order),
                                    lifted.identity_mor(z)),
                                lifted.tensor_mor(
                                    lifted.identity_mor(y),
                                    deformed_braiding(pc, x, z, order)))
                            assert lhs2.matrix == rhs2.matrix

            plain = build_hopf_category(inst.functor, inst.comonoids)
            ring = hseries_ring(2)
            zero_t = build_deformed_hopf_category(
                plain, inst.functor, inst.comonoids, 2, None)
            for key, f in zero_t.mult.items():
                assert f.matrix == lift_matrix(plain.mult[key].matrix, ring)
            for key, f in zero_t.delta.items():
                assert f.matrix == lift_matrix(plain.delta[key].matrix, ring)
            for key, f in zero_t.antipode.items():
                assert f.matrix == lift_matrix(plain.antipode[key].matrix, ring)

            deformed = build_deformed_hopf_category(
                plain, inst.functor, inst.comonoids, 2, pc,
                convention=inst.deformation["convention"])
            assert all_hold(check_hopf_category(deformed.backend, deformed))
            assert hopf_data_equal(reduce_order0(deformed), plain)


# ---------------------------------------------------------------------------
# criterion 9: the whole shipped corpus, deterministically, in budget


class TestWholeCorpus:
    def test_verify_everything_fast_and_deterministic(self):
        with criterion(9, "whole-corpus verify run"):
            started = time.monotonic()
            first = {}
            for name in CORPUS_NAMES:
                report, code = run_verify(corpus_path(name))
                assert code == 0, (name,
                                   [r for r in report["checks"] if not r["holds"]])
                assert report["verdict"] == "pass"
                report.pop("timing")
                first[name] = json.dumps(report, sort_keys=True)
            elapsed = time.monotonic() - started
            assert elapsed < 30.0, f"corpus run took {elapsed:.1f}s"
            for name in CORPUS_NAMES:
                report, code = run_verify(corpus_path(name))
                assert code == 0
                report.pop("timing")
                assert json.dumps(report, sort_keys=True) == first[name]


# ---------------------------------------------------------------------------
# criterion 10: a group algebra at scale, in budget


class TestGroupAlgebraAtScale:
    def test_z8_group_algebra_verifies_in_budget(self, tmp_path):
        with criterion(10, "z8 group algebra verify"):
            path = tmp_path / "z8_group_algebra.json"
            path.write_text(dump_document(_group_algebra_doc("z8_group_algebra", 8)))
            started = time.monotonic()
            report, code = run_verify(str(path))
            elapsed = time.monotonic() - started
            assert code == 0, [r for r in report["checks"] if not r["holds"]]
            assert report["verdict"] == "pass"
            assert elapsed < 5.0, f"z8 verify took {elapsed:.1f}s"
