import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bijection_groupoid,
    brute_force_assoc_records,
    brute_force_groupoid_records,
    equivariant_bijections,
    torsor_backend,
)
from hopfcat import corpus
from hopfcat.backends import (
    Atom,
    MorphismRep,
    _arrow_generators,
    cyclic_group,
    finset_backend,
    group_from_generators,
    group_to_json,
    linear_backend,
    regular_atom,
    symmetric_group,
    trivial_group,
)
from hopfcat.coalg import (
    HopfMonoidData,
    LawRecord,
    all_hold,
    check_hopf_monoid,
    diagonal_comonoid,
    failures,
    group_algebra_hopf,
)
from hopfcat.cofunctor import NotAdapted, OrbitFunctor
from hopfcat.hopfcategory import (
    GroupoidTable,
    HopfCategoryData,
    NotCocommutative,
    build_hopf_category,
    build_hopf_monoid,
    check_hopf_category,
    extract_set_groupoid,
    require_cocommutative,
    verify_groupoid,
)
from hopfcat.instances import load_instance, parse_instance
from hopfcat.linalg import Matrix
from hopfcat.scalars import RATIONAL, replace


def torsor_category(group, names=("S", "T")):
    b = torsor_backend(group, names)
    fn = OrbitFunctor(b)
    comonoids = [diagonal_comonoid(b, b.obj(n)) for n in names]
    return b, fn, build_hopf_category(fn, comonoids)


class TestTorsorCategories:
    @pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                             ids=["z2", "z3", "s3"])
    def test_all_laws(self, group):
        b, fn, data = torsor_category(group)
        recs = check_hopf_category(fn.target, data)
        assert all_hold(recs), failures(recs)

    @pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                             ids=["z2", "z3", "s3"])
    def test_groupoid_extraction(self, group):
        b, fn, data = torsor_category(group)
        gt, recs = extract_set_groupoid(fn.target, data)
        assert all_hold(recs), failures(recs)
        assert all(size == group.order for size in gt.hom_size.values())

    def test_hom_sizes(self):
        b, fn, data = torsor_category(symmetric_group(3))
        assert fn.target.obj_size(data.hom[(0, 1)]) == 6


class TestGroupRecovery:
    @pytest.mark.parametrize("group", [cyclic_group(3), symmetric_group(3)],
                             ids=["z3", "s3"])
    def test_single_torsor_recovers_group_table(self, group):
        """One regular torsor: orbit labels of pairs are group elements,
        and the built multiplication is exactly the group law."""
        b = torsor_backend(group, ("S",))
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        data = build_hopf_category(fn, [m])
        ss = b.obj("S", "S")
        reps, orbit_of = fn.orbit_info(ss)
        n = group.order
        # label -> group element read off the representative (e, s)
        elem = {lab: rep % n for lab, rep in enumerate(reps)}
        assert all(rep // n == 0 for rep in reps)
        comp = data.mult[(0, 0, 0)].table
        w = len(reps)
        for l1 in range(w):
            for l2 in range(w):
                assert elem[comp[l1 * w + l2]] == group.mul(elem[l1], elem[l2])
        # identity is the class of the diagonal, inverse is group inverse
        assert elem[data.unit[0].table[0]] == 0
        for l1 in range(w):
            assert elem[data.antipode[(0, 0)].table[l1]] == group.inv(elem[l1])


class TestBijectionOracle:
    @pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                             ids=["z2", "z3", "s3"])
    def test_matches_equivariant_bijections(self, group):
        """The built groupoid is isomorphic to the groupoid of equivariant
        bijections via: orbit of (a, b) -> the unique bijection a -> b."""
        names = ("S", "T")
        b, fn, data = torsor_category(group, names)
        gt, recs = extract_set_groupoid(fn.target, data)
        assert all_hold(recs)
        oracle = bijection_groupoid(b, names)
        assert gt.hom_size == oracle["hom_size"]

        # the matching, one hom at a time
        match = {}
        n = group.order
        for i in range(2):
            for j in range(2):
                xy = b.obj(names[i]).tensor(b.obj(names[j]))
                reps, orbit_of = fn.orbit_info(xy)
                arrows = oracle["arrows"][(i, j)]
                phi = []
                for rep in reps:
                    a, c = rep // n, rep % n
                    hits = [t for t, arr in enumerate(arrows) if arr[a] == c]
                    assert len(hits) == 1, "matching must be unique"
                    phi.append(hits[0])
                assert sorted(phi) == list(range(len(arrows))), "matching must be onto"
                match[(i, j)] = phi

        for i in range(2):
            for j in range(2):
                for k in range(2):
                    ours = gt.comp[(i, j, k)]
                    theirs = oracle["comp"][(i, j, k)]
                    w = gt.hom_size[(j, k)]
                    wo = oracle["hom_size"][(j, k)]
                    for a in range(gt.hom_size[(i, j)]):
                        for c in range(w):
                            lhs = match[(i, k)][ours[a * w + c]]
                            rhs = theirs[match[(i, j)][a] * wo + match[(j, k)][c]]
                            assert lhs == rhs
        for i in range(2):
            assert match[(i, i)][gt.identity[i]] == oracle["identity"][i]
        for i in range(2):
            for j in range(2):
                for a in range(gt.hom_size[(i, j)]):
                    assert (match[(j, i)][gt.inverse[(i, j)][a]]
                            == oracle["inverse"][(i, j)][match[(i, j)][a]])

    def test_oracle_counts(self):
        g = symmetric_group(3)
        b = torsor_backend(g)
        assert len(equivariant_bijections(b, b.obj("S"), b.obj("T"))) == 6


class TestHopfMonoid:
    def test_z3_monoid_laws(self):
        g = cyclic_group(3)
        b = torsor_backend(g, ("S",))
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        h = build_hopf_monoid(fn, m)
        recs = check_hopf_monoid(fn.target, h)
        assert all_hold(recs), failures(recs)

    @pytest.mark.parametrize("group", [cyclic_group(3), symmetric_group(3)],
                             ids=["z3", "s3"])
    def test_identity_antipode_detected(self, group):
        b = torsor_backend(group, ("S",))
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        h = build_hopf_monoid(fn, m)
        mutated = HopfMonoidData(h.obj, h.mult, h.unit, h.delta, h.eps,
                                 fn.target.identity_mor(h.obj), h.name)
        recs = check_hopf_monoid(fn.target, mutated)
        bad = {r.rule for r in failures(recs)}
        assert "hopf.antipode.left" in bad
        recs = check_hopf_category(fn.target, as_category(fn.target, mutated))
        assert "hopfcat.antipode.left" in {r.rule for r in failures(recs)}

    def test_z2_identity_antipode_invisible(self):
        # all classes are involutions, so this mutation cannot be caught
        g = cyclic_group(2)
        b = torsor_backend(g, ("S",))
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"))
        h = build_hopf_monoid(fn, m)
        mutated = HopfMonoidData(h.obj, h.mult, h.unit, h.delta, h.eps,
                                 fn.target.identity_mor(h.obj), h.name)
        assert all_hold(check_hopf_monoid(fn.target, mutated))


class TestGuards:
    def test_non_cocommutative_rejected(self):
        g = cyclic_group(1)
        b = linear_backend(g, [Atom("K", 2, (Matrix.identity(2, RATIONAL),))])
        k = b.obj("K")
        # a splitting that is visibly asymmetric (validity as a comonoid
        # is irrelevant to this guard)
        delta = b.mor_from_matrix(k, k.tensor(k), Matrix.from_rows(
            RATIONAL, [[0, 0], [1, 0], [0, 0], [0, 1]]))
        eps = b.mor_from_matrix(k, b.unit(), Matrix.from_rows(RATIONAL, [[1, 1]]))
        from hopfcat.coalg import Comonoid
        bad = Comonoid(k, delta, eps, "bad")
        with pytest.raises(NotCocommutative):
            require_cocommutative(b, [bad])

    def test_non_free_action_not_adapted(self):
        g = cyclic_group(2)
        b = finset_backend(g, [Atom("P", 2, ((0, 1), (0, 1)))])
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("P"))
        with pytest.raises(NotAdapted):
            build_hopf_category(fn, [m])


class TestGroupoidVerifier:
    def test_broken_table_detected(self):
        # a two-object "groupoid" with a wrong composite
        gt = GroupoidTable(
            labels=("a", "b"),
            hom_size={(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1},
            comp={(i, j, k): (0,) for i in range(2) for j in range(2) for k in range(2)},
            identity={0: 0, 1: 0},
            inverse={(i, j): (0,) for i in range(2) for j in range(2)},
        )
        assert all_hold(verify_groupoid(gt))
        bad = GroupoidTable(
            labels=("a",),
            hom_size={(0, 0): 2},
            comp={(0, 0, 0): (1, 1, 1, 1)},
            identity={0: 0},
            inverse={(0, 0): (0, 1)},
        )
        recs = verify_groupoid(bad)
        assert not all_hold(recs)


# ---------------------------------------------------------------------------
# Light's associativity test against the brute-force checker

# (degree, permutation generators) of every group of order 1 to 6
SMALL_GROUPS = [(1, [(0,)]), (2, [(1, 0)]), (3, [(1, 2, 0)]), (4, [(1, 2, 3, 0)]),
                (4, [(1, 0, 3, 2), (2, 3, 0, 1)]), (5, [(1, 2, 3, 4, 0)]),
                (5, [(1, 0, 3, 4, 2)]), (3, [(1, 0, 2), (1, 2, 0)])]


@st.composite
def groupoid_tables(draw):
    """A GroupoidTable on 1 to 3 objects: a connected groupoid over a group
    of order 1 to 6 with its arrows relabelled hom by hom, the same with
    one or two entries changed, or an arbitrary magma table with homs of
    1 to 6 arrows."""
    n = draw(st.integers(1, 3))
    rng = range(n)
    kind = draw(st.sampled_from(["groupoid", "mutated", "magma"]))
    labels = tuple("abc"[:n])
    if kind == "magma":
        hs = {(i, j): draw(st.integers(1, 6)) for i in rng for j in rng}
        return GroupoidTable(
            labels, hs,
            comp={(i, j, k): tuple(draw(st.lists(
                st.integers(0, hs[(i, k)] - 1),
                min_size=hs[(i, j)] * hs[(j, k)], max_size=hs[(i, j)] * hs[(j, k)])))
                for i in rng for j in rng for k in rng},
            identity={i: draw(st.integers(0, hs[(i, i)] - 1)) for i in rng},
            inverse={(i, j): tuple(draw(st.lists(
                st.integers(0, hs[(j, i)] - 1), min_size=hs[(i, j)], max_size=hs[(i, j)])))
                for i in rng for j in rng})
    g = group_from_generators(*draw(st.sampled_from(SMALL_GROUPS)))
    h = g.order
    elem = {(i, j): draw(st.permutations(range(h))) for i in rng for j in rng}
    label = {key: {x: a for a, x in enumerate(perm)} for key, perm in elem.items()}
    gt = GroupoidTable(
        labels, {(i, j): h for i in rng for j in rng},
        comp={(i, j, k): tuple(label[(i, k)][g.mul(elem[(i, j)][a], elem[(j, k)][b])]
                               for a in range(h) for b in range(h))
              for i in rng for j in rng for k in rng},
        identity={i: label[(i, i)][0] for i in rng},
        inverse={(i, j): tuple(label[(j, i)][g.inv(x)] for x in elem[(i, j)])
                 for i in rng for j in rng})
    if kind == "mutated":
        for _ in range(draw(st.integers(1, 2))):
            field = draw(st.sampled_from(["comp", "comp", "identity", "inverse"]))
            table = dict(getattr(gt, field))
            key = draw(st.sampled_from(sorted(table)))
            value = draw(st.integers(0, h - 1))
            if field == "identity":
                table[key] = value
            else:
                pos = draw(st.integers(0, len(table[key]) - 1))
                table[key] = table[key][:pos] + (value,) + table[key][pos + 1:]
            gt = replace(gt, **{field: table})
    return gt


def compose(gt, i, j, k, a, b):
    return gt.comp[(i, j, k)][a * gt.hom_size[(j, k)] + b]


def assert_witness(gt, rec):
    """The failing record's detail names a place where the law really
    fails, with the composites that are really there."""
    nums = [int(v) for v in re.findall(r"-?\d+", rec.detail.replace("^-1", ""))]
    if rec.rule == "groupoid.assoc":
        lhs, rhs, i, j, k, l, x, s, y = nums
        assert lhs == compose(gt, i, k, l, compose(gt, i, j, k, x, s), y)
        assert rhs == compose(gt, i, j, l, x, compose(gt, j, k, l, s, y))
        assert lhs != rhs
    elif rec.rule == "groupoid.identity":
        value, i, j, a = nums
        if rec.detail.startswith("e*a"):
            assert value == compose(gt, i, i, j, gt.identity[i], a)
        else:
            assert value == compose(gt, i, j, j, a, gt.identity[j])
        assert value != a
    else:
        ab, ba, i, j, a = nums
        b = gt.inverse[(i, j)][a]
        assert (ab, ba) == (compose(gt, i, j, i, a, b), compose(gt, j, i, j, b, a))
        assert (ab, ba) != (gt.identity[i], gt.identity[j])


def verdicts(records):
    return [(r.rule, r.holds) for r in records]


def groupoid_of(inst):
    data = build_hopf_category(inst.functor, inst.comonoids)
    return extract_set_groupoid(inst.functor.target, data)


def corpus_groupoid(name):
    return groupoid_of(load_instance(corpus.corpus_path(name)))[0]


def one_entry_changes(gt, new_values):
    """Each table with one comp entry changed, for every entry and every
    value new_values(old, size) offers."""
    for key in sorted(gt.comp):
        size = gt.hom_size[(key[0], key[2])]
        for pos, old in enumerate(gt.comp[key]):
            for value in new_values(old, size):
                row = gt.comp[key][:pos] + (value,) + gt.comp[key][pos + 1:]
                yield replace(gt, comp={**gt.comp, key: row})


@lru_cache(maxsize=None)
def ladder_groupoid(name):
    """The groupoid of the benchmark's set-ladder torsor documents."""
    rotation, reflection = (1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)
    d8 = group_from_generators(8, [rotation, reflection])
    group_doc, group = {
        "z8_torsors": ({"kind": "cyclic", "n": 8}, cyclic_group(8)),
        "d8_torsors": (group_to_json(d8), d8),
        "s4_torsors": ({"kind": "symmetric", "n": 4}, symmetric_group(4)),
    }[name]
    return groupoid_of(parse_instance(corpus._torsor_doc(name, group_doc, group)))


class TestLightsTest:
    @settings(max_examples=150, deadline=None)
    @given(groupoid_tables())
    def test_verdicts_match_brute_force(self, gt):
        records = verify_groupoid(gt)
        assert verdicts(records) == verdicts(brute_force_groupoid_records(gt))
        for rec in records:
            if rec.holds:
                assert rec.detail == ""
            else:
                assert_witness(gt, rec)

    def test_every_z3_entry_change_is_caught(self):
        gt = corpus_groupoid("z3_torsors")
        changes = list(one_entry_changes(
            gt, lambda old, size: [v for v in range(size) if v != old]))
        assert len(changes) == 144
        for bad in changes:
            records = verify_groupoid(bad)
            assert not all_hold(records)
            assert verdicts(records) == verdicts(brute_force_groupoid_records(bad))

    def test_every_s3_entry_change_is_caught(self):
        gt = corpus_groupoid("s3_torsors")
        changes = list(one_entry_changes(gt, lambda old, size: [(old + 1) % size]))
        assert len(changes) == 288
        for n, bad in enumerate(changes):
            records = verify_groupoid(bad)
            assert not all_hold(records)
            for rec in failures(records):
                assert_witness(bad, rec)
            if n % 10 == 0:
                assert verdicts(records) == verdicts(brute_force_groupoid_records(bad))

    @pytest.mark.parametrize("name, size", [("z8_torsors", 4), ("d8_torsors", 5),
                                            ("s4_torsors", 6)])
    def test_generating_set_size(self, name, size):
        gt, records = ladder_groupoid(name)
        assert all_hold(records), failures(records)
        assert len(_arrow_generators(len(gt.labels), gt.hom_size, gt.comp)) == size

    def test_s4_records_match_brute_force(self):
        gt, records = ladder_groupoid("s4_torsors")
        assert set(gt.hom_size.values()) == {24}
        assert records[1:] == brute_force_groupoid_records(gt)

    def test_diagonal_splitting_names_its_hom(self):
        b, fn, data = torsor_category(cyclic_group(3))
        delta = data.delta[(1, 0)]
        data.delta[(1, 0)] = replace(delta, table=tuple(reversed(delta.table)))
        _, records = extract_set_groupoid(fn.target, data)
        assert records[0] == LawRecord("groupoid.diagonal_splitting", False, "at 1,0")


# ---------------------------------------------------------------------------
# Light's test for hopfcat.assoc / hopf.assoc against the point-by-point oracle


def structure_of(gt):
    """gt as a finset Hopf category over the trivial group: hom (i, j) an
    atom of hom_size[(i, j)] points with its diagonal comonoid, mult the
    composition tables, units the identities and antipodes the inverses."""
    rng = range(len(gt.labels))
    hs = gt.hom_size
    b = finset_backend(trivial_group(), [
        Atom(f"H{i}{j}", hs[(i, j)], (tuple(range(hs[(i, j)])),)) for i in rng for j in rng])
    data = HopfCategoryData(gt.labels, b)
    for i in rng:
        for j in rng:
            c = diagonal_comonoid(b, b.obj(f"H{i}{j}"))
            data.hom[(i, j)], data.delta[(i, j)], data.eps[(i, j)] = c.obj, c.delta, c.eps
            data.antipode[(i, j)] = MorphismRep(c.obj, b.obj(f"H{j}{i}"),
                                                table=gt.inverse[(i, j)])
        data.unit[i] = MorphismRep(b.unit(), data.hom[(i, i)], table=(gt.identity[i],))
    for (i, j, k), table in gt.comp.items():
        data.mult[(i, j, k)] = MorphismRep(data.hom[(i, j)].tensor(data.hom[(j, k)]),
                                           data.hom[(i, k)], table=table)
    return b, data


@lru_cache(maxsize=None)
def torsor_structure(group_name, names):
    group = {"z2": cyclic_group(2), "z3": cyclic_group(3), "s3": symmetric_group(3)}[group_name]
    _, fn, data = torsor_category(group, names)
    return fn.target, data


def with_entry(f, pos, value):
    return replace(f, table=f.table[:pos] + (value,) + f.table[pos + 1:])


@st.composite
def finset_structures(draw):
    """(backend, data): a torsor Hopf category over Z2, Z3 or S3 on one to
    three torsors, or a groupoid_tables table as a structure; then zero to
    two mult entries set to a value in range, below it or past it."""
    if draw(st.booleans()):
        names = ("S", "T", "U")[:draw(st.integers(1, 3))]
        backend, data = torsor_structure(draw(st.sampled_from(["z2", "z3", "s3"])), names)
    else:
        backend, data = structure_of(draw(groupoid_tables()))
    data = replace(data, mult=dict(data.mult))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(data.mult)))
        f = data.mult[key]
        size = backend.obj_size(f.cod)
        value = draw(st.one_of(st.integers(0, size - 1), st.integers(-size, -1),
                               st.integers(size, size + 1)))
        pos = draw(st.integers(0, len(f.table) - 1))
        data.mult[key] = with_entry(f, pos, value)
    return backend, data


def oracle_assoc(backend, data, rule="hopfcat.assoc", positions=True):
    hs = {key: backend.obj_size(obj) for key, obj in data.hom.items()}
    comp = {key: f.table for key, f in data.mult.items()}
    return brute_force_assoc_records(rule, hs, comp, data.size(), positions)


def as_monoid(data):
    return HopfMonoidData(data.hom[(0, 0)], data.mult[(0, 0, 0)], data.unit[0],
                          data.delta[(0, 0)], data.eps[(0, 0)], data.antipode[(0, 0)])


class TestAssocByLight:
    @settings(max_examples=150, deadline=None)
    @given(finset_structures())
    def test_records_match_point_by_point(self, case):
        """Every hopfcat.assoc record, and hopf.assoc on one object, equals
        the point-by-point comparison, witness included.  A mult value
        outside its codomain, below it or past it, gives one failing shape
        record instead, naming the first such value."""
        backend, data = case
        outside = [(key, p, v, backend.obj_size(f.cod)) for key, f in sorted(data.mult.items())
                   for p, v in enumerate(f.table) if not 0 <= v < backend.obj_size(f.cod)]
        if outside:
            key, p, v, size = outside[0]
            detail = f"sends {p} to {v}, outside range({size})"
            assert check_hopf_category(backend, data) == [LawRecord(
                "hopfcat.shape", False, f"mult[{','.join(map(str, key))}] {detail}")]
            if data.size() == 1:
                assert check_hopf_monoid(backend, as_monoid(data)) == [
                    LawRecord("hopf.shape", False, f"mult {detail}")]
            return
        records = check_hopf_category(backend, data)
        assert [r for r in records if r.rule == "hopfcat.assoc"] == oracle_assoc(backend, data)
        if data.size() == 1:
            records = check_hopf_monoid(backend, as_monoid(data))
            assert ([r for r in records if r.rule == "hopf.assoc"]
                    == oracle_assoc(backend, data, "hopf.assoc", positions=False))

    def test_fault_outside_the_generating_set_is_caught(self):
        """One changed product s*y, with s outside the generating set of
        the changed tables, so that Light's test reaches s only through
        the closure, still fails hopfcat.assoc."""
        backend, data = torsor_structure("s3", ("S", "T"))
        hs = {key: backend.obj_size(obj) for key, obj in data.hom.items()}
        comp = {key: f.table for key, f in data.mult.items()}
        gens = set(_arrow_generators(2, hs, comp))
        j, k, s = next((j, k, s) for j in range(2) for k in range(2)
                       for s in range(hs[(j, k)]) if (j, k, s) not in gens)
        for l, y in ((l, y) for l in range(2) for y in range(hs[(k, l)])):
            pos = s * hs[(k, l)] + y
            row = comp[(j, k, l)]
            bad = {**comp, (j, k, l): row[:pos] + ((row[pos] + 1) % hs[(j, l)],) + row[pos + 1:]}
            if (j, k, s) not in _arrow_generators(2, hs, bad):
                break
        else:
            pytest.fail("every change makes s a generator")
        f = data.mult[(j, k, l)]
        broken = replace(data, mult={**data.mult, (j, k, l): replace(f, table=bad[(j, k, l)])})
        records = [r for r in check_hopf_category(backend, broken) if r.rule == "hopfcat.assoc"]
        assert not all_hold(records)
        assert records == oracle_assoc(backend, broken)

    def test_witness_names_x_s_y(self):
        """x*y = 1 - x on two points: (x*s)*y = x but x*(s*y) = 1 - x."""
        b = finset_backend(trivial_group(), [Atom("P", 2, ((0, 1),))])
        p = b.obj("P")
        c = diagonal_comonoid(b, p)
        h = HopfMonoidData(p, b.mor_from_table(p.tensor(p), p, (1, 1, 0, 0)),
                           b.mor_from_table(b.unit(), p, (0,)), c.delta, c.eps,
                           b.identity_mor(p))
        rec = next(r for r in check_hopf_monoid(b, h) if r.rule == "hopf.assoc")
        assert rec == LawRecord("hopf.assoc", False,
                                "(x*s)*y = 0, x*(s*y) = 1 with x=0, s=0, y=0")


class TestShape:
    """A malformed or missing map gives one failing shape record and no
    other record, where indexing by its values used to raise IndexError."""

    @pytest.mark.parametrize("field, key, name", [
        ("mult", (0, 1, 0), "mult[0,1,0]"), ("unit", 1, "unit[1]"),
        ("delta", (1, 0), "delta[1,0]"), ("eps", (1, 1), "eps[1,1]"),
        ("antipode", (0, 1), "antipode[0,1]")])
    def test_value_past_the_codomain(self, field, key, name):
        backend, data = torsor_structure("z3", ("S", "T"))
        maps = dict(getattr(data, field))
        f = maps[key]
        size = backend.obj_size(f.cod)
        pos = len(f.table) - 1
        maps[key] = with_entry(f, pos, size)
        assert check_hopf_category(backend, replace(data, **{field: maps})) == [LawRecord(
            "hopfcat.shape", False, f"{name} sends {pos} to {size}, outside range({size})")]

    def test_table_length_and_endpoints(self):
        backend, data = torsor_structure("z3", ("S", "T"))
        f = data.mult[(0, 1, 0)]
        short = replace(data, mult={**data.mult, (0, 1, 0): replace(f, table=f.table[:-1])})
        assert check_hopf_category(backend, short) == [
            LawRecord("hopfcat.shape", False, "mult[0,1,0] has 8 entries, not 9")]
        g = data.antipode[(0, 1)]
        moved = replace(data, antipode={**data.antipode, (0, 1): replace(g, cod=g.dom)})
        dom, cod = g.dom.label(), g.cod.label()
        assert dom != cod
        assert check_hopf_category(backend, moved) == [LawRecord(
            "hopfcat.shape", False, f"antipode[0,1] is {dom} -> {dom}, not {dom} -> {cod}")]

    @pytest.mark.parametrize("field, key, name", [
        ("mult", (1, 0, 1), "mult[1,0,1]"), ("unit", 0, "unit[0]"),
        ("delta", (0, 1), "delta[0,1]"), ("eps", (1, 0), "eps[1,0]"),
        ("antipode", (1, 1), "antipode[1,1]"), ("hom", (1, 0), "hom[1,0]")])
    def test_missing_map(self, field, key, name):
        """A dropped key is reported, where indexing by it raised KeyError."""
        backend, data = torsor_structure("z3", ("S", "T"))
        maps = dict(getattr(data, field))
        del maps[key]
        assert check_hopf_category(backend, replace(data, **{field: maps})) == [
            LawRecord("hopfcat.shape", False, f"{name} is missing")]

    @pytest.mark.parametrize("field", ["mult", "unit", "delta", "eps", "antipode"])
    def test_monoid_value_past_the_codomain(self, field):
        backend, data = torsor_structure("z3", ("S",))
        h = as_monoid(data)
        f = getattr(h, field)
        size = backend.obj_size(f.cod)
        bad = replace(h, **{field: with_entry(f, 0, size)})
        assert check_hopf_monoid(backend, bad) == [LawRecord(
            "hopf.shape", False, f"{field} sends 0 to {size}, outside range({size})")]


# ---------------------------------------------------------------------------
# one law suite: a Hopf monoid is checked as the one-object Hopf category


def as_category(backend, h):
    """h as the one-object HopfCategoryData."""
    return HopfCategoryData((h.name,), backend, {(0, 0): h.obj}, {(0, 0, 0): h.mult},
                            {0: h.unit}, {(0, 0): h.delta}, {(0, 0): h.eps},
                            {(0, 0): h.antipode})


def assert_one_suite(backend, h, category_records):
    """check_hopf_monoid(h) gives the one-object category's records with
    hopfcat. read as hopf., positions dropped and involutivity left out,
    then the three equivariance records; returns its records."""
    records = check_hopf_monoid(backend, h)
    shared = [LawRecord(re.sub(r"^hopfcat\.", "hopf.", r.rule), r.holds,
                        re.sub(r" ?at [\d,]+$", "", r.detail))
              for r in category_records if r.rule != "hopfcat.antipode.involutive"]
    assert records[:-3] == shared
    assert [r.rule for r in records[-3:]] == [
        "hopf.equivariant.mult", "hopf.equivariant.unit", "hopf.equivariant.antipode"]
    return records


def z3_algebra():
    b = linear_backend(cyclic_group(1), [Atom("K", 3, (Matrix.identity(3, RATIONAL),))])
    return b, group_algebra_hopf(b, b.obj("K"), cyclic_group(3))


def scaled(f):
    return replace(f, matrix=f.matrix.scale(2))


class TestOneLawSuite:
    @pytest.mark.parametrize("name", [n for n in corpus.CORPUS_NAMES
                                      if "functor" in corpus.load_corpus_document(n)])
    def test_hopf_monoid_build_is_the_one_object_category(self, name):
        inst = load_instance(corpus.corpus_path(name))
        target = inst.functor.target
        data = build_hopf_category(inst.functor, inst.comonoids[:1])
        h = build_hopf_monoid(inst.functor, inst.comonoids[0])
        records = assert_one_suite(target, h, check_hopf_category(target, data))
        assert all_hold(records), failures(records)

    @pytest.mark.parametrize("kind, field, fault, rules", [
        ("sets", "mult", lambda f: with_entry(f, 4, (f.table[4] + 1) % 3), ["assoc"]),
        ("sets", "unit", lambda f: with_entry(f, 0, 1), ["unit.left", "unit.right"]),
        ("sets", "delta", lambda f: with_entry(f, 1, 6),
         ["comonoid.coassoc", "comonoid.counit.left", "comonoid.counit.right"]),
        ("sets", "antipode", lambda f: with_entry(f, 1, 0),
         ["antipode.left", "antipode.right"]),
        ("linear", "mult", scaled, ["comorphism.mult.split", "comorphism.mult.counit"]),
        ("linear", "unit", scaled, ["comorphism.unit.split", "comorphism.unit.counit"]),
    ], ids=["assoc", "unit", "comonoid", "antipode", "comorphism-mult", "comorphism-unit"])
    def test_planted_fault_fails_both_suites(self, kind, field, fault, rules):
        """One changed map of a one-object structure fails the matching
        shared laws in check_hopf_monoid and in check_hopf_category."""
        if kind == "sets":
            backend, data = torsor_structure("z3", ("S",))
            h = as_monoid(data)
        else:
            backend, h = z3_algebra()
        assert all_hold(check_hopf_monoid(backend, h))
        bad = replace(h, **{field: fault(getattr(h, field))})
        category = check_hopf_category(backend, as_category(backend, bad))
        failing = {r.rule for r in failures(assert_one_suite(backend, bad, category))}
        own = [rule if rule.startswith("com") else f"hopf.{rule}" for rule in rules]
        assert set(own) <= failing
        failing = {r.rule for r in failures(category)}
        own = [rule if rule.startswith("com") else f"hopfcat.{rule}" for rule in rules]
        assert set(own) <= failing
