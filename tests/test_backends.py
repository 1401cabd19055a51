import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcat.backends import (
    Atom,
    Backend,
    BackendError,
    GroupTable,
    MorphismRep,
    ObjectRef,
    _flip,
    check_braiding_coherence,
    check_dy_tensor_closure,
    cyclic_group,
    dy_backend,
    finset_backend,
    group_from_generators,
    linear_backend,
    regular_atom,
    regular_linear_atom,
    symmetric_group,
)
from hopfcat.coalg import diagonal_comonoid
from hopfcat.cofunctor import OrbitFunctor, certify_adapted
from hopfcat.linalg import Matrix, mat_kron
from hopfcat.scalars import RATIONAL, replace

from conftest import (
    coords_of,
    coset_atom,
    dihedral_group,
    gset_backend,
    index_of,
    naive_equivariance_failures,
    subgroup_closure,
    unmemoized_braiding_failures,
    validate_action_by_pairs,
    validate_group_by_triples,
)


class TestGroups:
    def test_cyclic(self):
        g = cyclic_group(3)
        assert g.order == 3
        assert g.mul(1, 2) == 0
        assert g.inv(1) == 2

    def test_symmetric_composition_order(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        # identity permutation sorts first
        assert s3.names[0] == "012"
        # (g*h)(i) = g[h[i]]: check on two transpositions
        swap01 = s3.names.index("102")
        swap12 = s3.names.index("021")
        prod = s3.mul(swap01, swap12)
        # apply swap12 first: 0->0->1, 1->2->2, 2->1->0, giving the 3-cycle 120
        assert s3.names[prod] == "120"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric_group_matches_all_permutations(self, n):
        perms = sorted(itertools.permutations(range(n)))
        pos = {p: i for i, p in enumerate(perms)}
        group = symmetric_group(n)
        assert group.table == tuple(
            tuple(pos[tuple(g[h[i]] for i in range(n))] for h in perms) for g in perms)
        assert group.names == tuple("".join(map(str, p)) for p in perms)

    def test_symmetric_nonabelian(self):
        s3 = symmetric_group(3)
        a = s3.names.index("102")
        b = s3.names.index("021")
        assert s3.mul(a, b) != s3.mul(b, a)

    def test_from_generators_recovers_s3(self):
        g = group_from_generators(3, [(1, 0, 2), (0, 2, 1)])
        assert g.order == 6

    def test_from_generators_subgroup(self):
        g = group_from_generators(3, [(1, 2, 0)])
        assert g.order == 3

    def test_bad_table_rejected(self):
        with pytest.raises(BackendError):
            GroupTable(((0, 1), (0, 1)))

    @pytest.mark.parametrize(
        "group",
        [cyclic_group(n) for n in range(1, 9)]
        + [symmetric_group(3), symmetric_group(4), dihedral_group()],
        ids=[f"z{n}" for n in range(1, 9)] + ["s3", "s4", "d4"])
    def test_generators_are_greedy_and_generate(self, group):
        gens = group.generators
        for k, g in enumerate(gens):
            assert g == min(set(group.elements()) - subgroup_closure(group, gens[:k]))
        assert subgroup_closure(group, gens) == set(group.elements())

    def test_generators_of_named_groups(self):
        assert cyclic_group(1).generators == ()
        assert cyclic_group(8).generators == (1,)
        assert symmetric_group(4).generators == (1, 2, 6)
        assert dihedral_group().generators == (1, 2)


def z2_finset():
    g = cyclic_group(2)
    return finset_backend(g, [regular_atom("S", g)])


def rejection(check, *args):
    """The message check(*args) raises as a BackendError, or None."""
    try:
        check(*args)
    except BackendError as exc:
        return str(exc)
    return None


def random_loop(rnd, n):
    """A Latin square of order n with identity 0, filled row by row by
    backtracking over shuffled candidates."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        for v in rnd.sample(range(n), n):
            if v not in used:
                table[i][j] = v
                if fill(c + 1):
                    return True
        table[i][j] = None
        return False

    assert fill(0)
    return tuple(map(tuple, table))


SMALL_GROUPS = [cyclic_group(n) for n in range(1, 8)] + [
    symmetric_group(3), group_from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)])]


@st.composite
def loop_tables(draw):
    """Latin squares with identity 0 of orders 1 to 7: either drawn at
    random, which at orders 5 to 7 gives mostly non-associative loops, or
    a group table with its elements relabelled.  A relabelling may move
    the identity off 0, and one entry may then be changed, so that every
    message of validate_group comes up."""
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        table = random_loop(rnd, draw(st.integers(1, 7)))
    else:
        table = draw(st.sampled_from(SMALL_GROUPS)).table
        n = len(table)
        perm = draw(st.permutations(range(n)))
        if draw(st.integers(0, 3)):
            perm = [0] + [p for p in perm if p]
        back = {p: g for g, p in enumerate(perm)}
        table = tuple(tuple(perm[table[back[a]][back[b]]] for b in range(n))
                      for a in range(n))
    if draw(st.integers(0, 4)) == 0:
        i, j, v = (draw(st.integers(0, len(table) - 1)) for _ in range(3))
        table = tuple(row if r != i else row[:j] + (v,) + row[j + 1:]
                      for r, row in enumerate(table))
    return table


# a loop that is not a group, of order 5, the least order where one exists
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


class TestValidationByGenerators:
    """validate_group by Light's test and the action check by generators
    give the verdict and message of the checks on all triples and pairs."""

    @settings(max_examples=300, deadline=None)
    @given(loop_tables())
    @example(LOOP5)
    def test_group_verdicts_match_all_triples(self, table):
        assert rejection(GroupTable, table) == rejection(validate_group_by_triples, table)

    def test_loops_that_are_not_groups_are_rejected(self):
        """LOOP5, and loops of orders 5 to 7 drawn as loop_tables draws them."""
        rnd = random.Random(0)
        for table in [LOOP5] + [random_loop(rnd, n) for n in (5, 6, 7)]:
            assert rejection(validate_group_by_triples, table) == "associativity fails"
            assert rejection(GroupTable, table) == "associativity fails"

    @staticmethod
    def swapped(atom, g, a, b):
        perm = list(atom.action[g])
        perm[a], perm[b] = perm[b], perm[a]
        return Atom(atom.name, atom.size, atom.action[:g] + (tuple(perm),) + atom.action[g + 1:])

    def test_s4_fault_outside_the_generators(self):
        s4 = symmetric_group(4)
        assert 23 not in s4.generators
        bad = self.swapped(regular_atom("R", s4), 23, 0, 5)
        message = "atom R: action is not a homomorphism"
        assert rejection(finset_backend, s4, [bad]) == message
        assert rejection(validate_action_by_pairs, "finset", s4, bad) == message
        linear = Atom("R", 24, tuple(Matrix.from_table(RATIONAL, perm, 24)
                                     for perm in bad.action))
        assert rejection(linear_backend, s4, [linear]) == message
        assert rejection(validate_action_by_pairs, "linear", s4, linear) == message

    def test_identity_acting_as_a_non_identity(self):
        one = cyclic_group(1)
        assert one.generators == ()
        bad = Atom("P", 2, ((1, 0),))
        message = "atom P: action is not a homomorphism"
        assert rejection(finset_backend, one, [bad]) == message
        assert rejection(validate_action_by_pairs, "finset", one, bad) == message
        linear = Atom("P", 2, (Matrix.from_table(RATIONAL, (1, 0), 2),))
        message = "atom P: identity must act as identity"
        assert rejection(linear_backend, one, [linear]) == message
        assert rejection(validate_action_by_pairs, "linear", one, linear) == message

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([symmetric_group(3), cyclic_group(4), dihedral_group()]),
           st.booleans(), st.data())
    def test_action_verdicts_match_all_pairs(self, group, linear, data):
        """A G-set with the action of one element changed by a swap of two
        points (or left alone), on finset or as permutation matrices."""
        whole = set(group.elements())
        atom = coset_atom("A", group, [{0}, whole, subgroup_closure(group, [1])], seed=3)
        g = data.draw(st.integers(0, group.order - 1))
        a, b = (data.draw(st.integers(0, atom.size - 1)) for _ in range(2))
        atom = self.swapped(atom, g, a, b)
        kind, make = "finset", finset_backend
        if linear:
            atom = Atom("A", atom.size, tuple(Matrix.from_table(RATIONAL, perm, atom.size)
                                              for perm in atom.action))
            kind, make = "linear", linear_backend
        assert rejection(make, group, [atom]) == rejection(validate_action_by_pairs,
                                                           kind, group, atom)


class TestFinsetBackend:
    def test_regular_atom_action(self):
        b = z2_finset()
        assert b.atoms["S"].action == ((0, 1), (1, 0))

    def test_compose_is_left_to_right(self):
        b = z2_finset()
        s = b.obj("S")
        f = b.mor_from_table(s, s, (1, 0))
        g = b.mor_from_table(s, s, (1, 0))
        assert b.compose(f, g).table == (0, 1)

    def test_tensor_mor_row_major(self):
        b = z2_finset()
        s = b.obj("S")
        f = b.mor_from_table(s, s, (1, 0))
        ident = b.identity_mor(s)
        assert b.tensor_mor(f, ident).table == (2, 3, 0, 1)
        assert b.tensor_mor(ident, f).table == (1, 0, 3, 2)

    def test_braiding_frozen_2x3(self):
        g = cyclic_group(1)
        x = Atom("X", 2, (tuple(range(2)),))
        y = Atom("Y", 3, (tuple(range(3)),))
        b = finset_backend(g, [x, y])
        sw = b.braiding(b.obj("X"), b.obj("Y"))
        # element (i, j) goes to (j, i): composite indices (0..5) -> j*2+i
        assert sw.table == (0, 2, 4, 1, 3, 5)

    def test_braiding_coherence(self):
        g = cyclic_group(2)
        for b in (z2_finset(), linear_backend(g, [regular_linear_atom("R", g)]), toy_dy()[0]):
            assert check_braiding_coherence(b) == []
            assert b._braidings == {}

    def test_diagonal_action(self):
        b = z2_finset()
        ss = b.obj("S", "S")
        flip = b.act(1, ss)
        # (i, j) -> (i+1, j+1) mod 2 in composite index
        assert flip.table == (3, 2, 1, 0)

    def test_equivariance_detects_failure(self):
        b = z2_finset()
        s = b.obj("S")
        good = b.mor_from_table(s, s, (1, 0))  # right translation commutes
        assert b.check_equivariant(good) == []
        bad = b.mor_from_table(s, s, (0, 0))
        assert b.check_equivariant(bad) != []

    def test_as_matrix_of_table(self):
        b = z2_finset()
        s = b.obj("S")
        f = b.mor_from_table(s, s, (1, 0))
        assert b.as_matrix(f) == Matrix.from_rows(RATIONAL, [[0, 1], [1, 0]])


class TestTrivialAtom:
    @pytest.mark.parametrize("kind", ["finset", "linear"])
    def test_registered_once_with_the_identity_action(self, kind):
        g = cyclic_group(3)
        b = finset_backend(g, []) if kind == "finset" else linear_backend(g, [])
        word = b.trivial_atom("A", 2)
        atom = b.atoms["A"]
        assert word == ObjectRef.atom("A")
        assert b.atom_size("A") == 2
        # a backend built from it validates it like any other atom
        Backend(b.kind, g, dict(b.atoms), ring=b.ring)
        for h in g.elements():
            assert b.equal_mor(b.act(h, word), b.identity_mor(word))
        assert b.trivial_atom("A", 5) == word
        assert b.atoms["A"] is atom


class TestLinearBackend:
    def test_regular_linear_matches_permutation(self):
        g = cyclic_group(3)
        b = linear_backend(g, [regular_linear_atom("R", g)])
        m = b.atoms["R"].action[1]
        # generator sends basis vector a to a+1
        assert m == Matrix.from_rows(RATIONAL, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_action_homomorphism_enforced(self):
        g = cyclic_group(2)
        bad = Atom("B", 1, (Matrix.identity(1, RATIONAL),
                            Matrix.from_rows(RATIONAL, [[2]])))
        with pytest.raises(BackendError):
            linear_backend(g, [bad])

    def test_braiding_matrix_involutive(self):
        g = cyclic_group(2)
        b = linear_backend(g, [regular_linear_atom("R", g)])
        r = b.obj("R")
        sw = b.braiding(r, r)
        assert b.as_matrix(b.compose(sw, b.braiding(r, r))) == Matrix.identity(4, RATIONAL)

    def test_equivariance_linear(self):
        g = cyclic_group(2)
        b = linear_backend(g, [regular_linear_atom("R", g)])
        r = b.obj("R")
        # sum-of-coordinates onto the unit is equivariant for the trivial target
        f = b.mor_from_matrix(r, b.unit(), Matrix.from_rows(RATIONAL, [[1, 1]]))
        assert b.check_equivariant(f) == []
        f2 = b.mor_from_matrix(r, b.unit(), Matrix.from_rows(RATIONAL, [[1, 0]]))
        assert b.check_equivariant(f2) != []


FINSET_BACKENDS = [gset_backend(g)
                   for g in (symmetric_group(3), cyclic_group(4), dihedral_group())]
LINEAR_BACKENDS = [
    linear_backend(g, [regular_linear_atom("R", g),
                       Atom("I", 1, (Matrix.identity(1, RATIONAL),) * g.order)])
    for g in (cyclic_group(3), symmetric_group(3))]


# Maps drawn below are of three kinds: equivariant ones; the action of one
# element h, which commutes exactly with the centralizer of h, so that
# some generators may pass and others fail; and arbitrary ones.  The
# first two sometimes get one entry changed.


@st.composite
def finset_maps(draw):
    b = draw(st.sampled_from(FINSET_BACKENDS))
    dom = b.obj(*draw(st.lists(st.sampled_from("STU"), min_size=1, max_size=2)))
    n = b.obj_size(dom)
    kind = draw(st.sampled_from(["select", "act", "any"]))
    if kind == "select":
        # coordinate selections commute with the diagonal action
        picks = draw(st.lists(st.integers(0, len(dom) - 1), max_size=2))
        cod = b.obj(*(dom.factors[j] for j in picks))
        table = [index_of(b, cod, [coords_of(b, dom, i)[j] for j in picks]) for i in range(n)]
    elif kind == "act":
        cod = dom
        table = list(b.act(draw(st.sampled_from(b.group.elements())), dom).table)
    else:
        cod = b.obj(*draw(st.lists(st.sampled_from("STU"), max_size=2)))
        table = draw(st.lists(st.integers(0, b.obj_size(cod) - 1), min_size=n, max_size=n))
    if kind != "any" and draw(st.booleans()):
        table[draw(st.integers(0, n - 1))] = draw(st.integers(0, b.obj_size(cod) - 1))
    return b, b.mor_from_table(dom, cod, tuple(table))


@st.composite
def linear_maps(draw):
    b = draw(st.sampled_from(LINEAR_BACKENDS))
    dom = b.obj(draw(st.sampled_from("RI")))
    kind = draw(st.sampled_from(["average", "act", "any"]))
    if kind == "act":
        m = b.act(draw(st.sampled_from(b.group.elements())), dom).matrix
        cod = dom
    else:
        cod = b.obj(draw(st.sampled_from("RI")))
        rows, cols = b.obj_size(cod), b.obj_size(dom)
        ent = draw(st.lists(st.integers(-2, 2), min_size=rows * cols, max_size=rows * cols))
        m = Matrix(rows, cols, RATIONAL, tuple(Fraction(x) for x in ent))
    if kind == "average":
        # the sum of g m g^-1 over the group is equivariant
        avg = Matrix.zeros(m.rows, m.cols, RATIONAL)
        for g in b.group.elements():
            avg = avg + b.act(g, cod).matrix * m * b.act(b.group.inv(g), dom).matrix
        m = avg
    if kind != "any" and draw(st.booleans()):
        ent = list(m.entries)
        ent[draw(st.integers(0, len(ent) - 1))] += 1
        m = Matrix(m.rows, m.cols, RATIONAL, tuple(ent))
    return b, b.mor_from_matrix(dom, cod, m)


class TestEquivarianceAgainstAllElements:
    @settings(max_examples=150, deadline=None)
    @given(finset_maps())
    def test_finset_tables(self, bf):
        b, f = bf
        assert b.check_equivariant(f) == naive_equivariance_failures(b, f)

    @settings(max_examples=100, deadline=None)
    @given(linear_maps())
    def test_linear_matrices(self, bf):
        b, f = bf
        assert b.check_equivariant(f) == naive_equivariance_failures(b, f)


# Sets of sizes 0..4 with the trivial action: empty, one-point and
# non-square function tables between them.
SIZED_SETS = finset_backend(cyclic_group(1),
                            [Atom(f"N{k}", k, (tuple(range(k)),)) for k in range(5)])


@st.composite
def sized_tables(draw):
    """(dom, cod, table) of a function between two of SIZED_SETS."""
    dom = draw(st.integers(0, 4))
    cod = draw(st.integers(1 if dom else 0, 4))
    table = draw(st.lists(st.integers(0, max(cod - 1, 0)), min_size=dom, max_size=dom))
    return SIZED_SETS.mor_from_table(SIZED_SETS.obj(f"N{dom}"), SIZED_SETS.obj(f"N{cod}"),
                                     tuple(table))


class TestFinsetTensorKernel:
    @settings(max_examples=200, deadline=None)
    @given(sized_tables(), sized_tables())
    def test_tensor_mor_is_the_textbook_product(self, f, g):
        nf, ng = SIZED_SETS.obj_size(f.dom), SIZED_SETS.obj_size(g.dom)
        gc = SIZED_SETS.obj_size(g.cod)
        h = SIZED_SETS.tensor_mor(f, g)
        assert (h.dom, h.cod) == (f.dom.tensor(g.dom), f.cod.tensor(g.cod))
        assert h.table == tuple(f.table[i] * gc + g.table[j]
                                for i in range(nf) for j in range(ng))

    @pytest.mark.parametrize("b", FINSET_BACKENDS, ids=["s3", "z4", "d4"])
    def test_act_is_the_tensor_of_the_factor_actions(self, b):
        for k in range(4):
            for word in itertools.product("STU", repeat=k):
                obj = b.obj(*word)
                for g in b.group.elements():
                    parts = [b.mor_from_table(b.obj(n), b.obj(n), b.atoms[n].action[g])
                             for n in word]
                    expected = b.tensor_all(parts) if parts else b.identity_mor(obj)
                    got = b.act(g, obj)
                    assert (got.dom, got.cod, got.table) == (obj, obj, expected.table)


@st.composite
def trivial_backends(draw, max_size):
    """A finset or linear backend over the trivial group with 1-3 atoms
    A0, A1, ... of sizes 1 to max_size."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=3))
    names = [f"A{k}" for k in range(len(sizes))]
    g = cyclic_group(1)
    if draw(st.booleans()):
        return finset_backend(g, [Atom(n, k, (tuple(range(k)),)) for n, k in zip(names, sizes)])
    return linear_backend(g, [Atom(n, k, (Matrix.identity(k, RATIONAL),))
                              for n, k in zip(names, sizes)])


@st.composite
def composable_tensors(draw):
    """(backend, f, gs): 1-3 factors gs between words of at most one atom,
    the unit word included, each a random map or the kept identity, and f
    into the tensor of their domains, on a finset or linear backend over
    1-3 atoms of sizes 1-5."""
    b = draw(trivial_backends(5))
    word = st.lists(st.sampled_from(sorted(b.atoms)), max_size=1).map(lambda w: b.obj(*w))

    def random_mor(dom, cod):
        n, m = b.obj_size(dom), b.obj_size(cod)
        if b.kind == "finset":
            return b.mor_from_table(dom, cod, draw(
                st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        ent = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
        return b.mor_from_matrix(dom, cod, Matrix(m, n, RATIONAL, tuple(map(Fraction, ent))))

    doms = [draw(word) for _ in range(draw(st.integers(1, 3)))]
    gs = [b.identity_mor(d) if draw(st.booleans()) else random_mor(d, draw(word)) for d in doms]
    f = random_mor(draw(word), ObjectRef(sum((h.dom.factors for h in gs), ())))
    return b, f, gs


class TestComposeTensor:
    @settings(max_examples=200, deadline=None)
    @given(composable_tensors())
    def test_equals_compose_after_tensor_all(self, bfg):
        b, f, gs = bfg
        got, expected = b.compose_tensor(f, gs), b.compose(f, b.tensor_all(gs))
        assert (got.dom, got.cod, got.table, got.matrix) == (
            expected.dom, expected.cod, expected.table, expected.matrix)

    @settings(max_examples=50, deadline=None)
    @given(composable_tensors())
    def test_codomain_mismatch_is_refused(self, bfg):
        b, f, gs = bfg
        with pytest.raises(BackendError, match="composition mismatch"):
            b.compose_tensor(f, gs + [b.identity_mor(b.obj("A0"))])


def tensor_at_factors(b, shape, rng):
    """Factors of the kinds in shape on b, whose atoms are P (size 1), A
    and B: "id" is a kept identity of A, B or A (x) B, "unit_id" the unit's
    identity, "map" a random table between atoms, "unit" a (k,) table
    out of the unit and "counit" the all-zero table into it."""
    words = [b.obj("A"), b.obj("B"), b.obj("A", "B"), b.obj("P")]
    out = []
    for kind in shape:
        dom, cod = rng.choice(words), rng.choice(words)
        if kind == "id":
            out.append(b.identity_mor(rng.choice(words[:3])))
        elif kind == "unit_id":
            out.append(b.identity_mor(b.unit()))
        elif kind == "unit":
            out.append(b.mor_from_table(b.unit(), cod, [rng.randrange(b.obj_size(cod))]))
        elif kind == "counit":
            out.append(b.mor_from_table(dom, b.unit(), [0] * b.obj_size(dom)))
        else:
            m = b.obj_size(cod)
            out.append(b.mor_from_table(dom, cod, [rng.randrange(m)
                                                   for _ in range(b.obj_size(dom))]))
    return out


class TestTensorAtAgainstTensorAll:
    """tensor_at(gs, points) reads tensor_all(gs).table at the points, for
    every shape of 0-4 factors: runs of 0-4 kept identities around the
    other factors, and the size-1 factors (the unit's identity, (k,) tables
    out of the unit, all-zero tables into it)."""

    SETS = finset_backend(cyclic_group(1), [Atom("P", 1, ((0,),)), Atom("A", 2, ((0, 1),)),
                                            Atom("B", 3, ((0, 1, 2),))])
    KINDS = ("id", "unit_id", "map", "unit", "counit")

    @pytest.mark.parametrize("k", range(5))
    def test_every_shape(self, k):
        b, rng = self.SETS, random.Random(k)
        for shape in itertools.product(self.KINDS, repeat=k):
            gs = tensor_at_factors(b, shape, rng)
            full = b.tensor_all(gs).table
            n = b.obj_size(ObjectRef(tuple(a for g in gs for a in g.dom.factors)))
            points = rng.choices(range(n), k=2 * n) + [n - 1, 0]
            expected = [full[p] for p in points]
            assert b.tensor_at(gs, points) == expected, shape
            # split hands its representatives' images over as an iterator
            assert b.tensor_at(gs, map(points.__getitem__, range(len(points)))) == expected, shape

    def test_identities_return_a_copy_of_the_points(self):
        b = self.SETS
        points = [5, 0, 3]
        got = b.tensor_at([b.identity_mor(b.obj("A")), b.identity_mor(b.obj("B"))], points)
        assert got == points and got is not points


@st.composite
def planted_swaps(draw):
    """A backend of trivial_backends(3) with one memoized swap replaced, at
    a size pair that check_braiding_coherence reads: two words of at most
    one atom, or an atom and a two-letter word.  The planted swap is the
    flip after a permutation; on linear it may also have one entry moved
    off that permutation matrix, so that it is no permutation at all."""
    b = draw(trivial_backends(3))
    atoms = [a.size for a in b.atoms.values()]
    words = [1] + atoms
    pairs = sorted({(p, q) for p in words for q in words}
                   | {(p * q, r) for p, q, r in itertools.product(atoms, repeat=3)}
                   | {(p, q * r) for p, q, r in itertools.product(atoms, repeat=3)})
    nx, ny = draw(st.sampled_from(pairs))
    n = nx * ny
    table = tuple(map(_flip(nx, ny).__getitem__, draw(st.permutations(range(n)))))
    if b.kind == "finset":
        b._braidings[(nx, ny)] = table
        return b
    entries = [0] * (n * n)
    for col, row in enumerate(table):
        entries[row * n + col] = 1
    if draw(st.booleans()):
        entries[draw(st.integers(0, n * n - 1))] += draw(st.sampled_from([-1, 2]))
    b._braidings[(nx, ny)] = Matrix(n, n, RATIONAL, tuple(map(Fraction, entries)))
    return b


class TestCoherenceAgainstComposing:
    """check_braiding_coherence reads each swap against the block flip;
    unmemoized_braiding_failures composes both hexagons at every word
    triple.  On intact swaps both are empty.  With one swap planted, every
    law that composing finds false is listed, and the reading may list
    more: each law that reads a swap which is not a flip."""

    @settings(max_examples=50, deadline=None)
    @given(trivial_backends(3))
    def test_intact_swaps_pass(self, b):
        assert check_braiding_coherence(b) == [] == unmemoized_braiding_failures(b)

    @settings(max_examples=200, deadline=None)
    @given(planted_swaps())
    def test_planted_swap_fails_every_law_composing_fails(self, b):
        assert set(unmemoized_braiding_failures(b)) <= set(check_braiding_coherence(b))


def toy_dy():
    """Base b = Q^2 with zero self-action; V = Q^2 with pi(x) = E21, pi(y) = 0,
    pistar(v) = x (x) E21 v."""
    z2 = Matrix.zeros(2, 2, RATIONAL)
    e21 = Matrix.from_rows(RATIONAL, [[0, 0], [1, 0]])
    base_pi = Matrix.zeros(2, 4, RATIONAL)   # b (x) b -> b
    base_pistar = Matrix.zeros(4, 2, RATIONAL)
    base = Atom("b", 2, (Matrix.identity(2, RATIONAL),), pi=base_pi, pistar=base_pistar)
    # pi: b (x) V -> V, columns indexed by (basis of b) x (basis of V)
    pi = Matrix.from_rows(RATIONAL, [[0, 0, 0, 0], [1, 0, 0, 0]])
    pistar = Matrix.from_rows(RATIONAL, [[0, 0], [1, 0], [0, 0], [0, 0]])
    v = Atom("V", 2, (Matrix.identity(2, RATIONAL),), pi=pi, pistar=pistar)
    return dy_backend(base, [v]), e21, z2


class TestDyBackend:
    def test_atom_shapes_enforced(self):
        base = Atom("b", 1, (Matrix.identity(1, RATIONAL),),
                    pi=Matrix.zeros(1, 1, RATIONAL), pistar=Matrix.zeros(1, 1, RATIONAL))
        bad = Atom("V", 2, (Matrix.identity(2, RATIONAL),),
                   pi=Matrix.zeros(2, 3, RATIONAL), pistar=Matrix.zeros(2, 2, RATIONAL))
        with pytest.raises(BackendError):
            dy_backend(base, [bad])

    def test_unit_gets_zero_action(self):
        b, _, _ = toy_dy()
        assert b.dy_action(b.unit()).is_zero()
        assert b.dy_coaction(b.unit()).is_zero()

    def test_tensor_extension_consistent(self):
        b, _, _ = toy_dy()
        assert check_dy_tensor_closure(b) == [] and b._dy == {}
        # the three-letter word, split by hand at both cuts
        w, base = ObjectRef(("V", "V", "V")), ObjectRef.atom(b.base)
        for cut in (1, 2):
            left, right = ObjectRef(w.factors[:cut]), ObjectRef(w.factors[cut:])
            il = Matrix.identity(b.obj_size(left), RATIONAL)
            ir = Matrix.identity(b.obj_size(right), RATIONAL)
            swap = b.as_matrix(b.braiding(base, left))
            assert b.dy_action(w) == (mat_kron(b.dy_action(left), ir)
                                      + mat_kron(il, b.dy_action(right)) * mat_kron(swap, ir))
            swap = b.as_matrix(b.braiding(left, base))
            assert b.dy_coaction(w) == (mat_kron(b.dy_coaction(left), ir)
                                        + mat_kron(swap, ir) * mat_kron(il, b.dy_coaction(right)))
        kept = dict(b._dy)
        assert check_dy_tensor_closure(b) == [] and b._dy == kept
        # a wrong kept map is found at its word, three letters included
        words = [ObjectRef(("V", "V")), w]
        for v, which in itertools.product(words, ("dy_action", "dy_coaction")):
            m = b._dy[(which, v.factors)]
            assert not m.is_zero()
            b._dy[(which, v.factors)] = Matrix.zeros(m.rows, m.cols, RATIONAL)
        assert check_dy_tensor_closure(b) == [
            f"{kind} extension inconsistent at cut 1 of {v.label()}"
            for v in words for kind in ("action", "coaction")]

    def test_atom_action_recovered(self):
        b, _, _ = toy_dy()
        v = b.obj("V")
        assert b.dy_action(v) == b.atoms["V"].pi
        assert b.dy_coaction(v) == b.atoms["V"].pistar

    def test_equivariance_includes_coaction(self):
        b, e21, _ = toy_dy()
        v = b.obj("V")
        # E21 commutes with pi (E21^2 = 0 both ways) and with pistar
        f = b.mor_from_matrix(v, v, e21)
        assert b.check_equivariant(f) == []
        # a generic map fails
        g = b.mor_from_matrix(v, v, Matrix.from_rows(RATIONAL, [[1, 0], [0, 2]]))
        assert b.check_equivariant(g) != []


class TestValueSemantics:
    """Words and morphisms are immutable by contract, not by a guard: equal
    values compare and hash equal, so a value built afresh finds the one
    stored under an equal key."""

    @pytest.mark.parametrize("kind", ["finset", "linear"])
    def test_equal_values_are_equal_keys(self, kind):
        g = cyclic_group(3)
        b = (finset_backend(g, [regular_atom("S", g)]) if kind == "finset"
             else linear_backend(g, [regular_linear_atom("S", g)]))
        s = b.obj("S")
        word = ObjectRef(("S", "S"))
        assert word == s.tensor(s) and hash(word) == hash(s.tensor(s))
        assert word is not s.tensor(s) and word != s and word != ObjectRef.unit()
        f = b.braiding(s, s)
        if kind == "finset":
            fresh = MorphismRep(word, word, table=tuple(list(f.table)))
        else:
            fresh = MorphismRep(word, word, matrix=Matrix.from_rows(b.ring, [
                list(f.matrix.row(i)) for i in range(f.matrix.rows)]))
        assert fresh == f and hash(fresh) == hash(f)
        assert {f: "swap"}[fresh] == "swap"
        assert fresh != b.identity_mor(word)
        assert replace(fresh, dom=ObjectRef(("S", "S"))) == f
        assert replace(fresh, cod=s) != f

    def test_a_fresh_comonoid_finds_the_stored_certificate(self):
        g = cyclic_group(3)
        b = finset_backend(g, [regular_atom("S", g)])
        fn = OrbitFunctor(b)
        m = diagonal_comonoid(b, b.obj("S"), "M")
        certify_adapted(fn, m, [(b.unit(), b.obj("S"))])
        again = diagonal_comonoid(b, ObjectRef(("S",)), "M")
        assert again.delta is not m.delta and again.eps is not m.eps
        assert fn.chi_inverse(again) is fn.chi_inverse(m)
        assert fn.gamma_inverse(again, b.unit(), b.obj("S")) is fn.gamma_inverse(
            m, b.unit(), b.obj("S"))

    def test_exactly_one_of_table_and_matrix(self):
        x = ObjectRef.atom("S")
        one = Matrix.identity(1, RATIONAL)
        for fields in ({}, {"table": (0,), "matrix": one}):
            with pytest.raises(BackendError, match="exactly one"):
                MorphismRep(x, x, **fields)
        f = MorphismRep(x, x, table=(0,))
        with pytest.raises(BackendError, match="exactly one"):
            replace(f, matrix=one)
        with pytest.raises(BackendError, match="exactly one"):
            replace(f, table=None)
        assert replace(f, table=None, matrix=one) == MorphismRep(x, x, matrix=one)


class TestIdentitiesBuiltOncePerSize:
    """Validation, the linear action and the dy equivariance check read the
    backend's one identity per size instead of building their own."""

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = Counter()
        real = Matrix.identity.__func__

        def counted(cls, n, ring):
            sizes[n] += 1
            return real(cls, n, ring)

        monkeypatch.setattr(Matrix, "identity", classmethod(counted))
        return sizes

    def test_linear(self, built):
        g = cyclic_group(3)
        b = linear_backend(g, [regular_linear_atom("R", g), regular_linear_atom("Q", g)])
        assert built == {3: 1}
        f = b.identity_mor(b.obj("R", "Q"))
        for _ in range(2):
            assert b.check_equivariant(f) == []
            assert b.act(0, b.unit()).matrix is b.identity_mor(b.unit()).matrix
        assert built == {3: 1, 9: 1, 1: 1}

    def test_dy(self, built):
        toy, e21, _ = toy_dy()
        built.clear()
        b = dy_backend(toy.atoms["b"], [toy.atoms["V"]])
        assert built == {2: 1}
        f = b.mor_from_matrix(b.obj("V"), b.obj("V"), e21)
        for _ in range(2):
            assert b.check_equivariant(f) == []
        assert built == {2: 1, 1: 1}
