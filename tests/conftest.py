"""Shared fixtures and independent oracles.

The oracles here are deliberately naive: they enumerate, brute-force, or
hand-build the expected answers without touching the construction code,
so that agreement is evidence rather than tautology.
"""

import itertools
import random
from fractions import Fraction

from hopfcat.backends import (
    Atom,
    BackendError,
    ObjectRef,
    finset_backend,
    group_from_generators,
    regular_atom,
)
from hopfcat.coalg import LawRecord
from hopfcat.linalg import Matrix, hstack
from hopfcat.scalars import RATIONAL, HSeries


def torsor_backend(group, names=("S", "T")):
    return finset_backend(group, [regular_atom(n, group) for n in names])


def subgroup_closure(group, gens):
    """The subgroup generated by gens, as the set of all finite products."""
    sub = {0}
    while True:
        more = sub | {group.mul(a, g) for a in sub for g in gens}
        if more == sub:
            return sub
        sub = more


def coset_atom(name, group, subgroups, seed=None):
    """Finset atom on the disjoint union of the left coset spaces G/H, one
    per subgroup H (a set of indices), acted on by left multiplication.
    H = {0} gives the regular action and H = G a fixed point.  With a seed
    the points are renamed by a random permutation.
    """
    points = []
    for k, h in enumerate(subgroups):
        for g in group.elements():
            point = (k, frozenset(group.mul(g, x) for x in h))
            if point not in points:
                points.append(point)
    label = list(range(len(points)))
    if seed is not None:
        random.Random(seed).shuffle(label)
    where = {p: label[i] for i, p in enumerate(points)}
    action = []
    for g in group.elements():
        row = [0] * len(points)
        for k, coset in points:
            row[where[(k, coset)]] = where[(k, frozenset(group.mul(g, x) for x in coset))]
        action.append(tuple(row))
    return Atom(name, len(points), tuple(action))


def dihedral_group():
    """Symmetries of a square, order 8, as permutations of its corners."""
    return group_from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)])


def gset_backend(group):
    """Finset backend with three atoms: S regular, T regular with its
    points renamed, and U not transitive: G/H for H generated by the
    smallest involution, plus two fixed points.  group needs even order.
    """
    involution = min(g for g in group.elements() if g and group.mul(g, g) == 0)
    whole = set(group.elements())
    return finset_backend(group, [
        regular_atom("S", group),
        coset_atom("T", group, [{0}], seed=1),
        coset_atom("U", group, [subgroup_closure(group, [involution]), whole, whole], seed=2),
    ])


def point_atom(name, group):
    """Finset atom: a permutation group acting on the points it permutes.
    The group's element names must be its permutations, as those of
    symmetric_group and group_from_generators are."""
    perms = tuple(tuple(int(ch) for ch in g) for g in group.names)
    return Atom(name, len(perms[0]), perms)


def index_of(backend, obj, coords):
    """Row-major composite index of per-factor coordinates of obj."""
    idx = 0
    for name, c in zip(obj.factors, coords):
        idx = idx * backend.atom_size(name) + c
    return idx


def coords_of(backend, obj, index):
    """Per-factor coordinates of a row-major composite index of obj."""
    coords = []
    for name in reversed(obj.factors):
        index, c = divmod(index, backend.atom_size(name))
        coords.append(c)
    return tuple(reversed(coords))


def naive_orbit_info(backend, obj):
    """(representatives, orbit label of each element) of a finset object,
    as naive_orbit_data finds them."""
    return naive_orbit_data(backend, obj)[:2]


def naive_orbit_data(backend, obj):
    """(representatives, orbit label of each element, stabilizer of each
    representative, action table of each group element) of a finset
    object: scanning elements in ascending order, each unlabelled element
    starts a new orbit, namely its image under every group element; a
    stabilizer lists every element fixing the representative, ascending.
    The tables let a caller check transversals.
    """
    acts = [backend.act(g, obj).table for g in backend.group.elements()]
    orbit_of = [-1] * backend.obj_size(obj)
    reps = []
    for start in range(len(orbit_of)):
        if orbit_of[start] < 0:
            for act in acts:
                orbit_of[act[start]] = len(reps)
            reps.append(start)
    stabs = tuple(tuple(g for g, act in enumerate(acts) if act[r] == r) for r in reps)
    return tuple(reps), tuple(orbit_of), stabs, acts


def naive_equivariance_failures(backend, f):
    """The group part of Backend.check_equivariant, testing every group
    element in index order; tables are compared as functions.
    """
    out = []
    for g in backend.group.elements():
        ad, ac = backend.act(g, f.dom), backend.act(g, f.cod)
        if f.table is not None:
            holds = all(f.table[ad.table[i]] == ac.table[x] for i, x in enumerate(f.table))
        else:
            holds = f.matrix * ad.matrix == ac.matrix * f.matrix
        if not holds:
            out.append(f"group element {backend.group.names[g]} does not commute")
    return out


def equivariant_bijections(backend, x, y):
    """All bijection tables x -> y commuting with the group action, found
    by filtering every permutation.  Sorted for determinism.
    """
    nx, ny = backend.obj_size(x), backend.obj_size(y)
    if nx != ny:
        return []
    out = []
    acts_x = [backend.act(g, x).table for g in backend.group.elements()]
    acts_y = [backend.act(g, y).table for g in backend.group.elements()]
    for perm in itertools.permutations(range(nx)):
        if all(perm[ax[i]] == ay[perm[i]]
               for ax, ay in zip(acts_x, acts_y)
               for i in range(nx)):
            out.append(tuple(perm))
    return sorted(out)


def bijection_groupoid(backend, atom_names):
    """The groupoid whose arrows x -> y are the equivariant bijections,
    composed diagrammatically.  Returned as dictionaries shaped like
    GroupoidTable fields, with arrows indexed by their sorted position.
    """
    objs = {i: backend.obj(n) for i, n in enumerate(atom_names)}
    n = len(atom_names)
    arrows = {(i, j): equivariant_bijections(backend, objs[i], objs[j])
              for i in range(n) for j in range(n)}
    hom_size = {key: len(val) for key, val in arrows.items()}
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table = []
                for f in arrows[(i, j)]:
                    for g in arrows[(j, k)]:
                        composite = tuple(g[f[a]] for a in range(len(f)))
                        table.append(arrows[(i, k)].index(composite))
                comp[(i, j, k)] = tuple(table)
    size_of = {i: backend.obj_size(objs[i]) for i in range(n)}
    identity = {i: arrows[(i, i)].index(tuple(range(size_of[i]))) for i in range(n)}
    inverse = {}
    for i in range(n):
        for j in range(n):
            tab = []
            for f in arrows[(i, j)]:
                inv = [0] * len(f)
                for a, b in enumerate(f):
                    inv[b] = a
                tab.append(arrows[(j, i)].index(tuple(inv)))
            inverse[(i, j)] = tuple(tab)
    return {"arrows": arrows, "hom_size": hom_size, "comp": comp,
            "identity": identity, "inverse": inverse, "objects": objs}


def brute_force_groupoid_records(gt):
    """The groupoid laws checked element by element, associativity on
    every composable triple: the checker verify_groupoid had before it
    used Light's test, kept as its oracle.  Records carry no detail."""
    n = len(gt.labels)
    rng = range(n)

    def compose2(i, j, k, a, b):
        return gt.comp[(i, j, k)][a * gt.hom_size[(j, k)] + b]

    ok = True
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    for a in range(gt.hom_size[(i, j)]):
                        for b in range(gt.hom_size[(j, k)]):
                            for c in range(gt.hom_size[(k, l)]):
                                lhs = compose2(i, k, l, compose2(i, j, k, a, b), c)
                                rhs = compose2(i, j, l, a, compose2(j, k, l, b, c))
                                if lhs != rhs:
                                    ok = False
    records = [LawRecord("groupoid.assoc", ok)]

    ok = True
    for i in rng:
        for j in rng:
            e = gt.identity[i]
            for a in range(gt.hom_size[(i, j)]):
                if compose2(i, i, j, e, a) != a:
                    ok = False
            e = gt.identity[j]
            for a in range(gt.hom_size[(i, j)]):
                if compose2(i, j, j, a, e) != a:
                    ok = False
    records.append(LawRecord("groupoid.identity", ok))

    ok = True
    for i in rng:
        for j in rng:
            inv = gt.inverse[(i, j)]
            for a in range(gt.hom_size[(i, j)]):
                if compose2(i, j, i, a, inv[a]) != gt.identity[i]:
                    ok = False
                if compose2(j, i, j, inv[a], a) != gt.identity[j]:
                    ok = False
    records.append(LawRecord("groupoid.inverse", ok))
    return records


def all_elements_coinvariants_relations(source, obj):
    """Relations act(g) - 1 for every non-identity group element, side by
    side: the relation matrix before it was cut down to the generators."""
    n = source.obj_size(obj)
    ident = Matrix.identity(n, RATIONAL)
    blocks = [source.as_matrix(source.act(g, obj)) - ident
              for g in source.group.elements() if g != 0]
    return hstack(blocks) if blocks else Matrix.zeros(n, 0, RATIONAL)


def letter_by_letter_coproduct(engine, elem):
    """Delta of an enveloping-algebra element with no memo: each word's
    image is rebuilt from 1 (x) 1 by multiplying in the primitive image of
    one letter at a time."""
    one = Fraction(1)
    out = {}
    for word, coef in elem.items():
        term = {((), ()): one}
        for letter in word:
            term = engine.t_mul(term, {((letter,), ()): one, ((), (letter,)): one})
        for key, c in term.items():
            out[key] = out.get(key, 0) + c * coef
    return {key: c for key, c in out.items() if c}


def uea_eps_matrix(uea):
    """The counit of a TruncatedUEA as a 1 x dim matrix: 1 on the empty
    word, 0 on every other basis word."""
    return Matrix.sparse(1, uea.dim, RATIONAL, [{uea.basis.index(()): Fraction(1)}])


class DenseMatrix:
    """A matrix stored densely, row-major, zeros included, with textbook
    operations: the storage linalg.Matrix had before it kept only its
    nonzeros, kept as the oracle for the sparse one."""

    def __init__(self, rows, cols, ring, entries):
        assert len(entries) == rows * cols
        self.rows, self.cols, self.ring, self.entries = rows, cols, ring, tuple(entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def _like(self, entries):
        return DenseMatrix(self.rows, self.cols, self.ring, entries)

    def __add__(self, other):
        return self._like([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self._like([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._like([-a for a in self.entries])

    def scale(self, c):
        return self._like([c * a for a in self.entries])

    def __mul__(self, other):
        ent = []
        for i in range(self.rows):
            for j in range(other.cols):
                s = self.ring.zero()
                for t in range(self.cols):
                    s = s + self[i, t] * other[t, j]
                ent.append(s)
        return DenseMatrix(self.rows, other.cols, self.ring, ent)

    def kron(self, other):
        return DenseMatrix(self.rows * other.rows, self.cols * other.cols, self.ring, [
            self[ra, ca] * other[rb, cb]
            for ra in range(self.rows) for rb in range(other.rows)
            for ca in range(self.cols) for cb in range(other.cols)])

    def transpose(self):
        return DenseMatrix(self.cols, self.rows, self.ring, [
            self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def is_zero(self):
        return not any(self.entries)

    def lift(self, ring):
        return DenseMatrix(self.rows, self.cols, ring, [
            HSeries.from_rational(x, ring.order) for x in self.entries])

    def reduce(self):
        return DenseMatrix(self.rows, self.cols, RATIONAL, [
            x.constant_term() for x in self.entries])


def dense_hstack(mats):
    rows = mats[0].rows
    return DenseMatrix(rows, sum(m.cols for m in mats), mats[0].ring, [
        m[i, j] for i in range(rows) for m in mats for j in range(m.cols)])


def agrees(m, dense):
    """m, a linalg.Matrix, equals the dense oracle: same shape and ring, and
    it stores exactly the oracle's nonzero entries, each a ring element of
    the ring's own type (Fraction or HSeries, never int)."""
    stored = {(i, j): x for i, row in enumerate(m.nz) for j, x in row.items()}
    expect = {(i, j): dense[i, j] for i in range(dense.rows) for j in range(dense.cols)
              if dense[i, j]}
    kind = Fraction if dense.ring == RATIONAL else HSeries
    return ((m.rows, m.cols, m.ring) == (dense.rows, dense.cols, dense.ring)
            and len(m.nz) == m.rows and stored == expect
            and all(type(x) is kind for x in stored.values()))


def permutation_inverse(perm):
    """The inverse of a permutation table, inv[perm[j]] = j: the helper
    linalg used before from_table recorded the inverse while filling."""
    inv = [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
    return inv


def morphism_laws(functor, morphisms):
    """Functoriality and naturality of F2 on the source morphisms given:
    identities go to identities, composites to composites, and F2 commutes
    with F(f) (x) F(g)."""
    src, dst = functor.source, functor.target
    records = []
    for f in morphisms:
        ident_laws = dst.equal_mor(
            functor.apply_mor(src.identity_mor(f.dom)),
            dst.identity_mor(functor.apply_obj(f.dom)))
        records.append(LawRecord("cofunctor.identity", ident_laws,
                                 f"at {f.dom.label()}"))
    for f in morphisms:
        for g in morphisms:
            if f.cod != g.dom:
                continue
            records.append(LawRecord(
                "cofunctor.compose",
                dst.equal_mor(functor.apply_mor(src.compose(f, g)),
                              dst.compose(functor.apply_mor(f), functor.apply_mor(g))),
                f"at {f.dom.label()} -> {g.cod.label()}"))
    for f in morphisms:
        for g in morphisms:
            lhs = dst.compose_tensor(functor.f2(f.dom, g.dom),
                                     [functor.apply_mor(f), functor.apply_mor(g)])
            rhs = dst.compose(functor.apply_mor(src.tensor_mor(f, g)),
                              functor.f2(f.cod, g.cod))
            records.append(LawRecord(
                "cofunctor.naturality",
                dst.equal_mor(lhs, rhs),
                f"at {f.dom.label()},{g.dom.label()}"))
    return records


def composite_split(functor, f, *words):
    """F(f), then F2s nested to the left, F2(w1, w2) (x) 1 after
    F2(w1 (x) w2, w3) for three words: the textbook composite through the
    image of f.cod, which functor.split builds only for one word."""
    dst = functor.target
    out = functor.apply_mor(f)
    for k in range(len(words) - 1, 0, -1):
        head = ObjectRef(tuple(a for w in words[:k] for a in w.factors))
        rest = [dst.identity_mor(functor.apply_obj(w)) for w in words[k + 1:]]
        out = dst.compose(out, dst.tensor_all([functor.f2(head, words[k])] + rest))
    return out


def brute_force_assoc_records(rule, hom_size, comp, n, positions=True):
    """Associativity of the tables comp[(i, j, k)] (hom(i,j) x hom(j,k) ->
    hom(i,k), row-major pairs, hom(i,j) of hom_size[(i, j)] points) checked
    point by point at every position (i, j, k, l): the per-position
    comparison check_hopf_category and check_hopf_monoid made before Light's
    test, kept as their oracle.  One record per position; a failing one
    names the first (x, s, y), row-major, where (x*s)*y and x*(s*y) differ.
    Positions are appended as `at i,j,k,l` unless positions is false.
    Values outside a codomain are read as Python reads an index, so a
    negative one counts from the end and one past the end raises
    IndexError."""
    records = []
    for i, j, k, l in itertools.product(range(n), repeat=4):
        nb, nc, njl = hom_size[(j, k)], hom_size[(k, l)], hom_size[(j, l)]
        detail = ""
        for x, s, y in itertools.product(
                range(hom_size[(i, j)]), range(nb), range(nc)):
            lhs = comp[(i, k, l)][comp[(i, j, k)][x * nb + s] * nc + y]
            rhs = comp[(i, j, l)][x * njl + comp[(j, k, l)][s * nc + y]]
            if lhs != rhs and not detail:
                detail = f"(x*s)*y = {lhs}, x*(s*y) = {rhs} with x={x}, s={s}, y={y}"
        where = f"at {i},{j},{k},{l}" if positions else ""
        records.append(LawRecord(rule, not detail, " ".join(filter(None, (detail, where)))))
    return records


def unmemoized_braiding_failures(backend):
    """check_braiding_coherence composing both hexagons at every word
    triple, as it did before it composed them once per size triple."""
    failures = []
    words = [ObjectRef.unit()] + [ObjectRef.atom(n) for n in sorted(backend.atoms)]
    for x in words:
        for y in words:
            both = backend.compose(backend.braiding(x, y), backend.braiding(y, x))
            if not backend.equal_mor(both, backend.identity_mor(x.tensor(y))):
                failures.append(f"swap of {x.label()},{y.label()} not involutive")
    for x, y, z in itertools.product(words[1:], repeat=3):
        rhs = backend.compose(
            backend.tensor_mor(backend.identity_mor(x), backend.braiding(y, z)),
            backend.tensor_mor(backend.braiding(x, z), backend.identity_mor(y)))
        if not backend.equal_mor(backend.braiding(x.tensor(y), z), rhs):
            failures.append(f"hexagon fails at {x.label()},{y.label()},{z.label()}")
        rhs2 = backend.compose(
            backend.tensor_mor(backend.braiding(x, y), backend.identity_mor(z)),
            backend.tensor_mor(backend.identity_mor(y), backend.braiding(x, z)))
        if not backend.equal_mor(backend.braiding(x, y.tensor(z)), rhs2):
            failures.append(f"hexagon (right) fails at {x.label()},{y.label()},{z.label()}")
    return failures


def validate_group_by_triples(table):
    """validate_group as it was before it used Light's test, kept as its
    oracle: the Latin-square and identity checks, then associativity on
    every one of the |G|^3 triples."""
    n = len(table)
    idx = set(range(n))
    for row in table:
        if len(row) != n or set(row) != idx:
            raise BackendError("multiplication table rows must be permutations")
    for col in range(n):
        if {row[col] for row in table} != idx:
            raise BackendError("multiplication table columns must be permutations")
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise BackendError("index 0 must be the identity")
    for g, h, k in itertools.product(range(n), repeat=3):
        if table[table[g][h]][k] != table[g][table[h][k]]:
            raise BackendError("associativity fails")


def validate_action_by_pairs(kind, group, atom):
    """The action checks of Backend._validate_atom as they were before
    they went by generators, kept as their oracle: the shape checks, then
    act(g) act(h) = act(gh) on all |G|^2 pairs, point by point on finset."""
    n = group.order
    if len(atom.action) != n:
        raise BackendError(f"atom {atom.name}: action must list all group elements")
    if kind == "finset":
        for g, perm in enumerate(atom.action):
            if sorted(perm) != list(range(atom.size)):
                raise BackendError(f"atom {atom.name}: action of {g} is not a permutation")
        for g, h in itertools.product(range(n), repeat=2):
            gh = group.mul(g, h)
            for i in range(atom.size):
                if atom.action[g][atom.action[h][i]] != atom.action[gh][i]:
                    raise BackendError(f"atom {atom.name}: action is not a homomorphism")
        return
    for mat in atom.action:
        if mat.rows != atom.size or mat.cols != atom.size:
            raise BackendError(f"atom {atom.name}: action matrices must be {atom.size}x{atom.size}")
    if atom.action[0] != Matrix.identity(atom.size, RATIONAL):
        raise BackendError(f"atom {atom.name}: identity must act as identity")
    for g, h in itertools.product(range(n), repeat=2):
        if atom.action[g] * atom.action[h] != atom.action[group.mul(g, h)]:
            raise BackendError(f"atom {atom.name}: action is not a homomorphism")
