"""Concrete strict symmetric monoidal categories the constructions run in.

A backend holds a finite group and a set of named atomic objects.  General
objects are finite tensor words in the atoms; the unit is the empty word.
Composite objects index their elements (or basis vectors) row-major in the
factors, so tensoring morphisms is a Kronecker product and the braiding is
the block-transposition permutation.

Three kinds:

  * finset  -- atoms are finite sets with a group action; morphisms are
    total functions, stored as tuples of codomain indices.
  * linear  -- atoms are modules over an exact scalar ring with a linear
    group action; morphisms are matrices.
  * dy      -- linear, plus a distinguished base atom b acting and
    coacting on every atom; equivariance means compatibility with the
    action and coaction instead of a group.

The group acts diagonally on tensor words.  For the dy kind the action and
coaction extend to tensor words with a half-braiding correction on the
coacting side, which is what makes the crossed structure close under
tensor product.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .linalg import Matrix, mat_kron
from .scalars import RATIONAL, Value, replace


class BackendError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite groups as explicit multiplication tables


class GroupTable(Value):
    """Finite group on indices 0..n-1 with 0 the identity.

    table[g][h] = g * h.

    generators is a generating set, computed once per table: the arrow
    generators of the table as a one-object category, identity left out.
    This gives S4 -> (1, 2, 6), Z8 -> (1,), the trivial group -> ().  Orbits
    of the group are the orbits of its generators, a map commutes with
    every element iff it commutes with them, and Backend._validate_atom
    checks actions at them.
    """

    __slots__ = ("table", "names", "generators")
    _fields = ("table", "names")

    def __init__(self, table, names=None):
        self.table = table  # tuple of tuples
        self.names = tuple(str(i) for i in range(len(table))) if names is None else names
        self.generators = validate_group(table)

    @property
    def order(self):
        return len(self.table)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        return self.table[g].index(0)

    def elements(self):
        return range(self.order)


def validate_group(table):
    """Raise BackendError unless table is a group with identity 0; return
    the generators that Light's test used, identity left out."""
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
    # a group table is a one-object groupoid: Light's test applies
    hs, comp = {(0, 0): n}, {(0, 0, 0): tuple(x for row in table for x in row)}
    gens = _arrow_generators(1, hs, comp)
    if _assoc_witness(1, hs, comp, gens):
        raise BackendError("associativity fails")
    return tuple(g for _, _, g in gens[1:])


def cyclic_group(n):
    if n < 1:
        raise BackendError("order must be positive")
    table = tuple(tuple((g + h) % n for h in range(n)) for g in range(n))
    return GroupTable(table, tuple(f"r{g}" if g else "e" for g in range(n)))


def symmetric_group(n):
    """Symmetric group on n letters, generated by (0 1) and (0 1 ... n-1);
    elements are lex-sorted permutations.

    Composition (g * h)(i) = g[h[i]], i.e. apply h first.  The identity
    permutation sorts first, so index 0 is the identity as required.
    """
    if n < 1:
        raise BackendError("degree must be positive")
    swap = (1, 0, *range(2, n)) if n > 1 else (0,)
    return group_from_generators(n, [swap, (*range(1, n), 0)])


def group_from_generators(degree, generators):
    """Closure of permutation generators inside the symmetric group on
    `degree` letters, returned as a GroupTable on the closure's elements.
    """
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise BackendError("generator is not a permutation")
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(map(g.__getitem__, p))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elems = sorted(seen)
    pos = {p: i for i, p in enumerate(elems)}
    table = tuple(tuple(pos[tuple(map(a.__getitem__, b))] for b in elems) for a in elems)
    names = tuple("".join(map(str, p)) for p in elems)
    return GroupTable(table, names)


def group_to_json(group):
    return {"table": [list(row) for row in group.table],
            "names": list(group.names)}


# ---------------------------------------------------------------------------
# atoms and objects


class Atom(Value):
    """One named generator object.

    finset backend: size = number of elements, action[g] = tuple sending
    element i to action[g][i].

    linear/dy backends: dim = module rank, action[g] = Matrix.  For dy the
    group is trivial and pi (action of the base atom, dim*base_dim x dim...
    stored as a Matrix b (x) V -> V) and pistar (coaction V -> b (x) V)
    carry the structure instead.
    """

    __slots__ = ("name", "size", "action", "pi", "pistar")

    def __init__(self, name, size, action, pi=None, pistar=None):
        self.name, self.size, self.action, self.pi, self.pistar = name, size, action, pi, pistar


class ObjectRef(Value):
    """A tensor word in atom names; the empty word is the unit object.

    A dict key, immutable by contract.  Words are built and hashed by the
    thousand, so == and hash read the one field directly."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self):
        return hash((self.factors,))

    @classmethod
    def unit(cls):
        return cls(())

    @classmethod
    def atom(cls, name):
        return cls((name,))

    def tensor(self, other):
        return ObjectRef(self.factors + other.factors)

    def __len__(self):
        return len(self.factors)

    def label(self):
        return "(x)".join(self.factors) if self.factors else "1"


class MorphismRep(Value):
    """A morphism between tensor words, in the backend's flavor.

    Exactly one of table (function on element indices, finset) or matrix
    (linear/dy) is set.  Immutable by contract, as ObjectRef is (derive
    with scalars.replace, which checks again): morphisms are dict keys,
    e.g. of the adaptedness inverses a functor keeps.
    """

    __slots__ = ("dom", "cod", "table", "matrix")

    def __init__(self, dom, cod, table=None, matrix=None):
        if (table is None) == (matrix is None):
            raise BackendError("morphism needs exactly one of table, matrix")
        self.dom, self.cod, self.table, self.matrix = dom, cod, table, matrix


# ---------------------------------------------------------------------------
# the backend itself


class Backend(Value):
    __slots__ = ("kind", "group", "atoms", "ring", "base", "_braidings", "_memo", "_dy")
    _fields = __slots__[:5]

    def __init__(self, kind, group, atoms, ring=RATIONAL, base=None):
        self.kind = kind  # "finset" | "linear" | "dy"
        self.group = group
        self.atoms = atoms  # name -> Atom
        self.ring = ring
        self.base = base  # dy only: name of the acting/coacting atom
        self._braidings = {}  # (size, size) -> swap
        self._memo = {}  # size -> identity; factors -> size
        self._dy = {}  # (dy_action or dy_coaction, factors) -> map
        if self.kind not in ("finset", "linear", "dy"):
            raise BackendError(f"unknown backend kind {self.kind!r}")
        if self.kind == "dy":
            if self.base is None or self.base not in self.atoms:
                raise BackendError("dy backend needs a base atom")
        for atom in self.atoms.values():
            self._validate_atom(atom)

    def _validate_atom(self, atom):
        """Shapes, then act(e) = 1 and act(gh) = act(g) act(h) for every
        generator g and every h.  That is the whole homomorphism law: the
        g passing it include e and are closed under products, since for
        two of them act(g g' h) = act(g) act(g' h) = act(g) act(g') act(h)
        = act(g g') act(h), and every element is a product of generators.
        """
        n = self.group.order
        if len(atom.action) != n:
            raise BackendError(f"atom {atom.name}: action must list all group elements")
        pairs = [(g, h, self.group.mul(g, h)) for g in self.group.generators for h in range(n)]
        if self.kind == "finset":
            act = tuple(map(tuple, atom.action))
            for g, perm in enumerate(act):
                if sorted(perm) != list(range(atom.size)):
                    raise BackendError(f"atom {atom.name}: action of {g} is not a permutation")
            if act[0] != tuple(range(atom.size)) or any(
                    tuple(map(act[g].__getitem__, act[h])) != act[gh] for g, h, gh in pairs):
                raise BackendError(f"atom {atom.name}: action is not a homomorphism")
        else:
            for g, mat in enumerate(atom.action):
                if mat.rows != atom.size or mat.cols != atom.size:
                    raise BackendError(f"atom {atom.name}: action matrices must be {atom.size}x{atom.size}")
            if atom.action[0] != self._one(atom.size):
                raise BackendError(f"atom {atom.name}: identity must act as identity")
            act = atom.action
            if any(act[g] * act[h] != act[gh] for g, h, gh in pairs):
                raise BackendError(f"atom {atom.name}: action is not a homomorphism")
        if self.kind == "dy":
            bdim = self.atoms[self.base].size
            if atom.pi is None or atom.pistar is None:
                raise BackendError(f"atom {atom.name}: dy backend needs pi and pistar")
            if (atom.pi.rows, atom.pi.cols) != (atom.size, bdim * atom.size):
                raise BackendError(f"atom {atom.name}: pi must be {atom.size}x{bdim * atom.size}")
            if (atom.pistar.rows, atom.pistar.cols) != (bdim * atom.size, atom.size):
                raise BackendError(f"atom {atom.name}: pistar must be {bdim * atom.size}x{atom.size}")

    # -- object bookkeeping

    def atom_size(self, name):
        try:
            return self.atoms[name].size
        except KeyError:
            raise BackendError(f"unknown atom {name!r}") from None

    def obj_size(self, obj: ObjectRef):
        n = self._memo.get(obj.factors)  # atoms are only ever added
        if n is None:
            n = self._memo[obj.factors] = prod(map(self.atom_size, obj.factors))
        return n

    def unit(self):
        return ObjectRef.unit()

    def obj(self, *names):
        for name in names:
            self.atom_size(name)
        return ObjectRef(tuple(names))

    def trivial_atom(self, name, size):
        """The word of the atom `name` of the given size on which the whole
        group acts as the identity, registered on first use; the one
        place atoms are added after construction (functors register their
        images here).  Correct by construction, so not validated."""
        if name not in self.atoms:
            self.atoms[name] = Atom(name, size, (self._one(size),) * self.group.order)
        return ObjectRef.atom(name)

    # -- morphism constructors

    def identity_mor(self, obj):
        """The identity of a word; its table or matrix is built once per
        size and kept for this backend's lifetime."""
        one = self._one(self.obj_size(obj))
        if self.kind == "finset":
            return MorphismRep(obj, obj, table=one)
        return MorphismRep(obj, obj, matrix=one)

    def _one(self, n):
        """The identity table or matrix of size n, built once per size."""
        one = self._memo.get(n)
        if one is None:
            one = self._memo[n] = (tuple(range(n)) if self.kind == "finset"
                                   else Matrix.identity(n, self.ring))
        return one

    def mor_from_table(self, dom, cod, table):
        if self.kind != "finset":
            raise BackendError("function tables need the finset backend")
        n, m = self.obj_size(dom), self.obj_size(cod)
        if len(table) != n or any(not (0 <= x < m) for x in table):
            raise BackendError("function table out of range")
        return MorphismRep(dom, cod, table=tuple(table))

    def mor_from_matrix(self, dom, cod, matrix):
        if self.kind == "finset":
            raise BackendError("matrices need a linear backend")
        if matrix.ring != self.ring:
            raise BackendError("matrix over the wrong scalar ring")
        if (matrix.rows, matrix.cols) != (self.obj_size(cod), self.obj_size(dom)):
            raise BackendError("matrix shape disagrees with objects")
        return MorphismRep(dom, cod, matrix=matrix)

    def as_matrix(self, f: MorphismRep) -> Matrix:
        """Matrix of a morphism; function tables become 0/1 matrices."""
        if f.matrix is not None:
            return f.matrix
        return Matrix.from_table(self.ring, f.table, self.obj_size(f.cod))

    # -- composition and tensor

    def compose(self, *fs):
        """compose(f, g, ...) applies left to right: the result is
        (... o g o f), the diagram f then g then ...
        """
        if not fs:
            raise BackendError("nothing to compose")
        cur = fs[0]
        for nxt in fs[1:]:
            if cur.cod != nxt.dom:
                raise BackendError(
                    f"composition mismatch: {cur.cod.label()} vs {nxt.dom.label()}")
            if self.kind == "finset":
                cur = MorphismRep(cur.dom, nxt.cod,
                                  table=tuple(map(nxt.table.__getitem__, cur.table)))
            else:
                cur = MorphismRep(cur.dom, nxt.cod, matrix=nxt.matrix * cur.matrix)
        return cur

    def tensor_mor(self, f, g):
        dom = f.dom.tensor(g.dom)
        cod = f.cod.tensor(g.cod)
        if self.kind == "finset":
            table = _tensor_tables(f.table, g.table, self.obj_size(g.cod))
            return MorphismRep(dom, cod, table=table)
        return MorphismRep(dom, cod, matrix=mat_kron(f.matrix, g.matrix))

    def tensor_all(self, fs):
        if not fs:
            u = self.unit()
            return self.identity_mor(u)
        cur = fs[0]
        for f in fs[1:]:
            cur = self.tensor_mor(cur, f)
        return cur

    def compose_tensor(self, f, gs):
        """compose(f, tensor_all(gs)).  On finset the tensor product is
        evaluated only at f's values, by tensor_at: |f.dom| lookups per
        factor that is not an identity, none for identities, instead of a
        table of the product of the domain sizes.
        """
        if self.kind != "finset":
            return self.compose(f, self.tensor_all(gs))
        dom = ObjectRef(tuple(x for g in gs for x in g.dom.factors))
        if f.cod != dom:
            raise BackendError(f"composition mismatch: {f.cod.label()} vs {dom.label()}")
        cod = ObjectRef(tuple(x for g in gs for x in g.cod.factors))
        return MorphismRep(f.dom, cod, table=tuple(self.tensor_at(gs, f.table)))

    def tensor_at(self, gs, points):
        """The values of tensor_all(gs) at the given points of its domain
        (a list or any iterable), as a list, for finset tables gs.  A point
        is a mixed-radix number over the sizes of gs; the factors are read
        last first, each in one comprehension that replaces its own digit
        by its value and keeps the digits around it, so the digits after it
        are already codomain digits.  An identity identity_mor kept passes
        its digit through untouched and costs no pass: a run of them only
        scales the next factor, 1 (x) f (x) 1 is one pass, and a product of
        identities returns the points as they are."""
        out, scale = points, 1
        for g in reversed(gs):
            t, n, m = g.table, len(g.table), self.obj_size(g.cod)
            if t is not self._memo.get(n):
                step, span = n * scale, m * scale  # (a, x, b) -> (a, t[x], b)
                out = [v // step * span + t[v // scale % n] * scale + v % scale for v in out]
            scale *= m
        return list(points) if out is points else out

    def braiding(self, x: ObjectRef, y: ObjectRef):
        """The symmetry x (x) y -> y (x) x as a block transposition.  It
        depends on the sizes of x and y alone: one table (or matrix) is
        built per size pair and kept for this backend's lifetime, and each
        call wraps it with the words' endpoints."""
        sizes = (self.obj_size(x), self.obj_size(y))
        sw = self._braidings.get(sizes)
        if sw is None:
            sw = self._braidings[sizes] = self._swap(*sizes)
        if self.kind == "finset":
            return MorphismRep(x.tensor(y), y.tensor(x), table=sw)
        return MorphismRep(x.tensor(y), y.tensor(x), matrix=sw)

    def _swap(self, nx, ny):
        """The block flip of sizes nx and ny, as a table or a matrix."""
        sw = _flip(nx, ny)
        return sw if self.kind == "finset" else Matrix.from_table(self.ring, sw, nx * ny)

    # -- group action on objects

    def act(self, g, obj: ObjectRef) -> MorphismRep:
        """Diagonal action of group element g on a tensor word."""
        if self.kind == "finset":
            table = (0,)
            for name in obj.factors:
                perm = self.atoms[name].action[g]
                table = _tensor_tables(table, perm, len(perm))
            return MorphismRep(obj, obj, table=table)
        mat = self._one(1)
        for name in obj.factors:
            mat = mat_kron(mat, self.atoms[name].action[g])
        return MorphismRep(obj, obj, matrix=mat)

    # -- dy action/coaction on objects

    def dy_action(self, obj: ObjectRef) -> Matrix:
        """Action of the base atom on a tensor word, b (x) X -> X, built
        once per word and kept for this backend's lifetime.

        Extends factorwise: act on the first factor, or braid the base
        past it and act on the rest.
        """
        return self._dy_word("dy_action", obj)

    def dy_coaction(self, obj: ObjectRef) -> Matrix:
        """Coaction of the base atom on a tensor word, X -> b (x) X, built
        once per word and kept for this backend's lifetime."""
        return self._dy_word("dy_coaction", obj)

    def _dy_word(self, which, obj):
        """dy_action or dy_coaction of a word, memoized, by the head-first
        recursion over its factors."""
        self._need_dy()
        out = self._dy.get((which, obj.factors))
        if out is not None:
            return out
        action = which == "dy_action"
        if not obj.factors:
            bdim = self.atom_size(self.base)
            out = Matrix.zeros(*((1, bdim) if action else (bdim, 1)), self.ring)
        else:
            head, tail = ObjectRef(obj.factors[:1]), ObjectRef(obj.factors[1:])
            id_head = self.identity_mor(head).matrix
            id_tail = self.identity_mor(tail).matrix
            atom = self.atoms[obj.factors[0]]
            out = mat_kron(atom.pi if action else atom.pistar, id_tail)
            if tail.factors:
                base = ObjectRef.atom(self.base)
                rest = mat_kron(id_head, self._dy_word(which, tail))
                if action:
                    out = out + rest * mat_kron(self.braiding(base, head).matrix, id_tail)
                else:
                    out = out + mat_kron(self.braiding(head, base).matrix, id_tail) * rest
        self._dy[(which, obj.factors)] = out
        return out

    def _need_dy(self):
        if self.kind != "dy":
            raise BackendError("needs the dy backend")

    # -- equivariance

    def check_equivariant(self, f: MorphismRep):
        """All group elements commute with f; dy: f intertwines the base
        action and coaction.  Returns list of failure descriptions.

        Only the generators are tested unless one fails; then every element
        is walked, so that each failing element is listed in index order.
        """
        fm = self.as_matrix(f)

        def commutes(g):
            return (fm * self.as_matrix(self.act(g, f.dom))
                    == self.as_matrix(self.act(g, f.cod)) * fm)

        failures = []
        if not all(commutes(g) for g in self.group.generators):
            failures = [f"group element {self.group.names[g]} does not commute"
                        for g in self.group.elements() if not commutes(g)]
        if self.kind == "dy":
            lift = mat_kron(self._one(self.atom_size(self.base)), fm)
            if fm * self.dy_action(f.dom) != self.dy_action(f.cod) * lift:
                failures.append("base action does not commute")
            if self.dy_coaction(f.cod) * fm != lift * self.dy_coaction(f.dom):
                failures.append("base coaction does not commute")
        return failures

    def equal_mor(self, f, g):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        if f.table is not None and g.table is not None:
            return f.table == g.table
        return self.as_matrix(f) == self.as_matrix(g)


def _flip(nx, ny):
    """The block flip of sizes nx and ny as a function table: the point
    (a, b) at a * ny + b of x (x) y goes to (b, a) at b * nx + a."""
    table = []
    for a in range(nx):
        table += range(a, nx * ny, nx)
    return tuple(table)


def _tensor_tables(f, g, gc):
    """Row-major tensor product of two function tables: entry i * len(g) + j
    is f[i] * gc + g[j], where gc is the size of g's codomain.  Filled
    along the shorter of the two tables: by columns when g is shorter,
    else by rows."""
    ng = len(g)
    if ng < len(f):
        out = [0] * (len(f) * ng)
        shifted = [a * gc for a in f]
        for j, b in enumerate(g):
            out[j::ng] = [a + b for a in shifted]
        return tuple(out)
    out = []
    for a in f:
        out += map((a * gc).__add__, g)
    return tuple(out)


def _arrow_generators(n, hs, comp):
    """Arrows (i, j, a) that generate every arrow under composition, picked
    greedily from the tables: walk the arrows in order, take the first one
    not yet generated, and close under composition with the generators.
    hs[(i, j)] counts the arrows i -> j and comp[(i, j, k)] composes
    hom(i, j) x hom(j, k) -> hom(i, k) in row-major pair index."""
    rng = range(n)
    gens, got = [], set()
    for arrow in ((i, j, a) for i in rng for j in rng for a in range(hs[(i, j)])):
        if arrow in got:
            continue
        gens.append(arrow)
        got.add(arrow)
        frontier = set(got)
        while frontier:
            new = set()
            for p, q, x in frontier:
                for s, t, y in gens:
                    if q == s:
                        new.add((p, t, comp[(p, q, t)][x * hs[(q, t)] + y]))
                    if t == p:
                        new.add((s, q, comp[(s, t, q)][y * hs[(p, q)] + x]))
            frontier = new - got
            got |= frontier
    return gens


def _assoc_witness(n, hs, comp, gens):
    """Light's test on gens, the _arrow_generators of the tables.  The
    arrows s with (x*s)*y = x*(s*y) for all composable x, y are closed
    under composition, since
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y); so the law holds
    everywhere once it holds for every s of a generating set, whose
    closure adds only composites of arrows it already holds.  Returns ""
    when it holds, else the first failing (x, s, y) found.  Every entry of
    comp[(i, j, k)] must lie in range(hs[(i, k)])."""
    rng = range(n)
    for j, k, s in gens:
        for i in rng:
            xs = comp[(i, j, k)][s::hs[(j, k)]]
            for l in rng:
                hkl, hjl = hs[(k, l)], hs[(j, l)]
                sy = comp[(j, k, l)][s * hkl:(s + 1) * hkl]
                ikl, ijl = comp[(i, k, l)], comp[(i, j, l)]
                for x, xs_x in enumerate(xs):
                    lhs = ikl[xs_x * hkl:(xs_x + 1) * hkl]
                    rhs = tuple(map(ijl[x * hjl:(x + 1) * hjl].__getitem__, sy))
                    if lhs != rhs:
                        y = next(y for y in range(hkl) if lhs[y] != rhs[y])
                        return (f"(x*s)*y = {lhs[y]}, x*(s*y) = {rhs[y]} at "
                                f"{i},{j},{k},{l} with x={x}, s={s}, y={y}")
    return ""


# ---------------------------------------------------------------------------
# structural self-checks


def check_braiding_coherence(backend):
    """Coherence of the symmetry on small tensor words: the inverse law and
    both hexagons (strictified to products of swaps), read off the swaps
    the backend has kept, without composing any.  Returns failure
    descriptions; empty means coherent.

    Each law holds for the block flip at every size triple (Mac Lane,
    Categories for the Working Mathematician, ch. XI).  On the point
    (i, j, k) of x (x) y (x) z, sigma(x (x) y, z) and
    (sigma(x, z) (x) 1) o (1 (x) sigma(y, z)) both give (k, i, j), and
    sigma(x, y (x) z) and (1 (x) sigma(x, z)) o (sigma(x, y) (x) 1) both
    give (j, k, i); two flips give back (a, b).  Backend.braiding builds
    each swap as the flip, so only a kept swap can differ: each is compared
    by value with the flip of its sizes, and a law fails unless every swap
    it reads is a flip.  A pass proves the laws, and a kept swap that is
    not a flip fails every law that reads it.  So when every kept swap is
    a flip, every law reads flips only, and nothing is walked.
    """
    bad = {sizes for sizes, sw in backend._braidings.items() if sw != backend._swap(*sizes)}
    if not bad:
        return []

    def is_flip(x, y):
        return (backend.obj_size(x), backend.obj_size(y)) not in bad

    failures = []
    names = sorted(backend.atoms)
    words = [ObjectRef.unit()] + [ObjectRef.atom(n) for n in names]
    for x in words:
        for y in words:
            if not (is_flip(x, y) and is_flip(y, x)):
                failures.append(f"swap of {x.label()},{y.label()} not involutive")
    for x, y, z in product(words[1:], repeat=3):
        at = f"{x.label()},{y.label()},{z.label()}"
        if not (is_flip(x.tensor(y), z) and is_flip(y, z) and is_flip(x, z)):
            failures.append(f"hexagon fails at {at}")
        if not (is_flip(x, y.tensor(z)) and is_flip(x, y) and is_flip(x, z)):
            failures.append(f"hexagon (right) fails at {at}")
    return failures


def check_dy_tensor_closure(backend):
    """Each dy map the backend has kept against the same word's map on a
    fresh backend of the same atoms, words in order.  Backend.dy_action
    and dy_coaction build a word's maps once, by the head-first recursion
    (the cut after its first letter), and keep them; so this compares what
    was kept with a fresh run of that recursion, and holds whatever the
    atoms' pi and pistar are, module or not.  The fresh backend is built
    only when some map is kept.
    """
    backend._need_dy()
    failures, fresh = [], None
    for which, factors in sorted(backend._dy, key=lambda key: key[::-1]):
        fresh = fresh or replace(backend)
        w = ObjectRef(factors)
        if backend._dy[(which, factors)] != fresh._dy_word(which, w):
            kind = which.removeprefix("dy_")
            failures.append(f"{kind} extension inconsistent at cut 1 of {w.label()}")
    return failures


# ---------------------------------------------------------------------------
# handy constructors


def regular_atom(name, group):
    """Finset atom: the group acting on itself by left translation."""
    n = group.order
    action = tuple(tuple(group.mul(g, a) for a in range(n)) for g in range(n))
    return Atom(name, n, action)


def trivial_group():
    return cyclic_group(1)


def finset_backend(group, atoms):
    return Backend("finset", group, {a.name: a for a in atoms})


def linear_backend(group, atoms, ring=RATIONAL):
    return Backend("linear", group, {a.name: a for a in atoms}, ring=ring)


def regular_linear_atom(name, group, ring=RATIONAL):
    """Permutation matrices of the left regular action."""
    n = group.order
    return Atom(name, n, tuple(Matrix.from_table(ring, group.table[g], n) for g in range(n)))


def dy_backend(base_atom, other_atoms, ring=RATIONAL):
    """Backend of modules-with-coaction over a fixed base atom; the group
    is trivial, all structure lives in pi/pistar.
    """
    atoms = {base_atom.name: base_atom}
    for a in other_atoms:
        atoms[a.name] = a
    return Backend("dy", trivial_group(), atoms, ring=ring, base=base_atom.name)
