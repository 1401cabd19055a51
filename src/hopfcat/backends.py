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

import itertools
from dataclasses import dataclass, field

from .linalg import Matrix, mat_kron
from .scalars import RATIONAL, Ring


class BackendError(ValueError):
    pass


# ---------------------------------------------------------------------------
# finite groups as explicit multiplication tables


@dataclass(frozen=True)
class GroupTable:
    """Finite group on indices 0..n-1 with 0 the identity.

    table[g][h] = g * h.

    generators is a generating set, computed once per table: greedily take
    the smallest index not in the subgroup generated so far.  This gives
    S4 -> (1, 2, 6), Z8 -> (1,), the trivial group -> ().  Orbits of the
    group are the orbits of its generators, and a map commutes with every
    element iff it commutes with the generators.
    """

    table: tuple  # tuple of tuples
    names: tuple = None

    def __post_init__(self):
        n = len(self.table)
        if self.names is None:
            object.__setattr__(self, "names", tuple(str(i) for i in range(n)))
        validate_group(self.table)
        object.__setattr__(self, "generators", _greedy_generators(self.table))

    @property
    def order(self):
        return len(self.table)

    def mul(self, g, h):
        return self.table[g][h]

    def inv(self, g):
        row = self.table[g]
        for h, x in enumerate(row):
            if x == 0:
                return h
        raise BackendError("element without inverse")

    def elements(self):
        return range(self.order)


def _greedy_generators(table):
    gens = []
    sub = {0}
    for g in range(len(table)):
        if g in sub:
            continue
        gens.append(g)
        frontier = set(sub)
        while frontier:
            frontier = {table[h][x] for h in frontier for x in gens} - sub
            sub |= frontier
    return tuple(gens)


def validate_group(table):
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
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if table[table[g][h]][k] != table[g][table[h][k]]:
                    raise BackendError("associativity fails")


def cyclic_group(n):
    if n < 1:
        raise BackendError("order must be positive")
    table = tuple(tuple((g + h) % n for h in range(n)) for g in range(n))
    return GroupTable(table, tuple(f"r{g}" if g else "e" for g in range(n)))


def symmetric_group(n):
    """Symmetric group on n letters; elements are lex-sorted permutations.

    Composition (g * h)(i) = g[h[i]], i.e. apply h first.  The identity
    permutation sorts first, so index 0 is the identity as required.
    """
    if n < 1:
        raise BackendError("degree must be positive")
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(pos[tuple(g[h[i]] for i in range(n))] for h in perms)
        for g in perms
    )
    names = tuple("".join(map(str, p)) for p in perms)
    return GroupTable(table, names)


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
                q = tuple(g[p[i]] for i in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elems = sorted(seen)
    pos = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(pos[tuple(a[b[i]] for i in range(degree))] for b in elems)
        for a in elems
    )
    names = tuple("".join(map(str, p)) for p in elems)
    return GroupTable(table, names)


def group_to_json(group):
    return {"table": [list(row) for row in group.table],
            "names": list(group.names)}


# ---------------------------------------------------------------------------
# atoms and objects


@dataclass(frozen=True)
class Atom:
    """One named generator object.

    finset backend: size = number of elements, action[g] = tuple sending
    element i to action[g][i].

    linear/dy backends: dim = module rank, action[g] = Matrix.  For dy the
    group is trivial and pi (action of the base atom, dim*base_dim x dim...
    stored as a Matrix b (x) V -> V) and pistar (coaction V -> b (x) V)
    carry the structure instead.
    """

    name: str
    size: int
    action: tuple
    pi: Matrix = None
    pistar: Matrix = None


@dataclass(frozen=True)
class ObjectRef:
    """A tensor word in atom names; the empty word is the unit object."""

    factors: tuple

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


@dataclass(frozen=True)
class MorphismRep:
    """A morphism between tensor words, in the backend's flavor.

    Exactly one of table (function on element indices, finset) or matrix
    (linear/dy) is set.
    """

    dom: ObjectRef
    cod: ObjectRef
    table: tuple = None
    matrix: Matrix = None

    def __post_init__(self):
        if (self.table is None) == (self.matrix is None):
            raise BackendError("morphism needs exactly one of table, matrix")


# ---------------------------------------------------------------------------
# the backend itself


@dataclass(frozen=True)
class Backend:
    kind: str  # "finset" | "linear" | "dy"
    group: GroupTable
    atoms: dict  # name -> Atom
    ring: Ring = RATIONAL
    base: str = None  # dy only: name of the acting/coacting atom
    _braidings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("finset", "linear", "dy"):
            raise BackendError(f"unknown backend kind {self.kind!r}")
        if self.kind == "dy":
            if self.base is None or self.base not in self.atoms:
                raise BackendError("dy backend needs a base atom")
        for atom in self.atoms.values():
            self._validate_atom(atom)

    def _validate_atom(self, atom):
        n = self.group.order
        if len(atom.action) != n:
            raise BackendError(f"atom {atom.name}: action must list all group elements")
        if self.kind == "finset":
            for g, perm in enumerate(atom.action):
                if sorted(perm) != list(range(atom.size)):
                    raise BackendError(f"atom {atom.name}: action of {g} is not a permutation")
            for g in range(n):
                for h in range(n):
                    gh = self.group.mul(g, h)
                    for i in range(atom.size):
                        if atom.action[g][atom.action[h][i]] != atom.action[gh][i]:
                            raise BackendError(f"atom {atom.name}: action is not a homomorphism")
        else:
            for g, mat in enumerate(atom.action):
                if mat.rows != atom.size or mat.cols != atom.size:
                    raise BackendError(f"atom {atom.name}: action matrices must be {atom.size}x{atom.size}")
            ident = Matrix.identity(atom.size, self.ring)
            if atom.action[0] != ident:
                raise BackendError(f"atom {atom.name}: identity must act as identity")
            for g in range(n):
                for h in range(n):
                    gh = self.group.mul(g, h)
                    if atom.action[g] * atom.action[h] != atom.action[gh]:
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
        n = 1
        for name in obj.factors:
            n *= self.atom_size(name)
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
            one = (tuple(range(size)) if self.kind == "finset"
                   else Matrix.identity(size, self.ring))
            self.atoms[name] = Atom(name, size, (one,) * self.group.order)
        return ObjectRef.atom(name)

    # -- morphism constructors

    def identity_mor(self, obj):
        n = self.obj_size(obj)
        if self.kind == "finset":
            return MorphismRep(obj, obj, table=tuple(range(n)))
        return MorphismRep(obj, obj, matrix=Matrix.identity(n, self.ring))

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
        evaluated only at f's values: each value is split into mixed-radix
        digits over the domain sizes of gs, digit i goes through gs[i], and
        the images are recombined over the codomain sizes; |f.dom|*len(gs)
        lookups instead of a table of the product of the domain sizes.
        """
        if self.kind != "finset":
            return self.compose(f, self.tensor_all(gs))
        dom = ObjectRef(tuple(x for g in gs for x in g.dom.factors))
        if f.cod != dom:
            raise BackendError(f"composition mismatch: {f.cod.label()} vs {dom.label()}")
        vals, out, scale = f.table, [0] * len(f.table), 1
        for g in reversed(gs):
            n, t = len(g.table), g.table
            out = [o + t[v % n] * scale for o, v in zip(out, vals)]
            vals = [v // n for v in vals]
            scale *= self.obj_size(g.cod)
        cod = ObjectRef(tuple(x for g in gs for x in g.cod.factors))
        return MorphismRep(f.dom, cod, table=tuple(out))

    def braiding(self, x: ObjectRef, y: ObjectRef):
        """The symmetry x (x) y -> y (x) x as a block transposition,
        built once per pair of words and kept for this backend's lifetime."""
        key = (x.factors, y.factors)
        sw = self._braidings.get(key)
        if sw is None:
            nx, ny = self.obj_size(x), self.obj_size(y)
            dom = x.tensor(y)
            cod = y.tensor(x)
            # (a, b) at a * ny + b goes to (b, a) at b * nx + a
            table = []
            for a in range(nx):
                table += range(a, nx * ny, nx)
            table = tuple(table)
            if self.kind == "finset":
                sw = MorphismRep(dom, cod, table=table)
            else:
                sw = self.mor_from_matrix(dom, cod, Matrix.from_table(self.ring, table, nx * ny))
            self._braidings[key] = sw
        return sw

    # -- group action on objects

    def act(self, g, obj: ObjectRef) -> MorphismRep:
        """Diagonal action of group element g on a tensor word."""
        if self.kind == "finset":
            table = (0,)
            for name in obj.factors:
                perm = self.atoms[name].action[g]
                table = _tensor_tables(table, perm, len(perm))
            return MorphismRep(obj, obj, table=table)
        mat = Matrix.identity(1, self.ring)
        for name in obj.factors:
            mat = mat_kron(mat, self.atoms[name].action[g])
        return MorphismRep(obj, obj, matrix=mat)

    # -- dy action/coaction on objects

    def dy_action(self, obj: ObjectRef) -> Matrix:
        """Action of the base atom on a tensor word, b (x) X -> X.

        Extends factorwise: act on the first factor, or braid the base
        past it and act on the rest.
        """
        self._need_dy()
        bdim = self.atom_size(self.base)
        if not obj.factors:
            return Matrix.zeros(1, bdim, self.ring)
        head = obj.factors[0]
        tail = ObjectRef(obj.factors[1:])
        hd = self.atom_size(head)
        td = self.obj_size(tail)
        pi_head = self.atoms[head].pi  # hd x (bdim*hd)
        first = mat_kron(pi_head, Matrix.identity(td, self.ring))
        if not tail.factors:
            return first
        swap = self.as_matrix(self.braiding(ObjectRef.atom(self.base), ObjectRef.atom(head)))
        rest = mat_kron(Matrix.identity(hd, self.ring), self.dy_action(tail))
        second = rest * mat_kron(swap, Matrix.identity(td, self.ring))
        return first + second

    def dy_coaction(self, obj: ObjectRef) -> Matrix:
        """Coaction of the base atom on a tensor word, X -> b (x) X."""
        self._need_dy()
        bdim = self.atom_size(self.base)
        if not obj.factors:
            return Matrix.zeros(bdim, 1, self.ring)
        head = obj.factors[0]
        tail = ObjectRef(obj.factors[1:])
        hd = self.atom_size(head)
        td = self.obj_size(tail)
        first = mat_kron(self.atoms[head].pistar, Matrix.identity(td, self.ring))
        if not tail.factors:
            return first
        swap = self.as_matrix(self.braiding(ObjectRef.atom(head), ObjectRef.atom(self.base)))
        rest = mat_kron(Matrix.identity(hd, self.ring), self.dy_coaction(tail))
        second = mat_kron(swap, Matrix.identity(td, self.ring)) * rest
        return first + second

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
            bdim = self.atom_size(self.base)
            lift = mat_kron(Matrix.identity(bdim, self.ring), fm)
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


# ---------------------------------------------------------------------------
# structural self-checks


def check_braiding_coherence(backend):
    """Naturality-free coherence of the symmetry on small tensor words:
    inverse law and both hexagons (strictified to products of swaps).
    Returns failure descriptions; empty means coherent.
    """
    failures = []
    names = sorted(backend.atoms)
    words = [ObjectRef.unit()] + [ObjectRef.atom(n) for n in names]
    for x in words:
        for y in words:
            s = backend.braiding(x, y)
            sback = backend.braiding(y, x)
            both = backend.compose(s, sback)
            if not backend.equal_mor(both, backend.identity_mor(x.tensor(y))):
                failures.append(f"swap of {x.label()},{y.label()} not involutive")
    for x in words[1:]:
        for y in words[1:]:
            for z in words[1:]:
                xy = x.tensor(y)
                lhs = backend.braiding(xy, z)
                step1 = backend.tensor_mor(backend.identity_mor(x), backend.braiding(y, z))
                step2 = backend.tensor_mor(backend.braiding(x, z), backend.identity_mor(y))
                rhs = backend.compose(step1, step2)
                if not backend.equal_mor(lhs, rhs):
                    failures.append(
                        f"hexagon fails at {x.label()},{y.label()},{z.label()}")
                yz = y.tensor(z)
                lhs2 = backend.braiding(x, yz)
                stepa = backend.tensor_mor(backend.braiding(x, y), backend.identity_mor(z))
                stepb = backend.tensor_mor(backend.identity_mor(y), backend.braiding(x, z))
                rhs2 = backend.compose(stepa, stepb)
                if not backend.equal_mor(lhs2, rhs2):
                    failures.append(
                        f"hexagon (right) fails at {x.label()},{y.label()},{z.label()}")
    return failures


def check_dy_tensor_closure(backend, words=None):
    """The extended action/coaction on tensor words must again satisfy the
    module and comodule axioms if the atoms do; here we check the module
    axiom (associativity over the base bracket is deferred to the caller,
    since plain backends carry no bracket) in the weak form: extension is
    consistent with splitting the word at every position.
    """
    backend._need_dy()
    failures = []
    if words is None:
        names = sorted(backend.atoms)
        words = [ObjectRef((a, b)) for a in names for b in names]
    for w in words:
        for cut in range(1, len(w.factors)):
            left = ObjectRef(w.factors[:cut])
            right = ObjectRef(w.factors[cut:])
            ld, rd = backend.obj_size(left), backend.obj_size(right)
            bdim = backend.atom_size(backend.base)
            swap = backend.as_matrix(backend.braiding(ObjectRef.atom(backend.base), left))
            # action: pi_w = pi_left (x) id + (id (x) pi_right)(swap (x) id)
            expect = (mat_kron(backend.dy_action(left), Matrix.identity(rd, backend.ring))
                      + mat_kron(Matrix.identity(ld, backend.ring), backend.dy_action(right))
                      * mat_kron(swap, Matrix.identity(rd, backend.ring)))
            if backend.dy_action(w) != expect:
                failures.append(f"action extension inconsistent at cut {cut} of {w.label()}")
            swap2 = backend.as_matrix(backend.braiding(left, ObjectRef.atom(backend.base)))
            expect2 = (mat_kron(backend.dy_coaction(left), Matrix.identity(rd, backend.ring))
                       + mat_kron(swap2, Matrix.identity(rd, backend.ring))
                       * mat_kron(Matrix.identity(ld, backend.ring), backend.dy_coaction(right)))
            if backend.dy_coaction(w) != expect2:
                failures.append(f"coaction extension inconsistent at cut {cut} of {w.label()}")
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
