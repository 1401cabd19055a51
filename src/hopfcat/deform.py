"""Infinitesimal braidings and the deformed constructor over truncated
polynomial scalars.

The deformation datum is one rational matrix per ordered atom pair,
read as an endomorphism of the pair's tensor product and extended to
arbitrary tensor words by two peeling rules: a composite left argument
splits off its first factor, a composite right argument likewise, with
the far factor carried past the symmetry and back.  The unit word gets
the zero map.  A datum is only usable once `check_pre_cartier` accepts
it: the peeling rules must be cut-independent, the maps natural and
equivariant, and the commutation and antisymmetry laws must hold.

The deformed symmetry on a pair is the plain symmetry composed with
the truncated exponential of the formal parameter times the extended
map.  In the constructor only each hom's splitting and antipode read
the symmetry, and both are linear in it.  So the deformed structure is
the plain one embedded in the series ring, with those two maps rebuilt
degree by degree from the rational coefficients of the deformed
symmetry; nothing is inverted or re-certified over the series ring, and
the degree-zero part is the plain structure itself.  A zero coefficient
(t = 0 on the pair, or t^d = 0) gives zero maps, so only the nonzero
degrees are rebuilt.
"""

from __future__ import annotations

from fractions import Fraction

from .backends import Atom, Backend, BackendError, MorphismRep, ObjectRef
from .coalg import HopfCategoryData, LawRecord, all_hold, failures, is_cocommutative
from .hopfcategory import PreCartierViolation, split_and_antipode
from .linalg import (Matrix, lift_matrix, mat_kron, reduce_matrix, series_coefficients,
                     series_matrix)
from .scalars import RATIONAL, Value, hseries_ring, replace


# ---------------------------------------------------------------------------
# the infinitesimal braiding datum


def _word(spec) -> tuple:
    """Normalize an atom name or factor sequence to a factor tuple."""
    if isinstance(spec, str):
        return (spec,)
    if isinstance(spec, ObjectRef):
        return spec.factors
    return tuple(spec)


class PreCartierData(Value):
    """table[(x, y)] is the rational matrix of t on the pair of tensor
    words x, y (atom names allowed as shorthand for one-letter words).
    Unlisted pairs are filled in by the peeling rules, with atoms and
    the unit word bottoming out at zero.  Since the rules derive every
    word entry from the atom entries, explicit composite entries are
    redundant data whose consistency `check_pre_cartier` verifies.

    _support is the set of atom pairs with a nonzero stored matrix when
    every stored key is an atom pair, else None: by the peeling rules t
    on (x, y) is then a sum of conjugates of t(a, b), one per letter a of
    x and b of y, zero when no (a, b) is in the support."""

    __slots__ = ("backend", "table", "_cache", "_support")
    _fields = ("backend", "table")
    __hash__ = None

    def __init__(self, backend, table=None):
        if backend.kind == "finset":
            raise BackendError("infinitesimal braidings need linear scalars")
        if backend.ring != RATIONAL:
            raise BackendError("deformation data lives over the rationals")
        norm = {}
        for (a, b), m in (table or {}).items():
            fx, fy = _word(a), _word(b)
            n = backend.obj_size(ObjectRef(fx)) * backend.obj_size(ObjectRef(fy))
            if m.ring != RATIONAL or m.rows != n or m.cols != n:
                raise BackendError(f"t[{fx},{fy}] has the wrong shape")
            norm[(fx, fy)] = m
        self.backend, self.table, self._cache = backend, norm, {}
        self._support = ({(a, b) for ((a,), (b,)), m in norm.items() if not m.is_zero()}
                         if all(len(x) == len(y) == 1 for x, y in norm) else None)

    def t(self, x: ObjectRef, y: ObjectRef) -> MorphismRep:
        """The extended map x (x) y -> x (x) y."""
        key = (x.factors, y.factors)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        be = self.backend
        dom = x.tensor(y)
        stored = self.table.get(key)
        if stored is not None:
            mor = be.mor_from_matrix(dom, dom, stored)
        elif len(x.factors) >= 2 and y.factors:
            # peel the first factor of the left argument
            mor = be.mor_from_matrix(dom, dom, self.t_cut_left(
                ObjectRef(x.factors[:1]), ObjectRef(x.factors[1:]), y))
        elif len(y.factors) >= 2 and x.factors:
            # peel the first factor of the right argument
            mor = be.mor_from_matrix(dom, dom, self.t_cut_right(
                x, ObjectRef(y.factors[:1]), ObjectRef(y.factors[1:])))
        else:  # the unit word, or an atom pair the table leaves out
            mor = be.mor_from_matrix(
                dom, dom, Matrix.zeros(be.obj_size(dom), be.obj_size(dom), RATIONAL))
        self._cache[key] = mor
        return mor

    def vanishes(self, x: ObjectRef, y: ObjectRef) -> bool:
        """Whether t is the zero map on (x, y): read from the letters
        alone when no letter pair of (x, y) is in the support, else from t
        built and tested."""
        sup = self._support
        if sup is not None and not any((a, b) in sup for a in x.factors for b in y.factors):
            return True
        return self.t(x, y).matrix.is_zero()

    def t_cut_left(self, x: ObjectRef, y: ObjectRef, z: ObjectRef) -> Matrix:
        """t on (x (x) y, z) by the left rule at the cut x|y: id_x (x) t(y, z)
        plus t(x, z) with y carried past z and back."""
        be = self.backend
        idx = be.identity_mor(x)
        near = be.tensor_mor(idx, self.t(y, z)).matrix
        if self.vanishes(x, z):
            return near
        far = be.compose(
            be.tensor_mor(idx, be.braiding(y, z)),
            be.tensor_mor(self.t(x, z), be.identity_mor(y)),
            be.tensor_mor(idx, be.braiding(z, y)))
        return near + far.matrix

    def t_cut_right(self, x: ObjectRef, y: ObjectRef, z: ObjectRef) -> Matrix:
        """t on (x, y (x) z) by the right rule at the cut y|z: t(x, y) (x) id_z
        plus t(x, z) with y carried past x and back."""
        be = self.backend
        idz = be.identity_mor(z)
        near = be.tensor_mor(self.t(x, y), idz).matrix
        if self.vanishes(x, z):
            return near
        far = be.compose(
            be.tensor_mor(be.braiding(x, y), idz),
            be.tensor_mor(be.identity_mor(y), self.t(x, z)),
            be.tensor_mor(be.braiding(y, x), idz))
        return near + far.matrix


def casimir_t(backend, r: Matrix) -> PreCartierData:
    """Infinitesimal braiding from a 2-tensor on the base: on a pair of
    atoms, t = sum over (a, b) of r[a,b] * (e_a acting) (x) (e_b acting).

    Equivariance of the result needs r invariant under the base's
    self-bracket; for an abelian base every r qualifies.
    """
    if backend.kind != "dy":
        raise BackendError("casimir data needs base-atom actions")
    bdim = backend.atom_size(backend.base)
    if r.ring != RATIONAL or r.rows != bdim or r.cols != bdim:
        raise BackendError("2-tensor must be square over the base dimension")

    def generator_action(name, a):
        d = backend.atoms[name].size
        lo = a * d
        return Matrix.sparse(d, d, RATIONAL, [{j - lo: x for j, x in r.items() if lo <= j < lo + d}
                                              for r in backend.atoms[name].pi.nz])

    table = {}
    names = sorted(backend.atoms)
    for nx in names:
        for ny in names:
            n = backend.atom_size(nx) * backend.atom_size(ny)
            acc = Matrix.zeros(n, n, RATIONAL)
            for a in range(bdim):
                for b in range(bdim):
                    c = r[a, b]
                    if not c:
                        continue
                    acc = acc + mat_kron(generator_action(nx, a),
                                         generator_action(ny, b)).scale(c)
            if not acc.is_zero():
                table[(nx, ny)] = acc
    return PreCartierData(backend, table)


# ---------------------------------------------------------------------------
# the laws


def check_pre_cartier(pc: PreCartierData, sample, *, inf_cocommutative=(),
                      convention="t_delta_zero", inf_braided=None):
    """Check the laws exactly on the sampled objects.

    sample: nonempty list of ObjectRef; pairs and triples are drawn from
    it, so include composite words to exercise the peeling rules at
    interior cuts.  The extension records compare pc.t(x, y (x) z) with
    the right rule at the cut y|z, and pc.t(x (x) y, z) with the left rule
    at x|y, for every sampled triple but those where pc.t computed that
    very value by that rule at that cut: the pair is not in pc.table, x
    is one atom, z is not empty, and y is one atom (right rule) or not
    empty (left rule).  There pc.t peels the first factor off its longer
    argument, which is that cut, so the comparison would set a value
    against itself and cannot fail.  Naturality is checked against the
    symmetries sigma_{a,b} (x) 1_c and 1_c (x) sigma_{a,b} of sampled
    a, b, c.
    inf_cocommutative comonoids are checked per the convention:
    "literal" asks t.delta = delta, "t_delta_zero" asks t.delta = 0
    (sigma.delta = delta either way).  inf_braided takes a functor out of
    pc.backend and asks F(t) F2 = 0, since the target's datum is zero.
    A law that reads only zero components of t (pc.vanishes) holds with
    both sides zero, and is not multiplied out; a component whose letter
    pairs are all outside the datum's support is known zero unbuilt.
    """
    if not sample:
        raise BackendError("need at least one sampled object")
    if convention not in ("literal", "t_delta_zero"):
        raise BackendError(f"unknown convention {convention!r}")
    be = pc.backend
    records = []

    # every sampled component must be a morphism of the backend
    bad = []
    for x in sample:
        for y in sample:
            if not pc.vanishes(x, y) and be.check_equivariant(pc.t(x, y)):
                bad.append(f"({x.label()},{y.label()})")
    records.append(LawRecord("precartier.morphism", not bad, "; ".join(bad)))

    # both peeling rules, recomputed at the sampled cut, where pc.t did
    # not compute the value by that rule at that cut itself
    bad_l, bad_r = [], []
    for x in sample:
        for y in sample:
            for z in sample:
                lbl = f"({x.label()},{y.label()},{z.label()})"
                yz, xy = y.tensor(z), x.tensor(y)
                peeled = len(x) == 1 and len(z) > 0
                own_r = peeled and len(y) == 1 and (x.factors, yz.factors) not in pc.table
                own_l = peeled and len(y) > 0 and (xy.factors, z.factors) not in pc.table
                if not own_r and pc.t(x, yz).matrix != pc.t_cut_right(x, y, z):
                    bad_r.append(lbl)
                if not own_l and pc.t(xy, z).matrix != pc.t_cut_left(x, y, z):
                    bad_l.append(lbl)
    records.append(LawRecord("precartier.extension.right", not bad_r, "; ".join(bad_r)))
    records.append(LawRecord("precartier.extension.left", not bad_l, "; ".join(bad_l)))

    # naturality: against sampled symmetries
    nat = []
    for a in sample:
        for b in sample:
            for c in sample:
                nat.append((be.braiding(a, b), be.identity_mor(c)))
                nat.append((be.identity_mor(c), be.braiding(a, b)))
    bad = []
    for f, g in nat:
        if pc.vanishes(f.dom, g.dom) and pc.vanishes(f.cod, g.cod):
            continue
        fg = be.tensor_mor(f, g)
        lhs = be.compose(pc.t(f.dom, g.dom), fg)
        rhs = be.compose(fg, pc.t(f.cod, g.cod))
        if not be.equal_mor(lhs, rhs):
            bad.append(f"({f.dom.label()}->{f.cod.label()},"
                       f"{g.dom.label()}->{g.cod.label()})")
    records.append(LawRecord("precartier.natural", not bad, "; ".join(bad)))

    bad = []
    for x in sample:
        for y in sample:
            for z in sample:
                if pc.vanishes(x, y) or pc.vanishes(y, z):
                    continue
                left = be.tensor_mor(pc.t(x, y), be.identity_mor(z))
                right = be.tensor_mor(be.identity_mor(x), pc.t(y, z))
                if left.matrix * right.matrix != right.matrix * left.matrix:
                    bad.append(f"({x.label()},{y.label()},{z.label()})")
    records.append(LawRecord("precartier.commutation", not bad, "; ".join(bad)))

    bad = []
    for x in sample:
        for y in sample:
            if pc.vanishes(x, y) and pc.vanishes(y, x):
                continue
            sw = be.braiding(x, y)
            lhs = be.compose(sw, pc.t(y, x))
            rhs = be.compose(pc.t(x, y), sw)
            if lhs.matrix != -rhs.matrix:
                bad.append(f"({x.label()},{y.label()})")
    records.append(LawRecord("precartier.antisym", not bad, "; ".join(bad)))

    for m in inf_cocommutative:
        tag = m.name or m.obj.label()
        records.append(LawRecord(f"precartier.inf_cocomm.sigma[{tag}]", is_cocommutative(be, m)))
        td = be.compose(m.delta, pc.t(m.obj, m.obj))
        if convention == "literal":
            holds = be.equal_mor(td, m.delta)
        else:
            holds = td.matrix.is_zero()
        records.append(LawRecord(f"precartier.inf_cocomm.t[{tag}]", holds, convention))

    if inf_braided is not None:
        fun = inf_braided
        if fun.source is not be:
            raise BackendError("functor source does not carry the deformation data")
        bad = []
        for x in sample:
            for y in sample:
                if pc.vanishes(x, y):
                    continue
                lhs = fun.target.compose(fun.apply_mor(pc.t(x, y)), fun.f2(x, y))
                if not lhs.matrix.is_zero():
                    bad.append(f"({x.label()},{y.label()})")
        records.append(LawRecord("precartier.inf_braided", not bad, "; ".join(bad)))

    return records


# ---------------------------------------------------------------------------
# the deformed braiding


def deformed_braiding(pc: PreCartierData, x: ObjectRef, y: ObjectRef,
                      order: int) -> MorphismRep:
    """Symmetry times the exponential of the formal parameter times t,
    truncated at the given degree; a morphism over the series ring whose
    degree-d coefficient is sigma t^d / d!."""
    if order < 0:
        raise BackendError("truncation order must be nonnegative")
    t = pc.t(x, y).matrix
    terms = [pc.backend.braiding(x, y).matrix]
    for m in range(1, order + 1):
        terms.append((terms[-1] * t).scale(Fraction(1, m)))
    return MorphismRep(x.tensor(y), y.tensor(x),
                       matrix=series_matrix(terms, hseries_ring(order)))


# ---------------------------------------------------------------------------
# moving rational data between the rationals and the series ring


def _matrix_in(m: Matrix, ring) -> Matrix:
    return reduce_matrix(m) if ring == RATIONAL else lift_matrix(m, ring)


def change_ring(backend: Backend, ring) -> Backend:
    """The same backend with every structure matrix embedded in a series
    ring, or reduced to its degree-0 part when ring is the rationals.
    Each distinct matrix object is moved once: image atoms of one size
    share one identity."""
    if backend.kind == "finset":
        raise BackendError("only linear backends change scalar ring")
    if backend.ring == ring:
        return backend
    moved = {id(None): None}  # id(m) -> m in ring; every m stays alive in backend

    def move(m):
        if id(m) not in moved:
            moved[id(m)] = _matrix_in(m, ring)
        return moved[id(m)]

    atoms = {name: Atom(name, a.size, tuple(map(move, a.action)),
                        pi=move(a.pi), pistar=move(a.pistar))
             for name, a in backend.atoms.items()}
    return Backend(backend.kind, backend.group, atoms, ring=ring,
                   base=backend.base)


def _structure_in(data: HopfCategoryData, ring) -> HopfCategoryData:
    """data over its backend moved into ring, every map with it; data
    itself when its backend is over ring already."""
    if data.backend.ring == ring:
        return data

    def move(maps):
        return {k: replace(f, matrix=_matrix_in(f.matrix, ring)) for k, f in maps.items()}

    return HopfCategoryData(data.labels, change_ring(data.backend, ring), dict(data.hom),
                            *map(move, (data.mult, data.unit, data.delta, data.eps,
                                        data.antipode)))


def reduce_order0(data: HopfCategoryData) -> HopfCategoryData:
    """Drop every positive-degree coefficient of a deformed structure."""
    return _structure_in(data, RATIONAL)


# ---------------------------------------------------------------------------
# the deformed constructor


def require_pre_cartier(functor, comonoids, pc=None, convention="t_delta_zero"):
    """pc (the zero datum when omitted), once the deformation laws hold on
    the comonoids' objects; raises PreCartierViolation otherwise."""
    if pc is None:
        pc = PreCartierData(functor.source)
    if pc.backend is not functor.source:
        raise BackendError("deformation data lives on a different backend")
    records = check_pre_cartier(
        pc, [c.obj for c in comonoids], inf_cocommutative=comonoids,
        convention=convention, inf_braided=functor)
    if not all_hold(records):
        raise PreCartierViolation("; ".join(f"{r.rule}: {r.detail}" if r.detail else r.rule
                                            for r in failures(records)))
    return pc


def build_deformed_hopf_category(plain, functor, comonoids, order, pc=None, *,
                                 convention="t_delta_zero") -> HopfCategoryData:
    """plain, the structure build_hopf_category made from functor and
    comonoids, deformed to the given order.

    The deformation laws are verified first (require_pre_cartier).  The
    multiplications, units and counits of plain are then embedded in the
    series ring, and each hom's splitting and antipode, the only maps that
    read the symmetry, are built from the deformed symmetry degree by
    degree: both are linear in it, so each nonzero rational coefficient
    goes through split_and_antipode, a zero one gives the zero maps
    between the same objects, and the results are summed back into one
    series map.  Nothing is inverted over the series ring.  Order 0
    returns plain itself.
    """
    pc = require_pre_cartier(functor, comonoids, pc, convention)
    if not order:
        return plain
    ring = hseries_ring(order)
    data = _structure_in(replace(plain, delta={}, antipode={}), ring)
    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            braid = deformed_braiding(pc, x.obj, y.obj, order)
            sigma, *higher = series_coefficients(braid.matrix)
            degree0 = split_and_antipode(functor, x, y, replace(braid, matrix=sigma))
            zero = tuple(replace(f, matrix=Matrix.zeros(f.matrix.rows, f.matrix.cols, RATIONAL))
                         for f in degree0)
            by_degree = [degree0] + [
                zero if c.is_zero() else split_and_antipode(functor, x, y, replace(braid, matrix=c))
                for c in higher]
            for maps, fs in zip((data.delta, data.antipode), zip(*by_degree)):
                maps[(i, j)] = replace(fs[0], matrix=series_matrix([f.matrix for f in fs], ring))
    return data
