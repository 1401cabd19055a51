"""Infinitesimal braidings and the deformed constructor over truncated
polynomial scalars.

The deformation datum is one rational matrix per ordered atom pair,
read as an endomorphism of the pair's tensor product and extended to
arbitrary tensor words by two peeling rules: a composite left argument
splits off its first factor, a composite right argument likewise, with
the far factor carried past the symmetry and back.  The unit word gets
the zero map.  A datum is only usable once `check_pre_cartier` accepts
it: the peeling rules must be cut-independent, the maps natural and
equivariant, and (for deformation) the commutation and antisymmetry
laws must hold.

The deformed symmetry on a pair is the plain symmetry composed with
the truncated exponential of the formal parameter times the extended
map.  Feeding that braiding into the usual constructor, with all
functor and comonoid data embedded into the series ring, produces the
deformed structure; its degree-zero part is the undeformed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .backends import Atom, Backend, BackendError, MorphismRep, ObjectRef
from .coalg import Comonoid, LawRecord, all_hold, failures
from .cofunctor import ComonoidalFunctor
from .hopfcategory import HopfCategoryData, build_hopf_category
from .linalg import Matrix, lift_matrix, mat_kron, reduce_matrix
from .scalars import RATIONAL, HSeries, hseries_ring


class PreCartierViolation(ValueError):
    """A deformation build was attempted with data failing its laws."""


# ---------------------------------------------------------------------------
# the infinitesimal braiding datum


def _word(spec) -> tuple:
    """Normalize an atom name or factor sequence to a factor tuple."""
    if isinstance(spec, str):
        return (spec,)
    if isinstance(spec, ObjectRef):
        return spec.factors
    return tuple(spec)


@dataclass
class PreCartierData:
    """table[(x, y)] is the rational matrix of t on the pair of tensor
    words x, y (atom names allowed as shorthand for one-letter words).
    Unlisted pairs are filled in by the peeling rules, with atoms and
    the unit word bottoming out at zero.  Since the rules derive every
    word entry from the atom entries, explicit composite entries are
    redundant data whose consistency `check_pre_cartier` verifies."""

    backend: Backend
    table: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.backend.kind == "finset":
            raise BackendError("infinitesimal braidings need linear scalars")
        if self.backend.ring != RATIONAL:
            raise BackendError("deformation data lives over the rationals")
        norm = {}
        for (a, b), m in self.table.items():
            fx, fy = _word(a), _word(b)
            n = (self.backend.obj_size(ObjectRef(fx))
                 * self.backend.obj_size(ObjectRef(fy)))
            if m.ring != RATIONAL or m.rows != n or m.cols != n:
                raise BackendError(f"t[{fx},{fy}] has the wrong shape")
            norm[(fx, fy)] = m
        self.table = norm

    def atom_t(self, a, b) -> Matrix:
        m = self.table.get((_word(a), _word(b)))
        if m is None:
            n = self.backend.atom_size(a) * self.backend.atom_size(b)
            m = Matrix.zeros(n, n, RATIONAL)
        return m

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
        elif not x.factors or not y.factors:
            mor = be.mor_from_matrix(
                dom, dom, Matrix.zeros(be.obj_size(dom), be.obj_size(dom), RATIONAL))
        elif len(x.factors) >= 2:
            # peel the first factor of the left argument
            x0 = ObjectRef.atom(x.factors[0])
            xr = ObjectRef(x.factors[1:])
            idx0 = be.identity_mor(x0)
            near = be.tensor_mor(idx0, self.t(xr, y))
            far = be.compose(
                be.tensor_mor(idx0, be.braiding(xr, y)),
                be.tensor_mor(self.t(x0, y), be.identity_mor(xr)),
                be.tensor_mor(idx0, be.braiding(y, xr)))
            mor = be.mor_from_matrix(dom, dom, near.matrix + far.matrix)
        elif len(y.factors) >= 2:
            # peel the first factor of the right argument
            y0 = ObjectRef.atom(y.factors[0])
            yr = ObjectRef(y.factors[1:])
            idyr = be.identity_mor(yr)
            near = be.tensor_mor(self.t(x, y0), idyr)
            far = be.compose(
                be.tensor_mor(be.braiding(x, y0), idyr),
                be.tensor_mor(be.identity_mor(y0), self.t(x, yr)),
                be.tensor_mor(be.braiding(y0, x), idyr))
            mor = be.mor_from_matrix(dom, dom, near.matrix + far.matrix)
        else:
            mor = be.mor_from_matrix(dom, dom,
                                     self.atom_t(x.factors[0], y.factors[0]))
        self._cache[key] = mor
        return mor


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


def check_pre_cartier(pc: PreCartierData, sample, *, commutation=True,
                      antisymmetry=True, inf_cocommutative=(),
                      convention="t_delta_zero", inf_braided=None,
                      morphisms=()):
    """Check the requested laws exactly on the sampled objects.

    sample: nonempty list of ObjectRef; pairs and triples are drawn from
    it, so include composite words to exercise the peeling rules at
    interior cuts.  inf_cocommutative comonoids are checked per the
    convention: "literal" asks t.delta = delta, "t_delta_zero" asks
    t.delta = 0 (sigma.delta = delta either way).  inf_braided takes a
    functor out of pc.backend and asks F(t) F2 = 0, since the target's
    datum is zero.  morphisms: extra (f, g) pairs for naturality.
    """
    if not sample:
        raise BackendError("need at least one sampled object")
    if convention not in ("literal", "t_delta_zero"):
        raise BackendError(f"unknown convention {convention!r}")
    be = pc.backend
    records = []

    def tmat(x, y):
        return pc.t(x, y).matrix

    # every sampled component must be a morphism of the backend
    bad = []
    for x in sample:
        for y in sample:
            if be.check_equivariant(pc.t(x, y)):
                bad.append(f"({x.label()},{y.label()})")
    records.append(LawRecord("precartier.morphism", not bad, "; ".join(bad)))

    # both peeling rules, recomputed at the sampled cut
    bad_l, bad_r = [], []
    for x in sample:
        for y in sample:
            for z in sample:
                lbl = f"({x.label()},{y.label()},{z.label()})"
                idx = be.identity_mor(x)
                idy = be.identity_mor(y)
                idz = be.identity_mor(z)
                # right rule: composite second argument split at (y, z)
                lhs = tmat(x, y.tensor(z))
                far = be.compose(
                    be.tensor_mor(be.braiding(x, y), idz),
                    be.tensor_mor(idy, pc.t(x, z)),
                    be.tensor_mor(be.braiding(y, x), idz))
                rhs = be.tensor_mor(pc.t(x, y), idz).matrix + far.matrix
                if lhs != rhs:
                    bad_r.append(lbl)
                # left rule: composite first argument split at (x, y)
                lhs = tmat(x.tensor(y), z)
                far = be.compose(
                    be.tensor_mor(idx, be.braiding(y, z)),
                    be.tensor_mor(pc.t(x, z), idy),
                    be.tensor_mor(idx, be.braiding(z, y)))
                rhs = be.tensor_mor(idx, pc.t(y, z)).matrix + far.matrix
                if lhs != rhs:
                    bad_l.append(lbl)
    records.append(LawRecord("precartier.extension.right", not bad_r, "; ".join(bad_r)))
    records.append(LawRecord("precartier.extension.left", not bad_l, "; ".join(bad_l)))

    # naturality: against sampled symmetries and any provided morphisms
    nat = list(morphisms)
    for a in sample:
        for b in sample:
            for c in sample:
                nat.append((be.braiding(a, b), be.identity_mor(c)))
                nat.append((be.identity_mor(c), be.braiding(a, b)))
    bad = []
    for f, g in nat:
        fg = be.tensor_mor(f, g)
        lhs = be.compose(pc.t(f.dom, g.dom), fg)
        rhs = be.compose(fg, pc.t(f.cod, g.cod))
        if not be.equal_mor(lhs, rhs):
            bad.append(f"({f.dom.label()}->{f.cod.label()},"
                       f"{g.dom.label()}->{g.cod.label()})")
    records.append(LawRecord("precartier.natural", not bad, "; ".join(bad)))

    if commutation:
        bad = []
        for x in sample:
            for y in sample:
                for z in sample:
                    left = be.tensor_mor(pc.t(x, y), be.identity_mor(z))
                    right = be.tensor_mor(be.identity_mor(x), pc.t(y, z))
                    if left.matrix * right.matrix != right.matrix * left.matrix:
                        bad.append(f"({x.label()},{y.label()},{z.label()})")
        records.append(LawRecord("precartier.commutation", not bad, "; ".join(bad)))

    if antisymmetry:
        bad = []
        for x in sample:
            for y in sample:
                sw = be.braiding(x, y)
                lhs = be.compose(sw, pc.t(y, x))
                rhs = be.compose(pc.t(x, y), sw)
                if lhs.matrix != -rhs.matrix:
                    bad.append(f"({x.label()},{y.label()})")
        records.append(LawRecord("precartier.antisym", not bad, "; ".join(bad)))

    for m in inf_cocommutative:
        tag = m.name or m.obj.label()
        sw = be.braiding(m.obj, m.obj)
        records.append(LawRecord(
            f"precartier.inf_cocomm.sigma[{tag}]",
            be.equal_mor(be.compose(m.delta, sw), m.delta)))
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
    truncated at the given degree; a morphism over the series ring."""
    if order < 0:
        raise BackendError("truncation order must be nonnegative")
    be = pc.backend
    ring = hseries_ring(order)
    t = pc.t(x, y).matrix
    n = t.rows
    powers = [Matrix.identity(n, RATIONAL)]
    for m in range(1, order + 1):
        powers.append((powers[-1] * t).scale(Fraction(1, m)))
    exp = Matrix.sparse(n, n, ring, [
        {j: HSeries.from_coeffs([p.nz[i].get(j, 0) for p in powers], order)
         for j in set().union(*(p.nz[i] for p in powers))}
        for i in range(n)])
    sig = lift_matrix(be.braiding(x, y).matrix, ring)
    return MorphismRep(x.tensor(y), y.tensor(x), matrix=sig * exp)


# ---------------------------------------------------------------------------
# lifting rational data into the series ring


def lift_backend(backend: Backend, ring) -> Backend:
    """The same backend with every structure matrix embedded in ring."""
    if backend.kind == "finset":
        raise BackendError("only linear backends lift to series scalars")
    if ring.kind == "rational":
        return backend

    def lm(m):
        return None if m is None else lift_matrix(m, ring)

    atoms = {name: Atom(name, a.size, tuple(lm(g) for g in a.action),
                        pi=lm(a.pi), pistar=lm(a.pistar))
             for name, a in backend.atoms.items()}
    return Backend(backend.kind, backend.group, atoms, ring=ring,
                   base=backend.base)


def lift_mor(f: MorphismRep, ring) -> MorphismRep:
    return MorphismRep(f.dom, f.cod, matrix=lift_matrix(f.matrix, ring))


class LiftedFunctor(ComonoidalFunctor):
    """Series-linear extension of a linear functor.

    Objects are unchanged; the inner functor's projection/section data
    is embedded in the series ring, so morphisms with higher-degree
    entries can be pushed through.  Inner functors without that data
    (the identity) pass morphisms unchanged.
    """

    def __init__(self, inner, ring):
        if inner.source.kind == "finset":
            raise BackendError("only linear functors extend to series scalars")
        super().__init__(lift_backend(inner.source, ring),
                         lift_backend(inner.target, ring))
        self.inner = inner
        self.ring = ring

    def _mirror(self, image: ObjectRef) -> ObjectRef:
        # quotient functors register target atoms lazily; copy them over
        for name in image.factors:
            if name not in self.target.atoms:
                a = self.inner.target.atoms[name]
                self.target.atoms[name] = Atom(
                    name, a.size,
                    tuple(lift_matrix(g, self.ring) for g in a.action))
        return image

    def apply_obj(self, obj):
        return self._mirror(self.inner.apply_obj(obj))

    def _proj(self, obj):
        if hasattr(self.inner, "projection"):
            return lift_matrix(self.inner.projection(obj), self.ring)
        return Matrix.identity(self.source.obj_size(obj), self.ring)

    def _sect(self, obj):
        if hasattr(self.inner, "section"):
            return lift_matrix(self.inner.section(obj), self.ring)
        return Matrix.identity(self.source.obj_size(obj), self.ring)

    def apply_mor(self, f):
        dom = self.apply_obj(f.dom)
        cod = self.apply_obj(f.cod)
        return MorphismRep(dom, cod,
                           matrix=self._proj(f.cod) * f.matrix * self._sect(f.dom))

    def f2(self, x, y):
        xy = x.tensor(y)
        dom = self.apply_obj(xy)
        cod = self.apply_obj(x).tensor(self.apply_obj(y))
        return MorphismRep(dom, cod,
                           matrix=mat_kron(self._proj(x), self._proj(y)) * self._sect(xy))


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
        pc, [c.obj for c in comonoids],
        commutation=True, antisymmetry=True,
        inf_cocommutative=comonoids, convention=convention,
        inf_braided=functor)
    if not all_hold(records):
        raise PreCartierViolation("; ".join(str(r) for r in failures(records)))
    return pc


def build_deformed_hopf_category(functor, comonoids, order, pc=None, *,
                                 convention="t_delta_zero") -> HopfCategoryData:
    """The usual constructor with the deformed braiding in the comonoid
    split and the antipode, everything else embedded in the series ring.

    The deformation laws are verified first (require_pre_cartier);
    adaptedness is re-certified over the series ring, where a map is
    invertible exactly when its degree-zero part is.  Order 0 returns the
    undeformed rational build.
    """
    pc = require_pre_cartier(functor, comonoids, pc, convention)
    if order == 0:
        return build_hopf_category(functor, comonoids)

    ring = hseries_ring(order)
    lifted = LiftedFunctor(functor, ring)
    lifted_comonoids = [
        Comonoid(c.obj, lift_mor(c.delta, ring), lift_mor(c.eps, ring), name=c.name)
        for c in comonoids
    ]
    return build_hopf_category(
        lifted, lifted_comonoids,
        braiding_fn=lambda x, y: deformed_braiding(pc, x, y, order))


def reduce_backend(backend: Backend) -> Backend:
    """Degree-zero reduction of a lifted backend."""
    if backend.ring.kind == "rational":
        return backend

    def rm(m):
        return None if m is None else reduce_matrix(m)

    atoms = {name: Atom(name, a.size, tuple(rm(g) for g in a.action),
                        pi=rm(a.pi), pistar=rm(a.pistar))
             for name, a in backend.atoms.items()}
    return Backend(backend.kind, backend.group, atoms, ring=RATIONAL,
                   base=backend.base)


def reduce_order0(data: HopfCategoryData) -> HopfCategoryData:
    """Drop every positive-degree coefficient of a deformed structure."""

    def red(f):
        return MorphismRep(f.dom, f.cod, matrix=reduce_matrix(f.matrix))

    out = HopfCategoryData(data.labels, reduce_backend(data.backend))
    out.hom.update(data.hom)
    out.mult.update({k: red(v) for k, v in data.mult.items()})
    out.unit.update({k: red(v) for k, v in data.unit.items()})
    out.delta.update({k: red(v) for k, v in data.delta.items()})
    out.eps.update({k: red(v) for k, v in data.eps.items()})
    out.antipode.update({k: red(v) for k, v in data.antipode.items()})
    return out
