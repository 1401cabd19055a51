"""Comonoidal functors out of a backend, and the adaptedness data that
turns them into multiplication-building machines.

A comonoidal functor F carries three pieces: the object/morphism map, a
splitting natural transformation F2(X, Y): F(X (x) Y) -> F(X) (x) F(Y),
and a unit comparison F0: F(1) -> 1.  Every functor here is strict on the
unit: the empty word maps to the empty word and F0 is the identity, so
F0 is not represented at all.  Composites with it (chi, the counits of
the homs) are the bare images, and cofunctor.unit.strict checks the
object half, F(1) = 1.

Each functor implements apply_obj and one morphism map, split(f, w1,
..., wk): F(f), then F(w1 (x) ... (x) wk) -> F(w1) (x) ... (x) F(wk), one
map by coassociativity of F2 (Aguiar & Mahajan, Monoidal Functors,
Species and Hopf Algebras, 2010, ch. 3).  apply_mor (k = 1) and f2 (f = 1,
k = 2) are defined from it once, on the base class: they keep the paper's
names F and F2, which the benchmark's traced spans carry too.

The functors provided are quotients:

  * orbit functor       -- finset: collapse each object to its set of
    group orbits under the diagonal action.
  * group coinvariants  -- linear: quotient by the span of (g - 1)v.
  * base coinvariants   -- dy: quotient by the image of the base action.

Adaptedness relative to a comonoid M asks two comparison maps to be
invertible: the collapse of F(M) to the unit, and for the needed object
pairs the map gamma splitting F(X (x) M (x) Y) into
F(X (x) M) (x) F(M (x) Y).  The inverses are witnessed in a certificate
and re-checked when made.  The functor holds one certificate per comonoid
structure (carrier, delta, eps) beside its image memo, so chi and each
pair's gamma are inverted at most once however many names the structure
has: certify_adapted returns it, covering at least the pairs requested.
A failing pair is not stored, and every caller gets the same NotAdapted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

from .backends import (
    Backend,
    BackendError,
    MorphismRep,
    ObjectRef,
    finset_backend,
    linear_backend,
    trivial_group,
)
from .coalg import Comonoid, LawRecord
from .linalg import Matrix, Singular, cokernel_projection, hstack, mat_invert, mat_kron
from .scalars import RATIONAL


class NotAdapted(ValueError):
    """The comparison maps demanded by a construction are not invertible."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def invert_mor(backend, f: MorphismRep) -> MorphismRep:
    """Two-sided inverse of a backend morphism; tables must be bijections,
    matrices must be square and invertible over the scalar ring.
    """
    if f.table is not None:
        n = backend.obj_size(f.dom)
        m = backend.obj_size(f.cod)
        if n != m or sorted(f.table) != list(range(n)):
            raise NotAdapted(f"table {f.dom.label()} -> {f.cod.label()} is not a bijection",
                             witness=f.table)
        inv = [0] * n
        for i, x in enumerate(f.table):
            inv[x] = i
        return MorphismRep(f.cod, f.dom, table=tuple(inv))
    if f.matrix.rows != f.matrix.cols:
        raise NotAdapted(
            f"map {f.dom.label()} -> {f.cod.label()} is not square "
            f"({f.matrix.rows} vs {f.matrix.cols})")
    try:
        inv = mat_invert(f.matrix)
    except Singular as exc:
        raise NotAdapted(f"map {f.dom.label()} -> {f.cod.label()} is singular",
                         witness=exc.witness) from exc
    return MorphismRep(f.cod, f.dom, matrix=inv)


# ---------------------------------------------------------------------------
# functors


class ComonoidalFunctor:
    """Base class; subclasses fill in apply_obj and split."""

    def __init__(self, source: Backend, target: Backend):
        self.source = source
        self.target = target
        self._images = {}
        self._certs = {}  # (carrier, delta, eps) -> its AdaptednessCertificate
        self._f2 = {}  # (x factors, y factors) -> f2(x, y)

    def apply_obj(self, obj: ObjectRef) -> ObjectRef:
        raise NotImplementedError

    def split(self, f: MorphismRep, *words: ObjectRef) -> MorphismRep:
        """F(f), then F(w1 (x) ... (x) wk) -> F(w1) (x) ... (x) F(wk), for
        f into w1 (x) ... (x) wk; F(f.cod) is never built when k > 1."""
        raise NotImplementedError

    def apply_mor(self, f: MorphismRep) -> MorphismRep:
        return self.split(f, f.cod)

    def f2(self, x: ObjectRef, y: ObjectRef) -> MorphismRep:
        key = (x.factors, y.factors)
        f2 = self._f2.get(key)
        if f2 is None:
            f2 = self._f2[key] = self.split(self.source.identity_mor(x.tensor(y)), x, y)
        return f2


def _word(words) -> ObjectRef:
    return words[0] if len(words) == 1 else ObjectRef(tuple(a for w in words for a in w.factors))


def _require_split(f: MorphismRep, words):
    if f.cod != _word(words):
        raise BackendError(f"composition mismatch: {f.cod.label()} vs {_word(words).label()}")


class IdentityFunctor(ComonoidalFunctor):
    def __init__(self, backend):
        super().__init__(backend, backend)

    def apply_obj(self, obj):
        return obj

    def split(self, f, *words):
        _require_split(f, words)
        return f


class OrbitFunctor(ComonoidalFunctor):
    """Collapse finite group sets to their orbit sets.

    Each source tensor word gets a fresh target atom whose elements are
    the orbits under the diagonal action, listed by smallest member.
    Orbits of a word P (x) A are built from the orbit data of its prefix P
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, ch. 4):
    every orbit meets the fibre over some representative r of P, and meets
    it in one orbit of the stabilizer of r on the atom A.  So only the
    atoms' permutations and the group table are read, never a diagonal
    action table.  When Stab(r) is trivial the fibre is |A| orbits of one
    point each, and is numbered without a sweep.
    Labels are kept per fibre, and a transversal only implicitly, as a
    Schreier vector is (ibid., 4.1): the label of a point (p, a) is read
    from p's transversal element and the fibre of p's orbit.  So a word
    gets a label for every point only when it is extended or read whole
    by orbit_info, never the longest words of a verify, which hold most
    of the points.
    Equivariant maps descend to orbit maps; the splitting sends the orbit
    of a pair to the pair of orbits.
    """

    def __init__(self, source: Backend):
        if source.kind != "finset":
            raise BackendError("orbit functor needs a finset source")
        target = finset_backend(trivial_group(), [])
        super().__init__(source, target)
        group = source.group
        self._inv = tuple(row.index(0) for row in group.table)
        # the empty word: one orbit, fixed by the whole group
        self._orbits = {(): ((0,), (tuple(group.elements()),), None)}
        self._points = {(): ((0,), (0,))}

    def _orbits_of(self, factors):
        """(reps, stabs, fibres) of a tensor word, kept for every word met:
        the smallest member of each orbit, ascending; the stabilizer of
        each representative, as a tuple of elements; and fibres[k],
        (lab, sel) on the last factor over the k-th representative r of
        the prefix: lab[a] is the orbit of (r, a), and sel[a] in Stab(r)
        takes a to the smallest point of its Stab(r)-orbit.  A trivial
        Stab(r) gives lab = range(base, base + m) and sel all identity.
        """
        data = self._orbits.get(factors)
        if data is not None:
            return data
        p_reps, p_stabs, _ = self._orbits_of(factors[:-1])
        m = self.source.atom_size(factors[-1])
        action = self.source.atoms[factors[-1]].action
        inv = self._inv
        reps, stabs, fibres = [], [], []
        identity = (0,) * m
        for r, stab in zip(p_reps, p_stabs):
            if len(stab) == 1:
                base = len(reps)
                reps += range(r * m, r * m + m)
                stabs += [stab] * m
                fibres.append((range(base, base + m), identity))
                continue
            lab, sel = [-1] * m, [0] * m
            for a in range(m):
                if lab[a] >= 0:
                    continue
                idx = lab[a] = len(reps)
                reps.append(r * m + a)
                fixing = []
                for h in stab:
                    b = action[h][a]
                    if b == a:
                        fixing.append(h)
                    elif lab[b] < 0:
                        lab[b] = idx
                        sel[b] = inv[h]
                stabs.append(tuple(fixing))
            fibres.append((lab, sel))
        data = (tuple(reps), tuple(stabs), tuple(fibres))
        self._orbits[factors] = data
        return data

    def _per_point(self, factors):
        """(orbit_of, trans) of a tensor word: each element's orbit, and an
        element trans[p] of the group taking p to its representative."""
        data = self._points.get(factors)
        if data is None:
            p_orbit, p_trans = self._per_point(factors[:-1])
            fibres = self._orbits_of(factors)[2]
            action = self.source.atoms[factors[-1]].action
            table = self.source.group.table
            orbit_of, trans = [], []
            for p, g in enumerate(p_trans):
                # g takes (p, x) to (r, g.x), in the orbit lab[g.x]; sel
                # fixes r and moves g.x to the representative's point
                lab, sel = fibres[p_orbit[p]]
                row = action[g]
                orbit_of += map(lab.__getitem__, row)
                trans += [table[sel[y]][g] for y in row]
            data = self._points[factors] = (tuple(orbit_of), tuple(trans))
        return data

    def _labels_at(self, factors, points):
        """Orbit labels of the given points of a word, read from its
        prefix's per-point data and its own fibres."""
        data = self._points.get(factors)
        if data is not None:
            return list(map(data[0].__getitem__, points))
        p_orbit, p_trans = self._per_point(factors[:-1])
        fibres = self._orbits_of(factors)[2]
        action = self.source.atoms[factors[-1]].action
        m = self.source.atom_size(factors[-1])
        out = []
        for q in points:
            p, x = divmod(q, m)
            out.append(fibres[p_orbit[p]][0][action[p_trans[p]][x]])
        return out

    def apply_obj(self, obj):
        key = obj.factors
        image = self._images.get(key)
        if image is None:
            if not key:
                image = self.target.unit()
            else:
                image = self.target.trivial_atom(f"orb[{obj.label()}]",
                                                 len(self._orbits_of(key)[0]))
            self._images[key] = image
        return image

    def orbit_info(self, obj):
        """(representatives, orbit label of each element) for a source object."""
        return self._orbits_of(obj.factors)[0], self._per_point(obj.factors)[0]

    def split(self, f, *words):
        """The orbit of each representative r of f.dom goes to the orbits
        of the digits of f(r), in the mixed radix of the words' sizes.
        The composite through F(f.cod) reads the digits of g.f(r), the
        representative of f(r)'s orbit; labels are invariant under g, so
        this is exact for any table f."""
        _require_split(f, words)
        dom_img = self.apply_obj(f.dom)
        points = list(map(f.table.__getitem__, self._orbits_of(f.dom.factors)[0]))
        digits = []  # (word, its image's size, its digit of each point), last first
        for w in words[:0:-1]:
            n = self.source.obj_size(w)
            digits.append((w, self.target.obj_size(self.apply_obj(w)), [v % n for v in points]))
            points = [v // n for v in points]
        table = self._labels_at(words[0].factors, points)
        for w, m, d in reversed(digits):
            table = [t * m + a for t, a in zip(table, self._labels_at(w.factors, d))]
        return MorphismRep(dom_img, _word(list(map(self.apply_obj, words))), table=tuple(table))


class CoinvariantsFunctor(ComonoidalFunctor):
    """Quotient every object of a linear backend by a relation subspace.

    relations_fn(source, obj) must return a rational matrix whose columns
    span the subspace to kill; the subspace must be mapped into itself by
    every morphism the functor is applied to (equivariance guarantees
    this for the two instances below).
    """

    def __init__(self, source: Backend, relations_fn, tag="coinv"):
        if source.kind == "finset":
            raise BackendError("coinvariants need a linear source")
        if source.ring != RATIONAL:
            raise BackendError("coinvariants quotient exact rational backends")
        target = linear_backend(trivial_group(), [], ring=RATIONAL)
        super().__init__(source, target)
        self.relations_fn = relations_fn
        self.tag = tag

    def _image(self, obj: ObjectRef):
        key = obj.factors
        if key in self._images:
            return self._images[key]
        rel = self.relations_fn(self.source, obj)
        if rel.rows != self.source.obj_size(obj):
            raise BackendError("relations have the wrong ambient dimension")
        p, s = cokernel_projection(rel)
        if not obj.factors:
            if p.rows != 1:
                raise BackendError("relations must vanish on the unit object")
            image = self.target.unit()
        else:
            image = self.target.trivial_atom(f"{self.tag}[{obj.label()}]", p.rows)
        data = (image, p, s)
        self._images[key] = data
        return data

    def apply_obj(self, obj):
        return self._image(obj)[0]

    def split(self, f, *words):
        """(p_w1 (x) ... (x) p_wk) f s_dom, for every matrix f.  The
        composite has s_cod p_cod in between, and s_cod p_cod - 1 maps into
        ker p_cod (p_cod s_cod = 1), which p_w1 (x) ... (x) p_wk kills by
        induction on k, once p_x (x) p_y kills the relations of x (x) y:
        - group coinvariants: (p_x (x) p_y)(g (x) g) = p_x (x) p_y;
        - dy quotient: by induction on x along dy_action's head-first
          recursion, a_{x (x) y} = a_x (x) 1 + (1 (x) a_y)(sigma_{b,x} (x) 1),
          whose image lies in im a_x (x) y + x (x) im a_y."""
        _require_split(f, words)
        dom_img, _, s = self._image(f.dom)
        images, projections = zip(*(self._image(w)[:2] for w in words))
        return MorphismRep(dom_img, _word(images), matrix=reduce(
            mat_kron, projections) * self.source.as_matrix(f) * s)


def group_coinvariants_relations(source, obj):
    n = source.obj_size(obj)
    ident = Matrix.identity(n, RATIONAL)
    # gh - 1 = (g - 1)h + (h - 1): the generators' blocks span the same
    # subspace as every element's, so the unique RREF is the same
    blocks = [source.as_matrix(source.act(g, obj)) - ident for g in source.group.generators]
    return hstack(blocks) if blocks else Matrix.zeros(n, 0, RATIONAL)


def group_coinvariants_functor(source):
    return CoinvariantsFunctor(source, group_coinvariants_relations, tag="coinv")


def dy_coinvariants_relations(source, obj):
    return source.dy_action(obj)


def dy_coinvariants_functor(source):
    source._need_dy()
    return CoinvariantsFunctor(source, dy_coinvariants_relations, tag="quot")


# ---------------------------------------------------------------------------
# law checking


def check_comonoidal(functor, objects):
    """Unit strictness (F(1) = 1), the unit laws, and the coassociativity
    and symmetry squares of the comonoidal structure, at every pair and
    triple of the objects given (source ObjectRefs).
    """
    src, dst = functor.source, functor.target
    unit = src.unit()
    records = [LawRecord("cofunctor.unit.strict", functor.apply_obj(unit) == dst.unit())]

    for x in objects:
        left = functor.f2(unit, x)
        right = functor.f2(x, unit)
        ident = dst.identity_mor(functor.apply_obj(x))
        records.append(LawRecord(
            "cofunctor.unit.left", dst.equal_mor(left, ident),
            f"at {x.label()}"))
        records.append(LawRecord(
            "cofunctor.unit.right", dst.equal_mor(right, ident),
            f"at {x.label()}"))

    for x in objects:
        for y in objects:
            for z in objects:
                fx = functor.apply_obj(x)
                fz = functor.apply_obj(z)
                lhs = dst.compose_tensor(functor.f2(x, y.tensor(z)),
                                         [dst.identity_mor(fx), functor.f2(y, z)])
                rhs = dst.compose_tensor(functor.f2(x.tensor(y), z),
                                         [functor.f2(x, y), dst.identity_mor(fz)])
                records.append(LawRecord(
                    "cofunctor.coassoc",
                    dst.equal_mor(lhs, rhs),
                    f"at {x.label()},{y.label()},{z.label()}"))

    for x in objects:
        for y in objects:
            fx = functor.apply_obj(x)
            fy = functor.apply_obj(y)
            lhs = dst.compose(functor.apply_mor(src.braiding(x, y)), functor.f2(y, x))
            rhs = dst.compose(functor.f2(x, y), dst.braiding(fx, fy))
            records.append(LawRecord(
                "cofunctor.symmetry",
                dst.equal_mor(lhs, rhs),
                f"at {x.label()},{y.label()}"))

    return records


# ---------------------------------------------------------------------------
# adaptedness


def chi(functor, m: Comonoid) -> MorphismRep:
    """Collapse of F(M) along the counit; invertible for adapted M."""
    return functor.apply_mor(m.eps)


def gamma(functor, m: Comonoid, x: ObjectRef, z: ObjectRef) -> MorphismRep:
    """F(X (x) M (x) Z) -> F(X (x) M) (x) F(M (x) Z): split the middle
    factor with the comonoid, then split the word.
    """
    src = functor.source
    inner = src.tensor_all([src.identity_mor(x), m.delta, src.identity_mor(z)])
    return functor.split(inner, x.tensor(m.obj), m.obj.tensor(z))


@dataclass
class AdaptednessCertificate:
    """Inverses for the comparison maps of one middle comonoid; keys of
    gamma_inv are (left factors, right factors)."""

    comonoid: Comonoid
    chi_inv: MorphismRep
    gamma_inv: dict = field(default_factory=dict)

    def gamma_inverse(self, x: ObjectRef, z: ObjectRef) -> MorphismRep:
        try:
            return self.gamma_inv[(x.factors, z.factors)]
        except KeyError:
            raise NotAdapted(
                f"no certificate for the pair {x.label()},{z.label()} "
                f"around {self.comonoid.name}") from None


def certify_adapted(functor, m: Comonoid, pairs) -> AdaptednessCertificate:
    """The functor's certificate for m, extended by gamma's inverse at every
    requested (left, right) pair it lacks; raises NotAdapted with a witness
    when a comparison map is not invertible.

    Certificates are kept per comonoid structure (carrier, delta, eps):
    comonoids differing in name alone share chi's and gamma's inverses,
    and each gets a certificate that names it.
    """
    dst = functor.target
    key = (m.obj, m.delta, m.eps)
    cert = functor._certs.get(key)
    if cert is None:
        cert = functor._certs[key] = AdaptednessCertificate(m, invert_mor(dst, chi(functor, m)))
    elif cert.comonoid != m:
        cert = replace(cert, comonoid=m)  # the same gamma_inv dict, shared
    for x, z in pairs:
        if (x.factors, z.factors) in cert.gamma_inv:
            continue
        g = gamma(functor, m, x, z)
        ginv = invert_mor(dst, g)
        # re-check, so certificates stay trustworthy even if edited; one
        # side is enough, as invert_mor checked that g is a bijection or a
        # square matrix, whose one-sided inverses are two-sided
        both = dst.compose(g, ginv)
        ident = dst.identity_mor(g.dom)
        if not dst.equal_mor(both, ident):
            raise NotAdapted("inverse failed re-verification")
        cert.gamma_inv[(x.factors, z.factors)] = ginv
    return cert


def mult_along(functor, cert: AdaptednessCertificate, x: ObjectRef, z: ObjectRef):
    """F(X (x) M) (x) F(M (x) Z) -> F(X (x) Z): merge along the middle
    comonoid by inverting gamma and collapsing the doubled factor.
    """
    m = cert.comonoid
    src = functor.source
    collapse = src.tensor_all([src.identity_mor(x), m.eps, src.identity_mor(z)])
    return functor.target.compose(
        cert.gamma_inverse(x, z),
        functor.apply_mor(collapse))

