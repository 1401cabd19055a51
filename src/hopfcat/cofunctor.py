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
k = 2) are defined from it once, on the base class (the coinvariants
functor reads f2 off its quotient data): they keep the paper's names F
and F2, which the benchmark's traced spans carry too.
split_tensor(gs, *words) is the split of g1 (x) ... (x) gn.  The base
class builds that product; the orbit functor evaluates it at the orbit
representatives of its domain only, which is all a split reads, so gamma
and the collapse of mult_along build no table of X (x) M (x) Z.

The functors provided are quotients:

  * orbit functor       -- finset: collapse each object to its set of
    group orbits under the diagonal action.
  * group coinvariants  -- linear: quotient by the span of (g - 1)v.
  * base coinvariants   -- dy: quotient by the image of the base action.

Adaptedness relative to a comonoid M asks two comparison maps to be
invertible: the collapse chi of F(M) to the unit, and for the needed
object pairs the map gamma splitting F(X (x) M (x) Y) into
F(X (x) M) (x) F(M (x) Y).  The functor keeps their inverses beside its
image memo, as it keeps f2: chi_inverse(m) and gamma_inverse(m, x, y)
invert each map on first ask, re-check the inverse, and key it by the
comonoid structure (carrier, delta, eps), so comonoids differing in name
alone share every inverse.  certify_adapted asks for the inverses a
construction needs, and mult_along reads gamma's.  A map that is not
invertible is stored nowhere, and every ask gets the same NotAdapted.
"""

from __future__ import annotations

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
        self._inverses = {}  # (carrier, delta, eps) -> chi^-1; (..., x, z factors) -> gamma^-1
        self._f2 = {}  # (x factors, y factors) -> f2(x, y)

    def apply_obj(self, obj: ObjectRef) -> ObjectRef:
        raise NotImplementedError

    def split(self, f: MorphismRep, *words: ObjectRef) -> MorphismRep:
        """F(f), then F(w1 (x) ... (x) wk) -> F(w1) (x) ... (x) F(wk), for
        f into w1 (x) ... (x) wk; F(f.cod) is never built when k > 1."""
        raise NotImplementedError

    def split_tensor(self, gs, *words: ObjectRef) -> MorphismRep:
        """split(g1 (x) ... (x) gn, *words), for source morphisms gs whose
        codomains concatenate to w1 (x) ... (x) wk.  The tensor product is
        built whole here; a functor that reads a map at a few points only
        may evaluate it there instead."""
        return self.split(self.source.tensor_all(gs), *words)

    def apply_mor(self, f: MorphismRep) -> MorphismRep:
        return self.split(f, f.cod)

    def f2(self, x: ObjectRef, y: ObjectRef) -> MorphismRep:
        key = (x.factors, y.factors)
        f2 = self._f2.get(key)
        if f2 is None:
            f2 = self._f2[key] = self.split_tensor(
                [self.source.identity_mor(x), self.source.identity_mor(y)], x, y)
        return f2

    def chi_inverse(self, m: Comonoid) -> MorphismRep:
        """The inverse of chi(self, m); raises NotAdapted when it has none."""
        key = (m.obj, m.delta, m.eps)
        inv = self._inverses.get(key)
        if inv is None:
            inv = self._inverses[key] = invert_mor(self.target, chi(self, m))
        return inv

    def gamma_inverse(self, m: Comonoid, x: ObjectRef, z: ObjectRef) -> MorphismRep:
        """The inverse of gamma(self, m, x, z), re-checked when made; raises
        NotAdapted when it has none."""
        key = (m.obj, m.delta, m.eps, x.factors, z.factors)
        inv = self._inverses.get(key)
        if inv is None:
            dst = self.target
            g = gamma(self, m, x, z)
            inv = invert_mor(dst, g)
            # re-check, so that only a proved inverse is kept; one side is
            # enough, as invert_mor checked that g is a bijection or a
            # square matrix, whose one-sided inverses are two-sided
            if not dst.equal_mor(dst.compose(g, inv), dst.identity_mor(g.dom)):
                raise NotAdapted("inverse failed re-verification")
            self._inverses[key] = inv
        return inv


def _word(words) -> ObjectRef:
    return words[0] if len(words) == 1 else ObjectRef(tuple(a for w in words for a in w.factors))


def _require_split(cod: ObjectRef, words):
    word = _word(words)
    if cod is not word and cod != word:  # apply_mor passes f.cod itself
        raise BackendError(f"composition mismatch: {cod.label()} vs {word.label()}")


class IdentityFunctor(ComonoidalFunctor):
    def __init__(self, backend):
        super().__init__(backend, backend)

    def apply_obj(self, obj):
        return obj

    def split(self, f, *words):
        _require_split(f.cod, words)
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
        _require_split(f.cod, words)
        reps = self._orbits_of(f.dom.factors)[0]
        return self._descend(f.dom, map(f.table.__getitem__, reps), words)

    def split_tensor(self, gs, *words):
        """split reads a table at the representatives of its domain only,
        so the tensor product of gs is evaluated there alone, digit by
        digit (Backend.tensor_at), and never built whole."""
        _require_split(ObjectRef(tuple(a for g in gs for a in g.cod.factors)), words)
        dom = ObjectRef(tuple(a for g in gs for a in g.dom.factors))
        return self._descend(dom, self.source.tensor_at(gs, self._orbits_of(dom.factors)[0]),
                             words)

    def _descend(self, dom, points, words):
        """F(dom) -> F(w1) (x) ... (x) F(wk): the orbit of the i-th
        representative of dom goes to the orbits of the digits of
        points[i], a point of w1 (x) ... (x) wk; points may be an iterator."""
        dom_img = self.apply_obj(dom)
        if len(words) == 1:
            table = self._labels_at(words[0].factors, points)
            return MorphismRep(dom_img, self.apply_obj(words[0]), table=tuple(table))
        points = list(points)
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

    units are the unit letters: atoms of dimension 1 whose own relation
    matrix is zero.  A word's relations equal, entry for entry, those of
    the word without its unit letters, so (p, s) are built once per such
    reduced word, and F2(x, y) = (p_x (x) p_y) s_{x (x) y} once per reduced
    pair; image atoms and F2's endpoints stay per full word.
      - dy quotient: in Backend._dy_word a head E with |E| = 1 and pi = 0
        gives 0 + a_tail (sigma_{b,E} (x) 1), and sigma_{b,E} is the
        identity; any other head h gives pi_h (x) 1 + (1 (x) a_tail)
        (sigma_{b,h} (x) 1), which reads a_tail and the tail's size only.
      - group coinvariants: act(g, w (x) E) = act(g, w) (x) [1], and a
        size-1 factor moves no mixed-radix index.
    """

    def __init__(self, source: Backend, relations_fn, tag="coinv", units=()):
        if source.kind == "finset":
            raise BackendError("coinvariants need a linear source")
        if source.ring != RATIONAL:
            raise BackendError("coinvariants quotient exact rational backends")
        target = linear_backend(trivial_group(), [], ring=RATIONAL)
        super().__init__(source, target)
        self.relations_fn, self.tag, self.units = relations_fn, tag, frozenset(units)
        self._quotients = {}  # reduced factors -> (p, s)
        self._f2_matrices = {}  # (reduced x, reduced y) -> F2's matrix

    def _reduced(self, factors):
        return tuple(a for a in factors if a not in self.units)

    def _image(self, obj: ObjectRef):
        key = obj.factors
        data = self._images.get(key)
        if data is None:
            reduced = self._reduced(key)
            ps = self._quotients.get(reduced)
            if ps is None:
                rel = self.relations_fn(self.source, ObjectRef(reduced))
                if rel.rows != self.source.obj_size(obj):
                    raise BackendError("relations have the wrong ambient dimension")
                ps = self._quotients[reduced] = cokernel_projection(rel)
            p, s = ps
            if key:
                image = self.target.trivial_atom(f"{self.tag}[{obj.label()}]", p.rows)
            elif p.rows == 1:
                image = self.target.unit()
            else:
                raise BackendError("relations must vanish on the unit object")
            data = self._images[key] = (image, p, s)
        return data

    def f2(self, x, y):
        """split(1, x, y) = (p_x (x) p_y) s_{x (x) y}, with no identity of
        x (x) y built."""
        key = (x.factors, y.factors)
        f2 = self._f2.get(key)
        if f2 is None:
            (fx, px, _), (fy, py, _) = self._image(x), self._image(y)
            fxy, _, s = self._image(x.tensor(y))
            pair = tuple(map(self._reduced, key))
            m = self._f2_matrices.get(pair)
            if m is None:
                m = self._f2_matrices[pair] = mat_kron(px, py) * s
            f2 = self._f2[key] = MorphismRep(fxy, _word([fx, fy]), matrix=m)
        return f2

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
        _require_split(f.cod, words)
        dom_img, _, s = self._image(f.dom)
        images, projections = zip(*(self._image(w)[:2] for w in words))
        p = reduce(mat_kron, projections) * self.source.as_matrix(f)
        return MorphismRep(dom_img, _word(images), matrix=p * s)


def group_coinvariants_relations(source, obj):
    n = source.obj_size(obj)
    ident = Matrix.identity(n, RATIONAL)
    # gh - 1 = (g - 1)h + (h - 1): the generators' blocks span the same
    # subspace as every element's, so the unique RREF is the same
    blocks = [source.as_matrix(source.act(g, obj)) - ident for g in source.group.generators]
    return hstack(blocks) if blocks else Matrix.zeros(n, 0, RATIONAL)


def group_coinvariants_functor(source):
    # unit letters: lines on which every generator acts as 1
    one = Matrix.identity(1, RATIONAL)
    units = [a.name for a in source.atoms.values()
             if a.size == 1 and all(a.action[g] == one for g in source.group.generators)]
    return CoinvariantsFunctor(source, group_coinvariants_relations, "coinv", units)


def dy_coinvariants_relations(source, obj):
    return source.dy_action(obj)


def dy_coinvariants_functor(source):
    source._need_dy()
    # unit letters: lines the base acts on by zero
    units = [a.name for a in source.atoms.values() if a.size == 1 and a.pi.is_zero()]
    return CoinvariantsFunctor(source, dy_coinvariants_relations, "quot", units)


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
    factor with the comonoid, then split the word.  One split_tensor of
    1 (x) delta (x) 1, so the orbit functor never builds that map's table.
    """
    src = functor.source
    return functor.split_tensor([src.identity_mor(x), m.delta, src.identity_mor(z)],
                                x.tensor(m.obj), m.obj.tensor(z))


def certify_adapted(functor, m: Comonoid, pairs):
    """Invert chi and, at every requested (left, right) pair, gamma for m,
    through the functor's memo; raises NotAdapted with a witness when a
    comparison map is not invertible."""
    functor.chi_inverse(m)
    for x, z in pairs:
        functor.gamma_inverse(m, x, z)


def mult_along(functor, m: Comonoid, x: ObjectRef, z: ObjectRef):
    """F(X (x) M) (x) F(M (x) Z) -> F(X (x) Z): merge along the middle
    comonoid m by inverting gamma and collapsing the doubled factor with
    F(1 (x) eps (x) 1), one split_tensor, so the orbit functor never builds
    the collapse's table.
    """
    ginv, src = functor.gamma_inverse(m, x, z), functor.source
    collapse = functor.split_tensor(
        [src.identity_mor(x), m.eps, src.identity_mor(z)], x.tensor(z))
    return functor.target.compose(ginv, collapse)
