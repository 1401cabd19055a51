"""Hopf categories (and the one-object case, Hopf monoids) built from a
comonoidal functor and a family of adapted cocommutative comonoids.

The hom object between two family members x, y is F(x (x) y).  The
composition-like multiplication merges along the middle comonoid through
the inverted splitting map; the identity-like unit splits a point; the
antipode swaps the two factors.  Every constructor here is pure: it
builds the data, and `check_hopf_category` / `check_hopf_monoid` re-derive
every law from scratch.

When the backend is finset and the comonoids are diagonal, the whole
structure is a groupoid in disguise; `extract_set_groupoid` pulls out the
plain composition tables and verifies the groupoid axioms directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import ObjectRef
from .coalg import (
    Comonoid,
    HopfMonoidData,
    LawRecord,
    check_comonoid,
    check_comonoid_morphism,
    tensor_comonoid,
    unit_comonoid,
)
from .cofunctor import certify_adapted, mult_along


class NotCocommutative(ValueError):
    pass


@dataclass
class HopfCategoryData:
    """The full structure over a list of base labels.

    hom[(i, j)] is the object F(x_i (x) x_j) of the target backend;
    mult[(i, j, k)]: hom[i,j] (x) hom[j,k] -> hom[i,k];
    unit[i]: 1 -> hom[i,i];
    delta/eps give each hom its comonoid;
    antipode[(i, j)]: hom[i,j] -> hom[j,i].
    """

    labels: tuple
    backend: object
    hom: dict = field(default_factory=dict)
    mult: dict = field(default_factory=dict)
    unit: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)
    eps: dict = field(default_factory=dict)
    antipode: dict = field(default_factory=dict)

    def size(self):
        return len(self.labels)

    def hom_comonoid(self, i, j):
        return Comonoid(self.hom[(i, j)], self.delta[(i, j)], self.eps[(i, j)],
                        name=f"hom[{self.labels[i]},{self.labels[j]}]")


def hopf_data_equal(a, b):
    """Same labels, and the same objects and maps (endpoints and entries)
    at every key of every structure dict."""
    if a.labels != b.labels:
        return False
    for da, db in ((a.hom, b.hom), (a.mult, b.mult), (a.unit, b.unit),
                   (a.delta, b.delta), (a.eps, b.eps), (a.antipode, b.antipode)):
        if set(da) != set(db):
            return False
        for key, fa in da.items():
            fb = db[key]
            if isinstance(fa, ObjectRef):
                if fa != fb:
                    return False
            elif (fa.dom, fa.cod, fa.table, fa.matrix) != (fb.dom, fb.cod,
                                                           fb.table, fb.matrix):
                return False
    return True


def require_cocommutative(backend, comonoids):
    for c in comonoids:
        sw = backend.braiding(c.obj, c.obj)
        if not backend.equal_mor(backend.compose(c.delta, sw), c.delta):
            raise NotCocommutative(f"comonoid {c.name or c.obj.label()} is not cocommutative")


def build_hopf_category(functor, comonoids, braiding_fn=None):
    """Construct the structure; raises NotCocommutative / NotAdapted when
    the inputs do not qualify.

    braiding_fn(x, y) overrides the source symmetry used in the comonoid
    split and the antipode; deformations pass their corrected braiding
    here and everything else goes through unchanged.
    """
    src = functor.source
    dst = functor.target
    require_cocommutative(src, comonoids)
    braid = braiding_fn if braiding_fn is not None else src.braiding
    n = len(comonoids)
    labels = tuple(c.name or c.obj.label() for c in comonoids)

    all_pairs = [(a.obj, b.obj) for a in comonoids for b in comonoids]
    certs = [certify_adapted(functor, m, all_pairs) for m in comonoids]

    data = HopfCategoryData(labels, dst)
    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            xy = x.obj.tensor(y.obj)
            data.hom[(i, j)] = functor.apply_obj(xy)

            split_double = src.compose(
                src.tensor_mor(x.delta, y.delta),
                src.tensor_all([src.identity_mor(x.obj),
                                braid(x.obj, y.obj),
                                src.identity_mor(y.obj)]))
            data.delta[(i, j)] = dst.compose(functor.apply_mor(split_double),
                                             functor.f2(xy, xy))
            data.eps[(i, j)] = dst.compose(
                functor.apply_mor(src.tensor_mor(x.eps, y.eps)), functor.f0())
            data.antipode[(i, j)] = functor.apply_mor(braid(x.obj, y.obj))

    for i, x in enumerate(comonoids):
        chi_inv = certs[i].chi_inv
        data.unit[i] = dst.compose(chi_inv, functor.apply_mor(x.delta))

    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            for k, z in enumerate(comonoids):
                data.mult[(i, j, k)] = mult_along(functor, certs[j], x.obj, z.obj)

    return data


def check_hopf_category(backend, data: HopfCategoryData):
    """Every law of the structure, one record each, with the positions
    that were checked in the detail string.
    """
    records = []
    n = data.size()
    rng = range(n)

    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    a, b, c = data.hom[(i, j)], data.hom[(j, k)], data.hom[(k, l)]
                    first_then = backend.compose(
                        backend.tensor_mor(data.mult[(i, j, k)], backend.identity_mor(c)),
                        data.mult[(i, k, l)])
                    then_first = backend.compose(
                        backend.tensor_mor(backend.identity_mor(a), data.mult[(j, k, l)]),
                        data.mult[(i, j, l)])
                    records.append(LawRecord(
                        "hopfcat.assoc", backend.equal_mor(first_then, then_first),
                        f"at {i},{j},{k},{l}"))

    for i in rng:
        for j in rng:
            ident = backend.identity_mor(data.hom[(i, j)])
            lhs = backend.compose(
                backend.tensor_mor(data.unit[i], ident), data.mult[(i, i, j)])
            records.append(LawRecord(
                "hopfcat.unit.left", backend.equal_mor(lhs, ident), f"at {i},{j}"))
            rhs = backend.compose(
                backend.tensor_mor(ident, data.unit[j]), data.mult[(i, j, j)])
            records.append(LawRecord(
                "hopfcat.unit.right", backend.equal_mor(rhs, ident), f"at {i},{j}"))

    for i in rng:
        for j in rng:
            com = data.hom_comonoid(i, j)
            for rec in check_comonoid(backend, com, cocommutative=None):
                records.append(LawRecord(rec.rule, rec.holds,
                                         (rec.detail + " " if rec.detail else "") + f"at {i},{j}"))

    for i in rng:
        for j in rng:
            for k in rng:
                square = tensor_comonoid(backend, data.hom_comonoid(i, j),
                                         data.hom_comonoid(j, k))
                for rec in check_comonoid_morphism(
                        backend, data.mult[(i, j, k)], square,
                        data.hom_comonoid(i, k), "mult"):
                    records.append(LawRecord(rec.rule, rec.holds, f"at {i},{j},{k}"))

    for i in rng:
        for rec in check_comonoid_morphism(
                backend, data.unit[i], unit_comonoid(backend),
                data.hom_comonoid(i, i), "unit"):
            records.append(LawRecord(rec.rule, rec.holds, f"at {i}"))

    for i in rng:
        for j in rng:
            ident = backend.identity_mor(data.hom[(i, j)])
            absorb_j = backend.compose(data.eps[(i, j)], data.unit[j])
            absorb_i = backend.compose(data.eps[(i, j)], data.unit[i])
            left = backend.compose(
                data.delta[(i, j)],
                backend.tensor_mor(data.antipode[(i, j)], ident),
                data.mult[(j, i, j)])
            records.append(LawRecord(
                "hopfcat.antipode.left", backend.equal_mor(left, absorb_j), f"at {i},{j}"))
            right = backend.compose(
                data.delta[(i, j)],
                backend.tensor_mor(ident, data.antipode[(i, j)]),
                data.mult[(i, j, i)])
            records.append(LawRecord(
                "hopfcat.antipode.right", backend.equal_mor(right, absorb_i), f"at {i},{j}"))

    for i in rng:
        for j in rng:
            lhs = backend.compose(data.antipode[(i, j)], data.antipode[(j, i)])
            records.append(LawRecord(
                "hopfcat.antipode.involutive",
                backend.equal_mor(lhs, backend.identity_mor(data.hom[(i, j)])),
                f"at {i},{j}"))

    return records


# ---------------------------------------------------------------------------
# one-object case


def build_hopf_monoid(functor, m: Comonoid):
    """The one-object structure on F(M (x) M), packaged as a Hopf monoid."""
    data = build_hopf_category(functor, [m])
    return HopfMonoidData(
        obj=data.hom[(0, 0)],
        mult=data.mult[(0, 0, 0)],
        unit=data.unit[0],
        delta=data.delta[(0, 0)],
        eps=data.eps[(0, 0)],
        antipode=data.antipode[(0, 0)],
        name=f"H({m.name})" if m.name else "",
    )


# ---------------------------------------------------------------------------
# groupoids


@dataclass
class GroupoidTable:
    """Composition tables of a finite groupoid.

    hom_size[(i, j)] counts arrows i -> j; comp[(i, j, k)] is the table of
    hom(i,j) x hom(j,k) -> hom(i,k) in row-major pair index; identity[i]
    and inverse[(i, j)] pick out units and inverses.
    """

    labels: tuple
    hom_size: dict
    comp: dict
    identity: dict
    inverse: dict


def verify_groupoid(gt: GroupoidTable):
    records = []
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
    records.append(LawRecord("groupoid.assoc", ok))

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


def extract_set_groupoid(backend, data: HopfCategoryData):
    """Strip a finset structure with diagonal comonoids down to its
    groupoid tables, and verify the groupoid axioms on the result.

    Returns (table, records).  The records include the axiom checks plus
    a guard that the comonoids really are diagonal (otherwise the
    set-theoretic reading is meaningless).
    """
    if backend.kind != "finset":
        raise ValueError("set groupoids need a finset backend")
    records = []
    n = data.size()
    diag_ok = True
    for i in range(n):
        for j in range(n):
            size = backend.obj_size(data.hom[(i, j)])
            expected = tuple(a * size + a for a in range(size))
            if data.delta[(i, j)].table != expected:
                diag_ok = False
    records.append(LawRecord("groupoid.diagonal_splitting", diag_ok))

    gt = GroupoidTable(
        labels=data.labels,
        hom_size={(i, j): backend.obj_size(data.hom[(i, j)])
                  for i in range(n) for j in range(n)},
        comp={key: data.mult[key].table for key in data.mult},
        identity={i: data.unit[i].table[0] for i in range(n)},
        inverse={key: data.antipode[key].table for key in data.antipode},
    )
    records.extend(verify_groupoid(gt))
    return gt, records
