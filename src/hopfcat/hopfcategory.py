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

from .backends import ObjectRef, _arrow_generators, _assoc_witness
from .coalg import (
    Comonoid,
    HopfMonoidData,
    LawRecord,
    assoc_failures,
    check_comonoid,
    check_comonoid_morphism,
    equal_record,
    shape_failure,
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


def split_and_antipode(functor, x: Comonoid, y: Comonoid, braid):
    """The splitting and the antipode of the hom F(x (x) y), read through
    braid: x (x) y -> y (x) x, the source symmetry in the plain structure.
    Both are linear in braid, which is how deformations build theirs."""
    src = functor.source
    xy = x.obj.tensor(y.obj)
    split_double = src.compose_tensor(
        src.tensor_mor(x.delta, y.delta),
        [src.identity_mor(x.obj), braid, src.identity_mor(y.obj)])
    return functor.f2_after(split_double, xy, xy), functor.apply_mor(braid)


def build_hopf_category(functor, comonoids):
    """Construct the structure; raises NotCocommutative / NotAdapted when
    the inputs do not qualify."""
    src = functor.source
    dst = functor.target
    require_cocommutative(src, comonoids)
    labels = tuple(c.name or c.obj.label() for c in comonoids)

    all_pairs = [(a.obj, b.obj) for a in comonoids for b in comonoids]
    certs = [certify_adapted(functor, m, all_pairs) for m in comonoids]

    data = HopfCategoryData(labels, dst)
    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            data.hom[(i, j)] = functor.apply_obj(x.obj.tensor(y.obj))
            data.delta[(i, j)], data.antipode[(i, j)] = split_and_antipode(
                functor, x, y, src.braiding(x.obj, y.obj))
            data.eps[(i, j)] = dst.compose(
                functor.apply_mor(src.tensor_mor(x.eps, y.eps)), functor.f0())

    for i, x in enumerate(comonoids):
        chi_inv = certs[i].chi_inv
        data.unit[i] = dst.compose(chi_inv, functor.apply_mor(x.delta))

    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            for k, z in enumerate(comonoids):
                data.mult[(i, j, k)] = mult_along(functor, certs[j], x.obj, z.obj)

    return data


def _at(rec, where):
    """rec with the position it was checked at appended to its detail."""
    return LawRecord(rec.rule, rec.holds, (rec.detail + " " if rec.detail else "") + f"at {where}")


def _maps(backend, data):
    """(name, map, dom, cod) of every map of data, as its docstring has
    them; the map is None where its key is missing."""
    rng, hom, u = range(data.size()), data.hom, backend.unit()
    for i, j, k in ((i, j, k) for i in rng for j in rng for k in rng):
        yield (f"mult[{i},{j},{k}]", data.mult.get((i, j, k)),
               hom[(i, j)].tensor(hom[(j, k)]), hom[(i, k)])
    for i in rng:
        yield f"unit[{i}]", data.unit.get(i), u, hom[(i, i)]
    for i, j in ((i, j) for i in rng for j in rng):
        h = hom[(i, j)]
        yield f"delta[{i},{j}]", data.delta.get((i, j)), h, h.tensor(h)
        yield f"eps[{i},{j}]", data.eps.get((i, j)), h, u
        yield f"antipode[{i},{j}]", data.antipode.get((i, j)), h, hom[(j, i)]


def check_hopf_category(backend, data: HopfCategoryData):
    """Every law of the structure, one record each, with the positions
    that were checked in the detail string; or one failing hopfcat.shape
    record when a hom is missing or a map is misshapen (shape_failure).
    """
    n = data.size()
    rng = range(n)
    bad = next((f"hom[{i},{j}] is missing" for i in rng for j in rng
                if (i, j) not in data.hom), "") or shape_failure(backend, _maps(backend, data))
    if bad:
        return [LawRecord("hopfcat.shape", False, bad)]
    records = []

    bad = assoc_failures(backend, data.hom, data.mult, n)
    for pos in ((i, j, k, l) for i in rng for j in rng for k in rng for l in rng):
        records.append(_at(LawRecord("hopfcat.assoc", pos not in bad, bad.get(pos, "")),
                           ",".join(map(str, pos))))

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
                records.append(_at(rec, f"{i},{j}"))

    for i in rng:
        for j in rng:
            for k in rng:
                square = tensor_comonoid(backend, data.hom_comonoid(i, j),
                                         data.hom_comonoid(j, k))
                for rec in check_comonoid_morphism(
                        backend, data.mult[(i, j, k)], square,
                        data.hom_comonoid(i, k), "mult"):
                    records.append(_at(rec, f"{i},{j},{k}"))

    for i in rng:
        for rec in check_comonoid_morphism(
                backend, data.unit[i], unit_comonoid(backend),
                data.hom_comonoid(i, i), "unit"):
            records.append(_at(rec, f"{i}"))

    for i in rng:
        for j in rng:
            ident = backend.identity_mor(data.hom[(i, j)])
            absorb_j = backend.compose(data.eps[(i, j)], data.unit[j])
            absorb_i = backend.compose(data.eps[(i, j)], data.unit[i])
            left = backend.compose(
                backend.compose_tensor(data.delta[(i, j)], [data.antipode[(i, j)], ident]),
                data.mult[(j, i, j)])
            records.append(_at(equal_record(
                backend, "hopfcat.antipode.left", left, absorb_j), f"{i},{j}"))
            right = backend.compose(
                backend.compose_tensor(data.delta[(i, j)], [ident, data.antipode[(i, j)]]),
                data.mult[(i, j, i)])
            records.append(_at(equal_record(
                backend, "hopfcat.antipode.right", right, absorb_i), f"{i},{j}"))

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
    """The groupoid laws, one record each.  A failing record's `detail`
    names the first arrow it failed at (for associativity, a failing
    triple) and the composites found there."""
    n = len(gt.labels)
    rng = range(n)
    hs, comp, e = gt.hom_size, gt.comp, gt.identity
    ident = inverse = ""
    for i in rng:
        for j in rng:
            h = hs[(i, j)]
            for side, row in (("e*a", comp[(i, i, j)][e[i] * h:(e[i] + 1) * h]),
                              ("a*e", comp[(i, j, j)][e[j]::hs[(j, j)]])):
                a = next((a for a in range(h) if row[a] != a), None)
                if not ident and a is not None:
                    ident = f"{side} = {row[a]} at {i},{j} with a={a}"
            for a, b in enumerate(gt.inverse[(i, j)]):
                ab, ba = comp[(i, j, i)][a * hs[(j, i)] + b], comp[(j, i, j)][b * h + a]
                if not inverse and (ab != e[i] or ba != e[j]):
                    inverse = f"a*a^-1 = {ab}, a^-1*a = {ba} at {i},{j} with a={a}"
    assoc = _assoc_witness(n, hs, comp, _arrow_generators(n, hs, comp))
    return [LawRecord("groupoid.assoc", not assoc, assoc),
            LawRecord("groupoid.identity", not ident, ident),
            LawRecord("groupoid.inverse", not inverse, inverse)]


def extract_set_groupoid(backend, data: HopfCategoryData):
    """Strip a finset structure with diagonal comonoids down to its
    groupoid tables, and verify the groupoid axioms on the result.

    Returns (table, records).  The records include the axiom checks plus
    a guard that the comonoids really are diagonal (otherwise the
    set-theoretic reading is meaningless).
    """
    if backend.kind != "finset":
        raise ValueError("set groupoids need a finset backend")
    n = data.size()
    sizes = {(i, j): backend.obj_size(data.hom[(i, j)]) for i in range(n) for j in range(n)}
    bad = next((f"at {i},{j}" for (i, j), size in sizes.items()
                if data.delta[(i, j)].table != tuple(a * size + a for a in range(size))), "")
    records = [LawRecord("groupoid.diagonal_splitting", not bad, bad)]

    gt = GroupoidTable(
        labels=data.labels,
        hom_size=sizes,
        comp={key: data.mult[key].table for key in data.mult},
        identity={i: data.unit[i].table[0] for i in range(n)},
        inverse={key: data.antipode[key].table for key in data.antipode},
    )
    records.extend(verify_groupoid(gt))
    return gt, records
