"""Hopf categories (and the one-object case, Hopf monoids) built from a
comonoidal functor and a family of adapted cocommutative comonoids.

The hom object between two family members x, y is F(x (x) y).  The
composition-like multiplication merges along the middle comonoid through
the inverted splitting map; the identity-like unit splits a point; the
antipode swaps the two factors.  Every constructor here is pure: it
builds the data, and `check_hopf_category` / `check_hopf_monoid` re-derive
every law from scratch, through the one law suite the two share
(`coalg.hopf_laws`, on `coalg.HopfCategoryData`, re-exported here).

When the backend is finset and the comonoids are diagonal, the whole
structure is a groupoid in disguise; `extract_set_groupoid` pulls out the
plain composition tables and verifies the groupoid axioms directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .backends import _arrow_generators, _assoc_witness
from .coalg import (
    Comonoid,
    HopfCategoryData,
    HopfMonoidData,
    LawRecord,
    hopf_laws,
    is_cocommutative,
    shape_failure,
)
from .cofunctor import certify_adapted, mult_along


class NotCocommutative(ValueError):
    pass


def hopf_data_equal(a, b):
    """Same labels, and the same objects and maps (endpoints and entries)
    at every key of every structure dict; the backends are not compared."""
    return all(getattr(a, f) == getattr(b, f)
               for f in ("labels", "hom", "mult", "unit", "delta", "eps", "antipode"))


def require_cocommutative(backend, comonoids):
    for c in comonoids:
        if not is_cocommutative(backend, c):
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
    return functor.split(split_double, xy, xy), functor.apply_mor(braid)


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
            data.eps[(i, j)] = functor.apply_mor(src.tensor_mor(x.eps, y.eps))

    for i, x in enumerate(comonoids):
        chi_inv = certs[i].chi_inv
        data.unit[i] = dst.compose(chi_inv, functor.apply_mor(x.delta))

    for i, x in enumerate(comonoids):
        for j, y in enumerate(comonoids):
            for k, z in enumerate(comonoids):
                data.mult[(i, j, k)] = mult_along(functor, certs[j], x.obj, z.obj)

    return data


def _at(rec, pos):
    """rec with the position it was checked at appended to its detail."""
    where = ",".join(map(str, pos))
    return LawRecord(rec.rule, rec.holds, (rec.detail + " " if rec.detail else "") + f"at {where}")


def _maps(backend, data):
    """(name, map, dom, cod) of every map of data, as its docstring has
    them; the map is None where its key is missing."""
    rng, hom, u = range(data.size()), data.hom, backend.unit()
    for i, j, k in product(rng, repeat=3):
        yield (f"mult[{i},{j},{k}]", data.mult.get((i, j, k)),
               hom[(i, j)].tensor(hom[(j, k)]), hom[(i, k)])
    for i in rng:
        yield f"unit[{i}]", data.unit.get(i), u, hom[(i, i)]
    for i, j in product(rng, repeat=2):
        h = hom[(i, j)]
        yield f"delta[{i},{j}]", data.delta.get((i, j)), h, h.tensor(h)
        yield f"eps[{i},{j}]", data.eps.get((i, j)), h, u
        yield f"antipode[{i},{j}]", data.antipode.get((i, j)), h, hom[(j, i)]


def check_hopf_category(backend, data: HopfCategoryData):
    """Every law of the structure, one record each, with the positions
    that were checked in the detail string: the laws it shares with a Hopf
    monoid (coalg.hopf_laws), then involutivity of the antipode.  Or one
    failing hopfcat.shape record when a hom is missing or a map is
    misshapen (shape_failure).
    """
    rng = range(data.size())
    bad = next((f"hom[{i},{j}] is missing" for i in rng for j in rng
                if (i, j) not in data.hom), "") or shape_failure(backend, _maps(backend, data))
    if bad:
        return [LawRecord("hopfcat.shape", False, bad)]
    records = [_at(rec, pos) for rec, pos in hopf_laws(backend, data, "hopfcat")]
    for i, j in product(rng, repeat=2):
        lhs = backend.compose(data.antipode[(i, j)], data.antipode[(j, i)])
        records.append(_at(LawRecord("hopfcat.antipode.involutive", backend.equal_mor(
            lhs, backend.identity_mor(data.hom[(i, j)]))), (i, j)))
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
