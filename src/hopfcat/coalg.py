"""Comonoids and Hopf monoids inside a backend, with law checking.

A comonoid is an object with a splitting map into two copies of itself
and a map to the unit, subject to coassociativity and counit laws.
Cocommutativity is tracked as a flag and verified.

Checks return LawRecord lists so callers can aggregate into reports; a
structure is accepted only if every record holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import MorphismRep, ObjectRef


@dataclass(frozen=True)
class LawRecord:
    rule: str
    holds: bool
    detail: str = ""


def all_hold(records):
    return all(r.holds for r in records)


def failures(records):
    return [r for r in records if not r.holds]


def equal_record(backend, rule, lhs, rhs):
    """The record that lhs = rhs, two maps with the same endpoints.  A
    failing one names the first difference: `lhs[i] = a, rhs[i] = b` at the
    first domain point i of two tables, `lhs[r,c] = a, rhs[r,c] = b` at the
    first entry (r, c) of two matrices in row-major order."""
    if backend.equal_mor(lhs, rhs):
        return LawRecord(rule, True)
    if lhs.table is not None:
        i = next(i for i, (a, b) in enumerate(zip(lhs.table, rhs.table)) if a != b)
        return LawRecord(rule, False, f"lhs[{i}] = {lhs.table[i]}, rhs[{i}] = {rhs.table[i]}")
    a, b = lhs.matrix, rhs.matrix
    r = next(r for r in range(a.rows) if a.nz[r] != b.nz[r])
    c = min(j for j in a.nz[r].keys() | b.nz[r].keys() if a[r, j] != b[r, j])
    return LawRecord(rule, False, f"lhs[{r},{c}] = {a[r, c]}, rhs[{r},{c}] = {b[r, c]}")


@dataclass(frozen=True)
class Comonoid:
    obj: ObjectRef
    delta: MorphismRep  # obj -> obj (x) obj
    eps: MorphismRep    # obj -> unit
    name: str = ""


def diagonal_comonoid(backend, obj, name=""):
    """Finset: every object splits along the diagonal, with the unique
    map to the point as counit.  This is the terminal comonoid structure
    and is always cocommutative.
    """
    if backend.kind != "finset":
        raise ValueError("diagonal comonoids live in the finset backend")
    n = backend.obj_size(obj)
    delta = backend.mor_from_table(obj, obj.tensor(obj),
                                   tuple(i * n + i for i in range(n)))
    eps = backend.mor_from_table(obj, backend.unit(), (0,) * n)
    return Comonoid(obj, delta, eps, name or obj.label())


def group_like_comonoid(backend, obj, name=""):
    """Linear: the basis is declared group-like, so the splitting map
    sends basis vector i to i (x) i and the counit sends every basis
    vector to 1.
    """
    if backend.kind == "finset":
        raise ValueError("group-like comonoids need a linear backend")
    from .linalg import Matrix
    n = backend.obj_size(obj)
    ring = backend.ring
    delta = backend.mor_from_matrix(obj, obj.tensor(obj),
                                    Matrix.from_table(ring, [i * n + i for i in range(n)], n * n))
    eps = backend.mor_from_matrix(obj, backend.unit(), Matrix.from_table(ring, (0,) * n, 1))
    return Comonoid(obj, delta, eps, name or obj.label())


def unit_comonoid(backend):
    """The unit object with its unique comonoid structure."""
    u = backend.unit()
    ident = backend.identity_mor(u)
    return Comonoid(u, MorphismRep(u, u.tensor(u), table=ident.table, matrix=ident.matrix),
                    ident, "1")


def check_comonoid(backend, c: Comonoid, cocommutative=None):
    """Coassociativity, both counit laws, equivariance of the structure
    maps, and (optionally) cocommutativity.
    """
    records = []
    obj = c.obj
    ident = backend.identity_mor(obj)
    if c.delta.dom != obj or c.delta.cod != obj.tensor(obj):
        return [LawRecord("comonoid.shape", False, "splitting map has wrong endpoints")]
    if c.eps.dom != obj or c.eps.cod != backend.unit():
        return [LawRecord("comonoid.shape", False, "counit has wrong endpoints")]

    records.append(equal_record(backend, "comonoid.coassoc",
                                backend.compose_tensor(c.delta, [c.delta, ident]),
                                backend.compose_tensor(c.delta, [ident, c.delta])))
    records.append(equal_record(backend, "comonoid.counit.left",
                                backend.compose_tensor(c.delta, [c.eps, ident]), ident))
    records.append(equal_record(backend, "comonoid.counit.right",
                                backend.compose_tensor(c.delta, [ident, c.eps]), ident))

    for tag, f in (("split", c.delta), ("counit", c.eps)):
        bad = backend.check_equivariant(f)
        records.append(LawRecord(f"comonoid.equivariant.{tag}", not bad, "; ".join(bad)))

    if cocommutative:
        sw = backend.braiding(obj, obj)
        records.append(LawRecord(
            "comonoid.cocommutative",
            backend.equal_mor(backend.compose(c.delta, sw), c.delta)))
    return records


def tensor_comonoid(backend, c1: Comonoid, c2: Comonoid):
    """Tensor product comonoid: split both factors and shuffle the middle
    pair past each other.
    """
    x, y = c1.obj, c2.obj
    ident_x = backend.identity_mor(x)
    ident_y = backend.identity_mor(y)
    both = backend.tensor_mor(c1.delta, c2.delta)  # xy -> x x y y
    delta = backend.compose_tensor(both, [ident_x, backend.braiding(x, y), ident_y])
    eps = backend.tensor_mor(c1.eps, c2.eps)  # -> unit (x) unit = unit
    name = f"{c1.name}(x){c2.name}" if (c1.name and c2.name) else ""
    return Comonoid(x.tensor(y), delta, eps, name)


def check_comonoid_morphism(backend, f: MorphismRep, src: Comonoid, dst: Comonoid, tag=""):
    """f respects the splitting maps and counits of src and dst."""
    prefix = f"comorphism{'.' + tag if tag else ''}"
    if f.dom != src.obj or f.cod != dst.obj:
        return [LawRecord(prefix + ".shape", False, "endpoints disagree with comonoids")]
    return [equal_record(backend, prefix + ".split", backend.compose(f, dst.delta),
                         backend.compose_tensor(src.delta, [f, f])),
            equal_record(backend, prefix + ".counit", backend.compose(f, dst.eps), src.eps)]


# ---------------------------------------------------------------------------
# associativity of a multiplication by Light's test


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


def _assoc_witness(n, hs, comp):
    """Light's test.  The arrows s with (x*s)*y = x*(s*y) for all
    composable x, y are closed under composition, since
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y); so the law holds
    everywhere once it holds for every s of a generating set, whose
    closure adds only composites of arrows it already holds.  Returns ""
    when it holds, else the first failing (x, s, y) found.  Every entry of
    comp[(i, j, k)] must lie in range(hs[(i, k)])."""
    rng = range(n)
    for j, k, s in _arrow_generators(n, hs, comp):
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


def _closed_tables(backend, hom, mult):
    """Every mult[(i, j, k)] is a table hom[(i, j)] (x) hom[(j, k)] ->
    hom[(i, k)] whose values lie in its codomain, so Light's test applies."""
    for (i, j, k), f in mult.items():
        if (f.dom != hom[(i, j)].tensor(hom[(j, k)]) or f.cod != hom[(i, k)]
                or len(f.table) != backend.obj_size(f.dom)):
            return False
        if f.table and not (0 <= min(f.table) and max(f.table) < backend.obj_size(f.cod)):
            return False
    return True


def _first_difference(lhs, rhs, nb, nc):
    """The first point (x, s, y), row-major, of a product a (x) b (x) c
    with |b| = nb and |c| = nc where two tables differ, with both values;
    "" for matrices or when no entry differs."""
    if lhs.table is None:
        return ""
    for p, (u, v) in enumerate(zip(lhs.table, rhs.table)):
        if u != v:
            x, sy = divmod(p, nb * nc)
            return f"(x*s)*y = {u}, x*(s*y) = {v} with x={x}, s={sy // nc}, y={sy % nc}"
    return ""


def assoc_failures(backend, hom, mult, n):
    """{(i, j, k, l): witness} for every position where the two ways of
    multiplying hom[i,j] (x) hom[j,k] (x) hom[k,l] into hom[i,l] differ;
    hom[(i, j)] is an object and mult[(i, j, k)] a map
    hom[i,j] (x) hom[j,k] -> hom[i,k], for objects 0..n-1.

    Finset tables with values in their codomains go through Light's test
    first, which reads no composite: when it holds, no position fails.
    Otherwise each position compares m (x) 1 then m with 1 (x) m then m as
    tables.  A failing table position names its first point (x, s, y) in
    row-major order where the two sides differ, and the values found
    there; a failing matrix position has an empty witness."""
    if backend.kind == "finset" and _closed_tables(backend, hom, mult):
        hs = {key: backend.obj_size(obj) for key, obj in hom.items()}
        if not _assoc_witness(n, hs, {key: f.table for key, f in mult.items()}):
            return {}
    bad = {}
    rng = range(n)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    a, b, c = hom[(i, j)], hom[(j, k)], hom[(k, l)]
                    lhs = backend.compose(
                        backend.tensor_mor(mult[(i, j, k)], backend.identity_mor(c)),
                        mult[(i, k, l)])
                    rhs = backend.compose(
                        backend.tensor_mor(backend.identity_mor(a), mult[(j, k, l)]),
                        mult[(i, j, l)])
                    if not backend.equal_mor(lhs, rhs):
                        bad[(i, j, k, l)] = _first_difference(
                            lhs, rhs, backend.obj_size(b), backend.obj_size(c))
    return bad


# ---------------------------------------------------------------------------
# Hopf monoids


@dataclass(frozen=True)
class HopfMonoidData:
    """An object with multiplication, unit, splitting, counit, antipode.

    unit is a morphism from the backend unit object; mult from obj (x) obj.
    """

    obj: ObjectRef
    mult: MorphismRep
    unit: MorphismRep
    delta: MorphismRep
    eps: MorphismRep
    antipode: MorphismRep
    name: str = ""


def check_hopf_monoid(backend, h: HopfMonoidData):
    """The full law set: associativity and unitality of mult, the comonoid
    laws, bialgebra compatibility (mult and unit are comonoid morphisms),
    the antipode identities on both sides, and equivariance of mult, unit
    and antipode.
    """
    records = []
    obj = h.obj
    ident = backend.identity_mor(obj)
    u = backend.unit()

    bad = assoc_failures(backend, {(0, 0): obj}, {(0, 0, 0): h.mult}, 1)
    records.append(LawRecord("hopf.assoc", not bad, bad.get((0, 0, 0, 0), "")))
    records.append(LawRecord(
        "hopf.unit.left",
        backend.equal_mor(backend.compose(backend.tensor_mor(h.unit, ident), h.mult), ident)))
    records.append(LawRecord(
        "hopf.unit.right",
        backend.equal_mor(backend.compose(backend.tensor_mor(ident, h.unit), h.mult), ident)))

    comon = Comonoid(obj, h.delta, h.eps, h.name)
    records.extend(check_comonoid(backend, comon))

    # mult and unit must respect the comonoid structure
    square = tensor_comonoid(backend, comon, comon)
    records.extend(check_comonoid_morphism(backend, h.mult, square, comon, "mult"))
    records.extend(check_comonoid_morphism(backend, h.unit, unit_comonoid(backend), comon, "unit"))

    # antipode: split, hit one side, multiply; both orders land on eps-then-unit
    absorb = backend.compose(h.eps, h.unit)
    left = backend.compose(backend.compose_tensor(h.delta, [h.antipode, ident]), h.mult)
    right = backend.compose(backend.compose_tensor(h.delta, [ident, h.antipode]), h.mult)
    records.append(equal_record(backend, "hopf.antipode.left", left, absorb))
    records.append(equal_record(backend, "hopf.antipode.right", right, absorb))

    for tag, f in (("mult", h.mult), ("unit", h.unit), ("antipode", h.antipode)):
        bad = backend.check_equivariant(f)
        records.append(LawRecord(f"hopf.equivariant.{tag}", not bad, "; ".join(bad)))
    return records


def group_algebra_hopf(backend, obj, group=None):
    """The regular-representation object as a Hopf monoid: basis vectors
    multiply by the group law, split group-like, and the antipode inverts.

    obj must be a single atom whose basis is the group itself under left
    translation (size == group order, action = translation), which is what
    regular_linear_atom builds.
    """
    from .linalg import Matrix
    if backend.kind == "finset":
        raise ValueError("group algebra needs a linear backend")
    group = group or backend.group
    n = group.order
    if backend.obj_size(obj) != n:
        raise ValueError("object size must equal the group order")
    ring = backend.ring
    mult = backend.mor_from_matrix(obj.tensor(obj), obj, Matrix.from_table(
        ring, [group.mul(g, h) for g in range(n) for h in range(n)], n))
    unit = backend.mor_from_matrix(backend.unit(), obj, Matrix.from_table(ring, (0,), n))
    glike = group_like_comonoid(backend, obj)
    antipode = backend.mor_from_matrix(obj, obj, Matrix.from_table(
        ring, [group.inv(g) for g in range(n)], n))

    return HopfMonoidData(obj, mult, unit, glike.delta, glike.eps, antipode,
                          name=f"k[{obj.label()}]")
