"""Comonoids, Hopf categories and Hopf monoids inside a backend, with
law checking.

A comonoid is an object with a splitting map into two copies of itself
and a map to the unit, subject to coassociativity and counit laws;
is_cocommutative decides cocommutativity for every caller.

A Hopf monoid is a Hopf category with one object (Batista, Caenepeel &
Vercruysse, "Hopf categories", 2016).  hopf_laws checks the laws the two
share on a HopfCategoryData; check_hopf_monoid runs it on the one-object
structure and adds equivariance, hopfcategory.check_hopf_category adds
positions and involutivity of the antipode.

Checks return LawRecord lists so callers can aggregate into reports; a
structure is accepted only if every record holds.
"""

from __future__ import annotations

from itertools import product

from .backends import MorphismRep, _arrow_generators, _assoc_witness
from .scalars import Value


class LawRecord(Value):
    __slots__ = ("rule", "holds", "detail")

    def __init__(self, rule, holds, detail=""):
        self.rule, self.holds, self.detail = rule, holds, detail


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


class Comonoid(Value):
    __slots__ = ("obj", "delta", "eps", "name")

    def __init__(self, obj, delta, eps, name=""):
        self.obj = obj
        self.delta = delta  # obj -> obj (x) obj
        self.eps = eps      # obj -> unit
        self.name = name


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


def is_cocommutative(backend, c: Comonoid):
    """Whether the splitting map of c, then the swap of its two copies,
    is the splitting map."""
    return backend.equal_mor(backend.compose(c.delta, backend.braiding(c.obj, c.obj)), c.delta)


def check_comonoid(backend, c: Comonoid, cocommutative=None):
    """Coassociativity, both counit laws, equivariance of the structure
    maps, and (optionally) cocommutativity; or one failing comonoid.shape
    record when a map is not shaped as Comonoid says (shape_failure).
    """
    records = []
    obj = c.obj
    ident = backend.identity_mor(obj)
    bad = shape_failure(backend, [("splitting map", c.delta, obj, obj.tensor(obj)),
                                  ("counit", c.eps, obj, backend.unit())])
    if bad:
        return [LawRecord("comonoid.shape", False, bad)]

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
        records.append(LawRecord("comonoid.cocommutative", is_cocommutative(backend, c)))
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
    """f: src.obj -> dst.obj, endpoints its callers check, respects the
    splitting maps and counits of src and dst."""
    prefix = f"comorphism{'.' + tag if tag else ''}"
    return [equal_record(backend, prefix + ".split", backend.compose(f, dst.delta),
                         backend.compose_tensor(src.delta, [f, f])),
            equal_record(backend, prefix + ".counit", backend.compose(f, dst.eps), src.eps)]


# ---------------------------------------------------------------------------
# associativity of a multiplication by Light's test


def shape_failure(backend, maps):
    """"" when every (name, f, dom, cod) of maps is a map dom -> cod whose
    table, if it has one, sends each of the |dom| points into range(|cod|);
    else a detail naming the first that is not, or that is None (missing).
    The law checks index tables by their values, so they may run only once
    this holds."""
    for name, f, dom, cod in maps:
        if f is None:
            return f"{name} is missing"
        if (f.dom, f.cod) != (dom, cod):
            return (f"{name} is {f.dom.label()} -> {f.cod.label()}, "
                    f"not {dom.label()} -> {cod.label()}")
        n, m = backend.obj_size(dom), backend.obj_size(cod)
        if f.table is not None and len(f.table) != n:
            return f"{name} has {len(f.table)} entries, not {n}"
        if f.table and not (0 <= min(f.table) and max(f.table) < m):
            p, v = next((p, v) for p, v in enumerate(f.table) if not 0 <= v < m)
            return f"{name} sends {p} to {v}, outside range({m})"
    return ""


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

    Finset tables, which must pass shape_failure, go through Light's test
    first, which reads no composite: when it holds, no position fails.
    Otherwise each position compares m (x) 1 then m with 1 (x) m then m as
    tables.  A failing table position names its first point (x, s, y) in
    row-major order where the two sides differ, and the values found
    there; a failing matrix position has an empty witness."""
    if backend.kind == "finset":
        hs = {key: backend.obj_size(obj) for key, obj in hom.items()}
        tables = {key: f.table for key, f in mult.items()}
        if not _assoc_witness(n, hs, tables, _arrow_generators(n, hs, tables)):
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
# Hopf categories and Hopf monoids


class HopfCategoryData(Value):
    """The full structure over a list of base labels.

    hom[(i, j)] is the object F(x_i (x) x_j) of the target backend;
    mult[(i, j, k)]: hom[i,j] (x) hom[j,k] -> hom[i,k];
    unit[i]: 1 -> hom[i,i];
    delta/eps give each hom its comonoid;
    antipode[(i, j)]: hom[i,j] -> hom[j,i].
    """

    __slots__ = ("labels", "backend", "hom", "mult", "unit", "delta", "eps", "antipode")
    __hash__ = None

    def __init__(self, labels, backend, hom=None, mult=None, unit=None, delta=None,
                 eps=None, antipode=None):
        self.labels, self.backend = labels, backend
        self.hom, self.mult, self.unit, self.delta, self.eps, self.antipode = (
            {} if m is None else m for m in (hom, mult, unit, delta, eps, antipode))

    def size(self):
        return len(self.labels)


def hopf_laws(backend, data: HopfCategoryData, prefix):
    """(record, position) of each law a Hopf category shares with a Hopf
    monoid: associativity at (i, j, k, l) and the unit laws at (i, j), as
    prefix.assoc and prefix.unit.*; the comonoid laws of each hom at (i, j);
    mult and unit as comonoid morphisms at (i, j, k) and (i,); the antipode
    laws at (i, j), as prefix.antipode.*.  Law by law, positions in
    lexicographic order; every map must pass shape_failure first."""
    rng = range(data.size())
    hom, mult, unit, delta, eps, antipode = (data.hom, data.mult, data.unit,
                                             data.delta, data.eps, data.antipode)
    bad = assoc_failures(backend, hom, mult, len(rng))
    for pos in product(rng, repeat=4):
        yield LawRecord(f"{prefix}.assoc", pos not in bad, bad.get(pos, "")), pos

    for i, j in product(rng, repeat=2):
        ident = backend.identity_mor(hom[(i, j)])
        lhs = backend.compose(backend.tensor_mor(unit[i], ident), mult[(i, i, j)])
        yield LawRecord(f"{prefix}.unit.left", backend.equal_mor(lhs, ident)), (i, j)
        rhs = backend.compose(backend.tensor_mor(ident, unit[j]), mult[(i, j, j)])
        yield LawRecord(f"{prefix}.unit.right", backend.equal_mor(rhs, ident)), (i, j)

    comonoids = {(i, j): Comonoid(hom[(i, j)], delta[(i, j)], eps[(i, j)])
                 for i, j in product(rng, repeat=2)}
    for key, c in comonoids.items():
        for rec in check_comonoid(backend, c):
            yield rec, key

    for i, j, k in product(rng, repeat=3):
        square = tensor_comonoid(backend, comonoids[(i, j)], comonoids[(j, k)])
        for rec in check_comonoid_morphism(backend, mult[(i, j, k)], square,
                                           comonoids[(i, k)], "mult"):
            yield rec, (i, j, k)
    for i in rng:
        for rec in check_comonoid_morphism(backend, unit[i], unit_comonoid(backend),
                                           comonoids[(i, i)], "unit"):
            yield rec, (i,)

    # split, hit one side, multiply: both orders land on eps-then-unit
    for i, j in product(rng, repeat=2):
        ident = backend.identity_mor(hom[(i, j)])
        left = backend.compose(
            backend.compose_tensor(delta[(i, j)], [antipode[(i, j)], ident]), mult[(j, i, j)])
        yield equal_record(backend, f"{prefix}.antipode.left", left,
                           backend.compose(eps[(i, j)], unit[j])), (i, j)
        right = backend.compose(
            backend.compose_tensor(delta[(i, j)], [ident, antipode[(i, j)]]), mult[(i, j, i)])
        yield equal_record(backend, f"{prefix}.antipode.right", right,
                           backend.compose(eps[(i, j)], unit[i])), (i, j)


class HopfMonoidData(Value):
    """An object with multiplication, unit, splitting, counit, antipode.

    unit is a morphism from the backend unit object; mult from obj (x) obj.
    """

    __slots__ = ("obj", "mult", "unit", "delta", "eps", "antipode", "name")

    def __init__(self, obj, mult, unit, delta, eps, antipode, name=""):
        self.obj, self.mult, self.unit, self.delta = obj, mult, unit, delta
        self.eps, self.antipode, self.name = eps, antipode, name


def check_hopf_monoid(backend, h: HopfMonoidData):
    """The laws of h read as a one-object Hopf category (hopf_laws, without
    positions), then equivariance of mult, unit and antipode; or one
    failing hopf.shape record when a map is not shaped as HopfMonoidData
    says (shape_failure).
    """
    obj, u = h.obj, backend.unit()
    bad = shape_failure(backend, [
        ("mult", h.mult, obj.tensor(obj), obj), ("unit", h.unit, u, obj),
        ("delta", h.delta, obj, obj.tensor(obj)), ("eps", h.eps, obj, u),
        ("antipode", h.antipode, obj, obj)])
    if bad:
        return [LawRecord("hopf.shape", False, bad)]
    one = HopfCategoryData((h.name,), backend, {(0, 0): obj}, {(0, 0, 0): h.mult},
                           {0: h.unit}, {(0, 0): h.delta}, {(0, 0): h.eps},
                           {(0, 0): h.antipode})
    records = [rec for rec, _ in hopf_laws(backend, one, "hopf")]
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
