"""JSON instance files and their (de)serializers.

One document describes everything a batch run needs: a backend with its
group and atoms, a list of comonoids, a functor choice, Lie bialgebra
data with twists and modules, and a deformation block.  Every section is
optional; an empty document is a valid (vacuous) instance.

Document layout::

    {
      "name": "z3_torsors",                      # optional label
      "backend": "finset-gset" | "linrep" | "dy",
      "scalar_ring": {"kind": "rational"} | {"kind": "hseries", "order": 2},
      "group": {"kind": "cyclic", "n": 3}
               | {"kind": "symmetric", "n": 3}
               | {"kind": "trivial"}
               | {"table": [[...]], "names": [...]},
      "base": "b",                               # dy backends only
      "atoms": [{"name": "S",
                 "size": 3,
                 "action": "regular" | "trivial" | [per-element data],
                 "pi": matrix, "pistar": matrix}],   # dy only
      "comonoids": [{"obj": ["S"],
                     "delta": "diagonal" | "group-like" | table | matrix,
                     "eps": "point" | "ones" | table | matrix,
                     "name": "M"}],
      "functor": "identity" | "orbits" | "group-coinvariants"
                 | "dy-coinvariants",
      "lie_bialgebra": {"dim": 2,
                        "names": ["x", "y"],
                        "bracket": [[i, j, k, "c"], ...],
                        "cobracket": [[i, j, k, "d"], ...],
                        "twists": [matrix, ...],
                        "modules": ["V" | {"name", "dim", "pi", "pistar"}],
                        "uea": {"order": 4, "identity_degree": 3}},
      "deformation": {"order": 2,
                      "convention": "t_delta_zero" | "literal",
                      "t": [{"x": ["V"], "y": ["W"], "matrix": rows}]}
    }

Conventions.  Matrices are arrays of rows; rational entries are "p/q"
strings (plain integers allowed), series entries are degree-ascending
arrays of such strings.  Function tables are flat integer arrays.
Bracket constants [i, j, k, c] give the coefficient of e_k in [e_i, e_j];
cobracket constants [i, j, k, d] give the coefficient of e_j (x) e_k in
the cobracket of e_i.

Schema violations raise InstanceError; drivers map it to an input-error
exit, as opposed to mathematical failures discovered by the law checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .scalars import RATIONAL, Ring, hseries_ring
from .linalg import Matrix
from .backends import (
    Atom,
    Backend,
    BackendError,
    GroupTable,
    cyclic_group,
    regular_atom,
    regular_linear_atom,
    symmetric_group,
    trivial_group,
)
from .coalg import Comonoid, HopfMonoidData, diagonal_comonoid, group_like_comonoid
from .cofunctor import (
    IdentityFunctor,
    OrbitFunctor,
    dy_coinvariants_functor,
    group_coinvariants_functor,
)
from .hopfcategory import GroupoidTable, HopfCategoryData
from .liebialg import LieBialgebra
from .deform import PreCartierData


class InstanceError(ValueError):
    """The document does not match the instance schema."""


BACKEND_KINDS = {"finset-gset": "finset", "linrep": "linear", "dy": "dy"}

FUNCTOR_NAMES = ("identity", "orbits", "group-coinvariants", "dy-coinvariants")


def _require(cond, msg):
    if not cond:
        raise InstanceError(msg)


def _check_keys(doc, allowed, where):
    _require(isinstance(doc, dict), f"{where}: expected an object")
    extra = set(doc) - set(allowed)
    _require(not extra, f"{where}: unknown keys {sorted(extra)}")


def _reject_bools(x, where):
    """No field takes JSON's true or false, but bool subclasses int: the
    isinstance(x, int) checks and Ring.coerce would read them as 1 and 0.
    A list is entered only when it holds a bool, a list or an object, so a
    table or a matrix row is checked without a loop in Python."""
    if type(x) is bool:
        raise InstanceError(f"{where}: expected a number or a string, got {json.dumps(x)}")
    if type(x) is dict:
        for key, value in x.items():
            _reject_bools(value, f"{where}.{key}")
    elif type(x) is list and not {bool, list, dict}.isdisjoint(map(type, x)):
        for i, value in enumerate(x):
            _reject_bools(value, f"{where}[{i}]")


def _word(spec, where):
    """An object reference: an atom name or a list of atom names."""
    if isinstance(spec, str):
        return (spec,)
    _require(isinstance(spec, list) and all(isinstance(s, str) for s in spec),
             f"{where}: expected an atom name or a list of atom names")
    return tuple(spec)


# ---------------------------------------------------------------------------
# parsing


def parse_ring(doc) -> Ring:
    if doc is None:
        return RATIONAL
    if isinstance(doc, str):
        doc = {"kind": doc}
    _check_keys(doc, {"kind", "order"}, "scalar_ring")
    kind = doc.get("kind", "rational")
    if kind == "rational":
        return RATIONAL
    if kind == "hseries":
        order = doc.get("order")
        _require(isinstance(order, int) and order >= 0,
                 "scalar_ring: hseries needs an integer order >= 0")
        return hseries_ring(order)
    raise InstanceError(f"scalar_ring: unknown kind {kind!r}")


def parse_group(doc) -> GroupTable:
    if doc is None:
        return trivial_group()
    _check_keys(doc, {"kind", "n", "table", "names"}, "group")
    if "table" in doc:
        rows, names = doc["table"], doc.get("names")
        _require(isinstance(rows, list) and rows and all(
            isinstance(row, list) and all(isinstance(x, int) for x in row) for row in rows),
            "group.table: expected a nonempty list of integer rows")
        _require(names is None or isinstance(names, list) and len(names) == len(rows),
                 "group.names: expected a list of one name per element")
        table = tuple(tuple(row) for row in rows)
        names = tuple(names) if names is not None else None
        try:
            return GroupTable(table, names)
        except BackendError as exc:
            raise InstanceError(f"group: {exc}") from exc
    kind = doc.get("kind")
    if kind == "trivial":
        return trivial_group()
    n = doc.get("n")
    _require(isinstance(n, int) and n >= 1, "group: needs an integer n >= 1")
    if kind == "cyclic":
        return cyclic_group(n)
    if kind == "symmetric":
        return symmetric_group(n)
    raise InstanceError(f"group: unknown kind {kind!r}")


def _parse_matrix(ring, rows, where, shape=None):
    _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
             f"{where}: expected a nonempty array of rows")
    try:
        m = Matrix.from_rows(ring, rows)
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"{where}: {exc}") from exc
    if shape is not None and (m.rows, m.cols) != shape:
        raise InstanceError(f"{where}: expected shape {shape[0]}x{shape[1]}, "
                            f"got {m.rows}x{m.cols}")
    return m


def _parse_atom(doc, kind, group, ring, base_dim):
    _check_keys(doc, {"name", "size", "action", "pi", "pistar"}, "atom")
    name = doc.get("name")
    _require(isinstance(name, str) and name, "atom: needs a name")
    action = doc.get("action", "trivial" if kind == "dy" else None)
    where = f"atom {name!r}"

    if action == "regular":
        _require(kind != "dy", f"{where}: regular actions need a group backend")
        atom = (regular_atom(name, group) if kind == "finset"
                else regular_linear_atom(name, group, ring))
        size = doc.get("size")
        _require(size is None or size == atom.size,
                 f"{where}: size disagrees with the regular action")
        if kind == "finset":
            return atom
        size = atom.size
        mats = atom.action
    else:
        size = doc.get("size")
        _require(isinstance(size, int) and size >= 1,
                 f"{where}: needs an integer size >= 1")
        n = group.order
        if action == "trivial":
            if kind == "finset":
                mats = tuple(tuple(range(size)) for _ in range(n))
            else:
                mats = tuple(Matrix.identity(size, ring) for _ in range(n))
        else:
            _require(isinstance(action, list) and len(action) == n,
                     f"{where}: action must list one entry per group element")
            if kind == "finset":
                for g, entry in enumerate(action):
                    _require(isinstance(entry, list) and all(isinstance(x, int) for x in entry),
                             f"{where}.action[{g}]: expected a list of point indices")
                mats = tuple(tuple(entry) for entry in action)
            else:
                mats = tuple(_parse_matrix(ring, entry, where, (size, size))
                             for entry in action)
        if kind == "finset":
            return Atom(name, size, mats)

    pi = pistar = None
    if kind == "dy":
        _require("pi" in doc and "pistar" in doc, f"{where}: dy atoms need pi and pistar")
        pi = _parse_matrix(ring, doc["pi"], f"{where}.pi", (size, base_dim * size))
        pistar = _parse_matrix(ring, doc["pistar"], f"{where}.pistar",
                               (base_dim * size, size))
    else:
        _require("pi" not in doc and "pistar" not in doc,
                 f"{where}: pi/pistar only make sense in a dy backend")
    return Atom(name, size, mats, pi=pi, pistar=pistar)


def parse_backend(doc) -> Backend:
    kind_name = doc["backend"]
    kind = BACKEND_KINDS.get(kind_name) if isinstance(kind_name, str) else None
    _require(kind is not None,
             f"backend: expected one of {sorted(BACKEND_KINDS)}, got {kind_name!r}")
    ring = parse_ring(doc.get("scalar_ring"))
    _require(kind != "finset" or ring == RATIONAL,
             "backend: finset instances carry no scalar ring")
    group = parse_group(doc.get("group"))
    if kind == "dy":
        _require(group.order == 1, "backend: dy backends use the trivial group")

    atom_docs = doc.get("atoms", [])
    _require(isinstance(atom_docs, list), "atoms: expected a list")
    base = doc.get("base")
    base_dim = 0
    if kind == "dy":
        _require(isinstance(base, str) and base, "backend: dy needs a base atom name")
        sizes = {a.get("name"): a.get("size") for a in atom_docs
                 if isinstance(a, dict) and isinstance(a.get("name"), str)}
        _require(base in sizes, f"backend: base atom {base!r} is not declared")
        base_dim = sizes[base]
        _require(isinstance(base_dim, int) and base_dim >= 1,
                 f"atom {base!r}: needs an integer size >= 1")
    else:
        _require(base is None, "backend: base only makes sense for dy")

    atoms = {}
    for adoc in atom_docs:
        atom = _parse_atom(adoc, kind, group, ring, base_dim)
        _require(atom.name not in atoms, f"atom {atom.name!r}: duplicate name")
        atoms[atom.name] = atom
    try:
        return Backend(kind, group, atoms, ring=ring, base=base)
    except BackendError as exc:
        raise InstanceError(str(exc)) from exc


def _parse_mor(backend, spec, dom, cod, where):
    if backend.kind == "finset":
        _require(isinstance(spec, list) and all(isinstance(x, int) for x in spec),
                 f"{where}: expected a function table (flat integer array)")
        try:
            return backend.mor_from_table(dom, cod, tuple(spec))
        except BackendError as exc:
            raise InstanceError(f"{where}: {exc}") from exc
    m = _parse_matrix(backend.ring, spec, where,
                      (backend.obj_size(cod), backend.obj_size(dom)))
    return backend.mor_from_matrix(dom, cod, m)


def parse_comonoid(backend, doc) -> Comonoid:
    _check_keys(doc, {"obj", "delta", "eps", "name"}, "comonoid")
    _require("obj" in doc, "comonoid: needs an obj")
    word = _word(doc["obj"], "comonoid.obj")
    try:
        obj = backend.obj(*word)
    except BackendError as exc:
        raise InstanceError(f"comonoid.obj: {exc}") from exc
    name = doc.get("name", "")
    _require(isinstance(name, str), f"comonoid.name: expected a string, got {name!r}")
    where = f"comonoid {name or '(x)'.join(word) or '1'}"

    delta = doc.get("delta", "diagonal" if backend.kind == "finset" else None)
    eps = doc.get("eps")
    if isinstance(delta, str):
        if delta == "diagonal":
            _require(backend.kind == "finset",
                     f"{where}: diagonal splitting needs a finset backend")
            _require(eps in (None, "point"), f"{where}: diagonal pairs with the point counit")
            return diagonal_comonoid(backend, obj, name)
        if delta == "group-like":
            _require(backend.kind != "finset",
                     f"{where}: group-like splitting needs a linear backend")
            _require(eps in (None, "ones"), f"{where}: group-like pairs with the ones counit")
            return group_like_comonoid(backend, obj, name)
        raise InstanceError(f"{where}: unknown delta shorthand {delta!r}")

    _require(delta is not None and eps is not None,
             f"{where}: explicit comonoids need both delta and eps")
    dmor = _parse_mor(backend, delta, obj, obj.tensor(obj), f"{where}.delta")
    if eps == "point" and backend.kind == "finset":
        emor = backend.mor_from_table(obj, backend.unit(), (0,) * backend.obj_size(obj))
    elif eps == "ones" and backend.kind != "finset":
        emor = backend.mor_from_matrix(
            obj, backend.unit(),
            Matrix.from_table(backend.ring, (0,) * backend.obj_size(obj), 1))
    else:
        emor = _parse_mor(backend, eps, obj, backend.unit(), f"{where}.eps")
    return Comonoid(obj, dmor, emor, name)


def make_functor(backend, name):
    _require(name in FUNCTOR_NAMES,
             f"functor: expected one of {list(FUNCTOR_NAMES)}, got {name!r}")
    try:
        if name == "identity":
            return IdentityFunctor(backend)
        if name == "orbits":
            return OrbitFunctor(backend)
        if name == "group-coinvariants":
            return group_coinvariants_functor(backend)
        return dy_coinvariants_functor(backend)
    except BackendError as exc:
        raise InstanceError(f"functor: {exc}") from exc


def _constants_matrix(entries, rows, cols, pos, where):
    """Structure constants [i, j, k, c] accumulated into a rows x cols
    matrix; pos maps (i, j, k) to the (row, col) slot."""
    nz = [{} for _ in range(rows)]
    _require(isinstance(entries, list), f"{where}: expected a list of constants")
    for at, entry in enumerate(entries):
        _require(isinstance(entry, list) and len(entry) == 4,
                 f"{where}: constants are [i, j, k, value] quadruples")
        i, j, k, val = entry
        slot = pos(i, j, k)
        _require(slot is not None, f"{where}: index out of range in {entry[:3]}")
        try:
            val = RATIONAL.coerce(val)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"{where}[{at}]: {exc}") from None
        r, c = slot
        nz[r][c] = nz[r].get(c, RATIONAL.zero()) + val
    return Matrix.sparse(rows, cols, RATIONAL,
                         [{c: v for c, v in row.items() if v} for row in nz])


@dataclass(frozen=True)
class LieModule:
    label: str
    pi: Matrix
    pistar: Matrix


def parse_lie(doc, backend=None):
    _check_keys(doc, {"dim", "names", "bracket", "cobracket", "twists",
                      "modules", "uea"}, "lie_bialgebra")
    n = doc.get("dim")
    _require(isinstance(n, int) and n >= 1, "lie_bialgebra: needs an integer dim >= 1")
    names = doc.get("names")
    if "names" in doc:
        _require(isinstance(names, list), "lie_bialgebra.names: expected a list")
        _require(len(names) == n, "lie_bialgebra: wrong number of names")
        names = tuple(names)

    def in_range(*idx):
        return all(isinstance(i, int) and 0 <= i < n for i in idx)

    bracket = _constants_matrix(
        doc.get("bracket", []), n, n * n,
        lambda i, j, k: (k, i * n + j) if in_range(i, j, k) else None,
        "lie_bialgebra.bracket")
    cobracket = _constants_matrix(
        doc.get("cobracket", []), n * n, n,
        lambda i, j, k: (j * n + k, i) if in_range(i, j, k) else None,
        "lie_bialgebra.cobracket")
    try:
        lb = LieBialgebra(n, bracket, cobracket, names)
    except ValueError as exc:
        raise InstanceError(f"lie_bialgebra: {exc}") from exc

    twist_docs = doc.get("twists", [])
    _require(isinstance(twist_docs, list), "lie_bialgebra.twists: expected a list")
    twists = [_parse_matrix(RATIONAL, rows, "lie_bialgebra.twists", (n, n))
              for rows in twist_docs]

    module_docs = doc.get("modules", [])
    _require(isinstance(module_docs, list), "lie_bialgebra.modules: expected a list")
    modules = []
    for mdoc in module_docs:
        if isinstance(mdoc, str):
            _require(backend is not None and backend.kind == "dy",
                     f"lie_bialgebra.modules: {mdoc!r} refers to a dy backend atom")
            _require(mdoc in backend.atoms,
                     f"lie_bialgebra.modules: unknown atom {mdoc!r}")
            atom = backend.atoms[mdoc]
            _require(atom.pi.cols == n * atom.size,
                     f"lie_bialgebra.modules: atom {mdoc!r} is a module over a "
                     f"base of dimension {atom.pi.cols // atom.size}, not {n}")
            modules.append(LieModule(mdoc, atom.pi, atom.pistar))
            continue
        _check_keys(mdoc, {"name", "dim", "pi", "pistar"}, "lie_bialgebra.modules")
        label = mdoc.get("name", f"module{len(modules)}")
        _require(isinstance(label, str),
                 f"lie_bialgebra.modules.name: expected a string, got {label!r}")
        d = mdoc.get("dim")
        _require(isinstance(d, int) and d >= 1,
                 f"module {label!r}: needs an integer dim >= 1")
        pi = _parse_matrix(RATIONAL, mdoc.get("pi"), f"module {label!r}.pi", (d, n * d))
        pistar = _parse_matrix(RATIONAL, mdoc.get("pistar"), f"module {label!r}.pistar",
                               (n * d, d))
        modules.append(LieModule(label, pi, pistar))

    uea = doc.get("uea")
    if uea is not None:
        _check_keys(uea, {"order", "identity_degree"}, "lie_bialgebra.uea")
        order = uea.get("order")
        _require(isinstance(order, int) and order >= 1,
                 "lie_bialgebra.uea: needs an integer order >= 1")
        deg = uea.get("identity_degree", max(order - 1, 1))
        _require(isinstance(deg, int) and 1 <= deg,
                 "lie_bialgebra.uea: identity_degree must be a positive integer")
        uea = {"order": order, "identity_degree": deg}
    return lb, twists, modules, uea


def parse_deformation(backend, doc):
    _check_keys(doc, {"order", "t", "convention"}, "deformation")
    _require(backend is not None and backend.kind != "finset",
             "deformation: needs a linear or dy backend")
    order = doc.get("order")
    _require(isinstance(order, int) and order >= 0,
             "deformation: needs an integer order >= 0")
    convention = doc.get("convention", "t_delta_zero")
    _require(convention in ("t_delta_zero", "literal"),
             f"deformation: unknown convention {convention!r}")
    t_docs = doc.get("t", [])
    _require(isinstance(t_docs, list), "deformation.t: expected a list")
    table = {}
    for entry in t_docs:
        _check_keys(entry, {"x", "y", "matrix"}, "deformation.t")
        wx = _word(entry.get("x"), "deformation.t.x")
        wy = _word(entry.get("y"), "deformation.t.y")
        d = 1
        for name in wx + wy:
            _require(name in backend.atoms, f"deformation.t: unknown atom {name!r}")
            d *= backend.atoms[name].size
        key = (wx, wy)
        _require(key not in table, f"deformation.t: duplicate entry for {key}")
        table[key] = _parse_matrix(RATIONAL, entry.get("matrix"), "deformation.t.matrix",
                                   (d, d))
    try:
        pc = PreCartierData(backend, table)
    except (BackendError, ValueError) as exc:
        raise InstanceError(f"deformation: {exc}") from exc
    return {"order": order, "pc": pc, "convention": convention}


@dataclass
class Instance:
    """A parsed instance document with its live objects."""

    doc: dict
    backend: Backend = None
    comonoids: list = field(default_factory=list)
    functor_name: str = None
    functor: object = None
    lie: LieBialgebra = None
    twists: list = field(default_factory=list)
    modules: list = field(default_factory=list)
    uea: dict = None
    deformation: dict = None
    # the plain Hopf category built from functor and comonoids, or the
    # construction error, kept by the command-line driver across checks
    built: object = field(default=None, repr=False, compare=False)

    def digest(self):
        return instance_digest(self.doc)


TOP_KEYS = {"name", "description", "backend", "scalar_ring", "group", "base",
            "atoms", "comonoids", "functor", "lie_bialgebra", "deformation"}


def parse_instance(doc) -> Instance:
    _check_keys(doc, TOP_KEYS, "instance")
    for key, value in doc.items():
        _reject_bools(value, key)
    inst = Instance(doc)
    if "backend" in doc:
        inst.backend = parse_backend(doc)
    else:
        for key in ("group", "atoms", "scalar_ring", "base"):
            _require(key not in doc, f"instance: {key} needs a backend")

    comonoid_docs = doc.get("comonoids", [])
    _require(isinstance(comonoid_docs, list), "comonoids: expected a list")
    if comonoid_docs:
        _require(inst.backend is not None, "comonoids: need a backend")
        inst.comonoids = [parse_comonoid(inst.backend, c) for c in comonoid_docs]

    if "functor" in doc:
        _require(inst.backend is not None, "functor: needs a backend")
        inst.functor_name = doc["functor"]
        inst.functor = make_functor(inst.backend, inst.functor_name)

    if "lie_bialgebra" in doc:
        inst.lie, inst.twists, inst.modules, inst.uea = parse_lie(
            doc["lie_bialgebra"], inst.backend)

    if "deformation" in doc:
        inst.deformation = parse_deformation(inst.backend, doc["deformation"])
    return inst


def load_instance(path) -> Instance:
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: not valid JSON ({exc})") from exc
    _require(isinstance(doc, dict), f"{path}: the top level must be an object")
    return parse_instance(doc)


# ---------------------------------------------------------------------------
# canonical form and digests


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def dump_document(doc) -> str:
    """Pretty, key-sorted form used for files on disk; byte-stable."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# serializers


def ring_to_json(ring: Ring):
    if ring.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "hseries", "order": ring.order}


def mor_to_json(f):
    doc = {"dom": list(f.dom.factors), "cod": list(f.cod.factors)}
    if f.table is not None:
        doc["table"] = list(f.table)
    else:
        doc["matrix"] = f.matrix.to_json()
    return doc


def hopf_monoid_to_json(h: HopfMonoidData):
    doc = {"obj": list(h.obj.factors),
           "mult": mor_to_json(h.mult),
           "unit": mor_to_json(h.unit),
           "delta": mor_to_json(h.delta),
           "eps": mor_to_json(h.eps),
           "antipode": mor_to_json(h.antipode)}
    if h.name:
        doc["name"] = h.name
    return doc


def _pair_key(*idx):
    return ",".join(str(i) for i in idx)


def hopf_category_to_json(data: HopfCategoryData):
    sizes = {}
    for obj in data.hom.values():
        for name in obj.factors:
            sizes[name] = data.backend.atom_size(name)
    return {
        "labels": list(data.labels),
        "scalar_ring": ring_to_json(data.backend.ring),
        "atom_sizes": dict(sorted(sizes.items())),
        "hom": {_pair_key(i, j): list(obj.factors)
                for (i, j), obj in sorted(data.hom.items())},
        "mult": {_pair_key(*k): mor_to_json(f) for k, f in sorted(data.mult.items())},
        "unit": {str(i): mor_to_json(f) for i, f in sorted(data.unit.items())},
        "delta": {_pair_key(*k): mor_to_json(f) for k, f in sorted(data.delta.items())},
        "eps": {_pair_key(*k): mor_to_json(f) for k, f in sorted(data.eps.items())},
        "antipode": {_pair_key(*k): mor_to_json(f)
                     for k, f in sorted(data.antipode.items())},
    }


def groupoid_to_json(gt: GroupoidTable):
    return {
        "labels": list(gt.labels),
        "hom_size": {_pair_key(*k): v for k, v in sorted(gt.hom_size.items())},
        "comp": {_pair_key(*k): list(v) for k, v in sorted(gt.comp.items())},
        "identity": {str(i): e for i, e in sorted(gt.identity.items())},
        "inverse": {_pair_key(*k): list(v) for k, v in sorted(gt.inverse.items())},
    }


def precartier_to_json(pc: PreCartierData):
    return [{"x": list(wx), "y": list(wy), "matrix": pc.table[(wx, wy)].to_json()}
            for wx, wy in sorted(pc.table)]
