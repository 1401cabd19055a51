"""The shipped example instances.

Every document is generated by code so the files on disk can always be
reproduced byte-for-byte; `write_corpus` regenerates them and the test
suite asserts that the checked-in files match.

The instances cover each backend flavor: torsor pairs over three groups
with the orbit functor, regular representations with group coinvariants,
a solvable 2-dimensional Lie bialgebra with its twists and a module, and
a commuting-nilpotent family with an infinitesimal braiding.
"""

from __future__ import annotations

import json
from pathlib import Path

from .scalars import RATIONAL
from .linalg import Matrix, hstack, mat_kron
from .backends import Atom, cyclic_group, dy_backend, symmetric_group
from .instances import dump_document, precartier_to_json

CORPUS_NAMES = (
    "z2_torsors",
    "z3_torsors",
    "s3_torsors",
    "z2_group_algebra",
    "z3_group_algebra",
    "b2_lie_bialgebra",
    "b2_twists",
    "abelian_precartier",
)


def _torsor_doc(name, group_doc, group):
    """Two torsors over the same group: left translation, and right
    translation by the inverse, with their diagonal comonoids."""
    inverse_action = [[group.mul(a, group.inv(g)) for a in range(group.order)]
                      for g in group.elements()]
    return {
        "name": name,
        "backend": "finset-gset",
        "group": group_doc,
        "atoms": [
            {"name": "S", "action": "regular"},
            {"name": "T", "size": group.order, "action": inverse_action},
        ],
        "comonoids": [
            {"obj": ["S"], "delta": "diagonal", "name": "M"},
            {"obj": ["T"], "delta": "diagonal", "name": "N"},
        ],
        "functor": "orbits",
    }


def _group_algebra_doc(name, n):
    return {
        "name": name,
        "backend": "linrep",
        "scalar_ring": {"kind": "rational"},
        "group": {"kind": "cyclic", "n": n},
        "atoms": [{"name": "R", "action": "regular"}],
        "comonoids": [{"obj": ["R"], "delta": "group-like", "name": "M"}],
        "functor": "group-coinvariants",
    }


B2_BRACKET = [[0, 1, 1, "1"], [1, 0, 1, "-1"]]
B2_COBRACKET = [[1, 0, 1, "1"], [1, 1, 0, "-1"]]

B2_MODULE = {
    "name": "V",
    "dim": 2,
    "pi": [["0", "0", "0", "0"], ["1", "0", "0", "0"]],
    "pistar": [["0", "0"], ["1", "0"], ["0", "0"], ["0", "0"]],
}


def _b2_twist(c):
    c = str(c)
    neg = c[1:] if c.startswith("-") else "-" + c
    return [["0", c], [neg, "0"]]


def _b2_lie_doc():
    return {
        "name": "b2_lie_bialgebra",
        "lie_bialgebra": {
            "dim": 2,
            "names": ["x", "y"],
            "bracket": B2_BRACKET,
            "cobracket": B2_COBRACKET,
            "modules": [B2_MODULE],
            "uea": {"order": 4, "identity_degree": 3},
        },
    }


def _b2_twists_doc():
    return {
        "name": "b2_twists",
        "lie_bialgebra": {
            "dim": 2,
            "names": ["x", "y"],
            "bracket": B2_BRACKET,
            "cobracket": B2_COBRACKET,
            "twists": [_b2_twist(c) for c in ("1", "-2", "5/3")],
            "modules": [B2_MODULE],
        },
    }


def _nilpotent_backend():
    """Commuting nilpotent actions of an abelian 2-dimensional base."""
    shift = Matrix.from_rows(RATIONAL, [[0, 0], [1, 0]])
    eye2 = Matrix.identity(2, RATIONAL)
    eye4 = Matrix.identity(4, RATIONAL)
    base = Atom("b", 2, (eye2,),
                pi=Matrix.zeros(2, 4, RATIONAL), pistar=Matrix.zeros(4, 2, RATIONAL))
    v = Atom("V", 4, (eye4,),
             pi=hstack([mat_kron(shift, eye2), mat_kron(eye2, shift)]),
             pistar=Matrix.zeros(8, 4, RATIONAL))
    w = Atom("W", 2, (eye2,),
             pi=hstack([shift, Matrix.zeros(2, 2, RATIONAL)]),
             pistar=Matrix.zeros(4, 2, RATIONAL))
    ones = Matrix.identity(1, RATIONAL)
    e = Atom("E", 1, (ones,),
             pi=Matrix.zeros(1, 2, RATIONAL), pistar=Matrix.zeros(2, 1, RATIONAL))
    e2 = Atom("E2", 1, (ones,),
              pi=Matrix.zeros(1, 2, RATIONAL), pistar=Matrix.zeros(2, 1, RATIONAL))
    return dy_backend(base, [v, w, e, e2])


def _abelian_precartier_doc():
    from .deform import casimir_t
    backend = _nilpotent_backend()
    pairing = Matrix.from_rows(RATIONAL, [[0, 1], [-1, 0]])
    pc = casimir_t(backend, pairing)
    atoms = []
    for name in ("b", "E", "E2", "V", "W"):
        atom = backend.atoms[name]
        atoms.append({
            "name": name,
            "size": atom.size,
            "pi": atom.pi.to_json(),
            "pistar": atom.pistar.to_json(),
        })
    return {
        "name": "abelian_precartier",
        "backend": "dy",
        "scalar_ring": {"kind": "rational"},
        "base": "b",
        "atoms": atoms,
        "comonoids": [
            {"obj": ["E"], "delta": "group-like", "name": "M"},
            {"obj": ["E2"], "delta": "group-like", "name": "N"},
        ],
        "functor": "dy-coinvariants",
        "lie_bialgebra": {
            "dim": 2,
            "names": ["a1", "a2"],
            "bracket": [],
            "cobracket": [],
            "modules": ["E", "E2", "V", "W"],
        },
        "deformation": {
            "order": 2,
            "convention": "t_delta_zero",
            "t": precartier_to_json(pc),
        },
    }


def corpus_documents():
    """All shipped instances, name -> document, in corpus order."""
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    return {
        "z2_torsors": _torsor_doc("z2_torsors", {"kind": "cyclic", "n": 2}, z2),
        "z3_torsors": _torsor_doc("z3_torsors", {"kind": "cyclic", "n": 3}, z3),
        "s3_torsors": _torsor_doc("s3_torsors", {"kind": "symmetric", "n": 3}, s3),
        "z2_group_algebra": _group_algebra_doc("z2_group_algebra", 2),
        "z3_group_algebra": _group_algebra_doc("z3_group_algebra", 3),
        "b2_lie_bialgebra": _b2_lie_doc(),
        "b2_twists": _b2_twists_doc(),
        "abelian_precartier": _abelian_precartier_doc(),
    }


def corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def corpus_path(name) -> Path:
    if name not in CORPUS_NAMES:
        raise KeyError(f"not a shipped instance: {name!r}")
    return corpus_dir() / f"{name}.json"


def write_corpus(dirpath=None):
    """(Re)generate the instance files; returns the paths written."""
    out = Path(dirpath) if dirpath is not None else corpus_dir()
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in corpus_documents().items():
        path = out / f"{name}.json"
        path.write_text(dump_document(doc))
        paths.append(path)
    return paths


def load_corpus_document(name):
    with open(corpus_path(name)) as fh:
        return json.load(fh)
