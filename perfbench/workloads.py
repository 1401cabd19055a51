"""The four benchmark workloads: which instances each one generates from
the seed, and which `run_verify` / `run_build` calls one pass makes.

Every instance is generated in memory from the document functions in
`hopfcat.corpus` and written into the benchmark's own work directory; the
shipped corpus files are never touched.  The seed varies the inputs while
keeping their size:

* the points of every torsor `T` are relabelled by a seeded permutation;
* the three `b2` twist scalars are drawn from seeded nonzero rationals.

Seed 0 is the unpermuted corpus labelling and the corpus twists
(1, -2, 5/3), so seed 0 reports on the corpus workload equal the reports
on the shipped files.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

CORPUS_TWISTS = ("1", "-2", "5/3")


def _rng(seed, salt):
    return random.Random(f"{seed}:{salt}")


def relabel_torsor(doc, seed):
    """Relabel the points of the torsor atom `T` with a seeded permutation
    (seed 0 keeps the labels)."""
    if seed == 0:
        return doc
    doc = copy.deepcopy(doc)
    atom = next(a for a in doc["atoms"] if a["name"] == "T")
    n = atom["size"]
    sigma = list(range(n))
    _rng(seed, doc["name"]).shuffle(sigma)
    relabelled = []
    for row in atom["action"]:
        new = [0] * n
        for a, b in enumerate(row):
            new[sigma[a]] = sigma[b]
        relabelled.append(new)
    atom["action"] = relabelled
    return doc


def twist_scalars(seed):
    """Three nonzero rationals p/q with 1 <= |p| <= 5 and 1 <= q <= 3."""
    if seed == 0:
        return CORPUS_TWISTS
    rng = _rng(seed, "b2_twists")
    out = []
    for _ in range(3):
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        out.append(str(value))
    return tuple(out)


def _with_twists(corpus, doc, seed):
    doc = copy.deepcopy(doc)
    doc["lie_bialgebra"]["twists"] = [corpus._b2_twist(c) for c in twist_scalars(seed)]
    return doc


FUNCTOR_BUILDS = ("hopf-monoid", "hopf-category")
LIE_BUILD_REPEATS = 5


def corpus_workload(corpus, seed):
    docs = corpus.corpus_documents()
    for name in ("z2_torsors", "z3_torsors", "s3_torsors"):
        docs[name] = relabel_torsor(docs[name], seed)
    docs["b2_twists"] = _with_twists(corpus, docs["b2_twists"], seed)
    calls = []
    for name, doc in docs.items():
        calls.append((name, "verify"))
        if "functor" in doc:
            calls.extend((name, t) for t in FUNCTOR_BUILDS)
            if doc["backend"] == "finset-gset":
                calls.append((name, "groupoid"))
        if name == "abelian_precartier":
            calls.append((name, "deformed"))
    return docs, calls


# The ladders stop one step short of the cliffs (z5 verify, S4 verify):
# each of those is a single 17-28 s call, which leaves one sample per run
# and a run-to-run spread near the largest bound a metric may have.


def linear_ladder(corpus, seed):
    docs = {"z4_group_algebra": corpus._group_algebra_doc("z4_group_algebra", 4)}
    calls = [("z4_group_algebra", "verify"),
             ("z4_group_algebra", "hopf-monoid"),
             ("z4_group_algebra", "hopf-category")]
    return docs, calls


def _dihedral8():
    """The dihedral group of order 16, as a table document."""
    from hopfcat.backends import group_from_generators, group_to_json
    rotation = (1, 2, 3, 4, 5, 6, 7, 0)
    reflection = (0, 7, 6, 5, 4, 3, 2, 1)
    group = group_from_generators(8, [rotation, reflection])
    return group_to_json(group), group


def set_ladder(corpus, seed):
    from hopfcat.backends import cyclic_group, symmetric_group
    d8_doc, d8 = _dihedral8()
    docs = {
        "s4_torsors": corpus._torsor_doc(
            "s4_torsors", {"kind": "symmetric", "n": 4}, symmetric_group(4)),
        "d8_torsors": corpus._torsor_doc("d8_torsors", d8_doc, d8),
        "z8_torsors": corpus._torsor_doc(
            "z8_torsors", {"kind": "cyclic", "n": 8}, cyclic_group(8)),
    }
    docs = {name: relabel_torsor(doc, seed) for name, doc in docs.items()}
    calls = [("s4_torsors", "hopf-monoid"),
             ("d8_torsors", "verify"),
             ("z8_torsors", "verify"),
             ("z8_torsors", "hopf-category"),
             ("z8_torsors", "groupoid")]
    return docs, calls


def lie_deform(corpus, seed):
    b2 = corpus._b2_lie_doc()
    b2["lie_bialgebra"]["uea"]["order"] = 12
    b2 = _with_twists(corpus, b2, seed)
    pre = corpus._abelian_precartier_doc()
    pre["deformation"]["order"] = 4
    z3 = corpus._group_algebra_doc("z3_group_algebra", 3)
    z3["deformation"] = {"order": 8, "convention": "t_delta_zero", "t": []}
    docs = {"b2_uea12_twists": b2, "abelian_precartier_o4": pre,
            "z3_zero_deformation_o8": z3}
    # The two builds take ~0.2 s against ~4 s of verify; made five times a
    # pass, each gets enough samples for a steady median.
    builds = [("abelian_precartier_o4", "deformed"),
              ("z3_zero_deformation_o8", "deformed")] * LIE_BUILD_REPEATS
    calls = [("b2_uea12_twists", "verify"),
             ("abelian_precartier_o4", "verify"),
             ("z3_zero_deformation_o8", "verify")] + builds
    return docs, calls


GENERATORS = {
    "corpus": corpus_workload,
    "linear-ladder": linear_ladder,
    "set-ladder": set_ladder,
    "lie-deform": lie_deform,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload, seed):
    """(documents by instance name, [(instance name, op)]) for one pass;
    op is "verify" or a build target."""
    from hopfcat import corpus
    return GENERATORS[workload](corpus, seed)
