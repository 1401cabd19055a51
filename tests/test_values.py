"""The value-class contract of `scalars.Value`, and what `import hopfcat`
loads.

Value classes compare, hash and print by their fields: hash(v) is the
hash of the field tuple, caches and derived slots are skipped, the text
is `Name(field=value, ...)`, and a class whose instances change keeps no
hash.  `scalars.replace` makes its copy through the class's `__init__`,
so the class's checks run again.

Start-up is guarded by counting modules, never by timing: a fresh
interpreter that imports hopfcat and verifies a finite-set instance must
not load `dataclasses` (which pulls in `inspect`) or the Lie and
deformation layers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hopfcat.backends import (
    BackendError,
    MorphismRep,
    ObjectRef,
    cyclic_group,
    finset_backend,
    regular_atom,
)
from hopfcat.coalg import HopfCategoryData, LawRecord
from hopfcat.corpus import corpus_path
from hopfcat.deform import PreCartierData
from hopfcat.hopfcategory import GroupoidTable
from hopfcat.instances import Instance, load_instance
from hopfcat.liebialg import TruncatedUEA
from hopfcat.linalg import Matrix
from hopfcat.scalars import RATIONAL, replace

SRC = Path(__file__).resolve().parent.parent / "src"


def z3_finset():
    g = cyclic_group(3)
    return finset_backend(g, [regular_atom("S", g)])


class TestReplace:
    def test_replace_checks_again(self):
        x = ObjectRef.atom("S")
        f = MorphismRep(x, x, table=(0,))
        with pytest.raises(BackendError, match="exactly one"):
            replace(f, matrix=Matrix.identity(1, RATIONAL))
        g = replace(f, cod=ObjectRef.unit())
        assert (g.dom, g.cod, g.table, g.matrix) == (x, ObjectRef.unit(), (0,), None)
        assert f.cod == x

    def test_replace_starts_skipped_slots_afresh(self):
        b = z3_finset()
        b.braiding(b.obj("S"), b.obj("S"))
        again = replace(b)
        assert again == b and b._braidings and not again._braidings


class TestEqualityHashRepr:
    def test_formerly_unhashable_classes_stay_unhashable(self):
        b = z3_finset()
        inst = load_instance(str(corpus_path("abelian_precartier")))
        values = [HopfCategoryData(("M",), b),
                  PreCartierData(inst.backend),
                  GroupoidTable((), {}, {}, {}, {}),
                  Instance({}),
                  TruncatedUEA(load_instance(str(corpus_path("b2_twists"))).lie, 1)]
        for v in values:
            assert type(v).__hash__ is None
            with pytest.raises(TypeError, match="unhashable"):
                hash(v)

    def test_hash_is_the_hash_of_the_field_tuple(self):
        x = ObjectRef(("S", "T"))
        f = MorphismRep(x, ObjectRef.unit(), table=(0, 0))
        rec = LawRecord("hopf.assoc", False, "at 0,1")
        assert hash(x) == hash((("S", "T"),))
        assert hash(f) == hash((x, ObjectRef.unit(), (0, 0), None))
        assert hash(rec) == hash(("hopf.assoc", False, "at 0,1"))

    def test_skipped_fields(self):
        b, other = z3_finset(), z3_finset()
        b.braiding(b.obj("S"), b.obj("S"))
        assert b == other and "_memo" not in repr(b) and "_braidings" not in repr(b)
        assert Instance({}, built=1) == Instance({}, built=2)
        assert "built" not in repr(Instance({}, built=1))
        pc = PreCartierData(load_instance(str(corpus_path("abelian_precartier"))).backend)
        assert repr(pc).startswith("PreCartierData(backend=") and "_cache" not in repr(pc)

    def test_equality_needs_the_same_class(self):
        assert ObjectRef(("S",)) != ("S",)
        assert LawRecord("r", True) != ("r", True, "")
        assert LawRecord("r", True) == LawRecord("r", True, "")

    def test_repr_text(self):
        x = ObjectRef(("S", "T"))
        assert repr(x) == "ObjectRef(factors=('S', 'T'))"
        assert repr(MorphismRep(x, ObjectRef.unit(), table=(0, 0))) == (
            "MorphismRep(dom=ObjectRef(factors=('S', 'T')), cod=ObjectRef(factors=()), "
            "table=(0, 0), matrix=None)")
        assert repr(MorphismRep(x, x, matrix=Matrix.identity(4, RATIONAL))) == (
            "MorphismRep(dom=ObjectRef(factors=('S', 'T')), cod=ObjectRef(factors=('S', 'T')), "
            "table=None, matrix=Matrix(4x4 over rational))")
        assert repr(LawRecord("hopf.assoc", False, "at 0,1")) == (
            "LawRecord(rule='hopf.assoc', holds=False, detail='at 0,1')")
        assert str(LawRecord("x", True)) == "LawRecord(rule='x', holds=True, detail='')"


STARTUP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hopfcat
from hopfcat.cli import run_verify
from hopfcat.corpus import corpus_path
before = set(sys.modules)
report, code = run_verify(str(corpus_path(sys.argv[2])))
print(json.dumps({"code": code, "loaded": sorted(before), "after": sorted(sys.modules)}))
"""


def fresh_verify(name):
    """(exit code, modules loaded by `import hopfcat`, modules loaded after
    one run_verify of the corpus instance name), in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", STARTUP, str(SRC), name],
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return result["code"], set(result["loaded"]), set(result["after"])


LAZY = {"dataclasses", "inspect", "hopfcat.liebialg", "hopfcat.deform"}


class TestStartup:
    def test_a_finset_verify_loads_no_lie_or_deformation_layer(self):
        code, loaded, after = fresh_verify("z2_torsors")
        assert code == 0
        assert "hopfcat.cli" in loaded
        assert not LAZY & after

    def test_a_lie_verify_loads_the_lie_layer(self):
        code, loaded, after = fresh_verify("b2_twists")
        assert code == 0
        assert "hopfcat.liebialg" not in loaded and "hopfcat.liebialg" in after
        assert not {"dataclasses", "inspect"} & after

    def test_lazy_exports_resolve(self):
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "from hopfcat import LieBialgebra, casimir_t, PreCartierViolation; "
                  "import hopfcat; from hopfcat.deform import PreCartierViolation as P; "
                  "assert P is PreCartierViolation and callable(casimir_t); "
                  "assert all(hasattr(hopfcat, n) for n in hopfcat.__all__); "
                  "print(LieBialgebra.__module__)")
        out = subprocess.run([sys.executable, "-c", script, str(SRC)],
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["hopfcat.liebialg"]
