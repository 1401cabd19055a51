"""Report bytes pinned: the sha256 of every report below, with its key-sorted
JSON and the `timing` field removed, must match tests/report_digests.json.

The cases are `verify` on each shipped instance, each build target at its
default order, `deformed` at orders 0, 1 and 3, the two order-flag input
errors, a missing file and an unknown target; error reports included.
Construction errors are pinned too: `verify --checks build,groupoid,deformed`
on each shipped instance, and `verify`, each target and `deformed` at orders
0 and 1 on two documents whose construction fails (a non-cocommutative
splitting with a deformation block, and a finset instance that is not
adapted).  A change that is meant to keep every report the same passes this
test unchanged.  When reports change on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from hopfcat.cli import TARGETS, run_build, run_verify
from hopfcat.corpus import CORPUS_NAMES, corpus_path
from hopfcat.instances import dump_document
from test_cli import non_cocommutative_z2

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def failing_constructions():
    """name -> document whose Hopf-category construction fails."""
    precedence = non_cocommutative_z2()
    precedence["deformation"] = {"order": 1, "convention": "literal"}
    not_adapted = {"backend": "finset-gset", "group": {"kind": "cyclic", "n": 2},
                   "atoms": [{"name": "P", "size": 2, "action": "trivial"}],
                   "comonoids": [{"obj": ["P"], "name": "M", "delta": "diagonal"}],
                   "functor": "orbits"}
    return {"non-cocommutative-z2": precedence, "not-adapted": not_adapted}


def on_document(doc, run):
    """run(path) on doc written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(dump_document(doc))
        return run(str(path))


def cases():
    """case id -> zero-argument call returning (report, exit code)."""
    out = {}
    for name in CORPUS_NAMES:
        path = corpus_path(name)
        out[f"verify:{name}"] = lambda p=path: run_verify(p)
        for target in TARGETS:
            out[f"build:{name}:{target}"] = lambda p=path, t=target: run_build(p, t)
        for order in (0, 1, 3):
            out[f"build:{name}:deformed:{order}"] = (
                lambda p=path, o=order: run_build(p, "deformed", order=o))
        out[f"build:{name}:hopf-category:1"] = (
            lambda p=path: run_build(p, "hopf-category", order=1))
        out[f"build:{name}:deformed:-1"] = (
            lambda p=path: run_build(p, "deformed", order=-1))
        out[f"verify:{name}:build,groupoid,deformed"] = (
            lambda p=path: run_verify(p, checks="build,groupoid,deformed"))
    for name, doc in failing_constructions().items():
        out[f"verify:{name}"] = lambda d=doc: on_document(d, run_verify)
        for target in TARGETS:
            out[f"build:{name}:{target}"] = (
                lambda d=doc, t=target: on_document(d, lambda p: run_build(p, t)))
        for order in (0, 1):
            out[f"build:{name}:deformed:{order}"] = (
                lambda d=doc, o=order: on_document(
                    d, lambda p: run_build(p, "deformed", order=o)))
    out["verify:missing-file"] = lambda: run_verify("no-such-instance.json")
    out["build:z2_torsors:unknown-target"] = (
        lambda: run_build(corpus_path("z2_torsors"), "monoid"))
    return out


def digest(report):
    report = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def current_digests():
    return {case: digest(call()[0]) for case, call in cases().items()}


def test_every_report_matches_its_pinned_digest():
    expected = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert sorted(got) == sorted(expected)
    changed = [case for case in got if got[case] != expected[case]]
    assert changed == []


def test_case_count():
    assert len(cases()) == 104


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report_digests.py --write")
    DIGESTS.write_text(json.dumps(current_digests(), sort_keys=True, indent=2) + "\n")
