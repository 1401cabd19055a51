"""Report bytes pinned: the sha256 of every report below, with its key-sorted
JSON and the `timing` field removed, must match tests/report_digests.json.

The cases are `verify` on each shipped instance, each build target at its
default order, `deformed` at orders 0, 1 and 3, the two order-flag input
errors, a missing file and an unknown target; error reports included.  A
change that is meant to keep every report the same passes this test
unchanged.  When reports change on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from hopfcat.cli import TARGETS, run_build, run_verify
from hopfcat.corpus import CORPUS_NAMES, corpus_path

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


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
    assert len(cases()) == 82


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_report_digests.py --write")
    DIGESTS.write_text(json.dumps(current_digests(), sort_keys=True, indent=2) + "\n")
