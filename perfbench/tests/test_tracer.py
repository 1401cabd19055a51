"""Self-tests of the traced run: the spans land where each workload is
meant to spend its time, tracing changes no report, and the counts repeat
exactly.

    python3 -m pytest -q perfbench/tests

Each workload is traced twice at seed 0 (under a minute in all).
"""

import json
import math
import shutil
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

import tracer
import worker
import workloads
from tracer import EXACT_METRICS, PER_LAYER, Tracer

# The span behind each per-layer metric, and the workload meant to
# exercise it.
EXERCISED_ON = {
    "linalg.cokernel_projection": "linear-ladder",
    "linalg.mat_invert": "linear-ladder",
    "linalg.matmul": "linear-ladder",
    "linalg.mat_kron": "linear-ladder",
    "backends.act": "set-ladder",
    "backends.tensor_mor": "set-ladder",
    "backends.check_equivariant": "set-ladder",
    "backends.compose": "set-ladder",
    "backends.as_matrix": "set-ladder",
    "cofunctor.apply_mor": "set-ladder",
    "cofunctor.certify_adapted": "set-ladder",
    "cofunctor.f2": "set-ladder",
    "cofunctor.check_comonoidal": "linear-ladder",
    "hopfcategory.build_hopf_category": "set-ladder",
    "hopfcategory.check_hopf_category": "set-ladder",
    "hopfcategory.extract_set_groupoid": "set-ladder",
    "coalg.check_comonoid": "set-ladder",
    "coalg.check_hopf_monoid": "set-ladder",
    "liebialg.check_uea_dy_identities": "lie-deform",
    "liebialg.TruncatedUEA": "lie-deform",
    "liebialg.coproduct": "lie-deform",
    "deform.check_pre_cartier": "lie-deform",
    "deform.build_deformed_hopf_category": "lie-deform",
    "deform.deformed_braiding": "lie-deform",
    "scalars.hseries_mul": "lie-deform",
    "instances.load_instance": "corpus",
    "instances.to_json": "corpus",
}


def traced_pass(workload):
    """One traced pass at seed 0.  Besides the tracer, keeps `results`,
    and `verify_self_s` / `verify_wall_s`: the per-module self time and the
    wall time of the traced verify calls alone."""
    workroot = worker.BENCH_DIR / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"test-{workload}-", dir=workroot))
    expected = worker.load_expected()
    t = Tracer()
    t.results = []
    t.verify_self_s = defaultdict(float)
    t.verify_wall_s = 0.0
    try:
        _, cli, files, calls = worker.setup(workload, 0, workdir)
        with t:
            for call in calls:
                before = dict(t.self_s)
                result, = worker.run_pass(cli, files, [call], expected, math.inf)
                t.results.append(result)
                if call[1] == "verify":
                    t.verify_wall_s += result[3]
                    for module, s in t.self_s.items():
                        t.verify_self_s[module] += s - before.get(module, 0.0)
    finally:
        shutil.rmtree(workdir)
    return t


@pytest.fixture(scope="module")
def runs():
    """Two traced passes per workload."""
    return {w: (traced_pass(w), traced_pass(w)) for w in workloads.WORKLOADS}


def test_per_layer_names_match_benchmark_json():
    with open(worker.ROOT / "BENCHMARK.json") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == list(PER_LAYER)


def test_every_metric_span_is_wrapped():
    bases = {name.rsplit(".", 1)[0] for name, _ in PER_LAYER
             if name.rsplit(".", 1)[1] in ("calls", "s") + tracer.COUNT_FIELDS}
    assert bases == set(EXERCISED_ON)


def test_install_wraps_every_binding_and_uninstall_restores():
    worker.import_hopfcat()
    from hopfcat import cli, cofunctor, hopfcategory
    original = cofunctor.certify_adapted
    with Tracer():
        assert cofunctor.certify_adapted is not original
        assert cli.certify_adapted is cofunctor.certify_adapted
        assert hopfcategory.certify_adapted is cofunctor.certify_adapted
    assert cli.certify_adapted is original
    assert hopfcategory.certify_adapted is original


def test_each_span_is_exercised_on_its_workload(runs):
    for name, workload in EXERCISED_ON.items():
        assert runs[workload][0].metric(f"{name}.calls") >= 1, (name, workload)


def test_layers_stay_apart(runs):
    assert runs["set-ladder"][0].metric("linalg.cokernel_projection.calls") == 0
    # the linear ladder does call `act`, for the group action on
    # representations (coinvariant relations, equivariance checks), but
    # never on a set, so never for an orbit search
    assert runs["linear-ladder"][0].metric("backends.act.finset_calls") == 0
    assert runs["set-ladder"][0].metric("backends.act.finset_calls") >= 1


def test_traced_reports_match_untraced(runs):
    # expected.json holds the untraced reports' digests at seed 0
    for workload, (first, second) in runs.items():
        for t in (first, second):
            bad = [(i, op, why) for i, op, _, _, why in t.results if why]
            assert not bad, workload


def test_counts_repeat_exactly(runs):
    for workload, (first, second) in runs.items():
        a = {m: first.metric(m) for m in EXACT_METRICS}
        b = {m: second.metric(m) for m in EXACT_METRICS}
        assert a == b, workload


def test_workloads_spend_their_time_where_intended(runs):
    # self time and wall time of the same traced verify calls
    lin = runs["linear-ladder"][0]
    share = lin.verify_self_s["linalg"] + lin.verify_self_s["cofunctor"]
    assert share > lin.verify_wall_s / 2
    sets = runs["set-ladder"][0]
    share = sets.verify_self_s["backends"] + sets.verify_self_s["cofunctor"]
    assert share > sets.verify_wall_s / 2
    lie = runs["lie-deform"][0]
    share = lie.verify_self_s["liebialg"] + lie.verify_self_s["cli"]
    others = [v for k, v in lie.verify_self_s.items() if k not in ("liebialg", "cli")]
    assert share > max(others)
