import copy
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcat
from conftest import is_canonical, unmemoized_braiding_failures
from hopfcat import backends, cli, cofunctor, corpus, liebialg
from hopfcat.cli import CHECK_ORDER, TARGETS, main, run_build, run_verify
from hopfcat.coalg import LawRecord
from hopfcat.corpus import CORPUS_NAMES, corpus_path, load_corpus_document
from hopfcat.instances import dump_document, load_instance
from hopfcat.liebialg import EnvelopingEngine, pbw_words
from hopfcat.linalg import Matrix, _acc
from hopfcat.scalars import RATIONAL, HSeries, Value


def write_doc(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(dump_document(doc))
    return str(path)


def strip_timing(report):
    report = dict(report)
    report.pop("timing")
    return json.dumps(report, sort_keys=True)


def non_cocommutative_z2():
    """z2_group_algebra with a splitting that is not cocommutative, which
    the constructor refuses."""
    doc = load_corpus_document("z2_group_algebra")
    doc["comonoids"] = [{
        "obj": ["R"], "name": "M",
        "delta": [["1", "0"], ["0", "0"], ["0", "1"], ["0", "1"]],
        "eps": "ones",
    }]
    return doc


class TestVerifyCorpus:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_every_shipped_instance_passes(self, name):
        report, code = run_verify(corpus_path(name))
        assert code == 0, [r for r in report["checks"] if not r["holds"]]
        assert report["verdict"] == "pass"
        assert report["counts"]["failed"] == 0
        assert report["counts"]["total"] > 0

    def test_reports_are_deterministic_modulo_timing(self):
        a, _ = run_verify(corpus_path("s3_torsors"))
        b, _ = run_verify(corpus_path("s3_torsors"))
        assert strip_timing(a) == strip_timing(b)
        assert "timing" in a

    def test_digest_tracks_the_file(self):
        a, _ = run_verify(corpus_path("z2_torsors"))
        b, _ = run_verify(corpus_path("z3_torsors"))
        assert a["digest"] != b["digest"]
        assert len(a["digest"]) == 64


class TestVerifyOutcomes:
    def test_corrupted_delta_fails_and_is_named(self, tmp_path):
        doc = load_corpus_document("z2_torsors")
        doc["comonoids"][0] = {"obj": ["S"], "name": "M",
                               "delta": [3, 0], "eps": "point"}
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 1
        failing = {r["rule"] for r in report["checks"] if not r["holds"]}
        assert "comonoid.coassoc[M]" in failing
        assert report["verdict"] == "fail"

    def test_empty_instance_is_vacuous(self, tmp_path):
        report, code = run_verify(write_doc(tmp_path, {}))
        assert code == 0
        assert report["verdict"] == "vacuous"
        assert report["counts"] == {"total": 0, "failed": 0}

    def test_selector_limits_checks(self):
        report, code = run_verify(corpus_path("z2_torsors"), checks="comonoids")
        assert code == 0
        assert {r["check"] for r in report["checks"]} == {"comonoids"}

    def test_unknown_check_is_an_input_error(self):
        report, code = run_verify(corpus_path("z2_torsors"), checks="bogus")
        assert code == 2
        assert "bogus" in report["error"]

    def test_parse_errors_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run_verify(str(bad))[1] == 2
        assert run_verify(str(tmp_path / "missing.json"))[1] == 2
        assert run_verify(write_doc(tmp_path, {"backend": "numpy"}))[1] == 2

    def test_zero_denominator_scalar_exits_2(self, tmp_path):
        doc = load_corpus_document("b2_twists")
        doc["lie_bialgebra"]["twists"][0][0][1] = "1/0"
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert "1/0" in report["error"]

    def test_non_string_backend_exits_2(self, tmp_path):
        doc = load_corpus_document("z2_group_algebra")
        doc["backend"] = ["linrep"]
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert "backend" in report["error"]

    @pytest.mark.parametrize("name, section, field", [
        ("b2_twists", "lie_bialgebra", "names"),
        ("b2_twists", "lie_bialgebra", "twists"),
        ("b2_twists", "lie_bialgebra", "modules"),
        ("abelian_precartier", "deformation", "t"),
    ])
    def test_non_list_field_exits_2(self, tmp_path, name, section, field):
        doc = load_corpus_document(name)
        assert isinstance(doc[section][field], list)
        doc[section][field] = 5
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert f"{section}.{field}" in report["error"]

    @pytest.mark.parametrize("entry", [5, None, ["x", 1, 2], [[0], 1, 2]])
    def test_malformed_finset_action_entry_exits_2(self, tmp_path, entry):
        doc = load_corpus_document("z3_torsors")
        doc["atoms"][1]["action"][1] = entry
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert "atom 'T'.action[1]" in report["error"]

    @pytest.mark.parametrize("field", ["bracket", "cobracket"])
    @pytest.mark.parametrize("value", [1.5, [1], "x", "1/0", None])
    def test_malformed_structure_constant_exits_2(self, tmp_path, field, value):
        doc = load_corpus_document("b2_lie_bialgebra")
        doc["lie_bialgebra"][field][1][3] = value
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert f"lie_bialgebra.{field}[1]" in report["error"]

    @pytest.mark.parametrize("name, edit, where", [
        ("abelian_precartier", lambda d: d["atoms"][-1].update(name=[]), "atom"),
        ("b2_lie_bialgebra", lambda d: d["lie_bialgebra"]["modules"][0].pop("pi"),
         "module 'V'.pi"),
        ("abelian_precartier", lambda d: d["deformation"]["t"][0].pop("matrix"),
         "deformation.t.matrix"),
        ("z2_torsors", lambda d: d.update(group={"table": 5}), "group.table"),
        ("z2_torsors", lambda d: d.update(group={"table": [[0, 1], [1, "x"]]}), "group.table"),
        ("z2_torsors", lambda d: d.update(group={"table": [[0, 1], [1, 0]], "names": 5}),
         "group.names"),
        ("z2_torsors", lambda d: d.update(group={"table": [[0, 1], [1, 0]], "names": ["e"]}),
         "group.names"),
    ], ids=["dy-atom-name", "module-pi", "t-matrix", "group-table", "group-table-entry",
            "group-names", "group-names-length"])
    def test_malformed_field_exits_2(self, tmp_path, name, edit, where):
        doc = load_corpus_document(name)
        edit(doc)
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert report["error"].startswith(where)

    @pytest.mark.parametrize("value", ["x", "1/0", 0.0, 1.5, ["0"], None])
    @pytest.mark.parametrize("edit, where", [
        (lambda d, v: d["atoms"][3]["pi"][2].__setitem__(-1, v), "atom 'V'.pi"),
        (lambda d, v: d["deformation"]["t"][0]["matrix"][15].__setitem__(-1, v),
         "deformation.t.matrix"),
    ], ids=["pi", "t"])
    def test_malformed_dense_entry_exits_2(self, tmp_path, edit, where, value):
        """The last entry of a dense matrix, after many "0" and some "1"
        strings that were parsed once each, is still parsed on its own."""
        doc = load_corpus_document("abelian_precartier")
        edit(doc, value)
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 2
        assert report["verdict"] == "error"
        assert report["error"].startswith(where)

    def test_precartier_checks_every_atom(self, tmp_path):
        # six non-base atoms: two comonoid carriers and E3, E4, V, W; a
        # sample of four at seed 0 took E4 and W, and missed the bad entry
        # t(E3, E3) = 1, which breaks antisymmetry on a line
        doc = load_corpus_document("abelian_precartier")
        line = next(a for a in doc["atoms"] if a["name"] == "E")
        doc["atoms"] += [dict(line, name="E3"), dict(line, name="E4")]
        doc["deformation"]["t"].append({"x": ["E3"], "y": ["E3"], "matrix": [["1"]]})
        report, code = run_verify(write_doc(tmp_path, doc), checks="precartier")
        assert code == 1
        failing = {r["rule"]: r["detail"] for r in report["checks"] if not r["holds"]}
        assert "(E3,E3)" in failing["precartier.antisym"]

    def test_check_order_is_stable(self):
        assert CHECK_ORDER == ("braiding", "comonoids", "functor", "adapted",
                               "build", "groupoid", "lie", "twists",
                               "dy-modules", "uea", "precartier", "deformed")


class TestBuild:
    def test_group_algebra_hopf_monoid(self):
        report, code = run_build(corpus_path("z3_group_algebra"), "hopf-monoid")
        assert code == 0
        s = report["structure"]
        assert len(s["mult"]["matrix"]) == 3
        assert len(s["mult"]["matrix"][0]) == 9
        assert report["verdict"] == "pass"

    def test_torsor_groupoid_tables(self):
        report, code = run_build(corpus_path("z2_torsors"), "groupoid")
        assert code == 0
        s = report["structure"]
        assert set(s["hom_size"].values()) == {2}
        # each hom composition table is the group's own table
        assert s["comp"]["0,0,0"] == [0, 1, 1, 0]
        assert s["identity"] == {"0": 0, "1": 0}

    def test_hopf_category_target(self):
        report, code = run_build(corpus_path("s3_torsors"), "hopf-category")
        assert code == 0
        assert set(report["structure"]["labels"]) == {"M", "N"}

    def test_deformed_order_zero_matches_undeformed_bytes(self):
        plain, _ = run_build(corpus_path("abelian_precartier"), "hopf-category")
        zero, code = run_build(corpus_path("abelian_precartier"), "deformed",
                               order=0)
        assert code == 0
        assert (json.dumps(zero["structure"], sort_keys=True)
                == json.dumps(plain["structure"], sort_keys=True))

    def test_deformed_default_order(self):
        report, code = run_build(corpus_path("abelian_precartier"), "deformed")
        assert code == 0
        assert report["order"] == 2
        assert report["structure"]["scalar_ring"] == {"kind": "hseries", "order": 2}
        rules = {r["rule"] for r in report["checks"]}
        assert "deformed.reduction" in rules

    def test_build_without_functor_is_an_input_error(self):
        assert run_build(corpus_path("b2_lie_bialgebra"), "hopf-monoid")[1] == 2

    def test_order_flag_only_for_deformed(self):
        assert run_build(corpus_path("z2_torsors"), "groupoid", order=1)[1] == 2

    def test_groupoid_needs_finset(self):
        assert run_build(corpus_path("z3_group_algebra"), "groupoid")[1] == 2

    def test_deformed_needs_linear_backend(self):
        report, code = run_build(corpus_path("z2_torsors"), "deformed")
        assert code == 2
        assert report["verdict"] == "error"

    def test_unknown_target(self):
        assert run_build(corpus_path("z2_torsors"), "monoid")[1] == 2

    def test_negative_order_is_an_input_error(self, capsys):
        path = str(corpus_path("abelian_precartier"))
        report, code = run_build(path, "deformed", order=-1)
        assert (code, report["verdict"]) == (2, "error")
        assert "--order" in report["error"]
        assert main(["build", path, "--target", "deformed", "--order", "-1"]) == 2

    def test_unverified_structures_are_withheld(self, tmp_path):
        doc = non_cocommutative_z2()
        report, code = run_build(write_doc(tmp_path, doc), "hopf-monoid")
        assert code == 1
        assert "structure" not in report


def ci_builds():
    """(instance name, target) for every build CI makes of the shipped
    corpus: both functor targets wherever a functor is given, the groupoid
    on finset-gset, the deformation on abelian_precartier."""
    calls = []
    for name in CORPUS_NAMES:
        doc = load_corpus_document(name)
        if "functor" in doc:
            calls += [(name, "hopf-monoid"), (name, "hopf-category")]
            if doc["backend"] == "finset-gset":
                calls.append((name, "groupoid"))
        if name == "abelian_precartier":
            calls.append((name, "deformed"))
    return calls


def deformed_documents():
    """The two deformed builds of the lie-deform benchmark workload: the
    abelian pre-Cartier datum at order 4 and a zero datum at order 8."""
    pre = corpus._abelian_precartier_doc()
    pre["deformation"]["order"] = 4
    z3 = corpus._group_algebra_doc("z3_group_algebra", 3)
    z3["deformation"] = {"order": 8, "convention": "t_delta_zero", "t": []}
    return {"abelian_precartier_o4": pre, "z3_zero_deformation_o8": z3}


def stored_scalars(root):
    """Every stored rational and series coefficient of every Matrix reached
    from root through Value fields, dicts, lists and tuples."""
    seen, todo, out = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Matrix):
            for row in obj.nz:
                for x in row.values():
                    out.extend(x.coeffs if isinstance(x, HSeries) else (x,))
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, Value):
            todo.extend(obj._values(obj))
    return out


class TestCanonicalStructures:
    """Every matrix of every built structure holds its rationals in
    canonical form, an int where integral and a Fraction elsewhere."""

    def built(self, monkeypatch, path, target):
        made = []

        def recording(*args, real=cli._construct):
            out = real(*args)
            made.append(out[0])
            return out

        monkeypatch.setattr(cli, "_construct", recording)
        report, code = run_build(path, target)
        assert code == 0, report.get("error")
        return made[0]

    @pytest.mark.parametrize("name, target", ci_builds())
    def test_corpus_builds(self, monkeypatch, name, target):
        values = stored_scalars(self.built(monkeypatch, corpus_path(name), target))
        assert all(is_canonical(x) for x in values)
        linear = load_corpus_document(name)["backend"] != "finset-gset"
        assert bool(values) == linear

    @pytest.mark.parametrize("name", sorted(deformed_documents()))
    def test_deformed_builds(self, monkeypatch, tmp_path, name):
        path = write_doc(tmp_path, deformed_documents()[name])
        values = stored_scalars(self.built(monkeypatch, path, "deformed"))
        assert values and all(is_canonical(x) for x in values)


class TestOneBuildPath:
    """verify and build take the plain structure from one construction per
    loaded instance, and each names a construction error its own way."""

    CASES = [("s3_torsors", None, None), ("s3_torsors", "hopf-category", None),
             ("s3_torsors", "groupoid", None), ("abelian_precartier", None, None),
             ("abelian_precartier", "deformed", None), ("abelian_precartier", "deformed", 0),
             ("abelian_precartier", None, 0)]

    @pytest.mark.parametrize("name, target, order", CASES, ids=[
        f"{n}-{t}" + ("" if o is None else f"-order{o}") for n, t, o in CASES])
    def test_one_plain_construction(self, monkeypatch, tmp_path, name, target, order):
        """Every constructor call counts, a deformed build at positive order
        included.  A verify at order 0 reads the order from the document."""
        calls = []

        def counted(functor, *args, real=cli.build_hopf_category, **kwargs):
            calls.append(functor)
            return real(functor, *args, **kwargs)

        monkeypatch.setattr(cli, "build_hopf_category", counted)
        path = corpus_path(name)
        if target is None and order is not None:
            doc = load_corpus_document(name)
            doc["deformation"]["order"] = order
            path = write_doc(tmp_path, doc)
        _, code = run_verify(path) if target is None else run_build(path, target, order)
        assert (code, len(calls)) == (0, 1)

    def test_construction_errors_keep_their_rule_names(self, tmp_path):
        doc = non_cocommutative_z2()
        doc["deformation"] = {"order": 1}
        path = write_doc(tmp_path, doc)

        def failing(report):
            return [r["rule"] for r in report["checks"] if not r["holds"]]

        assert failing(run_verify(path, checks="build,deformed")[0]) == [
            "build.constructor", "deformed.constructor"]
        assert failing(run_build(path, "hopf-category")[0]) == ["hopf-category.constructor"]
        assert failing(run_build(path, "deformed")[0]) == ["deformed.constructor"]

    @pytest.mark.parametrize("order", [0, 1])
    def test_violated_law_is_reported_before_a_failed_construction(self, tmp_path, order):
        """A comonoid that is not cocommutative fails both the plain
        construction and the pre-Cartier laws; the laws are reported."""
        doc = non_cocommutative_z2()
        doc["deformation"] = {"order": order, "convention": "literal"}
        path = write_doc(tmp_path, doc)
        for report, code in (run_verify(path, checks="deformed"),
                             run_build(path, "deformed"),
                             run_build(path, "deformed", order)):
            [record] = report["checks"]
            assert (code, record["rule"]) == (1, "deformed.constructor")
            assert record["detail"].startswith("precartier.inf_cocomm.sigma[M]; ")
            assert "LawRecord" not in record["detail"]

    def test_order_suffix_only_on_verify(self):
        path = corpus_path("abelian_precartier")
        verify = [r["rule"] for r in run_verify(path, checks="deformed")[0]["checks"]]
        build = [r["rule"] for r in run_build(path, "deformed")[0]["checks"]]
        assert verify[-1] == build[-1] == "deformed.reduction"
        assert verify[:-1] == [f"{rule}[order2]" for rule in build[:-1]]


def set_ladder_documents():
    """The set-ladder documents of the benchmark at seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("set-ladder", 0)[0]


class TestTensorTableSizes:
    """Composites that read a tensor product at a few points never build
    its whole table: the longest finset tensor table a call makes is |M|^3
    for S4 (|M| = 24) and |T|^3 for D8 (|T| = 16), not the fourth power."""

    @pytest.mark.parametrize("name, target, longest", [
        ("s4_torsors", "hopf-monoid", 24 ** 3), ("d8_torsors", None, 16 ** 3)])
    def test_longest_table(self, monkeypatch, tmp_path, name, target, longest):
        lengths = [0]

        def recorded(f, g, gc, real=backends._tensor_tables):
            out = real(f, g, gc)
            lengths.append(len(out))
            return out

        monkeypatch.setattr(backends, "_tensor_tables", recorded)
        path = write_doc(tmp_path, set_ladder_documents()[name])
        _, code = run_verify(path) if target is None else run_build(path, target)
        assert code == 0
        assert max(lengths) <= longest


class TestCubeTables:
    """An s4_torsors verify makes no table of |G|^3 = 13,824 entries or more,
    from _tensor_tables or from compose.  The hexagons are read off the
    swaps the backend kept, with nothing composed and no swap of a
    two-letter word built (check_braiding_coherence); gamma's
    id (x) delta (x) id and mult_along's collapse id (x) eps (x) id are read
    at orbit representatives only (split_tensor); and associativity goes
    through Light's test."""

    def test_cube_table_counts(self, monkeypatch, tmp_path):
        cube = 24 ** 3
        counts = {"tensor": 0, "compose": 0}

        def tensored(f, g, gc, real=backends._tensor_tables):
            out = real(f, g, gc)
            counts["tensor"] += len(out) >= cube
            return out

        def composed(backend, *fs, real=backends.Backend.compose):
            out = real(backend, *fs)
            counts["compose"] += out.table is not None and len(out.table) >= cube
            return out

        monkeypatch.setattr(backends, "_tensor_tables", tensored)
        monkeypatch.setattr(backends.Backend, "compose", composed)
        _, code = run_verify(write_doc(tmp_path, set_ladder_documents()["s4_torsors"]))
        assert code == 0
        assert counts == {"tensor": 0, "compose": 0}

    def verified_backend(self, monkeypatch, tmp_path, doc):
        """The backend that a passing verify of doc loaded."""
        loaded = []

        def load(path, real=cli.load_instance):
            loaded.append(real(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_instance", load)
        _, code = run_verify(write_doc(tmp_path, doc))
        assert code == 0
        return loaded[0].backend

    def test_no_composite_size_swap_is_kept(self, monkeypatch, tmp_path):
        backend = self.verified_backend(monkeypatch, tmp_path,
                                        set_ladder_documents()["s4_torsors"])
        assert not {(576, 24), (24, 576)} & set(backend._braidings)

    @pytest.mark.parametrize("name", ["s4_torsors", "z64_torsors"])
    def test_no_identity_beyond_pairs(self, monkeypatch, tmp_path, name):
        """F2 is split from id_x (x) id_y, so the orbit functor reads it at
        representatives and the backend keeps no identity of |G|^3 points."""
        if name == "s4_torsors":
            doc, order = set_ladder_documents()[name], 24
        else:
            doc, order = corpus._torsor_doc(name, {"kind": "cyclic", "n": 64},
                                            backends.cyclic_group(64)), 64
        memo = self.verified_backend(monkeypatch, tmp_path, doc)._memo
        kept = [len(one) for n, one in memo.items() if isinstance(n, int)]
        assert kept and max(kept) <= order ** 2


class TestOneCertificatePerComonoid:
    """The adapted group and the constructor read the inverses the functor
    keeps per comonoid structure: gamma is computed at most once per
    (comonoid, left, right), whichever of them asks first."""

    def gamma_calls(self, monkeypatch, path):
        calls = Counter()

        def counted(functor, m, x, z, real=cofunctor.gamma):
            calls[(m.name, x.factors, z.factors)] += 1
            return real(functor, m, x, z)

        monkeypatch.setattr(cofunctor, "gamma", counted)
        _, code = run_verify(path)
        assert code == 0
        return calls

    def test_s4_torsors_verify(self, monkeypatch, tmp_path):
        path = write_doc(tmp_path, set_ladder_documents()["s4_torsors"])
        calls = self.gamma_calls(monkeypatch, path)
        ends = [(), ("S",), ("T",)]
        assert set(calls) == {(m, x, z) for m in "MN" for x in ends for z in ends}
        assert max(calls.values()) == 1

    def test_two_comonoids_on_one_carrier(self, monkeypatch, tmp_path):
        """Both comonoids are the diagonal on S, and differ in name alone:
        they share every inverse, so gamma is computed once per
        (carrier, left, right), and each name gets its adapted record."""
        doc = load_corpus_document("z3_torsors")
        doc["comonoids"][1]["obj"] = ["S"]
        path = write_doc(tmp_path, doc)
        calls = self.gamma_calls(monkeypatch, path)
        ends = [(), ("S",)]
        assert set(calls) == {("M", x, z) for x in ends for z in ends}
        assert max(calls.values()) == 1
        report, _ = run_verify(path, "adapted")
        assert [c["rule"] for c in report["checks"]] == ["adapted[M]", "adapted[N]"]


class TestDyMapsBuiltOnce:
    """An abelian_precartier verify builds each word's dy action and
    coaction, each pair's coinvariant splitting, and each peeling rule at
    each cut once, however often they are read."""

    @staticmethod
    def results_of(monkeypatch, owner, name, key):
        seen = {}
        real = getattr(owner, name)

        def recorded(*args):
            out = real(*args)
            seen.setdefault(key(*args), []).append(out)
            return out

        monkeypatch.setattr(owner, name, recorded)
        return seen

    def test_word_maps_and_splittings(self, monkeypatch):
        seen = {name: self.results_of(monkeypatch, backends.Backend, name,
                                      lambda be, w: w.factors)
                for name in ("dy_action", "dy_coaction")}
        seen["f2"] = self.results_of(monkeypatch, cofunctor.CoinvariantsFunctor, "f2",
                                     lambda fn, x, y: (x.factors, y.factors))
        _, code = run_verify(str(corpus_path("abelian_precartier")))
        assert code == 0
        for name, by_key in seen.items():
            assert max(map(len, by_key.values())) > 1, name
            for outs in by_key.values():
                assert all(o is outs[0] for o in outs), name

    def test_each_cut_is_peeled_once(self, monkeypatch):
        from hopfcat.deform import PreCartierData
        calls = Counter()
        for rule in ("t_cut_left", "t_cut_right"):
            def counted(pc, x, y, z, rule=rule, real=getattr(PreCartierData, rule)):
                calls[(rule, x.factors, y.factors, z.factors)] += 1
                return real(pc, x, y, z)
            monkeypatch.setattr(PreCartierData, rule, counted)
        _, code = run_verify(str(corpus_path("abelian_precartier")))
        assert code == 0
        assert calls and max(calls.values()) == 1


class TestHexagonsBySize:
    """Atoms of sizes 2, 2 and 3: each swap is read against the flip once
    per size pair, and the report lists a verdict for every word triple.
    A planted 2 by 3 swap fails exactly the laws the composing oracle fails."""

    SIZES = {"A": 2, "B": 2, "C": 3}

    def backend(self, kind):
        if kind == "finset":
            return backends.finset_backend(backends.trivial_group(), [
                backends.Atom(n, k, (tuple(range(k)),)) for n, k in self.SIZES.items()])
        return backends.linear_backend(backends.trivial_group(), [
            backends.Atom(n, k, (Matrix.identity(k, RATIONAL),)) for n, k in self.SIZES.items()])

    @pytest.mark.parametrize("kind", ["finset", "linear"])
    def test_coherent_swap(self, kind):
        backend = self.backend(kind)
        assert backends.check_braiding_coherence(backend) == []
        assert unmemoized_braiding_failures(backend) == []
        record, = cli._check_braiding(SimpleNamespace(backend=backend))
        assert record == LawRecord("braiding.coherence", True, "")

    @pytest.mark.parametrize("kind", ["finset", "linear"])
    def test_swap_broken_for_one_size_pair(self, kind):
        backend = self.backend(kind)
        good = backend.braiding(backend.obj("A"), backend.obj("C"))
        # the 2 by 3 swap with the images of its first two points exchanged
        wrong = (1, 0, 2, 3, 4, 5)
        backend._braidings[(2, 3)] = (
            tuple(map(good.table.__getitem__, wrong)) if kind == "finset"
            else good.matrix * Matrix.from_table(RATIONAL, wrong, 6))
        bad = backends.check_braiding_coherence(backend)
        assert bad == unmemoized_braiding_failures(backend)
        record, = cli._check_braiding(SimpleNamespace(backend=backend))
        assert record == LawRecord("braiding.coherence", False, "; ".join(bad[:3]))
        # exactly the words and triples whose swaps include a 2 by 3 one
        size = self.SIZES
        expect = [f"swap of {x},{y} not involutive" for x in "ABC" for y in "ABC"
                  if {size[x], size[y]} == {2, 3}]
        for x, y, z in itertools.product("ABC", repeat=3):
            nx, ny, nz = size[x], size[y], size[z]
            if (2, 3) in ((nx * ny, nz), (ny, nz), (nx, nz)):
                expect.append(f"hexagon fails at {x},{y},{z}")
            if (2, 3) in ((nx, ny * nz), (nx, ny), (nx, nz)):
                expect.append(f"hexagon (right) fails at {x},{y},{z}")
        assert bad == expect


class TestOrbitLabelSizes:
    """An s4_torsors verify takes orbit data only of words of at most three
    letters (gamma and the hom splittings never image X (x) M (x) M (x) Z),
    and labels every point only of one-letter words, |G| = 24 points, never
    the 13,824 of X (x) M (x) Z or the 331,776 of X (x) M (x) M (x) Z."""

    def test_longest_label_array(self, monkeypatch, tmp_path):
        lengths, words = [0], [()]

        def recorded(fn, factors, real=cofunctor.OrbitFunctor._per_point):
            out = real(fn, factors)
            lengths.extend(map(len, out))
            return out

        def orbits(fn, factors, real=cofunctor.OrbitFunctor._orbits_of):
            words.append(factors)
            return real(fn, factors)

        monkeypatch.setattr(cofunctor.OrbitFunctor, "_per_point", recorded)
        monkeypatch.setattr(cofunctor.OrbitFunctor, "_orbits_of", orbits)
        _, code = run_verify(write_doc(tmp_path, set_ladder_documents()["s4_torsors"]))
        assert code == 0
        assert max(map(len, words)) <= 3
        assert max(lengths) <= 24


class TestCoinvariantSizes:
    """A z8_group_algebra verify eliminates relations of words of at most
    three letters, 8^3 = 512 rows, never the 4,096 of a four-letter word."""

    def test_largest_cokernel_projection(self, monkeypatch, tmp_path):
        rows = [0]

        def recorded(relations, real=cofunctor.cokernel_projection):
            rows.append(relations.rows)
            return real(relations)

        monkeypatch.setattr(cofunctor, "cokernel_projection", recorded)
        doc = corpus._group_algebra_doc("z8_group_algebra", 8)
        _, code = run_verify(write_doc(tmp_path, doc))
        assert code == 0
        assert max(rows) <= 8 ** 3


def padded_precartier_document():
    """abelian_precartier with a third trivial line E3, a copy of E."""
    doc = corpus._abelian_precartier_doc()
    doc["atoms"].append(dict(next(a for a in doc["atoms"] if a["name"] == "E"), name="E3"))
    return doc


class TestUnitLettersDropped:
    """An abelian_precartier verify builds relations for the unit and the
    14 words of one to three letters over {V, W} only, each once, however
    many trivial lines pad its words: a copy with a third line E3 builds
    no more.  No coinvariants F2 builds a tensor product of identities."""

    @pytest.mark.parametrize("padded, records", [(False, 286), (True, 358)])
    def test_relations_of_reduced_words_only(self, monkeypatch, tmp_path, padded, records):
        words, depth, tensored = Counter(), [0], []

        def relations(source, obj, real=cofunctor.dy_coinvariants_relations):
            words[obj.factors] += 1
            return real(source, obj)

        def f2(fn, x, y, real=cofunctor.CoinvariantsFunctor.f2):
            depth[0] += 1
            try:
                return real(fn, x, y)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cofunctor, "dy_coinvariants_relations", relations)
        monkeypatch.setattr(cofunctor.CoinvariantsFunctor, "f2", f2)
        for owner, name in [(backends.Backend, "tensor_all"), (backends.Backend, "tensor_mor"),
                            (cofunctor.CoinvariantsFunctor, "split_tensor")]:
            def recorded(*args, real=getattr(owner, name), name=name):
                if depth[0]:
                    tensored.append(name)
                return real(*args)
            monkeypatch.setattr(owner, name, recorded)
        doc = padded_precartier_document() if padded else load_corpus_document(
            "abelian_precartier")
        report, code = run_verify(write_doc(tmp_path, doc))
        assert code == 0 and len(report["checks"]) == records
        assert set(words) == {()} | {w for k in (1, 2, 3)
                                     for w in itertools.product("VW", repeat=k)}
        assert max(words.values()) == 1
        assert tensored == []


class TestMain:
    def test_verify_json_output(self, capsys):
        code = main(["verify", str(corpus_path("z2_torsors")), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"

    def test_verify_summary_output(self, capsys):
        code = main(["verify", str(corpus_path("z2_group_algebra"))])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "PASS" in out and "FAIL" not in out

    def test_out_file_matches_json_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", str(corpus_path("z2_torsors")),
                     "--json", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        disk = json.loads(out.read_text())
        shown = json.loads(stdout)
        disk.pop("timing"), shown.pop("timing")
        assert disk == shown

    def test_build_cli_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "built.json"
        code = main(["build", str(corpus_path("z3_group_algebra")),
                     "--target", "hopf-monoid", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["target"] == "hopf-monoid"
        assert "structure" in doc

    def test_main_error_path(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_python_dash_m_runs_without_warning(self):
        env = dict(os.environ, PYTHONPATH=str(Path(hopfcat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "hopfcat", "verify", str(corpus_path("z2_torsors"))],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "verdict: pass" in proc.stdout


def b2_with_corpus_twists(tmp_path, order=None):
    """b2_lie_bialgebra with the three twists of b2_twists, and its path."""
    doc = load_corpus_document("b2_lie_bialgebra")
    doc["lie_bialgebra"]["twists"] = load_corpus_document("b2_twists")["lie_bialgebra"]["twists"]
    if order is not None:
        doc["lie_bialgebra"]["uea"]["order"] = order
    return write_doc(tmp_path, doc)


class TestUeaCoproductMutation:
    """Perturb one entry of a memoized coproduct or coaction inside the uea
    check group.  The plain truncated enveloping algebra's engine is shared
    by every check of the group; uea.comonoid_unchanged derives Delta again
    from an engine of twist_bialgebra(lb, j), and must see a change of
    either engine."""

    @staticmethod
    def perturb_delta(engine):
        x = (0,)
        engine.coproduct({x: Fraction(1)})
        engine._delta_cache[x][(x, ())] = Fraction(2)

    @staticmethod
    def perturb_seed(engine, j):
        engine.coact({(): Fraction(1)}, j)
        engine._coact_cache[((), j)][(0, (1,))] = Fraction(2)

    def failing_rules(self, tmp_path, monkeypatch, perturb_twisted):
        """Perturb Delta of a generator in the shared engine, or in the
        engine of each twisted bialgebra."""
        path = b2_with_corpus_twists(tmp_path)
        plain_lb = load_instance(path).lie
        real = liebialg.TruncatedUEA

        def perturbed(lb, order):
            uea = real(lb, order)
            if (lb != plain_lb) == perturb_twisted:
                self.perturb_delta(uea.engine)
            return uea

        monkeypatch.setattr(liebialg, "TruncatedUEA", perturbed)
        return self.run(path)

    @staticmethod
    def run(path):
        report, code = run_verify(path, checks="uea")
        assert code == 1
        return {r["rule"] for r in report["checks"] if not r["holds"]}

    def test_unperturbed_passes(self, tmp_path):
        report, code = run_verify(b2_with_corpus_twists(tmp_path), checks="uea")
        assert code == 0
        assert {"uea.comonoid_unchanged[j0]", "uea.comonoid_unchanged[j2]"} <= {
            r["rule"] for r in report["checks"]}

    def test_twisted_delta_fails_comonoid_unchanged(self, tmp_path, monkeypatch):
        failing = self.failing_rules(tmp_path, monkeypatch, perturb_twisted=True)
        assert failing == {f"uea.comonoid_unchanged[j{i}]" for i in range(3)}

    def test_plain_delta_fails_coassociativity(self, tmp_path, monkeypatch):
        # the planted Fraction(2) sits among int coefficients, and
        # Delta(x0) = 2 x0 (x) 1 + 1 (x) x0 keeps (eps (x) 1) Delta(x0) = x0:
        # only (1 (x) eps) Delta(x0) = 2 x0 fails the counit
        failing = self.failing_rules(tmp_path, monkeypatch, perturb_twisted=False)
        assert "uea.coassoc[j=0]" in failing
        assert "uea.counit[j=0]" in failing
        assert "uea.comonoid_unchanged[j0]" in failing

    def test_twisted_seed_fails_only_the_seed(self, tmp_path, monkeypatch):
        # perturbed after the identity checks have read the shared coaction
        path = b2_with_corpus_twists(tmp_path)
        real = cli._uea_seed_record

        def perturbed(eng, j, tag):
            if tag == "j0":
                self.perturb_seed(eng, j)
            return real(eng, j, tag)

        monkeypatch.setattr(cli, "_uea_seed_record", perturbed)
        assert self.run(path) == {"uea.seed[j0]"}

    def test_identity_checks_read_the_shared_seed(self, tmp_path, monkeypatch):
        path = b2_with_corpus_twists(tmp_path)
        inst = load_instance(path)
        real = liebialg.TruncatedUEA

        def perturbed(lb, order):
            uea = real(lb, order)
            if lb == inst.lie:
                self.perturb_seed(uea.engine, inst.twists[0])
            return uea

        monkeypatch.setattr(liebialg, "TruncatedUEA", perturbed)
        assert self.run(path) == {"uea.seed[j0]", "uea.comodule[j0]"}

    def test_delta_reading_the_cobracket_fails_comonoid_unchanged(self, tmp_path, monkeypatch):
        """The planted fault: Delta of a generator gains its cobracket.  The
        twisted bialgebras' cobrackets differ from lb's, so their
        coproducts differ from the shared one."""
        real = EnvelopingEngine._delta_word

        def planted(engine, word):
            out = real(engine, word)
            if len(word) == 1:
                out = dict(out)
                _acc(out, ((((a,), (b,)), c) for (a, b), c in engine.lb.cobracket_of(word[0])))
            return out

        monkeypatch.setattr(EnvelopingEngine, "_delta_word", planted)
        failing = self.run(b2_with_corpus_twists(tmp_path))
        assert {f"uea.comonoid_unchanged[j{i}]" for i in range(3)} <= failing


class TestSharedEnvelopingEngine:
    def test_each_word_above_identity_degree_is_derived_once(self, tmp_path, monkeypatch):
        """Cache misses of Delta across every engine of one uea verify with
        three twists: the words up to identity_degree are derived again by
        uea.comonoid_unchanged, every longer word exactly once."""
        path = b2_with_corpus_twists(tmp_path, order=8)
        deg = load_instance(path).uea["identity_degree"]
        misses = Counter()
        real = EnvelopingEngine._delta_word

        def counted(engine, word):
            if word not in engine._delta_cache:
                misses[word] += 1
            return real(engine, word)

        monkeypatch.setattr(EnvelopingEngine, "_delta_word", counted)
        report, code = run_verify(path, checks="uea")
        assert code == 0
        assert {w for w in misses if len(w) > deg} == set(pbw_words(2, 8)[len(pbw_words(2, deg)):])
        assert max(c for w, c in misses.items() if len(w) > deg) == 1


# ---------------------------------------------------------------------------
# the exit contract under malformed input


JUNK = [0, 1, -1, 2, 1.5, None, True, "x", "1/0", "-2/3", "regular", [], [0],
        [1, 0], ["x", 1, 2], [[0], 1, 2], {}, {"n": 2}]
DELETE = object()


def json_paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutate(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = copy.deepcopy(value)


@st.composite
def mutated_documents(draw):
    """A corpus document with one or two of its values replaced by junk or
    deleted; the second mutation may land inside the first."""
    doc = load_corpus_document(draw(st.sampled_from(CORPUS_NAMES)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(json_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        mutate(doc, path, draw(st.sampled_from(JUNK + [DELETE])))
    return doc


class TestExitContract:
    @settings(max_examples=100, deadline=None)
    @given(mutated_documents())
    def test_mutated_corpus_documents_keep_the_exit_contract(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.json")
            out = os.path.join(tmp, "report.json")
            Path(path).write_text(dump_document(doc))
            code = main(["verify", path, "--out", out])
            verdict = json.loads(Path(out).read_text())["verdict"]
        expected = {0: ("pass", "vacuous"), 1: ("fail",), 2: ("error",)}
        assert code in expected and verdict in expected[code], (code, verdict)

    @settings(max_examples=100, deadline=None)
    @given(mutated_documents(), st.sampled_from(TARGETS),
           st.sampled_from([None, -1, 0, 1, 2]))
    def test_mutated_corpus_documents_keep_the_build_exit_contract(self, doc, target, order):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.json")
            out = os.path.join(tmp, "report.json")
            Path(path).write_text(dump_document(doc))
            argv = ["build", path, "--target", target, "--out", out]
            if target == "deformed" and order is not None:
                argv += ["--order", str(order)]
            code = main(argv)
            verdict = json.loads(Path(out).read_text())["verdict"]
        expected = {0: ("pass",), 1: ("fail",), 2: ("error",)}
        assert code in expected and verdict in expected[code], (code, verdict)
