import json

import pytest

from hopfcat.backends import cyclic_group, regular_atom, symmetric_group
from hopfcat.coalg import diagonal_comonoid
from hopfcat.instances import (
    InstanceError,
    canonical_json,
    dump_document,
    instance_digest,
    load_instance,
    make_functor,
    mor_to_json,
    parse_backend,
    parse_comonoid,
    parse_group,
    parse_instance,
    parse_lie,
    parse_ring,
    precartier_to_json,
)
from hopfcat.corpus import (
    CORPUS_NAMES,
    corpus_documents,
    corpus_path,
    load_corpus_document,
)
from hopfcat.cli import run_verify
from hopfcat.linalg import Matrix
from hopfcat.scalars import RATIONAL, hseries_ring
from fractions import Fraction


def qm(rows):
    return Matrix.from_rows(RATIONAL, rows)


def finset_doc():
    return {
        "backend": "finset-gset",
        "group": {"kind": "cyclic", "n": 3},
        "atoms": [{"name": "S", "action": "regular"}],
    }


def linrep_doc():
    return {
        "backend": "linrep",
        "group": {"kind": "cyclic", "n": 2},
        "atoms": [{"name": "R", "action": "regular"}],
    }


def dy_doc():
    return {
        "backend": "dy",
        "base": "b",
        "atoms": [
            {"name": "b", "size": 1,
             "pi": [["0"]], "pistar": [["0"]]},
            {"name": "W", "size": 2,
             "pi": [["0", "0"], ["1", "0"]],
             "pistar": [["0", "0"], ["0", "0"]]},
        ],
    }


class TestScalarAndGroupParsing:
    def test_ring_defaults_to_rational(self):
        assert parse_ring(None) == RATIONAL
        assert parse_ring({"kind": "rational"}) == RATIONAL
        assert parse_ring("rational") == RATIONAL

    def test_series_ring_needs_order(self):
        assert parse_ring({"kind": "hseries", "order": 2}) == hseries_ring(2)
        with pytest.raises(InstanceError):
            parse_ring({"kind": "hseries"})
        with pytest.raises(InstanceError):
            parse_ring({"kind": "float"})

    def test_group_shorthands(self):
        assert parse_group({"kind": "cyclic", "n": 4}).order == 4
        assert parse_group({"kind": "symmetric", "n": 3}).order == 6
        assert parse_group({"kind": "trivial"}).order == 1
        assert parse_group(None).order == 1

    def test_group_explicit_table(self):
        g = cyclic_group(3)
        doc = {"table": [list(r) for r in g.table], "names": list(g.names)}
        assert parse_group(doc).table == g.table

    def test_bad_table_is_an_input_error(self):
        with pytest.raises(InstanceError):
            parse_group({"table": [[0, 1], [1, 1]]})
        with pytest.raises(InstanceError):
            parse_group({"kind": "cyclic"})


class TestBackendParsing:
    def test_finset_regular_action(self):
        be = parse_backend(finset_doc())
        assert be.kind == "finset"
        assert be.atoms["S"].action == regular_atom("S", cyclic_group(3)).action

    def test_finset_explicit_action(self):
        doc = finset_doc()
        g = cyclic_group(3)
        doc["atoms"].append({
            "name": "T", "size": 3,
            "action": [[g.mul(a, g.inv(x)) for a in range(3)] for x in range(3)],
        })
        be = parse_backend(doc)
        assert be.atoms["T"].action[1] == (2, 0, 1)

    def test_non_homomorphism_action_rejected(self):
        doc = finset_doc()
        doc["atoms"] = [{"name": "S", "size": 3,
                         "action": [[0, 1, 2], [0, 1, 2], [1, 0, 2]]}]
        with pytest.raises(InstanceError):
            parse_backend(doc)

    def test_linrep_regular_matrices(self):
        be = parse_backend(linrep_doc())
        assert be.kind == "linear"
        assert be.atoms["R"].action[1] == qm([[0, 1], [1, 0]])

    def test_rational_strings_parse(self):
        doc = linrep_doc()
        doc["atoms"] = [{"name": "A", "size": 1, "action": [[["1"]], [["-1"]]]}]
        be = parse_backend(doc)
        assert be.atoms["A"].action[1][0, 0] == Fraction(-1)

    def test_dy_backend_needs_base_and_coaction(self):
        be = parse_backend(dy_doc())
        assert be.kind == "dy" and be.base == "b"
        doc = dy_doc()
        del doc["base"]
        with pytest.raises(InstanceError):
            parse_backend(doc)
        doc = dy_doc()
        del doc["atoms"][1]["pistar"]
        with pytest.raises(InstanceError):
            parse_backend(doc)

    def test_wrong_pi_shape_rejected(self):
        doc = dy_doc()
        doc["atoms"][1]["pi"] = [["0", "0", "0"], ["1", "0", "0"]]
        with pytest.raises(InstanceError):
            parse_backend(doc)

    def test_unknown_kind_and_keys(self):
        with pytest.raises(InstanceError):
            parse_backend({"backend": "numpy"})
        with pytest.raises(InstanceError):
            parse_instance({"backend": "linrep", "atoms": [], "extra": 1})

    def test_backendless_sections_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance({"atoms": []})
        with pytest.raises(InstanceError):
            parse_instance({"functor": "identity"})


class TestComonoidParsing:
    def test_diagonal_shorthand_matches_constructor(self):
        be = parse_backend(finset_doc())
        c = parse_comonoid(be, {"obj": ["S"], "delta": "diagonal", "name": "M"})
        ref = diagonal_comonoid(be, be.obj("S"), "M")
        assert c.delta.table == ref.delta.table
        assert c.eps.table == ref.eps.table

    def test_explicit_tables(self):
        be = parse_backend(finset_doc())
        c = parse_comonoid(be, {"obj": "S", "delta": [0, 4, 8], "eps": "point"})
        assert c.delta.table == (0, 4, 8)
        assert c.eps.table == (0, 0, 0)

    def test_group_like_and_ones(self):
        be = parse_backend(linrep_doc())
        c = parse_comonoid(be, {"obj": ["R"], "delta": "group-like"})
        assert c.delta.matrix[0, 0] == 1 and c.delta.matrix[3, 1] == 1
        c2 = parse_comonoid(be, {"obj": ["R"],
                                 "delta": c.delta.matrix.to_json(),
                                 "eps": "ones"})
        assert c2.eps.matrix == c.eps.matrix

    def test_shorthand_backend_mismatch(self):
        be = parse_backend(linrep_doc())
        with pytest.raises(InstanceError):
            parse_comonoid(be, {"obj": ["R"], "delta": "diagonal"})
        fe = parse_backend(finset_doc())
        with pytest.raises(InstanceError):
            parse_comonoid(fe, {"obj": ["S"], "delta": "group-like"})

    def test_table_out_of_range_rejected(self):
        be = parse_backend(finset_doc())
        with pytest.raises(InstanceError):
            parse_comonoid(be, {"obj": ["S"], "delta": [0, 4, 99], "eps": "point"})

    @pytest.mark.parametrize("name", [[0], 1, None, {"n": 2}])
    def test_name_must_be_a_string(self, tmp_path, name):
        be = parse_backend(finset_doc())
        with pytest.raises(InstanceError, match="comonoid.name: expected a string"):
            parse_comonoid(be, {"obj": ["S"], "name": name})
        doc = load_corpus_document("z3_torsors")
        doc["comonoids"][0]["name"] = name
        path = tmp_path / "inst.json"
        path.write_text(dump_document(doc))
        report, code = run_verify(str(path))
        assert (code, report["verdict"]) == (2, "error")


class TestFunctorSelection:
    def test_known_names(self):
        fe = parse_backend(finset_doc())
        assert make_functor(fe, "identity").source is fe
        assert make_functor(fe, "orbits").source is fe
        le = parse_backend(linrep_doc())
        assert make_functor(le, "group-coinvariants").source is le
        de = parse_backend(dy_doc())
        assert make_functor(de, "dy-coinvariants").source is de

    def test_mismatched_functor_is_an_input_error(self):
        le = parse_backend(linrep_doc())
        with pytest.raises(InstanceError):
            make_functor(le, "orbits")
        with pytest.raises(InstanceError):
            make_functor(le, "lax-monoidal")


class TestLieParsing:
    def b2_doc(self):
        return {
            "dim": 2,
            "names": ["x", "y"],
            "bracket": [[0, 1, 1, "1"], [1, 0, 1, "-1"]],
            "cobracket": [[1, 0, 1, "1"], [1, 1, 0, "-1"]],
        }

    def test_constants_land_in_the_right_slots(self):
        lb, twists, modules, uea = parse_lie(self.b2_doc())
        assert lb.bracket_of(0, 1) == [(1, Fraction(1))]
        assert lb.bracket_of(1, 0) == [(1, Fraction(-1))]
        assert lb.cobracket_of(1) == [((0, 1), Fraction(1)), ((1, 0), Fraction(-1))]
        assert lb.cobracket_of(0) == []
        assert not twists and not modules and uea is None

    def test_twists_modules_uea(self):
        doc = self.b2_doc()
        doc["twists"] = [[["0", "1"], ["-1", "0"]]]
        doc["modules"] = [{"name": "V", "dim": 2,
                           "pi": [["0", "0", "0", "0"], ["1", "0", "0", "0"]],
                           "pistar": [["0", "0"], ["1", "0"],
                                      ["0", "0"], ["0", "0"]]}]
        doc["uea"] = {"order": 4, "identity_degree": 3}
        lb, twists, modules, uea = parse_lie(doc)
        assert twists[0][0, 1] == 1
        assert modules[0].label == "V" and modules[0].pi.rows == 2
        assert uea == {"order": 4, "identity_degree": 3}

    @pytest.mark.parametrize("name", [[0], 1, None])
    def test_module_name_must_be_a_string(self, name):
        doc = self.b2_doc()
        doc["modules"] = [{"name": name, "dim": 1, "pi": [["0", "0"]],
                           "pistar": [["0"], ["0"]]}]
        with pytest.raises(InstanceError, match="modules.name: expected a string"):
            parse_lie(doc)

    def test_module_can_reference_a_dy_atom(self):
        be = parse_backend(dy_doc())
        lb, _, modules, _ = parse_lie(
            {"dim": 1, "modules": ["W"]}, be)
        assert modules[0].pi == be.atoms["W"].pi

    def test_index_out_of_range(self):
        doc = self.b2_doc()
        doc["bracket"] = [[0, 1, 5, "1"]]
        with pytest.raises(InstanceError):
            parse_lie(doc)

    def test_wrong_twist_shape(self):
        doc = self.b2_doc()
        doc["twists"] = [[["0"]]]
        with pytest.raises(InstanceError):
            parse_lie(doc)


class TestDeformationParsing:
    def base_doc(self):
        doc = dy_doc()
        doc["deformation"] = {
            "order": 2,
            "t": [{"x": ["W"], "y": ["W"],
                   "matrix": [["0"] * 4, ["0"] * 4, ["0"] * 4, ["1", "0", "0", "0"]]}],
        }
        return doc

    def test_entries_become_the_table(self):
        inst = parse_instance(self.base_doc())
        pc = inst.deformation["pc"]
        assert inst.deformation["order"] == 2
        assert inst.deformation["convention"] == "t_delta_zero"
        assert pc.table[(("W",), ("W",))][3, 0] == 1

    def test_word_keys_allowed(self):
        doc = self.base_doc()
        doc["deformation"]["t"] = [{"x": ["W", "W"], "y": "W",
                                    "matrix": [["0"] * 8] * 8}]
        inst = parse_instance(doc)
        assert (("W", "W"), ("W",)) in inst.deformation["pc"].table

    def test_bad_entries_rejected(self):
        doc = self.base_doc()
        doc["deformation"]["t"][0]["matrix"] = [["1"]]
        with pytest.raises(InstanceError):
            parse_instance(doc)
        doc = self.base_doc()
        doc["deformation"]["t"].append(doc["deformation"]["t"][0])
        with pytest.raises(InstanceError):
            parse_instance(doc)
        doc = self.base_doc()
        doc["deformation"]["t"][0]["x"] = ["nope"]
        with pytest.raises(InstanceError):
            parse_instance(doc)
        doc = self.base_doc()
        doc["deformation"]["order"] = -1
        with pytest.raises(InstanceError):
            parse_instance(doc)

    def test_needs_a_linear_backend(self):
        doc = finset_doc()
        doc["deformation"] = {"order": 1, "t": []}
        with pytest.raises(InstanceError):
            parse_instance(doc)


class TestDigests:
    def test_digest_ignores_key_order(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert instance_digest(a) == instance_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_digest_sees_content(self):
        assert instance_digest({"x": 1}) != instance_digest({"x": 2})


class TestSerializers:
    def test_mor_to_json_flavors(self):
        fe = parse_backend(finset_doc())
        f = fe.identity_mor(fe.obj("S"))
        assert mor_to_json(f) == {"dom": ["S"], "cod": ["S"], "table": [0, 1, 2]}
        le = parse_backend(linrep_doc())
        g = le.identity_mor(le.obj("R"))
        assert mor_to_json(g)["matrix"] == [["1", "0"], ["0", "1"]]


class TestCorpus:
    def test_every_shipped_file_parses(self):
        for name in CORPUS_NAMES:
            inst = parse_instance(load_corpus_document(name))
            assert inst.doc["name"] == name

    def test_files_match_their_generators(self):
        # the files on disk must be exactly what the generators produce
        for name, doc in corpus_documents().items():
            on_disk = corpus_path(name).read_text()
            assert on_disk == dump_document(doc), name

    def test_corpus_covers_every_backend_flavor(self):
        kinds = set()
        for name in CORPUS_NAMES:
            doc = load_corpus_document(name)
            kinds.add(doc.get("backend"))
        assert kinds == {"finset-gset", "linrep", "dy", None}

    def test_load_instance_reads_files(self):
        inst = load_instance(corpus_path("z3_torsors"))
        assert inst.backend.group.order == 3
        assert inst.functor_name == "orbits"
        assert len(inst.comonoids) == 2
