"""The seed varies the generated inputs but not their size."""

import worker
import workloads

worker.import_hopfcat()


def test_seed_zero_is_the_shipped_corpus():
    from hopfcat import corpus
    docs, _ = workloads.generate("corpus", 0)
    assert docs == corpus.corpus_documents()


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)


def test_relabelled_torsor_is_an_action_of_the_same_size():
    docs0, calls0 = workloads.generate("set-ladder", 0)
    docs1, calls1 = workloads.generate("set-ladder", 3)
    assert calls0 == calls1
    t0 = next(a for a in docs0["s4_torsors"]["atoms"] if a["name"] == "T")
    t1 = next(a for a in docs1["s4_torsors"]["atoms"] if a["name"] == "T")
    assert t0["size"] == t1["size"] == 24
    assert t0["action"] != t1["action"]
    for row in t1["action"]:
        assert sorted(row) == list(range(24))


def test_twist_scalars_are_nonzero_and_vary():
    from fractions import Fraction
    assert workloads.twist_scalars(0) == workloads.CORPUS_TWISTS
    draws = {workloads.twist_scalars(s) for s in range(1, 20)}
    assert len(draws) > 10
    for draw in draws:
        assert len(draw) == 3 and all(Fraction(c) != 0 for c in draw)
