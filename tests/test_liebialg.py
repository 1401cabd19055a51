import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcat import cli
from hopfcat.coalg import all_hold, failures
from hopfcat.corpus import corpus_path
from hopfcat.instances import load_instance
from hopfcat.liebialg import (
    EnvelopingEngine,
    LieBialgebra,
    TruncatedUEA,
    alt_matrix,
    check_dy_module,
    check_lie_bialgebra,
    check_twist,
    check_uea_dy_identities,
    cycle_matrix,
    double_bracket,
    pbw_words,
    swap_matrix,
    twist_bialgebra,
    twist_dy_module,
    vec_twist,
)
from hopfcat.linalg import Matrix, _acc, mat_kron
from hopfcat.scalars import RATIONAL

from conftest import (
    letter_by_letter_coproduct,
    t_mul,
    uea_comonoid_records,
    uea_delta_images,
    uea_eps_matrix,
)


def qm(rows):
    return Matrix.from_rows(RATIONAL, rows)


def b2():
    """Two generators x, y with [x, y] = y, split by delta(y) = x^y."""
    bracket = qm([[0, 0, 0, 0],
                  [0, 1, -1, 0]])
    cobracket = qm([[0, 0],
                    [0, 1],
                    [0, -1],
                    [0, 0]])
    return LieBialgebra(2, bracket, cobracket, ("x", "y"))


def b2_module():
    """V = Q^2 with x acting as the lowering matrix, y acting as zero,
    and coaction v -> x (x) (lowering v)."""
    pi = qm([[0, 0, 0, 0],
             [1, 0, 0, 0]])
    pistar = qm([[0, 0],
                 [1, 0],
                 [0, 0],
                 [0, 0]])
    return pi, pistar


def sl2():
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h on basis h, e, f; zero
    cobracket (only the bracket enters the coproduct)."""
    n = 3
    B = [[Fraction(0)] * (n * n) for _ in range(n)]
    for a, b, k, c in ((0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)):
        B[k][a * n + b] = Fraction(c)
        B[k][b * n + a] = Fraction(-c)
    return LieBialgebra(n, qm(B), Matrix.zeros(n * n, n, RATIONAL), ("h", "e", "f"))


def double_b2():
    """Two commuting copies of b2 on Q^4, basis x1, y1, x2, y2."""
    n = 4
    zero = Fraction(0)
    B = [[zero] * (n * n) for _ in range(n)]
    D = [[zero] * n for _ in range(n * n)]
    for (x, y) in ((0, 1), (2, 3)):
        B[y][x * n + y] = Fraction(1)
        B[y][y * n + x] = Fraction(-1)
        D[x * n + y][y] = Fraction(1)
        D[y * n + x][y] = Fraction(-1)
    return LieBialgebra(n, qm(B), qm(D), ("x1", "y1", "x2", "y2"))


class TestPermutationMatrices:
    def test_swap_is_involution(self):
        t = swap_matrix(3)
        assert t * t == Matrix.identity(9, RATIONAL)

    def test_cycle_has_order_three(self):
        c = cycle_matrix(2)
        assert c * c * c == Matrix.identity(8, RATIONAL)
        assert c != Matrix.identity(8, RATIONAL)

    def test_alt_row_sums(self):
        # Alt maps e_i^3 to 3 e_i^3
        a = alt_matrix(2)
        col = Matrix(8, 1, RATIONAL, tuple(Fraction(1 if i == 0 else 0) for i in range(8)))
        assert (a * col)[0, 0] == 3


class TestLieBialgebra:
    def test_b2_passes(self):
        recs = check_lie_bialgebra(b2())
        assert all_hold(recs), failures(recs)

    def test_double_b2_passes(self):
        recs = check_lie_bialgebra(double_b2())
        assert all_hold(recs), failures(recs)

    def test_abelian_passes(self):
        lb = LieBialgebra(2, Matrix.zeros(2, 4, RATIONAL), Matrix.zeros(4, 2, RATIONAL))
        assert all_hold(check_lie_bialgebra(lb))

    def test_all_single_bumps_fail(self):
        """Every +1 bump of a structure constant, and every -1 bump of a
        nonzero one, must be caught by at least one identity."""
        base = b2()
        cases = []
        for row in range(2):
            for col in range(4):
                cases.append(("bracket", row, col, 1))
                if base.bracket[row, col]:
                    cases.append(("bracket", row, col, -1))
        for row in range(4):
            for col in range(2):
                cases.append(("cobracket", row, col, 1))
                if base.cobracket[row, col]:
                    cases.append(("cobracket", row, col, -1))
        assert len(cases) == 20
        for which, row, col, bump in cases:
            b = [list(base.bracket.row(r)) for r in range(2)]
            d = [list(base.cobracket.row(r)) for r in range(4)]
            if which == "bracket":
                b[row][col] += bump
            else:
                d[row][col] += bump
            mutated = LieBialgebra(2, qm(b), qm(d))
            recs = check_lie_bialgebra(mutated)
            assert not all_hold(recs), (which, row, col, bump)


class TestTwists:
    @pytest.mark.parametrize("c", [Fraction(1), Fraction(-2), Fraction(5, 3)])
    def test_b2_twists_pass_with_both_sides_zero(self, c):
        lb = b2()
        j = qm([[0, c], [-c, 0]])
        recs = check_twist(lb, j)
        assert all_hold(recs), failures(recs)
        # frozen: for this algebra both sides vanish separately
        assert double_bracket(lb, j).is_zero()
        lhs = alt_matrix(2) * mat_kron(lb.cobracket, Matrix.identity(2, RATIONAL)) * vec_twist(j)
        assert lhs.is_zero()

    def test_non_antisymmetric_rejected(self):
        recs = check_twist(b2(), qm([[0, 1], [0, 0]]))
        assert any(r.rule == "twist.antisym" and not r.holds for r in recs)

    def test_cross_twist_on_double_b2_fails_equation(self):
        # x1 ^ y2 pairs the two commuting halves: the double bracket is
        # zero but the cobracket side is not
        lb = double_b2()
        j = Matrix.zeros(4, 4, RATIONAL).entries
        j = [list(Matrix.zeros(4, 4, RATIONAL).row(r)) for r in range(4)]
        j[0][3] = Fraction(1)
        j[3][0] = Fraction(-1)
        j = qm(j)
        recs = check_twist(lb, j)
        assert any(r.rule == "twist.antisym" and r.holds for r in recs)
        assert any(r.rule == "twist.equation" and not r.holds for r in recs)
        assert double_bracket(lb, j).is_zero()

    def test_twisted_b2_is_still_a_bialgebra(self):
        lb = b2()
        for c in (Fraction(1), Fraction(-2), Fraction(5, 3)):
            j = qm([[0, c], [-c, 0]])
            lbj = twist_bialgebra(lb, j)
            recs = check_lie_bialgebra(lbj)
            assert all_hold(recs), failures(recs)

    def test_twisted_cobracket_frozen(self):
        # j = x^y: the first generator picks up the split x^y, the second
        # keeps its old one
        lb = b2()
        j = qm([[0, 1], [-1, 0]])
        lbj = twist_bialgebra(lb, j)
        assert lbj.cobracket == qm([[0, 0],
                                    [1, 1],
                                    [-1, -1],
                                    [0, 0]])

    def test_failed_twist_breaks_co_jacobi(self):
        lb = double_b2()
        j = [[Fraction(0)] * 4 for _ in range(4)]
        j[0][3] = Fraction(1)
        j[3][0] = Fraction(-1)
        j = qm(j)
        lbj = twist_bialgebra(lb, j)
        recs = check_lie_bialgebra(lbj)
        assert any(r.rule == "lie.co_jacobi" and not r.holds for r in recs)

    def test_twist_roundtrip(self):
        lb = b2()
        j = qm([[0, Fraction(5, 3)], [Fraction(-5, 3), 0]])
        minus = j.scale(-1)
        assert twist_bialgebra(twist_bialgebra(lb, j), minus).cobracket == lb.cobracket


class TestDyModules:
    def test_b2_module_passes(self):
        lb = b2()
        pi, pistar = b2_module()
        recs = check_dy_module(lb, pi, pistar)
        assert all_hold(recs), failures(recs)

    def test_perturbed_coaction_fails_comodule_law(self):
        # adding y (x) (projection to the first basis vector) breaks the
        # comodule identity
        lb = b2()
        pi, pistar = b2_module()
        bump = qm([[0, 0],
                   [0, 0],
                   [1, 0],
                   [0, 0]])
        recs = check_dy_module(lb, pi, pistar + bump)
        assert any(r.rule == "dy.comodule" and not r.holds for r in recs)

    def test_trivial_module(self):
        lb = b2()
        pi = Matrix.zeros(1, 2, RATIONAL)
        pistar = Matrix.zeros(2, 1, RATIONAL)
        assert all_hold(check_dy_module(lb, pi, pistar))

    def test_twisted_module_over_twisted_bialgebra(self):
        lb = b2()
        pi, pistar = b2_module()
        j = qm([[0, 1], [-1, 0]])
        lbj = twist_bialgebra(lb, j)
        pij, pistarj = twist_dy_module(lb, j, pi, pistar)
        assert pij == pi
        recs = check_dy_module(lbj, pij, pistarj)
        assert all_hold(recs), failures(recs)

    def test_twisted_coaction_frozen(self):
        lb = b2()
        pi, pistar = b2_module()
        j = qm([[0, 1], [-1, 0]])
        _, pistarj = twist_dy_module(lb, j, pi, pistar)
        # pistar_j(e0) = x (x) e1 - y (x) e1, pistar_j(e1) = 0
        assert pistarj == qm([[0, 0],
                              [1, 0],
                              [0, 0],
                              [-1, 0]])

    def test_twist_module_roundtrip(self):
        lb = b2()
        pi, pistar = b2_module()
        j = qm([[0, Fraction(-2)], [Fraction(2), 0]])
        _, tw = twist_dy_module(lb, j, pi, pistar)
        _, back = twist_dy_module(lb, j.scale(-1), pi, tw)
        assert back == pistar


class TestEnvelopingEngine:
    def test_normal_form_of_descent(self):
        # y x = x y - y  (since [x, y] = y)
        eng = EnvelopingEngine(b2())
        nf = eng.normal_word((1, 0))
        assert nf == {(0, 1): Fraction(1), (1,): Fraction(-1)}

    def test_mul_matches_bracket(self):
        eng = EnvelopingEngine(b2())
        xy = eng.act(0, (1,))
        yx = eng.act(1, (0,))
        commutator = {w: xy.get(w, 0) - yx.get(w, 0) for w in xy.keys() | yx.keys()}
        assert {w: c for w, c in commutator.items() if c} == {(1,): Fraction(1)}

    def test_coproduct_primitive(self):
        eng = EnvelopingEngine(b2())
        d = eng.coproduct({(0,): 1})
        assert d == {((0,), ()): Fraction(1), ((), (0,)): Fraction(1)}

    def test_coproduct_is_algebra_map(self):
        eng = EnvelopingEngine(b2())
        a = eng.act(1, (0,))
        lhs = eng.coproduct(a)
        rhs = t_mul(eng, eng.coproduct({(1,): 1}), eng.coproduct({(0,): 1}))
        assert lhs == rhs

    def test_untwisted_coaction_of_generator_is_minus_cobracket(self):
        eng = EnvelopingEngine(b2())
        got = eng.coact_word((1,))
        assert got == {(0, (1,)): Fraction(-1), (1, (0,)): Fraction(1)}
        assert eng.coact_word((0,)) == {}

    def test_coaction_seeded_by_twist(self):
        eng = EnvelopingEngine(b2())
        j = qm([[0, 1], [-1, 0]])
        got = eng.coact(eng.scalar(1), twist=j)
        assert got == {(0, (1,)): Fraction(1), (1, (0,)): Fraction(-1)}


class TestUeaIdentities:
    def test_untwisted_identities_to_degree_three(self):
        recs = check_uea_dy_identities(b2(), 3)
        assert all_hold(recs), failures(recs)

    def test_twisted_identities_to_degree_two(self):
        lb = b2()
        j = qm([[0, 1], [-1, 0]])
        lbj = twist_bialgebra(lb, j)
        recs = check_uea_dy_identities(lbj, 2, twist=j)
        assert all_hold(recs), failures(recs)

    def test_valid_twist_seed_passes_even_untwisted(self):
        # x^y is a twist of this algebra (both twist terms vanish), so
        # seeding by it yields a crossed module over either structure
        lb = b2()
        j = qm([[0, 1], [-1, 0]])
        recs = check_uea_dy_identities(lb, 2, twist=j)
        assert all_hold(recs), failures(recs)

    def test_a_planted_coaction_above_the_degree_fails_only_mixed(self):
        # the comodule law reads coactions up to max_degree; the mixed law
        # also reads those of e_i w, one degree higher
        eng = EnvelopingEngine(b2())
        w = (0, 1, 1, 1)
        planted = eng.coact_word(w)
        planted[(0, w)] = planted.get((0, w), 0) + 1
        recs = check_uea_dy_identities(b2(), 3, engine=eng)
        assert {r.rule for r in recs if not r.holds} == {"uea.mixed"}

    def test_invalid_twist_seed_fails_comodule(self):
        # the cross pairing on two commuting copies fails the twist
        # equation, and the coaction it seeds is not a comodule
        lb = double_b2()
        j = qm([[0, 0, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [-1, 0, 0, 0]])
        recs = check_uea_dy_identities(lb, 2, twist=j)
        bad = {r.rule for r in recs if not r.holds}
        assert bad == {"uea.comodule"}


def delta_matrix(t):
    """U -> U (x) U of a truncation, from its coproduct images."""
    ix, d = {w: i for i, w in enumerate(t.basis)}, t.dim
    cols = [{ix[w1] * d + ix[w2]: c for (w1, w2), c in img.items()}
            for img in uea_delta_images(t)]
    return Matrix.sparse(len(cols), d * d, RATIONAL, cols).transpose()


class TestTruncatedUEA:
    def test_basis_count(self):
        # dim 2, order 4: 1 + 2 + 3 + 4 + 5 words
        t = TruncatedUEA(b2(), 4)
        assert t.dim == 15
        assert pbw_words(2, 1) == ((), (0,), (1,))

    def test_delta_matrix_coassociative(self):
        t = TruncatedUEA(b2(), 3)
        d = delta_matrix(t)
        ident = Matrix.identity(t.dim, RATIONAL)
        assert mat_kron(d, ident) * d == mat_kron(ident, d) * d

    def test_counit_laws(self):
        t = TruncatedUEA(b2(), 3)
        d = delta_matrix(t)
        e = uea_eps_matrix(t)
        ident = Matrix.identity(t.dim, RATIONAL)
        assert mat_kron(e, ident) * d == ident
        assert mat_kron(ident, e) * d == ident

    def test_twist_does_not_change_coalgebra(self):
        j = qm([[0, 1], [-1, 0]])
        plain = TruncatedUEA(b2(), 3)
        lbj = twist_bialgebra(b2(), j)
        twisted = TruncatedUEA(lbj, 3)
        assert uea_delta_images(plain) == uea_delta_images(twisted)
        assert uea_eps_matrix(plain) == uea_eps_matrix(twisted)

    def test_pi_matrix_is_left_multiplication(self):
        # b (x) U_1 -> U_2, one column per (generator, word) from the engine
        t = TruncatedUEA(b2(), 2)
        sub = [w for w in t.basis if len(w) <= 1]
        ix = {w: i for i, w in enumerate(t.basis)}
        cols = [{ix[w2]: c for w2, c in t.engine.act(i, w).items()}
                for i in range(2) for w in sub]
        m = Matrix.sparse(len(cols), t.dim, RATIONAL, cols).transpose()
        # column of (generator 1) acting on word (0,): y*x = xy - y
        col = 1 * len(sub) + sub.index((0,))
        expect = {ix[(0, 1)]: Fraction(1), ix[(1,)]: Fraction(-1)}
        for r in range(t.dim):
            assert m[r, col] == expect.get(r, 0)


J = qm([[0, 1], [-1, 0]])
ONE = Fraction(1)


class TestMemoizedCoproduct:
    @pytest.mark.parametrize("lb, order", [
        (b2(), 10), (twist_bialgebra(b2(), J), 6), (sl2(), 6)], ids=["b2", "b2_twisted", "sl2"])
    def test_every_pbw_word_matches_letter_by_letter(self, lb, order):
        # the closed form against the product of primitive letters, in int
        # coefficients; sl2's words run through one, two and three runs of
        # equal letters
        eng, oracle = EnvelopingEngine(lb), EnvelopingEngine(lb)
        for w in pbw_words(lb.dim, order):
            dw = eng.delta(w)
            assert all(type(c) is int for c in dw.values()), w
            assert dw == letter_by_letter_coproduct(oracle, {w: ONE}), w

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(0, 2), max_size=5).map(tuple),
                              st.fractions(min_value=-5, max_value=5, max_denominator=4)),
                    max_size=4),
           st.sampled_from([b2(), sl2()]),
           st.booleans())
    def test_any_element_matches_letter_by_letter(self, terms, lb, warm):
        # non-normal words, repeated words and zero coefficients included
        eng, oracle = EnvelopingEngine(lb), EnvelopingEngine(lb)
        elem = {}
        for w, c in terms:
            w = tuple(letter % lb.dim for letter in w)
            elem[w] = elem.get(w, 0) + c
        elem = {w: c for w, c in elem.items() if c}
        if warm:
            for w in elem:
                eng.coproduct({w[:-1]: ONE})
        expect = letter_by_letter_coproduct(oracle, elem)
        assert eng.coproduct(elem) == expect
        assert eng.coproduct(elem) == expect

    def test_results_are_fresh_dicts(self):
        eng = EnvelopingEngine(b2())
        w = (0, 1, 1)
        first = eng.coproduct({w: ONE})
        first.clear()
        eng.coproduct({w: Fraction(3)})[((), w)] = Fraction(7)
        assert eng.coproduct({w: ONE}) == letter_by_letter_coproduct(EnvelopingEngine(b2()), {w: ONE})

    def test_delta_images_follow_the_basis(self):
        t = TruncatedUEA(b2(), 3)
        images = uea_delta_images(t)
        assert len(images) == t.dim
        for w, img in zip(t.basis, images):
            assert img == letter_by_letter_coproduct(t.engine, {w: ONE})


def half_b2():
    """b2 with bracket and cobracket halved, [x, y] = y/2: a Lie bialgebra
    (the cocycle condition is bilinear in the two) whose structure
    constants are not integers."""
    lb = b2()
    half = Fraction(1, 2)
    return LieBialgebra(2, lb.bracket.scale(half), lb.cobracket.scale(half), lb.names)


def words_to_degree(n, degree):
    """Every word in n letters of length at most degree, descents included."""
    return [w for d in range(degree + 1) for w in itertools.product(range(n), repeat=d)]


B2_TWISTS = (qm([[0, 1], [-1, 0]]), qm([[0, Fraction(-2, 3)], [Fraction(2, 3), 0]]))


def element_product(engine, e1, e2):
    """e1 e2 word by word through normal_word: the product the engine's
    act made of a generator and a one-word element before it read one
    word's normal form."""
    out = {}
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            _acc(out, engine.normal_word(w1 + w2).items(), c1 * c2)
    return out


CORPUS_TWISTS = tuple(load_instance(corpus_path("b2_twists")).twists)


class TestOneWordReads:
    """act and coact_word hand out the memoized dict of one word, and it
    equals the element product and coaction that were copied before."""

    @pytest.mark.parametrize("lb, twists", [(b2(), (None,) + CORPUS_TWISTS), (sl2(), (None,))],
                             ids=["b2", "sl2"])
    def test_against_the_element_paths(self, lb, twists):
        eng, oracle = EnvelopingEngine(lb), EnvelopingEngine(lb)
        for w in pbw_words(lb.dim, 4):
            for i in range(lb.dim):
                got = eng.act(i, w)
                assert got is eng._nf_cache[(i,) + w]
                assert got == element_product(oracle, {(i,): 1}, {w: 1}), (i, w)
            for j in twists:
                got = eng.coact_word(w, j)
                assert got is eng._coact_cache[(w, j)]
                assert got == oracle.coact({w: 1}, j), (w, j)
        assert len(CORPUS_TWISTS) == 3


class TestIntegerEngine:
    """The engine reads integral structure constants as int and seeds every
    word with the int 1; twist entries stay Fraction."""

    def test_untwisted_b2_stays_on_ints(self):
        eng = EnvelopingEngine(b2())
        for w in words_to_degree(2, 4):
            images = [eng.normal_word(w), eng.coact({w: 1})]
            images += [eng.act(i, w) for i in range(2)]
            for image in images:
                assert all(type(c) is int for c in image.values()), (w, image)
        assert any(eng.coact({w: 1}) for w in words_to_degree(2, 4))

    def test_twisted_coactions_match_fraction_constants(self):
        """Each twisted coaction up to degree 4 equals that of an engine
        whose structure constants are all forced to Fraction."""
        for j in B2_TWISTS:
            eng, frac = EnvelopingEngine(b2()), EnvelopingEngine(b2())
            frac.bracket = [[[(k, Fraction(c)) for k, c in terms] for terms in row]
                            for row in frac.bracket]
            frac.cobracket = [[(pq, Fraction(c)) for pq, c in terms] for terms in frac.cobracket]
            for w in words_to_degree(2, 4):
                got = eng.coact({w: 1}, j)
                assert got == frac.coact({w: Fraction(1)}, j)
                assert got == frac.coact({w: 1}, j)

    def test_non_integral_constants_stay_fractions(self):
        eng = EnvelopingEngine(half_b2())
        assert eng.bracket[0][1] == [(1, Fraction(1, 2))]
        assert eng.normal_word((1, 0)) == {(0, 1): 1, (1,): Fraction(-1, 2)}


PLANTS = ("none", "coefficient", "outside", "swap")


def plant_delta(uea, plant, w, key, change=1):
    """Replace Delta(w) in uea's engine by a copy with one term changed:
    its coefficient moved by change ("coefficient"), its left leg w1
    replaced by the word (1,) + w1 + (0,), which has a descent and so lies
    outside the basis ("outside"), or its legs swapped ("swap")."""
    d = dict(uea.engine.delta(w))
    c = d.pop(key)
    w1, w2 = key
    new = {"none": key, "coefficient": key, "outside": ((1,) + w1 + (0,), w2),
           "swap": (w2, w1)}[plant]
    c = d.get(new, 0) + c + (change if plant == "coefficient" else 0)
    if c:
        d[new] = c
    else:
        d.pop(new, None)
    uea.engine._delta_cache[w] = d


def holds(records):
    return [(r.rule, r.holds) for r in records]


class TestComonoidRecordsAgainstWordKeys:
    """cli._uea_comonoid_records, on numbered words and int keys, against
    conftest.uea_comonoid_records, the word-keyed expansion it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([b2, half_b2]), st.integers(0, 8), st.sampled_from(PLANTS),
           st.data())
    def test_same_booleans_as_word_keys(self, make, order, plant, data):
        uea = TruncatedUEA(make(), order)
        if plant != "none" and order > 0:
            w = data.draw(st.sampled_from(uea.basis[1:]))
            key = data.draw(st.sampled_from(sorted(uea.engine.delta(w))))
            change = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
            plant_delta(uea, plant, w, key, change)
        got = holds(cli._uea_comonoid_records(uea, "t"))
        assert got == holds(uea_comonoid_records(uea, "t"))

    @pytest.mark.parametrize("make", [b2, half_b2])
    @pytest.mark.parametrize("plant, failing", [
        ("none", set()),
        ("coefficient", {"uea.coassoc[t]", "uea.cocommutative[t]"}),
        ("outside", {"uea.coassoc[t]", "uea.cocommutative[t]"}),
        ("swap", {"uea.coassoc[t]", "uea.cocommutative[t]"}),
    ])
    def test_each_plant_fails_as_word_keys_do(self, make, plant, failing):
        """A planted term of Delta(x y) fails both ways, with the same rules."""
        uea = TruncatedUEA(make(), 4)
        plant_delta(uea, plant, (0, 1), ((0,), (1,)))
        got = holds(cli._uea_comonoid_records(uea, "t"))
        assert got == holds(uea_comonoid_records(uea, "t"))
        assert {rule for rule, ok in got if not ok} == failing
