"""Lie bialgebras over the rationals, their twists, their crossed
(action + coaction) modules, and a normal-ordering engine for the
enveloping algebra that lets the module identities be checked exactly
even when intermediate degrees exceed any chosen truncation.

Conventions, fixed once and used everywhere:

  * bracket is a matrix B: V (x) V -> V, columns indexed row-major;
  * cobracket is a matrix D: V -> V (x) V;
  * the cyclic rotation C sends v1 (x) v2 (x) v3 to v2 (x) v3 (x) v1,
    and Alt = 1 + C + C^2;
  * the adjoint action on a tensor square is
    ad2 = B (x) 1 + (1 (x) B)(tau (x) 1) as a map V^3 -> V^2, reading the
    first factor as the actor;
  * a module/comodule pair (pi, pistar) is crossed when identity (1)
    [action is a module], identity (2) [coaction is a comodule] and
    identity (3) [the mixed relation below] all hold:

      (2)  (tau (x) 1)(1 (x) pistar) pistar - (1 (x) pistar) pistar
             = (D (x) 1) pistar                on V;

      (3)  pistar . pi = (B (x) 1)(1 (x) pistar)
                       + (1 (x) pi)(tau (x) 1)(1 (x) pistar)
                       - (1 (x) pi)(D (x) 1)   on b (x) V.

    The orientation of (2) is the one forced by (3): on the enveloping
    algebra the mixed relation propagates the coaction from
    pistar(1) = 0, generators then coact by -D, and such a coaction
    satisfies (2) as written (swap minus identity), not its negative.
"""

from __future__ import annotations

import itertools
from math import comb

from .coalg import LawRecord
from .linalg import Matrix, _acc, mat_kron
from .scalars import RATIONAL, Value, _int, as_fraction


# ---------------------------------------------------------------------------
# permutation matrices on tensor powers


def swap_matrix(n):
    """tau: V (x) V -> V (x) V, e_i (x) e_j -> e_j (x) e_i."""
    return Matrix.from_table(RATIONAL, [j * n + i for i in range(n) for j in range(n)], n * n)


def cycle_matrix(n):
    """C: V^3 -> V^3, e_i (x) e_j (x) e_k -> e_j (x) e_k (x) e_i."""
    return Matrix.from_table(RATIONAL, [(j * n + k) * n + i for i in range(n)
                                        for j in range(n) for k in range(n)], n ** 3)


def alt_matrix(n):
    c = cycle_matrix(n)
    return Matrix.identity(n ** 3, RATIONAL) + c + c * c


# ---------------------------------------------------------------------------
# the structure


class LieBialgebra(Value):
    __slots__ = ("dim", "bracket", "cobracket", "names")

    def __init__(self, dim, bracket, cobracket, names=None):
        n = dim
        if (bracket.rows, bracket.cols) != (n, n * n):
            raise ValueError("bracket must be dim x dim^2")
        if (cobracket.rows, cobracket.cols) != (n * n, n):
            raise ValueError("cobracket must be dim^2 x dim")
        self.dim = dim
        self.bracket = bracket      # dim x dim^2
        self.cobracket = cobracket  # dim^2 x dim
        self.names = tuple(f"e{i}" for i in range(n)) if names is None else names

    def bracket_of(self, i, j):
        """[e_i, e_j] as a list of (index, coefficient), zeros skipped."""
        col = i * self.dim + j
        return [(k, self.bracket[k, col]) for k in range(self.dim)
                if self.bracket[k, col]]

    def cobracket_of(self, i):
        """delta(e_i) as a list of ((a, b), coefficient), zeros skipped."""
        out = []
        for row in range(self.dim * self.dim):
            v = self.cobracket[row, i]
            if v:
                out.append(((row // self.dim, row % self.dim), v))
        return out

    def ad2(self):
        n = self.dim
        ident = Matrix.identity(n, RATIONAL)
        return (mat_kron(self.bracket, ident)
                + mat_kron(ident, self.bracket) * mat_kron(swap_matrix(n), ident))


def check_lie_bialgebra(lb: LieBialgebra):
    """Antisymmetry and Jacobi on both sides, plus the mixed 1-cocycle
    condition tying bracket to cobracket.
    """
    n = lb.dim
    ident = Matrix.identity(n, RATIONAL)
    ident2 = Matrix.identity(n * n, RATIONAL)
    tau = swap_matrix(n)
    alt = alt_matrix(n)
    records = []

    records.append(LawRecord(
        "lie.antisym", (lb.bracket * (ident2 + tau)).is_zero()))
    records.append(LawRecord(
        "lie.jacobi", (lb.bracket * mat_kron(ident, lb.bracket) * alt).is_zero()))
    records.append(LawRecord(
        "lie.co_antisym", ((ident2 + tau) * lb.cobracket).is_zero()))
    records.append(LawRecord(
        "lie.co_jacobi", (alt * mat_kron(lb.cobracket, ident) * lb.cobracket).is_zero()))

    ad2 = lb.ad2()
    lhs = lb.cobracket * lb.bracket
    act = ad2 * mat_kron(ident, lb.cobracket)
    rhs = act - act * tau
    records.append(LawRecord("lie.cocycle", lhs == rhs))
    return records


# ---------------------------------------------------------------------------
# twists


def vec_twist(j: Matrix) -> Matrix:
    """Flatten an antisymmetric coefficient matrix to a tensor-square
    column vector."""
    n = j.rows
    return Matrix.sparse(n * n, 1, RATIONAL, [{0: j.nz[a][b]} if b in j.nz[a] else {}
                                              for a in range(n) for b in range(n)])


def double_bracket(lb: LieBialgebra, j: Matrix) -> Matrix:
    """[[j, j]] in the tensor cube: the sum of the brackets taken in the
    slot the two copies of j share.
    """
    n = lb.dim
    out = [0] * (n ** 3)
    pairs = [(a, b) for a in range(n) for b in range(n) if j[a, b]]
    for a, b in pairs:
        for c, d in pairs:
            coef = j[a, b] * j[c, d]
            for k, br in lb.bracket_of(a, c):   # shared first slot
                out[(k * n + b) * n + d] += coef * br
            for k, br in lb.bracket_of(b, c):   # shared middle slot
                out[(a * n + k) * n + d] += coef * br
            for k, br in lb.bracket_of(b, d):   # shared last slot
                out[(a * n + c) * n + k] += coef * br
    return Matrix.sparse(n ** 3, 1, RATIONAL, [{0: _int(x)} if x else {} for x in out])


def check_twist(lb: LieBialgebra, j: Matrix):
    """j must be antisymmetric and satisfy the twist equation
    Alt (D (x) 1) vec(j) + [[j, j]] = 0."""
    n = lb.dim
    records = []
    records.append(LawRecord(
        "twist.antisym",
        all(j[a, b] == -j[b, a] for a in range(n) for b in range(n))))
    lhs = alt_matrix(n) * mat_kron(lb.cobracket, Matrix.identity(n, RATIONAL)) * vec_twist(j)
    records.append(LawRecord("twist.equation", (lhs + double_bracket(lb, j)).is_zero()))
    return records


def twist_bialgebra(lb: LieBialgebra, j: Matrix) -> LieBialgebra:
    """Same bracket; the cobracket gains the adjoint derivative of j."""
    n = lb.dim
    correction = lb.ad2() * mat_kron(Matrix.identity(n, RATIONAL), vec_twist(j))
    return LieBialgebra(n, lb.bracket, lb.cobracket + correction, lb.names)


# ---------------------------------------------------------------------------
# crossed modules


def check_dy_module(lb: LieBialgebra, pi: Matrix, pistar: Matrix):
    """The three crossed-module identities for (pi, pistar) on V = Q^d."""
    n = lb.dim
    if pi.cols % n or pi.rows != pi.cols // n:
        raise ValueError("action must map b (x) V -> V")
    d = pi.rows
    if (pistar.rows, pistar.cols) != (n * d, d):
        raise ValueError("coaction must map V -> b (x) V")
    id_b = Matrix.identity(n, RATIONAL)
    id_v = Matrix.identity(d, RATIONAL)
    tau_bb = swap_matrix(n)
    records = []

    # (1) module law
    lhs = pi * mat_kron(lb.bracket, id_v)
    act_twice = pi * mat_kron(id_b, pi)
    rhs = act_twice - act_twice * mat_kron(tau_bb, id_v)
    records.append(LawRecord("dy.module", lhs == rhs))

    # (2) comodule law; the orientation matches the coaction the mixed
    # relation induces on the enveloping algebra, where generators
    # coact by the negated cobracket
    both = mat_kron(id_b, pistar) * pistar
    lhs2 = mat_kron(tau_bb, id_v) * both - both
    rhs2 = mat_kron(lb.cobracket, id_v) * pistar
    records.append(LawRecord("dy.comodule", lhs2 == rhs2))

    # (3) mixed relation
    lhs3 = pistar * pi
    t1 = mat_kron(lb.bracket, id_v) * mat_kron(id_b, pistar)
    t2 = mat_kron(id_b, pi) * mat_kron(tau_bb, id_v) * mat_kron(id_b, pistar)
    t3 = mat_kron(id_b, pi) * mat_kron(lb.cobracket, id_v)
    records.append(LawRecord("dy.mixed", lhs3 == t1 + t2 - t3))
    return records


def twist_dy_module(lb: LieBialgebra, j: Matrix, pi: Matrix, pistar: Matrix):
    """Coaction of the twisted structure: feed j through the action.
    The action is unchanged.  Twisting by -j undoes the change exactly.
    """
    n = lb.dim
    d = pi.rows
    correction = mat_kron(Matrix.identity(n, RATIONAL), pi) \
        * mat_kron(vec_twist(j), Matrix.identity(d, RATIONAL))
    return pi, pistar + correction


# ---------------------------------------------------------------------------
# enveloping algebra: exact normal ordering on words


class EnvelopingEngine:
    """Words in the generators with rational coefficients, rewritten to
    the basis of non-decreasing words.  No degree bound: intermediate
    terms may grow and later cancel, which is exactly what the truncated
    checks need to avoid lying about high-degree laws.

    Elements are dicts word-tuple -> rational with no zero values, each in
    the canonical form of scalars: an int where the value is integral, else
    a Fraction.  The bracket and cobracket are read once, into tables of
    the matrices' canonical entries, and every word is seeded with the int
    1, so over integral structure constants (b2's, say) normal forms,
    products, coproducts and untwisted coactions stay on ints; a twist's
    non-integral entries are Fractions, and _acc puts every sum back in
    canonical form.  Normal forms, coproducts and coactions of
    single words are memoized; only normal_word and delta hand out a
    cached dict: do not mutate it.
    """

    def __init__(self, lb: LieBialgebra):
        self.lb = lb
        n = lb.dim
        # bracket[a][b]: [e_a, e_b] as (k, c); cobracket[a]: delta(e_a) as ((p, q), c)
        self.bracket = [[lb.bracket_of(a, b) for b in range(n)] for a in range(n)]
        self.cobracket = [lb.cobracket_of(a) for a in range(n)]
        self._nf_cache = {}
        self._delta_cache = {}
        self._coact_cache = {}

    # -- element helpers

    @staticmethod
    def scalar(c=1):
        c = as_fraction(c)
        return {(): c} if c else {}

    @staticmethod
    def generator(i):
        return {(i,): 1}

    def normal_word(self, word):
        """Normal form of a single word as an element dict (cached: do not
        mutate it)."""
        word = tuple(word)
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        # find the first descent
        pos = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos < 0:
            result = {word: 1}
        else:
            a, b = word[pos], word[pos + 1]
            head, tail = word[:pos], word[pos + 2:]
            result = dict(self.normal_word(head + (b, a) + tail))
            for k, coef in self.bracket[a][b]:
                _acc(result, self.normal_word(head + (k,) + tail).items(), coef)
        self._nf_cache[word] = result
        return result

    def mul(self, e1, e2):
        out = {}
        for w1, c1 in e1.items():
            for w2, c2 in e2.items():
                _acc(out, self.normal_word(w1 + w2).items(), c1 * c2)
        return out

    # -- tensor-square elements: dict (word, word) -> rational

    def _delta_word(self, word):
        """Delta of one word, cached.  On a non-decreasing word
        x1^a1...xn^an it is sum over b <= a of prod C(ai, bi) x^b (x) x^(a-b),
        built run by run with both legs non-decreasing (PBW theorem; Dixmier,
        1977, ch. 2); its coefficients are products of binomials, kept as
        plain int.  Any other word goes through its normal form, whose
        coefficients it carries: ints too when the bracket is integral."""
        cached = self._delta_cache.get(word)
        if cached is None:
            if any(a > b for a, b in zip(word, word[1:])):
                cached = self.coproduct(self.normal_word(word))
            else:
                cached = {((), ()): 1}
                for letter, run in itertools.groupby(word):
                    a, x = len(tuple(run)), (letter,)
                    cached = {(left + x * b, right + x * (a - b)): c * comb(a, b)
                              for (left, right), c in cached.items() for b in range(a + 1)}
            self._delta_cache[word] = cached
        return cached

    def delta(self, word):
        return self._delta_word(word)

    def coproduct(self, e):
        """The splitting with primitive generators, extended as an algebra
        map; exact on any element."""
        out = {}
        for word, coef in e.items():
            _acc(out, self._delta_word(word).items(), coef)
        return out

    # -- the crossed structure on the enveloping algebra
    #    elements of b (x) U are dicts (index, word) -> rational

    def act(self, i, e):
        """pi(e_i (x) u) = e_i u: left multiplication by a generator."""
        return self.mul(self.generator(i), e)

    def coact(self, e, twist=None):
        """pistar on the enveloping algebra, defined by the mixed relation
        read as a recursion on the leading letter, seeded on 1 by the
        twist (zero when untwisted).

        Returns a dict (index, word) -> rational.
        """
        out = {}
        for word, coef in e.items():
            _acc(out, self._coact_word(word, twist).items(), coef)
        return out

    def _coact_word(self, word, twist):
        key = (word, twist)
        cache = self._coact_cache
        if key in cache:
            return cache[key]
        result = {}
        if not word:
            if twist is not None:
                result = {(a, (b,)): c for a, row in enumerate(twist.nz) for b, c in row.items()}
        else:
            x, rest = word[0], word[1:]
            inner = self._coact_word(rest, twist)
            # (B (x) 1)(x (x) pistar(u))
            for (a, w), c in inner.items():
                _acc(result, (((k, w), br) for k, br in self.bracket[x][a]), c)
            # (1 (x) pi)(tau (x) 1): keep the comodule leg, multiply in x
            for (a, w), c in inner.items():
                prod = self.act(x, {w: 1})
                _acc(result, (((a, w2), c2) for w2, c2 in prod.items()), c)
            # -(1 (x) pi)(D (x) 1)(x (x) u)
            for (a, b), c in self.cobracket[x]:
                prod = self.act(b, {rest: 1})
                _acc(result, (((a, w2), c2) for w2, c2 in prod.items()), -c)
        cache[key] = result
        return result


def check_uea_dy_identities(lb: LieBialgebra, max_degree, twist=None, engine=None):
    """The three crossed-module identities for the enveloping algebra's
    action and coaction, checked exactly on all basis words of degree up
    to max_degree, with no truncation anywhere in the middle.  engine, an
    EnvelopingEngine of lb, lends its normal forms and coactions (a fresh
    one when not given).
    """
    eng = engine or EnvelopingEngine(lb)
    n = lb.dim
    words = pbw_words(n, max_degree)
    records = []

    ok = True
    for i in range(n):
        for j in range(n):
            for w in words:
                u = {w: 1}
                lhs = {}
                for k, br in eng.bracket[i][j]:
                    _acc(lhs, eng.act(k, u).items(), br)
                rhs = _acc(eng.act(i, eng.act(j, u)),
                           eng.act(j, eng.act(i, u)).items(), -1)
                if lhs != rhs:
                    ok = False
    records.append(LawRecord("uea.module", ok, f"degree <= {max_degree}"))

    ok = True
    for w in words:
        u = {w: 1}
        first = eng.coact(u, twist)
        # (1 (x) pistar) then antisymmetrize the two outer legs,
        # swap-minus-identity orientation as in check_dy_module
        lhs, rhs = {}, {}
        for (a, w1), c in first.items():
            for (b, w2), c2 in eng.coact({w1: 1}, twist).items():
                _acc(lhs, (((b, a, w2), c2), ((a, b, w2), -c2)), c)
            _acc(rhs, (((p, q, w1), c2) for (p, q), c2 in eng.cobracket[a]), c)
        if lhs != rhs:
            ok = False
    records.append(LawRecord("uea.comodule", ok, f"degree <= {max_degree}"))

    ok = True
    for i in range(n):
        for w in words:
            u = {w: 1}
            lhs = eng.coact(eng.act(i, u), twist)
            rhs = {}
            for (a, w1), c in eng.coact(u, twist).items():
                _acc(rhs, (((k, w1), br) for k, br in eng.bracket[i][a]), c)
                prod = eng.act(i, {w1: 1})
                _acc(rhs, (((a, w2), c2) for w2, c2 in prod.items()), c)
            for (a, b), c in eng.cobracket[i]:
                prod = eng.act(b, {w: 1})
                _acc(rhs, (((a, w2), c2) for w2, c2 in prod.items()), -c)
            if lhs != rhs:
                ok = False
    records.append(LawRecord("uea.mixed", ok, f"degree <= {max_degree}"))
    return records


# ---------------------------------------------------------------------------
# truncated enveloping algebra with explicit matrices


def pbw_words(n, max_degree):
    """Non-decreasing words, ordered by (length, letters)."""
    out = []
    for deg in range(max_degree + 1):
        out.extend(itertools.combinations_with_replacement(range(n), deg))
    return tuple(out)


class TruncatedUEA(Value):
    """The enveloping coproduct on words of bounded degree.

    The coproduct preserves degree, so nothing is cut; the coaction, which
    raises degree when twisted, is read through the engine as
    engine.coact(e, twist).  The engine is made here, once.  Its normal
    forms and coproducts do not depend on a twist, and its coactions are
    cached per twist, so every twisted comonoid M_J of lb can read the
    engine of the plain truncation: M_J has the same coproduct and counit,
    and only its coaction is seeded by J.
    """

    __slots__ = ("lb", "order", "engine", "basis")
    __hash__ = None

    def __init__(self, lb, order):
        self.lb, self.order = lb, order
        self.engine = EnvelopingEngine(lb)
        self.basis = pbw_words(lb.dim, order)

    @property
    def dim(self):
        return len(self.basis)
