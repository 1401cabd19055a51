"""Exact scalar rings: rationals and truncated hbar-polynomial extensions.

Every linear computation in this package happens over one of two rings:
arbitrary-precision rationals or the ring of polynomials in a formal
parameter hbar truncated at a fixed degree K.  A rational is held in its
cheapest exact type: an int when it is integral, a fractions.Fraction
otherwise, and so is every series coefficient.  Integral arithmetic, the
common case, then runs on ints.  Input is read by as_fraction, which
makes a bool the int it equals and refuses a float.
Truncated series multiply by dropping all terms of degree > K, and a
series is zero (falsy) when all its coefficients vanish.  Scalars only add,
subtract and multiply: division happens in linalg, which inverts a series
matrix through its rational degree-0 part.  Values from different rings
never mix silently: matrix-level operations compare ring tags and raise
RingMismatch instead of coercing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter


class RingMismatch(TypeError):
    """Operands live in different scalar rings."""


class Value:
    """Base of the package's value classes, each slotted with an explicit
    __init__.  ==, hash and repr read the fields named in _fields, in
    order, which default to __slots__: the slots left out (caches, derived
    data) are skipped by all three.  hash is the hash of the field tuple;
    a class whose instances change after __init__ sets __hash__ = None.
    Instances are immutable by contract: nothing stops an assignment."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields = vars(cls).get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))))


def replace(obj, **changes):
    """obj with some fields changed, made by its class's __init__, so that
    every check the class makes runs again; slots outside _fields start
    afresh."""
    return obj.__class__(**{**dict(zip(obj._fields, obj._values(obj))), **changes})


def _int(c):
    """c as an int when it is an integral Fraction, else as it is: the
    canonical form of a value already int, Fraction or HSeries."""
    return c.numerator if c.__class__ is Fraction and c.denominator == 1 else c


def as_fraction(x):
    """Coerce int / str ("p/q") / Fraction to an exact rational in its
    canonical form, an int when it is integral; a bool becomes the int it
    equals."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return _int(x)
    if isinstance(x, str):
        try:
            return _int(Fraction(x))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


class HSeries(Value):
    """c0 + c1*hbar + ... + cK*hbar^K with exact rational coefficients,
    each in canonical form (an int when integral): __init__ puts the given
    coefficients in it, and a product those it computes.

    Immutable; coeffs always has length order + 1.  _top, outside _fields,
    is the highest nonzero degree (-1 for zero): a product stops there,
    a product of two constants (_top <= 0) is one rational product, and
    truth reads _top alone.
    """

    __slots__ = ("order", "coeffs", "_top")
    _fields = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = tuple(map(_int, coeffs))
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must be order + 1")
        self.order, self.coeffs, self._top = order, coeffs, _top_degree(coeffs, order)

    @classmethod
    def from_rational(cls, x, order):
        c = [0] * (order + 1)
        c[0] = as_fraction(x)
        return cls(order, c)

    @classmethod
    def from_coeffs(cls, coeffs, order):
        c = [as_fraction(x) for x in coeffs]
        if len(c) > order + 1:
            raise ValueError("too many coefficients for declared order")
        c += [0] * (order + 1 - len(c))
        return cls(order, c)

    @classmethod
    def hbar(cls, order):
        if order < 1:
            raise ValueError("hbar needs order >= 1")
        c = [0] * (order + 1)
        c[1] = 1
        return cls(order, c)

    def _check(self, other):
        if not isinstance(other, HSeries) or other.order != self.order:
            raise RingMismatch("truncated series of different orders")

    def __add__(self, other):
        self._check(other)
        return HSeries(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return HSeries(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return HSeries(self.order, (-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return HSeries(self.order, (a * f for a in self.coeffs))
        self._check(other)
        n, ta, tb = self.order + 1, self._top, other._top
        a, b = self.coeffs, other.coeffs
        prod = HSeries.__new__(HSeries)
        prod.order = self.order
        if ta <= 0 and tb <= 0:  # two constants: one rational product
            c = _int(a[0] * b[0])
            prod.coeffs, prod._top = (c,) + (0,) * self.order, 0 if c else -1
            return prod
        out = [None] * n
        for i in range(ta + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(tb + 1, n - i)):
                bj = b[j]
                if bj:
                    s, p = out[i + j], ai * bj
                    out[i + j] = p if s is None else s + p
        prod.coeffs = out = tuple(0 if s is None else _int(s) for s in out)
        # over a field the product's top is ta + tb, unless truncated away
        prod._top = (-1 if ta < 0 or tb < 0 else ta + tb if ta + tb < n
                     else _top_degree(out, self.order))
        return prod

    __rmul__ = __mul__

    def __bool__(self):
        return self._top >= 0

    def constant_term(self):
        return self.coeffs[0]

    def __repr__(self):
        return "HSeries(%s)" % ", ".join(str(c) for c in self.coeffs)


def _top_degree(coeffs, order):
    """The highest d <= order with coeffs[d] nonzero, or -1."""
    while order >= 0 and not coeffs[order]:
        order -= 1
    return order


@lru_cache(maxsize=None)
def _series_constant(c, order):
    return HSeries.from_rational(c, order)


class Ring(Value):
    """Tag describing which scalar ring a matrix lives over."""

    __slots__ = ("kind", "order")

    def __init__(self, kind, order=0):
        self.kind = kind  # "rational" | "hseries"
        self.order = order

    # zero and one are shared objects of each ring (scalars are immutable),
    # so reading an unstored entry or filling a 0/1 matrix allocates nothing
    def zero(self):
        if self.kind == "rational":
            return 0
        return _series_constant(0, self.order)

    def one(self):
        if self.kind == "rational":
            return 1
        return _series_constant(1, self.order)

    def coerce(self, x):
        """Build a ring element from JSON-ish input.

        Rational: int / "p/q" / Fraction, as as_fraction reads them.
        Series: additionally a list of coefficient strings, degree-ascending.
        """
        if self.kind == "rational":
            if isinstance(x, HSeries):
                raise RingMismatch("series value in a rational context")
            return as_fraction(x)
        if isinstance(x, HSeries):
            if x.order != self.order:
                raise RingMismatch("series order mismatch")
            return x
        if isinstance(x, (list, tuple)):
            return HSeries.from_coeffs(x, self.order)
        return HSeries.from_rational(as_fraction(x), self.order)

    def to_json(self, v):
        if self.kind == "rational":
            return str(v)
        return [str(c) for c in v.coeffs]


RATIONAL = Ring("rational")


@lru_cache(maxsize=None)
def hseries_ring(order: int) -> Ring:
    """One shared Ring per truncation order, as RATIONAL is one object."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    return Ring("hseries", order)

