"""Exact scalars and the two scalar fields.

All arithmetic in the package is exact.  Scalars are `fractions.Fraction`
(rationals) or `GaussianRational` (Q(i)); composite coefficients (truncated
polynomials, q-series) are defined in `series`.

A ring object (`QQ` and `QI` here, `PolyRing` and `SeriesRing` in `series`)
is a small descriptor: `zero`, `one`, the one constant constructor `const`,
`is_zero` and, where an algorithm needs it, `invert`.  The elements are plain
values combined with the usual operators; no abstract base class ties the
four descriptors together.  `QQ` and `QI` are the only instances of their
classes, so they compare by identity.

The four rings used throughout are Q, Q(i), the bigraded polynomial ring
Q[delta, epsilon] (a `PolyRing`) and truncated Laurent q-series over Q or
Q(i) (a `SeriesRing`, which accepts no other base).  Q-series keep their
coefficients as integer numerators over a common denominator and convert to
these scalar types only at their boundary, where `contains` tells them which
scalars a field accepts.

`power` is the one square-and-multiply.  `GaussianRational` and `QSeries`
raise to a power n < 0 by one inverse and then `power` to -n; `TruncPoly`
calls it for the positive powers that Miller's recurrence must not take
(see `series`).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertibleError, ResourceCapError, StructuralError


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; anything else is an error."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise StructuralError(f"expected an exact rational, got {value!r}")


def parse_fraction(text: str) -> Fraction:
    """Parse the canonical "p/q" (or "p") string form."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"not a rational literal: {text!r}") from exc


def format_fraction(a) -> str:
    """Canonical "p/q" (or "p") of an exact scalar; past the int-to-str digit limit, a ResourceCapError."""
    try:
        return str(a)
    except ValueError as exc:
        raise ResourceCapError(f"an exact value is too long to print: {exc}") from None


def power(x, n: int):
    """x ** n for n >= 1 by square-and-multiply, with no multiply by one and no unused square."""
    out, square = None, x
    while True:
        if n & 1:
            out = square if out is None else out * square
        n >>= 1
        if not n:
            return out
        square = square * square


class GaussianRational:
    """Element a + b*i of Q(i) with exact rational parts; i^2 = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):  # copy and pickle through the constructor, as __setattr__ refuses
        return GaussianRational, (self.re, self.im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise NotInvertibleError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return GaussianRational(1)
        return power(self.inverse() if n < 0 else self, abs(n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


I_UNIT = GaussianRational(0, 1)


class RationalField:
    """The field Q; its elements are Fractions (ints are accepted as input)."""

    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def const(self, c):
        return as_fraction(c)

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise NotInvertibleError("division by zero in Q")
        return 1 / as_fraction(x)

    def contains(self, x) -> bool:
        return isinstance(x, (int, Fraction))


class GaussianField:
    """The field Q(i); its elements are GaussianRationals."""

    name = "Q(i)"

    def zero(self):
        return GaussianRational(0)

    def one(self):
        return GaussianRational(1)

    def const(self, c):
        if isinstance(c, GaussianRational):
            return c
        return GaussianRational(as_fraction(c))

    def is_zero(self, x) -> bool:
        return not x

    def invert(self, x):
        return x.inverse()

    def contains(self, x) -> bool:
        return isinstance(x, (int, Fraction, GaussianRational))


QQ = RationalField()
QI = GaussianField()
