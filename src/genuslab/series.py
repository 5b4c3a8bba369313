"""Truncated polynomials and half-integer-graded Laurent q-series.

Two containers, each described by a ring object (`PolyRing`, `SeriesRing`)
whose `const` is the one way to make a constant:

* `TruncPoly` — sparse multivariate polynomial over Q, Q(i), a `SeriesRing`
  or another `PolyRing`, with per-variable exponent caps carried in the data.
  A monomial whose exponent exceeds any cap is discarded.  Every operator
  takes its operand through `TruncPoly._coerce`: scalars and elements of the
  base ring become constants, and mixing different (variables, caps, ring)
  triples is a hard `StructuralError`, never a silent min.  Over a
  `PolyRing` base, an element of the base acts as a constant only as the
  right operand (or through `const`): as the left operand its own operator
  meets a foreign ring and raises.
  `p ** n` is the one power and inverse (`inverse()` is `p ** -1`).  For a
  unit constant term c0 it is J.C.P. Miller's recurrence (Knuth, TAOCP 2,
  4.7): D = sum x_i d/dx_i keeps the cap ideal, so p D(g) = n D(p) g for
  g = p^n under the caps, and with p_j, g_k the parts of total degree j, k,
  g_k = sum_(j=1..k) ((n+1) j - k) p_j g_(k-j) / (k c0), which inverts c0
  once for any n.  Over a `SeriesRing` a positive power takes it only when
  c0 starts at s^0 and every coefficient is known to the ring order, since
  dividing by c0 can lower an `order`; other positive powers, and those of
  a nilpotent p, are `rings.power`'s square-and-multiply.

* `QSeries` — truncated Laurent series in s, where s^2 = q, so half-integer
  q-exponents are integer s-exponents, with coefficients in Q or Q(i) (a
  `SeriesRing` accepts no other base).  Every series carries `order`, the
  first s-exponent it does NOT know; arithmetic propagates the guarantee
  (sum order = min(a.order, b.order), product order =
  min(a.order + lo_b, b.order + lo_a), inverse order = a.order - 2 lo_a, where
  a known-zero series has lo = order) and coefficient extraction beyond the
  guarantee raises.  `a ** n` is `rings.power` on a, or on its one inverse
  for n < 0; a series computes its inverse once and keeps it.  Equality
  compares values across Q ⊂ Q(i), but `+`, `-` and `*` never mix the bases.

A `QSeries` stores Python-int numerators over one positive common
denominator, in lowest terms: one numerator list over Q, a real and an
imaginary list sharing the denominator over Q(i).  Sums bring both operands
to the lcm of their denominators, products are truncated schoolbook
convolutions of the integer lists (four of them over Q(i)), inverses use an
integer recurrence (over Q(i) through the rational series a * conj(a)), and
`rescale` substitutes c s for s by integer powers of c's numerator and
denominator.
`Fraction` and `GaussianRational` appear only at the boundary: constructors
take them, and `coefficient`, `coeffs` and `repr` return them, canonical.

Values are immutable after construction and operations are pure, so they can
be shared freely across threads.  Pipelines should fix one working order per
computation; all constructors take it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from math import gcd, lcm
from operator import add, mul

from .errors import NotInvertibleError, StructuralError
from .rings import GaussianField, GaussianRational, RationalField, as_fraction, format_fraction, power


class PolyRing:
    """Descriptor for TruncPoly values with fixed variables, caps and base ring."""

    def __init__(self, variables, caps, base):
        variables = tuple(variables)
        caps = tuple(int(c) for c in caps)
        if len(variables) != len(caps):
            raise StructuralError("one cap per variable required")
        if len(set(variables)) != len(variables):
            raise StructuralError(f"duplicate variables in {variables}")
        if any(c < 0 for c in caps):
            raise StructuralError("caps must be non-negative")
        self.variables = variables
        self.caps = caps
        self.base = base
        self.name = f"{base.name}[{','.join(variables)}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.caps == other.caps
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.variables, self.caps, self.base))

    def zero(self):
        return TruncPoly(self, {})

    def one(self):
        return TruncPoly(self, {(0,) * len(self.variables): self.base.one()})

    def const(self, c):
        """The constant polynomial `c`, an element of the base ring or a scalar it takes."""
        if isinstance(c, (int, Fraction, GaussianRational)):
            c = self.base.const(c)
        return TruncPoly(self, {(0,) * len(self.variables): c})

    def gen(self, symbol):
        """The generator `symbol` as a polynomial (zero under a cap 0)."""
        if symbol not in self.variables:
            raise StructuralError(f"{symbol!r} is not a variable of {self.name}")
        i = self.variables.index(symbol)
        exps = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        return TruncPoly(self, {exps: self.base.one()})

    def linear_form(self, coefficients):
        """Sum of coeff*generator for a {symbol: rational} mapping."""
        p = self.zero()
        for sym, c in coefficients.items():
            p = p + self.gen(sym) * as_fraction(c)
        return p

    def is_zero(self, x) -> bool:
        return not x.coeffs

    def invert(self, x):
        return x.inverse()


class TruncPoly:
    """Sparse exponent-vector -> coefficient map under per-variable caps."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict, *, _clean=False):
        self.ring = ring
        if _clean:
            self.coeffs = coeffs
        else:
            base = ring.base
            caps = ring.caps
            clean = {}
            for exps, c in coeffs.items():
                if len(exps) != len(caps):
                    raise StructuralError("exponent vector has wrong arity")
                if any(e < 0 for e in exps):
                    raise StructuralError("negative exponent in polynomial")
                if any(e > cap for e, cap in zip(exps, caps)):
                    continue
                if not base.is_zero(c):
                    clean[tuple(exps)] = c
            self.coeffs = clean

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        """`other` as a polynomial of this ring, or None when it is no ring value.

        Scalars and elements of the base ring become constants; a polynomial
        or q-series of any other ring, a polynomial over this one included,
        is a StructuralError.
        """
        ring = self.ring
        if isinstance(other, TruncPoly) and other.ring == ring:
            return other
        if isinstance(other, (TruncPoly, QSeries)):
            if other.ring != ring.base:
                raise StructuralError(f"incompatible rings {ring.name} vs {other.ring.name}")
        elif not isinstance(other, (int, Fraction, GaussianRational)):
            return None
        return ring.const(other)

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.ring.variables), self.ring.base.zero())

    def coefficient(self, exps) -> object:
        """Coefficient of the monomial with the given exponent vector."""
        exps = tuple(exps)
        if any(e > cap for e, cap in zip(exps, self.ring.caps)):
            raise StructuralError(f"exponents {exps} exceed caps {self.ring.caps}")
        return self.coeffs.get(exps, self.ring.base.zero())

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        base = self.ring.base
        out = dict(self.coeffs)
        for exps, c in o.coeffs.items():
            s = out.get(exps)
            s = c if s is None else s + c
            if base.is_zero(s):
                out.pop(exps, None)
            else:
                out[exps] = s
        return TruncPoly(self.ring, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.ring, {e: -c for e, c in self.coeffs.items()}, _clean=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncPoly(self.ring, _mul_terms(self.coeffs, o.coeffs, self.ring), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self ** n for every integer n: Miller's recurrence or `rings.power` (module docstring)."""
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.ring.one()
        base = self.ring.base
        c0 = self.constant_term()
        if n > 0 and isinstance(base, SeriesRing) and (
            c0.lo != 0 or any(c.order < base.order for c in self.coeffs.values())
        ):
            return power(self, n)
        try:
            inv = base.invert(c0)
        except NotInvertibleError as exc:
            if n < 0:
                raise NotInvertibleError(f"constant term {c0!r} is not a unit; cannot invert series") from exc
            return power(self, n)
        return self._miller(n, c0, inv)

    def _miller(self, n: int, c0, inv) -> "TruncPoly":
        """self ** n from g_k = sum_j ((n+1) j - k) p_j g_(k-j) / (k c0), p_j and g_k of total degree j and k."""
        ring = self.ring
        is_zero = ring.base.is_zero
        parts: dict = {}
        for exps, c in self.coeffs.items():
            parts.setdefault(sum(exps), {})[exps] = c
        g = [{(0,) * len(ring.caps): c0 ** n if n > 0 else inv ** -n}]
        for k in range(1, sum(ring.caps) + 1):
            acc: dict = {}
            for j in range(1, k + 1):
                w = (n + 1) * j - k
                if w and j in parts and g[k - j]:
                    for exps, c in _mul_terms(parts[j], g[k - j], ring).items():
                        s = acc.get(exps)
                        acc[exps] = c * w if s is None else s + c * w
            scale = inv * Fraction(1, k)
            g.append({exps: x for exps, c in acc.items() if not is_zero(x := c * scale)})
        return TruncPoly(ring, {exps: c for part in g for exps, c in part.items()}, _clean=True)

    def __eq__(self, other):
        if isinstance(other, TruncPoly) and other.ring.base == self.ring:
            return NotImplemented  # a polynomial over this ring coerces self, as hashing does
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if set(self.coeffs) <= {(0,) * len(self.ring.variables)}:
            return hash(self.constant_term())  # a constant equals its coefficient, on either side
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    # -- series operations ------------------------------------------------

    def inverse(self) -> "TruncPoly":
        """Multiplicative inverse, the power -1; requires an invertible constant term."""
        return self ** -1

    # -- univariate operations ---------------------------------------------

    def _univar(self) -> str:
        if len(self.ring.variables) != 1:
            raise StructuralError("operation requires a univariate polynomial")
        return self.ring.variables[0]

    def univar_coeffs(self):
        """Dense coefficient list [c0, c1, ...] of a univariate polynomial."""
        self._univar()
        zero = self.ring.base.zero()
        return [self.coeffs.get((e,), zero) for e in range(self.ring.caps[0] + 1)]

    def compose(self, value):
        """Substitute the TruncPoly `value` (zero constant term) for the variable.

        `value` may live in any polynomial ring whose base ring can absorb
        this polynomial's coefficients via multiplication.
        """
        self._univar()
        if not value.ring.base.is_zero(value.constant_term()):
            raise StructuralError("composition point needs zero constant term")
        out = value.ring.zero()
        # Horner from the top coefficient down
        for c in reversed(self.univar_coeffs()):
            out = out * value + c
        return out

    def evaluate(self, assignments: dict, zero):
        """Evaluate at ring elements, one per variable: a sum from `zero`, the zero of their ring.

        Coefficients are pushed into the value domain with multiplication,
        so they must be scalars it understands (Fractions for generic-genus
        polynomials).
        """
        missing = [v for v in self.ring.variables if v not in assignments]
        if missing:
            raise StructuralError(f"no value given for variables {missing}")
        result = zero
        for exps, c in sorted(self.coeffs.items()):
            term = None
            for v, e in zip(self.ring.variables, exps):
                if e == 0:
                    continue
                f = assignments[v] ** e
                term = f if term is None else term * f
            result = result + (c if term is None else term * c)
        return result

    def terms(self) -> list:
        """(monomial text, coefficient) pairs in exponent order; "" is the constant monomial."""
        return [
            ("*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(self.ring.variables, exps) if e), c)
            for exps, c in sorted(self.coeffs.items())
        ]

    def __repr__(self):
        return " + ".join(f"({c})*{mono}" if mono else f"({c})" for mono, c in self.terms()) or "0"


class SeriesRing:
    """Descriptor for QSeries coefficients over Q or Q(i).

    `order` is the default construction guarantee (first unknown s-exponent)
    for constants made through the ring protocol; element guarantees evolve
    independently through arithmetic.
    """

    def __init__(self, base, order):
        if not isinstance(base, (RationalField, GaussianField)):
            raise StructuralError(f"q-series coefficients must be in Q or Q(i), not {base!r}")
        self.base = base
        self.gaussian = isinstance(base, GaussianField)
        self.order = int(order)
        self.name = f"{base.name}[[s;{self.order}]]"

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.base == other.base
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.base, self.order, "s"))

    def zero(self):
        return QSeries(self, self.order, [], self.order)

    def one(self):
        return self.const(1)

    def const(self, c):
        """The constant `c`: an int or Fraction, or over Q(i) a GaussianRational."""
        return QSeries(self, 0, [c], self.order)

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def invert(self, x):
        return x.inverse()


class QSeries:
    """Laurent series in s (s^2 = q) with coefficients in Q or Q(i).

    `lo` is the exponent of the first stored coefficient, `order` the first
    unknown exponent.  The leading stored coefficient is nonzero unless the
    series is (known-)zero, in which case `lo == order` and nothing is stored.

    The stored coefficients are integer numerators over one positive common
    denominator, in lowest terms: `_re[i] / _den` (plus `i * _im[i] / _den`
    over Q(i); `_im` is None over Q).  `coeffs` is the read-only exact view.
    """

    __slots__ = ("ring", "lo", "order", "_den", "_re", "_im", "_inverse")

    def __init__(self, ring: SeriesRing, lo: int, coeffs, order: int):
        _store(self, ring, lo, *_numerators(ring, coeffs), order)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Stored coefficients from `lo` on, as Fractions or GaussianRationals."""
        return tuple(self._value(i) for i in range(len(self._re)))

    def _value(self, i: int):
        if self._im is None:
            return Fraction(self._re[i], self._den)
        return GaussianRational(Fraction(self._re[i], self._den), Fraction(self._im[i], self._den))

    def is_zero(self) -> bool:
        """True when every KNOWN coefficient is zero."""
        return not self._re

    def coefficient(self, s_exp: int):
        """Coefficient of s^s_exp; asking at or beyond `order` raises."""
        if s_exp >= self.order:
            raise StructuralError(
                f"coefficient of s^{s_exp} requested but series is only known below s^{self.order}"
            )
        if s_exp < self.lo or s_exp >= self.lo + len(self._re):
            return self.ring.base.zero()
        return self._value(s_exp - self.lo)

    def support(self):
        """Sorted s-exponents with nonzero stored coefficients."""
        return [self.lo + i for i, x in enumerate(_nonzero(self._re, self._im)) if x]

    def lowest_exponent(self):
        """s-exponent of the first nonzero coefficient, or None if zero so far."""
        return self.lo if self._re else None

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSeries):
            if other.ring.base != self.ring.base:
                raise StructuralError(
                    f"incompatible series rings {self.ring.name} vs {other.ring.name}"
                )
            return other
        if self.ring.base.contains(other):
            return QSeries(self.ring, 0, [other], self.ring.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.order, o.order)
        lo = min(self.lo, o.lo, order)
        den = lcm(self._den, o._den)
        re = [0] * (order - lo)
        im = None if self._im is None else [0] * (order - lo)
        for src in (self, o):
            f = den // src._den
            start = src.lo - lo
            n = min(len(src._re), order - src.lo)
            if n > 0:
                for out, part in ((re, src._re), (im, src._im)):
                    if out is not None:
                        out[start:start + n] = [x + f * y for x, y in zip(out[start:start + n], part)]
        return _series(self.ring, lo, den, re, im, order)

    __radd__ = __add__

    def __neg__(self):
        im = None if self._im is None else [-x for x in self._im]
        return _series(self.ring, self.lo, self._den, [-x for x in self._re], im, self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QSeries):
            o = self._coerce(other)
            order = min(self.order + o.lo, o.order + self.lo)
            lo = self.lo + o.lo
            n = order - lo
            if self.is_zero() or o.is_zero() or n <= 0:
                return QSeries(self.ring, order, [], order)
            re, im = _mul_parts(self._re, self._im, o._re, o._im, n)
            return _series(self.ring, lo, self._den * o._den, re, im, order)
        if not self.ring.base.contains(other):
            return NotImplemented
        c = QSeries(self.ring, 0, [other], 1)  # the scalar as numerators over a denominator
        re, im = _mul_parts(self._re, self._im, c._re, c._im, len(self._re))
        return _series(self.ring, self.lo, self._den * c._den, re, im, self.order)

    __rmul__ = __mul__

    def shift(self, s_exp: int) -> "QSeries":
        """Multiply by the exact monomial s^s_exp."""
        return _series(self.ring, self.lo + s_exp, self._den, self._re, self._im, self.order + s_exp)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return QSeries(self.ring, 0, [1], max(self.order, self.ring.order))
        return power(self.inverse() if n < 0 else self, abs(n))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be nonzero.

        The series keeps it, as values are immutable: a constant term that
        `TruncPoly` powers and `root_product`'s scalar both invert is inverted once.
        """
        if self._inverse is None:
            self._inverse = self._invert()
        return self._inverse

    def _invert(self) -> "QSeries":
        if self.is_zero():
            raise NotInvertibleError("cannot invert a series with no known nonzero term")
        n = self.order - self.lo  # known unit-part length
        lo, order = -self.lo, self.order - 2 * self.lo
        if self._im is None:
            den, re = _inverse_ints(self._re, self._den, n)
            return _series(self.ring, lo, den, re, None, order)
        # a^-1 = conj(a) * (a * conj(a))^-1, and a * conj(a) has rational coefficients
        conj = [-x for x in self._im]
        norm, _ = _mul_parts(self._re, self._im, self._re, conj, n)
        den, inv = _inverse_ints(norm, self._den * self._den, n)
        re, im = _mul_parts(self._re, conj, inv, [], n)
        return _series(self.ring, lo, self._den * den, re, im, order)

    def rescale(self, c: Fraction) -> "QSeries":
        """The series at c * s for a nonzero rational c: the coefficient of s^e times c^e; lo >= 0."""
        if self.lo < 0:
            raise StructuralError(f"rescale needs a series with lo >= 0, got lo = {self.lo}")
        u, v, n = c.numerator, c.denominator, len(self._re)
        f = [u ** (self.lo + i) * v ** (n - i) for i in range(n)]  # c^(lo+i) = f[i] / v^(lo+n)
        re = [x * y for x, y in zip(self._re, f)]
        im = None if self._im is None else [x * y for x, y in zip(self._im, f)]
        return _series(self.ring, self.lo, self._den * v ** (self.lo + n), re, im, self.order)

    def _window(self, lo: int, hi: int, scale: int):
        """Numerators times `scale` for exponents lo..hi-1, zero-padded."""
        out = []
        for part in (self._re, self._im or ()):  # a series over Q has zero imaginary numerators
            for e in range(lo, hi):
                i = e - self.lo
                out.append(part[i] * scale if 0 <= i < len(part) else 0)
        return out

    def __eq__(self, other):
        """Equality of coefficient values below the smaller guarantee, over either base."""
        o = other if isinstance(other, QSeries) else self._coerce(other)
        if o is None:
            return NotImplemented
        hi, lo = min(self.order, o.order), min(self.lo, o.lo)
        return self._window(lo, hi, o._den) == o._window(lo, hi, self._den)

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            return f"O(s^{self.order})"
        parts = []
        for e in self.support():
            c = format_fraction(self._value(e - self.lo))
            if e == 0:
                parts.append(f"({c})")
            elif e % 2 == 0:
                parts.append(f"({c})*q^{e // 2}" if e != 2 else f"({c})*q")
            else:
                parts.append(f"({c})*q^({e}/2)")
        return " + ".join(parts) + f" + O(s^{self.order})"


_ZERO = Fraction(0)


def _parts(ring: SeriesRing, c):
    """(real part, imaginary part) of a coefficient as Fractions."""
    if isinstance(c, GaussianRational) and ring.gaussian:
        return c.re, c.im
    return as_fraction(c), _ZERO


def _numerators(ring: SeriesRing, coeffs):
    """(den, re, im): coefficients as integer numerators over their common denominator; im None over Q."""
    pairs = [_parts(ring, c) for c in coeffs]
    den = lcm(*(x.denominator for pair in pairs for x in pair))
    re = [r.numerator * (den // r.denominator) for r, _ in pairs]
    im = [i.numerator * (den // i.denominator) for _, i in pairs] if ring.gaussian else None
    return den, re, im


def _nonzero(re, im):
    """A list whose entries are truthy exactly where re[i] + i*im[i] is nonzero."""
    return re if im is None else [r or j for r, j in zip(re, im)]


def _mul_terms(a: dict, b: dict, ring: PolyRing) -> dict:
    """Product of two TruncPoly coefficient maps of `ring`; monomials past a cap are dropped."""
    caps, is_zero = ring.caps, ring.base.is_zero
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if any(e > cap for e, cap in zip(exps, caps)):
                continue
            s = out.get(exps)
            p = c1 * c2
            s = p if s is None else s + p
            if is_zero(s):
                out.pop(exps, None)
            else:
                out[exps] = s
    return out


def _store(s: QSeries, ring, lo, den, re, im, order) -> QSeries:
    """Fill `s` with the canonical form of the numerators re (+ i*im) over den > 0.

    Leading zeros move `lo` up, coefficients at or past `order` and trailing
    zeros are dropped, and numerators and denominator are divided by their gcd.
    """
    live = _nonzero(re, im)
    start, stop = 0, len(live)
    while start < stop and not live[start]:
        start += 1
    lo += start
    stop = min(stop, start + order - lo)
    while stop > start and not live[stop - 1]:
        stop -= 1
    if stop <= start:
        lo, den, re, im = order, 1, [], None if im is None else []
    else:
        re = re[start:stop]
        im = None if im is None else im[start:stop]
        g = gcd(den, *re, *(im or ()))
        if g > 1:
            den //= g
            re = [x // g for x in re]
            im = None if im is None else [x // g for x in im]
    s.ring, s.lo, s.order, s._den, s._re, s._im, s._inverse = ring, lo, order, den, re, im, None
    return s


def _series(ring, lo, den, re, im, order) -> QSeries:
    return _store(object.__new__(QSeries), ring, lo, den, re, im, order)


def _conv(a, b, n):
    """First n coefficients of the product of two integer coefficient lists."""
    if len(a) > len(b):
        a, b = b, a
    la, lb = min(len(a), n), min(len(b), n)
    if la == 1:
        x = a[0]
        return [x * y for y in b[:lb]]
    out = [0] * min(n, la + lb - 1)
    for i, x in enumerate(a[:la]):
        if x:  # one row of the schoolbook product; zero rows are skipped
            j = min(n, i + lb)
            out[i:j] = map(add, out[i:j], map(mul, b, repeat(x, j - i)))
    return out


def _mul_parts(ar, ai, br, bi, n):
    """(re, im) numerators of the product truncated to n terms; im is None over Q."""
    if ai is None:
        return _conv(ar, br, n), None
    re = [x - y for x, y in zip_longest(_conv(ar, br, n), _conv(ai, bi, n), fillvalue=0)]
    im = [x + y for x, y in zip_longest(_conv(ar, bi, n), _conv(ai, br, n), fillvalue=0)]
    re += [0] * (len(im) - len(re))
    im += [0] * (len(re) - len(im))
    return re, im


def _inverse_ints(a, den, n):
    """(denominator, numerators) of the first n coefficients of 1/(sum a_j s^j / den).

    With a0 = a[0], the integers C_0 = 1, C_m = -sum_j a_j a0^(j-1) C_(m-j)
    give the inverse's coefficients den * C_m / a0^(m+1).
    """
    a0 = a[0]
    w, p = [], 1
    for aj in a[1:n]:
        w.append(aj * p)
        p *= a0
    c = [1]
    for m in range(1, n):
        c.append(-sum(map(mul, w[:m], c[m - 1::-1])))
    nums, p = [0] * n, den
    for m in range(n - 1, -1, -1):
        nums[m] = c[m] * p
        p *= a0
    d = a0 ** n
    if d < 0:
        return -d, [-x for x in nums]
    return d, nums
