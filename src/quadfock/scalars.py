"""Scalar backends.

Two interchangeable scalar types flow through the step-function algebra:

* ``ExactComplex`` -- a Gaussian rational, used when identities must hold
  with zero tolerance.  It is stored as three ints ``(a, b, d)`` meaning
  ``(a + b*i) / d``, with ``d > 0`` and ``gcd(a, b, d) == 1``, so every
  value has exactly one representation and ``==`` compares the ints
  directly.  It equals a float or complex whose parts are its own, read
  exactly, and hashes like every number it equals.
* Python ``complex`` -- the double-precision backend.

Library code stays generic by calling ``conjugate()``, which every numeric
type has, and ``abs_sq_value`` below instead of touching the concrete type.

Breakpoints, slopes and lengths are plain ``Fraction``s in lowest terms.
The hot kernels of ``stepfn`` and ``quantization`` compute a result on the
ints ``_numerator`` and ``_denominator`` of their operands and reduce it
once: ``_conj_times`` and the affine kernels ``_affine``, ``_affine_inverse``
and ``_affine_preimage`` below, each built on ``_rat``, ``_quotient`` or
``_new``, which make the ``Fraction`` without its constructor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite
from numbers import Rational

from .errors import DomainError


def _frac(x) -> Fraction:
    """x as a ``Fraction``: from a float (exactly), an int or any rational.
    A float is tested first: JSON input's fractional numbers are floats."""
    if type(x) is float:  # as_integer_ratio() is in lowest terms: no gcd
        q = object.__new__(Fraction)
        q._numerator, q._denominator = x.as_integer_ratio()
        return q
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return _rat(x, 1)
    if isinstance(x, float):
        return _frac(float(x))
    if isinstance(x, Rational):
        return _rat(int(x.numerator), int(x.denominator))
    raise TypeError(f"cannot convert {x!r} to Fraction")


def _rat(n: int, d: int) -> Fraction:
    """n / d for d > 0, reduced by one gcd."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _quotient(n: int, d: int) -> Fraction:
    """n / d for any int d."""
    if d < 0:
        n, d = -n, -d
    elif not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _rat(n, d)


def _new(a: int, b: int, d: int) -> "ExactComplex":
    """(a + b*i) / d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = object.__new__(ExactComplex)
    z._a = a
    z._b = b
    z._d = d
    return z


def _conj_times(x: "ExactComplex", y) -> "ExactComplex":
    """conj(x) * y for an ``ExactComplex`` or ``Fraction`` y, reduced by one gcd."""
    xa, xb = x._a, x._b
    if type(y) is ExactComplex:
        a, b = y._a, y._b
        return _new(xa * a + xb * b, xa * b - xb * a, x._d * y._d)
    n = y._numerator
    return _new(xa * n, -xb * n, x._d * y._denominator)


# --- the affine kernels of ``stepfn``: x -> a x + b, all ``Fraction`` -------------


def _affine(a: Fraction, x: Fraction, b: Fraction) -> Fraction:
    """a * x + b, reduced by one gcd."""
    ad, xd, bd = a._denominator, x._denominator, b._denominator
    return _rat(a._numerator * x._numerator * bd + b._numerator * ad * xd, ad * xd * bd)


def _affine_inverse(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """(1 / a, -b / a): the coefficients of the inverse of x -> a x + b, a != 0."""
    an, ad = a._numerator, a._denominator
    return _quotient(ad, an), _quotient(-b._numerator * ad, b._denominator * an)


def _affine_preimage(a: Fraction, b: Fraction, l: Fraction, r: Fraction,
                     left: Fraction, right: Fraction) -> "tuple[Fraction, Fraction] | None":
    """The x in [left, right) with a x + b in [l, r), for a != 0 and l < r,
    as (lo, hi) with lo < hi; None where that set is null.

    Each t = l, r maps back to (t - b) / a = (tn bd - bn td) ad / (td bd an),
    which is compared with left and right on its int pair and reduced, once,
    only where it is kept; a clipped end is left or right itself."""
    an, ad = a._numerator, a._denominator
    bn, bd = b._numerator, b._denominator
    ln, ld, rn, rd = l._numerator, l._denominator, r._numerator, r._denominator
    if an > 0:
        n0, d0 = (ln * bd - bn * ld) * ad, ld * bd * an
        n1, d1 = (rn * bd - bn * rd) * ad, rd * bd * an
    else:  # a decreasing map pulls [l, r) back to ((r - b) / a, (l - b) / a]
        n0, d0 = (bn * rd - rn * bd) * ad, -rd * bd * an
        n1, d1 = (bn * ld - ln * bd) * ad, -ld * bd * an
    # clipped to [left, right): lo = max(x0, left), hi = min(x1, right)
    lo = hi = None
    if n0 * left._denominator < left._numerator * d0:  # x0 < left
        lo, n0, d0 = left, left._numerator, left._denominator
    if right._numerator * d1 < n1 * right._denominator:  # right < x1
        hi, n1, d1 = right, right._numerator, right._denominator
    if not n0 * d1 < n1 * d0:
        return None
    return (_rat(n0, d0) if lo is None else lo), (_rat(n1, d1) if hi is None else hi)


def _parts(x):
    """(a, b, d) of an ExactComplex, int or rational; None if not exact."""
    if type(x) is ExactComplex:
        return x._a, x._b, x._d
    if type(x) is Fraction:
        return x._numerator, 0, x._denominator
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Rational):
        return int(x.numerator), 0, int(x.denominator)
    return None


class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im):
        re, im = _frac(re), _frac(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x) -> "ExactComplex":
        """Coerce an int, Fraction, float, complex or ExactComplex."""
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, complex):
            return ExactComplex(x.real, x.imag)
        return ExactComplex(x, 0)

    def conjugate(self) -> "ExactComplex":
        return _new(self._a, -self._b, self._d)

    def abs_sq(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        e = self._d
        return _new(self._a * d + a * e, self._b * d + b * e, e * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> "ExactComplex":
        return _new(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        return _new(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        a, b = 1, 0
        for _ in range(k):
            a, b = a * self._a - b * self._b, a * self._b + b * self._a
        return _new(a, b, self._d ** k)

    def __eq__(self, other) -> bool:
        if type(other) is ExactComplex:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int) or isinstance(other, Rational):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, (float, complex)):  # each part read exactly
            re, im = other.real, other.imag
            return isfinite(re) and isfinite(im) and self == ExactComplex(re, im)
        return NotImplemented

    def __hash__(self):
        """The hash of an equal int, ``Fraction``, float or complex."""
        a, b, d = self._a, self._b, self._d
        if not b:
            return hash(_rat(a, d))
        try:
            return hash(complex(self))
        except OverflowError:  # a part beyond the doubles: no float equals it
            return hash((a, b, d))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!s}, {self.im!s})"


def abs_sq_value(v):
    """|v|^2 -- a Fraction for exact inputs, a float otherwise."""
    if isinstance(v, ExactComplex):
        return v.abs_sq()
    if isinstance(v, complex):
        return v.real * v.real + v.imag * v.imag
    return v * v


def _json_value(v):
    """v in JSON form: a complex or ExactComplex as [re, im], a Fraction as
    a float, a tuple as a list, dict keys as str, a NaN or infinite float as
    None (null); a DomainError for an exact value beyond the doubles."""
    if isinstance(v, (complex, ExactComplex)):
        try:
            v = complex(v)
        except OverflowError:  # an exact value beyond the doubles
            raise DomainError("a result exceeds double precision") from None
        return [_json_value(v.real), _json_value(v.imag)]
    if isinstance(v, float):
        return v if isfinite(v) else None
    if isinstance(v, Fraction):
        try:
            return float(v)
        except OverflowError:
            raise DomainError("a result exceeds double precision") from None
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v
