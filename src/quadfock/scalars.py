"""Scalar backends.

Two interchangeable scalar types flow through the step-function algebra:

* ``ExactComplex`` -- a Gaussian rational (rational real and imaginary
  parts), used when identities must hold with zero tolerance.
* Python ``complex`` -- the double-precision backend.

Library code stays generic by using the helpers below instead of touching
the concrete type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)) or isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to Fraction")


def _as_exact_or_none(x):
    """Coerce ints and rationals for mixed arithmetic; None if not exact."""
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, int) or isinstance(x, Rational):
        return ExactComplex(Fraction(x), Fraction(0))
    return None


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "ExactComplex":
        """Coerce an int, Fraction, float, complex or ExactComplex."""
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, complex):
            return ExactComplex(Fraction(x.real), Fraction(x.imag))
        return ExactComplex(_frac(x), Fraction(0))

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __add__(self, other):
        o = _as_exact_or_none(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_exact_or_none(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_exact_or_none(other)
        if o is None:
            return NotImplemented
        return ExactComplex(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = _as_exact_or_none(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ExactComplex(Fraction(1), Fraction(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational) or isinstance(other, int):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!s}, {self.im!s})"


def conj_value(v):
    """Complex conjugate working for both backends (and plain numbers)."""
    if isinstance(v, (ExactComplex, complex)):
        return v.conjugate()
    return v


def abs_sq_value(v):
    """|v|^2 -- a Fraction for exact inputs, a float otherwise."""
    if isinstance(v, ExactComplex):
        return v.abs_sq()
    if isinstance(v, complex):
        return v.real * v.real + v.imag * v.imag
    return v * v
