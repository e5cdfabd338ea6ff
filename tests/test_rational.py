"""Tests of the rationals of breakpoints, slopes and lengths.

They are plain ``Fraction``s, but the int kernels of ``scalars`` build them
with ``object.__new__``, bypassing ``Fraction``'s constructor.  ``==`` and
``hash`` of a ``Fraction`` read its numerator and denominator as they are,
so every one of them must be in ``Fraction``'s normal form: denominator > 0
and gcd 1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quadfock.scalars import _frac, _quotient, _rat

ints = st.one_of(st.integers(-20, 20), st.integers(-10 ** 30, 10 ** 30))
fractions_ = st.builds(Fraction, ints, st.integers(1, 10 ** 12))
floats = st.floats(allow_nan=False, allow_infinity=False)


def assert_normal(q):
    assert type(q) is Fraction
    n, d = q.numerator, q.denominator
    assert type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert hash(q) == hash(Fraction(n, d))


@given(ints, st.one_of(st.integers(1, 20), st.integers(1, 10 ** 30)))
@example(6, 4)
@example(0, 5)
@example(-9, 3)
def test_rat_and_quotient_give_fractions_normal_form(n, d):
    ref = Fraction(n, d)
    for q in (_rat(n, d), _quotient(n, d), _quotient(-n, -d)):
        assert_normal(q)
        assert (q.numerator, q.denominator, hash(q)) == (ref.numerator, ref.denominator,
                                                         hash(ref))
        assert q == ref
    with pytest.raises(ZeroDivisionError):
        _quotient(n, 0)


@given(st.one_of(ints, fractions_, floats))
@example(np.float64(0.1))  # a float subclass
@example(np.int64(-6))  # a Rational that is neither an int nor a Fraction
def test_frac_converts_exactly(x):
    q = _frac(x)
    assert_normal(q)
    assert q == Fraction(x)
