"""Reference tests for the exact scalar backend.

``ExactComplex`` stores (a + b*i) / d as three ints.  The reference here is
the representation it replaces: a pair of ``Fraction``s, with the textbook
formulas for every operation.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quadfock.scalars import ExactComplex


def ref(x) -> tuple:
    """(re, im) as Fractions of an ExactComplex, int or Fraction."""
    if isinstance(x, ExactComplex):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


REF = {operator.add: ref_add, operator.sub: ref_sub, operator.mul: ref_mul}

fractions_ = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 48))
exacts = st.builds(ExactComplex, fractions_, fractions_)
operands = st.one_of(exacts, st.integers(-5, 5), fractions_,
                     st.just(0), st.just(Fraction(0)))
ZERO = ExactComplex(0, 0)
HALF_I = ExactComplex(0, Fraction(1, 2))


@given(exacts, operands, st.sampled_from(sorted(REF, key=repr)))
@example(ZERO, 0, operator.mul)
@example(ZERO, ZERO, operator.sub)
@example(HALF_I, Fraction(2), operator.mul)
@example(HALF_I, np.int64(-3), operator.mul)  # a Rational that is neither an int nor a Fraction
@example(ExactComplex(Fraction(1, 2), Fraction(1, 2)),
         ExactComplex(Fraction(1, 2), Fraction(-1, 2)), operator.add)
def test_arithmetic_matches_fraction_pairs(x, y, op):
    for a, b in ((x, y), (y, x)):  # both the forward and the reflected method
        got = op(a, b)
        assert type(got) is ExactComplex
        assert (got.re, got.im) == REF[op](ref(a), ref(b))


@given(exacts, st.integers(0, 7))
@example(ZERO, 0)
@example(ExactComplex(Fraction(1, 2), Fraction(1, 2)), 2)
def test_pow_matches_repeated_product(x, k):
    got = x ** k
    assert (got.re, got.im) == ref_pow(ref(x), k)


@given(exacts, operands)
@example(ZERO, 0)
@example(ExactComplex(Fraction(3, 6), 0), Fraction(1, 2))
@example(ExactComplex(2, 0), 2)
@example(HALF_I, Fraction(1, 2))
@example(ExactComplex(Fraction(1, 3), 0), 1 / 3)  # a float is read exactly
@example(ExactComplex(Fraction(1, 2), 0), 0.5)
def test_unary_and_comparisons_match_fraction_pairs(x, y):
    re, im = ref(x)
    assert (x.conjugate().re, x.conjugate().im) == (re, -im)
    assert ((-x).re, (-x).im) == (-re, -im)
    assert x.abs_sq() == re * re + im * im
    assert type(x.abs_sq()) is Fraction
    assert bool(x) == bool(re or im)
    assert complex(x) == complex(float(re), float(im))
    assert (x == y) == (ref(x) == ref(y))
    assert (y == x) == (ref(x) == ref(y))
    assert (x != y) == (ref(x) != ref(y))
    if x == y:
        assert hash(x) == hash(y)


@given(exacts, exacts)
@example(ExactComplex(10 ** 400, 1), HALF_I)  # a part beyond the doubles
def test_one_representation_per_value(x, y):
    """The same value reached by different routes is equal and hashes equal."""
    for other in ((x + y) - y, x * 3 * Fraction(1, 3), (x * y - x * y) + x):
        assert other == x and hash(other) == hash(x)
    re, im = ref(x)
    assert repr(x) == f"ExactComplex({re!s}, {im!s})"


def test_equality_with_a_float_or_complex_is_exact():
    # a float part is read as the dyadic rational it is; a NaN or an
    # infinity equals no exact value
    assert len({ExactComplex(1, 0), 1, 1.0, Fraction(1)}) == 1
    for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0)):
        assert not ExactComplex(0.5, 0) == bad and not bad == ExactComplex(0.5, 0)


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@example(0.5, 0.25)
@example(1e308, 5e-324)
def test_float_parts_compare_and_hash_as_their_complex(re, im):
    z = ExactComplex(re, im)
    assert z == complex(re, im) and hash(z) == hash(complex(re, im))


def test_other_operand_types_are_not_implemented():
    x = ExactComplex(1, 0)
    assert not x == "1" and x != "1"
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(x, "1")
    for k in (-1, 0.5):
        with pytest.raises(TypeError):
            x ** k
