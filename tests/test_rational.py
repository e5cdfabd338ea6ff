"""Differential tests of ``scalars._Rat``, the rational type of breakpoints.

The reference is stdlib ``Fraction``: every operator of ``_Rat`` must give
what ``Fraction`` gives on the same values, with the same result type
family, the same exceptions, the same hash and the same normal form, for
operands of every type that meets a breakpoint or a length in the library.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfock.scalars import ExactComplex, _frac, _Rat

BINARY = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
          operator.add, operator.sub, operator.mul, operator.truediv]
UNARY = [operator.neg, abs, bool, float, hash]

ints = st.one_of(st.integers(-20, 20), st.integers(-10 ** 30, 10 ** 30))
fractions_ = st.builds(Fraction, ints, st.integers(1, 10 ** 12))
rats = st.one_of(st.builds(_frac, fractions_), st.builds(_frac, ints), st.just(_frac(0)))
floats = st.floats(allow_nan=False, allow_infinity=False)
KINDS = {
    "rat": rats,
    "int": ints,
    "fraction": fractions_,
    "float": floats,
    "complex": st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e12),
    "exact": st.builds(ExactComplex, fractions_, fractions_),
}
EDGES = [
    (_frac(Fraction(1, 3)), 0, operator.truediv),
    (_frac(Fraction(1, 3)), _frac(0), operator.truediv),
    (_frac(0), _frac(Fraction(-2, 3)), operator.truediv),
    (_frac(0), 0.0, operator.truediv),
    (_frac(Fraction(-1, 2)), Fraction(-1, 2), operator.eq),
    (_frac(Fraction(3, 2)), 3, operator.eq),  # equal numerators, unequal values
    (_frac(Fraction(1, 2)), 0.5, operator.le),
    (_frac(Fraction(1, 4)), ExactComplex(Fraction(1, 2), Fraction(1, 3)), operator.mul),
    (_frac(3), True, operator.add),
]


def plain(x):
    """The stdlib value of x: a Fraction for a _Rat, x itself otherwise."""
    return Fraction(x.numerator, x.denominator) if type(x) is _Rat else x


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the reference raises too: compare the types
        return "raises", type(exc)


def assert_normal(q):
    assert type(q) is _Rat
    n, d = q.numerator, q.denominator
    assert type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert hash(q) == hash(Fraction(n, d))


def assert_same(got, ref, lean: bool):
    """got (from _Rat operands) against ref (from their Fraction values);
    lean when every operand was a _Rat or an int."""
    assert got[0] == ref[0], (got, ref)
    if got[0] == "raises":
        assert got[1] is ref[1]
        return
    g, r = got[1], ref[1]
    if isinstance(r, bool):
        assert g is r
    elif isinstance(r, Fraction):
        assert g == r and hash(g) == hash(r)
        if lean:
            assert_normal(g)
        else:
            assert type(g) in (Fraction, _Rat)
    elif isinstance(r, (float, complex)):
        assert type(g) is type(r) and repr(g) == repr(r)  # bit for bit, signed zeros too
    else:
        assert type(g) is type(r) and g == r


def check_binary(q, y, op):
    lean = type(y) in (_Rat, int)
    # the forward method, then the reflected one (or the other operand's)
    assert_same(outcome(op, q, y), outcome(op, plain(q), plain(y)), lean)
    assert_same(outcome(op, y, q), outcome(op, plain(y), plain(q)), lean)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40)
@given(data=st.data())
def test_binary_operators_match_fraction(kind, data):
    q, y = data.draw(rats), data.draw(KINDS[kind])
    for op in BINARY:
        check_binary(q, y, op)


@pytest.mark.parametrize("q, y, op", EDGES)
def test_binary_operators_at_the_edges(q, y, op):
    check_binary(q, y, op)


@given(rats)
@example(_frac(Fraction(10 ** 400 + 1, 10 ** 399)))  # float() of int pairs beyond the doubles
def test_unary_operators_match_fraction(q):
    for op in UNARY:
        got, ref = op(q), op(plain(q))
        assert type(got) is type(ref) or isinstance(ref, Fraction)
        assert got == ref
        if isinstance(ref, Fraction):
            assert_normal(got)


@given(st.one_of(ints, fractions_, floats, rats))
@example(np.float64(0.1))  # a float subclass
def test_frac_converts_exactly(x):
    q = _frac(x)
    assert_normal(q)
    assert q == Fraction(x)


@given(rats)
def test_division_by_zero_raises(q):
    for zero in (0, _frac(0)):
        for fn in (lambda: q / zero, lambda: 1 / zero, lambda: Fraction(1) / zero):
            try:
                fn()
            except ZeroDivisionError:
                continue
            raise AssertionError("no ZeroDivisionError")


@given(st.lists(st.one_of(rats, ints, fractions_, floats), max_size=12))
@example([_frac(1), 1, Fraction(1), 1.0, _frac(Fraction(1, 2)), 0.5])
def test_mixed_sorting_matches_fraction(xs):
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ref = sorted(range(len(xs)), key=lambda i: plain(xs[i]))
    assert order == ref  # a stable sort: equal keys keep their order in both
    if xs:
        assert plain(min(xs)) == min(map(plain, xs))
        assert plain(max(xs)) == max(map(plain, xs))
