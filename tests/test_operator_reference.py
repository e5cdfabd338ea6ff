"""``apply_operator`` and the five structural conditions of
``check_selfadjoint_structure`` against direct constructions.

``ref_apply`` restricts h (f o phi) to E again, and ``_reference``'s
``reference_structure`` recomputes phi(S) <= S on S = supp h, builds
phi o phi, restricts the pulled back weight to S and compares |slope|
through ``float``.  The current code must give ``==`` results on every
operator below and on its adjoint, in both scalar backends; the structural
conditions read h exactly in both.  The adjoint itself is checked against
``reference_adjoint`` in ``test_int_kernels.py``; the float weights whose
products with the inverse slopes round are checked here, bit for bit.
"""

import random
from fractions import Fraction

import pytest

from quadfock import (
    IntervalSet,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    adjoint_operator,
    apply_operator,
    check_selfadjoint_structure,
    compose,
)
from quadfock.families import random_family, random_injective_operator
from quadfock.scalars import ExactComplex
from quadfock.stepfn import restrict

from _reference import (named_operators, piecewise_weight_operators, random_operators,
                        reference_adjoint, reference_structure, structure)


def ref_apply(T, f):
    return restrict(T.h * compose(f, T.phi), T.E)


def assert_matches_reference(T, family):
    for op in (T, adjoint_operator(T)):
        assert structure(check_selfadjoint_structure(op)) == reference_structure(op)
        for f in family:
            assert apply_operator(op, f) == ref_apply(op, f)


@pytest.mark.parametrize("exact", [False, True])
def test_named_operators_match_reference(exact):
    family = random_family(random.Random(4), 6, exact=exact)
    for T in named_operators(exact):
        assert_matches_reference(T, family)


@pytest.mark.parametrize("exact", [False, True])
def test_random_operators_match_reference(exact):
    family = random_family(random.Random(5), 3, exact=exact, span=8)
    for T in random_operators(exact):
        assert_matches_reference(T, family)


def assert_adjoint_keeps_every_bit(T):
    got, want = adjoint_operator(T), reference_adjoint(T)
    # repr shows every bit of a float, the sign of a zero included
    assert got == want and repr(got) == repr(want), T


def test_float_adjoint_weight_keeps_every_bit():
    # weights at non-dyadic values: the slope factor stays a float
    rng = random.Random(11)
    for _ in range(50):
        T = random_injective_operator(rng)
        h = StepFunction(tuple((l, r, v / 3 + 0.1j) for l, r, v in T.h.segments))
        assert_adjoint_keeps_every_bit(QuadOperator(T.E, h, T.phi))


def test_slope_below_one_by_1e_minus_20_is_not_measure_preserving():
    # the parent compared |slope| through float, where 1 - 1e-20 rounds to 1
    E = IntervalSet.from_intervals([(0, 1)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, 1 - Fraction(1, 10 ** 20), 0)])
    T = QuadOperator(E, E.indicator(ExactComplex.of(Fraction(1, 2))), phi)
    rep = check_selfadjoint_structure(T)
    assert rep.maps_into
    assert not rep.measure_preserving and not rep.verdict
    assert reference_structure(T)["measure_preserving"]  # the old rounding


def test_weight_bound_is_exact_in_both_backends():
    # |h|^2 just above 1 fails, exact or float, and |h| = 1 passes
    E = IntervalSet.from_intervals([(0, 1)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    for one in (ExactComplex.of(1), 1.0 + 0j):
        T = QuadOperator(E, E.indicator(one * (1 + Fraction(1, 2 ** 45))), phi)
        assert not check_selfadjoint_structure(T).weight_bounded
        assert check_selfadjoint_structure(QuadOperator(E, E.indicator(one), phi)).verdict


@pytest.mark.parametrize("exact", [False, True])
def test_weights_of_several_segments_per_piece_match_reference(exact):
    family = random_family(random.Random(6), 3, exact=exact, span=8)
    ops = piecewise_weight_operators(exact)
    assert len(ops) == 32
    for T in ops:
        assert len(T.h.segments) > len(T.phi.pieces)
        assert_matches_reference(T, family)


def test_float_weights_of_several_segments_per_piece_keep_every_bit():
    # non-dyadic values times the slopes 2 and 2/3 of the inverse pieces
    ops = piecewise_weight_operators(False, lambda a, b: complex(a / 3 + 0.1, b / 7))
    assert len(ops) == 32
    for T in ops:
        assert_adjoint_keeps_every_bit(T)
