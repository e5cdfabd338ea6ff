"""Reference implementations of the operator layer, as it was before the
``QuadOperator`` invariant supp(h) <= E <= dom(phi) was trusted.

``apply_operator`` used to restrict its result to E again, ``adjoint_operator``
built its weight piece by piece (compose, scale, add), and
``check_selfadjoint_structure`` recomputed phi(E) <= E, restricted the pulled
back weight to E and compared |slope| through ``float``.  The current code
must give ``==`` results on every operator below, in both scalar backends.
"""

import random
from fractions import Fraction

import pytest

from quadfock import (
    IntervalSet,
    NonInjectiveError,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    adjoint_operator,
    apply_operator,
    check_selfadjoint_structure,
    compose,
    dilation_operator,
    map_compose,
    map_invert,
    restrict,
)
from quadfock.families import random_family, random_injective_operator, reflection_operator
from quadfock.quantization import SelfAdjointReport
from quadfock.scalars import ExactComplex
from quadfock.stepfn import step_allclose


def ref_apply(T, f):
    return restrict(T.h * compose(f, T.phi), T.E)


def ref_adjoint(T):
    phi_inv = map_invert(T.phi.restrict(T.E))
    weight = StepFunction.zero()
    h_conj = T.h.conj()
    exact = any(isinstance(v, ExactComplex) for _, _, v in T.h.segments)
    for p in phi_inv.pieces:
        w = abs(p.slope)
        piece = compose(h_conj, PiecewiseAffineMap((p,)))
        weight = weight + piece.scale(w if exact else float(w))
    return QuadOperator(phi_inv.domain(), weight, phi_inv)


def ref_structure(T, tol=0.0):
    phi_e = T.phi.restrict(T.E)
    maps_into = T.E.contains_set(phi_e.image())
    involutive = False
    if maps_into:
        phi2 = map_compose(phi_e, phi_e)
        involutive = phi2.is_identity() and phi2.domain().contains_set(T.E)
    try:
        map_invert(phi_e)
        injective = True
    except NonInjectiveError:
        injective = False
    unit = all(abs(float(abs(p.slope)) - 1.0) <= tol for p in phi_e.pieces)
    sup_sq = T.h.sup_norm_sq()
    if isinstance(sup_sq, Fraction):
        bounded = sup_sq <= 1
    else:
        bounded = float(sup_sq) <= 1 + tol
    symmetric = step_allclose(T.h.conj(), restrict(compose(T.h, phi_e), T.E), tol)
    return SelfAdjointReport(involutive, maps_into, injective and unit and maps_into,
                             bounded, symmetric)


def named_operators(exact):
    one = ExactComplex.of(1) if exact else 1.0 + 0j
    weight = Fraction if exact else float
    return [dilation_operator(Fraction(2), 2, one),
            reflection_operator(weight("0.9"), exact=exact),
            reflection_operator(weight(2), exact=exact)]


def random_operators(exact, count=200, seed=9):
    rng = random.Random(seed)
    return [random_injective_operator(rng, exact=exact) for _ in range(count)]


def assert_matches_reference(T, family, tol):
    T_star, ref_star = adjoint_operator(T), ref_adjoint(T)
    assert T_star == ref_star
    assert adjoint_operator(T_star) == ref_adjoint(ref_star)
    for op in (T, T_star):
        assert check_selfadjoint_structure(op, tol) == ref_structure(op, tol)
        for f in family:
            assert apply_operator(op, f) == ref_apply(op, f)


@pytest.mark.parametrize("exact", [False, True])
def test_named_operators_match_reference(exact):
    family = random_family(random.Random(4), 6, exact=exact)
    for T in named_operators(exact):
        for tol in (0.0, 1e-12):
            assert_matches_reference(T, family, tol)


@pytest.mark.parametrize("exact", [False, True])
def test_random_operators_match_reference(exact):
    family = random_family(random.Random(5), 3, exact=exact, span=8)
    tol = 0.0 if exact else 1e-12
    for T in random_operators(exact):
        assert_matches_reference(T, family, tol)


def test_float_adjoint_weight_keeps_every_bit():
    # weights at non-dyadic values: the slope factor stays a float
    rng = random.Random(11)
    for _ in range(50):
        T = random_injective_operator(rng)
        h = StepFunction(tuple((l, r, v / 3 + 0.1j) for l, r, v in T.h.segments))
        T = QuadOperator(T.E, h, T.phi)
        got, want = adjoint_operator(T).h.segments, ref_adjoint(T).h.segments
        assert [(l, r) for l, r, _ in got] == [(l, r) for l, r, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert a.real.hex() == b.real.hex() and a.imag.hex() == b.imag.hex()


def test_slope_below_one_by_1e_minus_20_is_not_measure_preserving():
    # the parent compared |slope| through float, where 1 - 1e-20 rounds to 1
    E = IntervalSet.from_intervals([(0, 1)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, 1 - Fraction(1, 10 ** 20), 0)])
    T = QuadOperator(E, E.indicator(ExactComplex.of(Fraction(1, 2))), phi)
    rep = check_selfadjoint_structure(T)
    assert rep.maps_into
    assert not rep.measure_preserving and not rep.verdict
    assert ref_structure(T).measure_preserving  # the old rounding
    assert check_selfadjoint_structure(T, tol=1e-12).measure_preserving


def test_exact_weight_bound_takes_the_tolerance():
    # an exact |h|^2 just above 1 fails at tol 0 and passes within tol,
    # as a float |h|^2 does
    E = IntervalSet.from_intervals([(0, 1)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    for one in (ExactComplex.of(1), 1.0 + 0j):
        T = QuadOperator(E, E.indicator(one * (1 + Fraction(1, 2 ** 45))), phi)
        assert not check_selfadjoint_structure(T).weight_bounded
        assert check_selfadjoint_structure(T, tol=1e-12).weight_bounded
