"""Reference implementations of the operator layer, as it was before the
``QuadOperator`` invariant supp(h) <= E <= dom(phi) was trusted.

``apply_operator`` used to restrict its result to E again, ``adjoint_operator``
built its weight piece by piece (compose, scale, add), and
``check_selfadjoint_structure`` recomputed phi(S) <= S on S = supp h,
restricted the pulled back weight to S and compared |slope| through
``float``.  The current code must give ``==`` results on every operator
below, in both scalar backends: the operators, and the five structural
conditions of the report, which read h exactly in both.
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
from quadfock.scalars import ExactComplex


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


STRUCTURE = ("involutive", "maps_into", "measure_preserving", "weight_bounded",
             "weight_symmetric")


def structure(rep):
    """The five structural conditions of a ``SelfAdjointReport``."""
    return {name: getattr(rep, name) for name in STRUCTURE}


def ref_structure(T):
    """The five conditions on S = supp h, with h read exactly."""
    h = StepFunction.from_segments([(l, r, ExactComplex.of(v)) for l, r, v in T.h.segments])
    S = h.support()
    phi_s = T.phi.restrict(S)
    maps_into = S.contains_set(phi_s.image())
    involutive = False
    if maps_into:
        phi2 = map_compose(phi_s, phi_s)
        involutive = phi2.is_identity() and phi2.domain().contains_set(S)
    try:
        map_invert(phi_s)
        injective = True
    except NonInjectiveError:
        injective = False
    unit = all(float(abs(p.slope)) == 1.0 for p in phi_s.pieces)
    symmetric = h.conj() == restrict(compose(h, phi_s), S)
    return dict(zip(STRUCTURE, (involutive, maps_into, injective and unit and maps_into,
                                h.sup_norm_sq() <= 1, symmetric)))


def named_operators(exact):
    one = ExactComplex.of(1) if exact else 1.0 + 0j
    weight = Fraction if exact else float
    return [dilation_operator(Fraction(2), one),
            reflection_operator(weight("0.9"), exact=exact),
            reflection_operator(weight(2), exact=exact)]


def random_operators(exact, count=200, seed=9):
    rng = random.Random(seed)
    return [random_injective_operator(rng, exact=exact) for _ in range(count)]


def assert_matches_reference(T, family):
    T_star, ref_star = adjoint_operator(T), ref_adjoint(T)
    assert T_star == ref_star
    assert adjoint_operator(T_star) == ref_adjoint(ref_star)
    for op in (T, T_star):
        assert structure(check_selfadjoint_structure(op)) == ref_structure(op)
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
    assert ref_structure(T)["measure_preserving"]  # the old rounding


def test_weight_bound_is_exact_in_both_backends():
    # |h|^2 just above 1 fails, exact or float, and |h| = 1 passes
    E = IntervalSet.from_intervals([(0, 1)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    for one in (ExactComplex.of(1), 1.0 + 0j):
        T = QuadOperator(E, E.indicator(one * (1 + Fraction(1, 2 ** 45))), phi)
        assert not check_selfadjoint_structure(T).weight_bounded
        assert check_selfadjoint_structure(QuadOperator(E, E.indicator(one), phi)).verdict


# --- weights with several segments per piece ----------------------------------------

HALF_SLOPES = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]


def piecewise_weight_operators(exact, value=None):
    """Two touching pieces [0, 2) and [2, 4) of slopes +-1/2 and +-3/2, their
    images touching or a gap apart, and a weight on E = [0, 4) of several
    segments per piece, one of them running across x = 2 and two touching
    ones of equal value; ``value(a, b)`` makes a weight value from two ints."""
    if value is None:
        value = (lambda a, b: ExactComplex(Fraction(a, 16), Fraction(b, 16))) if exact \
            else (lambda a, b: complex(a / 16, b / 16))
    rng = random.Random(15)
    ops = []
    for a1 in HALF_SLOPES:
        for a2 in HALF_SLOPES:
            for gap in (0, Fraction(1, 3)):
                lo1, hi1 = sorted((a1 * 0, a1 * 2))
                # piece 2's image starts where piece 1's ends, or a gap later
                b2 = hi1 + gap - min(a2 * 2, a2 * 4)
                phi = PiecewiseAffineMap.from_pieces([(0, 2, a1, 0), (2, 4, a2, b2)])
                cuts = [0, Fraction(1, 2), Fraction(5, 4), Fraction(3, 2), Fraction(5, 2),
                        3, Fraction(7, 2), 4]
                vals = [value(rng.randint(-8, 8) or 5, rng.randint(-8, 8)) for _ in cuts[1:]]
                vals[4] = vals[3]  # [3/2, 5/2) and [5/2, 3) touch with equal value
                segs = [(l, r, v) for l, r, v in zip(cuts, cuts[1:], vals)
                        if (l, r) != (Fraction(5, 4), Fraction(3, 2))]  # a hole in piece 1
                E = IntervalSet.from_intervals([(0, 4)])
                ops.append(QuadOperator(E, StepFunction.from_segments(segs), phi))
    return ops


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
    for T in ops:
        got, want = adjoint_operator(T).h.segments, ref_adjoint(T).h.segments
        assert [(l, r) for l, r, _ in got] == [(l, r) for l, r, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert a.real.hex() == b.real.hex() and a.imag.hex() == b.imag.hex()
