"""The int kernels of the exact step-function and operator algebra, and the
adjoint built on them, against the reference arithmetic.

``_pull_back``, ``AffinePiece.__call__``, the signature product
conj(vf) * vg of ``value_signature`` and the weight conj(v) / |slope| of
``adjoint_operator`` compute each result on the ints of their operands and
reduce it once.  Their references in ``_reference.py`` chain ``Fraction``
and ``ExactComplex`` operators: each kernel must give the same results, down
to their types and internal ints.  One difference is pinned here: an empty
pull-back is None.
``adjoint_operator`` must give ``reference_adjoint``'s operator, built on
that arithmetic alone, on every operator input of the tests in both scalar
backends, float weights bit for bit; the float weights whose products with
the inverse slopes round are in ``test_operator_reference.py``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from quadfock import (IntervalSet, NonInjectiveError, PiecewiseAffineMap, QuadOperator,
                      StepFunction, adjoint_operator)
from quadfock.scalars import ExactComplex, _affine_inverse, _conj_times, _new, _rat
from quadfock.stepfn import AffinePiece, _images_overlap, _pull_back, value_signature

from _reference import (atom_operators, grid_lengths, named_operators, piecewise_weight_operators,
                        random_operators, reference_adjoint, reference_adjoint_weight,
                        reference_affine_call, reference_pull_back, reference_signature,
                        reference_signature_product)

SLOPES = [_rat(n, d) for n, d in [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                                  (1, 3), (-1, 3), (3, 2), (-3, 2), (7, 5), (-2, 9)]]
INTERCEPTS = [_rat(n, d) for n, d in [(0, 1), (1, 1), (-3, 1), (1, 4), (1, 3), (-5, 7), (2, 5)]]
DOMAINS = [(_rat(-2, 1), _rat(3, 1)), (_rat(0, 1), _rat(1, 3)), (_rat(-7, 4), _rat(5, 6))]
ENDS = [_rat(n, d) for n, d in [(-9, 1), (-3, 1), (-4, 3), (-1, 2), (0, 1), (1, 5), (2, 3),
                                (1, 1), (5, 3), (9, 4), (6, 1), (11, 1)]]


def pieces():
    for (l, r), a, b in product(DOMAINS, SLOPES, INTERCEPTS):
        yield AffinePiece(l, r, a, b)


def intervals():
    return [(l, r) for l in ENDS for r in ENDS if l < r]


def rat_key(x):
    return type(x), x.numerator, x.denominator


def exact_key(z):
    return type(z), z._a, z._b, z._d


# --- the pull-back -------------------------------------------------------------


def test_pull_back_matches_reference():
    empty = kept = 0
    for p in pieces():
        for l, r in intervals():
            got, (lo, hi) = _pull_back(p, l, r), reference_pull_back(p, l, r)
            if lo < hi:
                kept += 1
                assert [rat_key(x) for x in got] == [rat_key(lo), rat_key(hi)]
                # a clipped end is the piece's own object, as before
                assert (got[0] is p.left) == (lo is p.left)
                assert (got[1] is p.right) == (hi is p.right)
            else:
                empty += 1
                assert got is None
    assert empty > 1000 and kept > 1000


@pytest.mark.parametrize("p", [AffinePiece(_rat(-2, 1), _rat(3, 1), a, b)
                               for a in SLOPES[:4] + SLOPES[6:10] for b in INTERCEPTS[3:6]])
def test_pull_back_of_int_and_fraction_ends(p):
    for l, r in [(-3, 1), (0, 2), (1, 6), (-9, -4), (4, 11)]:
        # int ends, and Fraction ends made by Fraction's own constructor
        for ends in ((l, r), (Fraction(l, 3), Fraction(r, 3))):
            got, (lo, hi) = _pull_back(p, *ends), reference_pull_back(p, *ends)
            if lo < hi:
                assert [rat_key(x) for x in got] == [rat_key(lo), rat_key(hi)]
            else:
                assert got is None


def test_pull_back_of_fraction_ends_is_made_of_rat():
    p = AffinePiece(_rat(-2, 1), _rat(3, 1), _rat(1, 3), _rat(1, 4))
    lo, hi = reference_pull_back(p, Fraction(1, 3), Fraction(1, 2))
    assert (type(lo), type(hi)) == (Fraction, Fraction)
    assert _pull_back(p, Fraction(1, 3), Fraction(1, 2)) == (_rat(1, 4), _rat(3, 4))
    assert all(type(x) is Fraction for x in _pull_back(p, Fraction(1, 3), Fraction(1, 2)))


def test_pull_back_through_a_decreasing_piece_keeps_order():
    p = AffinePiece(_rat(0, 1), _rat(1, 1), _rat(-3, 2), _rat(1, 3))
    # phi(x) = 1/3 - 3x/2 maps [0, 1) onto (-7/6, 1/3]
    assert _pull_back(p, _rat(-1, 6), _rat(1, 3)) == (Fraction(0), Fraction(1, 3))
    assert _pull_back(p, _rat(-5, 1), _rat(0, 1)) == (Fraction(2, 9), Fraction(1))
    assert _pull_back(p, _rat(1, 3), _rat(2, 1)) is None  # only the end point 0
    assert _pull_back(p, _rat(-9, 1), _rat(-7, 6)) is None  # only the open end 1


# --- the affine map --------------------------------------------------------------


def test_affine_call_matches_reference():
    xs = ENDS + [_rat(-1, 7), _rat(13, 6)]
    for p in pieces():
        for x in xs:
            assert rat_key(p(x)) == rat_key(reference_affine_call(p, x))
        for x in (-3, 0, 4, Fraction(2, 7), Fraction(-5, 3)):
            got, want = p(x), reference_affine_call(p, x)
            assert rat_key(got) == rat_key(want)


def test_affine_inverse_matches_reference():
    for a, b in product(SLOPES, INTERCEPTS):
        inv = 1 / a  # map_invert's coefficients before the kernel
        assert [rat_key(x) for x in _affine_inverse(a, b)] == [rat_key(inv), rat_key(-b * inv)]


def test_affine_call_of_a_float_stays_a_float():
    p = AffinePiece(_rat(0, 1), _rat(1, 1), _rat(-1, 3), _rat(2, 5))
    for x in (0.0, 0.25, -1.5, 1e300):
        got = p(x)
        assert type(got) is float and repr(got) == repr(reference_affine_call(p, x))


# --- the signature product and the adjoint weight ------------------------------------


def exact_values():
    rng = random.Random(29)
    values = [_new(a, b, d) for a, b, d in [(1, 0, 1), (0, 1, 1), (-3, 4, 5), (1, 1, 2),
                                            (2, -6, 9), (-7, 0, 3), (0, -5, 12)]]
    values += [_new(rng.randint(-40, 40) or 1, rng.randint(-40, 40), rng.choice([3, 6, 16, 35]))
               for _ in range(40)]
    return values


def test_signature_product_matches_reference():
    values = exact_values()
    for x, y in product(values, values):
        assert exact_key(_conj_times(x, y)) == \
            exact_key(reference_signature_product(x, y))


def test_value_signature_matches_reference_products():
    rng = random.Random(30)
    values = exact_values()
    for _ in range(60):
        segs = [sorted(rng.sample(range(-12, 13), 6)) for _ in range(2)]
        f, g = (StepFunction.from_segments(
            [(_rat(s[2 * i], 3), _rat(s[2 * i + 1], 3), rng.choice(values)) for i in range(3)])
            for s in segs)
        sig, want = grid_lengths(value_signature(f, g)), reference_signature(f, g)
        assert list(sig.items()) == list(want.items())
        assert list(map(exact_key, sig)) == list(map(exact_key, want))


def test_adjoint_weight_matches_reference():
    for v, s in product(exact_values(), SLOPES):
        s = abs(s)
        assert exact_key(_conj_times(v, s)) == \
            exact_key(reference_adjoint_weight(v, s))


def kernel_operators(exact):
    """150 maps of two pieces with the slopes and intercepts above, ends k/3
    and no overlapping images; h a segment or two on each interval of E, of
    non-dyadic values."""
    rng = random.Random(31)
    values = exact_values()
    ops = []
    while len(ops) < 150:
        cuts = sorted(rng.sample(range(-12, 13), 4))
        phi = PiecewiseAffineMap.from_pieces(
            (_rat(cuts[2 * i], 3), _rat(cuts[2 * i + 1], 3), rng.choice(SLOPES),
             rng.choice(INTERCEPTS)) for i in range(2))
        if _images_overlap(phi):
            continue
        E = phi.domain()
        segs = []
        for l, r in E.intervals:
            mid = (l + r) / 2
            segs += [(l, mid, rng.choice(values)), (mid, r, rng.choice(values))]
        if not exact:
            segs = [(l, r, complex(v)) for l, r, v in segs]
        ops.append(QuadOperator(E, StepFunction.from_segments(segs), phi))
    return ops


def adjoint_or_fold(adjoint, T):
    try:
        return adjoint(T)
    except NonInjectiveError:
        return NonInjectiveError


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_adjoint_operator_matches_reference(exact):
    ops = [*named_operators(exact), *random_operators(exact), *piecewise_weight_operators(exact)]
    ops += [adjoint_operator(T) for T in ops]
    ops += [*kernel_operators(exact), *atom_operators(exact)]
    folds = 0
    for T in ops:
        got, want = adjoint_or_fold(adjoint_operator, T), adjoint_or_fold(reference_adjoint, T)
        # == compares the ints of an exact value; repr the types of the ends
        # and every bit of a float, the sign of a zero included
        assert got == want and repr(got) == repr(want), T
        folds += got is NonInjectiveError
    assert folds > 50


# --- the memos of a map -------------------------------------------------------------


def maps():
    yield PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    yield PiecewiseAffineMap.from_pieces([(Fraction(-3, 2), 0, Fraction(1, 3), 2),
                                          (1, 4, -2, Fraction(5, 7))])
    yield PiecewiseAffineMap.from_pieces([(0, 1, 2, 0), (1, 2, 1, 0)])  # images overlap
    yield PiecewiseAffineMap.from_pieces([])


@pytest.mark.parametrize("phi", list(maps()))
def test_memoized_map_is_the_fresh_map(phi):
    fresh = PiecewiseAffineMap(phi.pieces)
    assert "_domain" not in vars(fresh) and "_images" not in vars(fresh)
    domain, image, overlap = phi.domain(), phi.image(), _images_overlap(phi)
    assert phi.domain() is domain  # kept, not rebuilt
    assert "_domain" in vars(phi) and "_images" in vars(phi)
    assert phi == fresh and hash(phi) == hash(fresh) and repr(phi) == repr(fresh)
    assert phi.to_json() == fresh.to_json()
    assert (fresh.domain(), fresh.image(), _images_overlap(fresh)) == (domain, image, overlap)
    assert {phi: 1}[fresh] == 1


def test_operator_restricts_a_memoized_map_to_E():
    phi = PiecewiseAffineMap.from_pieces([(-2, 3, Fraction(1, 3), 1)])
    assert phi.domain() == IntervalSet.from_intervals([(-2, 3)])  # memoized
    E = IntervalSet.from_intervals([(0, 1), (2, 3)])
    T = QuadOperator(E, E.indicator(ExactComplex.of(Fraction(1, 2))), phi)
    assert T.phi == phi.restrict(E) != phi
    assert T.phi.domain() == E
    # and leaves a map whose domain is E as it is
    assert QuadOperator(E, T.h, T.phi).phi is T.phi
