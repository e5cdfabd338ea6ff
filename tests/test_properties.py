"""Property-based tests of the exact step-function algebra."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quadfock import PiecewiseAffineMap, StepFunction, compose, inner
from quadfock.scalars import ExactComplex

rationals = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
values = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda t: ExactComplex(Fraction(t[0], 16), Fraction(t[1], 16)))


@st.composite
def step_functions(draw):
    n = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.integers(0, 32), min_size=2 * n, max_size=2 * n,
                         unique=True).map(sorted))
    segs = []
    for i in range(n):
        l, r = Fraction(cuts[2 * i], 4), Fraction(cuts[2 * i + 1], 4)
        segs.append((l, r, draw(values)))
    return StepFunction.from_segments(segs)


@st.composite
def affine_maps(draw):
    n = draw(st.integers(1, 2))
    cuts = draw(st.lists(st.integers(-16, 16), min_size=2 * n, max_size=2 * n,
                         unique=True).map(sorted))
    pieces = []
    for i in range(n):
        l, r = Fraction(cuts[2 * i]), Fraction(cuts[2 * i + 1])
        a = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(-2), Fraction(1, 2), Fraction(3)]))
        b = Fraction(draw(st.integers(-4, 4)))
        pieces.append((l, r, a, b))
    return PiecewiseAffineMap.from_pieces(pieces)


@given(step_functions(), step_functions())
def test_inner_conjugate_symmetry(f, g):
    assert inner(f, g) == inner(g, f).conjugate() if inner(f, g) != 0 \
        else inner(g, f) == 0


@given(step_functions())
def test_refinement_stability(f):
    # splitting a segment at its midpoint must not change anything observable
    if f.is_zero():
        return
    l, r, v = f.segments[0]
    mid = (l + r) / 2
    split = StepFunction.from_segments(
        [(l, mid, v), (mid, r, v)] + list(f.segments[1:]))
    assert split == f
    assert inner(split, f) == inner(f, f)


@given(step_functions(), step_functions(), affine_maps())
@settings(max_examples=60)
def test_compose_respects_multiplication(f, g, phi):
    assert compose(f * g, phi) == compose(f, phi) * compose(g, phi)


@given(step_functions(), affine_maps())
@settings(max_examples=60)
def test_compose_l2_mass_change_of_variables(f, phi):
    # ||f o phi||^2 = sum over pieces of (1/|a|) * mass of f on the image
    lhs = compose(f, phi).l2_norm_sq()
    rhs = Fraction(0)
    for p in phi.pieces:
        il, ir = p.image()
        from quadfock import IntervalSet
        from quadfock.stepfn import restrict
        masked = restrict(f, IntervalSet.from_intervals([(il, ir)]))
        rhs += masked.l2_norm_sq() / abs(p.slope)
    assert lhs == rhs


@given(step_functions(), step_functions(), step_functions())
def test_inner_additive_in_second_slot(f, g, h):
    assert inner(f, g + h) == inner(f, g) + inner(f, h)


@given(step_functions(), st.integers(1, 4))
def test_pow_matches_repeated_mul(f, k):
    acc = f
    for _ in range(k - 1):
        acc = acc * f
    assert f ** k == acc
