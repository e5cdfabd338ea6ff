import math
from fractions import Fraction

import pytest

from quadfock import (
    IntervalSet,
    NonInjectiveError,
    PiecewiseAffineMap,
    StepFunction,
    compose,
    inner,
    map_invert,
)
from quadfock.scalars import ExactComplex
from quadfock.stepfn import is_measure_preserving, map_compose, restrict, step_allclose

from _reference import identity_map


def chi(l, r, v=1.0 + 0j):
    return StepFunction.indicator(l, r, v)


class TestAlgebra:
    def test_mul_disjoint_supports_is_zero(self):
        assert (chi(0, 1) * chi(1, 2)).is_zero()

    def test_pow_of_complex_indicator(self):
        f = chi(0, 2, 1 + 1j)
        assert f ** 2 == chi(0, 2, 2j)

    def test_additive_inverse(self):
        f = StepFunction.from_segments([(0, 1, 0.5 + 0j), (2, 3, -1j)])
        assert (f + f.scale(-1)).is_zero()

    def test_add_merges_touching_equal_values(self):
        f = chi(0, 1) + chi(1, 2)
        assert f == chi(0, 2)

    def test_zero_valued_segments_dropped(self):
        f = StepFunction.from_segments([(0, 1, 0j), (1, 2, 1 + 0j)])
        assert f == chi(1, 2)

    def test_pow_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            chi(0, 1) ** 0

    def test_construction_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            StepFunction.from_segments([(1, 1, 1 + 0j)])

    def test_sup_and_l2_norms(self):
        f = StepFunction.from_segments([(0, 2, 3 + 4j), (5, 6, 1 + 0j)])
        assert f.sup_norm() == 5.0
        assert f.l2_norm_sq() == 2 * 25 + 1

    def test_sup_norm_of_an_exact_value_beyond_the_doubles(self):
        assert chi(0, 1, ExactComplex(10 ** 400, 0)).sup_norm() == math.inf

    def test_sub(self):
        f = StepFunction.from_segments([(0, 2, 1 + 1j), (3, 4, 0.5 + 0j)])
        assert f - chi(1, 3, 1j) == StepFunction.from_segments(
            [(0, 1, 1 + 1j), (1, 2, 1 + 0j), (2, 3, -1j), (3, 4, 0.5 + 0j)])
        assert (f - f).is_zero()


EXACT_QUARTER = ExactComplex(Fraction(1, 4), 0)


@pytest.mark.parametrize("f, g, tol, close", [
    (chi(0, 2, 0.25 + 0j), chi(0, 2, 0.25 + 0j), 0, True),
    # equal as doubles, unequal exactly
    (chi(0, 2, EXACT_QUARTER), chi(0, 2, EXACT_QUARTER + Fraction(1, 10 ** 30)), 0, False),
    (chi(0, 2, 0.25 + 0j), chi(0, 1, 0.25 + 0j), 0, False),
    (chi(0, 2, 0.25 + 0j), chi(0, 2, 0.2501 + 0j), 1e-3, True),
    (chi(0, 2, 0.25 + 0j), chi(1, 2, 0.26 + 0j) + chi(0, 1, 0.25 + 0j), 1e-3, False),
    # where one side is zero, the other side's value is the difference
    (chi(0, 2, 0.25 + 0j), chi(0, 2, 0.25 + 0j) + chi(2, 3, 1e-4j), 1e-3, True),
    (chi(0, 2, 0.25 + 0j), chi(0, 1, 0.25 + 0j), 1e-3, False),
])
def test_step_allclose(f, g, tol, close):
    assert step_allclose(f, g, tol) is close
    assert step_allclose(g, f, tol) is close


class TestInner:
    def test_unit_indicator(self):
        assert inner(chi(0, 1), chi(0, 1)) == 1

    def test_partial_overlap_conjugates_first_slot(self):
        f = chi(0, 2, 1 + 1j)
        g = chi(1, 3)
        assert inner(f, g) == 1 - 1j

    def test_zero_function(self):
        assert inner(StepFunction.zero(), chi(0, 1)) == 0

    def test_exact_backend(self):
        f = chi(0, 2, ExactComplex(Fraction(1), Fraction(1)))
        g = chi(1, 3, ExactComplex(Fraction(1), Fraction(0)))
        assert inner(f, g) == ExactComplex(Fraction(1), Fraction(-1))

    @pytest.mark.parametrize("v, want, kind", [
        (3, Fraction(45, 2), Fraction),
        (Fraction(1, 3), Fraction(5, 18), Fraction),
        (0.3, 0.3 * 0.3 * 0.5 + 0.3 * 0.6 * 1.0, float),
    ])
    def test_real_values(self, v, want, kind):
        # u = v^2 on [1/2, 1) and u = 2 v^2 on [1, 2)
        f = chi(0, 2, v)
        g = StepFunction.from_segments([(Fraction(1, 2), 1, v), (1, 3, 2 * v)])
        got = inner(f, g)
        assert type(got) is kind and got == want


class TestCompose:
    def test_dilation_pulls_back_support(self):
        phi = PiecewiseAffineMap.from_pieces([(-10, 10, 2, 0)])
        assert compose(chi(0, 1), phi) == chi(0, Fraction(1, 2))

    def test_identity_map(self):
        f = StepFunction.from_segments([(0, 1, 2 + 0j), (1, 3, -1 + 0j)])
        phi = identity_map(f.support())
        assert compose(f, phi) == f

    def test_reflection_of_indicator_onto_itself(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
        assert compose(chi(0, 1), phi) == chi(0, 1)

    def test_outside_map_domain_is_zero(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 1, 0)])
        assert compose(chi(5, 6), phi).is_zero()

    def test_respects_multiplication(self):
        # homomorphism property: (f*g) o phi = (f o phi) * (g o phi)
        f = StepFunction.from_segments([(0, 2, 1 + 2j), (3, 4, -1j)])
        g = StepFunction.from_segments([(1, 3, 2 + 0j)])
        phi = PiecewiseAffineMap.from_pieces([(-8, 0, -2, 1), (0, 8, Fraction(1, 2), -1)])
        assert compose(f * g, phi) == compose(f, phi) * compose(g, phi)


class TestMaps:
    def test_reflection_is_involutive(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
        unit = IntervalSet.from_intervals([(0, 1)])
        assert map_compose(phi, phi) == identity_map(unit)

    def test_invert_dilation(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 2, 0)])
        inv = map_invert(phi)
        assert inv == PiecewiseAffineMap.from_pieces([(0, 2, Fraction(1, 2), 0)])

    def test_compose_dilations(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 8, 2, 0)])
        comp = map_compose(phi, phi)
        (p,) = comp.pieces
        assert p.slope == 4 and p.intercept == 0
        assert (p.left, p.right) == (0, 4)  # needs phi(x) back in [0, 8)

    def test_invert_rejects_overlapping_images(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 1, 0), (1, 2, -1, 2)])
        with pytest.raises(NonInjectiveError):
            map_invert(phi)

    def test_disjoint_domains_required(self):
        with pytest.raises(ValueError):
            PiecewiseAffineMap.from_pieces([(0, 2, 1, 0), (1, 3, 1, 0)])


class TestMeasurePreserving:
    E = IntervalSet.from_intervals([(0, 1)])

    def test_reflection_preserves(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
        assert is_measure_preserving(phi, self.E).ok

    def test_dilation_fails(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 2, 0)])
        rep = is_measure_preserving(phi, self.E)
        assert not rep.ok
        assert not rep.unit_slopes
        assert not rep.maps_into

    def test_translation_out_of_set_fails(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 1, 3)])
        rep = is_measure_preserving(phi, self.E)
        assert rep.unit_slopes and not rep.maps_into

    def test_slopes_are_compared_exactly(self):
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 1 - Fraction(1, 10 ** 20), 0)])
        assert not is_measure_preserving(phi, self.E).unit_slopes


class TestIntervalSet:
    def test_normalization_merges(self):
        e = IntervalSet.from_intervals([(0, 1), (1, 2), (3, 4)])
        assert e.intervals == ((Fraction(0), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_subset_and_measure(self):
        big = IntervalSet.from_intervals([(0, 10)])
        small = IntervalSet.from_intervals([(1, 2), (5, 6)])
        assert big.contains_set(small)
        assert not small.contains_set(big)

    def test_restrict(self):
        f = chi(0, 4, 2 + 0j)
        e = IntervalSet.from_intervals([(1, 2), (3, 8)])
        assert restrict(f, e) == StepFunction.from_segments(
            [(1, 2, 2 + 0j), (3, 4, 2 + 0j)])

