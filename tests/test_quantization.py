import math
import random
from fractions import Fraction

import pytest

from quadfock import (
    DomainError,
    FockConfig,
    IntervalSet,
    NonInjectiveError,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    adjoint_operator,
    apply_operator,
    boundedness_report,
    check_l2_contraction,
    check_selfadjoint_numeric,
    check_selfadjoint_structure,
    counterexample_report,
    dilation_operator,
    gamma2_matrix_element,
    inner,
    lemma4_derivative_check,
    moments,
    n_particle_table,
    window_radius,
)
from quadfock.families import (
    random_family,
    random_injective_operator,
    reflection_operator,
)
from quadfock.quantization import check_contraction_gram, check_homomorphism_powers
from quadfock.scalars import ExactComplex

from _reference import identity_map, slope_one_class

CFG = FockConfig()
CFG_EXACT = FockConfig(c=Fraction(1))


def chi(l, r, v=1.0 + 0j):
    return StepFunction.indicator(l, r, v)


QUARTER = chi(0, 1, 0.25 + 0j)  # the CLI's default input, (1/4) chi_[0,1)


def identity_operator(l, r, one=1.0 + 0j):
    e = IntervalSet.from_intervals([(l, r)])
    return QuadOperator(e, e.indicator(one), identity_map(e))


class TestApply:
    def test_zero_weight_kills_everything(self):
        e = IntervalSet.from_intervals([(0, 1)])
        T = QuadOperator(e, StepFunction.zero(), identity_map(e))
        assert apply_operator(T, chi(0, 1, 3 + 1j)).is_zero()

    def test_reflection_fixes_constants(self):
        T = reflection_operator(1.0)
        f = chi(0, 1, 0.3 + 0.1j)
        assert apply_operator(T, f) == f

    def test_sup_norm_contracts_with_bounded_weight(self):
        T = reflection_operator(0.9)
        f = chi(0, 1, 0.4 + 0j)
        assert apply_operator(T, f).sup_norm() <= 0.9 * f.sup_norm() + 1e-15

    def test_construction_validates_support(self):
        e = IntervalSet.from_intervals([(0, 1)])
        with pytest.raises(ValueError):
            QuadOperator(e, chi(0, 2), identity_map(e))


class TestAdjoint:
    def test_dilation_adjoint_formula(self):
        # T: f -> f(2.)  has  T*: g -> (1/2) g(./2)
        T = dilation_operator(2, 1.0 + 0j)
        T_star = adjoint_operator(T)
        g = chi(0, 1)
        assert apply_operator(T, g) == chi(0, Fraction(1, 2))  # T halves the support
        assert apply_operator(T_star, g) == chi(0, 2, 0.5 + 0j)

    def test_reflection_is_pairing_symmetric(self):
        T = reflection_operator(Fraction(9, 10), exact=True)
        f = chi(0, 1, ExactComplex(Fraction(1, 3), Fraction(1, 5)))
        g = chi(0, 1, ExactComplex(Fraction(-1, 4), Fraction(1, 7)))
        assert inner(apply_operator(T, f), g) == inner(f, apply_operator(T, g))
        # and the computed adjoint acts identically
        T_star = adjoint_operator(T)
        assert apply_operator(T_star, f) == apply_operator(T, f)

    def test_identity_restriction_is_selfadjoint(self):
        T = identity_operator(0, 1)
        T_star = adjoint_operator(T)
        f = chi(-1, 2, 0.5 + 0.5j)
        assert apply_operator(T_star, f) == apply_operator(T, f) == chi(0, 1, 0.5 + 0.5j)

    @pytest.mark.parametrize("seed", range(20))
    def test_pairing_identity_exact(self, seed):
        rng = random.Random(seed)
        T = random_injective_operator(rng, exact=True)
        T_star = adjoint_operator(T)
        f = random_family(rng, 1, exact=True, span=6)[0]
        g = random_family(rng, 1, exact=True, span=6)[0]
        assert inner(apply_operator(T, f), g) == inner(f, apply_operator(T_star, g))

    @pytest.mark.parametrize("seed", range(10))
    def test_double_adjoint_acts_like_original(self, seed):
        rng = random.Random(100 + seed)
        T = random_injective_operator(rng, exact=True)
        T2 = adjoint_operator(adjoint_operator(T))
        for _ in range(3):
            f = random_family(rng, 1, exact=True, span=6)[0]
            assert apply_operator(T2, f) == apply_operator(T, f)

    def test_noninjective_rejected(self):
        e = IntervalSet.from_intervals([(0, 2)])
        phi = PiecewiseAffineMap.from_pieces([(0, 1, 1, 0), (1, 2, -1, 2)])
        T = QuadOperator(e, e.indicator(1.0 + 0j), phi)
        with pytest.raises(NonInjectiveError):
            adjoint_operator(T)


class TestHomomorphismPowers:
    def test_dilation_is_power_homomorphism(self):
        T = dilation_operator(8, 1.0 + 0j)
        f = StepFunction.from_segments([(0, 1, 0.25 + 0j), (1, 2, -0.25 + 0j)])
        rep = check_homomorphism_powers(T, f, 3)
        assert all(rep.operator_equal.values())
        # but the adjoint carries the weight 1/2, so powers disagree
        assert not any(rep.adjoint_equal.values())

    def test_adjoint_square_witness_ratio(self):
        T = dilation_operator(2, 1.0 + 0j)
        T_star = adjoint_operator(T)
        g = chi(0, 1)
        lhs = apply_operator(T_star, g ** 2)   # (1/2) g^2(./2)
        rhs = apply_operator(T_star, g) ** 2   # (1/4) g^2(./2)
        assert lhs == rhs.scale(2)

    def test_needs_two_powers(self):
        with pytest.raises(ValueError, match="^M must be >= 2$"):
            check_homomorphism_powers(identity_operator(0, 1), chi(0, 1, 0.25 + 0j), 1)

    def test_identity_operator_powers_agree(self):
        T = identity_operator(0, 3)
        f = StepFunction.from_segments([(0, 1, 1j), (2, 3, 2 + 0j)])
        rep = check_homomorphism_powers(T, f, 4)
        assert all(rep.operator_equal.values())
        assert all(rep.adjoint_equal.values())


class TestGamma2:
    def test_identity_window_reduces_to_plain_inner(self):
        from quadfock import exp_inner_closed
        T = identity_operator(-4, 4)
        f = chi(0, 1, 0.25 + 0j)
        g = chi(0, 2, 0.1 - 0.2j)
        assert gamma2_matrix_element(T, f, g, CFG) == exp_inner_closed(f, g, CFG)

    def test_dilation_closed_form(self):
        f = chi(0, 1, 0.25 + 0j)
        T = dilation_operator(window_radius(f), 1.0 + 0j)
        assert gamma2_matrix_element(T, f, f, CFG) == pytest.approx(0.75 ** -0.25)

    def test_adjoint_dilation_closed_form(self):
        f = chi(0, 1, 0.25 + 0j)
        T_star = adjoint_operator(dilation_operator(window_radius(f), 1.0 + 0j))
        got = gamma2_matrix_element(T_star, f, f, CFG).conjugate()
        assert got == pytest.approx((7 / 8) ** -0.5)

    def test_inadmissible_input_rejected(self):
        T = identity_operator(-4, 4)
        with pytest.raises(DomainError):
            gamma2_matrix_element(T, chi(0, 1, 0.6 + 0j), chi(0, 1, 0.1 + 0j), CFG)


class TestSelfAdjointStructure:
    def test_reflection_class_passes(self):
        rep = check_selfadjoint_structure(reflection_operator(0.9))
        assert rep.verdict
        assert rep.to_dict()["verdict"] is True

    def test_dilation_fails_involutivity_and_image(self):
        T = dilation_operator(1, 1.0 + 0j)
        rep = check_selfadjoint_structure(T)
        assert not rep.involutive
        assert not rep.maps_into
        assert not rep.verdict

    def test_overweight_fails_bound(self):
        e = IntervalSet.from_intervals([(0, 1)])
        T = QuadOperator(e, chi(0, 1, 1.2 + 0j), identity_map(e))
        rep = check_selfadjoint_structure(T)
        assert not rep.weight_bounded
        assert rep.involutive and rep.maps_into

    def test_complex_weight_needs_symmetry(self):
        # constant complex weight with identity map: conj(h) != h o phi
        e = IntervalSet.from_intervals([(0, 1)])
        T = QuadOperator(e, chi(0, 1, 0.5j), identity_map(e))
        rep = check_selfadjoint_structure(T)
        assert not rep.weight_symmetric

    def test_complex_weight_symmetric_under_reflection(self):
        # h and conj(h) swapped by the reflection: h(x) = i on [0,1/2), -i on [1/2,1)
        e = IntervalSet.from_intervals([(0, 1)])
        h = StepFunction.from_segments([(0, Fraction(1, 2), 0.5j),
                                        (Fraction(1, 2), 1, -0.5j)])
        phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
        rep = check_selfadjoint_structure(QuadOperator(e, h, phi))
        assert rep.verdict


# phi swaps [0, 1) and [1, 3) by x -> 2x + 1 and its inverse; h = a on [0, 1)
# and conj(a)/2 on [1, 3), with a = (1 + i)/2
SWAP = {"E": [[0, 3]], "h": [[0, 1, 0.5, 0.5], [1, 3, 0.25, -0.25]],
        "phi": [[0, 1, 2, 1], [1, 3, 0.5, -0.5]]}
# phi folds [-1, 0) onto [0, 1) by x -> -x, and is the identity on [0, 1)
FOLD = {"E": [[-1, 1]], "h": [[-1, 1, 0.25, 0]], "phi": [[-1, 0, -1, 0], [0, 1, 1, 0]]}
CFG_3_7 = FockConfig(c=Fraction(3, 7))


def exact_value(rng):
    return ExactComplex(Fraction(rng.randint(-4, 4), 16), Fraction(rng.randint(-4, 4), 16))


def random_cells(rng, lo, hi, width=Fraction(1, 4)):
    """An exact step function with a random value, zero or not, on each cell
    [lo + j width, lo + (j + 1) width) of [lo, hi)."""
    cuts = [lo + j * width for j in range(int((hi - lo) / width) + 1)]
    return StepFunction.from_segments((l, r, exact_value(rng)) for l, r in zip(cuts, cuts[1:]))


def a_table(f, g, n_max=4, cfg=CFG_3_7):
    return n_particle_table(moments(f, g, n_max), n_max, cfg)


def a_symmetric(T, pairs):
    """Whether a_n(T f, g) = a_n(f, T g) for n = 0..4 on every pair."""
    return all(a_table(apply_operator(T, f), g) == a_table(f, apply_operator(T, g))
               for f, g in pairs)


def structural(rep):
    """The structural conditions of a report, less the weight bound."""
    return rep.involutive and rep.maps_into and rep.measure_preserving and rep.weight_symmetric


class TestHermitian:
    def test_agrees_with_a_n_symmetry_on_the_slope_one_class(self):
        # both directions: every operator the test calls Hermitian has
        # a_n(T f, g) = a_n(f, T g) for n <= 4 on six pairs, and every other
        # one has a pair that parts them
        rng = random.Random(28)
        seen = set()
        ops = list(slope_one_class())
        assert len(ops) == 288
        for T in ops:
            rep = check_selfadjoint_structure(T)
            pairs = [(random_cells(rng, 0, 2), random_cells(rng, 0, 2)) for _ in range(6)]
            assert rep.hermitian == a_symmetric(T, pairs), T
            seen.add(rep.witness["k"])
            # the structural conditions, less the weight bound, say the same,
            # h = 0 on a cell or on both included: they read T on supp h
            assert rep.hermitian == structural(rep), T
        # with |phi'| = 1, T_1 = T_1* forces T_2 = T_2*: k = 2 needs a slope
        # other than +-1, as in the swap below
        assert seen == {0, 1}

    def test_structure_agrees_on_weights_cut_to_one_segment(self):
        # each draw as it is and with h cut to its first segment, so that
        # supp h is smaller than E wherever E has two intervals
        rng = random.Random(7)
        cut = 0
        for _ in range(400):
            T = random_injective_operator(rng, exact=True)
            T_cut = QuadOperator(T.E, StepFunction(T.h.segments[:1]), T.phi)
            cut += T_cut.h != T.h
            for op in (T, T_cut):
                rep = check_selfadjoint_structure(op)
                assert rep.hermitian == structural(rep), op
        assert cut > 100

    def test_random_injective_operators(self):
        # where the test says Hermitian, the a_n agree on random pairs; where
        # it does not, its witness cell I is nonempty and a pair with g on I
        # parts a_1 or a_2
        rng = random.Random(7)
        for _ in range(400):
            T = random_injective_operator(rng, exact=True)
            rep = check_selfadjoint_structure(T)
            ends = [x for iv in (*T.E.intervals, *T.phi.image().intervals) for x in iv]
            lo, hi = math.floor(min(ends)), math.ceil(max(ends))
            if rep.hermitian:
                pairs = [(random_cells(rng, lo, hi), random_cells(rng, lo, hi))
                         for _ in range(3)]
                assert a_symmetric(T, pairs)
                continue
            assert rep.witness["k"] in (1, 2)
            l, r = rep.witness["cell"]
            assert l < r
            g = chi(l, r, ExactComplex.of(0.25))
            assert any(a_table(apply_operator(T, f), g, 2) != a_table(f, apply_operator(T, g), 2)
                       for f in (random_cells(rng, lo, hi, Fraction(1, 2)) for _ in range(3)))

    def test_self_adjoint_swap_whose_quantization_is_not_hermitian(self):
        T = QuadOperator.from_json(SWAP, exact=True)
        rep = check_selfadjoint_structure(T)
        assert rep.witness == {"k": 2, "cell": (0, 1)}
        assert not rep.hermitian and not rep.verdict
        assert adjoint_operator(T) == T  # T = T* on L^2
        assert boundedness_report(T, CFG_EXACT).verdict == "contraction"
        f = chi(0, 1, ExactComplex.of(0.25))
        g = chi(1, 3, ExactComplex.of(0.25))
        lhs = a_table(apply_operator(T, f), g, 2, CFG_EXACT)[2]
        rhs = a_table(f, apply_operator(T, g), 2, CFG_EXACT)[2]
        assert (lhs, rhs) == (ExactComplex(0, Fraction(1, 32)), ExactComplex(0, Fraction(3, 64)))

    @pytest.mark.parametrize("exact", [False, True])
    def test_weight_two_is_hermitian_but_unbounded(self, exact):
        rep = check_selfadjoint_structure(reflection_operator(2, exact=exact))
        assert rep.hermitian and rep.witness == {"k": 0, "cell": None}
        assert not rep.weight_bounded and not rep.verdict

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_fold_is_a_witness_not_an_error(self, exact):
        T = QuadOperator.from_json(FOLD, exact=exact)
        with pytest.raises(NonInjectiveError):
            adjoint_operator(T)
        rep = check_selfadjoint_structure(T)
        assert rep.witness == {"k": 1, "cell": (0, 1)}
        assert not rep.measure_preserving and not rep.verdict

    def test_a_fold_off_supp_h_does_not_count(self):
        # h vanishes on [-1, 0), so T, and every condition, reads phi on
        # [0, 1) only, the identity
        h = StepFunction.indicator(0, 1, ExactComplex.of(0.25))
        T = QuadOperator(IntervalSet.from_intervals([(-1, 1)]), h,
                         PiecewiseAffineMap.from_json(FOLD["phi"]))
        rep = check_selfadjoint_structure(T)
        assert rep.hermitian and rep.verdict
        assert structural(rep)

    def test_zero_weight_is_hermitian_whatever_phi(self):
        # T = 0 reads phi nowhere, so every structural condition holds
        T = dilation_operator(2, ExactComplex.of(1))
        rep = check_selfadjoint_structure(QuadOperator(T.E, StepFunction.zero(), T.phi))
        assert rep.hermitian and rep.verdict
        assert structural(rep) and rep.weight_bounded


class TestSelfAdjointNumeric:
    def test_reflection_exact_defects_vanish(self):
        T = reflection_operator(Fraction(9, 10), exact=True)
        fam = random_family(random.Random(42), 4, exact=True)
        rep = check_selfadjoint_numeric(T, fam, CFG_EXACT)
        assert rep.defect < 1e-12

    def test_dilation_default_pair_gap(self):
        f = chi(0, 1, 0.25 + 0j)
        T = dilation_operator(window_radius(f), 1.0 + 0j)
        rep = check_selfadjoint_numeric(T, [f], CFG)
        assert rep.defect >= abs(0.75 ** -0.25 - (7 / 8) ** -0.5) - 1e-12
        assert rep.defect > 5e-3

    def test_zero_operator_trivial(self):
        e = IntervalSet.from_intervals([(0, 1)])
        T = QuadOperator(e, StepFunction.zero(), identity_map(e))
        rep = check_selfadjoint_numeric(T, [chi(0, 1, 0.25 + 0j)], CFG)
        assert rep.defect == 0.0

    @pytest.mark.parametrize("v, message", [
        (0.6, "family member 0 or its image is inadmissible"),
        (0.3, "adjoint image of member 0 is inadmissible")])
    def test_member_or_image_beyond_the_radius(self, v, message):
        # phi(x) = x / 2 on [0, 2), h = 0.9: at v = 0.3, T f = 0.27 on [0, 2)
        # is inside the radius, T* f = 0.9 * 2 * 0.3 = 0.54 on [0, 1/2) is not
        e = IntervalSet.from_intervals([(0, 2)])
        phi = PiecewiseAffineMap.from_pieces([(0, 2, Fraction(1, 2), 0)])
        T = QuadOperator(e, e.indicator(0.9 + 0j), phi)
        with pytest.raises(DomainError, match=f"^{message}$"):
            check_selfadjoint_numeric(T, [chi(0, 1, v + 0j)], CFG)


class TestDerivativeCheck:
    def test_single_function_hand_value(self):
        # q(t) = (1 - t/4)^(-1/2), q'(0) = 1/8 = 2 c ||f||^2
        f = chi(0, 1, 0.25 + 0j)
        rep = lemma4_derivative_check([f], [1.0], CFG)
        assert rep.derivative == 0.125
        assert rep.rel_error == 0.0
        assert rep.ratio_to_stated == 2.0

    def test_exact_family_gives_an_exact_report(self):
        f = chi(0, Fraction(1, 3), ExactComplex(Fraction(1, 5), Fraction(1, 7)))
        g = chi(Fraction(1, 6), 1, ExactComplex(Fraction(-1, 3), 0))
        # the zero member's b_1 with itself is a float: two zero functions carry no value
        rep = lemma4_derivative_check([f, g, StepFunction.zero()], [1.0, 0.5 - 0.25j, 2.0],
                                      FockConfig(c=Fraction(3, 7)))
        assert isinstance(rep.derivative, Fraction)
        assert rep.derivative == rep.expected == 2 * rep.expected_as_stated
        assert rep.abs_error == 0 and rep.ratio_to_stated == 2

    def test_zero_coefficients(self):
        f = chi(0, 1, 0.25 + 0j)
        rep = lemma4_derivative_check([f], [0.0], CFG)
        assert rep.derivative == 0.0

    def test_cancelling_combination(self):
        f = chi(0, 1, 0.25 + 0j)
        rep = lemma4_derivative_check([f, f.scale(-1)], [1.0, 1.0], CFG)
        assert rep.expected == 0.0
        assert rep.derivative == 0.0

    def test_family_and_coeffs_of_unequal_length(self):
        with pytest.raises(ValueError, match="^family and coeffs must have equal length$"):
            lemma4_derivative_check([chi(0, 1, 0.25 + 0j)], [1.0, 1.0], CFG)

    def test_float_c_beyond_the_doubles(self):
        # an empty family first reads c as a double in the norm; a float
        # family, zero functions too, raises earlier, in the n-particle table's c / n
        for family in ([], [StepFunction.zero()] * 2):
            with pytest.raises(DomainError, match="exceeds double precision"):
                lemma4_derivative_check(family, [1.0] * len(family),
                                        FockConfig(c=Fraction(10 ** 400)))


class TestContraction:
    def test_identity_gives_zero_difference(self):
        T = identity_operator(-4, 4)
        fam = random_family(random.Random(1), 3)
        rep = check_contraction_gram(T, fam, CFG)
        assert rep.psd
        assert rep.min_eig == pytest.approx(0.0, abs=1e-12)

    def test_dilation_dominates(self):
        fam = random_family(random.Random(3), 3)
        T = dilation_operator(window_radius(*fam), 1.0 + 0j)
        rep = check_contraction_gram(T, fam, CFG)
        assert rep.psd and rep.min_eig >= -1e-10

    def test_dilation_l2_ratio(self):
        fam = random_family(random.Random(4), 5)
        T = dilation_operator(window_radius(*fam), 1.0 + 0j)
        rep = check_l2_contraction(T, fam)
        for r in rep.ratios:
            assert r == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_strict_restriction_loses_mass(self):
        T = identity_operator(0, 1)
        f = chi(0, 2, 0.3 + 0j)
        rep = check_l2_contraction(T, [f])
        assert rep.max_ratio < 1


class TestCounterexample:
    def test_zero_input_no_gap(self):
        z = StepFunction.zero()
        rep = counterexample_report(CFG, z, z)
        assert rep.lhs == rep.rhs == 1
        assert rep.gap == 0

    def test_c_scaling(self):
        # the default pair: (3/4)^(-c/4) against (7/8)^(-c/2), and their series
        for c in (1.0, 2.0):
            rep = counterexample_report(FockConfig(c=c), QUARTER, QUARTER)
            lhs, rhs = 0.75 ** (-c / 4), (7 / 8) ** (-c / 2)
            assert rep.lhs == pytest.approx(lhs)
            assert rep.rhs == pytest.approx(rhs)
            assert rep.gap == pytest.approx(abs(lhs - rhs), rel=1e-9)
            assert abs(rep.lhs - rep.lhs_series) < 1e-10
            assert abs(rep.rhs - rep.rhs_series) < 1e-10

    def test_moment_witness(self):
        # m_1 = 1/32 on both sides, then m_2 = 1/512 against 1/1024; dyadic,
        # so the doubles are exact
        rep = counterexample_report(CFG, QUARTER, QUARTER)
        assert rep.moment_witness == {"k": 2, "lhs_m": 1 / 512, "rhs_m": 1 / 1024,
                                      "lhs_a": 5 / 128, "rhs_a": 3 / 128}
        assert all(type(v) is complex for v in list(rep.moment_witness.values())[1:])

    def test_n_particle_witness_is_exact(self):
        # a_n(T f, g) against a_n(f, T* g), the default pair at c = 1: a_1 =
        # 2c <T f, g> = 2c <f, T* g> agree, and from n = 2 on they part
        one = ExactComplex.of(1)
        f = g = chi(0, 1, one * Fraction(1, 4))
        T = dilation_operator(window_radius(f, g), one)
        lhs = n_particle_table(moments(apply_operator(T, f), g, 6), 6, CFG_EXACT)
        rhs = n_particle_table(moments(f, apply_operator(adjoint_operator(T), g), 6), 6,
                               CFG_EXACT)
        assert [a * 2 ** 20 for a in lhs] == \
            [2 ** 20, 65536, 40960, 69120, 224640, 1193400, 9398025]
        assert [a * 2 ** 20 for a in rhs] == \
            [2 ** 20, 65536, 24576, 23040, 40320, 113400, 467775]
        assert lhs[1] == rhs[1] == Fraction(1, 16)
        assert (lhs[2], rhs[2]) == (Fraction(5, 128), Fraction(3, 128))
        # the report reads the same a_2, and the moments that part them
        rep = counterexample_report(CFG_EXACT, f, g)
        assert rep.moment_witness == {"k": 2, "lhs_m": Fraction(1, 512),
                                      "rhs_m": Fraction(1, 1024),
                                      "lhs_a": lhs[2], "rhs_a": rhs[2]}
        assert all(type(v) is ExactComplex for v in list(rep.moment_witness.values())[1:])

    def test_moment_witness_is_the_first_unequal_a_n(self):
        # seeded exact pairs, a third of them with g moved off the support of
        # T f; a pair with m_2(T f, g) = 0, and one whose u = conj(T f) g takes
        # the values i^j / 16 on equal lengths, so m_2 = m_3 = 0.  The a_n are
        # read independently of the report, up to n = 10, beyond the
        # d + 1 <= 6 moments any of these pairs can need
        rng = random.Random(11)
        one = ExactComplex.of(1)
        pairs = [random_family(rng, 2, exact=True) for _ in range(24)]
        pairs = [(f, StepFunction(tuple((l + 10, r + 10, v) for l, r, v in g.segments))
                  if n % 3 == 0 else g) for n, (f, g) in enumerate(pairs)]
        q = one * Fraction(1, 4)
        i = ExactComplex(0, 1)
        pairs.append((chi(0, 1, q), chi(0, Fraction(1, 4), q)
                      + chi(Fraction(1, 4), Fraction(1, 2), q * i)))
        pairs.append((chi(0, 2, q), sum((chi(Fraction(j, 4), Fraction(j + 1, 4), q * i ** j)
                                         for j in range(4)), StepFunction.zero())))
        seen = set()
        for f, g in pairs:
            T = dilation_operator(window_radius(f, g), one)
            tf, tsg = apply_operator(T, f), apply_operator(adjoint_operator(T), g)
            ks = set()
            for c in (Fraction(1), Fraction(3, 7), Fraction(5, 2)):
                cfg = FockConfig(c=c)
                lhs = n_particle_table(moments(tf, g, 10), 10, cfg)
                rhs = n_particle_table(moments(f, tsg, 10), 10, cfg)
                first = next((n for n in range(11) if lhs[n] != rhs[n]), 0)
                w = counterexample_report(cfg, f, g).moment_witness
                assert w["k"] == first
                if first:
                    assert (w["lhs_a"], w["rhs_a"]) == (lhs[first], rhs[first])
                if first == 2:
                    assert w["lhs_a"] - w["rhs_a"] == 16 * c * (w["lhs_m"] - w["rhs_m"])
                ks.add(first)
            assert len(ks) == 1  # k does not depend on c
            k = ks.pop()
            assert (k > 0) == (not (tf * g).is_zero())  # k > 0 iff T f and g overlap
            seen.add(k)
        assert seen == {0, 2, 3, 4}

    @pytest.mark.parametrize("cfg", [CFG, CFG_EXACT])
    def test_reads_each_sup_norm_once_per_test(self, cfg, monkeypatch):
        # f at the top and once per pairing, T f and T* g once each, g once
        # (7 reads before: each image was read by two tests)
        calls = []
        sup_norm_sq = StepFunction.sup_norm_sq
        monkeypatch.setattr(StepFunction, "sup_norm_sq",
                            lambda f: calls.append(f) or sup_norm_sq(f))
        counterexample_report(cfg, QUARTER, QUARTER)
        assert len(calls) == 5

    @pytest.mark.parametrize("f, g, message", [
        (chi(0, 1, 0.75), chi(0, 1, 0.75), "sup norm of f >= 1/2"),
        (chi(0, 1, 0.25), chi(0, 1, 0.75),
         "sup norm >= 1/2 for argument(s) [1]; exponential vector does not exist"),
    ])
    def test_inadmissible_inputs(self, f, g, message):
        with pytest.raises(DomainError) as info:
            counterexample_report(CFG, f, g)
        assert str(info.value) == message


@pytest.mark.parametrize("f, g, message", [
    (chi(0, 1, 0.75), chi(0, 1, 0.75), "sup norm of f >= 1/2"),
    (chi(0, 1, 0.375), chi(0, 1, 0.75), "sup norm of T f >= 1/2; Gamma_2(T) Psi(f) undefined"),
    (chi(0, 1, 0.125), chi(0, 1, 0.75),
     "sup norm >= 1/2 for argument(s) [1]; exponential vector does not exist"),
])
def test_gamma2_inadmissible_inputs_in_order(f, g, message):
    # a weight of 2 doubles sup|f|: T f fails first where g fails too
    E = IntervalSet.from_intervals([(0, 1)])
    T = QuadOperator(E, E.indicator(2.0 + 0j), identity_map(E))
    with pytest.raises(DomainError) as info:
        gamma2_matrix_element(T, f, g, CFG)
    assert str(info.value) == message


class TestOperatorJson:
    def test_larger_domain_is_restricted(self):
        # dom phi = [-1, 2) is larger than E = [0, 1): the operator holds phi | E
        e = IntervalSet.from_intervals([(0, 1)])
        phi = PiecewiseAffineMap.from_pieces([(-1, 0, 2, 3), (0, 2, -1, 1)])
        T = QuadOperator(e, chi(0, 1, 0.9 + 0j), phi)
        assert T == reflection_operator(0.9)
