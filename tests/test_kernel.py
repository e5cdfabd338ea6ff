"""Every pairwise Fock quantity read off ``value_signature``, against
``reference_sweep``'s cells and a 50-digit oracle.

``refine`` must give the reference cells, ``restrict`` and
``PiecewiseAffineMap.restrict`` what their references read off those cells,
the exact moments ``reference_moments`` of ``reference_signature``, the
signature's total length the overlap of the supports, and the exact and
float backends agree bit for bit on dyadic inputs.  The closed form, the
counter-example and the series tail bound are checked against mpmath at 50
digits on the reference cells.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfock import (
    FockConfig,
    PiecewiseAffineMap,
    UnconvergedError,
    StepFunction,
    counterexample_report,
    exp_inner_closed,
    inner,
    moments,
    n_particle_table,
    restrict,
)
from quadfock.families import random_family
from quadfock.fock import _Signature
from quadfock.scalars import ExactComplex
from quadfock.stepfn import refine, value_signature

from _reference import (mp_closed, mp_number, reference_map_restrict, reference_moments,
                        reference_restrict, reference_signature, reference_sweep)


def ec(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


values = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
    lambda t: ExactComplex(Fraction(t[0], 16), Fraction(t[1], 16)))


@st.composite
def step_functions(draw):
    """Up to 4 segments on the grid k/4 in [0, 6]; consecutive segments may
    touch, and a zero value (dropped by canonicalization) may leave the zero
    function."""
    n = draw(st.integers(0, 4))
    cuts = draw(st.lists(st.integers(0, 24), min_size=n + 1, max_size=n + 1,
                         unique=True).map(sorted)) if n else []
    segs = []
    for l, r in zip(cuts, cuts[1:]):
        if draw(st.booleans()):  # otherwise a gap
            segs.append((Fraction(l, 4), Fraction(r, 4), draw(values)))
    return StepFunction.from_segments(segs)


def chi(l, r, v):
    return StepFunction.indicator(l, r, v)


DISJOINT = (chi(0, 1, ec(Fraction(1, 4))), chi(2, 3, ec(0, Fraction(1, 8))))
TOUCHING = (chi(0, 1, ec(Fraction(1, 4))), chi(1, 2, ec(Fraction(1, 8))))
NESTED = (StepFunction.from_segments([(0, 1, ec(Fraction(1, 4))),
                                      (1, 3, ec(Fraction(-1, 8), Fraction(1, 16)))]),
          chi(Fraction(1, 2), 2, ec(Fraction(3, 16))))
ZERO = (StepFunction.zero(), chi(0, 1, ec(Fraction(1, 4))))


@given(step_functions(), step_functions())
@example(*DISJOINT)
@example(*TOUCHING)
@example(*NESTED)
@example(*ZERO)
@example(StepFunction.zero(), StepFunction.zero())
def test_refine_matches_value_at_scan(f, g):
    # the cells where f or g is nonzero, each with their values at its left
    # end: the one reference sweep of the two segment lists
    assert list(refine(f, g)) == list(reference_sweep(f.segments, g.segments))
    assert list(refine(g, f)) == list(reference_sweep(g.segments, f.segments))


@given(step_functions(), step_functions(), st.integers(1, 6))
@example(*DISJOINT, 3)
@example(*NESTED, 5)
@example(*ZERO, 2)
@settings(max_examples=60)
def test_exact_moments_match_cell_sum(f, g, K):
    entries = moments(f, g, K).entries
    want = reference_moments(reference_signature(f, g), K)
    assert list(entries) == want
    assert list(map(type, entries)) == list(map(type, want))


@given(step_functions(), step_functions())
@example(*NESTED)
@example(*ZERO)
def test_signature_total_length_is_overlap(f, g):
    overlap = sum(r - l for l, r, vf, vg in reference_sweep(f.segments, g.segments) if vf and vg)
    lam, sig = value_signature(f, g)
    assert Fraction(sum(sig.values()), lam) == overlap


@given(step_functions(), step_functions())
@example(*TOUCHING)
@example(*ZERO)
def test_intersect_and_restrict_match_double_loop(f, g):
    # f and a map of one piece per segment of f, cut to the support of g
    e = g.support()
    assert restrict(f, e) == reference_restrict(f, e)
    phi = PiecewiseAffineMap.from_pieces([(l, r, -1, 7) for l, r, _ in f.segments])
    assert phi.restrict(e) == reference_map_restrict(phi, e)


def as_float(f: StepFunction) -> StepFunction:
    return StepFunction.from_json(f.to_json())


@given(step_functions(), step_functions())
@example(*NESTED)
@settings(max_examples=60)
def test_exact_and_float_backends_agree_on_dyadic_inputs(f, g):
    # values k/16 with |k| <= 5 keep sup|f| < 1/2, so the closed form exists
    ff, gf = as_float(f), as_float(g)
    assert complex(inner(f, g)) == pytest.approx(inner(ff, gf), rel=1e-13, abs=1e-15)
    for a, b in zip(moments(f, g, 8).entries, moments(ff, gf, 8).entries):
        assert complex(a) == pytest.approx(b, rel=1e-12, abs=1e-15)
    cfg = FockConfig()
    assert exp_inner_closed(f, g, FockConfig(c=Fraction(1))) == \
        pytest.approx(exp_inner_closed(ff, gf, cfg), rel=1e-13)


@given(step_functions(), step_functions())
@example(*DISJOINT)
@example(*TOUCHING)
@example(*NESTED)
@example(*ZERO)
@settings(max_examples=100)
def test_exact_and_float_backends_are_bit_identical_on_dyadic_inputs(f, g):
    # with breakpoints k/4 and values k/16, |k| <= 5, every length, value u
    # and moment m_k (k <= 8, numerators below 2^53) is a double, so the
    # float backend rounds nothing and both reach the log with the same doubles
    ff, gf = as_float(f), as_float(g)
    exact_m, float_m = moments(f, g, 8).entries, moments(ff, gf, 8).entries
    assert [complex(a) for a in exact_m] == list(float_m)
    assert repr([complex(a) for a in exact_m]) == repr([complex(b) for b in float_m])
    assert repr(exp_inner_closed(f, g, FockConfig(c=Fraction(1)))) == \
        repr(exp_inner_closed(ff, gf, FockConfig()))


# --- 50-digit oracle ---------------------------------------------------------

C_VALUES = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]


@pytest.mark.parametrize("c", C_VALUES)
def test_closed_form_against_mpmath(c):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(int(4 * c))
    cfg = FockConfig(c=float(c))
    for _ in range(10):
        f, g = random_family(rng, 2, max_abs=0.45)
        with mpmath.workdps(50):
            want = complex(mp_closed(mpmath, f, g, c))
        assert cmath.isclose(exp_inner_closed(f, g, cfg), want, rel_tol=1e-13), (f, g)


@pytest.mark.parametrize("c", C_VALUES)
def test_counterexample_against_mpmath(c):
    mpmath = pytest.importorskip("mpmath")
    rep = counterexample_report(FockConfig(c=float(c)))
    with mpmath.workdps(50):
        cm = mpmath.mpf(c.numerator) / c.denominator
        lhs = mpmath.power(mpmath.mpf(3) / 4, -cm / 4)
        rhs = mpmath.power(mpmath.mpf(7) / 8, -cm / 2)
        gap = float(abs(lhs - rhs))
    assert cmath.isclose(rep.lhs, complex(lhs), rel_tol=1e-14)
    assert cmath.isclose(rep.rhs, complex(rhs), rel_tol=1e-14)
    assert rep.gap == pytest.approx(gap, rel=1e-9)


# the probe whose tail the old bound (1 - x)^(-beta) - partial cancelled to 0.0
PROBE = (chi(0, 1, ec(Fraction(1, 100))), chi(0, 1, ec(Fraction(1, 100))))
# a constant pair: b_n equal the dominating coefficients d_n, so the tail
# bound is tight, and with beta = 9 the ratio d_{n+1} / d_n exceeds x
CONSTANT = (chi(0, 6, ec(Fraction(5, 16))), chi(0, 6, ec(Fraction(5, 16))))
# a pair whose max|u| = 7/256 is a seventh of sup|f| sup|g| = 49/256
CROSSED = (StepFunction.from_segments([(0, 1, ec(Fraction(7, 16))), (1, 2, ec(Fraction(1, 16)))]),
           StepFunction.from_segments([(0, 1, ec(Fraction(1, 16))), (1, 2, ec(Fraction(7, 16)))]))


@given(step_functions(), step_functions(), st.sampled_from(C_VALUES), st.integers(1, 30))
@example(*PROBE, Fraction(1), 30)
@example(*CONSTANT, Fraction(3), 20)
@example(*CROSSED, Fraction(3), 4)
@example(*NESTED, Fraction(3), 4)
@example(*DISJOINT, Fraction(1), 2)
@settings(max_examples=60, deadline=None)
def test_series_tail_bound_is_an_upper_bound(f, g, c, N):
    """The tail bound is at least the true tail sum_{n>N} b_n, in both
    backends, and in exact mode it also covers the rounding of the sum."""
    mpmath = pytest.importorskip("mpmath")
    a = n_particle_table(moments(f, g, N), N, FockConfig(c=c))
    b = [an * Fraction(1, math.factorial(n) ** 2) for n, an in enumerate(a)]
    results = {}
    for backend, x, y, cc in [("exact", f, g, c), ("float", as_float(f), as_float(g), float(c))]:
        try:
            # a tol this large would stop the series at depth 1
            cfg = FockConfig(c=cc, depth=N, tol=1e300)
            results[backend] = _Signature.admissible(x, y).series(cfg, fixed=True)[:2]
        except UnconvergedError:  # only when the bound is infinite
            results[backend] = (None, math.inf)
    with mpmath.workdps(50):
        closed = mp_closed(mpmath, f, g, c)
        true_tail = abs(closed - mpmath.fsum(mp_number(bn, mpmath) for bn in b))
        slack = mpmath.mpf(10) ** -45 * max(1, abs(closed))
        for _, tail in results.values():
            assert tail >= true_tail - slack
            assert tail > 0 or f.is_zero() or g.is_zero()
        value, tail = results["exact"]
        if value is not None:
            assert abs(closed - mp_number(value, mpmath)) <= tail + slack


def _adjacent_pair(rng, n):
    """Two float step functions of n adjacent segments on [0, 4) with
    arbitrary breakpoints and values of modulus below 0.43."""
    def steps():
        pts = sorted({rng.uniform(0, 4) for _ in range(n + 1)})
        return StepFunction.from_segments(
            [(l, r, complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
             for l, r in zip(pts, pts[1:])])
    return steps(), steps()


@pytest.mark.parametrize("seed", range(8))
def test_adaptive_series_is_within_its_tail_of_the_closed_form(seed):
    """At the depth it stops at, the float series is within its tail bound of
    the closed form of its own signature, taken to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    f, g = _adjacent_pair(random.Random(f"oracle:{seed}"), 32)
    lam, sig = value_signature(f, g)
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        for tol in (1e-6, 1e-10, 1e-13):
            value, tail, _ = _Signature.admissible(f, g).series(
                FockConfig(c=float(c), depth=400, tol=tol))
            with mpmath.workdps(40):
                total = mpmath.fsum(mpmath.mpf(L) / lam
                                    * mpmath.log(1 - 4 * mpmath.mpc(u)) for u, L in sig.items())
                closed = mpmath.exp(-mpmath.mpf(c.numerator) / c.denominator / 2 * total)
                assert abs(closed - mpmath.mpc(value)) <= tail
