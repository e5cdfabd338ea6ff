"""The containment test and the seeded draws against their references.

``IntervalSet.contains_set`` and ``QuadOperator``'s invariant check are one
two-pointer pass over interval ends; ``ref_contains`` reads containment off
``reference_sweep``'s cells instead: no cell lies in the inner set alone.
``random_step_function`` and ``random_injective_operator`` build their ends
and values from the rng's ints; ``ref_step_function`` and
``ref_injective_operator`` divide ``Fraction`` numbers.  The new code must give
the same answers, the same exceptions and the same objects, down to their
types and internal ints.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfock import (FockConfig, IntervalSet, PiecewiseAffineMap, QuadOperator, StepFunction,
                      UnconvergedError)
from quadfock.families import random_injective_operator, random_step_function
from quadfock.fock import _Signature, exp_inner_series
from quadfock.scalars import ExactComplex, _frac
from quadfock.stepfn import _images_overlap

from _reference import (CFGS, PAIRS, interval_segments, reference_series, reference_signature,
                        reference_sweep)

# --- references --------------------------------------------------------------


def ref_contains(outer: IntervalSet, inner: IntervalSet) -> bool:
    cells = reference_sweep(interval_segments(inner), interval_segments(outer))
    return not any(x and not y for _, _, x, y in cells)


def ref_operator_check(E, h, phi):
    """The invariant check of ``QuadOperator`` through ``ref_contains``."""
    if not ref_contains(E, h.support()):
        raise ValueError("supp(h) must be contained in E")
    if not ref_contains(phi.domain(), E):
        raise ValueError("phi's domain must cover E")


def ref_step_function(rng, max_abs=0.3, span=4, exact=False):
    denom = 32
    bound = max(int(max_abs * denom / 1.4142135623730951), 1)
    n_segs = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(0, 4 * span + 1), 2 * n_segs))
    segs = []
    for i in range(n_segs):
        l = _frac(cuts[2 * i]) / 4
        r = _frac(cuts[2 * i + 1]) / 4
        re = _frac(rng.randint(-bound, bound)) / denom
        im = _frac(rng.randint(-bound, bound)) / denom
        if re == 0 and im == 0:
            re = _frac(1) / denom
        v = ExactComplex(re, im) if exact else complex(re, im)
        segs.append((l, r, v))
    return StepFunction.from_segments(segs)


REF_SLOPES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]


def ref_injective_operator(rng, exact=False):
    for _ in range(200):
        n = rng.randint(1, 2)
        cuts = sorted(rng.sample(range(-8, 9), 2 * n))
        pieces = []
        for i in range(n):
            l, r = _frac(cuts[2 * i]), _frac(cuts[2 * i + 1])
            a = rng.choice(REF_SLOPES)
            b = Fraction(rng.randint(-4, 4))
            pieces.append((l, r, a, b))
        phi = PiecewiseAffineMap.from_pieces(pieces)
        if _images_overlap(phi):
            continue
        E = phi.domain()
        h_segs = []
        for l, r in E.intervals:
            re = _frac(rng.randint(-8, 8)) / 16
            im = _frac(rng.randint(-8, 8)) / 16
            if re == 0 and im == 0:
                re = _frac(1) / 2
            v = ExactComplex(re, im) if exact else complex(re, im)
            h_segs.append((l, r, v))
        h = StepFunction.from_segments(h_segs)
        return QuadOperator(E, h, phi)
    raise RuntimeError("failed to draw an injective operator")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# --- inputs on the grid k/4 --------------------------------------------------

# a layout is a start and a list of (width, value) cells, laid end to end;
# value 0 is a gap, so cells touch with equal or unequal values
layouts = st.tuples(
    st.integers(-8, 8),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), max_size=6))


def cells(layout):
    x, out = layout[0], []
    for width, value in layout[1]:
        if value:
            out.append((Fraction(x, 4), Fraction(x + width, 4), value))
        x += width
    return out


def laid_out(layout) -> IntervalSet:
    return IntervalSet.from_intervals((l, r) for l, r, _ in cells(layout))


# or any intervals at all, overlapping and nested among them
scattered = st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 8)), max_size=5).map(
    lambda ivs: IntervalSet.from_intervals((Fraction(a, 4), Fraction(a + w, 4)) for a, w in ivs))
interval_sets = st.one_of(layouts.map(laid_out), scattered)


def iv(*pairs) -> IntervalSet:
    return IntervalSet.from_intervals((Fraction(a, 4), Fraction(b, 4)) for a, b in pairs)


# --- contains_set -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(interval_sets, interval_sets)
@example(iv(), iv())  # empty in empty
@example(iv((0, 4)), iv())  # empty in anything
@example(iv(), iv((0, 1)))
@example(iv((0, 2), (2, 4)), iv((1, 3)))  # touching intervals are merged
@example(iv((0, 2), (3, 4)), iv((1, 4)))  # a gap of one grid cell
@example(iv((0, 2), (3, 4)), iv((0, 2), (3, 4)))
@example(iv((0, 2), (3, 4)), iv((2, 3)))  # exactly the gap
@example(iv((0, 8)), iv((1, 2), (3, 4), (7, 8)))  # nested
@example(iv((1, 2), (3, 4), (7, 8)), iv((0, 8)))
@example(iv((0, 1)), iv((1, 2)))  # disjoint, touching
@example(iv((0, 1)), iv((5, 6)))  # disjoint, apart
@example(iv((0, 1), (5, 6)), iv((0, 1), (5, 7)))  # the last interval sticks out
@example(iv((0, 1), (5, 6)), iv((-1, 1)))  # the first one does
def test_contains_set_matches_intersection(outer, inner):
    assert outer.contains_set(inner) == ref_contains(outer, inner)


# --- the QuadOperator invariant ------------------------------------------------


def _operator_cases():
    E = [(0, 4)]
    return [
        (E, [(0, 2, 1), (2, 4, 2)], [(0, 4)]),  # touching weight segments
        (E, [(0, 2, 1), (2, 5, 2)], [(0, 4)]),  # supp(h) sticks out of E
        ([(0, 2), (3, 4)], [(1, 4, 1)], [(0, 4)]),  # supp(h) crosses a gap of E
        ([(0, 2), (3, 4)], [(1, 2, 1), (3, 4, 1)], [(0, 2), (3, 4)]),
        ([(0, 2), (3, 4)], [(1, 2, 1)], [(0, 2)]),  # dom phi misses a piece of E
        (E, [], [(0, 1), (1, 4)]),  # touching pieces cover E
        (E, [], [(0, 1), (2, 4)]),  # a gap of one grid cell in dom phi
        ([], [], []),
        ([], [(0, 1, 1)], [(0, 1)]),
        (E, [(0, 1, 1)], [(-4, 8)]),  # dom phi larger than E
    ]


def _build(E, h, pieces):
    return (iv(*E), StepFunction.from_segments(
        [(Fraction(l, 4), Fraction(r, 4), v) for l, r, v in h]),
        PiecewiseAffineMap.from_pieces((Fraction(l, 4), Fraction(r, 4), 1, 0) for l, r in pieces))


def _same_outcome(E, h, phi):
    expected = outcome(ref_operator_check, E, h, phi)
    got = outcome(QuadOperator, E, h, phi)
    if expected is None:
        assert isinstance(got, QuadOperator)
        assert got.phi == (phi if phi.domain() == E else phi.restrict(E))
    else:
        assert got == expected


@pytest.mark.parametrize("E, h, pieces", _operator_cases())
def test_operator_check_listed_cases(E, h, pieces):
    _same_outcome(*_build(E, h, pieces))


@settings(max_examples=300, deadline=None)
@given(interval_sets, layouts, layouts)
def test_operator_check_matches_reference(E, h_layout, phi_layout):
    h = StepFunction.from_segments(cells(h_layout))
    phi = PiecewiseAffineMap.from_pieces((l, r, 1, 0) for l, r, _ in cells(phi_layout))
    _same_outcome(E, h, phi)


# --- the seeded draws ----------------------------------------------------------


def _value_key(v):
    if isinstance(v, ExactComplex):
        return ExactComplex, v._a, v._b, v._d
    return type(v), repr(v)


def _step_key(f: StepFunction):
    assert all(type(l) is Fraction and type(r) is Fraction for l, r, _ in f.segments)
    return [(l, r, _value_key(v)) for l, r, v in f.segments]


def _operator_key(T: QuadOperator):
    assert all(type(x) is Fraction for piece in T.E.intervals for x in piece)
    pieces = [(p.left, p.right, p.slope, p.intercept) for p in T.phi.pieces]
    assert all(type(x) is Fraction for piece in pieces for x in piece)
    return T.E.intervals, _step_key(T.h), pieces


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_draws_match_reference(exact):
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for span in (2, 4, 6):
            f, ref = random_step_function(new, span=span, exact=exact), \
                ref_step_function(old, span=span, exact=exact)
            assert f == ref and _step_key(f) == _step_key(ref)
        T, ref = random_injective_operator(new, exact=exact), ref_injective_operator(old, exact=exact)
        assert T == ref and _operator_key(T) == _operator_key(ref)
        assert new.getstate() == old.getstate()  # the same rng calls


class Overlapping:
    """An rng whose every draw is two slope-1 pieces, [0, 1) with intercept 0
    and [2, 3) with intercept -2, which share the image [0, 1)."""

    def __init__(self):
        self.intercepts = itertools.cycle([0, -2])

    def randrange(self, start, stop):
        return 2 if (start, stop) == (1, 3) else next(self.intercepts)

    def sample(self, population, k):
        return [0, 1, 2, 3]

    def choice(self, seq):
        return seq[0]


def test_injective_draw_gives_up_after_200_overlaps():
    with pytest.raises(RuntimeError, match="failed to draw an injective operator"):
        random_injective_operator(Overlapping())


# --- a float pair hands its sup norms to the series -----------------------------

# at depth 4 with tol 1 the tail bound is d_5 / (1 - r), which moves with the
# last bit of rho; at depth 40 the summation error hides it.  A tol of 1 stops
# the series at depth 1, so SHALLOW is summed at its fixed depth.
SHALLOW = FockConfig(c=1.0, depth=4, tol=1.0)


def _wide_pair(seed):
    rng = random.Random(seed)
    return [[(k, k + 1, complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
             for k in range(3)] for _ in range(2)]


@pytest.mark.parametrize("f_segs, g_segs", [pair[2:] for pair in PAIRS]
                         + [_wide_pair(seed) for seed in range(40)])
def test_series_reads_the_admissibility_sup_norms(f_segs, g_segs):
    # the sup norms only test admissibility; the tail reads rho = max|u| off
    # the signature, as the reference does, and matches it in every bit
    f, g = StepFunction.from_segments(f_segs), StepFunction.from_segments(g_segs)
    sig = reference_signature(f, g)
    for cfg, fixed in [*((cfg, False) for cfg in CFGS), (SHALLOW, True)]:
        ref = reference_series(sig, cfg, fixed)
        try:
            got = _Signature.admissible(f, g).series(cfg, fixed)
        except UnconvergedError:  # the reference does not check the tol
            assert ref[1] > cfg.tol
        else:
            assert repr(got) == repr(ref)
            if not fixed:
                assert repr(exp_inner_series(f, g, cfg)) == repr(ref[:2])
