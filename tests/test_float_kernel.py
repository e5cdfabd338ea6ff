"""Differential tests of the float pair path.

A float pair is parsed, swept and read off its value signature with each
length turned into a double once.  Its references are in ``_reference.py``:
the parse (every breakpoint converted through one gcd before any check),
the value signature, the moments as repeated products, the b recursion as
``acc = acc + w b``, the dominating sums, the float series and the closed
form.  Every float must come out ``==`` to the reference and with the same
``repr``, which also pins signed zeros; every bad input must raise the same
exception with the same message.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfock import StepFunction, moments, n_particle_table
from quadfock.fock import _dominating_tails, _Signature
from quadfock.scalars import ExactComplex, _frac
from quadfock.stepfn import value_signature

from _reference import (CFGS, PAIRS, grid_lengths, reference_a, reference_closed,
                        reference_dominating_sum, reference_dominating_tail,
                        reference_from_segments, reference_moments, reference_series,
                        reference_signature)

N_PARTICLES = 8


# --- references --------------------------------------------------------------


def reference_from_json(data, exact=False):
    segs = []
    for item in data:
        l, r, re, im = item
        if any(isinstance(x, float) and not math.isfinite(x) for x in item):
            raise ValueError(f"non-finite number in segment {item!r}")
        v = complex(re, im)
        if exact:
            v = ExactComplex(re, im)
        segs.append((l, r, v))
    return reference_from_segments(segs)


def outcome(fn, *args):
    """The result's repr, or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001  the exception is the outcome
        return type(exc), str(exc)


# --- the float pair path -----------------------------------------------------

PAIR_IDS = [f"N={n}-{layout}-{i % 3}" for i, (n, layout, _, _) in enumerate(PAIRS)]


@pytest.mark.parametrize("n, layout, f_segs, g_segs", PAIRS, ids=PAIR_IDS)
def test_pair_path_matches_reference(n, layout, f_segs, g_segs):
    f = StepFunction.from_segments(f_segs)
    g = StepFunction.from_segments(g_segs)
    assert repr(f) == repr(reference_from_segments(f_segs))
    assert repr(g) == repr(reference_from_segments(g_segs))

    signature = value_signature(f, g)
    sig, ref = grid_lengths(signature), reference_signature(f, g)
    assert sig == ref and repr(sig) == repr(ref)
    assert all(type(length) is int for length in signature[1].values())

    m, ref_m = moments(f, g, N_PARTICLES), reference_moments(ref, N_PARTICLES, 0j)
    assert repr(m.entries) == repr(tuple(ref_m))
    for cfg in CFGS:
        table = n_particle_table(m, N_PARTICLES, cfg)
        assert repr(table) == repr(tuple(reference_a(ref_m, N_PARTICLES, cfg.c)))
        series = _Signature.admissible(f, g).series(cfg)
        assert series == reference_series(ref, cfg)
        assert repr(series) == repr(reference_series(ref, cfg))
        assert repr(_Signature(f, g).closed(cfg)) == repr(reference_closed(ref, cfg))


# --- parsing -----------------------------------------------------------------


MIXED = st.one_of(
    st.integers(-8, 8),
    st.integers(-8, 8).map(lambda k: k / 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    st.integers(-8, 8).map(lambda k: _frac(Fraction(k, 3))),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)
BREAKPOINTS = st.one_of(
    MIXED,
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, -0.0, "a"]),
)
SEG_VALUES = st.sampled_from([0, 1, 0.5, 1j, -0.25 + 0j, complex(-0.0, 0.5), ExactComplex(1, 2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(MIXED, MIXED, SEG_VALUES), max_size=6))
def test_mixed_segments_give_the_same_step_function(segments):
    # sorting each pair gives mostly valid inputs; equal ends are empty intervals
    segments = [(*sorted((l, r)), v) for l, r, v in segments]
    got = outcome(StepFunction.from_segments, segments)
    assert got == outcome(reference_from_segments, segments)
    if isinstance(got, str):
        f = StepFunction.from_segments(segments)
        assert f == reference_from_segments(segments)
        assert all(type(l) is Fraction and type(r) is Fraction for l, r, _ in f.segments)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BREAKPOINTS, BREAKPOINTS, SEG_VALUES), max_size=5))
def test_bad_segments_raise_the_same_exception(segments):
    assert outcome(StepFunction.from_segments, segments) == \
        outcome(reference_from_segments, segments)


SEGMENT_CASES = [
    [(1, 0, 1)],
    [(0, 0, 1)],
    [(0, 2, 1), (1, 3, 2)],
    [(0.5, 2, 1), (Fraction(1), 3, 1)],
    [(math.nan, 1, 1)],
    [(0, math.nan, 1)],
    [(0, math.inf, 1)],
    [(-math.inf, 0, 1)],
    [(0, 1, 0), (0, math.inf, 0)],  # a zero segment's ends are still read
    [(2, 1, 1), (0, math.inf, 1)],  # an unreadable end before an inverted interval
    [(0, math.inf, 1), (1, 2, 1)],  # and before an overlap
    [(10 ** 400, 0, 1)],
    [(0, 10 ** 400, 1), (1, 2, 1)],
    [(0, 10 ** 401, 1), (10 ** 400, 10 ** 402, 1)],  # the overlap message reads 10^400
    [(0, 10 ** 400, 1)],
    [(0, 1, 1), ("a", 2, 1)],
    [(0, 1, 1), (2, 3)],
    [(0, 1, 1), (1.0, 2, 1), (Fraction(2), 3, 1)],  # equal ends in three types merge
]


@pytest.mark.parametrize("segments", SEGMENT_CASES)
def test_segment_edge_cases(segments):
    assert outcome(StepFunction.from_segments, segments) == \
        outcome(reference_from_segments, segments)


JSON_CASES = [
    [[1, 0, 0.1, 0]],
    [[0, 2, 0.1, 0], [1, 3, 0.2, 0]],
    [[math.nan, 1, 0.1, 0]],
    [[0, math.inf, 0.1, 0]],
    [[0, 1, math.nan, 0]],
    [[0, 1, 0.1, -math.inf]],
    [[0, 1, 10 ** 400, 0]],
    [[0, 10 ** 400, 0.1, 0]],
    [[10 ** 400, 0, 0.1, 0]],
    [[0, 1, 0.1, 10 ** 400], [0, 1, math.nan, 0]],  # item by item: too large, then NaN
    [[0, 1, 0, 0], [2, 1, 0.1, 0]],
    [["a", 1, 0.1, 0]],
    [[0, 1, "x", 0]],
    [[0, 1, 0.1]],
    [[0, 1, 0.25, -0.0], [1, 2.5, -0.0, 0.125]],
]


@pytest.mark.parametrize("data", JSON_CASES)
@pytest.mark.parametrize("exact", [False, True])
def test_json_edge_cases(data, exact):
    assert outcome(StepFunction.from_json, data, exact) == \
        outcome(reference_from_json, data, exact)


DOMINATING_GRID = list(itertools.product(
    [0.0, 5e-324, 1e-3, 0.25, 0.7, 0.96875, 1 - 2.0 ** -53],
    [0.0, 5e-324, 0.5, 1.75, 3.0, 1e6], [0, 1, 4, 40, 2000]))


def dominating_at(x, beta, N):
    """(tail, sum) of the one d_n recursion at depth N."""
    return next(itertools.islice(_dominating_tails(x, beta), N, None))


def test_dominating_tail_rounds_as_the_reference():
    for x, beta, N in DOMINATING_GRID:
        tail, _ = dominating_at(x, beta, N)
        assert repr(tail) == repr(reference_dominating_tail(x, beta, N)), (x, beta, N)


def test_dominating_sum_rounds_as_the_reference():
    # the bound of an UnconvergedError at an unreachable cap reads this sum
    for x, beta, N in DOMINATING_GRID:
        _, total = dominating_at(x, beta, N)
        assert repr(total) == repr(reference_dominating_sum(x, beta, N)), (x, beta, N)
