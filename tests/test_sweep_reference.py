"""Reference tests for the two primitives under every pair.

``_sweep`` is one merge of the two sides' ends, returned as a list; it used
to be a generator that re-derived each cell from both current segments.
``StepFunction.from_segments`` reuses the ``_Rat`` of an end shared by two
consecutive segments; it used to convert every end.  The old code is kept
as the reference, the parser's in ``_reference.py``: the new code must give
the same cells, down to the ``_Rat`` objects of their ends, the same
canonical segments and the same exceptions.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfock import IntervalSet, PiecewiseAffineMap, StepFunction
from quadfock.scalars import ExactComplex, _rat, _Rat
from quadfock.stepfn import _canonical_segments, _sweep, restrict, value_signature

from _reference import reference_from_segments

# --- references --------------------------------------------------------------


def ref_sweep(a, b):
    na, nb = len(a), len(b)
    i = j = 0
    x = min(a[0][0], b[0][0]) if na and nb else None  # right end of the last cell
    while i < na and j < nb:
        (al, ar, av), (bl, br, bv) = a[i], b[j]
        lo = al if al < bl else bl
        if lo < x:
            lo = x
        in_a, in_b = al <= lo, bl <= lo
        x = ar if in_a else al
        y = br if in_b else bl
        if y < x:
            x = y
        yield (lo, x, av if in_a else 0, bv if in_b else 0)
        if in_a and ar == x:
            i += 1
        if in_b and br == x:
            j += 1
    # one side is exhausted; the last cell may have cut into the other's segment
    from_a = i < na
    for l, r, v in (a[i:] if from_a else b[j:]):
        if x is not None and l < x:
            l = x
        yield (l, r, v, 0) if from_a else (l, r, 0, v)


def ref_signature(f, g):
    sig = {}
    for l, r, vf, vg in ref_sweep(f.segments, g.segments):
        if vf != 0 and vg != 0:
            u = vf.conjugate() * vg
            length = sig.get(u)
            sig[u] = r - l if length is None else length + (r - l)
    return sig


def ref_restrict(f, e):
    return StepFunction(_canonical_segments(
        (l, r, v) for l, r, v, inside in ref_sweep(f.segments, e._segments())
        if v and inside))


def ref_intersect(s, t):
    return IntervalSet.from_intervals(
        (l, r) for l, r, x, y in ref_sweep(s._segments(), t._segments()) if x and y)


def ref_map_restrict(phi, e):
    pieces = [(p.left, p.right, p) for p in phi.pieces]
    return PiecewiseAffineMap.from_pieces(
        (l, r, p.slope, p.intercept)
        for l, r, p, inside in ref_sweep(pieces, e._segments()) if p and inside)


# --- inputs ------------------------------------------------------------------

EXACT = [ExactComplex(Fraction(k, 16), Fraction(3 - k, 32)) for k in range(-3, 4)]
FLOAT = [complex(k / 8, -k / 16) for k in (-2, 1, 3)]
VALUES = EXACT + FLOAT


@st.composite
def segment_lists(draw, values=VALUES, max_segments=6):
    """Sorted disjoint (l, r, v) on the grid k/4 in [0, 6]: segments may
    touch or leave gaps.  A touching pair shares its end as one ``_Rat``
    object or as two equal ones."""
    n = draw(st.integers(0, max_segments))
    cuts = draw(st.lists(st.integers(0, 24), min_size=n + 1, max_size=n + 1,
                         unique=True).map(sorted)) if n else []
    segs, prev = [], None
    for l, r in zip(cuts, cuts[1:]):
        if draw(st.booleans()):  # otherwise a gap
            shared = prev is not None and prev == l and draw(st.booleans())
            L = prev_end if shared else _rat(l, 4)
            prev_end = _rat(r, 4)
            segs.append((L, prev_end, draw(st.sampled_from(values))))
            prev = r
    return segs


# two segment lists in one backend, as every pair of step functions is
same_backend_lists = st.sampled_from([EXACT, FLOAT]).flatmap(
    lambda values: st.tuples(segment_lists(values), segment_lists(values)))


def _pair(a, b):
    return StepFunction(tuple(a)), StepFunction(tuple(b))


SHARED = [_rat(k, 4) for k in range(4)]
# (a, b): nested segments, equal right ends, equal left ends, a gap on both
# sides at once, one side empty, identical inputs, a shared end met by both
CASES = [
    ([(_rat(0, 1), _rat(6, 1), EXACT[0])], [(_rat(1, 1), _rat(2, 1), EXACT[1]),
                                             (_rat(3, 1), _rat(4, 1), EXACT[2])]),
    ([(_rat(0, 1), _rat(2, 1), EXACT[0])], [(_rat(1, 1), _rat(2, 1), EXACT[1])]),
    ([(_rat(1, 1), _rat(2, 1), EXACT[0])], [(_rat(1, 1), _rat(3, 1), EXACT[1])]),
    ([(_rat(0, 1), _rat(1, 1), EXACT[0]), (_rat(2, 1), _rat(3, 1), EXACT[3])],
     [(_rat(0, 1), _rat(1, 1), EXACT[1]), (_rat(2, 1), _rat(3, 1), EXACT[4])]),
    ([], [(_rat(0, 1), _rat(1, 1), EXACT[1])]),
    ([(_rat(0, 1), _rat(1, 1), EXACT[1])], []),
    ([], []),
    ([(SHARED[0], SHARED[1], EXACT[0]), (SHARED[1], SHARED[2], EXACT[1])],
     [(SHARED[0], SHARED[1], EXACT[0]), (SHARED[1], SHARED[2], EXACT[1])]),
    ([(SHARED[0], SHARED[1], EXACT[0]), (_rat(1, 4), SHARED[3], EXACT[1])],
     [(SHARED[0], _rat(1, 4), EXACT[2]), (SHARED[1], SHARED[2], EXACT[3])]),
]


# --- the sweep ---------------------------------------------------------------


def assert_same_cells(a, b):
    cells, ref = _sweep(a, b), list(ref_sweep(a, b))
    assert type(cells) is list
    assert cells == ref
    for cell, ref_cell in zip(cells, ref):
        assert all(x is y for x, y in zip(cell, ref_cell)), (cell, ref_cell)


@given(segment_lists(), segment_lists())
@settings(max_examples=400)
def test_sweep_gives_the_reference_cells(a, b):
    assert_same_cells(a, b)
    assert_same_cells(b, a)
    assert_same_cells(a, a)


@pytest.mark.parametrize("a, b", CASES)
def test_sweep_listed_cases(a, b):
    assert_same_cells(a, b)
    assert_same_cells(b, a)


@given(same_backend_lists)
@example(CASES[0])
@example(CASES[3])
@example(CASES[8])
@settings(max_examples=200)
def test_pair_readers_match_the_reference(pair):
    f, g = _pair(*pair)
    for x, y in ((f, g), (g, f), (f, f)):
        sig = value_signature(x, y)
        # the key order fixes the order of the float sums over a signature
        assert list(sig.items()) == list(ref_signature(x, y).items())
        support = y.support()
        assert restrict(x, support) == ref_restrict(x, support)
        assert x.support().intersect(support) == ref_intersect(x.support(), support)


@given(segment_lists(), segment_lists())
@settings(max_examples=200)
def test_map_restrict_matches_the_reference(a, b):
    # a map with one piece per segment of a, slope +-1 or 2
    slopes = [_rat(1, 1), _rat(-1, 1), _rat(2, 1)]
    phi = PiecewiseAffineMap.from_pieces(
        [(l, r, slopes[k % 3], _rat(k, 4)) for k, (l, r, _) in enumerate(a)])
    e = StepFunction(tuple(b)).support()
    assert phi.restrict(e) == ref_map_restrict(phi, e)


# --- from_segments -----------------------------------------------------------


def outcome(build, segments):
    try:
        f = build(segments)
    except Exception as exc:  # compared with the reference's exception below
        return type(exc), str(exc)
    assert all(type(l) is _Rat and type(r) is _Rat for l, r, _ in f.segments)
    return f.segments


ONE = [1, 1.0, Fraction(1), _rat(1, 1)]
ENDS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, 1.0, -2.0, 2.5]),
                 st.fractions(min_value=-3, max_value=3, max_denominator=4),
                 st.integers(-12, 12).map(lambda k: _rat(k, 4)))


@pytest.mark.parametrize("left", ONE)
@pytest.mark.parametrize("right", ONE)
def test_shared_end_changes_type(left, right):
    segs = [(0, right, 0.25 + 0j), (left, 2, 0.125j), (2.0, Fraction(5, 2), 0.25 + 0j)]
    assert outcome(StepFunction.from_segments, segs) == outcome(reference_from_segments, segs)


@pytest.mark.parametrize("segs", [
    [(0, 1, 0.25), (1, math.nan, 0.25)],
    [(0, math.nan, 0.25), (math.nan, 2, 0.25)],
    [(0, 1, 0.25), (math.nan, 2, 0.25)],
    [(0, math.inf, 0.25), (math.inf, 2, 0.25)],
    [(-math.inf, 0, 0.25), (0, 1, 0.25)],
    [(0, 1, 0.0), (1, math.inf, 0.0)],
    [(0, 1, 0.25), (1, 1, 0.25)],
    [(0, 2, 0.25), (2, 1, 0.25)],
    [(0, 2, 0.25), (1, 3, 0.125)],
    [(1, 2, 0.25), (0, 1, 0.25), (2, 3, 0.125)],
    [(0, 1, 0.25), (1, "2", 0.25)],
    [(0, 1.0, 0.25), (1 + 0j, 2, 0.25)],
    [(0, 1, 0.25), (1, 2, 0.25)],
    [],
], ids=["nan right", "nan shared", "nan left", "inf shared", "-inf", "inf zero value",
        "empty", "inverted", "overlapping", "unsorted", "string", "complex", "merged", "none"])
def test_from_segments_listed_cases(segs):
    assert outcome(StepFunction.from_segments, segs) == outcome(reference_from_segments, segs)


@given(st.lists(st.tuples(ENDS, ENDS, st.sampled_from([0, 0.25, 0.125j, 0.25 + 0j])),
                max_size=6))
@settings(max_examples=300)
def test_from_segments_matches_the_reference(segs):
    assert outcome(StepFunction.from_segments, segs) == outcome(reference_from_segments, segs)


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=8, unique=True).map(sorted),
       st.lists(ENDS, min_size=8, max_size=8))
@settings(max_examples=200)
def test_contiguous_inputs_match_the_reference(cuts, ends):
    # contiguous segments whose shared ends come as any mix of number types
    typed = [type(e)(k) if not isinstance(e, _Rat) else _rat(k, 1) for k, e in zip(cuts, ends)]
    segs = [(l, r, complex(k, 1) / 8) for k, (l, r) in enumerate(zip(typed, typed[1:]))]
    assert outcome(StepFunction.from_segments, segs) == outcome(reference_from_segments, segs)


def test_contiguous_ends_are_converted_once():
    segs = [(k / 4, (k + 1) / 4, complex(k % 3 + 1, 0) / 8) for k in range(4)]
    f = StepFunction.from_segments(segs)
    ends = [e for l, r, _ in f.segments for e in (l, r)]
    assert all(ends[k] is ends[k + 1] for k in range(1, len(ends) - 1, 2))
