"""The two primitives under every pair against their references.

``_sweep``, the one merge of two segment lists' ends, must give the cells of
``reference_sweep``, down to the ``Fraction`` objects of their ends; the value
signature, ``restrict`` and ``PiecewiseAffineMap.restrict`` must give what
``reference_signature``, ``reference_restrict`` and
``reference_map_restrict`` read off those cells.  The signature's int
lengths on its pair's grid must give the reference's lengths, and its
reduced grid ``reference_grid``'s lcm of their denominators.
``StepFunction.from_segments``, which reuses the ``Fraction`` of an end shared
by two consecutive segments, must give ``reference_from_segments``'
canonical segments and exceptions.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadfock import PiecewiseAffineMap, StepFunction
from quadfock.scalars import ExactComplex, _rat
from quadfock.fock import _Signature
from quadfock.stepfn import _sweep, restrict, value_signature

from _reference import (PAIRS, grid_lengths, reference_from_segments, reference_grid,
                        reference_map_restrict, reference_restrict, reference_signature,
                        reference_sweep)

# --- inputs ------------------------------------------------------------------

EXACT = [ExactComplex(Fraction(k, 16), Fraction(3 - k, 32)) for k in range(-3, 4)]
FLOAT = [complex(k / 8, -k / 16) for k in (-2, 1, 3)]
VALUES = EXACT + FLOAT


@st.composite
def segment_lists(draw, values=VALUES, max_segments=6):
    """Sorted disjoint (l, r, v) on the grid k/4 in [0, 6]: segments may
    touch or leave gaps.  A touching pair shares its end as one ``Fraction``
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
# sides at once, one side empty, identical inputs, a shared end met by both,
# touching segments of b whose common end is two equal objects, in a gap of a,
# and the same under a segment of a
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
    ([(_rat(3, 1), _rat(4, 1), EXACT[0])], [(_rat(0, 1), _rat(1, 1), EXACT[1]),
                                             (_rat(1, 1), _rat(2, 1), EXACT[2])]),
    ([(_rat(0, 1), _rat(3, 1), EXACT[0])], [(_rat(0, 1), _rat(1, 1), EXACT[1]),
                                             (_rat(1, 1), _rat(2, 1), EXACT[2])]),
]


# --- the sweep ---------------------------------------------------------------


def assert_same_cells(a, b):
    cells, ref = _sweep(a, b), list(reference_sweep(a, b))
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
        sig = grid_lengths(value_signature(x, y))
        # the key order fixes the order of the float sums over a signature
        assert list(sig.items()) == list(reference_signature(x, y).items())
        support = y.support()
        assert restrict(x, support) == reference_restrict(x, support)


# lengths 1/3 and 2/3: a grid Lambda = 3 that no gcd reduces
THIRDS = ([(_rat(0, 1), _rat(1, 3), EXACT[0]), (_rat(1, 3), _rat(1, 1), EXACT[1])],
          [(_rat(0, 1), _rat(1, 1), EXACT[2])])


def in_floats(segs):
    return [(l, r, complex(v)) for l, r, v in segs]


def assert_grid_signature(f, g):
    """``value_signature``'s ints against ``reference_signature``, and its
    lazily reduced grid against the lcm of the reduced ``Fraction`` lengths."""
    signature = value_signature(f, g)
    lam, sig = signature
    ref = reference_signature(f, g)
    ends = [e for l, r, _ in f.segments + g.segments for e in (l, r)]
    assert lam == (math.lcm(*(e.denominator for e in ends)) if sig else 1)
    assert type(lam) is int and all(type(length) is int for length in sig.values())
    assert list(grid_lengths(signature).items()) == list(ref.items())
    ref_lam, ref_lengths = reference_grid(ref)
    assert _Signature(signature).scaled_lengths() == (ref_lam, list(ref_lengths.values()))


@given(same_backend_lists)
@example(THIRDS)
@example((in_floats(THIRDS[0]), in_floats(THIRDS[1])))
@example(CASES[8])
@settings(max_examples=200)
def test_grid_signature_matches_the_reference(pair):
    f, g = _pair(*pair)
    for x, y in ((f, g), (g, f), (f, f)):
        assert_grid_signature(x, y)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_grid_signature_of_the_float_pairs(exact):
    for _, _, f_segs, g_segs in PAIRS:
        if exact:
            f_segs, g_segs = ([(l, r, ExactComplex.of(v)) for l, r, v in segs]
                              for segs in (f_segs, g_segs))
        assert_grid_signature(StepFunction.from_segments(f_segs),
                              StepFunction.from_segments(g_segs))


@given(segment_lists(), segment_lists())
@settings(max_examples=200)
def test_map_restrict_matches_the_reference(a, b):
    # a map with one piece per segment of a, slope +-1 or 2
    slopes = [_rat(1, 1), _rat(-1, 1), _rat(2, 1)]
    phi = PiecewiseAffineMap.from_pieces(
        [(l, r, slopes[k % 3], _rat(k, 4)) for k, (l, r, _) in enumerate(a)])
    e = StepFunction(tuple(b)).support()
    assert phi.restrict(e) == reference_map_restrict(phi, e)


# --- from_segments -----------------------------------------------------------


def outcome(build, segments):
    try:
        f = build(segments)
    except Exception as exc:  # compared with the reference's exception below
        return type(exc), str(exc)
    assert all(type(l) is Fraction and type(r) is Fraction for l, r, _ in f.segments)
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
    [(2, 1, 0.25), (3, "4", 0.25)],
    [(0, 1.0, 0.25), (1 + 0j, 2, 0.25)],
    [(0, 1, 0.25), (1, 2, 0.25)],
    [],
], ids=["nan right", "nan shared", "nan left", "inf shared", "-inf", "inf zero value",
        "empty", "inverted", "overlapping", "unsorted", "string",
        "inverted before a string", "complex", "merged", "none"])
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
    typed = [type(e)(k) for k, e in zip(cuts, ends)]
    segs = [(l, r, complex(k, 1) / 8) for k, (l, r) in enumerate(zip(typed, typed[1:]))]
    assert outcome(StepFunction.from_segments, segs) == outcome(reference_from_segments, segs)


def test_contiguous_ends_are_converted_once():
    segs = [(k / 4, (k + 1) / 4, complex(k % 3 + 1, 0) / 8) for k in range(4)]
    f = StepFunction.from_segments(segs)
    ends = [e for l, r, _ in f.segments for e in (l, r)]
    assert all(ends[k] is ends[k + 1] for k in range(1, len(ends) - 1, 2))
