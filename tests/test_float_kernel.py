"""Differential tests of the float pair path.

A float pair is parsed, swept and read off its value signature with each
length turned into a double once.  The references below are the loops that
path replaces: every breakpoint converted through one gcd before any check,
every length accumulated as ``0 + length``, every moment term a
``Fraction``-by-complex product, every recursion sum ``acc = acc + w b``
and the total length a ``sum`` of rationals.  Every float must come out
``==`` to the reference and with the same ``repr``, which also pins signed
zeros; every bad input must raise the same exception with the same message.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfock import FockConfig, StepFunction, moments, n_particle_table
from quadfock.fock import _dominating_tail, _Signature, _up
from quadfock.scalars import ExactComplex, _frac, _rat, _Rat
from quadfock.stepfn import refine, value_signature

CFGS = [FockConfig(), FockConfig(c=0.5, depth=60), FockConfig(c=Fraction(3, 7))]
SEGMENT_COUNTS = (1, 3, 32, 128)
N_PARTICLES = 8


# --- references --------------------------------------------------------------


def reference_frac(x):
    if isinstance(x, float):
        return _rat(*x.as_integer_ratio())
    return _frac(x)


def reference_canonical(segments):
    segs = [(l, r, v) for (l, r, v) in segments if l < r and v != 0]
    segs.sort(key=lambda s: s[0])
    out = []
    for l, r, v in segs:
        if out:
            pl, pr, pv = out[-1]
            if l < pr:
                raise ValueError(f"overlapping segments at {float(l)}")
            if l == pr and v == pv:
                out[-1] = (pl, r, v)
                continue
        out.append((l, r, v))
    return tuple(out)


def reference_from_segments(segments):
    norm = [(reference_frac(l), reference_frac(r), v) for (l, r, v) in segments]
    for l, r, _ in norm:
        if l >= r:
            raise ValueError(f"empty or inverted interval [{float(l)}, {float(r)})")
    return StepFunction(reference_canonical(norm))


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


def reference_signature(f, g):
    sig = {}
    for l, r, vf, vg in refine(f, g):
        if vf != 0 and vg != 0:
            u = vf.conjugate() * vg
            sig[u] = sig.get(u, 0) + (r - l)
    return sig


def reference_moments(sig, K):
    us, terms = list(sig), list(sig.values())
    entries = []
    for _ in range(K):
        terms = [t * u for t, u in zip(terms, us)]
        entries.append(sum(terms, 0))
    return entries


def reference_b(w, n, c):
    b = [1]
    for nn in range(1, n + 1):
        acc = 0
        for k in range(nn):
            acc = acc + w[k] * b[nn - k - 1]
        b.append((c / nn) * acc)
    return b


def reference_dominating_tail(x, beta, N):
    r = _up(x * max(1.0, _up(_up(N + 1 + beta) / (N + 2))))
    gap = math.nextafter(1.0 - r, -math.inf)
    if not gap > 0:
        return math.inf
    d = 1.0
    for n in range(1, N + 2):
        d = _up(_up(_up(d * x) * _up(n - 1 + beta)) / n)
    return _up(d / gap)


def reference_series(sig, f, g, cfg):
    """The float route of ``_series_form`` for a nonzero admissible pair."""
    N = cfg.depth
    w = reference_moments({4 * u: length / 2 for u, length in sig.items()}, N)
    terms = [complex(bn) for bn in reference_b(w, N, cfg.c)]
    beta = _up(float(Fraction(cfg.c) * sum(sig.values()) / 2))
    x = _up(4.0 * max(map(abs, sig), default=0.0) * (1 + 2.0 ** -50))
    sum_error = _up((N + 2) * 2.0 ** -52 * sum(abs(z.real) + abs(z.imag) for z in terms))
    return sum(terms, 0j), _up(reference_dominating_tail(x, beta, N) + sum_error)


def reference_table(sig, n, c):
    w = [2 ** (2 * k + 1) * mk for k, mk in enumerate(reference_moments(sig, n))]
    b = reference_b(w, n, c)
    return tuple(math.factorial(k) ** 2 * b[k] for k in range(n + 1)), tuple(b)


def outcome(fn, *args):
    """The result's repr, or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001  the exception is the outcome
        return type(exc), str(exc)


# --- inputs ------------------------------------------------------------------

# values with |v| < 0.3, signed zeros among them; the small set repeats u
VALUES = [0.25 + 0j, complex(-0.0, 0.125), complex(0.1875, -0.0), -0.09375 - 0.15625j]


def _value(rng):
    if rng.random() < 0.5:
        return rng.choice(VALUES)
    return complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))


def float_steps(rng, n, layout):
    """n segments on [0, 4): adjacent with arbitrary float breakpoints, or
    separated on the grid k/256 (many cells then share a u)."""
    if layout == "adjacent":
        pts = sorted({rng.uniform(0, 4) for _ in range(n + 1)})
        return [(l, r, _value(rng)) for l, r in zip(pts, pts[1:])]
    pts = sorted(rng.sample(range(4 * 256 + 1), 2 * n))
    return [(pts[2 * i] / 256, pts[2 * i + 1] / 256, _value(rng)) for i in range(n)]


def pairs():
    for n in SEGMENT_COUNTS:
        for layout in ("adjacent", "grid"):
            for seed in range(3):
                rng = random.Random(f"{n}:{layout}:{seed}")
                yield n, layout, float_steps(rng, n, layout), float_steps(rng, n, layout)


PAIRS = list(pairs())
PAIR_IDS = [f"N={n}-{layout}-{i % 3}" for i, (n, layout, _, _) in enumerate(PAIRS)]


# --- the float pair path -----------------------------------------------------


@pytest.mark.parametrize("n, layout, f_segs, g_segs", PAIRS, ids=PAIR_IDS)
def test_pair_path_matches_reference(n, layout, f_segs, g_segs):
    f = StepFunction.from_segments(f_segs)
    g = StepFunction.from_segments(g_segs)
    assert repr(f) == repr(reference_from_segments(f_segs))
    assert repr(g) == repr(reference_from_segments(g_segs))

    sig = value_signature(f, g)
    ref = reference_signature(f, g)
    assert sig == ref and repr(sig) == repr(ref)
    assert all(type(length) is _Rat for length in sig.values())

    m = moments(f, g, N_PARTICLES)
    assert repr(m.entries) == repr(tuple(reference_moments(ref, N_PARTICLES)))
    for cfg in CFGS:
        if ref:  # disjoint supports give int moments 0, which the exact kernel takes
            table = n_particle_table(m, N_PARTICLES, cfg)
            assert repr((table.a, table.b)) == repr(reference_table(ref, N_PARTICLES, cfg.c))
        series = _Signature.admissible(f, g).series(cfg)
        assert series == reference_series(ref, f, g, cfg)
        assert repr(series) == repr(reference_series(ref, f, g, cfg))
        assert repr(_Signature(sig).closed(cfg)) == repr(_Signature(ref).closed(cfg))


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
        assert all(type(l) is _Rat and type(r) is _Rat for l, r, _ in f.segments)


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


def test_dominating_tail_rounds_as_the_reference():
    for x, beta, N in itertools.product(
            [0.0, 5e-324, 1e-3, 0.25, 0.7, 0.96875, 1 - 2.0 ** -53],
            [0.0, 5e-324, 0.5, 1.75, 3.0, 1e6], [0, 1, 4, 40, 2000]):
        tail = _dominating_tail(x, beta, N)
        assert repr(tail) == repr(reference_dominating_tail(x, beta, N)), (x, beta, N)
