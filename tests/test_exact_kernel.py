"""Differential tests of the exact n-particle kernel.

In exact mode ``fock`` scales a pair's value signature once, u = (a + b i)/D
and L_u = l_u / Lambda, and runs the moments, the recursion and the
partition sum on Gaussian integers, with one reduction per result.  The
references are generic ``ExactComplex`` loops, where every moment, weight,
product and sum is one scalar operation: the moments and a_n of
``_reference.py``, and below, the partition terms and sums.  The partition
sums of several n at once are checked against a loop of their own for each
n.  Every result must be ``==`` to the reference, in every c and n tried.
"""

import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadfock.fock as fock
from quadfock import (
    FockConfig,
    MomentSequence,
    StepFunction,
    exp_inner_series,
    moments,
    n_particle_inner_partition,
    n_particle_inner_rec,
    n_particle_table,
    partition_coefficient,
    partition_terms,
    partitions_multiplicity,
)
from quadfock.families import random_family
from quadfock.fock import _exact, _partition_sums, _partition_table
from quadfock.scalars import ExactComplex
from quadfock.scalars import _new
from quadfock.stepfn import value_signature

from _reference import (float_copy, reference_a, reference_moments, reference_signature,
                        reference_zero)

C_VALUES = [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(1, 10 ** 13)]
MODES = ("corrected", "as_printed")


# --- references --------------------------------------------------------------


def reference_partition_terms(entries, n, c, mode):
    for multi in partitions_multiplicity(n):
        coef = partition_coefficient(multi, n, mode)
        term = coef * c ** sum(multi.values())
        for j, ij in multi.items():
            term = entries[j - 1] ** ij * term
        yield multi, coef, term


def reference_partition(entries, n, c, mode):
    total = 0
    for _, _, term in reference_partition_terms(entries, n, c, mode):
        total = total + term
    return total


# --- inputs --------------------------------------------------------------------


def exact_pair(seed):
    """Two step functions of 1 to 3 segments; breakpoints k/q and values
    (a + b i)/d with q and d drawn from small integers, so D and Lambda are
    not powers of two."""
    rng = random.Random(seed)

    def one():
        q = rng.choice([1, 2, 3, 4, 10])
        cuts = sorted(rng.sample(range(0, 8 * q + 1), 2 * rng.randint(1, 3)))
        segs = []
        for l, r in zip(cuts[::2], cuts[1::2]):
            d = rng.choice([2, 3, 5, 7, 16])
            v = ExactComplex(Fraction(rng.randint(-d // 2, d // 2), 2 * d),
                             Fraction(rng.randint(-d // 2, d // 2), 2 * d))
            segs.append((Fraction(l, q), Fraction(r, q), v if v else ExactComplex(Fraction(1, d), 0)))
        return StepFunction.from_segments(segs)

    return one(), one()


def check_all(m, entries, n, c):
    """Every exact route at n against its reference, on the same moments."""
    cfg = FockConfig(c=c)
    table = n_particle_table(m, n, cfg)
    assert list(table) == reference_a(entries, n, c)
    assert n_particle_inner_rec(m, n, cfg) == table[n]
    for mode in MODES:
        if n or mode == "corrected":
            assert n_particle_inner_partition(m, n, cfg, mode) == \
                reference_partition(entries, n, c, mode)
        assert list(partition_terms(m, n, cfg, mode)) == \
            list(reference_partition_terms(entries, n, c, mode))


# --- tests ---------------------------------------------------------------------


@given(st.integers(0, 10 ** 6), st.sampled_from(C_VALUES), st.integers(0, 16))
@example(0, Fraction(3, 7), 16)
@example(1, Fraction(1, 10 ** 13), 12)
@example(7, Fraction(1, 10 ** 400), 6)  # float(c) is 0.0, but c is positive
@settings(max_examples=40, deadline=None)
def test_exact_routes_match_reference(seed, c, n):
    f, g = exact_pair(seed)
    K = max(n, 1)
    m = moments(f, g, K)
    entries = reference_moments(reference_signature(f, g), K, reference_zero(f, g))
    assert list(m.entries) == entries
    assert all(type(a) is type(b) for a, b in zip(m.entries, entries))
    check_all(m, entries, n, c)


def test_n24_matches_reference():
    f, g = exact_pair(24)
    m = moments(f, g, 24)
    entries = reference_moments(reference_signature(f, g), 24, ExactComplex(0, 0))
    c = Fraction(3, 7)
    cfg = FockConfig(c=c)
    a24 = reference_a(entries, 24, c)[24]
    assert n_particle_inner_rec(m, 24, cfg) == a24
    assert n_particle_table(m, 24, cfg)[24] == a24
    assert n_particle_inner_partition(m, 24, cfg) == a24
    assert n_particle_inner_partition(m, 24, cfg, "as_printed") == \
        reference_partition(entries, 24, c, "as_printed")


def test_zero_function():
    f = StepFunction.zero()
    g = StepFunction.indicator(0, 1, ExactComplex(Fraction(1, 4), 0))
    m = moments(f, g, 6)
    assert m.entries == (0,) * 6
    for c in C_VALUES:
        check_all(m, [0] * 6, 6, c)


def test_one_value_signature():
    v = ExactComplex(Fraction(1, 3), Fraction(-1, 5))
    f = StepFunction.indicator(Fraction(1, 7), Fraction(9, 7), v)
    g = StepFunction.indicator(0, 1, ExactComplex(Fraction(2, 9), Fraction(1, 11)))
    assert len(value_signature(f, g)[1]) == 1
    m = moments(f, g, 10)
    entries = reference_moments(reference_signature(f, g), 10, ExactComplex(0, 0))
    for c in C_VALUES:
        check_all(m, entries, 10, c)


def test_float_path_is_the_generic_loop():
    f, g = exact_pair(5)
    ff, gf = float_copy(f), float_copy(g)
    m = moments(ff, gf, 10)
    for c in (1.0, 3 / 7):
        cfg = FockConfig(c=c)
        assert n_particle_inner_rec(m, 10, cfg) == reference_a(m.entries, 10, c)[10]
        assert n_particle_inner_partition(m, 10, cfg) == \
            reference_partition(m.entries, 10, c, "corrected")


def test_float_c_on_exact_values_is_read_exactly():
    # the values choose the backend: a float c is the dyadic rational it stands for
    f, g = random_family(random.Random(1), 2, exact=True)
    m = moments(f, g, 8)
    for flt, ex in ((FockConfig(), FockConfig(c=Fraction(1))),
                    (FockConfig(c=0.1), FockConfig(c=Fraction(0.1)))):
        assert n_particle_inner_rec(m, 8, flt) == n_particle_inner_rec(m, 8, ex)
        assert n_particle_table(m, 8, flt) == n_particle_table(m, 8, ex)
        for mode in MODES:
            assert n_particle_inner_partition(m, 8, flt, mode) == \
                n_particle_inner_partition(m, 8, ex, mode)
            assert list(partition_terms(m, 8, flt, mode)) == list(partition_terms(m, 8, ex, mode))
        assert exp_inner_series(f, g, flt) == exp_inner_series(f, g, ex)


# --- the partition sums of several n against the per-n loop ----------------------


def reference_scaled_terms(ex, n, rows):
    """den * coefficient * prod_j N_j^{i_j} of each row, with a power table
    of its own for this one n."""
    powers = [None]
    for j in range(1, n + 1):
        zr, zi = ex[0][j - 1]
        pj = [(1, 0)]
        for _ in range(n // j):
            re, im = pj[-1]
            pj.append((re * zr - im * zi, re * zi + im * zr))
        powers.append(pj)
    for items, _, _, num in rows:
        re, im = num, 0
        for j, ij in items:
            pr, pi = powers[j][ij]
            re, im = re * pr - im * pi, re * pi + im * pr
        yield re, im


def reference_partition_sum(m, n, cfg, mode):
    """The exact partition sum at one n as a per-n loop: the scaled moments
    read, a power table built and a generator run for every n."""
    ex = _exact(m, cfg.c)
    den, rows = _partition_table(n, mode)
    _, D, E, c_num = ex
    by_q = [[0, 0] for _ in range(n + 1)]
    for (_, _, q, _), (re, im) in zip(rows, reference_scaled_terms(ex, n, rows)):
        by_q[q][0] += re
        by_q[q][1] += im
    re = im = 0
    for q, (qr, qi) in enumerate(by_q):
        s = c_num ** q * E ** (n - q)
        re += s * qr
        im += s * qi
    return _new(re, im, den * (D * E) ** n)


def check_partition_sums(m, ns, c):
    cfg = FockConfig(c=c)
    for mode in MODES:
        assert _partition_sums(m, ns, cfg, mode) == \
            [reference_partition_sum(m, n, cfg, mode) for n in ns]


def disjoint_pair(seed):
    """exact_pair(seed) with g moved past the end of f's support."""
    f, g = exact_pair(seed)
    shift = f.segments[-1][1] - g.segments[0][0] + Fraction(1, 3)
    return f, StepFunction.from_segments([(l + shift, r + shift, v) for l, r, v in g.segments])


SUM_C_VALUES = [Fraction(1), Fraction(3, 7), Fraction(5, 2)]


@given(st.integers(0, 10 ** 6), st.sampled_from(SUM_C_VALUES), st.booleans())
@example(0, Fraction(5, 2), True)
@settings(max_examples=25, deadline=None)
def test_partition_sums_match_the_per_n_loop(seed, c, disjoint):
    f, g = disjoint_pair(seed) if disjoint else exact_pair(seed)
    m = moments(f, g, 12)
    if disjoint:  # an empty signature keeps the exact backend, scaled form and all
        assert not value_signature(f, g)[1] and m._scaled == (((0, 0),) * 12, 1, 1)
    ns = list(range(13))
    check_partition_sums(m, ns, c)
    # the same entries without their scaled form: _exact scales them with D = 1
    check_partition_sums(MomentSequence(m.entries), ns, c)
    assert _partition_sums(MomentSequence(m.entries), ns, FockConfig(c=c), "corrected") == \
        _partition_sums(m, ns, FockConfig(c=c), "corrected")


def test_partition_sum_at_n30_matches_the_per_n_loop():
    f, g = exact_pair(30)
    m = moments(f, g, 30)
    check_partition_sums(m, [30], Fraction(3, 7))


def test_partition_sums_of_a_hand_built_sequence():
    entries = [ExactComplex(Fraction(1, 3), Fraction(2, 7)), Fraction(5, 11), 2,
               ExactComplex(Fraction(-1, 13), 0), ExactComplex(0, Fraction(9, 17)),
               Fraction(-4, 1001), 0, ExactComplex(Fraction(1, 2 ** 60), Fraction(-3, 19)),
               Fraction(7, 3), ExactComplex(Fraction(-2, 9), Fraction(1, 4)), 1,
               ExactComplex(0, Fraction(-5, 6))]
    m = MomentSequence(tuple(entries))
    for c in C_VALUES:  # every route at n = 8, on unrelated denominators
        check_all(m, entries, 8, c)
    for c in SUM_C_VALUES:
        check_partition_sums(m, list(range(13)), c)
        cfg = FockConfig(c=c)
        assert _partition_sums(m, range(1, 13), cfg, "corrected") == \
            [reference_partition(entries, n, c, "corrected") for n in range(1, 13)]


def test_partition_sums_of_float_moments_are_none():
    f, g = exact_pair(3)
    m = moments(float_copy(f), float_copy(g), 4)
    assert _partition_sums(m, range(5), FockConfig(), "corrected") is None


# --- one scaling of the lengths per signature -----------------------------------


def test_exact_series_scales_the_lengths_once(monkeypatch):
    # g's end -1/6 puts the pair on the grid Lambda = 6, where the cells
    # [0, 1/2) and [1/2, 1) carry u = 1/64 and 1/128 with l_u = 3 each.  The
    # series reduces the grid by one gcd(6, 3, 3), to Lambda = 2, the lcm of
    # the reduced lengths' denominators; it took that lcm over the lengths'
    # denominators before, after a Fraction per cell.  The one lcm left is over
    # the value denominators.
    half = Fraction(1, 2)
    f = StepFunction.from_segments([(0, half, ExactComplex(Fraction(1, 4), 0)),
                                    (half, 1, ExactComplex(Fraction(1, 8), 0))])
    g = StepFunction.indicator(Fraction(-1, 6), 1, ExactComplex(Fraction(1, 16), 0))
    assert value_signature(f, g) == (6, {ExactComplex(Fraction(1, 64), 0): 3,
                                         ExactComplex(Fraction(1, 128), 0): 3})
    calls = {"gcd": [], "lcm": []}

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def gcd(*args):
            calls["gcd"].append(args)
            return math.gcd(*args)

        @staticmethod
        def lcm(*args):
            calls["lcm"].append(args)
            return math.lcm(*args)

    monkeypatch.setattr(fock, "math", CountingMath())
    exp_inner_series(f, g, FockConfig(c=Fraction(1)))
    assert calls == {"gcd": [(6, 3, 3)], "lcm": [(64, 128)]}
