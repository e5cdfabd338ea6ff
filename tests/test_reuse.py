"""Reference tests for the one-signature-per-pair sweeps.

``gram_matrix`` sweeps each unordered pair once and fills the lower
triangle by conjugation; ``check_selfadjoint_numeric`` builds two value
signatures per ordered pair, and its reference takes the same two closed
forms per pair through ``exp_inner_closed``; and ``partition_terms`` reads
a table of partitions built once per (n, mode).  The references below are
the direct constructions they replace, and the results must agree bit for
bit in both scalar backends.  ``lemma4_derivative_check`` reads the exact
n = 1 coefficient of the Gram form, one pair i <= j at a time; an mpmath
derivative of the 40-digit closed form checks it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfock import (
    DomainError,
    FockConfig,
    SelfAdjointNumericReport,
    adjoint_operator,
    apply_operator,
    check_selfadjoint_numeric,
    dilation_operator,
    exp_inner_closed,
    exp_vector_exists,
    gram_matrix,
    lemma4_derivative_check,
    moments,
    partition_terms,
    partitions_multiplicity,
    window_radius,
)
from quadfock.families import random_family, random_injective_operator, reflection_operator
from quadfock.fock import gram_min_eig
from quadfock.quantization import check_contraction_gram
from quadfock.scalars import ExactComplex

from _reference import mp_closed, mp_number

CFG = {"exact": FockConfig(c=Fraction(1)), "float": FockConfig()}


# --- references --------------------------------------------------------------


def reference_gram(family, cfg):
    """The full double loop: one closed form per ordered pair."""
    bad = [i for i, f in enumerate(family) if not exp_vector_exists(f)]
    if bad:
        raise DomainError(f"sup norm >= 1/2 at indices {bad}")
    n = len(family)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = exp_inner_closed(family[i], family[j], cfg)
    return G


def reference_selfadjoint_numeric(T, family, cfg):
    """Two closed forms per (i, j), each through ``exp_inner_closed``."""
    tf = [apply_operator(T, f) for f in family]
    for i, (f, g) in enumerate(zip(family, tf)):
        if not (exp_vector_exists(f) and exp_vector_exists(g)):
            raise DomainError(f"family member {i} or its image is inadmissible")
    T_star = adjoint_operator(T)
    tsf = [apply_operator(T_star, f) for f in family]
    herm = adj = 0.0
    n = len(family)
    M = np.empty((n, n), dtype=complex)
    Ms = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            M[i, j] = exp_inner_closed(tf[i], family[j], cfg)
            if not exp_vector_exists(tsf[j]):
                raise DomainError(f"adjoint image of member {j} is inadmissible")
            Ms[i, j] = exp_inner_closed(tsf[j], family[i], cfg)
    for i in range(n):
        for j in range(n):
            herm = max(herm, float(abs(M[i, j] - M[j, i].conjugate())))
            adj = max(adj, float(abs(M[i, j] - Ms[i, j].conjugate())))
    return SelfAdjointNumericReport(herm, adj)


def mp_gram_form(family, coeffs, c, mp):
    """q(t) = sum conj(a_i) a_j <Psi(sqrt(t) f_i), Psi(sqrt(t) f_j)> from the
    closed form of each pair."""
    alpha = [mp.mpc(complex(a)) for a in coeffs]
    return lambda t: sum(mp.conj(a) * b * mp_closed(mp, fi, fj, c, t)
                         for a, fi in zip(alpha, family) for b, fj in zip(alpha, family))


def outcome(fn, *args):
    """fn's result, or the type and message of the DomainError it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


# --- inputs --------------------------------------------------------------------

seeds = st.integers(0, 2 ** 32 - 1)
backends = st.sampled_from(["exact", "float"])


def family(seed, size, backend, max_abs=0.3):
    return random_family(random.Random(seed), size, exact=backend == "exact",
                         max_abs=max_abs)


def operator(kind, seed, fam, backend):
    exact = backend == "exact"
    if kind == "injective":
        return random_injective_operator(random.Random(seed), exact=exact)
    if kind == "reflection":
        return reflection_operator(Fraction(9, 10) if exact else 0.9, exact=exact)
    one = ExactComplex.of(1) if exact else 1.0 + 0j
    return dilation_operator(window_radius(*fam), one)


# --- tests ---------------------------------------------------------------------


@given(seeds, st.integers(0, 5), backends)
@settings(max_examples=60, deadline=None)
def test_gram_matrix_matches_double_loop(seed, size, backend):
    fam = family(seed, size, backend)
    got = outcome(gram_matrix, fam, CFG[backend])
    want = outcome(reference_gram, fam, CFG[backend])
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.conj().T)


@given(st.sampled_from(["injective", "reflection", "dilation"]), seeds,
       st.integers(0, 4), backends)
@settings(max_examples=60, deadline=None)
def test_selfadjoint_numeric_matches_seven_sweeps(kind, seed, size, backend):
    fam = family(seed, size, backend)
    T = operator(kind, seed, fam, backend)
    assert outcome(check_selfadjoint_numeric, T, fam, CFG[backend]) == \
        outcome(reference_selfadjoint_numeric, T, fam, CFG[backend])


@given(seeds, st.integers(1, 4), backends)
@settings(max_examples=30, deadline=None)
def test_lemma4_matches_mpmath_derivative(seed, size, backend):
    mp = pytest.importorskip("mpmath").mp
    rng = random.Random(seed)
    fam = family(seed, size, backend, max_abs=0.45)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in fam]
    cfg = CFG[backend]
    rep = lemma4_derivative_check(fam, coeffs, cfg)
    with mp.workdps(40):
        want = mp.diff(mp_gram_form(fam, coeffs, cfg.c, mp), 0)
        assert abs(mp.im(want)) <= mp.mpf(10) ** -30 * abs(want)
        assert abs(mp_number(rep.derivative, mp) - mp.re(want)) <= 1e-12 * abs(want)


@given(st.sampled_from(["injective", "dilation"]), seeds, st.integers(1, 4), backends)
@settings(max_examples=30, deadline=None)
def test_contraction_gram_matches_double_loop(kind, seed, size, backend):
    fam = family(seed, size, backend, max_abs=0.45)
    T = operator(kind, seed, fam, backend)
    rep = outcome(check_contraction_gram, T, fam, CFG[backend])
    G = gram_matrix(fam, CFG[backend])
    G_T = outcome(reference_gram, [apply_operator(T, f) for f in fam], CFG[backend])
    if isinstance(G_T, tuple):
        assert rep == G_T
    else:
        assert rep.min_eig == gram_min_eig(G - G_T, tol=1e-10)


def test_partition_terms_yield_fresh_multi_indices():
    cfg = CFG["exact"]
    f, g = family(3, 2, "exact")
    m = moments(f, g, 6)
    for mode in ("corrected", "as_printed"):
        first = [(dict(multi), coef, term) for multi, coef, term
                 in partition_terms(m, 6, cfg, mode)]
        assert [multi for multi, _, _ in first] == list(partitions_multiplicity(6))
        for multi, _, _ in partition_terms(m, 6, cfg, mode):
            multi[1] = multi.get(1, 0) + 7
            multi.pop(2, None)
        assert list(partition_terms(m, 6, cfg, mode)) == first
