import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quadfock import (
    DomainError,
    FockConfig,
    StepFunction,
    UnconvergedError,
    exp_inner_closed,
    exp_inner_series,
    exp_vector_exists,
    gram_matrix,
    moments,
    n_particle_inner_partition,
    n_particle_inner_rec,
    n_particle_table,
    partition_coefficient,
    partitions_multiplicity,
)
from quadfock.cli import main
from quadfock.errors import NotHermitianError
from quadfock.families import random_family
from quadfock.fock import (GRAM_DEPTH, MAX_PARTICLES, _gram_minors, _partition_table, _Signature,
                           exp_inner_closed_scaled, gram_min_eig, is_psd)
from quadfock.scalars import ExactComplex

from _reference import float_copy

CFG = FockConfig()
CFG_EXACT = FockConfig(c=Fraction(1))


def chi(l, r, v):
    return StepFunction.indicator(l, r, v)


def exact(num, den):
    return ExactComplex(Fraction(num, den), Fraction(0))


class TestMoments:
    def test_constant_indicator(self):
        alpha = 0.3 + 0.1j
        f = chi(0, 1, alpha)
        m = moments(f, f, 5)
        for k in range(1, 6):
            assert m[k] == pytest.approx(abs(alpha) ** (2 * k))

    def test_zero_function(self):
        m = moments(StepFunction.zero(), chi(0, 1, 1 + 0j), 3)
        assert all(m[k] == 0 for k in range(1, 4))

    def test_disjoint_supports(self):
        m = moments(chi(0, 1, 1 + 0j), chi(2, 3, 1 + 0j), 3)
        assert all(m[k] == 0 for k in range(1, 4))

    def test_index_and_depth_out_of_range(self):
        f = chi(0, 1, 0.25 + 0j)
        m = moments(f, f, 2)
        for k in (0, 3):
            with pytest.raises(IndexError, match=f"^moment index {k} out of range 1..2$"):
                m[k]
        with pytest.raises(ValueError, match="^K must be >= 1$"):
            moments(f, f, 0)

    def test_cauchy_schwarz_bound(self):
        rng = random.Random(11)
        for _ in range(10):
            f = random_family(rng, 1, max_abs=0.45)[0]
            g = random_family(rng, 1, max_abs=0.45)[0]
            m = moments(f, g, 6)
            for k in range(1, 7):
                bound = ((f.sup_norm() * g.sup_norm()) ** (k - 1)
                         * f.l2_norm() * g.l2_norm())
                assert abs(m[k]) <= bound + 1e-12


class TestNParticle:
    def test_n0_is_one(self):
        m = moments(chi(0, 1, 0.25 + 0j), chi(0, 1, 0.25 + 0j), 1)
        assert n_particle_inner_rec(m, 0, CFG) == 1
        assert n_particle_inner_partition(m, 0, CFG) == 1

    def test_n1_is_2c_m1(self):
        f = chi(0, 1, exact(1, 4))
        m = moments(f, f, 1)
        assert n_particle_inner_rec(m, 1, CFG_EXACT) == 2 * m[1]
        assert n_particle_inner_partition(m, 1, CFG_EXACT) == 2 * m[1]
        assert n_particle_inner_partition(m, 1, CFG_EXACT, "as_printed") == 2 * m[1]

    def test_n2_expansion(self):
        # a_2 = 8 c^2 m_1^2 + 16 c m_2
        f = chi(0, 1, exact(1, 4))
        m = moments(f, f, 2)
        expected = 8 * m[1] ** 2 + 16 * m[2]
        assert n_particle_inner_rec(m, 2, CFG_EXACT) == expected
        assert n_particle_inner_partition(m, 2, CFG_EXACT) == expected

    def test_n2_as_printed_overshoots(self):
        # the published coefficient gives 16 c^2 m_1^2 + 16 c m_2
        f = chi(0, 1, exact(1, 4))
        m = moments(f, f, 2)
        assert n_particle_inner_partition(m, 2, CFG_EXACT, "as_printed") == \
            16 * m[1] ** 2 + 16 * m[2]

    def test_as_printed_undefined_at_n0(self):
        m = moments(chi(0, 1, exact(1, 4)), chi(0, 1, exact(1, 4)), 1)
        with pytest.raises(ValueError):
            n_particle_inner_partition(m, 0, CFG_EXACT, "as_printed")

    @pytest.mark.parametrize("seed", range(5))
    def test_recursion_equals_partition_exactly(self, seed):
        rng = random.Random(seed)
        f = random_family(rng, 1, exact=True)[0]
        g = random_family(rng, 1, exact=True)[0]
        m = moments(f, g, 8)
        for n in range(9):
            assert n_particle_inner_rec(m, n, CFG_EXACT) == \
                n_particle_inner_partition(m, n, CFG_EXACT)

    def test_c_dependence(self):
        f = chi(0, 1, exact(1, 4))
        m = moments(f, f, 3)
        a3_c2 = n_particle_inner_rec(m, 3, FockConfig(c=Fraction(2)))
        a3_c1 = n_particle_inner_rec(m, 3, CFG_EXACT)
        assert a3_c2 != a3_c1  # c is configuration, never baked in

    def test_table(self):
        f = chi(0, 1, exact(1, 4))
        m = moments(f, f, 6)
        table = n_particle_table(m, 6, CFG_EXACT)
        assert table[0] == 1
        for n in range(7):
            assert table[n] == n_particle_inner_partition(m, n, CFG_EXACT)
            # f = g: all a_n real and nonnegative
            assert table[n].im == 0 and table[n].re >= 0 if n else True


    @pytest.mark.parametrize("n", [99, 600])
    def test_float_weight_beyond_the_doubles(self, n):
        # at n = 99 the factor (99!)^2 leaves the doubles, at n = 600 the
        # weight 2^(2k+1) for k >= 512 does; at n = 90 neither does
        f = chi(0, 1, 0.2 + 0j)
        m = moments(f, f, n)
        assert math.isfinite(abs(n_particle_inner_rec(m, 90, CFG)))
        with pytest.raises(DomainError, match="exceeds double precision"):
            n_particle_table(m, n, CFG)
        with pytest.raises(DomainError, match="exceeds double precision"):
            n_particle_inner_rec(m, n, CFG)

    @pytest.mark.parametrize("n_max,message", [
        (5, "need at least 5 moments, got 2"), (-1, "n must be nonnegative")])
    def test_table_rejects_n_max_out_of_range_in_both_backends(self, n_max, message):
        # the checks live in the table itself, so no backend returns a short
        # tuple or raises IndexError where the other raises ValueError
        for f, cfg in [(chi(0, 1, exact(1, 4)), CFG_EXACT), (chi(0, 1, 0.25 + 0j), CFG)]:
            m = moments(f, f, 2)
            with pytest.raises(ValueError, match=f"^{message}$"):
                n_particle_table(m, n_max, cfg)

    @pytest.mark.parametrize("n,K,message", [
        (-1, 2, "n must be nonnegative"), (5, 2, "need at least 5 moments, got 2"),
        (MAX_PARTICLES + 1, MAX_PARTICLES + 1, f"n must be at most {MAX_PARTICLES}")])
    def test_partition_sum_rejects_n_out_of_range(self, n, K, message):
        f = chi(0, 1, exact(1, 4))
        with pytest.raises(ValueError, match=f"^{message}$"):
            n_particle_inner_partition(moments(f, f, K), n, CFG_EXACT)

    @pytest.mark.parametrize("cfg", [CFG_EXACT, FockConfig(c=Fraction(3, 2)), CFG])
    def test_table_matches_recursion(self, cfg):
        rng = random.Random(3)
        for _ in range(5):
            f, g = random_family(rng, 2, exact=cfg is not CFG)
            m = moments(f, g, 12)
            table = n_particle_table(m, 12, cfg)
            for n in range(13):
                assert table[n] == n_particle_inner_rec(m, n, cfg)

    def test_partition_sum_equals_recursion_at_n20(self):
        rng = random.Random(20)
        f, g = random_family(rng, 2, exact=True)
        m = moments(f, g, 20)
        assert n_particle_inner_partition(m, 20, CFG_EXACT) == \
            n_particle_inner_rec(m, 20, CFG_EXACT)


def reference_partition_coefficient(multi, n, mode):
    """The coefficient as a product of Fraction factors, term by term."""
    fact_sq = Fraction(math.factorial(n)) ** 2
    denom_fact = 1
    for ij in multi.values():
        denom_fact *= math.factorial(ij)
    if mode == "corrected":
        coef = fact_sq * (4 ** n)
        for j, ij in multi.items():
            coef *= Fraction(1, (2 * j) ** ij)
        return coef / denom_fact
    denom_pow = 1
    for j, ij in multi.items():
        if j >= 2:
            denom_pow *= j ** ij
    return fact_sq * Fraction(2) ** (2 * n - 1) / Fraction(denom_fact * denom_pow)


def reference_partitions(n):
    """The multi-indices of n by recursion: the largest part first, each
    size from the largest allowed down, each dict keyed in insertion order."""

    def rec(remaining, largest, current):
        if remaining == 0:
            yield dict(current)
            return
        for j in range(min(remaining, largest), 0, -1):
            current[j] = current.get(j, 0) + 1
            yield from rec(remaining - j, j, current)
            if current[j] == 1:
                del current[j]
            else:
                current[j] -= 1

    yield from rec(n, n, {})


class TestPartitions:
    @pytest.mark.parametrize("mode", ["corrected", "as_printed"])
    def test_coefficient_matches_fraction_products(self, mode):
        for n in range(11):
            for multi in partitions_multiplicity(n):
                got = partition_coefficient(multi, n, mode)
                assert type(got) is Fraction
                assert got == reference_partition_coefficient(multi, n, mode)

    @pytest.mark.parametrize("mode", ["corrected", "as_printed"])
    def test_table_rows_carry_the_coefficient(self, mode):
        # the table shares one numerator (n!)^2 4^n over its rows
        for n in range(13):
            den, rows = _partition_table(n, mode)
            multis = list(partitions_multiplicity(n))
            assert len(rows) == len(multis)
            for multi, (items, coef, q, scaled) in zip(multis, rows):
                assert items == tuple(multi.items())
                assert type(coef) is Fraction
                assert coef == partition_coefficient(multi, n, mode)
                assert q == sum(multi.values())
                assert scaled == den * coef

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            partition_coefficient({1: 1}, 1, "printed")


    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 3), (4, 5),
                                         (5, 7), (6, 11), (8, 22)])
    def test_partition_counts(self, n, count):
        assert len(list(partitions_multiplicity(n))) == count

    def test_multiplicities_sum_to_n(self):
        for multi in partitions_multiplicity(7):
            assert sum(j * i for j, i in multi.items()) == 7

    def test_deterministic_order(self):
        assert list(partitions_multiplicity(4)) == \
            list(partitions_multiplicity(4))

    def test_coefficient_ratio_law(self):
        for n in range(1, 9):
            for multi in partitions_multiplicity(n):
                ratio = (partition_coefficient(multi, n, "as_printed")
                         / partition_coefficient(multi, n, "corrected"))
                assert ratio == Fraction(2) ** (sum(multi.values()) - 1)

    def test_order_matches_the_recursive_reference(self):
        """The same partitions in the same order, and the same key order in
        each dict: the float partition product reads items() in that order."""
        for n in range(31):
            assert [list(d.items()) for d in partitions_multiplicity(n)] == \
                [list(d.items()) for d in reference_partitions(n)], n

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            next(partitions_multiplicity(-1))


class TestExpVectors:
    def test_existence_radius(self):
        assert exp_vector_exists(chi(0, 1, 0.25 + 0j))
        assert not exp_vector_exists(chi(0, 1, 0.75 + 0j))
        assert not exp_vector_exists(chi(0, 1, 0.5 + 0j))  # boundary rejected
        assert exp_vector_exists(StepFunction.zero())

    def test_exact_boundary_rejected(self):
        assert not exp_vector_exists(chi(0, 1, exact(1, 2)))

    def test_closed_form_trivial(self):
        assert exp_inner_closed(StepFunction.zero(), StepFunction.zero(), CFG) == 1

    def test_closed_form_constant_indicators(self):
        # <Psi(a chi), Psi(b chi)> on [0, L) is (1 - 4 conj(a) b)^(-cL/2)
        a, b, L = 0.2 + 0.1j, -0.1 + 0.3j, 2
        got = exp_inner_closed(chi(0, L, a), chi(0, L, b), CFG)
        assert got == pytest.approx((1 - 4 * a.conjugate() * b) ** (-L / 2))

    def test_closed_form_quarter_indicator(self):
        got = exp_inner_closed(chi(0, 1, 0.25 + 0j), chi(0, 1, 0.25 + 0j), CFG)
        assert got == pytest.approx(0.75 ** -0.5, abs=1e-12)

    def test_domain_error(self):
        bad = chi(0, 1, 0.6 + 0j)
        with pytest.raises(DomainError):
            exp_inner_closed(bad, chi(0, 1, 0.1 + 0j), CFG)
        # f = chi/2 has u = 1/4 on the boundary, which ``admissible`` rejects; a
        # signature built past it meets the branch cut and the series guard
        half = _Signature(chi(0, 1, 0.5 + 0j), chi(0, 1, 0.5 + 0j))
        with pytest.raises(DomainError, match="branch cut"):
            half.closed(CFG)
        with pytest.raises(DomainError, match="does not converge"):
            half.series(CFG)

    def test_scaled_closed_form_outside_the_region(self):
        # |t| sup|f| sup|g| < 1/4 with sup|f|^2 = 1/16 is |t| < 4
        f = chi(0, 1, 0.25 + 0j)
        assert exp_inner_closed_scaled(f, f, -3.9, CFG) == pytest.approx((1 + 3.9 / 4) ** -0.5)
        for t in (4, -4.5):
            with pytest.raises(DomainError, match=f"^scale t = {t} leaves the admissible region$"):
                exp_inner_closed_scaled(f, f, t, CFG)

    def test_conjugate_symmetry(self):
        f = chi(0, 1, 0.2 + 0.2j)
        g = StepFunction.from_segments([(0, 2, 0.1 - 0.3j)])
        assert exp_inner_closed(f, g, CFG) == pytest.approx(
            exp_inner_closed(g, f, CFG).conjugate())

    def test_series_matches_closed_form(self):
        f = chi(0, 1, 0.25 + 0j)
        value, tail = exp_inner_series(f, f, CFG)
        assert abs(value - 0.75 ** -0.5) < 1e-10
        assert tail <= CFG.tol

    def test_series_opposite_signs(self):
        f = chi(0, 1, 0.25 + 0j)
        value, _ = exp_inner_series(f, f.scale(-1), CFG)
        assert abs(value - 1.25 ** -0.5) < 1e-10

    def test_series_zero(self):
        assert exp_inner_series(StepFunction.zero(), StepFunction.zero(), CFG) == (1, 0)

    def test_series_tells_a_zero_function_from_a_zero_sup(self, capsys):
        # sup|f|^2 underflows to 0.0 for f = 1e-200 chi[0,1), but f is not
        # zero: its series is summed to depth 1, as for disjoint supports,
        # while only the zero function skips the sum and its tail
        g = chi(0, 1, 0.25 + 0j)
        tiny = chi(0, 1, 1e-200 + 0j)
        assert tiny.sup_norm_sq() == 0.0 and not tiny.is_zero()
        assert repr(exp_inner_series(tiny, g, CFG)) == "((1+0j), 6.661338147750941e-16)"
        assert repr(exp_inner_series(StepFunction.zero(), g, CFG)) == "((1+0j), 0.0)"
        assert repr(exp_inner_series(g, chi(2, 3, 0.25 + 0j), CFG)) == \
            "((1+0j), 6.661338147750941e-16)"
        assert main(["inner", "--f", "[[0,1,1e-200,0]]", "--g", "[[0,1,0.25,0]]"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "agree": true,\n  "closed": [\n    1.0,\n    0.0\n  ],\n'
            '  "depth": 1,\n'
            '  "series": [\n    1.0,\n    0.0\n  ],\n'
            '  "tail_bound": 6.661338147750941e-16\n}\n')

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_series_tail_reads_max_u(self, mode, capsys):
        # sup|f| sup|g| = 49/256 but max|u| = 7/256: the tail bound from the
        # sup norms is 7.495e-05 at depth 40, above the default tol 1e-10;
        # the one from max|u| is 1.05e-14 there, and within tol from depth 10
        f, g = "[[0,1,0.4375,0],[1,2,0.0625,0]]", "[[0,1,0.0625,0],[1,2,0.4375,0]]"
        assert main(["--mode", mode, "inner", "--f", f, "--g", g]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["agree"] is True
        assert out["depth"] == 10
        assert out["tail_bound"] == pytest.approx(3.01e-11, rel=0.01)
        fs, gs = (StepFunction.from_json(json.loads(h), exact=mode == "exact") for h in (f, g))
        _, tail, _ = _Signature.admissible(fs, gs).series(CFG, fixed=True)
        assert tail == pytest.approx(1.05e-14, rel=0.01)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_exact_series_term_beyond_the_doubles(self, mode, capsys):
        # c = 1e300: b_2, about c^2 / 128, leaves the doubles in either backend
        argv = ["--depth", "2", "--mode", mode, "--c", "1e300", "inner",
                "--f", "[[0,1,-0.25,0]]", "--g", "[[-1e308,1e308,0.25,0]]"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "domain error: a series term exceeds double precision\n")

    def test_series_unconverged_at_small_depth(self):
        f = chi(0, 1, 0.45 + 0j)
        with pytest.raises(UnconvergedError):
            exp_inner_series(f, f, FockConfig(depth=5, tol=1e-10))

    def test_series_within_tail_bound(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_family(rng, 1)[0]
            g = random_family(rng, 1)[0]
            value, tail = exp_inner_series(f, g, CFG)
            closed = exp_inner_closed(f, g, CFG)
            assert abs(value - closed) <= tail + 1e-12

    def test_generating_function_derivative(self):
        # d/dt at 0 of the scaled inner product is 2 c <f, g>
        f = chi(0, 1, 0.25 + 0j)
        h = 1e-6
        d = (exp_inner_closed_scaled(f, f, h, CFG)
             - exp_inner_closed_scaled(f, f, -h, CFG)).real / (2 * h)
        assert d == pytest.approx(2 * 0.0625, rel=1e-6)


class TestAdaptiveDepth:
    """The series stops at the first depth whose tail bound is within tol."""

    TOLS = (1e-6, 1e-10, 1e-14)

    @staticmethod
    def series(f, g, cfg, fixed=False):
        return _Signature.admissible(f, g).series(cfg, fixed)

    @pytest.mark.parametrize("exact", [False, True])
    def test_depth_is_minimal(self, exact):
        # at tol 1e-14 the rounding error of the sum, not the dominating
        # tail, sets the depth of some pairs, and of some no depth reaches it
        rng = random.Random(21)
        for _ in range(12):
            f, g = random_family(rng, 2, max_abs=0.45, exact=exact)
            for tol in self.TOLS:
                for c in (Fraction(1), Fraction(5, 2)):
                    cfg = FockConfig(c=c, depth=100, tol=tol)
                    try:
                        value, tail, N = self.series(f, g, cfg)
                    except UnconvergedError:
                        loose = FockConfig(c=c, depth=100, tol=1e300)
                        assert self.series(f, g, loose, fixed=True)[1] > tol
                        continue
                    loose = FockConfig(c=c, depth=N, tol=1e300)
                    assert tail <= tol
                    assert self.series(f, g, loose, fixed=True) == (value, tail, N)
                    if N > 1:
                        loose = FockConfig(c=c, depth=N - 1, tol=1e300)
                        assert self.series(f, g, loose, fixed=True)[1] > tol

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_cap_names_the_depth_needed(self, mode, capsys):
        def run(depth, f='[[0,1,0.45,0]]', g='[[0,1,-0.45,0]]'):
            code = main(["--mode", mode, "--depth", str(depth), "inner", "--f", f, "--g", g])
            return code, capsys.readouterr()

        assert run(5) == (1, ("", "check error: tail bound 3.353e-01 exceeds tol 1.000e-10 "
                                  "at depth 5; need depth >= 103\n"))
        assert run(102)[0] == 1
        code, (out, _) = run(103)
        assert code == 0 and json.loads(out)["depth"] == 103
        assert run(40, '[[0,1,0.4999999,0]]', '[[0,1,-0.4999999,0]]') == (
            1, ("", "check error: tail bound 2.196e+05 exceeds tol 1.000e-10 at depth 40; "
                    "no depth <= 2000 reaches it\n"))

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_a_cap_out_of_reach_draws_no_term(self, mode, monkeypatch, capsys):
        # the dominating tail at the cap exceeds tol and sum_{n<=cap} d_n is
        # finite, so the error is raised before any b_n is drawn
        drawn = []
        terms = _Signature._terms

        def counted(sig, c):
            for bn in terms(sig, c):
                drawn.append(bn)
                yield bn

        monkeypatch.setattr(_Signature, "_terms", counted)

        def run(depth, v):
            code = main(["--mode", mode, "--depth", str(depth), "inner",
                         "--f", f"[[0,1,{v},0]]", "--g", f"[[0,1,-{v},0]]"])
            return code, capsys.readouterr()

        assert run(600, 0.4999999) == (1, ("", "check error: tail bound 5.751e+04 exceeds tol "
                                               "1.000e-10 at depth 600; no depth <= 2000 reaches it\n"))
        assert run(5, 0.45)[0] == 1
        assert drawn == []
        assert run(103, 0.45)[0] == 0  # within reach: b_1..b_103 are summed
        assert len(drawn) == 103
        # b_2 leaves the doubles: the terms are drawn, and the first one beyond raises
        argv = ["--depth", "2", "--mode", mode, "--c", "1e300", "inner",
                "--f", "[[0,1,-0.25,0]]", "--g", "[[-1e308,1e308,0.25,0]]"]
        assert main(argv) == 2 and len(drawn) > 103

    def test_exact_and_float_pick_the_same_depth(self):
        # dyadic pairs: rho, beta and so the dominating tails are the same doubles
        rng = random.Random(23)
        for _ in range(30):
            fe, ge = random_family(rng, 2, max_abs=0.45, exact=True)
            ff, gf = float_copy(fe), float_copy(ge)
            for tol in self.TOLS[:2]:
                cfg = FockConfig(depth=300, tol=tol)
                ve, _, ne = self.series(fe, ge, cfg)
                vf, _, nf = self.series(ff, gf, cfg)
                assert ne == nf
                assert abs(ve - vf) <= 1e-15 * abs(ve)


class TestGram:
    def test_singleton_zero(self):
        G = gram_matrix([StepFunction.zero()], CFG)
        assert G.shape == (1, 1) and G[0, 0] == 1

    def test_two_by_two_closed_forms(self):
        f = chi(0, 1, 0.25 + 0j)
        G = gram_matrix([f, f.scale(-1)], CFG)
        assert G[0, 0] == pytest.approx(0.75 ** -0.5)
        assert G[0, 1] == pytest.approx(1.25 ** -0.5)
        assert G[1, 0] == pytest.approx(1.25 ** -0.5)

    def test_gram_is_hermitian_psd(self):
        fam = random_family(random.Random(2), 4, max_abs=0.45)
        G = gram_matrix(fam, CFG)
        assert is_psd(G)

    def test_domain_error_lists_offenders(self):
        with pytest.raises(DomainError):
            gram_matrix([chi(0, 1, 0.6 + 0j)], CFG)

    def test_min_eig_identity(self):
        assert gram_min_eig(np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_min_eig_rank_one(self):
        G = np.ones((2, 2), dtype=complex)
        assert gram_min_eig(G) == pytest.approx(0.0, abs=1e-14)

    def test_not_hermitian_rejected(self):
        G = np.array([[1, 1j], [1j, 1]], dtype=complex)
        with pytest.raises(NotHermitianError):
            gram_min_eig(G)


def reference_pivots(family, N):
    """The LDL pivots of G_N = sum_{n<=N} A_n / (n!)^2, every entry from its own
    n-particle table, up to the first pivot that is not positive."""
    G = [[sum((ExactComplex.of(a) * Fraction(1, math.factorial(k) ** 2)
               for k, a in enumerate(n_particle_table(moments(f, g, N), N, CFG))),
              ExactComplex.of(0)) for g in family] for f in family]
    pivots = []
    for k in range(len(family)):
        d = G[k][k].re
        pivots.append(d)
        if d <= 0:
            break
        for i in range(k + 1, len(family)):
            ell = G[i][k] * (1 / d)
            for j in range(k + 1, len(family)):
                G[i][j] = G[i][j] - ell * G[k][j]
    return pivots


def certificate(family):
    """[(N, pivots)] of ``_gram_minors`` up to the first N that certifies,
    each pivot read off two consecutive minors of den * G_N."""
    out = []
    for N, den, minors in _gram_minors(family, CFG):
        out.append((N, [Fraction(m, den * p) for m, p in zip(minors, [1, *minors])]))
        if minors[-1] > 0:
            break
    return out


class TestGramCertificate:
    ROTATED = [chi(0, 1, exact(1, 4)).scale(ExactComplex.of(z)) for z in (1, -1, 1j, -1j)]

    def test_rotated_quarters_first_certify_at_depth_3(self):
        # {f, -f, i f, -i f}, f = chi[0,1)/4: A_1 and A_2 have a null vector, A_3 none
        got = certificate(self.ROTATED)
        assert got == [(1, [Fraction(9, 8), Fraction(4, 9), 0]),
                       (2, [Fraction(147, 128), Fraction(131, 294), Fraction(12, 131), 0]),
                       (3, [Fraction(1181, 1024), Fraction(17423, 37792),
                            Fraction(3847, 34846), Fraction(240, 3847)])]
        assert [pivots for _, pivots in got] == [reference_pivots(self.ROTATED, N) for N in (1, 2, 3)]

    def test_a_repeated_member_never_certifies(self):
        f, g, h = random_family(random.Random(4), 3, max_abs=0.45, exact=True)
        got = certificate([f, g, f, h])
        assert [N for N, _ in got] == list(range(1, GRAM_DEPTH + 1))
        assert all(pivots[-1] == 0 and len(pivots) == 3 for _, pivots in got)

    @pytest.mark.parametrize("seed, size", [(9, 4), (0, 2), (1, 3), (2, 5), (3, 6)])
    def test_certified_where_the_float_gram_is_positive_definite(self, seed, size):
        # seed 9, size 4 draws criterion 9's families; both backends read one stream
        draws = 20 if seed == 9 else 5
        exact_rng, float_rng = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            fam = random_family(exact_rng, size, max_abs=0.45, exact=True)
            got = certificate(fam)
            certified = got[-1][1][-1] > 0
            assert certified == (gram_min_eig(gram_matrix(
                random_family(float_rng, size, max_abs=0.45), CFG)) > 0)
            assert got[-1][1] == reference_pivots(fam, got[-1][0])

    def test_an_inadmissible_member_is_rejected(self):
        with pytest.raises(DomainError):
            next(_gram_minors([chi(0, 1, exact(1, 2))], CFG))


class TestLengthsBeyondTheDoubles:
    """Every breakpoint is a double, but a length r - l or a sum of lengths
    need not be one: converting it is a DomainError, not an OverflowError."""

    LONG = StepFunction.from_json([[-1e308, 1e308, 0.25, 0]])

    def test_closed_form(self):
        with pytest.raises(DomainError):
            exp_inner_closed(self.LONG, self.LONG, CFG)

    def test_series_beta(self):
        # the overlap is 2e308 and beta = c * overlap / 2
        f = StepFunction.from_json([[0, 1e308, 0.01, 0]])
        with pytest.raises(DomainError):
            exp_inner_series(f, f, FockConfig(c=1e300))

    def test_series_half_length(self):
        # an int breakpoint is exact at any size; the series reads L/2 as a double
        f = StepFunction.from_segments([(0, 10 ** 400, 0.01 + 0j)])
        with pytest.raises(DomainError, match="a length exceeds double precision"):
            exp_inner_series(f, f, CFG)

    def test_lemma4_norm(self):
        from quadfock.quantization import lemma4_derivative_check
        # ||f||^2 = 9 * 1.5e308 is exact, and a tiny c brings 2c ||f||^2 back
        # among the doubles; with c = 1 the printed report leaves them
        f = StepFunction.from_json([[0, 1.5e308, 3, 0]], exact=True)
        c = Fraction(1, 10 ** 306)
        rep = lemma4_derivative_check([f], [1], FockConfig(c=c))
        assert rep.derivative == rep.expected == 2 * c * 9 * Fraction(1.5e308)
        assert rep.to_dict()["expected"] == float(rep.expected)
        rep = lemma4_derivative_check([f], [1], FockConfig(c=Fraction(1)))
        with pytest.raises(DomainError):
            rep.to_dict()


def n_particle_table_to_2(f, g, cfg):
    return n_particle_table(moments(f, g, 2), 2, cfg)


@pytest.mark.parametrize("route", [exp_inner_closed, exp_inner_series, n_particle_table_to_2])
def test_exact_c_beyond_the_doubles(route):
    # an exact c is valid at any size, but the float routes read it as a
    # double: the closed form in its exponent, the series in beta = c S / 2
    # and the float n-particle table in c / n
    f = chi(0, 1, 0.25 + 0j)
    with pytest.raises(DomainError, match="exceeds double precision"):
        route(f, f, FockConfig(c=Fraction(10 ** 400)))


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_non_finite_c_is_rejected(c):
    # an infinite c reached the series, whose exact beta let a bare
    # OverflowError out; a huge exact c stays valid (test_exact_c_beyond_the_doubles)
    with pytest.raises(ValueError, match="finite|positive"):
        FockConfig(c=c)
