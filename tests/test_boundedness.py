"""The exact boundedness report of Gamma_2(T) and the contraction subcommand.

r_k(I) = a_k(T chi_I, T chi_I) / a_k(chi_I, chi_I) on each cell I; on one
affine piece of slope s and weight h, r_k = |h|^(2k) (cL/(2s))_k / (cL/2)_k.
The probes are the ones ROADMAP item 12 lists, at c = 1.
"""

import json
import random
from fractions import Fraction

import pytest

from quadfock import (
    FockConfig,
    IntervalSet,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    apply_operator,
    boundedness_report,
    check_contraction_gram,
    check_l2_contraction,
    dilation_operator,
    moments,
    n_particle_table,
    window_radius,
)
from quadfock import acceptance
from quadfock.cli import main
from quadfock.families import random_family, random_injective_operator
from quadfock.scalars import ExactComplex

C1 = FockConfig(c=Fraction(1))
K = 8


def operator(pieces, weights, exact=True):
    """phi from (l, r, slope, intercept) pieces; h = weights[i] on piece i."""
    value = (lambda v: ExactComplex.of(Fraction(v))) if exact else complex
    E = IntervalSet.from_intervals([(l, r) for l, r, _, _ in pieces])
    h = StepFunction.from_segments([(l, r, value(v))
                                    for (l, r, _, _), v in zip(pieces, weights)])
    return QuadOperator(E, h, PiecewiseAffineMap.from_pieces(pieces))


def one_piece(slope, weight, length=1, exact=True):
    """h chi * f(slope x) with image cell [0, length)."""
    return operator([(0, Fraction(length) / slope, slope, 0)], [weight], exact)


FOLD = [(-1, 0, -1, 0), (0, 1, 1, 0)]  # phi(x) = |x| on [-1, 1)


def table_ratios(T, cell, cfg=C1):
    """r_1..r_K of one cell through the library's n-particle table."""
    l, r = (Fraction(x) for x in cell)
    chi = StepFunction.indicator(l, r, ExactComplex.of(1))
    tf = apply_operator(T, chi)
    num = n_particle_table(moments(tf, tf, K), K, cfg)
    den = n_particle_table(moments(chi, chi, K), K, cfg)
    return [x.re / y.re for x, y in zip(num[1:], den[1:])]


# --- the ROADMAP probes, exactly ---------------------------------------------


@pytest.mark.parametrize("T, verdict, r", [
    # f(2x): 1/2, 5/12, 3/8, ... stays <= 1
    (one_piece(2, 1), "contraction", [Fraction(1, 2), Fraction(5, 12), Fraction(3, 8)]),
    # f(x/2): 2, 8/3, 16/5, ... grows like k^(c/2)
    (one_piece(Fraction(1, 2), 1), "unbounded", [2, Fraction(8, 3), Fraction(16, 5)]),
    # 2 f(4x), an L^2 isometry: 1, 3, 51/5, ..., r_6 = 3485/7 ~ 497.9
    (one_piece(4, 2), "unbounded", [1, 3, Fraction(51, 5), Fraction(255, 7),
                                    Fraction(935, 7), Fraction(3485, 7)]),
    # 0.9 f(x/2): r_1 = 81/50 on every sub-cell
    (one_piece(Fraction(1, 2), Fraction(9, 10)), "unbounded", [Fraction(81, 50)]),
    # the fold |x|: r_1 = 2 |h|^2
    (operator(FOLD, [Fraction(1, 2)] * 2), "contraction", [Fraction(1, 2)]),
    (operator(FOLD, [Fraction(3, 4)] * 2), "unbounded", [Fraction(9, 8)]),
])
def test_roadmap_probes(T, verdict, r):
    rep = boundedness_report(T, C1, splits=(1, 2, 4))
    assert rep.verdict == verdict
    assert rep.closed_form_agrees
    assert len(rep.cells) == 7
    for cell in rep.cells:
        assert cell["r1"] == r[0]  # independent of the cell's length
    assert table_ratios(T, rep.cells[0]["cell"])[:len(r)] == r


def test_isometry_2f4x_witness():
    rep = boundedness_report(one_piece(4, 2), C1)
    assert rep.lower_bound == Fraction(92701, 13)  # r_8
    assert rep.witness == {"cell": (0, 1), "k": 8}
    assert float(table_ratios(one_piece(4, 2), (0, 1))[5]) == pytest.approx(497.857, abs=1e-3)


def test_fold_half_stays_below_one_half():
    rep = boundedness_report(operator(FOLD, [Fraction(1, 2)] * 2), C1)
    assert all(r <= Fraction(1, 2) for r in table_ratios(operator(FOLD, [Fraction(1, 2)] * 2),
                                                         rep.cells[0]["cell"]))
    assert rep.lower_bound == 1 and rep.witness == {"cell": None, "k": 0}


def test_weight_above_one_is_unbounded_with_r1_below_one():
    # |h|^2 = 1.21 > 1 on a slope 2 piece: r_1 = 0.605, but r_k grows like 1.21^k
    rep = boundedness_report(one_piece(2, Fraction(11, 10)), C1)
    assert rep.verdict == "unbounded"
    assert rep.cells[0]["r1"] == Fraction(121, 200)


def test_zero_and_empty_operators_are_contractions():
    zero = QuadOperator(IntervalSet.from_intervals([(0, 1)]), StepFunction.zero(),
                        PiecewiseAffineMap.from_pieces([(0, 1, 2, 0)]))
    rep = boundedness_report(zero, C1)
    assert rep.verdict == "contraction" and rep.closed_form_agrees
    assert rep.cells[0]["sup_r"] == 0
    empty = QuadOperator(IntervalSet(), StepFunction.zero(), PiecewiseAffineMap())
    rep = boundedness_report(empty, C1)
    assert (rep.verdict, rep.cells, rep.lower_bound) == ("contraction", (), 1)


def test_cells_cut_at_h_breakpoints_and_piece_images():
    # phi(x) = 2x on [0, 1) and -x + 3 on [1, 2); h changes at 1/2
    T = operator([(0, Fraction(1, 2), 2, 0), (Fraction(1, 2), 1, 2, 0), (1, 2, -1, 3)],
                 [Fraction(1, 4), Fraction(1, 2), 1])
    rep = boundedness_report(T, C1)
    assert [cell["cell"] for cell in rep.cells] == [(0, 1), (1, 2)]
    assert [cell["h_sup_sq"] for cell in rep.cells] == [Fraction(1, 16), 1]
    # [1, 2) has two preimages: 2x on [1/2, 1) with |h|^2 = 1/4 and 3 - x on [1, 2)
    assert rep.cells[1]["r1"] == Fraction(1, 8) + 1
    assert rep.verdict == "unbounded" and rep.closed_form_agrees


def test_splits_must_be_positive():
    with pytest.raises(ValueError):
        boundedness_report(one_piece(2, 1), C1, splits=(1, 0))


@pytest.mark.parametrize("splits", [(), (1, 2.0), (Fraction(1),)])
def test_splits_must_be_nonempty_ints(splits):
    # with no cell, every operator would read "contraction": 2 f(4x) on [0, 1/4) too
    isometry = one_piece(4, 2)
    assert boundedness_report(isometry, C1, splits=(1,)).verdict == "unbounded"
    with pytest.raises(ValueError, match="splits must be one or more ints >= 1"):
        boundedness_report(isometry, C1, splits=splits)


# --- an independent oracle of the closed form ----------------------------------


@pytest.mark.parametrize("c", [Fraction(3, 7), Fraction(5, 2)])
@pytest.mark.parametrize("slope, weight, length", [
    (2, 1, 1), (4, 2, 1), (Fraction(1, 2), Fraction(9, 10), Fraction(3, 2)),
    (Fraction(3, 2), Fraction(1, 3), 5),
])
def test_closed_form_matches_mpmath(c, slope, weight, length):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def mpq(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator

    cfg = FockConfig(c=c)
    T = one_piece(slope, weight, length)
    beta, s, w = mpq(c) * mpq(length) / 2, mpq(slope), mpq(weight) ** 2
    want = [w ** k * mpmath.rf(beta / s, k) / mpmath.rf(beta, k) for k in range(1, K + 1)]
    rep = boundedness_report(T, cfg)
    cell, = rep.cells
    assert cell["agrees"]
    got = table_ratios(T, cell["cell"], cfg)
    for g, x in zip(got, want):
        assert abs(mpq(g) - x) <= mpmath.mpf(10) ** -35 * x
    assert abs(mpq(cell["sup_r"]) - max(want)) <= mpmath.mpf(10) ** -35 * max(want)


# --- seeded draws: the verdict and the computed ratios -------------------------


def fold_operator(rng):
    """Two pieces on [0, 1) and [1, 2) whose images may overlap, with
    weights |h| up to 5/4, so some cells have two preimages."""
    slopes = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
    pieces = [(0, 1, rng.choice(slopes), rng.randint(-1, 1)),
              (1, 2, rng.choice(slopes), rng.randint(-3, 1))]
    weights = [Fraction(rng.randint(1, 10), 8) for _ in pieces]
    return operator(pieces, weights)


@pytest.mark.parametrize("draw", ["injective", "fold"])
def test_seeded_draws_match_their_ratios(draw):
    rng = random.Random(12)
    verdicts = set()
    ops = []
    for _ in range(20):
        if draw == "fold":
            ops += [fold_operator(rng), fold_operator(rng)]
        else:  # |h| <= 1/sqrt(2) in a draw: twice h makes some of them unbounded
            T = random_injective_operator(rng, exact=True)
            ops += [T, QuadOperator(T.E, T.h.scale(2), T.phi)]
    for T in ops:
        rep = boundedness_report(T, C1, splits=(1, 2))
        verdicts.add(rep.verdict)
        assert rep.closed_form_agrees
        for cell in rep.cells:
            # r_1 is the L^2 ratio, read here off T chi_I directly
            l, r = cell["cell"]
            chi = StepFunction.indicator(l, r, ExactComplex.of(1))
            assert cell["r1"] == apply_operator(T, chi).l2_norm_sq() / (r - l)
            ratios = table_ratios(T, cell["cell"])
            assert cell["sup_r"] == max(ratios) == ratios[cell["argmax_k"] - 1]
            if rep.verdict == "contraction":
                assert all(x <= 1 for x in ratios)
        # ROADMAP's conjecture: contraction iff ||h||_inf <= 1 and ||T|| <= 1
        bounded = all(cell["h_sup_sq"] <= 1 and cell["r1"] <= 1 for cell in rep.cells)
        assert (rep.verdict == "contraction") == bounded
        if rep.verdict == "unbounded" and any(cell["r1"] > 1 for cell in rep.cells):
            assert rep.lower_bound > 1
            witness = next(cell for cell in rep.cells if cell["cell"] == rep.witness["cell"])
            assert table_ratios(T, witness["cell"])[rep.witness["k"] - 1] == rep.lower_bound
    assert verdicts == {"contraction", "unbounded"}


def test_float_weights_give_the_same_report():
    rng = random.Random(5)
    for _ in range(20):
        exact = random_injective_operator(rng, exact=True)
        flt = QuadOperator.from_json(exact.to_json())
        a, b = boundedness_report(exact, C1), boundedness_report(flt, FockConfig())
        assert b.closed_form_agrees
        assert a.to_dict() == b.to_dict()


# --- criterion 7, its mutants, and the sampled check it replaced ---------------


@pytest.mark.parametrize("mutant", [
    lambda radius, one: one_piece(4, 2),
    lambda radius, one: operator([(-radius, radius, 2, 0)], [Fraction(11, 10)]),
])
def test_criterion_7_fails_on_mutants(mutant, monkeypatch):
    assert acceptance.criterion_7()["passed"]
    monkeypatch.setattr(acceptance, "dilation_operator", mutant)
    result = acceptance.criterion_7()
    assert not result["passed"]
    assert not result["details"]["contraction"]


def test_sampled_gram_domination_of_the_dilation():
    # the input criterion 7 sampled before it read the exact report
    cfg = FockConfig(c=1.0, tol=1e-10)
    rng = random.Random(7)
    worst_eig, worst_dev = float("inf"), 0.0
    for _ in range(20):
        fam = random_family(rng, rng.randint(2, 5), max_abs=0.45)
        T = dilation_operator(window_radius(*fam), 1.0 + 0j)
        gram, l2 = check_contraction_gram(T, fam, cfg), check_l2_contraction(T, fam)
        assert gram.psd and l2.contraction
        worst_eig = min(worst_eig, gram.min_eig)
        worst_dev = max([worst_dev, *(abs(r - 2 ** -0.5) for r in l2.ratios)])
    assert worst_eig == pytest.approx(0.007869271950097395, rel=1e-12)
    assert worst_dev <= 1e-12


# --- the contraction subcommand ------------------------------------------------

DILATION = '{"E": [[-8,8]], "h": [[-8,8,1,0]], "phi": [[-8,8,2,0]]}'
ISOMETRY = '{"E": [[0,0.25]], "h": [[0,0.25,2,0]], "phi": [[0,0.25,4,0]]}'


def run_cli(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_cli_certifies_the_dilation(capsys):
    code, doc = run_cli(["--mode", "exact", "contraction", "--op", DILATION, "--random", "3"],
                        capsys)
    assert code == 0
    assert doc["boundedness"]["verdict"] == "contraction"
    assert doc["boundedness"]["witness"] == {"cell": None, "k": 0}
    assert doc["l2"]["contraction"] is True


def test_cli_refutes_the_isometry(capsys):
    code, doc = run_cli(["--mode", "exact", "contraction", "--op", ISOMETRY, "--random", "3"],
                        capsys)
    assert code == 1
    assert doc["boundedness"]["verdict"] == "unbounded"
    assert doc["boundedness"]["witness"] == {"cell": [0.0, 1.0], "k": 8}
    assert doc["boundedness"]["lower_bound"] == 92701 / 13


def close(a, b, tol):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tol * max(1.0, abs(a))
    return a == b


@pytest.mark.parametrize("op", [DILATION, ISOMETRY,
                                '{"E": [[-1,1]], "h": [[-1,1,0.75,0.25]], '
                                '"phi": [[-1,0,-1,0],[0,1,1,0]]}'])
def test_cli_exact_and_float_documents_agree(op, capsys):
    family = '[[[0,0.5,0.125,0.0625]],[[0.25,1,-0.1875,0.03125]]]'
    docs = [run_cli(["--mode", mode, "contraction", "--op", op, "--family", family], capsys)
            for mode in ("exact", "float")]
    assert docs[0][0] == docs[1][0]
    assert close(docs[0][1], docs[1][1], 1e-10)
