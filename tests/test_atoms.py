"""One list of atoms against the parent's three routes through h and phi.

``quantization._atoms`` cuts the pieces of phi at the breakpoints of h and
gives each part the value of h on it, 0 where a piece meets a gap of h.
``adjoint_operator``, the exact Hermitian test and the boundedness cells
read that one list.  Before, each pulled h through phi on its own; those
routes are kept in ``tests/_reference.py``.  Every result must be the
parent's, byte for byte (``repr``), in both scalar backends, on:
- the 288 operators of the slope-one class;
- 400 seeded injective draws, each also with h cut to its first segment;
- seeded maps of 1 to 3 pieces whose images may overlap, with h of several
  segments and gaps.
Then the two edge cases of the atoms are pinned with exact values.
"""

import random
from fractions import Fraction

import pytest

from quadfock import (
    FockConfig,
    NonInjectiveError,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    adjoint_operator,
    boundedness_report,
    check_selfadjoint_structure,
    quantization,
)
from quadfock.families import random_injective_operator
from quadfock.quantization import _atoms, _cells, _exact
from quadfock.scalars import ExactComplex, _new, _rat
from quadfock.stepfn import _images_overlap

from _reference import (reference_adjoint, reference_cells, reference_witness,
                        slope_one_class)

CFG = FockConfig(c=Fraction(1))
SPLITS = (1, 2)
SLOPES = [_rat(n, d) for n, d in [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                                  (3, 2), (-3, 2), (1, 3), (-5, 4)]]


def in_backend(T, exact):
    """T with the values of h as ExactComplex or as complex."""
    value = ExactComplex.of if exact else complex
    return QuadOperator(T.E, StepFunction(tuple((l, r, value(v)) for l, r, v in T.h.segments)),
                        T.phi)


def gappy_operator(rng, exact):
    """1 to 3 pieces with integer ends in [-8, 8], their images free to
    overlap; each interval of E cut at up to three points k/4, and h = v/8
    on each part with probability 3/4, so h has gaps inside the pieces."""
    n = rng.randrange(1, 4)
    cuts = sorted(rng.sample(range(-8, 9), 2 * n))
    phi = PiecewiseAffineMap.from_pieces(
        (cuts[2 * i], cuts[2 * i + 1], rng.choice(SLOPES), rng.randrange(-4, 5))
        for i in range(n))
    segs = []
    for l, r in phi.domain().intervals:
        ends = sorted({4 * l.numerator, 4 * r.numerator,
                       *(rng.randrange(4 * l.numerator, 4 * r.numerator + 1) for _ in range(3))})
        for a, b in zip(ends, ends[1:]):
            re, im = rng.randrange(-8, 9), rng.randrange(-8, 9)
            if rng.random() < 0.75 and (re or im):
                v = _new(re, im, 8) if exact else complex(re / 8, im / 8)
                segs.append((_rat(a, 4), _rat(b, 4), v))
    return QuadOperator(phi.domain(), StepFunction.from_segments(segs), phi)


def operators(exact):
    ops = [in_backend(T, exact) for T in slope_one_class()]
    rng = random.Random(7)
    for _ in range(400):
        T = random_injective_operator(rng, exact=exact)
        ops += [T, QuadOperator(T.E, StepFunction(T.h.segments[:1]), T.phi)]
    rng = random.Random(34)
    ops += [gappy_operator(rng, exact) for _ in range(300)]
    return ops


def adjoint_repr(adjoint, T):
    try:
        S = adjoint(T)
    except NonInjectiveError:
        return "NonInjectiveError"
    return repr((S.E, S.h, S.phi))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_atoms_give_the_parent_witness_adjoint_and_cells(exact):
    ops = operators(exact)
    folds = sum(bool(_images_overlap(T.phi)) for T in ops)
    gaps = sum(any(not v for *_, v in _atoms(T)) for T in ops)
    assert folds > 50 and gaps > 200
    for T in ops:
        assert repr(check_selfadjoint_structure(T).witness) == repr(reference_witness(T)), T
        assert adjoint_repr(adjoint_operator, T) == adjoint_repr(reference_adjoint, T), T
        # the exact T that boundedness_report hands to _cells
        T_exact = _exact(T)
        assert repr(_cells(T_exact, SPLITS)) == repr(reference_cells(T_exact, SPLITS)), T


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_boundedness_cells_are_the_parent_scans(exact, monkeypatch):
    # the whole report on every seventh operator: the cells decide it
    for T in operators(exact)[::7]:
        got = boundedness_report(T, CFG, splits=SPLITS).cells
        with monkeypatch.context() as m:
            m.setattr(quantization, "_cells", reference_cells)
            want = boundedness_report(T, CFG, splits=SPLITS).cells
        assert repr(got) == repr(want), T


def q(n, d=1):
    return _rat(n, d)


def test_a_gap_of_h_inside_a_piece_is_a_zero_atom():
    # phi(x) = x / 2 on [0, 2); h = 1/2 on [0, 1/2), 3/4 on [3/2, 2), and 0
    # on the gap [1/2, 3/2) between, all inside the one piece
    half, three_q = ExactComplex.of(Fraction(1, 2)), ExactComplex.of(Fraction(3, 4))
    phi = PiecewiseAffineMap.from_pieces([(0, 2, Fraction(1, 2), 0)])
    h = StepFunction.from_segments([(0, Fraction(1, 2), half), (Fraction(3, 2), 2, three_q)])
    T = QuadOperator(phi.domain(), h, phi)
    (p,) = phi.pieces
    assert _atoms(T) == [(q(0), q(1, 2), p, half), (q(1, 2), q(3, 2), p, 0),
                         (q(3, 2), q(2), p, three_q)]

    rep = boundedness_report(T, CFG)
    assert [(c["cell"], c["h_sup_sq"], c["r1"]) for c in rep.cells] == [
        ((0, Fraction(1, 4)), Fraction(1, 4), Fraction(1, 2)),
        ((Fraction(1, 4), Fraction(3, 4)), 0, 0),
        ((Fraction(3, 4), 1), Fraction(9, 16), Fraction(9, 8))]
    assert rep.cells[1]["sup_r"] == 0 and rep.cells[1]["agrees"]

    # T* carries conj(v) / (1/2) on the images, and nothing on the gap's
    S = adjoint_operator(T)
    assert S.h.segments == ((q(0), q(1, 4), ExactComplex.of(1)),
                            (q(3, 4), q(1), ExactComplex.of(Fraction(3, 2))))
    assert check_selfadjoint_structure(T).witness == {"k": 1, "cell": (q(0), q(1, 4))}


def test_an_h_segment_across_two_pieces_is_cut_at_the_piece_end():
    # h = i/2 on [0, 2); phi(x) = x + 2 on [0, 1) and 2x + 2 on [1, 2)
    v = ExactComplex.of(0.5j)
    phi = PiecewiseAffineMap.from_pieces([(0, 1, 1, 2), (1, 2, 2, 2)])
    T = QuadOperator(phi.domain(), StepFunction.from_segments([(0, 2, v)]), phi)
    p0, p1 = phi.pieces
    assert _atoms(T) == [(q(0), q(1), p0, v), (q(1), q(2), p1, v)]

    assert [(c["cell"], c["h_sup_sq"]) for c in boundedness_report(T, CFG).cells] == [
        ((2, 3), Fraction(1, 4)), ((4, 6), Fraction(1, 4))]
    assert _cells(T, (1,)) == [(q(2), q(3), [(q(1), q(1, 4))]),
                               (q(4), q(6), [(q(2), q(1, 4))])]

    S = adjoint_operator(T)
    assert S.h.segments == ((q(2), q(3), ExactComplex.of(-0.5j)),
                            (q(4), q(6), ExactComplex.of(-0.25j)))
    assert [(p.slope, p.intercept) for p in S.phi.pieces] == [(1, -2), (Fraction(1, 2), -1)]
    # the weights differ first on h's one segment [0, 2), not on an atom
    assert check_selfadjoint_structure(T).witness == {"k": 1, "cell": (q(0), q(2))}
