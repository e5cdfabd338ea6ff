"""One list of atoms against the scans of h for every piece of phi.

``quantization._atoms`` cuts the pieces of phi at the breakpoints of h and
gives each part the value of h on it, 0 where a piece meets a gap of h.
The exact Hermitian test and the boundedness cells read that one list.  The
witness of the Hermitian test is checked against ``reference_witness``,
which builds T_1, T_2 and their adjoints as operators, the five structural
conditions beside it against ``reference_structure``, and the cells against
``reference_boundedness_cells``, a scan of h for every piece and breakpoint,
``repr`` for ``repr``, in both scalar backends, on ``atom_operators``.  Then
the two edge cases of the atoms are pinned with exact values.
"""

from fractions import Fraction

import pytest

from quadfock import (
    FockConfig,
    PiecewiseAffineMap,
    QuadOperator,
    StepFunction,
    adjoint_operator,
    boundedness_report,
    check_selfadjoint_structure,
    quantization,
)
from quadfock.quantization import _atoms, _cells, _exact
from quadfock.scalars import ExactComplex, _rat
from quadfock.stepfn import _images_overlap

from _reference import (atom_operators, reference_boundedness_cells, reference_structure,
                        reference_witness, structure)

CFG = FockConfig(c=Fraction(1))
SPLITS = (1, 2)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_atoms_give_the_reference_witness_and_cells(exact):
    ops = atom_operators(exact)
    folds = sum(bool(_images_overlap(T.phi)) for T in ops)
    gaps = sum(any(not v for *_, v in _atoms(T)) for T in ops)
    assert folds > 50 and gaps > 200
    unit_folds = 0  # every |slope| 1 and the image in supp h: only the overlap parts them
    for T in ops:
        rep = check_selfadjoint_structure(T)
        assert repr(rep.witness) == repr(reference_witness(T)), T
        assert structure(rep) == reference_structure(T), T
        unit_folds += bool(rep.maps_into and _images_overlap(T.phi)
                           and all(abs(p.slope) == 1 for p in T.phi.pieces))
        # the exact T that boundedness_report hands to _cells
        T_exact = _exact(T)
        assert repr(_cells(T_exact, SPLITS)) == \
            repr(reference_boundedness_cells(T_exact, SPLITS)), T
    assert unit_folds >= 24


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_boundedness_cells_are_the_parent_scans(exact, monkeypatch):
    # the whole report on every seventh operator: the cells decide it
    for T in atom_operators(exact)[::7]:
        got = boundedness_report(T, CFG, splits=SPLITS).cells
        with monkeypatch.context() as m:
            m.setattr(quantization, "_cells", reference_boundedness_cells)
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
