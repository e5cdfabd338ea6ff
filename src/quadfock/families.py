"""Seeded random inputs for tests and the CLI.

All generation is driven by ``random.Random(seed)`` and rational-valued so
the same seed yields the same functions in both scalar backends: the exact
values are small dyadic rationals, the float values are their (exact)
binary representations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .quantization import QuadOperator
from .scalars import ExactComplex, _frac
from .stepfn import IntervalSet, PiecewiseAffineMap, StepFunction, _images_overlap


def random_step_function(rng: random.Random, max_abs: float = 0.3,
                         span: int = 4, exact: bool = False) -> StepFunction:
    """Random rational step function of 1 to 3 segments, complex values,
    with sup norm strictly below max_abs."""
    denom = 32
    # largest numerator keeping |re + i*im| < max_abs
    bound = max(int(max_abs * denom / 1.4142135623730951), 1)
    n_segs = rng.randint(1, 3)
    # distinct sorted cuts, so every segment is nonempty
    cuts = sorted(rng.sample(range(0, 4 * span + 1), 2 * n_segs))
    segs = []
    for i in range(n_segs):
        l = _frac(cuts[2 * i]) / 4
        r = _frac(cuts[2 * i + 1]) / 4
        re = _frac(rng.randint(-bound, bound)) / denom
        im = _frac(rng.randint(-bound, bound)) / denom
        if re == 0 and im == 0:
            re = _frac(1) / denom
        v = ExactComplex(re, im) if exact else complex(re, im)
        segs.append((l, r, v))
    return StepFunction.from_segments(segs)


def random_family(rng: random.Random, size: int, *, max_abs: float = 0.3,
                  exact: bool = False, span: int = 4) -> list[StepFunction]:
    """Pairwise-distinct random step functions."""
    out: list[StepFunction] = []
    while len(out) < size:
        f = random_step_function(rng, max_abs=max_abs, exact=exact, span=span)
        if f not in out:
            out.append(f)
    return out


_SLOPES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
           Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]


def random_injective_operator(rng: random.Random, *, exact: bool = False):
    """Random weighted-composition operator with injective piecewise-affine
    map of 1 or 2 pieces, redrawn while ``stepfn._images_overlap`` finds its
    piece images overlapping, at most 200 times.  Returns a QuadOperator."""
    for _ in range(200):
        n = rng.randint(1, 2)
        # distinct sorted cuts, so every piece is nonempty
        cuts = sorted(rng.sample(range(-8, 9), 2 * n))
        pieces = []
        for i in range(n):
            l, r = _frac(cuts[2 * i]), _frac(cuts[2 * i + 1])
            a = rng.choice(_SLOPES)
            b = Fraction(rng.randint(-4, 4))
            pieces.append((l, r, a, b))
        phi = PiecewiseAffineMap.from_pieces(pieces)
        if _images_overlap(phi):
            continue
        E = phi.domain()
        h_segs = []
        for l, r in E.intervals:
            re = _frac(rng.randint(-8, 8)) / 16
            im = _frac(rng.randint(-8, 8)) / 16
            if re == 0 and im == 0:
                re = _frac(1) / 2
            v = ExactComplex(re, im) if exact else complex(re, im)
            h_segs.append((l, r, v))
        h = StepFunction.from_segments(h_segs)
        return QuadOperator(E, h, phi)
    raise RuntimeError("failed to draw an injective operator")


def reflection_operator(weight=0.9, exact: bool = False):
    """phi(x) = 1 - x on [0, 1) with a real constant weight: the canonical
    operator whose quadratic quantization is self-adjoint."""
    E = IntervalSet.from_intervals([(0, 1)])
    v = ExactComplex.of(Fraction(weight)) if exact else complex(weight)
    h = StepFunction.from_segments([(0, 1, v)])
    phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    return QuadOperator(E, h, phi)
