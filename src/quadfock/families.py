"""Seeded random inputs for tests and the CLI.

All generation is driven by ``random.Random(seed)`` and rational-valued so
the same seed yields the same functions in both scalar backends: the exact
values are small dyadic rationals, the float values are their (exact)
binary representations.  Every end and value is built straight from the
ints the rng returns, with no ``Fraction`` division: an end k/4 is read
from one tuple of ``Fraction`` per span, built on first use (``_grid``), an
operator's integer ends and intercepts from one table (``_INTS``), and a
value (a + b i)/d is ``_new(a, b, d)`` or ``complex(a / d, b / d)``.  An int in
[a, b] is drawn as ``rng.randrange(a, b + 1)``, which is what
``rng.randint(a, b)`` calls, so the draws are those of ``randint``.

A draw is born in ``StepFunction``'s canonical form, so it is built
directly, with no ``from_segments``: its segments are sorted, a gap of
positive length separates any two of them (they lie between distinct
sorted cuts, or on the intervals of a canonical ``IntervalSet``), and no
value is zero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .quantization import QuadOperator
from .scalars import ExactComplex, _new, _rat
from .stepfn import IntervalSet, PiecewiseAffineMap, StepFunction, _images_overlap


def random_step_function(rng: random.Random, max_abs: float = 0.3,
                         span: int = 4, exact: bool = False) -> StepFunction:
    """Random rational step function of 1 to 3 segments, complex values,
    with sup norm strictly below max_abs."""
    denom = 32
    # largest numerator keeping |re + i*im| < max_abs
    bound = max(int(max_abs * denom / 1.4142135623730951), 1)
    randrange = rng.randrange
    n_segs = randrange(1, 4)
    grid = _grid(span)
    # distinct sorted cuts, so every segment is nonempty and a gap follows it
    cuts = sorted(rng.sample(range(len(grid)), 2 * n_segs))
    segs = []
    for i in range(n_segs):
        re = randrange(-bound, bound + 1)
        im = randrange(-bound, bound + 1)
        if re == 0 and im == 0:
            re = 1
        v = _new(re, im, denom) if exact else complex(re / denom, im / denom)
        segs.append((grid[cuts[2 * i]], grid[cuts[2 * i + 1]], v))
    return StepFunction(tuple(segs))


@cache
def _grid(span: int) -> tuple:
    """The ends k/4, k = 0..4 span, as ``Fraction``."""
    return tuple(_rat(k, 4) for k in range(4 * span + 1))


def random_family(rng: random.Random, size: int, *, max_abs: float = 0.3,
                  exact: bool = False, span: int = 4) -> list[StepFunction]:
    """Pairwise-distinct random step functions."""
    out: list[StepFunction] = []
    while len(out) < size:
        f = random_step_function(rng, max_abs=max_abs, exact=exact, span=span)
        if f not in out:
            out.append(f)
    return out


_SLOPES = [_rat(1, 1), _rat(-1, 1), _rat(2, 1), _rat(-2, 1),
           _rat(1, 2), _rat(-1, 2), _rat(3, 2), _rat(-3, 2)]
_INTS = {k: _rat(k, 1) for k in range(-8, 9)}  # the operators' ends and intercepts


def random_injective_operator(rng: random.Random, *, exact: bool = False):
    """Random weighted-composition operator with injective piecewise-affine
    map of 1 or 2 pieces, redrawn while ``stepfn._images_overlap`` finds its
    piece images overlapping, at most 200 times.  Returns a QuadOperator."""
    randrange = rng.randrange
    for _ in range(200):
        n = randrange(1, 3)
        # distinct sorted cuts, so every piece is nonempty
        cuts = sorted(rng.sample(range(-8, 9), 2 * n))
        pieces = []
        for i in range(n):
            a = rng.choice(_SLOPES)
            b = _INTS[randrange(-4, 5)]
            pieces.append((_INTS[cuts[2 * i]], _INTS[cuts[2 * i + 1]], a, b))
        phi = PiecewiseAffineMap.from_pieces(pieces)
        if _images_overlap(phi):
            continue
        E = phi.domain()
        h_segs = []
        for l, r in E.intervals:
            re = randrange(-8, 9)
            im = randrange(-8, 9)
            if re == 0 and im == 0:
                re = 8  # 1/2
            v = _new(re, im, 16) if exact else complex(re / 16, im / 16)
            h_segs.append((l, r, v))
        return QuadOperator(E, StepFunction(tuple(h_segs)), phi)
    raise RuntimeError("failed to draw an injective operator")


def reflection_operator(weight=0.9, exact: bool = False):
    """phi(x) = 1 - x on [0, 1) with a real constant weight: the canonical
    operator whose quadratic quantization is self-adjoint."""
    E = IntervalSet.from_intervals([(0, 1)])
    v = ExactComplex.of(Fraction(weight)) if exact else complex(weight)
    h = E.indicator(v)
    phi = PiecewiseAffineMap.from_pieces([(0, 1, -1, 1)])
    return QuadOperator(E, h, phi)
