"""Exact algebra of complex step functions and piecewise-affine maps on R.

Every function here is piecewise constant with compact support and every
map is affine on finitely many intervals, so all the integrals appearing
in the inner-product formulas evaluate in closed form.  Breakpoints,
affine coefficients and lengths are always exact rationals, of the lean
``Fraction`` subclass ``scalars._Rat``: it compares and adds on its int
pairs without ``Fraction``'s generic dispatch.  Only the *values* of a step
function choose between the exact and the float scalar backend.

Intervals are half-open ``[l, r)`` throughout.  All statements the library
verifies are almost-everywhere statements, so endpoint membership never
matters; the half-open convention just makes refinement unambiguous.  In
particular composing through a negative-slope piece maps ``[l, r)`` onto
``[phi(r), phi(l))``, identifying the image with its a.e.-equal half-open
version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import NonInjectiveError
from .scalars import ExactComplex, _frac, abs_sq_value

Segment = tuple[Fraction, Fraction, object]  # (left, right, value)


def _canonical_segments(segments: Iterable[Segment]) -> tuple[Segment, ...]:
    segs = [(l, r, v) for (l, r, v) in segments if l < r and v != 0]
    segs.sort(key=lambda s: s[0])
    out: list[Segment] = []
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


@dataclass(frozen=True)
class StepFunction:
    """Complex-valued piecewise-constant function, zero outside its segments.

    ``segments`` is the canonical form: sorted, pairwise disjoint, no zero
    values, no two touching segments with equal value.  The empty tuple is
    the zero function.
    """

    segments: tuple[Segment, ...] = ()

    @staticmethod
    def from_segments(segments: Iterable[tuple]) -> "StepFunction":
        norm = [(_frac(l), _frac(r), v) for (l, r, v) in segments]
        for l, r, _ in norm:
            if l >= r:
                raise ValueError(f"empty or inverted interval [{float(l)}, {float(r)})")
        return StepFunction(_canonical_segments(norm))

    @staticmethod
    def zero() -> "StepFunction":
        return StepFunction(())

    @staticmethod
    def indicator(l, r, value=1) -> "StepFunction":
        return StepFunction.from_segments([(l, r, value)])

    def is_zero(self) -> bool:
        return not self.segments

    def breakpoints(self) -> list[Fraction]:
        pts: list[Fraction] = []
        for l, r, _ in self.segments:
            if not pts or pts[-1] != l:
                pts.append(l)
            pts.append(r)
        return pts

    def support(self) -> "IntervalSet":
        return IntervalSet.from_intervals([(l, r) for l, r, _ in self.segments])

    def sup_norm(self) -> float:
        try:
            return math.sqrt(self.sup_norm_sq())
        except OverflowError:  # an exact value beyond the doubles
            return math.inf

    def sup_norm_sq(self):
        """max |v|^2, exact when the values are exact."""
        if not self.segments:
            return 0
        return max(abs_sq_value(v) for _, _, v in self.segments)

    def l2_norm_sq(self):
        total = 0
        for l, r, v in self.segments:
            total = total + (r - l) * abs_sq_value(v)
        return total

    def l2_norm(self) -> float:
        return math.sqrt(float(self.l2_norm_sq()))

    # --- pointwise algebra -------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        segs = [(l, r, vf + vg) if vf != 0 and vg != 0 else (l, r, vf if vg == 0 else vg)
                for l, r, vf, vg in refine(self, other)]
        return StepFunction(_canonical_segments(segs))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1)

    def __mul__(self, other: "StepFunction") -> "StepFunction":
        segs = [(l, r, vf * vg) for l, r, vf, vg in refine(self, other)
                if vf != 0 and vg != 0]
        return StepFunction(_canonical_segments(segs))

    def scale(self, alpha) -> "StepFunction":
        if alpha == 0:
            return StepFunction.zero()
        return StepFunction(_canonical_segments(
            [(l, r, alpha * v) for l, r, v in self.segments]))

    def conj(self) -> "StepFunction":
        return StepFunction(tuple((l, r, v.conjugate()) for l, r, v in self.segments))

    def __pow__(self, k: int) -> "StepFunction":
        if not isinstance(k, int) or k < 1:
            raise ValueError("pow requires a positive integer exponent")
        return StepFunction(_canonical_segments(
            [(l, r, v ** k) for l, r, v in self.segments]))

    # --- serialization -----------------------------------------------------

    def to_json(self) -> list[list[float]]:
        out = []
        for l, r, v in self.segments:
            c = complex(v)
            out.append([float(l), float(r), c.real, c.imag])
        return out

    @staticmethod
    def from_json(data: Sequence[Sequence[float]], exact: bool = False) -> "StepFunction":
        segs = []
        for item in data:
            l, r, re, im = item
            if any(isinstance(x, float) and not math.isfinite(x) for x in item):
                raise ValueError(f"non-finite number in segment {item!r}")
            v = complex(re, im)  # OverflowError for an int beyond the doubles
            if exact:
                v = ExactComplex(re, im)
            segs.append((l, r, v))
        return StepFunction.from_segments(segs)


def _sweep(a: Sequence[tuple], b: Sequence[tuple]) -> Iterator[tuple]:
    """Cells of the common refinement of two sorted sequences of disjoint
    ``(l, r, v)`` segments, in one linear two-pointer pass.

    Yields ``(l, r, va, vb)`` for every cell on which a or b has a segment,
    with 0 where one of them has none.
    """
    na, nb = len(a), len(b)
    i = j = 0
    x = min(a[0][0], b[0][0]) if na and nb else None  # right end of the last cell
    while i < na and j < nb:
        (al, ar, av), (bl, br, bv) = a[i], b[j]
        lo = al if al < bl else bl
        if lo < x:
            lo = x
        in_a, in_b = al <= lo, bl <= lo
        x = ar if in_a else al
        y = br if in_b else bl
        if y < x:
            x = y
        yield (lo, x, av if in_a else 0, bv if in_b else 0)
        if in_a and ar == x:
            i += 1
        if in_b and br == x:
            j += 1
    # one side is exhausted; the last cell may have cut into the other's segment
    from_a = i < na
    for l, r, v in (a[i:] if from_a else b[j:]):
        if x is not None and l < x:
            l = x
        yield (l, r, v, 0) if from_a else (l, r, 0, v)


def refine(f: StepFunction, g: StepFunction) -> Iterator[tuple[Fraction, Fraction, object, object]]:
    """Cells of the common breakpoint refinement over the union of supports.

    Yields ``(l, r, vf, vg)``; at least one of the values is nonzero.
    """
    yield from _sweep(f.segments, g.segments)


def value_signature(f: StepFunction, g: StepFunction) -> dict:
    """Map u = conj(f) * g -> total length carrying u, over the set where
    both f and g are nonzero.

    This is the one object every pairwise Fock-space quantity reads:
    ``inner``, the moments m_k = sum L u^k, the log integral
    sum L log(1 - 4 t u), the overlap length sum L.  It is invariant under
    any measure-preserving rearrangement, so equal signatures certify
    equality of all of them exactly.
    """
    sig: dict = {}
    for l, r, vf, vg in refine(f, g):
        if vf != 0 and vg != 0:
            u = vf.conjugate() * vg
            sig[u] = sig.get(u, 0) + (r - l)
    return sig


def inner(f: StepFunction, g: StepFunction):
    """Exact L^2 pairing  integral of conj(f) * g, conjugate-linear in f."""
    total = 0
    for u, length in value_signature(f, g).items():
        total = total + length * u
    return total


def step_allclose(f: StepFunction, g: StepFunction, tol: float) -> bool:
    """Pointwise a.e. closeness within tol (exact equality when tol == 0)."""
    if tol == 0:
        return f == g
    for _, _, vf, vg in refine(f, g):
        if abs(complex(vf) - complex(vg)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSet:
    """Finite disjoint sorted union of half-open intervals."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def from_intervals(intervals: Iterable[tuple]) -> "IntervalSet":
        ivs = sorted(iv for iv in ((_frac(l), _frac(r)) for l, r in intervals)
                     if iv[0] < iv[1])
        out: list[tuple[Fraction, Fraction]] = []
        for l, r in ivs:
            if out and l <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], r))
            else:
                out.append((l, r))
        return IntervalSet(tuple(out))

    def measure(self) -> Fraction:
        return sum((r - l for l, r in self.intervals), _frac(0))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_intervals(
            (l, r) for l, r, x, y in _sweep(self._segments(), other._segments())
            if x and y)

    def _segments(self) -> list[tuple]:
        return [(l, r, True) for l, r in self.intervals]

    def contains_set(self, other: "IntervalSet") -> bool:
        """other subset of self, up to null sets (exact on rationals)."""
        return other.intersect(self).measure() == other.measure()

    def indicator(self, value=1) -> StepFunction:
        return StepFunction.from_segments([(l, r, value) for l, r in self.intervals])

    def to_json(self) -> list[list[float]]:
        return [[float(l), float(r)] for l, r in self.intervals]

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "IntervalSet":
        return IntervalSet.from_intervals([(l, r) for l, r in data])


def restrict(f: StepFunction, e: IntervalSet) -> StepFunction:
    return StepFunction(_canonical_segments(
        (l, r, v) for l, r, v, inside in _sweep(f.segments, e._segments())
        if v and inside))


# ---------------------------------------------------------------------------
# Piecewise-affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePiece:
    left: Fraction
    right: Fraction
    slope: Fraction
    intercept: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def image(self) -> tuple[Fraction, Fraction]:
        a, b = self(self.left), self(self.right)
        return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """phi(x) = a_j x + b_j on finitely many disjoint half-open intervals."""

    pieces: tuple[AffinePiece, ...] = ()

    @staticmethod
    def from_pieces(pieces: Iterable[tuple]) -> "PiecewiseAffineMap":
        ps = []
        for l, r, a, b in pieces:
            l, r, a, b = _frac(l), _frac(r), _frac(a), _frac(b)
            if l >= r:
                raise ValueError("piece domain must have positive length")
            if a == 0:
                raise ValueError("piece slope must be nonzero")
            ps.append(AffinePiece(l, r, a, b))
        ps.sort(key=lambda p: p.left)
        for p, q in zip(ps, ps[1:]):
            if q.left < p.right:
                raise ValueError("piece domains must be pairwise disjoint")
        return PiecewiseAffineMap(tuple(ps))

    @staticmethod
    def identity(e: IntervalSet) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.from_pieces([(l, r, 1, 0) for l, r in e.intervals])

    def domain(self) -> IntervalSet:
        return IntervalSet.from_intervals([(p.left, p.right) for p in self.pieces])

    def image(self) -> IntervalSet:
        return IntervalSet.from_intervals([p.image() for p in self.pieces])

    def restrict(self, e: IntervalSet) -> "PiecewiseAffineMap":
        pieces = [(p.left, p.right, p) for p in self.pieces]
        return PiecewiseAffineMap.from_pieces(
            (l, r, p.slope, p.intercept)
            for l, r, p, inside in _sweep(pieces, e._segments()) if p and inside)

    def is_identity(self) -> bool:
        return all(p.slope == 1 and p.intercept == 0 for p in self.pieces)

    def to_json(self) -> list[list[float]]:
        return [[float(p.left), float(p.right), float(p.slope), float(p.intercept)]
                for p in self.pieces]

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.from_pieces([tuple(item) for item in data])


def _pull_back(p: AffinePiece, l: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """The x in p's domain with p(x) in [l, r), as (lo, hi); empty unless lo < hi."""
    x0 = (l - p.intercept) / p.slope
    x1 = (r - p.intercept) / p.slope
    if x1 < x0:
        x0, x1 = x1, x0
    return (p.left if x0 < p.left else x0), (p.right if p.right < x1 else x1)


def compose(f: StepFunction, phi: PiecewiseAffineMap) -> StepFunction:
    """f after phi; zero wherever phi is undefined.

    Piecewise-constant structure is preserved exactly: on a piece with
    slope a and intercept b every breakpoint t of f pulls back to
    (t - b) / a.
    """
    segs: list[Segment] = []
    for p in phi.pieces:
        for l, r, v in f.segments:
            lo, hi = _pull_back(p, l, r)
            if lo < hi:
                segs.append((lo, hi, v))
    return StepFunction(_canonical_segments(segs))


def map_compose(phi: PiecewiseAffineMap, psi: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """(phi o psi)(x) = phi(psi(x)), on the a.e. largest domain."""
    pieces = []
    for q in psi.pieces:
        for p in phi.pieces:
            lo, hi = _pull_back(q, p.left, p.right)
            if lo < hi:
                pieces.append((lo, hi, p.slope * q.slope,
                               p.slope * q.intercept + p.intercept))
    return PiecewiseAffineMap.from_pieces(pieces)


def map_invert(phi: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact inverse; requires pairwise disjoint piece images."""
    images = sorted(p.image() for p in phi.pieces)
    for (al, ar), (bl, _) in zip(images, images[1:]):
        if bl < ar:
            raise NonInjectiveError("piece images overlap on a set of positive length")
    pieces = []
    for p in phi.pieces:
        il, ir = p.image()
        inv_slope = 1 / p.slope
        pieces.append((il, ir, inv_slope, -p.intercept * inv_slope))
    return PiecewiseAffineMap.from_pieces(pieces)


@dataclass(frozen=True)
class MeasurePreservingReport:
    injective: bool
    unit_slopes: bool
    maps_into: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.unit_slopes and self.maps_into


def is_measure_preserving(phi: PiecewiseAffineMap, e: IntervalSet,
                          tol: float = 0.0) -> MeasurePreservingReport:
    """Check that phi restricted to e preserves Lebesgue measure into e.

    For a piecewise-affine map this means: injective up to null overlap,
    |slope| = 1 on every piece meeting e, and phi(e) inside e.  The slopes
    are compared exactly, so tol == 0 asks for |slope| = 1.
    """
    phi_e = phi.restrict(e)
    try:
        map_invert(phi_e)
        injective = True
    except NonInjectiveError:
        injective = False
    unit = all(abs(abs(p.slope) - 1) <= tol for p in phi_e.pieces)
    into = e.contains_set(phi_e.image())
    return MeasurePreservingReport(injective, unit, into)
