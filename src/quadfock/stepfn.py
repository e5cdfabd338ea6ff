"""Exact algebra of complex step functions and piecewise-affine maps on R.

Every function here is piecewise constant with compact support and every
map is affine on finitely many intervals, so all the integrals appearing
in the inner-product formulas evaluate in closed form.  Breakpoints,
affine coefficients and lengths are always exact ``Fraction``s in lowest
terms.  ``_sweep`` and ``_covers`` order ends by two products of their int
pairs, inline; a pull-back, an affine image, a map inverse and a signature
value are the int kernels of ``scalars``, which reduce each result once.
Only the *values* of a pair of step functions choose its scalar backend
(``_exact_values``): exact where every value is an ``ExactComplex``, else
float.  So an empty value signature, of disjoint supports or one zero
function, keeps its nonzero input's backend, and two zero functions, which
carry no value, take floats.  A float breakpoint is read exactly, once.  A value
signature holds int lengths on one grid per pair, so a float route leaves
exact arithmetic only in ``fock``, where each length becomes a double by
one int division, and where the exact scaled form is reduced by one lazy
gcd.

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
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import NonInjectiveError
from .scalars import (ExactComplex, _affine, _affine_inverse, _affine_preimage, _conj_times,
                      _frac, _rat, abs_sq_value)

Segment = tuple[Fraction, Fraction, object]  # (left, right, value)


def _json_row(item) -> tuple:
    """A row of numbers read from JSON, as a tuple; a TypeError for a boolean,
    which Python would read as the int 0 or 1."""
    row = tuple(item)
    if any(type(x) is bool for x in row):
        raise TypeError(f"boolean in {row!r}, expected numbers")
    return row


def _json_array(data):
    """data, read from JSON where an array is expected; a TypeError for an
    object or a string, which Python would iterate as its keys or characters."""
    if isinstance(data, (dict, str)):
        raise TypeError(f"expected an array, got {data!r}")
    return data


def _canonical_segments(segments: Iterable[Segment]) -> tuple[Segment, ...]:
    """The canonical form of nonempty (l, r, v) segments, zero values dropped."""
    return _sorted_merged([(l, r, v, l, r) for (l, r, v) in segments if v])


def _sorted_merged(segs: list) -> tuple[Segment, ...]:
    """The canonical form of nonempty, nonzero segments (l, r, v, L, R), each
    end given both as a number l, r and as its ``Fraction`` L, R.

    They are sorted and merged on the numbers, which Python compares exactly
    across int, float and ``Fraction``, as ``ExactComplex`` compares with a
    float or complex, and kept as (L, R, v)."""
    segs.sort(key=itemgetter(0))
    out: list[Segment] = []
    for l, r, v, L, R in segs:
        if out:
            if l < pr:
                raise ValueError(f"overlapping segments at {float(L)}")
            if l == pr and v == pv:
                out[-1] = (out[-1][0], R, v)
                pr = r
                continue
        out.append((L, R, v))
        pr, pv = r, v
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
        """The canonical form of (l, r, value) segments given in any order.

        One pass converts every end to a ``Fraction``, in the order given,
        notes the first empty or inverted interval and drops the zero
        values; the interval raises after the pass, so an end that ``_frac``
        rejects raises first, wherever it stands.  The check, the sort and
        the merge compare the ends as given.  A segment that starts where
        the one before it ended, given as a number of the same type, reuses
        that end's ``Fraction``: ``_frac`` accepts or rejects a number by
        its type, and a NaN equals nothing."""
        segs = []
        empty = None  # the first empty or inverted interval, converted
        pr, R = math.nan, None  # the previous right end, given and converted
        for l, r, v in segments:
            L = R if type(l) is type(pr) and l == pr else _frac(l)
            R = _frac(r)
            if l >= r and empty is None:
                empty = L, R
            if v != 0:
                segs.append((l, r, v, L, R))
            pr = r
        if empty is not None:
            raise ValueError(f"empty or inverted interval [{float(empty[0])}, {float(empty[1])})")
        return StepFunction(_sorted_merged(segs))

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
        segs = [(l, r, vf + vg if vf and vg else vf or vg)
                for l, r, vf, vg in refine(self, other)]
        return StepFunction(_canonical_segments(segs))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1)

    def __mul__(self, other: "StepFunction") -> "StepFunction":
        segs = [(l, r, vf * vg) for l, r, vf, vg in refine(self, other) if vf and vg]
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

    @staticmethod
    def from_json(data: Sequence[Sequence[float]], exact: bool = False) -> "StepFunction":
        segs = []
        for item in _json_array(data):
            l, r, re, im = item
            # _json_row's test, inline: this loop reads every input of inner and nparticle
            if type(l) is bool or type(r) is bool or type(re) is bool or type(im) is bool:
                raise TypeError(f"boolean in segment {item!r}, expected numbers")
            # a non-finite float is unequal to itself (NaN) or infinite;
            # neither test raises for a number of another type
            if (l != l or r != r or re != re or im != im
                    or math.inf in item or -math.inf in item):
                raise ValueError(f"non-finite number in segment {item!r}")
            v = complex(re, im)  # OverflowError for an int beyond the doubles
            if exact:
                v = ExactComplex(re, im)
            segs.append((l, r, v))
        return StepFunction.from_segments(segs)


def _sweep(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple]:
    """Cells of the common refinement of two sorted sequences of disjoint
    ``(l, r, v)`` segments, as one merge of their ends.

    Returns ``(l, r, va, vb)`` for every cell on which a or b has a segment,
    with 0 where one of them has none.  Each side keeps its next end: its
    segment's right end while the side is active at x, else its left end.
    A cell costs one ordering comparison of the two next ends, an equality
    test for a tie when b's is not the smaller, and, for each side that
    leaves a segment, an equality test for whether its next one starts there.

    The ends are ``Fraction``s, and both tests are inline on their int
    pairs: ``<`` as two products, and equality of the pairs, exact by the
    normal form, after an ``is`` test, which touching segments pass
    since they share one end object.  The cells' ends are the segments' own
    objects.  A cell ends at a's next end when the two are equal; it starts
    at the end of the cell before it while a side goes on across that point,
    else at the left end of the segment that starts there, b's when both do.
    """
    cells: list[tuple] = []
    append = cells.append
    na, nb = len(a), len(b)
    i = j = 0
    in_a = in_b = False  # whether a (b) has a segment at x
    x = None             # left end of the next cell
    if na and nb:
        al, ar, av = a[0]
        bl, br, bv = b[0]
        ea, eb = al, bl  # the two next ends
        while True:
            if eb._numerator * ea._denominator < ea._numerator * eb._denominator:
                # eb < ea: only b reaches its next end
                if in_a or in_b:
                    append((x, eb, av if in_a else 0, bv if in_b else 0))
                x = eb
                if not in_b:
                    in_b, eb = True, br
                    continue
                j += 1
                if j == nb:
                    break
                bl, br, bv = b[j]
                if bl is x or (bl._numerator == x._numerator
                               and bl._denominator == x._denominator):
                    eb = br
                    if not in_a:
                        x = bl
                else:
                    in_b, eb = False, bl
                continue
            # a reaches its next end, and b its own where both
            if in_a or in_b:
                append((x, ea, av if in_a else 0, bv if in_b else 0))
            x = ea
            both = eb is ea or (eb._numerator == ea._numerator
                                 and eb._denominator == ea._denominator)
            if not in_a:
                in_a, ea = True, ar
            else:
                i += 1
                if i < na:
                    al, ar, av = a[i]
                    if al is x or (al._numerator == x._numerator
                                   and al._denominator == x._denominator):
                        ea = ar
                        if both or not in_b:
                            x = al
                    else:
                        in_a, ea = False, al
            if both:
                if not in_b:
                    in_b, eb, x = True, br, bl
                else:
                    j += 1
                    if j < nb:
                        bl, br, bv = b[j]
                        if bl is x or (bl._numerator == x._numerator
                                       and bl._denominator == x._denominator):
                            eb, x = br, bl
                        else:
                            in_b, eb = False, bl
            if i == na or j == nb:
                break
    # one side is exhausted; a segment of the other may be under way at x
    if i < na:
        if in_a:
            append((x, ar, av, 0))
            i += 1
        cells += [(l, r, v, 0) for l, r, v in a[i:]]
    elif j < nb:
        if in_b:
            append((x, br, 0, bv))
            j += 1
        cells += [(l, r, 0, v) for l, r, v in b[j:]]
    return cells


def refine(f: StepFunction, g: StepFunction) -> list[tuple[Fraction, Fraction, object, object]]:
    """Cells of the common breakpoint refinement over the union of supports.

    Returns ``(l, r, vf, vg)`` in order; at least one of the values is nonzero.
    """
    return _sweep(f.segments, g.segments)


def _exact_values(*fs: StepFunction) -> bool:
    """Whether the values of fs select the exact backend: some f has a value,
    and every value is an ``ExactComplex``.  A float value ends the scan."""
    return (any(f.segments for f in fs)
            and all(type(v) is ExactComplex for f in fs for _, _, v in f.segments))


def value_signature(f: StepFunction, g: StepFunction) -> tuple[int, dict]:
    """(Lambda, {u: l_u}): each value u = conj(f) * g over the set where both
    f and g are nonzero, and the length L_u = l_u / Lambda carrying it.

    This is the one object every pairwise Fock-space quantity reads:
    ``inner``, the moments m_k = sum L u^k, the log integral
    sum L log(1 - 4 t u), the overlap length sum L.  It is invariant under
    any measure-preserving rearrangement, so equal signatures certify
    equality of all of them exactly.  The lengths lie on one integer grid:
    Lambda is the lcm of the denominators of the pair's ends (a power of two
    for float input), taken at the first cell that carries a u, and 1 where
    none does; a cell [l, r) adds the int (r - l) * Lambda to its u, with no
    rational made per cell.  An exact u is computed on the ints of vf and vg
    and reduced once.
    """
    lam = None
    sig: dict = {}
    get = sig.get
    for l, r, vf, vg in refine(f, g):
        if vf and vg:
            if lam is None:
                lam = 1
                for e0, e1, _ in f.segments + g.segments:
                    lam = math.lcm(lam, e0._denominator, e1._denominator)
            if type(vf) is type(vg) is ExactComplex:
                u = _conj_times(vf, vg)
            else:
                u = vf.conjugate() * vg
            sig[u] = get(u, 0) + (r._numerator * (lam // r._denominator)
                                  - l._numerator * (lam // l._denominator))
    return (1 if lam is None else lam), sig


def inner(f: StepFunction, g: StepFunction):
    """Exact L^2 pairing  integral of conj(f) * g, conjugate-linear in f.

    A complex u is weighted by the double l_u / Lambda, one correctly
    rounded int division, which is the double of its length; any other u by
    its length as a ``Fraction``: an ``ExactComplex`` takes it by its own
    ``__mul__``, a real u by ``Fraction``'s reflected product, which gives
    the value and type of the product in the other order."""
    lam, sig = value_signature(f, g)
    total = 0
    for u, length in sig.items():
        if type(u) is complex:
            total = total + complex(length / lam) * u
        else:
            total = total + u * _rat(length, lam)
    return total


def step_allclose(f: StepFunction, g: StepFunction, tol: float) -> bool:
    """Pointwise a.e. closeness within tol (exact equality when tol == 0)."""
    return not any((va != vb) if tol == 0 else abs(complex(va) - complex(vb)) > tol
                   for _, _, va, vb in _sweep(f.segments, g.segments))


def _first_difference(a: Sequence[tuple], b: Sequence[tuple]) -> Optional[tuple]:
    """The first cell (l, r) of ``_sweep(a, b)`` whose values differ, or None."""
    for l, r, va, vb in _sweep(a, b):
        if va != vb:
            return l, r
    return None


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of half-open intervals, in the canonical form that
    ``from_intervals`` builds: sorted, nonempty, touching or overlapping
    intervals merged, so any two intervals are separated by a gap of
    positive length.  ``contains_set`` relies on that gap."""

    intervals: tuple[tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def from_intervals(intervals: Iterable[tuple]) -> "IntervalSet":
        ivs = [(l, r) for l, r in ((_frac(l), _frac(r)) for l, r in intervals) if l < r]
        ivs.sort(key=itemgetter(0))  # on the left ends: a tie merges in either order
        out: list[tuple[Fraction, Fraction]] = []
        for l, r in ivs:
            if out and l <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], r))
            else:
                out.append((l, r))
        return IntervalSet(tuple(out))

    def _segments(self) -> list[tuple]:
        return [(l, r, True) for l, r in self.intervals]

    def contains_set(self, other: "IntervalSet") -> bool:
        """other subset of self, up to null sets (exact on rationals)."""
        return _covers(self.intervals, other.intervals)

    def indicator(self, value=1) -> StepFunction:
        return StepFunction.from_segments([(l, r, value) for l, r in self.intervals])

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "IntervalSet":
        return IntervalSet.from_intervals([(l, r) for l, r in map(_json_row, _json_array(data))])


def _covers(outer: Sequence[tuple], inner: Iterable[tuple]) -> bool:
    """Whether the [l, r) = item[:2] of ``inner``, sorted, disjoint and
    nonempty, lie inside the canonical intervals ``outer`` up to a null set.

    Two intervals of ``outer`` are a positive gap apart, so this holds iff
    each [l, r) lies inside a single one of them: one two-pointer pass that
    only compares ends, ``Fraction`` all, by ``<`` and ``<=`` on products of
    their int pairs, inline."""
    i, n = 0, len(outer)
    for item in inner:
        l, r = item[0], item[1]
        ln, ld = l._numerator, l._denominator
        while i < n and outer[i][1]._numerator * ld <= ln * outer[i][1]._denominator:
            i += 1  # outer[i] ends at or before l
        if i == n:
            return False
        ol, or_ = outer[i]
        # l < ol, or or_ < r
        if (ln * ol._denominator < ol._numerator * ld
                or or_._numerator * r._denominator < r._numerator * or_._denominator):
            return False
    return True


def restrict(f: StepFunction, e: IntervalSet) -> StepFunction:
    return StepFunction(_canonical_segments(
        (l, r, v) for l, r, v, inside in _sweep(f.segments, e._segments())
        if v and inside))


# ---------------------------------------------------------------------------
# Piecewise-affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePiece:
    """x -> slope * x + intercept on [left, right), four ``Fraction``, as
    ``PiecewiseAffineMap.from_pieces`` builds them."""

    left: Fraction
    right: Fraction
    slope: Fraction
    intercept: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        """a x + b, reduced once for a ``Fraction`` x; any other x (an int,
        a float) by ``Fraction``'s own rules."""
        if type(x) is not Fraction:
            return self.slope * x + self.intercept
        return _affine(self.slope, x, self.intercept)

    def image(self) -> tuple[Fraction, Fraction]:
        a, b = self(self.left), self(self.right)
        return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """phi(x) = a_j x + b_j on finitely many disjoint half-open intervals;
    its domain and sorted piece images are cached, outside its fields."""

    pieces: tuple[AffinePiece, ...] = ()

    @staticmethod
    def from_pieces(pieces: Iterable[tuple]) -> "PiecewiseAffineMap":
        ps = []
        for l, r, a, b in pieces:
            if not type(l) is type(r) is type(a) is type(b) is Fraction:
                l, r, a, b = _frac(l), _frac(r), _frac(a), _frac(b)
            if l >= r:
                raise ValueError("piece domain must have positive length")
            if not a:
                raise ValueError("piece slope must be nonzero")
            ps.append(AffinePiece(l, r, a, b))
        ps.sort(key=attrgetter("left"))
        for p, q in zip(ps, ps[1:]):
            if q.left < p.right:
                raise ValueError("piece domains must be pairwise disjoint")
        return PiecewiseAffineMap(tuple(ps))

    def domain(self) -> IntervalSet:
        return self._domain

    @cached_property
    def _domain(self) -> IntervalSet:
        return IntervalSet.from_intervals([(p.left, p.right) for p in self.pieces])

    @cached_property
    def _images(self) -> list[tuple]:
        """[(l, r, p)]: the image [l, r) of every piece p, sorted by l."""
        return sorted(((*p.image(), p) for p in self.pieces), key=itemgetter(0))

    def image(self) -> IntervalSet:
        return IntervalSet.from_intervals([(l, r) for l, r, _ in self._images])

    def restrict(self, e: IntervalSet) -> "PiecewiseAffineMap":
        pieces = [(p.left, p.right, p) for p in self.pieces]
        return PiecewiseAffineMap.from_pieces(
            (l, r, p.slope, p.intercept)
            for l, r, p, inside in _sweep(pieces, e._segments()) if p and inside)

    @staticmethod
    def from_json(data: Sequence[Sequence[float]]) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.from_pieces(list(map(_json_row, _json_array(data))))


def _pull_back(p: AffinePiece, l, r) -> Optional[tuple[Fraction, Fraction]]:
    """The x in p's domain with p(x) in [l, r), l < r, as (lo, hi) with
    lo < hi; None where that set is null.  The ends are read as ``Fraction``."""
    return _affine_preimage(p.slope, p.intercept, _frac(l), _frac(r), p.left, p.right)


def compose(f: StepFunction, phi: PiecewiseAffineMap) -> StepFunction:
    """f after phi; zero wherever phi is undefined.

    Piecewise-constant structure is preserved exactly: on a piece with
    slope a and intercept b every breakpoint t of f pulls back to
    (t - b) / a.
    """
    segs: list[Segment] = []
    for p in phi.pieces:
        for l, r, v in f.segments:
            span = _pull_back(p, l, r)
            if span:
                segs.append((*span, v))
    return StepFunction(_canonical_segments(segs))


def map_compose(phi: PiecewiseAffineMap, psi: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """(phi o psi)(x) = phi(psi(x)), on the a.e. largest domain."""
    pieces = []
    for q in psi.pieces:
        for p in phi.pieces:
            span = _pull_back(q, p.left, p.right)
            if span:
                pieces.append((*span, p.slope * q.slope,
                               p.slope * q.intercept + p.intercept))
    return PiecewiseAffineMap.from_pieces(pieces)


def _images_overlap(phi: PiecewiseAffineMap) -> Optional[tuple[Fraction, Fraction]]:
    """The leftmost interval of positive length where two piece images of
    phi overlap, or None: sorted, the first two neighbours that overlap."""
    images = phi._images
    return next(((bl, min(ar, br)) for (_, ar, _), (bl, br, _) in zip(images, images[1:])
                 if bl < ar), None)


def map_invert(phi: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Exact inverse; a NonInjectiveError where ``_images_overlap(phi)``.

    The inverse of x -> a x + b on its image is y -> y / a - b / a."""
    if _images_overlap(phi):
        raise NonInjectiveError("piece images overlap on a set of positive length")
    return PiecewiseAffineMap.from_pieces(
        [(il, ir, *_affine_inverse(p.slope, p.intercept)) for il, ir, p in phi._images])


@dataclass(frozen=True)
class MeasurePreservingReport:
    injective: bool
    unit_slopes: bool
    maps_into: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.unit_slopes and self.maps_into


def is_measure_preserving(phi: PiecewiseAffineMap, e: IntervalSet) -> MeasurePreservingReport:
    """Check that phi restricted to e preserves Lebesgue measure into e.

    For a piecewise-affine map this means: no ``_images_overlap`` (injective
    up to null overlap), |slope| = 1 exactly on every piece meeting e, and
    phi(e) inside e.
    """
    phi_e = phi.restrict(e)
    unit = all(abs(p.slope) == 1 for p in phi_e.pieces)
    into = e.contains_set(phi_e.image())
    return MeasurePreservingReport(_images_overlap(phi_e) is None, unit, into)
