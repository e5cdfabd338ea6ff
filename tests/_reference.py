"""Parent implementations, and inputs, that test modules compare against.

Each is the loop an optimised path replaced, kept as the oracle of the
differential tests: the float series and its inputs, the parsing of a
segment list, the b recursion that the float and the exact kernel
share, the dominating sum of the series bound, the ``_Rat`` and
``ExactComplex`` arithmetic that the int kernels of ``stepfn`` and
``quantization`` replaced, and the three ways ``quantization`` pulled h
through the pieces of phi before one atom list did.  Not a test module:
no test module imports another.
"""

import itertools
import math
import random
from fractions import Fraction

from quadfock import FockConfig, IntervalSet, PiecewiseAffineMap, QuadOperator, StepFunction
from quadfock.errors import DomainError
from quadfock.fock import _up
from quadfock.scalars import ExactComplex, _conj_times, _frac, _rat
from quadfock.stepfn import (_canonical_segments, _first_difference, _images_overlap,
                             _pull_back, map_invert)

CFGS = [FockConfig(), FockConfig(c=0.5, depth=60), FockConfig(c=Fraction(3, 7))]
SEGMENT_COUNTS = (1, 3, 32, 128)


# --- parsing -----------------------------------------------------------------


def reference_frac(x):
    if isinstance(x, float):
        return _rat(*x.as_integer_ratio())
    return _frac(x)


def reference_canonical(segments):
    segs = [(l, r, v) for (l, r, v) in segments if l < r and v != 0]
    segs.sort(key=lambda s: s[0])
    out = []
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


def reference_from_segments(segments):
    """``StepFunction.from_segments`` as every end converted through one gcd
    before any check."""
    norm = [(reference_frac(l), reference_frac(r), v) for (l, r, v) in segments]
    for l, r, _ in norm:
        if l >= r:
            raise ValueError(f"empty or inverted interval [{float(l)}, {float(r)})")
    return StepFunction(reference_canonical(norm))


# --- the piecewise-affine and operator arithmetic --------------------------------


def reference_pull_back(p, l, r):
    """``stepfn._pull_back`` by ``_Rat`` arithmetic: (lo, hi), empty unless lo < hi."""
    x0 = (l - p.intercept) / p.slope
    x1 = (r - p.intercept) / p.slope
    if x1 < x0:
        x0, x1 = x1, x0
    return (p.left if x0 < p.left else x0), (p.right if p.right < x1 else x1)


def reference_affine_call(p, x):
    """``AffinePiece.__call__``: a x + b by the operands' own methods."""
    return p.slope * x + p.intercept


def reference_signature_product(vf, vg):
    """The u = conj(vf) * vg of ``value_signature``."""
    return vf.conjugate() * vg


def reference_adjoint_weight(v, slope):
    """The weight conj(v) * |slope| of ``adjoint_operator``."""
    return v.conjugate() * slope


# --- h pulled through the pieces of phi --------------------------------------------


def reference_adjoint(T):
    """``adjoint_operator`` as a pull-back of each segment of h through each
    piece of phi^-1, weighted by conj(v) * |slope of that piece|, the slope a
    float unless some value of h is exact."""
    phi_inv = map_invert(T.phi)
    exact = any(isinstance(v, ExactComplex) for _, _, v in T.h.segments)
    segs = []
    for p in phi_inv.pieces:
        try:
            slope = abs(p.slope) if exact else float(abs(p.slope))
        except OverflowError:
            raise DomainError("a slope of phi^-1 exceeds double precision") from None
        for l, r, v in T.h.segments:
            span = _pull_back(p, l, r)
            if span:
                w = _conj_times(v, slope) if type(v) is ExactComplex else v.conjugate() * slope
                segs.append((*span, w))
    return QuadOperator(phi_inv.domain(), StepFunction(_canonical_segments(segs)), phi_inv)


def reference_adjoint_difference(T):
    """The first cell where T differs from its adjoint, in three stages: an
    overlap of piece images, else the first cell where the weights of T and
    of ``reference_adjoint(T)`` differ, else the first where the maps do."""
    overlap = _images_overlap(T.phi)
    if overlap:
        return overlap
    S = reference_adjoint(T)
    maps = ([(p.left, p.right, (p.slope, p.intercept)) for p in op.phi.pieces] for op in (T, S))
    return _first_difference(T.h.segments, S.h.segments) or _first_difference(*maps)


def reference_witness(T):
    """The witness {k, cell} of ``check_selfadjoint_structure``: T on supp h
    with h read exactly, then T_1 and T_2 = h^2 (. o phi) as operators."""
    h = StepFunction(tuple((l, r, ExactComplex.of(v)) for l, r, v in T.h.segments))
    T = QuadOperator(h.support(), h, T.phi)
    for k, T_k in ((1, T), (2, QuadOperator(T.E, h * h, T.phi))):
        cell = reference_adjoint_difference(T_k)
        if cell:
            return {"k": k, "cell": cell}
    return {"k": 0, "cell": None}


def reference_cells(T, splits):
    """``quantization._cells`` as a scan of h for every piece and breakpoint:
    each piece cut at h's breakpoints inside it, the value of h on each part
    found by searching its segments."""
    atoms = []
    breaks = T.h.breakpoints()
    for p in T.phi.pieces:
        xs = [p.left, *(x for x in breaks if p.left < x < p.right), p.right]
        for x0, x1 in zip(xs, xs[1:]):
            v = next((v for l, r, v in T.h.segments if l <= x0 and x1 <= r), 0)
            atoms.append((*sorted((p(x0), p(x1))), abs(p.slope),
                          _frac(ExactComplex.of(v).abs_sq())))
    cuts = sorted({x for l, r, _, _ in atoms for x in (l, r)})
    cells = [(l, r, [(s, w) for pl, pr, s, w in atoms if pl <= l and r <= pr])
             for l, r in zip(cuts, cuts[1:])]
    out = []
    for m in splits:
        for l, r, pieces in cells:
            if pieces:
                step = (r - l) / m
                xs = [*(l + i * step for i in range(m)), r]
                out += [(a, b, pieces) for a, b in zip(xs, xs[1:])]
    return out


def slope_one_class():
    """Every T on the unit cells [0, 1) and [1, 2) whose map sends cell k to
    cell pi(k) by a translation or a reflection, with a weight from
    {1, -1, i, 2, 1/2, 0} on each cell: 8 maps times 36 weights."""
    values = [ExactComplex.of(v) for v in (1, -1, 1j, 2, 0.5, 0)]
    E = IntervalSet.from_intervals([(0, 2)])
    for pi in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            phi = PiecewiseAffineMap.from_pieces(
                (k, k + 1, s, pi[k] - k if s == 1 else pi[k] + k + 1)
                for k, s in enumerate(signs))
            for w in itertools.product(values, repeat=2):
                h = StepFunction.from_segments((k, k + 1, w[k]) for k in range(2))
                yield QuadOperator(E, h, phi)


# --- moments, the b recursion and the float series ----------------------------


def reference_moments(sig, K):
    us, terms = list(sig), list(sig.values())
    entries = []
    for _ in range(K):
        terms = [t * u for t, u in zip(terms, us)]
        entries.append(sum(terms, 0))
    return entries


def reference_weights(m):
    """w_k = 2^(2k+1) m_{k+1} of the moments m_1, m_2, ..."""
    return [2 ** (2 * k + 1) * mk for k, mk in enumerate(m)]


def reference_b(w, n, c):
    """b_0..b_n of  nn * b_nn = c * sum_k w_k b_{nn-k-1}, in either backend."""
    b = [1]
    for nn in range(1, n + 1):
        acc = 0
        for k in range(nn):
            acc = acc + w[k] * b[nn - k - 1]
        b.append((c / nn) * acc)
    return b


def reference_dominating_tail(x, beta, N):
    r = _up(x * max(1.0, _up(_up(N + 1 + beta) / (N + 2))))
    gap = math.nextafter(1.0 - r, -math.inf)
    if not gap > 0:
        return math.inf
    d = 1.0
    for n in range(1, N + 2):
        d = _up(_up(_up(d * x) * _up(n - 1 + beta)) / n)
    return _up(d / gap)


def reference_dominating_sum(x, beta, N):
    """sum_{n<=N} d_n, every step rounded up, by a loop of its own."""
    d = total = 1.0
    for n in range(1, N + 1):
        d = _up(_up(_up(d * x) * _up(n - 1 + beta)) / n)
        total = _up(total + d)
    return total


def reference_series(sig, cfg, fixed=False):
    """The float route of ``_Signature.series`` for a nonzero admissible pair:
    (value, tail, N) at the first N <= cfg.depth whose tail is <= cfg.tol,
    else at cfg.depth, which ``fixed`` also takes.  Every b_n up to cfg.depth
    is summed first; each N then reads a prefix."""
    depth = cfg.depth
    w = reference_moments({4 * u: length / 2 for u, length in sig.items()}, depth)
    terms = [complex(bn) for bn in reference_b(w, depth, cfg.c)]
    beta = _up(float(Fraction(cfg.c) * sum(sig.values()) / 2))
    x = _up(4.0 * max(map(abs, sig), default=0.0) * (1 + 2.0 ** -50))
    for N in [depth] if fixed else range(1, depth + 1):
        size = sum(abs(z.real) + abs(z.imag) for z in terms[:N + 1])
        sum_error = _up((N + 2) * 2.0 ** -52 * size)
        tail = _up(reference_dominating_tail(x, beta, N) + sum_error)
        if tail <= cfg.tol:
            break
    return sum(terms[:N + 1], 0j), tail, N


# --- float pairs ---------------------------------------------------------------

# values with |v| < 0.3, signed zeros among them; the small set repeats u
VALUES = [0.25 + 0j, complex(-0.0, 0.125), complex(0.1875, -0.0), -0.09375 - 0.15625j]


def _value(rng):
    if rng.random() < 0.5:
        return rng.choice(VALUES)
    return complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))


def float_steps(rng, n, layout):
    """n segments on [0, 4): adjacent with arbitrary float breakpoints, or
    separated on the grid k/256 (many cells then share a u)."""
    if layout == "adjacent":
        pts = sorted({rng.uniform(0, 4) for _ in range(n + 1)})
        return [(l, r, _value(rng)) for l, r in zip(pts, pts[1:])]
    pts = sorted(rng.sample(range(4 * 256 + 1), 2 * n))
    return [(pts[2 * i] / 256, pts[2 * i + 1] / 256, _value(rng)) for i in range(n)]


def pairs():
    for n in SEGMENT_COUNTS:
        for layout in ("adjacent", "grid"):
            for seed in range(3):
                rng = random.Random(f"{n}:{layout}:{seed}")
                yield n, layout, float_steps(rng, n, layout), float_steps(rng, n, layout)


PAIRS = list(pairs())
