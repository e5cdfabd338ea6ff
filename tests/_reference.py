"""Parent implementations that more than one test module compares against.

Each is the loop an optimised path replaced, kept as the oracle of the
differential tests: the float series and its inputs, the parsing of a
segment list, the b recursion that the float and the exact kernel
share, the dominating sum of the series bound, and the ``_Rat`` and
``ExactComplex`` arithmetic that the int kernels of ``stepfn`` and
``quantization`` replaced.  Not a test module: no test module imports
another.
"""

import math
import random
from fractions import Fraction

from quadfock import FockConfig, StepFunction
from quadfock.fock import _up
from quadfock.scalars import _frac, _rat

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
