"""The oracles of the differential tests, one per quantity, and the inputs
that more than one test module draws.

Each oracle computes its quantity by a route of its own, apart from the code
it checks:
- the parse of a segment list;
- the cells of two sorted segment lists, down to the objects of their ends,
  and what is read off them: the value signature, ``restrict`` and
  ``PiecewiseAffineMap.restrict``, and a signature's lengths on their
  coarsest common grid;
- the affine arithmetic by ``Fraction`` and ``ExactComplex`` operators: a
  pull-back, a x + b, conj(vf) vg and conj(v) |slope|;
- the adjoint of an operator, on that arithmetic alone;
- the witness of the Hermitian test, from operators T_1, T_2 and their
  adjoints, and the boundedness cells, as a scan of h for every piece of phi;
- the five structural conditions of the self-adjointness report, phi's
  three by ``map_compose`` and ``map_invert`` on phi restricted to supp h;
- the moments, the b recursion, a_n, the dominating sums and the float
  series, and the closed form in doubles and at mpmath's precision.
It also writes the JSON document that ``from_json`` reads, and builds the
float copy of an exact function and the identity map on an interval set.
Not a test module: no test module imports another.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

from quadfock import (FockConfig, IntervalSet, NonInjectiveError, PiecewiseAffineMap,
                      QuadOperator, StepFunction, compose, dilation_operator, map_invert)
from quadfock.families import random_injective_operator, reflection_operator
from quadfock.fock import _up
from quadfock.scalars import ExactComplex, _frac, _new, _rat
from quadfock.stepfn import _first_difference, _images_overlap, map_compose, restrict

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


# --- the cells of two segment lists, and what is read off them --------------------


def reference_sweep(a, b):
    """The cells (l, r, va, vb) of two sorted lists of disjoint (l, r, v)
    segments, 0 for a side with no segment there, each cell derived from
    both current segments; its ends are the segments' own objects."""
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


def reference_signature(f, g):
    """u = conj(vf) vg -> the length carrying it, keyed in the order of the cells."""
    sig = {}
    for l, r, vf, vg in reference_sweep(f.segments, g.segments):
        if vf != 0 and vg != 0:
            u = reference_signature_product(vf, vg)
            length = sig.get(u)
            sig[u] = r - l if length is None else length + (r - l)
    return sig


def reference_grid(sig):
    """A signature {u: L_u} on its coarsest common grid: (Lambda, {u: l_u}),
    L_u = l_u / Lambda and Lambda the lcm of the reduced lengths'
    denominators; the form ``_Signature.scaled_lengths`` reduces to."""
    lam = math.lcm(*(length.denominator for length in sig.values()))
    return lam, {u: length.numerator * (lam // length.denominator) for u, length in sig.items()}


def grid_lengths(signature):
    """The (Lambda, {u: l_u}) of ``value_signature`` as {u: l_u / Lambda},
    each length a ``Fraction``, to compare with ``reference_signature``."""
    lam, sig = signature
    return {u: _rat(length, lam) for u, length in sig.items()}


def interval_segments(e):
    """The intervals of an ``IntervalSet`` as segments of value True."""
    return [(l, r, True) for l, r in e.intervals]


def reference_restrict(f, e):
    return StepFunction(reference_canonical(
        (l, r, v) for l, r, v, inside in reference_sweep(f.segments, interval_segments(e))
        if v and inside))


def reference_map_restrict(phi, e):
    pieces = [(p.left, p.right, p) for p in phi.pieces]
    return PiecewiseAffineMap.from_pieces(
        (l, r, p.slope, p.intercept)
        for l, r, p, inside in reference_sweep(pieces, interval_segments(e)) if p and inside)


# --- the piecewise-affine and operator arithmetic --------------------------------


def reference_pull_back(p, l, r):
    """``stepfn._pull_back`` by ``Fraction`` arithmetic: (lo, hi), empty unless lo < hi."""
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


def reference_adjoint(T):
    """``adjoint_operator`` on the arithmetic above: phi^-1 maps the image of
    each piece x -> a x + b back by y -> y / a - b / a, and each segment
    (l, r, v) of h pulled back through it carries conj(v) * |1 / a|, the
    slope a float unless some value of h is exact.  A NonInjectiveError
    where two piece images overlap."""
    pieces = []
    for p in T.phi.pieces:
        il, ir = sorted((reference_affine_call(p, p.left), reference_affine_call(p, p.right)))
        inv = 1 / p.slope
        pieces.append((il, ir, inv, -p.intercept * inv))
    try:
        phi_inv = PiecewiseAffineMap.from_pieces(pieces)
    except ValueError:  # the inverse's pieces overlap where the images do
        raise NonInjectiveError("piece images overlap") from None
    exact = any(isinstance(v, ExactComplex) for _, _, v in T.h.segments)
    segs = []
    for p in phi_inv.pieces:
        slope = abs(p.slope) if exact else float(abs(p.slope))
        for l, r, v in T.h.segments:
            lo, hi = reference_pull_back(p, l, r)
            if lo < hi:
                segs.append((lo, hi, reference_adjoint_weight(v, slope)))
    return QuadOperator(phi_inv.domain(), StepFunction(reference_canonical(segs)), phi_inv)


# --- h pulled through the pieces of phi --------------------------------------------


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


def reference_boundedness_cells(T, splits):
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


STRUCTURE = ("involutive", "maps_into", "measure_preserving", "weight_bounded",
             "weight_symmetric")


def structure(rep):
    """The five structural conditions of a ``SelfAdjointReport``."""
    return {name: getattr(rep, name) for name in STRUCTURE}


def reference_structure(T):
    """The five conditions on S = supp h, with h read exactly: phi(S) <= S
    recomputed, phi o phi built by ``map_compose``, injectivity by
    ``map_invert``, |slope| compared through ``float`` and the pulled back
    weight restricted to S."""
    h = StepFunction.from_segments([(l, r, ExactComplex.of(v)) for l, r, v in T.h.segments])
    S = h.support()
    phi_s = T.phi.restrict(S)
    maps_into = S.contains_set(phi_s.image())
    involutive = False
    if maps_into:
        phi2 = map_compose(phi_s, phi_s)
        involutive = (all(p.slope == 1 and p.intercept == 0 for p in phi2.pieces)
                      and phi2.domain().contains_set(S))
    try:
        map_invert(phi_s)
        injective = True
    except NonInjectiveError:
        injective = False
    unit = all(float(abs(p.slope)) == 1.0 for p in phi_s.pieces)
    symmetric = h.conj() == restrict(compose(h, phi_s), S)
    return dict(zip(STRUCTURE, (involutive, maps_into, injective and unit and maps_into,
                                h.sup_norm_sq() <= 1, symmetric)))


# --- operators ------------------------------------------------------------------------


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


def unit_folds():
    """Every T on the unit cells [0, 1) and [1, 2) whose map sends both cells
    onto one of them by a translation or a reflection each, with h nonzero on
    both: folds whose slopes are all +-1 and whose image lies in supp h, so
    only their overlap keeps them from being measure preserving.  8 maps
    times 3 weights."""
    E = IntervalSet.from_intervals([(0, 2)])
    for t in (0, 1):
        for signs in itertools.product((1, -1), repeat=2):
            phi = PiecewiseAffineMap.from_pieces(
                (k, k + 1, s, t - k if s == 1 else t + k + 1) for k, s in enumerate(signs))
            for w in ((1, 1), (1, -1), (1j, 2)):
                h = StepFunction.from_segments((k, k + 1, ExactComplex.of(w[k])) for k in range(2))
                yield QuadOperator(E, h, phi)


def in_backend(T, exact):
    """T with the values of h as ExactComplex or as complex."""
    value = ExactComplex.of if exact else complex
    return QuadOperator(T.E, StepFunction(tuple((l, r, value(v)) for l, r, v in T.h.segments)),
                        T.phi)


def named_operators(exact):
    """The dilation and the reflections with h = 0.9 and h = 2."""
    one = ExactComplex.of(1) if exact else 1.0 + 0j
    weight = Fraction if exact else float
    return [dilation_operator(Fraction(2), one),
            reflection_operator(weight("0.9"), exact=exact),
            reflection_operator(weight(2), exact=exact)]


def random_operators(exact, count=200, seed=9):
    rng = random.Random(seed)
    return [random_injective_operator(rng, exact=exact) for _ in range(count)]


HALF_SLOPES = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)]


def piecewise_weight_operators(exact, value=None):
    """Two touching pieces [0, 2) and [2, 4) of slopes +-1/2 and +-3/2, their
    images touching or a gap apart, and a weight on E = [0, 4) of several
    segments per piece, one of them running across x = 2 and two touching
    ones of equal value; ``value(a, b)`` makes a weight value from two ints."""
    if value is None:
        value = (lambda a, b: ExactComplex(Fraction(a, 16), Fraction(b, 16))) if exact \
            else (lambda a, b: complex(a / 16, b / 16))
    rng = random.Random(15)
    ops = []
    for a1 in HALF_SLOPES:
        for a2 in HALF_SLOPES:
            for gap in (0, Fraction(1, 3)):
                lo1, hi1 = sorted((a1 * 0, a1 * 2))
                # piece 2's image starts where piece 1's ends, or a gap later
                b2 = hi1 + gap - min(a2 * 2, a2 * 4)
                phi = PiecewiseAffineMap.from_pieces([(0, 2, a1, 0), (2, 4, a2, b2)])
                cuts = [0, Fraction(1, 2), Fraction(5, 4), Fraction(3, 2), Fraction(5, 2),
                        3, Fraction(7, 2), 4]
                vals = [value(rng.randint(-8, 8) or 5, rng.randint(-8, 8)) for _ in cuts[1:]]
                vals[4] = vals[3]  # [3/2, 5/2) and [5/2, 3) touch with equal value
                segs = [(l, r, v) for l, r, v in zip(cuts, cuts[1:], vals)
                        if (l, r) != (Fraction(5, 4), Fraction(3, 2))]  # a hole in piece 1
                E = IntervalSet.from_intervals([(0, 4)])
                ops.append(QuadOperator(E, StepFunction.from_segments(segs), phi))
    return ops


GAPPY_SLOPES = [_rat(n, d) for n, d in [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                                        (3, 2), (-3, 2), (1, 3), (-5, 4)]]


def gappy_operator(rng, exact):
    """1 to 3 pieces with integer ends in [-8, 8], their images free to
    overlap; each interval of E cut at up to three points k/4, and h = v/8
    on each part with probability 3/4, so h has gaps inside the pieces."""
    n = rng.randrange(1, 4)
    cuts = sorted(rng.sample(range(-8, 9), 2 * n))
    phi = PiecewiseAffineMap.from_pieces(
        (cuts[2 * i], cuts[2 * i + 1], rng.choice(GAPPY_SLOPES), rng.randrange(-4, 5))
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


def atom_operators(exact):
    """The 288 operators of the slope-one class and the 24 ``unit_folds``;
    400 seeded injective draws, each also with h cut to its first segment;
    300 ``gappy_operator``s."""
    ops = [in_backend(T, exact) for T in itertools.chain(slope_one_class(), unit_folds())]
    rng = random.Random(7)
    for _ in range(400):
        T = random_injective_operator(rng, exact=exact)
        ops += [T, QuadOperator(T.E, StepFunction(T.h.segments[:1]), T.phi)]
    rng = random.Random(34)
    ops += [gappy_operator(rng, exact) for _ in range(300)]
    return ops


# --- moments, the b recursion and the float series ----------------------------


def reference_zero(*fs):
    """0 in the backend that the values of fs select: exact where some f has
    a value and each value is an ``ExactComplex``, else complex."""
    values = [v for f in fs for _, _, v in f.segments]
    return ExactComplex(0, 0) if values and all(
        isinstance(v, ExactComplex) for v in values) else 0j


def reference_moments(sig, K, zero):
    """m_1..m_K of a signature, m_k = sum of L_u u^k, each term the one before
    times u, in key order: the float kernel's order, which the bit checks need.
    Each sum starts at ``zero``, the backend's zero, which an empty signature
    returns."""
    us, terms = list(sig), list(sig.values())
    entries = []
    for _ in range(K):
        terms = [t * u for t, u in zip(terms, us)]
        entries.append(sum(terms, zero))
    return entries


def reference_closed(sig, cfg):
    """The float closed form exp(-c/2 sum L_u log(1 - 4u)) of a signature
    {u: L_u}, summed in key order with each L_u rounded to a double once."""
    total = 0j
    for u, length in sig.items():
        total += float(length) * cmath.log(1 - 4 * complex(u))
    return cmath.exp(-float(cfg.c) / 2 * total)


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


def reference_a(m, n, c):
    """a_0..a_n = (k!)^2 b_k of the moments m_1..m_n."""
    b = reference_b(reference_weights(m[:n]), n, c)
    return [math.factorial(k) ** 2 * bk for k, bk in enumerate(b)]


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
    w = reference_moments({4 * u: length / 2 for u, length in sig.items()}, depth, 0j)
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


# --- the closed form at high precision ----------------------------------------------


def mp_number(x, mp):
    """x as an mpmath number: a rational exactly, an ExactComplex part by part."""
    if isinstance(x, ExactComplex):
        return mp.mpc(mp_number(x.re, mp), mp_number(x.im, mp))
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpc(x) if isinstance(x, complex) else mp.mpf(x)


def mp_closed(mp, f, g, c, t=1):
    """<Psi(sqrt(t) f), Psi(sqrt(t) g)> = exp(-c/2 * sum over the reference
    cells of |I| log(1 - 4 t conj(vf) vg)), each value read exactly and every
    operation at mp's precision."""
    total = mp.fsum((mp_number(r, mp) - mp_number(l, mp))
                    * mp.log(1 - 4 * t * mp.conj(mp_number(vf, mp)) * mp_number(vg, mp))
                    for l, r, vf, vg in reference_sweep(f.segments, g.segments) if vf and vg)
    return mp.exp(-mp_number(c, mp) / 2 * total)


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


# --- the wire format, and inputs built from it --------------------------------------


def json_doc(x):
    """The JSON document of a ``StepFunction``, ``IntervalSet``,
    ``PiecewiseAffineMap`` or ``QuadOperator``, every number a double: what
    their ``from_json`` reads."""
    if isinstance(x, StepFunction):
        return [[float(l), float(r), complex(v).real, complex(v).imag] for l, r, v in x.segments]
    if isinstance(x, IntervalSet):
        return [[float(l), float(r)] for l, r in x.intervals]
    if isinstance(x, PiecewiseAffineMap):
        return [[float(p.left), float(p.right), float(p.slope), float(p.intercept)]
                for p in x.pieces]
    return {"E": json_doc(x.E), "h": json_doc(x.h), "phi": json_doc(x.phi)}


def float_copy(f):
    """f as the float mode reads it: its JSON document, every end and value a
    double, parsed back with complex values."""
    return StepFunction.from_json(json_doc(f))


def identity_map(e):
    """x -> x on the intervals of e."""
    return PiecewiseAffineMap.from_pieces([(l, r, 1, 0) for l, r in e.intervals])
