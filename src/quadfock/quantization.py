"""Weighted-composition operators and their quadratic quantization.

An operator here is the normal form  T(f) = chi_E * h * (f o phi)  with a
support set E, a bounded weight h and a piecewise-affine map phi.  The
module provides the exact L^2 adjoint, matrix elements of the induced map
on exponential vectors, an exact test of whether Gamma_2(T) is Hermitian,
whose overlap test and phi/phi^-1 comparison also give the report's three
conditions on phi, the exact boundedness of Gamma_2(T), one cell at a time,
and the dilation counter-example showing that quantizing the adjoint
differs from the adjoint of the quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, NonInjectiveError
from .fock import (FockConfig, _inside_radius, _Signature, exp_vector_exists,
                   gram_matrix, gram_min_eig, moments, n_particle_table)
from .scalars import (ExactComplex, _affine_inverse, _conj_times, _frac, _json_value,
                      _quotient, _rat)
from .stepfn import (
    IntervalSet,
    PiecewiseAffineMap,
    StepFunction,
    _canonical_segments,
    _covers,
    _exact_values,
    _first_difference,
    _images_overlap,
    _sweep,
    compose,
    map_invert,
)


@dataclass(frozen=True)
class QuadOperator:
    """T(f) = chi_E * h * (f o phi).

    supp(h) must lie in E and phi's domain must cover E; the constructor is
    the one place that enforces this, and it keeps phi restricted to E, so
    the functions below rely on dom phi = E.  ||h||_inf <= 1 is *not* required
    at construction; it is one of the self-adjointness conditions checked later.
    """

    E: IntervalSet
    h: StepFunction
    phi: PiecewiseAffineMap

    def __post_init__(self):
        if not _covers(self.E.intervals, self.h.segments):  # supp(h), unmerged
            raise ValueError("supp(h) must be contained in E")
        domain = self.phi.domain()
        if not domain.contains_set(self.E):
            raise ValueError("phi's domain must cover E")
        if domain != self.E:
            object.__setattr__(self, "phi", self.phi.restrict(self.E))

    @staticmethod
    def from_json(data: dict, exact: bool = False) -> "QuadOperator":
        return QuadOperator(IntervalSet.from_json(data["E"]),
                            StepFunction.from_json(data["h"], exact=exact),
                            PiecewiseAffineMap.from_json(data["phi"]))


def apply_operator(T: QuadOperator, f: StepFunction) -> StepFunction:
    """Exact evaluation of chi_E * h * (f o phi), which is h * (f o phi):
    the constructor guarantees supp(h) inside E."""
    return T.h * compose(f, T.phi)


def adjoint_operator(T: QuadOperator) -> QuadOperator:
    """Exact L^2 adjoint by change of variables: (T* g)(y) =
    |(phi^-1)'(y)| * conj(h)(phi^-1(y)) * g(phi^-1(y)), with map phi^-1 and
    weight conj(v) / |slope of p| (``_adjoint_weight``) on the image of each
    of T's ``_atoms`` (x0, x1, p, v) with v != 0, in canonical form once.
    Requires phi injective on E: ``map_invert`` raises a NonInjectiveError."""
    phi_inv = map_invert(T.phi)
    segs = [(*sorted((p(x0), p(x1))), _adjoint_weight(v, p)) for x0, x1, p, v in _atoms(T) if v]
    return QuadOperator(phi_inv.domain(), StepFunction(_canonical_segments(segs)), phi_inv)


def _atoms(T: QuadOperator) -> list:
    """[(x0, x1, p, v)]: the pieces p of phi cut at h's breakpoints, in order,
    with h = v on [x0, x1), and v = 0 where a piece meets a gap of h.  Every
    cell has its piece: supp h lies in E = dom phi."""
    return _sweep([(p.left, p.right, p) for p in T.phi.pieces], T.h.segments)


def _adjoint_weight(v, p):
    """conj(v) / |slope of p|: on the ints of an exact v, else by the double of |1 / slope|."""
    s = _quotient(p.slope.denominator, abs(p.slope.numerator))
    try:
        return _conj_times(v, s) if type(v) is ExactComplex else v.conjugate() * float(s)
    except OverflowError:  # the inverse of a float slope below 2^-1024
        raise DomainError("a slope of phi^-1 exceeds double precision") from None


def dilation_operator(radius, one=1.0) -> QuadOperator:
    """(T f)(x) = f(2x) on the window E = [-radius, radius).

    ``one`` selects the scalar backend for the unit weight."""
    E = IntervalSet.from_intervals([(-radius, radius)])
    h = E.indicator(one)
    phi = PiecewiseAffineMap.from_pieces([(-radius, radius, 2, 0)])
    return QuadOperator(E, h, phi)


def window_radius(*fs: StepFunction) -> Fraction:
    """Window half-width making chi_E act as the identity on the inputs:
    at least 2 and at least twice the largest breakpoint magnitude."""
    r = _frac(2)
    for f in fs:
        for p in f.breakpoints():
            r = max(r, 2 * abs(p))
    return r


# ---------------------------------------------------------------------------
# Gamma_2 matrix elements
# ---------------------------------------------------------------------------


def gamma2_matrix_element(T: QuadOperator, f: StepFunction, g: StepFunction,
                          cfg: FockConfig) -> complex:
    """<Gamma_2(T) Psi(f), Psi(g)> = <Psi(T f), Psi(g)>."""
    if not exp_vector_exists(f):
        raise DomainError("sup norm of f >= 1/2")
    return _image_signature(apply_operator(T, f), g).closed(cfg)


def _image_signature(tf: StepFunction, g: StepFunction) -> _Signature:
    """``_Signature.admissible(tf, g)`` from the image tf = T f of an
    admissible f; a DomainError where Psi(T f) or Psi(g) does not exist.
    sup|T f|^2 is read once, for both tests."""
    sup_tf = tf.sup_norm_sq()
    if not _inside_radius(sup_tf):
        raise DomainError("sup norm of T f >= 1/2; Gamma_2(T) Psi(f) undefined")
    return _Signature.admissible(tf, g, [sup_tf, g.sup_norm_sq()])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class _Report:
    """A dataclass report whose JSON form is its fields, each through
    ``_json_value``."""

    def to_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


# ---------------------------------------------------------------------------
# Self-adjointness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfAdjointReport(_Report):
    """Whether Gamma_2(T) is Hermitian, decided exactly, beside the five
    structural conditions, which decide nothing.

    With T_k = h^k (. o phi), m_k(T f, g) = <T_k f^k, g^k>, so Gamma_2(T) is
    Hermitian iff every T_k is L^2 self-adjoint; T_1 = T_1* and T_2 = T_2*
    give phi = phi^-1, |phi'| = 1 and h = conj(h o phi) on supp h, hence the
    rest.  ``witness`` = {k, cell}: the first T_k, k in (1, 2), that differs
    from its adjoint, and the first cell where it does; k = 0 and cell None
    when Gamma_2(T) is Hermitian.  ``verdict`` is hermitian and weight_bounded."""

    witness: dict
    involutive: bool
    maps_into: bool
    measure_preserving: bool
    weight_bounded: bool
    weight_symmetric: bool
    hermitian: bool = field(init=False)
    verdict: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hermitian", self.witness["k"] == 0)
        object.__setattr__(self, "verdict", self.hermitian and self.weight_bounded)


def check_selfadjoint_structure(T: QuadOperator) -> SelfAdjointReport:
    """Every verdict read exactly off T on supp h, the one set where T reads
    phi, with a float h read as the dyadic rational it is: the Hermitian test
    on T_1 and T_2, and phi involutive, phi(supp h) inside supp h, phi measure
    preserving, ||h||_inf <= 1 and conj(h) = h o phi.  For h = 0 all hold.
    The three on phi are read off the witness's two tests of phi: the
    overlap scan and, with no overlap (``_sweep`` needs disjoint input), the
    first cell where phi and phi^-1 differ."""
    T = _exact(QuadOperator(T.h.support(), T.h, T.phi))
    overlap = _images_overlap(T.phi)
    maps = overlap or _first_difference(
        [(p.left, p.right, (p.slope, p.intercept)) for p in T.phi.pieces],
        [(l, r, _affine_inverse(p.slope, p.intercept)) for l, r, p in T.phi._images])
    witness = {"k": 1, "cell": overlap} if overlap else _adjoint_difference(_atoms(T), maps)
    maps_into = T.E.contains_set(T.phi.image())
    unit = all(abs(p.slope) == 1 for p in T.phi.pieces)
    # h o phi vanishes off E = dom phi; both sides are in canonical form
    weight_symmetric = T.h.conj() == compose(T.h, T.phi)
    return SelfAdjointReport(witness, not maps, maps_into, not overlap and unit and maps_into,
                             T.h.sup_norm_sq() <= 1, weight_symmetric)


def _adjoint_difference(atoms: list, maps: Optional[tuple]) -> dict:
    """{k, cell}: the first T_k = h^k (. o phi), k in (1, 2), unequal to its
    L^2 adjoint, and the first cell where it is, off T's ``_atoms`` on supp h,
    for a phi whose piece images do not overlap; k = 0 and cell None if none.
    The weights v^k on each atom and conj(v^k) / |slope| on its image decide,
    else ``maps``, the first cell where phi and phi^-1 differ, for all k."""
    for k in (1, 2):
        w = [(x0, x1, v ** k) for x0, x1, _, v in atoms]
        w_star = [(*sorted((p(x0), p(x1))), _adjoint_weight(v ** k, p)) for x0, x1, p, v in atoms]
        cell = _first_difference(_canonical_segments(w), _canonical_segments(w_star)) or maps
        if cell:
            return {"k": k, "cell": cell}
    return {"k": 0, "cell": None}


def _exact(T: QuadOperator) -> QuadOperator:
    """T with each float value of h read as the dyadic rational it is."""
    h = StepFunction(tuple((l, r, ExactComplex.of(v)) for l, r, v in T.h.segments))
    return QuadOperator(T.E, h, T.phi)


@dataclass(frozen=True)
class SelfAdjointNumericReport(_Report):
    """Float defects of Gamma_2(T) on a family, a cross-check that decides
    nothing: ``hermitian_defect`` = max |M_ij - conj(M_ji)| with
    M_ij = <Psi(T f_i), Psi(f_j)>, ``adjoint_defect`` = max |M_ij -
    conj(<Psi(T* f_j), Psi(f_i)>)|, the counter-example gap for the dilation
    even on one function, None on a fold; and ``defect``, the larger."""

    hermitian_defect: float
    adjoint_defect: Optional[float]
    defect: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "defect", max(self.hermitian_defect, self.adjoint_defect or 0.0))


def check_selfadjoint_numeric(T: QuadOperator, family: Sequence[StepFunction],
                              cfg: FockConfig) -> SelfAdjointNumericReport:
    """The defects over a family: signatures of (T f_i, f_j), (T* f_j, f_i) unless T folds."""
    tf = [apply_operator(T, f) for f in family]
    for i, (f, g) in enumerate(zip(family, tf)):
        if not (exp_vector_exists(f) and exp_vector_exists(g)):
            raise DomainError(f"family member {i} or its image is inadmissible")

    try:
        T_star = adjoint_operator(T)
    except NonInjectiveError:  # a fold: T* sums over its branches
        T_star = None
    tsf = [apply_operator(T_star, f) for f in family] if T_star else []
    for j, g in enumerate(tsf):
        if not exp_vector_exists(g):
            raise DomainError(f"adjoint image of member {j} is inadmissible")

    n = range(len(family))
    M = [[_Signature(tf[i], family[j]).closed(cfg) for j in n] for i in n]
    herm = adj = 0.0
    for i in n:
        for j in n:
            herm = max(herm, abs(M[i][j] - M[j][i].conjugate()))
            if T_star:
                rhs = _Signature(tsf[j], family[i]).closed(cfg)
                adj = max(adj, abs(M[i][j] - rhs.conjugate()))
    return SelfAdjointNumericReport(herm, adj if T_star else None)


# ---------------------------------------------------------------------------
# Homomorphism / power behaviour
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerCheckReport(_Report):
    """Whether (T f)^m = T(f^m) for m = 2..M, and the same for T*."""

    operator_equal: dict[int, bool]
    adjoint_equal: dict[int, bool]


def check_homomorphism_powers(T: QuadOperator, f: StepFunction,
                              M: int) -> PowerCheckReport:
    if M < 2:
        raise ValueError("M must be >= 2")
    T_star = adjoint_operator(T)
    tf, tsf = apply_operator(T, f), apply_operator(T_star, f)
    op_eq: dict[int, bool] = {}
    adj_eq: dict[int, bool] = {}
    for m in range(2, M + 1):
        fm = f ** m
        op_eq[m] = tf ** m == apply_operator(T, fm)
        adj_eq[m] = tsf ** m == apply_operator(T_star, fm)
    return PowerCheckReport(op_eq, adj_eq)


# ---------------------------------------------------------------------------
# Derivative identity and contraction checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeCheckReport(_Report):
    """Exact rationals on an exact family, floats otherwise."""

    derivative: float
    expected: float            # 2c ||sum alpha_i f_i||^2
    expected_as_stated: float  # the uncorrected constant c
    abs_error: float
    rel_error: float
    ratio_to_stated: float


def lemma4_derivative_check(family: Sequence[StepFunction],
                            coeffs: Sequence[complex],
                            cfg: FockConfig) -> DerivativeCheckReport:
    """d/dt at 0 of the Gram quadratic form versus 2c ||sum alpha_i f_i||^2.

    <Psi(sqrt(t) f), Psi(sqrt(t) g)> = sum_n t^n b_n(f, g), so the form
    q(t) = sum conj(a_i) a_j <Psi(sqrt(t) f_i), Psi(sqrt(t) f_j)> has
    q'(0) = sum conj(a_i) a_j b_1(f_i, f_j), with b_1 = a_1 read off
    ``n_particle_table``, one pair i <= j at a time: b_1(f_j, f_i) is the
    conjugate.  The norm comes from the step function sum a_i f_i, so the
    two sides take independent routes.  On an exact family each a_i is read
    exactly and the report is exact.  The published constant is c, not 2c;
    both are reported and the ratio exposes the factor-2 discrepancy.
    """
    if len(family) != len(coeffs):
        raise ValueError("family and coeffs must have equal length")
    exact = _exact_values(*family)
    alpha = [ExactComplex.of(complex(a)) if exact else complex(a) for a in coeffs]

    deriv = 0
    combo = StepFunction.zero()
    for i, (a, f) in enumerate(zip(alpha, family)):
        for j in range(i, len(family)):
            b1 = n_particle_table(moments(f, family[j], 1), 1, cfg)[1]
            # a pair of zero functions runs in floats, as two zero functions carry no value
            term = a.conjugate() * alpha[j] * (ExactComplex.of(b1) if exact else complex(b1))
            deriv = deriv + (term if i == j else term + term.conjugate())
        combo = combo + f.scale(a)
    deriv = deriv.re if exact else complex(deriv).real

    try:
        c = _frac(cfg.c) if exact else float(cfg.c)
        stated = c * combo.l2_norm_sq()
    except OverflowError:  # a float c or a float norm beyond the doubles
        raise DomainError("||sum alpha_i f_i||^2 exceeds double precision") from None
    expected = 2 * stated
    abs_err = abs(deriv - expected)
    rel_err = abs_err / max(abs(expected), 1e-300)
    ratio = deriv / stated if stated != 0 else math.nan
    return DerivativeCheckReport(deriv, expected, stated, abs_err, rel_err, ratio)


@dataclass(frozen=True)
class ContractionGramReport(_Report):
    min_eig: float
    psd: bool


def check_contraction_gram(T: QuadOperator, family: Sequence[StepFunction],
                           cfg: FockConfig) -> ContractionGramReport:
    """Finite-family necessary condition for Gamma_2(T) to contract the
    sampled span: the difference of Gram matrices G(f_i) - G(T f_i) must be
    PSD.  ``boundedness_report`` decides contraction exactly."""
    D = gram_matrix(family, cfg) - gram_matrix([apply_operator(T, f) for f in family], cfg)
    me = gram_min_eig(D, tol=max(cfg.tol, 1e-10))
    return ContractionGramReport(me, me >= -cfg.tol)


@dataclass(frozen=True)
class L2ContractionReport(_Report):
    max_ratio: float
    ratios: tuple[float, ...]
    contraction: bool


def check_l2_contraction(T: QuadOperator,
                         samples: Sequence[StepFunction]) -> L2ContractionReport:
    """max ||T f||_2 / ||f||_2 over the nonzero samples, a contraction up to
    1e-12; a DomainError where a norm leaves the doubles."""
    ratios = []
    for f in samples:
        try:
            norms = f.l2_norm(), apply_operator(T, f).l2_norm()
        except OverflowError:  # an exact norm beyond the doubles
            norms = (math.inf,)
        if not all(map(math.isfinite, norms)):
            raise DomainError("an L^2 norm exceeds double precision")
        if norms[0]:
            ratios.append(norms[1] / norms[0])
    mx = max(ratios, default=0.0)
    return L2ContractionReport(mx, tuple(ratios), mx <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# Boundedness, exactly
# ---------------------------------------------------------------------------

_K = 8  # the ratios r_1..r_K computed on each cell
_FALLING = [math.factorial(_K) // math.factorial(j) for j in range(_K + 1)]  # K! / j!


@dataclass(frozen=True)
class BoundednessReport(_Report):
    """The norm of Gamma_2(T) read off one cell at a time.

    Distinct cells I of a partition have disjoint preimages, so Gamma_2(T) on
    the Fock space over the partition is a tensor product of one-cell maps,
    and ||Gamma_2(T)||^2 = prod_I sup_k r_k(I) with
    r_k(I) = a_k(T chi_I, T chi_I) / a_k(chi_I, chi_I) and r_0 = 1.

    ``cells`` lists, per cell of phi(E): the cell [l, r), ``r1`` (the L^2
    ratio ||T chi_I||^2 / |I|), ``sup_r`` = max_{1<=k<=K} r_k with its
    ``argmax_k``, ``h_sup_sq`` = ||h||_inf^2 on its preimage, and ``agrees``:
    whether the library's ``n_particle_table`` gives the closed-form r_k.
    A float h is read as the dyadic rational it is, so every reported number
    is the exact closed form, and ``agrees`` is exact, in either backend.
    ``lower_bound`` <= ||Gamma_2(T)||^2 is the largest r_k over the cells and
    k <= K, at ``witness`` (cell, k); cell None and k = 0 is the vacuum,
    whose r_0 = 1.
    """

    verdict: str  # "contraction" or "unbounded"
    lower_bound: Fraction
    witness: dict
    K: int
    closed_form_agrees: bool
    cells: tuple


def boundedness_report(T: QuadOperator, cfg: FockConfig,
                       splits: Sequence[int] = (1,)) -> BoundednessReport:
    """Exact boundedness of Gamma_2(T) from the cells of phi(E), each cut
    into m equal sub-cells for every m in ``splits``, in that order; with no
    split there is no cell, so ``splits`` is one or more ints >= 1.

    phi(E) is cut at the images of phi's piece ends and of h's breakpoints,
    so on each cell I the preimage pieces p have constant |slope| s_p and
    constant |h|^2 = w_p.  With beta = c |I| / 2 the closed form
    <Psi(sqrt(t) T chi_I), Psi(sqrt(t) T chi_I)> = prod_p (1 - 4 t w_p)^(-beta / s_p)
    gives, with x = 4 t,
    sum_k r_k (beta)_k x^k / k! = prod_p (1 - w_p x)^(-beta / s_p);
    on one piece r_k = w^k (beta / s)_k / (beta)_k.

    The verdict is exact and holds for every k and every refinement:
    - "unbounded" where w_p > 1 on a piece, since then r_k grows like w_p^k,
      or where r_1 > 1 on a cell: r_1 does not depend on |I|, so the 2^m
      equal sub-cells of that cell give r_1^(2^m);
    - "contraction" otherwise.  The log of the generating function is
      beta sum_k (sum_p w_p^k / s_p) x^k / k, and with every w_p <= 1 each
      coefficient is at most beta r_1 <= beta, that of (1 - x)^(-beta); exp
      keeps the order of series with nonnegative coefficients, so r_k <= 1
      for every k.  So ||Gamma_2(T)|| = 1.
    The two tests are complementary: there is no third outcome.
    """
    if not splits or not all(isinstance(m, int) and m >= 1 for m in splits):
        raise ValueError(f"splits must be one or more ints >= 1, got {splits!r}")
    T, c, one = _exact(T), _frac(cfg.c), ExactComplex.of(1)
    cells, results, w_max, r1_max = [], {}, 0, 0
    best = (_frac(1), None, 0)  # (r, cell, k): the vacuum unless some r_k exceeds 1
    for l, r, pieces in _cells(T, splits):
        key = (r - l, tuple(pieces))  # all that r_k(I) depends on
        if key not in results:
            want = _closed_ratios(pieces, c * (r - l) / 2)
            chi = StepFunction.indicator(l, r, one)
            results[key] = want, _table_agrees(apply_operator(T, chi), chi, want, cfg)
        want, agrees = results[key]
        k = max(range(_K), key=want.__getitem__) + 1
        h_sq = max(w for _, w in pieces)
        cells.append({"cell": (l, r), "r1": want[0], "sup_r": want[k - 1], "argmax_k": k,
                      "h_sup_sq": h_sq, "agrees": agrees})
        w_max, r1_max = max(w_max, h_sq), max(r1_max, want[0])
        if want[k - 1] > best[0]:
            best = (want[k - 1], (l, r), k)
    verdict = "unbounded" if w_max > 1 or r1_max > 1 else "contraction"
    return BoundednessReport(verdict, best[0], {"cell": best[1], "k": best[2]}, _K,
                             all(cell["agrees"] for cell in cells), tuple(cells))


def _cells(T: QuadOperator, splits: Sequence[int]) -> list:
    """[(l, r, [(s_p, w_p), ...])]: the cells of ``boundedness_report``, each
    with the |slope| s_p and the exact |h|^2 = w_p of its preimage pieces,
    read off the images of T's ``_atoms``, those with w_p = 0 included."""
    atoms = [(*sorted((p(x0), p(x1))), abs(p.slope), _frac(ExactComplex.of(v).abs_sq()))
             for x0, x1, p, v in _atoms(T)]
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


def _closed_ratios(pieces: list, beta: Fraction) -> list:
    """[r_1..r_K] of one cell: the coefficients of
    prod_p (1 - w_p x)^(-beta / s_p) over those of (1 - x)^(-beta), in ints.

    With b = beta / s = bn / bd and w = wn / wd, the coefficient
    (b)_j w^j / j! of one factor is t_j / ((bd wd)^K K!) with
    t_j = prod_{i<j} (bn + i bd) * wn^j * (bd wd)^(K-j) * K! / j!."""
    num, den = None, 1  # the product's coefficients are num[k] / den
    for s, w in pieces:
        b = beta / s
        bn, bd, wn, wd = b.numerator, b.denominator, w.numerator, w.denominator
        t, rising = [], 1
        for j in range(_K + 1):
            t.append(rising * wn ** j * (bd * wd) ** (_K - j) * _FALLING[j])
            rising *= bn + j * bd
        num = t if num is None else [sum(num[i] * t[k - i] for i in range(k + 1))
                                     for k in range(_K + 1)]
        den *= (bd * wd) ** _K * _FALLING[0]
    # r_k = (num[k] / den) / ((beta)_k / k!), with (beta)_k = rising_k / bd^k
    bn, bd = beta.numerator, beta.denominator
    ratios, rising = [], 1
    for k in range(1, _K + 1):
        rising *= bn + (k - 1) * bd
        ratios.append(_rat(num[k] * math.factorial(k) * bd ** k, den * rising))
    return ratios


def _table_agrees(tf: StepFunction, f: StepFunction, want: list, cfg: FockConfig) -> bool:
    """Whether ``n_particle_table`` gives a_k(tf, tf) = a_k(f, f) * want[k - 1]
    for k = 1..K, exactly: tf and f have exact values, and a_k(f, f) > 0."""
    if tf.is_zero():
        return not any(want)
    num, den = (n_particle_table(moments(g, g, _K), _K, cfg)[1:] for g in (tf, f))
    return all(x == y * r for x, y, r in zip(num, den, want))


# ---------------------------------------------------------------------------
# The dilation counter-example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport(_Report):
    """Evidence that quantizing T* differs from the adjoint of Gamma_2(T) for
    the dilation (T f)(x) = f(2x): ``moment_witness`` holds the first k with
    m_k(T f, g) != m_k(f, T* g), both m_k (``lhs_m``, ``rhs_m``) and both a_k
    (``lhs_a``, ``rhs_a``); k = 0 and null values where no moment parts them."""

    lhs: complex                 # <Gamma_2(T) Psi(f), Psi(g)>
    rhs: complex                 # <Psi(f), Gamma_2(T*) Psi(g)>
    gap: float
    lhs_series: complex
    lhs_tail: float
    rhs_series: complex
    rhs_tail: float
    moment_witness: dict


def counterexample_report(cfg: FockConfig, f: StepFunction,
                          g: StepFunction) -> CounterexampleReport:
    """Both pairings for the dilation, cross-checked by series, and their
    moment witness.  The right-hand side <Psi(f), Gamma_2(T*) Psi(g)> is
    conj(<Psi(T* g), Psi(f)>), so no adjoint on Fock space is needed.  The
    dilation's unit weight is in the backend that the values of f and g select.

    a_n = c 2^(2n-1) m_n + (terms in m_1..m_(n-1)), so at any c > 0 the two
    pairings' a_n agree for every n iff their moments do.  The dilation gives
    m_k(f, T* g) = 2^(1-k) m_k(T f, g), and m_2..m_(d+1) of the d distinct
    nonzero values of (T f, g) are not all zero (Vandermonde): k <= d + 1.
    """
    if not exp_vector_exists(f):
        raise DomainError("sup norm of f >= 1/2")
    one = ExactComplex.of(1) if _exact_values(f, g) else 1.0 + 0.0j
    T = dilation_operator(window_radius(f, g), one)
    tf, tsg = apply_operator(T, f), apply_operator(adjoint_operator(T), g)

    # one signature per pairing, read by its closed form, its series and its moments
    lhs_sig = _image_signature(tf, g)  # requires g admissible
    lhs = lhs_sig.closed(cfg)
    rhs_sig = _image_signature(tsg, f)
    rhs = rhs_sig.closed(cfg).conjugate()

    lhs_series, lhs_tail, _ = lhs_sig.series(cfg)
    rhs_series, rhs_tail, _ = rhs_sig.series(cfg)

    # the moments and a_n of (T* g, f) are the conjugates of those of (f, T* g);
    # k = 2 unless m_2(T f, g) = 0, and only then are d + 1 moments read
    for K in (2, len(lhs_sig.sig) + 1):
        lm, rm = lhs_sig.moments(K), rhs_sig.moments(K)
        k = next((k for k in range(1, K + 1) if lm[k] != rm[k].conjugate()), 0)
        if k:
            break
    values = (lm[k], rm[k].conjugate(), n_particle_table(lm, k, cfg)[k],
              n_particle_table(rm, k, cfg)[k].conjugate()) if k else (None,) * 4
    witness = dict(zip(("k", "lhs_m", "rhs_m", "lhs_a", "rhs_a"), (k, *values)))

    return CounterexampleReport(lhs, rhs, abs(lhs - rhs), lhs_series, lhs_tail,
                                rhs_series.conjugate(), rhs_tail, witness)
