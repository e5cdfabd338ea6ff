"""Weighted-composition operators and their quadratic quantization.

An operator here is the normal form  T(f) = chi_E * h * (f o phi)  with a
support set E, a bounded weight h and a piecewise-affine map phi.  The
module provides the exact L^2 adjoint, matrix elements of the induced map
on exponential vectors, structural and numeric self-adjointness checks,
contraction certificates, and the dilation counter-example showing that
quantizing the adjoint differs from the adjoint of the quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .fock import (FockConfig, _closed_form, _gram_matrices, _signature_moments,
                   exp_inner_closed, exp_inner_series, exp_vector_exists, gram_matrix,
                   gram_min_eig)
from .scalars import ExactComplex, _frac
from .stepfn import (
    IntervalSet,
    PiecewiseAffineMap,
    StepFunction,
    compose,
    is_measure_preserving,
    map_compose,
    map_invert,
    step_allclose,
    value_signature,
)


@dataclass(frozen=True)
class QuadOperator:
    """T(f) = chi_E * h * (f o phi).

    supp(h) must lie in E and phi's domain must cover E.  The constructor
    is the one place that enforces this; the functions below rely on it.
    ||h||_inf <= 1 is *not* required at construction; it is one of the
    self-adjointness conditions checked later.
    """

    E: IntervalSet
    h: StepFunction
    phi: PiecewiseAffineMap

    def __post_init__(self):
        if not self.E.contains_set(self.h.support()):
            raise ValueError("supp(h) must be contained in E")
        if not self.phi.domain().contains_set(self.E):
            raise ValueError("phi's domain must cover E")

    def to_json(self) -> dict:
        return {"E": self.E.to_json(), "h": self.h.to_json(),
                "phi": self.phi.to_json()}

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
    """Exact L^2 adjoint by change of variables.

    (T* g)(y) = |(phi^-1)'(y)| * conj(h)(phi^-1(y)) * g(phi^-1(y)), so the
    adjoint is again a weighted-composition operator, with map phi^-1 and
    weight (conj(h) o phi^-1) * |(phi^-1)'|; the derivative is the step
    function equal to |slope| on each piece of phi^-1, a float unless h is
    exact.  Requires phi injective on E.
    """
    phi_inv = map_invert(T.phi.restrict(T.E))
    exact = any(isinstance(v, ExactComplex) for _, _, v in T.h.segments)
    jacobian = StepFunction.from_segments(
        (p.left, p.right, abs(p.slope) if exact else float(abs(p.slope)))
        for p in phi_inv.pieces)
    weight = compose(T.h.conj(), phi_inv) * jacobian
    return QuadOperator(phi_inv.domain(), weight, phi_inv)


def dilation_operator(radius, factor=2, one=1.0) -> QuadOperator:
    """(T f)(x) = f(factor * x) on the window E = [-radius, radius).

    ``one`` selects the scalar backend for the unit weight."""
    E = IntervalSet.from_intervals([(-radius, radius)])
    h = E.indicator(one)
    phi = PiecewiseAffineMap.from_pieces([(-radius, radius, factor, 0)])
    return QuadOperator(E, h, phi)


def window_radius(*fs: StepFunction, minimum=2) -> Fraction:
    """Window half-width making chi_E act as the identity on the inputs:
    at least twice the largest breakpoint magnitude."""
    r = _frac(minimum)
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
    return _image_pairing(apply_operator(T, f), g, cfg)


def _image_pairing(tf: StepFunction, g: StepFunction, cfg: FockConfig) -> complex:
    """<Psi(T f), Psi(g)> from the image tf = T f of an admissible f."""
    if not exp_vector_exists(tf):
        raise DomainError("sup norm of T f >= 1/2; Gamma_2(T) Psi(f) undefined")
    return exp_inner_closed(tf, g, cfg)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _json_value(v):
    """v in JSON form: a complex or ExactComplex as [re, im], a tuple as a
    list, dict keys as str, a NaN or infinite float as None (null); a
    DomainError for a value beyond the doubles."""
    if isinstance(v, (complex, ExactComplex)):
        try:
            v = complex(v)
        except OverflowError:  # an exact value beyond the doubles
            raise DomainError("a result exceeds double precision") from None
        return [_json_value(v.real), _json_value(v.imag)]
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


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
    """Structural conditions for Gamma_2(T) = Gamma_2(T)*; ``verdict`` is
    their conjunction."""

    involutive: bool
    maps_into: bool
    measure_preserving: bool
    weight_bounded: bool
    weight_symmetric: bool
    verdict: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", (
            self.involutive and self.maps_into and self.measure_preserving
            and self.weight_bounded and self.weight_symmetric))


def check_selfadjoint_structure(T: QuadOperator, tol: float = 0.0) -> SelfAdjointReport:
    """Evaluate the five structural conditions, exactly where possible:
    phi involutive on E, phi(E) inside E, phi measure preserving,
    ||h||_inf <= 1, and conj(h) = h o phi on E."""
    mp = is_measure_preserving(T.phi, T.E, tol)
    phi_e = T.phi.restrict(T.E)

    involutive = False
    if mp.maps_into:
        phi2 = map_compose(phi_e, phi_e)
        involutive = phi2.is_identity() and phi2.domain().contains_set(T.E)

    # an exact |h|^2 is a Fraction, and its comparison with a float is exact
    weight_bounded = T.h.sup_norm_sq() <= 1 + tol
    # h o phi_e vanishes off E, since phi_e is phi restricted to E
    weight_symmetric = step_allclose(T.h.conj(), compose(T.h, phi_e), tol)

    return SelfAdjointReport(involutive, mp.maps_into, mp.ok,
                             weight_bounded, weight_symmetric)


@dataclass(frozen=True)
class SelfAdjointNumericReport(_Report):
    """Numeric evidence for / against self-adjointness of Gamma_2(T).

    ``hermitian_defect`` is max |M_ij - conj(M_ji)| for the matrix
    M_ij = <Psi(T f_i), Psi(f_j)>.  ``adjoint_defect`` compares against the
    quantized L^2 adjoint, max |M_ij - conj(<Psi(T* f_j), Psi(f_i)>)|; for
    the dilation this is exactly the counter-example gap even on a single
    test function, where the plain Hermitian defect vanishes.
    ``moment_defect`` is max_n,i,j |<(T f_i)^n, f_j^n> - <f_i^n, (T f_j)^n>|.
    ``exact_zero`` certifies a zero defect through exact value-signature
    rearrangement, independent of floating point.  ``defect`` is the larger
    of the Hermitian and the adjoint defect.
    """

    hermitian_defect: float
    adjoint_defect: float
    moment_defect: float
    exact_zero: bool
    defect: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "defect", max(self.hermitian_defect, self.adjoint_defect))


def check_selfadjoint_numeric(T: QuadOperator, family: Sequence[StepFunction],
                              cfg: FockConfig, depth: int = 8) -> SelfAdjointNumericReport:
    """Moment-identity and matrix-element defects of Gamma_2(T) over a family.

    Two signatures per ordered pair carry everything: S_ij of (T f_i, f_j)
    and S*_ij of (T* f_j, f_i).  The signature of (f_i, T f_j) is S_ji with
    conjugated keys, and that of (f_i, T* f_j) is S*_ij with conjugated keys.
    """
    tf = [apply_operator(T, f) for f in family]
    for i, (f, g) in enumerate(zip(family, tf)):
        if not (exp_vector_exists(f) and exp_vector_exists(g)):
            raise DomainError(f"family member {i} or its image is inadmissible")

    T_star = adjoint_operator(T)
    tsf = [apply_operator(T_star, f) for f in family]
    for j, g in enumerate(tsf):
        if not exp_vector_exists(g):
            raise DomainError(f"adjoint image of member {j} is inadmissible")

    n = len(family)
    S = [[value_signature(tf[i], family[j]) for j in range(n)] for i in range(n)]
    S_star = [[value_signature(tsf[j], family[i]) for j in range(n)] for i in range(n)]

    M = [[_closed_form(s, cfg) for s in row] for row in S]
    Ms = [[_closed_form(s, cfg) for s in row] for row in S_star]
    # m_k of (T f_i, f_j); those of (f_i, T f_j) are their conjugates at (j, i)
    mom = [[_signature_moments(s, depth).entries for s in row] for row in S]

    herm = 0.0
    adj = 0.0
    moment = 0.0
    exact_zero = True
    for i in range(n):
        for j in range(n):
            herm = max(herm, abs(M[i][j] - M[j][i].conjugate()))
            adj = max(adj, abs(M[i][j] - Ms[i][j].conjugate()))
            # equal signatures force equal moments and log integrals
            if exact_zero and not (S[i][j] == _conj_keys(S[j][i]) == _conj_keys(S_star[i][j])):
                exact_zero = False
            for a, b in zip(mom[i][j], mom[j][i]):
                moment = max(moment, abs(complex(a - b.conjugate())))

    return SelfAdjointNumericReport(herm, adj, moment, exact_zero)


def _conj_keys(sig: dict) -> dict:
    """The value signature of (g, f) from that of (f, g)."""
    return {u.conjugate(): length for u, length in sig.items()}


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
    derivative: float
    expected: float            # 2c ||sum alpha_i f_i||^2
    expected_as_stated: float  # the uncorrected constant c
    abs_error: float
    rel_error: float
    ratio_to_stated: float


def lemma4_derivative_check(family: Sequence[StepFunction],
                            coeffs: Sequence[complex],
                            cfg: FockConfig,
                            t0: float = 1.0) -> DerivativeCheckReport:
    """d/dt at 0 of the Gram quadratic form versus 2c ||sum alpha_i f_i||^2.

    The quadratic form q(t) = sum conj(a_i) a_j <Psi(sqrt(t) f_i),
    Psi(sqrt(t) f_j)> extends analytically to small negative t, so q'(0) is
    estimated by Richardson-extrapolated central differences at
    t in {2^-6, 2^-7, 2^-8} * t0.  The published constant is c, not 2c;
    both are reported and the ratio exposes the factor-2 discrepancy.
    """
    if len(family) != len(coeffs):
        raise ValueError("family and coeffs must have equal length")
    alpha = np.asarray([complex(a) for a in coeffs])

    hs = [t0 * 2.0 ** (-6), t0 * 2.0 ** (-7), t0 * 2.0 ** (-8)]
    sigs, grams = _gram_matrices(family, [t for h in hs for t in (h, -h)], cfg)
    q = [float((alpha.conj() @ G @ alpha).real) for G in grams]
    central = [(q[2 * k] - q[2 * k + 1]) / (2 * h) for k, h in enumerate(hs)]
    richardson = [(4 * d1 - d0) / 3 for d0, d1 in zip(central, central[1:])]
    deriv = richardson[-1]

    # <f_i, f_j> = sum L u over the same signatures, conjugated for j < i
    def pair_inner(i: int, j: int) -> complex:
        if j < i:
            return pair_inner(j, i).conjugate()
        try:
            return complex(sum((length * u for u, length in sigs[i, j].items()), 0))
        except OverflowError:
            raise DomainError("an inner product exceeds double precision") from None

    # ||sum a_i f_i||^2 as the same quadratic form as q(t), valid in both backends
    norm_sq = float(sum(a.conjugate() * b * pair_inner(i, j)
                        for i, a in enumerate(alpha)
                        for j, b in enumerate(alpha)).real)

    c = float(cfg.c)
    expected = 2 * c * norm_sq
    stated = c * norm_sq
    abs_err = abs(deriv - expected)
    rel_err = abs_err / max(abs(expected), 1e-300)
    ratio = deriv / stated if stated != 0 else math.nan
    return DerivativeCheckReport(deriv, expected, stated, abs_err, rel_err, ratio)


@dataclass(frozen=True)
class ContractionGramReport(_Report):
    min_eig: float
    psd: bool


def check_contraction_gram(T: QuadOperator, family: Sequence[StepFunction],
                           cfg: FockConfig, t: float = 1.0) -> ContractionGramReport:
    """Finite-family certificate that Gamma_2(T) contracts the sampled span:
    the difference of Gram matrices G(f_i) - G(T f_i) must be PSD."""
    return _gram_report(family, [apply_operator(T, f) for f in family], cfg, t)


def _gram_report(family, images, cfg, t) -> ContractionGramReport:
    D = gram_matrix(family, cfg, t) - gram_matrix(images, cfg, t)
    me = gram_min_eig(D, tol=max(cfg.tol, 1e-10))
    return ContractionGramReport(me, me >= -cfg.tol)


@dataclass(frozen=True)
class L2ContractionReport(_Report):
    max_ratio: float
    ratios: tuple[float, ...]
    contraction: bool


def check_l2_contraction(T: QuadOperator, samples: Sequence[StepFunction],
                         tol: float = 1e-12) -> L2ContractionReport:
    """max ||T f||_2 / ||f||_2 over the nonzero samples."""
    return _l2_report(samples, [apply_operator(T, f) for f in samples], tol)


def _l2_report(samples, images, tol) -> L2ContractionReport:
    ratios = []
    for f, tf in zip(samples, images):
        nf = f.l2_norm()
        if nf == 0:
            continue
        ratios.append(tf.l2_norm() / nf)
    mx = max(ratios, default=0.0)
    return L2ContractionReport(mx, tuple(ratios), mx <= 1 + tol)


def _contraction_reports(T: QuadOperator, family: Sequence[StepFunction],
                         cfg: FockConfig, t: float = 1.0):
    """``check_contraction_gram`` and ``check_l2_contraction`` of one family,
    applying T once per member."""
    images = [apply_operator(T, f) for f in family]
    return _gram_report(family, images, cfg, t), _l2_report(family, images, 1e-12)


# ---------------------------------------------------------------------------
# The dilation counter-example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport(_Report):
    """Evidence that quantizing T* differs from the adjoint of Gamma_2(T)
    for the dilation (T f)(x) = f(2x)."""

    lhs: complex                 # <Gamma_2(T) Psi(f), Psi(g)>
    rhs: complex                 # <Psi(f), Gamma_2(T*) Psi(g)>
    gap: float
    lhs_series: complex
    lhs_tail: float
    rhs_series: complex
    rhs_tail: float
    adjoint_power_witness: dict = field(default_factory=dict)


def counterexample_report(cfg: FockConfig,
                          f: Optional[StepFunction] = None,
                          g: Optional[StepFunction] = None) -> CounterexampleReport:
    """Compute both pairings for the dilation, cross-checked by series.

    The right-hand side <Psi(f), Gamma_2(T*) Psi(g)> is evaluated through
    conjugate symmetry as conj(<Psi(T* g), Psi(f)>), so no adjoint on Fock
    space is ever needed.  A missing input is (1/4) chi_[0,1), in the
    backend of the other one.
    """
    one = _unit_like(*(h for h in (f, g) if h is not None))
    default = StepFunction.indicator(0, 1, one * Fraction(1, 4))
    f = default if f is None else f
    g = default if g is None else g
    if not exp_vector_exists(f):
        raise DomainError("sup norm of f >= 1/2")
    T = dilation_operator(window_radius(f, g), 2, one)
    T_star = adjoint_operator(T)
    tf, tsg = apply_operator(T, f), apply_operator(T_star, g)

    lhs = _image_pairing(tf, g, cfg)  # requires g admissible
    rhs = _image_pairing(tsg, f, cfg).conjugate()

    lhs_series, lhs_tail = exp_inner_series(tf, g, cfg)
    rs, rhs_tail = exp_inner_series(tsg, f, cfg)
    rhs_series = rs.conjugate()

    # k = 2 power witness: T*(g^2) = (1/2) g^2(./2) but (T* g)^2 = (1/4) g^2(./2)
    adjoint_of_square, square_of_adjoint = apply_operator(T_star, g ** 2), tsg ** 2
    try:
        witness = {
            "adjoint_of_square": adjoint_of_square.to_json(),
            "square_of_adjoint": square_of_adjoint.to_json(),
            "equal": adjoint_of_square == square_of_adjoint,
        }
    except OverflowError:  # T* doubles the breakpoints of g
        raise DomainError("a witness breakpoint exceeds double precision") from None

    return CounterexampleReport(
        lhs=lhs, rhs=rhs, gap=abs(lhs - rhs),
        lhs_series=lhs_series, lhs_tail=lhs_tail,
        rhs_series=rhs_series, rhs_tail=rhs_tail,
        adjoint_power_witness=witness,
    )


def _unit_like(*fs: StepFunction):
    for f in fs:
        for _, _, v in f.segments:
            if isinstance(v, ExactComplex):
                return ExactComplex.of(1)
    return 1.0 + 0.0j
