"""Inner products in the quadratic Fock space.

Every quantity of a pair (f, g) here depends on it only through its value
signature ``_Signature``: the total length L_u carrying each value u of
conj(f) * g.  Its moments are ``m_k = <f^k, g^k> = sum L_u u^k``, its
closed form integrates ``log(1 - 4u)`` against it, and its series tail
reads its total length and its largest |u|.  Each pair's signature is
built once per call and every quantity is read off it: a Gram matrix sweeps
only the pairs i <= j, because the signature of (g, f) is that of (f, g)
with conjugated keys, and fills the rest by Hermitian symmetry.

The lengths in a signature are exact ints on one grid per pair,
L_u = l_u / Lambda with Lambda the lcm of the pair's end denominators.  A
float route leaves exact arithmetic where each value and length becomes a
double, once per signature, in ``_Signature.doubles``: a length by one int
division, correctly rounded.  The float moments, the closed form and the
series read the same doubles.  The exact moments and the exact series read
the same l_u, reduced by one lazy gcd with Lambda to the lcm of the reduced
lengths' denominators, and the series takes its total length as one
integer sum over Lambda.

The series stops at the first depth N up to ``FockConfig.depth`` whose
rigorous tail bound is at most ``FockConfig.tol``: one pass of the
dominating recursion proposes N, and the sum extends one term at a time
from there while its rounding error keeps the bound above tol.

The n-particle inner products ``a_n`` obey the recursion

    n * b_n = c * sum_{k=0}^{n-1} 2^(2k+1) * m_{k+1} * b_{n-k-1},
    b_n = a_n / (n!)^2,   b_0 = 1,

which is the log-derivative of the generating function

    F(t) = exp( (c/2) * sum_{k>=1} 4^k m_k t^k / k ),

whose value at t = 1 is the closed-form exponential-vector inner product
exp(-c/2 * integral of log(1 - 4 conj(f) g)).  The partition sum expresses
the coefficient of F directly; see ``n_particle_inner_partition`` for the
``corrected`` versus ``as_printed`` coefficient conventions.

In exact mode (exact moments and a rational c = c_num / c_den) both routes
run on Gaussian integers.  The signature is scaled once: u = (a + b i) / D
and L_u = l_u / Lambda with one common D and Lambda, so

    m_k = N_k / (Lambda * D^k),   N_k = sum l_u (a + b i)^k,

and, with E = c_den * Lambda, the recursion holds B_n = n! (D E)^n b_n:

    B_n = c_num * sum_{k=0}^{n-1} 2^(2k+1) (n-1)!/(n-k-1)! E^k N_{k+1} B_{n-k-1}.

Then a_n = n! B_n / (D E)^n.  A partition term is an integer over
den_n * (D E)^n, den_n the common denominator of the coefficients at n.
``_partition_sums`` sums the partition terms of any number of n, and
builds the one table of powers N_j^i they read once per call, up to the
largest n.  Each result is reduced once; the two routes share the N_k only.

The recursion has one body in each backend, ``_b_sequence`` for floats and
``_scaled_b`` for Gaussian integers, each a generator that reads one moment
per term: ``n_particle_table`` takes n_max terms and returns a_0..a_{n_max},
``n_particle_inner_rec`` returns its last entry, and the series takes as many
b_n as its tail bound needs.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, NotHermitianError, UnconvergedError
from .scalars import ExactComplex, _frac, _new, _parts, _rat
from .stepfn import StepFunction, value_signature
from .stepfn import inner  # noqa: F401  perfbench/test_trace.py reads quadfock.fock.inner

ADMISSIBLE_SUP_SQ = Fraction(1, 4)  # existence radius: sup norm < 1/2

MAX_DEPTH = 2000  # moments and the series recursion hold and loop over every term
MAX_PARTICLES = 40  # the partition sum holds a table of all p(n) terms: 37338 at n = 40
GRAM_DEPTH = 8  # the largest truncation N of an exact Gram certificate


def _inside_radius(sup_sq) -> bool:
    """sup_sq < ADMISSIBLE_SUP_SQ, exactly.  A float is compared with the
    double 0.25, which is 1/4: against the ``Fraction`` it would be
    converted first."""
    return sup_sq < (0.25 if type(sup_sq) is float else ADMISSIBLE_SUP_SQ)


@dataclass(frozen=True)
class FockConfig:
    """Representation constant, series truncation depth and tolerance.

    ``c`` may be a Fraction for fully exact n-particle computations; it is
    never assumed to be 1, and it is checked positive and finite exactly, so
    a c below the smallest double or beyond the largest is accepted.
    """

    c: object = 1.0
    depth: int = 40
    tol: float = 1e-10

    def __post_init__(self):
        if not (self.c > 0):
            raise ValueError("c must be positive")
        if self.c == math.inf:  # compares a Fraction exactly, with no float()
            raise ValueError("c must be finite")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class MomentSequence:
    """The scalars m_k = <f^k, g^k> for k = 1..K.

    ``_scaled`` is the exact sequence as ``(N, D, Lambda)`` with
    m_k = N[k-1] / (Lambda * D^k) and each N[k-1] a Gaussian integer
    (re, im); ``None`` for a sequence that was not built from an exact value
    signature."""

    entries: tuple
    _scaled: tuple | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, k: int):
        """m_k, 1-based as in the formulas."""
        if not 1 <= k <= len(self.entries):
            raise IndexError(f"moment index {k} out of range 1..{len(self.entries)}")
        return self.entries[k - 1]


def moments(f: StepFunction, g: StepFunction, K: int) -> MomentSequence:
    """m_k = <f^k, g^k> = sum over the value signature of L_u * u^k, k = 1..K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _Signature(value_signature(f, g)).moments(K)


def _power_sums(us: list, terms: list) -> Iterator:
    """sum t u^k over the values us and their weights terms, k = 1, 2, ...:
    every term is the complex product of the previous one and its u."""
    while True:
        terms = list(map(mul, terms, us))
        yield sum(terms, 0)


def _gaussian_sums(us: list, terms: list) -> Iterator[tuple]:
    """``_power_sums`` on Gaussian integers (re, im)."""
    while True:
        terms = [(tr * ur - ti * ui, tr * ui + ti * ur) for (tr, ti), (ur, ui) in zip(terms, us)]
        yield sum(t[0] for t in terms), sum(t[1] for t in terms)


class _Signature:
    """The (Lambda, sig) of ``value_signature``: ``sig`` maps each value u of
    conj(f) * g to the int l_u with L_u = l_u / Lambda the length carrying it;
    ``exact`` is true for a nonempty ``sig`` of ExactComplex values; ``zero``
    is whether f or g is zero, which an empty ``sig`` alone does not tell
    from disjoint supports.  It reduces its lengths and converts its values
    and lengths to doubles once each, at the first call that reads them."""

    __slots__ = ("lam", "sig", "exact", "zero", "_lengths", "_doubles")

    def __init__(self, signature: tuple[int, dict], zero: bool = False):
        self.lam, self.sig = signature
        self.exact = bool(self.sig) and all(type(u) is ExactComplex for u in self.sig)
        self.zero = zero
        self._lengths = self._doubles = None

    @classmethod
    def admissible(cls, f: StepFunction, g: StepFunction,
                   sups: Optional[list] = None) -> "_Signature":
        """The signature of (f, g), with sups read here unless given, or a
        DomainError where Psi(f) or Psi(g) does not exist: the one
        admissibility test of a pair, shared by its closed form and its series."""
        if sups is None:
            sups = [f.sup_norm_sq(), g.sup_norm_sq()]
        bad = [i for i, s in enumerate(sups) if not _inside_radius(s)]
        if bad:
            raise DomainError(f"sup norm >= 1/2 for argument(s) {bad}; "
                              "exponential vector does not exist")
        return cls(value_signature(f, g), f.is_zero() or g.is_zero())

    def scaled_lengths(self) -> tuple[int, list]:
        """(Lambda, [l_u]) with L_u = l_u / Lambda and Lambda the lcm of the
        lengths' denominators, computed once per signature: the grid's
        Lambda and l_u divided by their one gcd, since the lcm of the reduced
        denominators l_u / Lambda is Lambda / gcd(Lambda, l_1, ..., l_m)."""
        if self._lengths is None:
            lam, ls = self.lam, list(self.sig.values())
            g = math.gcd(lam, *ls)
            self._lengths = (lam // g, [l // g for l in ls]) if g != 1 else (lam, ls)
        return self._lengths

    def doubles(self) -> tuple[list, list]:
        """([complex u], [float L_u]) in the order of ``sig``, computed once per
        signature: the float moments, the closed form and the series read them."""
        if self._doubles is None:
            lam = self.lam
            try:  # an int true division is correctly rounded: the double of L_u
                lengths = [length / lam for length in self.sig.values()]
            except OverflowError:  # the difference of two breakpoints can leave the doubles
                raise DomainError("a length exceeds double precision") from None
            self._doubles = list(map(complex, self.sig)), lengths
        return self._doubles

    def _gaussian_moments(self) -> tuple[int, Iterator[tuple]]:
        """(D, N_1, N_2, ...): u = (a + b i) / D over one common D, and
        N_k = sum l_u (a + b i)^k as Gaussian integers, so m_k = N_k / (Lambda D^k)."""
        us = [_parts(u) for u in self.sig]
        D = math.lcm(*(d for _, _, d in us))
        us = [(a * (D // d), b * (D // d)) for a, b, d in us]
        return D, _gaussian_sums(us, [(l, 0) for l in self.scaled_lengths()[1]])

    def moments(self, K: int) -> MomentSequence:
        """m_k = sum L_u u^k, k = 1..K.  Exact moments are scaled once:
        u = (a + b i) / D and L_u = l_u / Lambda, so N_k = sum l_u (a + b i)^k."""
        if not self.exact:
            us, lengths = self.doubles()
            return MomentSequence(tuple(islice(_power_sums(us, list(map(complex, lengths))), K)))
        D, sums = self._gaussian_moments()
        lam = self.scaled_lengths()[0]
        N = tuple(islice(sums, K))
        entries, den = [], lam
        for re, im in N:
            den *= D
            entries.append(_new(re, im, den))
        return MomentSequence(tuple(entries), (N, D, lam))

    def closed(self, cfg: FockConfig, t: float = 1.0) -> complex:
        """exp(-c/2 * sum L_u log(1 - 4 t u)), principal branch; a DomainError
        where the exponent leaves the doubles."""
        total = 0.0 + 0.0j
        for u, length in zip(*self.doubles()):
            arg = 1 - 4 * t * u
            if arg == 0 or arg.real < 0 and arg.imag == 0:
                raise DomainError("log argument on the branch cut; inputs inadmissible")
            total += length * cmath.log(arg)
        try:
            exponent = -float(cfg.c) / 2 * total
        except OverflowError:  # an exact c beyond the doubles
            raise DomainError("c exceeds double precision") from None
        if cmath.isfinite(exponent):
            try:
                return cmath.exp(exponent)
            except OverflowError:
                pass
        raise DomainError(f"closed form exp({exponent}) overflows double precision")

    def _exact_terms(self, c) -> Iterator[tuple[int, int, int]]:
        """b_1, b_2, ... of an exact (or empty) signature as (re, im, q) with
        b_n = (re + im i) / q = B_n / (n! (D E)^n), one moment and one
        recursion step per term."""
        D, N = self._gaussian_moments()
        c = _frac(c)
        E = c.denominator * self.scaled_lengths()[0]
        q = 1
        for n, (re, im) in enumerate(_scaled_b(N, E, c.numerator), 1):
            q *= n * D * E
            yield re, im, q

    def _terms(self, c) -> Iterator[complex]:
        """b_1, b_2, ... as doubles, one moment and one recursion step per term."""
        if self.exact:
            for re, im, q in self._exact_terms(c):  # correctly rounded by one division
                try:
                    yield complex(re / q, im / q)
                except OverflowError:  # an exact b_n beyond the doubles
                    raise DomainError("a series term exceeds double precision") from None
        else:
            # w_k = 2^(2k+1) m_{k+1} = sum (L/2) (4u)^(k+1): |4u| < 1 keeps these in
            # range at any depth, where the factor 2^(2k+1) alone leaves the doubles.
            # Halving a double is exact, so L/2 is correctly rounded for L >= 2^-1021.
            us, lengths = self.doubles()
            w = _power_sums([4 * u for u in us], [complex(length / 2) for length in lengths])
            yield from map(complex, _b_sequence(w, c))

    def series(self, cfg: FockConfig, fixed: bool = False) -> tuple[complex, float, int]:
        """(value, tail, N): ``exp_inner_series`` of the pair this signature was
        built from by ``admissible``, with N the depth summed.  N is the first
        depth up to ``cfg.depth`` whose tail bound is at most ``cfg.tol``; with
        ``fixed``, N is ``cfg.depth`` itself."""
        x = 4.0 * max(map(abs, self.doubles()[0]), default=0.0)  # 4 rho
        if x >= 1.0:
            raise DomainError("max|u| >= 1/4; series does not converge")
        if self.zero:
            return (1.0 + 0.0j, 0.0, 0)
        c = _frac(cfg.c)  # beta = c S / 2, S = sum(l_u) / Lambda the overlap length
        try:
            beta = _up(float(_rat(c.numerator * sum(self.sig.values()),
                                  2 * c.denominator * self.lam)))
        except OverflowError:  # an exact c, or the overlap, beyond the doubles
            raise DomainError("beta = c S / 2 exceeds double precision") from None
        # rho is |complex(u)| of one u: the parts of an exact u are rounded to
        # doubles (a float u is one already), hypot is within one ulp, and 4 rho
        # is exact.  With the product below, these roundings lose at most 2^-51
        # relative, which the factor 1 + 2^-50 covers, and where a part or rho
        # is subnormal at most 2^-1071 absolute on 4 rho, which 2^-1070 covers.
        x = _up(x * (1 + 2.0 ** -50) + 2.0 ** -1070)
        cap, tol = cfg.depth, cfg.tol
        tails = enumerate(_dominating_tails(x, beta))  # (N, (tail, sum d_n)) at N
        for N, (dom, bound) in tails:  # no depth below the first whose dominating tail is <= tol
            if N == cap or N and dom <= tol and not fixed:
                break
        # at the cap, no sum reaches tol; with sum d_n finite no b_n leaves the doubles
        if dom > tol and bound < math.inf:
            # sum |re b_n| + |im b_n| <= 2 sum d_n bounds the summation error
            raise _unconverged(_up(dom + _up((N + 2) * 2.0 ** -51 * bound)), tol, cap, tails)
        value, size = 0j, 0.0
        for n, bn in enumerate(chain((1 + 0j,), self._terms(cfg.c))):
            value += bn
            size += abs(bn.real) + abs(bn.imag)
            if n < N:
                continue
            if not cmath.isfinite(value):  # a float b_n, or their sum, beyond the doubles
                raise DomainError("a series term exceeds double precision")
            tail = _up(dom + _up((n + 2) * 2.0 ** -52 * size))
            if tail <= tol:  # not when the bound overflowed to inf or nan
                return value, tail, n
            if n == cap:
                break
            N, (dom, _) = next(tails)
        raise _unconverged(tail, tol, cap, tails)


def _unconverged(tail: float, tol: float, cap: int, tails: Iterator) -> UnconvergedError:
    """The error at the cap, naming the first depth of ``tails`` within tol."""
    need = f"no depth <= {MAX_DEPTH} reaches it"
    for N, (dom, _) in tails:
        if N > MAX_DEPTH:
            break
        if dom <= tol:
            need = f"need depth >= {N}"
            break
    return UnconvergedError(f"tail bound {tail:.3e} exceeds tol {tol:.3e} "
                            f"at depth {cap}; {need}")


def _exact(m: MomentSequence, c):
    """(N, D, E, c_num) with E = c_den * Lambda when the moments are exact,
    else None: the values alone choose the backend, and c is read exactly
    (a float is a dyadic rational).  A sequence without a scaled form is
    scaled here, with D = 1 and Lambda the lcm of its entries' denominators."""
    scaled = m._scaled
    if scaled is None:
        parts = [_parts(mk) for mk in m.entries]
        if None in parts:
            return None
        lam = math.lcm(*(d for _, _, d in parts))
        scaled = (tuple((a * (lam // d), b * (lam // d)) for a, b, d in parts), 1, lam)
    N, D, lam = scaled
    c = _frac(c)
    return N, D, c.denominator * lam, c.numerator


def _b_sequence(w: Iterable, c) -> Iterator:
    """Normalized coefficients b_1, b_2, ... of the generating function, one
    per weight w_k = 2^(2k+1) m_{k+1} read:  n b_n = c * sum_k w_k b_{n-k-1}."""
    ws, b = [], [1]
    try:
        for wk in w:
            ws.append(wk)
            b.append((c / len(b)) * sum(map(mul, ws, reversed(b))))
            yield b[-1]
    except OverflowError:  # an exact c / n or weight beyond the doubles, times a float
        raise DomainError("a recursion term exceeds double precision") from None


def _scaled_b(N: Iterable, E: int, c_num: int) -> Iterator[tuple]:
    """B_1, B_2, ... with B_n = n! (D E)^n b_n as Gaussian integers (re, im),
    one scaled moment N_n read per term:
    B_n = c_num * sum_k 2^(2k+1) (n-1)!/(n-k-1)! E^k N_{k+1} B_{n-k-1}."""
    w, B, ek = [], [(1, 0)], 1
    for nn, (nr, ni) in enumerate(N, 1):
        s = ek << (2 * nn - 1)  # 2^(2k+1) E^k at k = nn - 1
        w.append((s * nr, s * ni))
        ek *= E
        re = im = 0
        ff = 1  # (nn-1)! / (nn-k-1)!
        for k in range(nn):
            if k:
                ff *= nn - k
            wr, wi = w[k]
            br, bi = B[nn - k - 1]
            re += ff * (wr * br - wi * bi)
            im += ff * (wr * bi + wi * br)
        B.append((c_num * re, c_num * im))
        yield B[-1]


def n_particle_inner_rec(m: MomentSequence, n: int, cfg: FockConfig):
    """a_n = <B+^n_f Phi, B+^n_g Phi> via the moment recursion; a_0 = 1."""
    return n_particle_table(m, n, cfg)[n]


def n_particle_table(m: MomentSequence, n_max: int, cfg: FockConfig) -> tuple:
    """(a_0, ..., a_{n_max}) with a_n = (n!)^2 b_n: the one body of the
    moment recursion."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    if len(m) < n_max:
        raise ValueError(f"need at least {n_max} moments, got {len(m)}")
    ex = _exact(m, cfg.c)
    if ex is None:
        try:
            w = [(2 ** (2 * k + 1)) * mk for k, mk in enumerate(m.entries[:n_max])]
            b = [1, *_b_sequence(w, cfg.c)]
            return tuple((math.factorial(n) ** 2) * b[n] for n in range(n_max + 1))
        except OverflowError:  # an int weight 2^(2k+1) or (n!)^2 beyond the doubles
            raise DomainError("a recursion weight exceeds double precision") from None
    N, D, E, c_num = ex
    a = [1]
    fact = den = 1
    for n, (re, im) in enumerate(_scaled_b(N[:n_max], E, c_num), 1):
        fact *= n
        den *= D * E
        a.append(_new(fact * re, fact * im, den))
    return tuple(a)


def partitions_multiplicity(n: int) -> Iterator[dict[int, int]]:
    """All multi-indices {j: i_j} with sum(j * i_j) = n, deterministic order.

    Enumeration is lexicographic in the part sizes chosen largest-first, and
    each dict lists its parts j in descending order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    parts = [[n, 1]] if n else []  # [j, i_j], j descending
    while True:
        yield dict(parts)
        rem = parts.pop()[1] if parts and parts[-1][0] == 1 else 0
        if not parts:
            return
        # take one part k > 1 and refill k + rem with parts of size k - 1 and less
        last = parts[-1]
        k = last[0]
        last[1] -= 1
        if not last[1]:
            parts.pop()
        q, r = divmod(k + rem, k - 1)
        parts.append([k - 1, q])
        if r:
            parts.append([r, 1])


def partition_coefficient(multi: dict[int, int], n: int, mode: str) -> Fraction:
    """Exact rational coefficient of prod_j m_j^{i_j} in a_n, without the
    c^{sum i_j} factor.

    ``corrected``:  (n!)^2 * 4^n * prod_j (1/(2j))^{i_j} / i_j!
    ``as_printed``: 2^(2n-1) * (n!)^2 / (prod_j i_j! * prod_{j>=2} j^{i_j})

    The two differ per multi-index by exactly 2^{(sum_j i_j) - 1}.
    """
    return Fraction(math.factorial(n) ** 2 << (2 * n), _coefficient_denominator(multi, mode))


def _coefficient_denominator(multi: dict[int, int], mode: str) -> int:
    """The unreduced denominator of ``partition_coefficient``; its numerator,
    (n!)^2 * 4^n, is the same for every multi-index of n."""
    if mode == "corrected":
        base, den = 2, 1
    elif mode == "as_printed":
        base, den = 1, 2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for j, ij in multi.items():
        den *= (base * j) ** ij * math.factorial(ij)
    return den


@functools.lru_cache(maxsize=16)
def _partition_table(n: int, mode: str) -> tuple:
    """(den, rows) for the partitions of n in ``partitions_multiplicity``
    order; a row is (multi-index items, coefficient, q = sum_j i_j,
    den * coefficient), den is the lcm of the coefficients' denominators.
    It depends on n and mode only."""
    if n > MAX_PARTICLES:
        raise ValueError(f"n must be at most {MAX_PARTICLES}")
    num = math.factorial(n) ** 2 << (2 * n)
    rows = [(tuple(multi.items()), _rat(num, _coefficient_denominator(multi, mode)),
             sum(multi.values()))
            for multi in partitions_multiplicity(n)]
    den = math.lcm(*(coef.denominator for _, coef, _ in rows))
    return den, tuple((items, coef, q, coef.numerator * (den // coef.denominator))
                      for items, coef, q in rows)


def _gaussian_powers(N: Sequence, n: int) -> list:
    """powers[j][i] = N_j^i as Gaussian integers (re, im), for 1 <= j and
    i * j <= n; the one power table of the exact partition terms up to n."""
    powers = [None]
    for j in range(1, n + 1):
        zr, zi = N[j - 1]
        pj = [(1, 0)]
        for _ in range(n // j):
            re, im = pj[-1]
            pj.append((re * zr - im * zi, re * zi + im * zr))
        powers.append(pj)
    return powers


def partition_terms(m: MomentSequence, n: int, cfg: FockConfig,
                    mode: str = "corrected"):
    """Yields (multi_index, coefficient, term) in deterministic order.

    Each multi-index is a fresh dict, so a caller may change it.  On exact
    moments c is read exactly, as in ``_exact``: a float c is the dyadic
    rational it stands for."""
    c = cfg.c
    if all(_parts(mk) is not None for mk in m.entries):
        c = _frac(c)
    _, rows = _partition_table(n, mode)
    c_powers: dict = {}
    powers: dict = {}
    try:
        for items, coef, q, _ in rows:
            cq = c_powers.get(q)
            if cq is None:  # c^q as a lean rational when c is exact
                cq = c_powers[q] = _frac(c ** q) if isinstance(c, Fraction) else c ** q
            # a float c^q takes the double of coef, as Fraction's float fallback does
            term = (float(coef) if type(cq) is float else coef) * cq
            for j, ij in items:
                mj = powers.get((j, ij))
                if mj is None:
                    mj = powers[(j, ij)] = m[j] ** ij
                term = mj * term
            yield dict(items), coef, term
    except OverflowError:  # a float c^q or m_j^i beyond the doubles
        raise DomainError("a partition term exceeds double precision") from None


def n_particle_inner_partition(m: MomentSequence, n: int, cfg: FockConfig,
                               mode: str = "corrected"):
    """a_n by direct partition sum.

    ``as_printed`` reproduces the published coefficient verbatim and is
    kept solely to make the discrepancy with the recursion auditable; it is
    undefined at n = 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        if mode == "as_printed":
            raise ValueError("as_printed coefficient is undefined at n = 0")
        return 1
    if len(m) < n:
        raise ValueError(f"need at least {n} moments, got {len(m)}")
    sums = _partition_sums(m, (n,), cfg, mode)
    if sums is not None:
        return sums[0]
    total = 0
    for _, _, term in partition_terms(m, n, cfg, mode):
        total = total + term
    return total


def _partition_sums(m: MomentSequence, ns: Sequence[int], cfg: FockConfig,
                    mode: str) -> Optional[list]:
    """The exact partition sum at each n in ns, in order, or None when the
    moments are not exact; m holds at least max(ns) moments.

    The scaled moments are read once and the one power table of the
    N_j^i is built once, up to max(ns); each n then sums its rows inline,
    grouped by their q parts, which share the factor c^q."""
    ex = _exact(m, cfg.c)
    if ex is None:
        return None
    N, D, E, c_num = ex
    # the tables first: an n beyond MAX_PARTICLES raises before any power is built
    tables = [(n, *_partition_table(n, mode)) for n in ns]
    powers = _gaussian_powers(N, max(ns, default=0))
    sums = []
    for n, den, rows in tables:
        qr, qi = [0] * (n + 1), [0] * (n + 1)
        for items, _, q, re in rows:
            im = 0
            for j, ij in items:
                pr, pi = powers[j][ij]
                re, im = re * pr - im * pi, re * pi + im * pr
            qr[q] += re
            qi[q] += im
        re = im = 0
        for q in range(n + 1):
            s = c_num ** q * E ** (n - q)
            re += s * qr[q]
            im += s * qi[q]
        sums.append(_new(re, im, den * (D * E) ** n))
    return sums


# ---------------------------------------------------------------------------
# Exponential vectors
# ---------------------------------------------------------------------------


def exp_vector_exists(f: StepFunction) -> bool:
    """True iff the quadratic exponential vector of f exists: sup|f| < 1/2.

    The boundary sup|f| = 1/2 is rejected; that keeps every logarithm
    strictly off the branch point."""
    return _inside_radius(f.sup_norm_sq())


def exp_inner_closed(f: StepFunction, g: StepFunction, cfg: FockConfig) -> complex:
    """<Psi(f), Psi(g)> = exp(-c/2 * integral of log(1 - 4 conj(f) g))."""
    return _Signature.admissible(f, g).closed(cfg)


def exp_inner_closed_scaled(f: StepFunction, g: StepFunction, t: float,
                            cfg: FockConfig) -> complex:
    """<Psi(sqrt(t) f), Psi(sqrt(t) g)> as an analytic function of t.

    Valid for any real t with |t| * sup|f| * sup|g| < 1/4, including small
    negative t.  Its derivative at t = 0 is the n = 1 coefficient
    b_1 = 2c <f, g>, which ``lemma4_derivative_check`` reads exactly."""
    if abs(t) * f.sup_norm() * g.sup_norm() >= 0.25:
        raise DomainError(f"scale t = {t} leaves the admissible region")
    return _Signature(value_signature(f, g)).closed(cfg, t)


def _up(x: float) -> float:
    """The next float above x: it bounds from above every real that rounds to x."""
    return math.nextafter(x, math.inf)


def _dominating_tails(x: float, beta: float) -> Iterator[tuple[float, float]]:
    """(tail, sum) for N = 0, 1, 2, ...: upper bounds on sum_{n>N} d_n and on
    sum_{n<=N} d_n, d_n = [t^n] (1 - x t)^(-beta), for 0 <= x < 1 and
    beta >= 0, rounding every step up.  One pass of the d_n recursion serves
    every N, since only the ratio bound r and the gap 1 - r depend on N."""
    nextafter, inf = math.nextafter, math.inf  # _up, without a call per rounding
    d = total = 1.0
    n = 0
    while True:
        n += 1  # d_n is the first term beyond N = n - 1
        t = nextafter(nextafter(d * x, inf) * nextafter(n - 1 + beta, inf), inf)
        d = nextafter(t / n, inf)
        r = nextafter(x * max(1.0, nextafter(nextafter(n + beta, inf) / (n + 1), inf)), inf)
        gap = nextafter(1.0 - r, -inf)
        yield nextafter(d / gap, inf) if gap > 0 else inf, total
        total = nextafter(total + d, inf)


def exp_inner_series(f: StepFunction, g: StepFunction,
                     cfg: FockConfig) -> tuple[complex, float]:
    """Truncated series sum_{n<=N} b_n with a rigorous tail bound, N the first
    depth up to ``cfg.depth`` whose bound is at most ``cfg.tol``; an
    UnconvergedError at ``cfg.depth`` names the first depth beyond it whose
    dominating tail alone is at most ``cfg.tol``, if any up to MAX_DEPTH.

    |m_k| <= S rho^k with S the overlap length and rho = max|u| over the
    signature, rho <= sup|f| sup|g|, so |b_n| <= d_n = [t^n] (1 - x t)^(-beta)
    with x = 4 rho, beta = c S / 2.
    For n > N the ratio d_{n+1} / d_n = x (n + beta) / (n + 1) is at most
    r = x * max(1, (N + 1 + beta) / (N + 2)), so the tail is at most
    d_{N+1} / (1 - r).  That bound is evaluated rounding every step up, and
    the float rounding error of summing b_0..b_N is added to it.  Only r and
    the gap depend on N, so one pass of the d_n recursion finds the first N
    whose d-part alone is at most tol, and the sum extends one term at a
    time from there while its rounding error keeps the bound above tol.
    """
    return _Signature.admissible(f, g).series(cfg)[:2]


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def gram_matrix(family: Sequence[StepFunction], cfg: FockConfig) -> np.ndarray:
    """G_ij = <Psi(f_i), Psi(f_j)>, Hermitian by construction.

    Only the pairs i <= j are swept: the signature of (f_j, f_i) is that of
    (f_i, f_j) with conjugated values, so G_ji = conj(G_ij)."""
    bad = [i for i, f in enumerate(family) if not exp_vector_exists(f)]
    if bad:
        raise DomainError(f"sup norm >= 1/2 at indices {bad}")
    import numpy as np  # here, so that no other route loads numpy

    n = len(family)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            z = _Signature(value_signature(family[i], family[j])).closed(cfg)
            G[j, i] = z.conjugate()
            G[i, j] = z  # after the conjugate, so the diagonal keeps z
    return G


def _gram_minors(family: Sequence[StepFunction], cfg: FockConfig) -> Iterator[tuple]:
    """(N, den, minors) for N = 1..GRAM_DEPTH on an exact family: the leading
    principal minors of the Gaussian integer matrix den * G_N, up to the first
    that is not positive, where G_N = sum_{n<=N} A_n / (n!)^2 <= G since each
    A_n = [a_n(f_i, f_j)] is a Gram matrix in H_n: positive minors certify G > 0.
    Each pair i <= j adds one term b_n = a_n / (n!)^2 of its recursion per N."""
    if not all(map(exp_vector_exists, family)):
        raise DomainError("sup norm >= 1/2 in the family")
    n = len(family)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    terms = [_Signature(value_signature(family[i], family[j]))._exact_terms(cfg.c)
             for i, j in pairs]
    sums = [(1, 0, 1)] * len(pairs)  # b_0 = 1, as (re, im, q)
    for N in range(1, GRAM_DEPTH + 1):
        # b_N = (re + im i) / q_N, and q_N is a multiple of q_{N-1}
        sums = [(re * (q // r) + br, im * (q // r) + bi, q)
                for (re, im, r), (br, bi, q) in zip(sums, map(next, terms))]
        den = math.lcm(*(q for _, _, q in sums))
        M = [[None] * n for _ in range(n)]
        for (i, j), (re, im, q) in zip(pairs, sums):
            s = den // q
            M[i][j], M[j][i] = (re * s, im * s), (re * s, -im * s)  # the diagonal is real
        # fraction-free (Bareiss) elimination: after step k, M[k+1][k+1] is the
        # leading minor of order k + 2, and each division by the last pivot is exact
        minors, prev = [], 1
        for k in range(n):
            p = M[k][k][0]  # real, as every principal minor of a Hermitian matrix is
            minors.append(p)
            if p <= 0:
                break
            for i in range(k + 1, n):
                ar, ai = M[i][k]
                for j in range(k + 1, n):
                    (br, bi), (cr, ci) = M[k][j], M[i][j]
                    M[i][j] = ((p * cr - ar * br + ai * bi) // prev,
                               (p * ci - ar * bi - ai * br) // prev)
            prev = p
        yield N, den, minors


def gram_min_eig(G: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    import numpy as np

    defect = float(np.max(np.abs(G - G.conj().T)))
    if defect > tol:
        raise NotHermitianError(f"Hermitian defect {defect:.3e} exceeds tol {tol:.3e}")
    return float(np.linalg.eigvalsh((G + G.conj().T) / 2)[0])


def is_psd(G: np.ndarray, tol: float = 1e-10) -> bool:
    return gram_min_eig(G, tol) >= -tol
