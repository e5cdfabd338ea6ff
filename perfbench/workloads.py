"""Workloads of the quadfock benchmark: inputs, operations and oracles.

Every operation is one in-process ``quadfock.cli.main(argv)`` call.  A
workload is a stream of rounds; round ``r`` of seed ``s`` is a fixed list of
groups, and a group is one or more operations plus the oracle that checks
their outputs together.  Inputs depend only on (workload, seed, round), so
the same seed gives the same inputs, and the benchmark generates them
itself: the program receives only the argv.

Why these workloads (ROADMAP aim 1):

* ``verify-all`` reproduces the paper.  Tiny inputs; the time goes to exact
  ``Fraction`` arithmetic (``scalars``) and recursion/partition checks.
* ``long-steps`` runs float ``inner`` and ``nparticle`` on step functions
  with N in {32, 64, 128} segments, fresh for every operation.  Its cost
  grows like N^2 in ``refine`` and ``moments``; it builds no exact scalar
  and repeats no input, so it bypasses ``scalars`` and any cache kept
  across calls.
* ``families`` runs every operation in both backends on the same dyadic
  inputs with 3 segments per function: ``quantization``, ``fock.gram`` and
  ``fock.partition`` do the work, and one seeded family is re-checked by
  several subcommands.  It is not in BENCHMARK.json: on the shared host the
  benchmark was tuned on, host speed drifts by up to 30% over minutes, and
  the run time allows longer runs of two workloads rather than short runs
  of three.  Run it by hand, with ``--seconds 20`` (two rounds).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10          # the CLI's default --tol, used by every oracle
VALUE_DENOM = 32     # step-function values are k / 32 with |k| <= 6, so |v| < 0.3


def load_quadfock():
    """Import quadfock from this checkout's ``src`` and return ``cli.main``.

    Refuses an installed copy: the benchmark measures the checkout's code.
    """
    src = ROOT / "src"
    if not (src / "quadfock" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quadfock sources under {src}")
    sys.path.insert(0, str(src))
    import quadfock.cli
    if Path(quadfock.__file__).resolve().parent != (src / "quadfock").resolve():
        raise SystemExit(f"perfbench: imported quadfock from {quadfock.__file__}, "
                         f"not from {src}")
    return quadfock.cli.main


# --- step functions on an integer grid -------------------------------------
# A step function is a list of (l, r, re, im) ints: the segment [l/D, r/D)
# carries the value (re + i*im) / VALUE_DENOM.  Every number is dyadic, so
# the JSON floats are exact and both backends read the same function.


def _value(rng: random.Random, prev=None) -> tuple[int, int]:
    while True:
        v = (rng.randint(-6, 6), rng.randint(-6, 6))
        if v != (0, 0) and v != prev:
            return v


def contiguous_steps(rng: random.Random, n: int, denom: int) -> list:
    """n adjacent segments covering [0, 4), inner breakpoints k/denom."""
    pts = [0, *sorted(rng.sample(range(1, 4 * denom), n - 1)), 4 * denom]
    segs, prev = [], None
    for l, r in zip(pts, pts[1:]):
        prev = _value(rng, prev)
        segs.append((l, r, *prev))
    return segs


def sparse_steps(rng: random.Random, n: int, denom: int) -> list:
    """n separated segments with breakpoints k/denom in [0, 4]."""
    pts = sorted(rng.sample(range(4 * denom + 1), 2 * n))
    return [(pts[2 * i], pts[2 * i + 1], *_value(rng)) for i in range(n)]


def steps_list(segs: list, denom: int) -> list:
    """The CLI's wire format [[l, r, re, im], ...]."""
    return [[l / denom, r / denom, re / VALUE_DENOM, im / VALUE_DENOM]
            for l, r, re, im in segs]


def steps_json(segs: list, denom: int) -> str:
    return json.dumps(steps_list(segs, denom))


def u_signature(f: list, g: list, denom: int) -> dict:
    """Map u = conj(f)*g -> number of grid cells of length 1/denom carrying it.

    Values are in units of 1/VALUE_DENOM^2; cells where u = 0 are left out.
    """
    def cells(segs):
        out = [(0, 0)] * (4 * denom)
        for l, r, re, im in segs:
            out[l:r] = [(re, im)] * (r - l)
        return out

    sig: dict = {}
    for (a, b), (c, d) in zip(cells(f), cells(g)):
        u = (a * c + b * d, a * d - b * c)
        if u != (0, 0):
            sig[u] = sig.get(u, 0) + 1
    return sig


# --- operations and oracles ------------------------------------------------


@dataclass
class Result:
    """Outcome of one main(argv) call."""

    code: Optional[int]          # None when an exception escaped main
    doc: object = None           # the parsed stdout, when it is one JSON document
    error: str = ""              # why the call itself failed, if it did


@dataclass
class Group:
    """Operations checked together: argvs, expected exit codes, and an oracle
    that returns an error message or None."""

    argvs: list
    expect: list
    oracle: Callable[[list], Optional[str]]
    label: str = ""


def _close(x, ref, tol: float = TOL) -> bool:
    """|x - ref| <= tol * max(1, |ref|), with x given as [re, im]."""
    ref = complex(ref)
    return abs(complex(*x) - ref) <= tol * max(1.0, abs(ref))


def _check_verify_all(results: list) -> Optional[str]:
    doc = results[0].doc
    ids = [c.get("id") for c in doc.get("criteria", [])]
    if ids != list(range(1, 11)):
        return f"criteria ids {ids}"
    failed = [c["id"] for c in doc["criteria"] if c.get("passed") is not True]
    if failed or doc.get("passed") is not True:
        return f"criteria failed: {failed}"
    return None


# Fields one backend fills by design: only the exact backend can certify a
# zero defect through value signatures, so ``exact_zero`` differs.
BACKEND_SPECIFIC = {"exact_zero"}


def _is_complex(x) -> bool:
    """The CLI writes a complex number as [re, im]."""
    return (isinstance(x, list) and len(x) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x))


def json_mismatch(a, b, path: str = "$") -> Optional[str]:
    """First path where two documents differ: numbers, and [re, im] pairs
    as complex numbers, beyond TOL relative to max(1, |value|); anything
    else by equality."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return None if a == b else path
    if _is_complex(a) and _is_complex(b):
        a, b = complex(*a), complex(*b)
    if isinstance(a, (int, float, complex)) and isinstance(b, (int, float, complex)):
        return None if abs(a - b) <= TOL * max(1.0, abs(a), abs(b)) else path
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path} keys"
        for k in a:
            if k not in BACKEND_SPECIFIC:
                bad = json_mismatch(a[k], b[k], f"{path}.{k}")
                if bad:
                    return bad
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} length"
        for i, (x, y) in enumerate(zip(a, b)):
            bad = json_mismatch(x, y, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if a == b else path


def _check_backends_agree(results: list) -> Optional[str]:
    bad = json_mismatch(results[0].doc, results[1].doc)
    return f"exact and float differ at {bad}" if bad else None


def _check_lemma4(results: list) -> Optional[str]:
    doc = results[0].doc
    if doc.get("pass") is not True or abs(doc["ratio_to_stated"] - 2.0) > 1e-5:
        return f"derivative identity off: {doc}"
    return None


class Workload:
    name = ""
    extra_imports: tuple = ()
    # A run of S seconds makes ceil(S / round_s) rounds, whatever the speed
    # of the program or the host, so every commit measures the same
    # operations.  round_s lies within the round times measured at the
    # commit that added this benchmark on a 2-vCPU Intel Xeon VM with
    # Python 3.11, which varied up to 1.7-fold with that shared host's load.
    round_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[Group]:
        raise NotImplementedError

    def warmup(self) -> list:
        """argv of the warm-up operation run during set-up."""
        raise NotImplementedError


class VerifyAll(Workload):
    """``verify-all`` ignores ``--seed`` until ROADMAP item 4 lands, so every
    round is the same operation; the seed is passed anyway."""

    name = "verify-all"
    round_s = 1.25

    def round(self, r):
        argv = ["--seed", str(self.seed), "verify-all"]
        return [Group([argv], [0], _check_verify_all, "verify-all")]

    def warmup(self):
        return ["--seed", str(self.seed), "verify-all"]


class LongSteps(Workload):
    """Float ``inner`` and ``nparticle --n 8`` on a fresh pair per operation,
    checked against a 40-digit mpmath reference."""

    name = "long-steps"
    extra_imports = ("mpmath",)
    round_s = 8.5
    # (operation, N) per round, slowest first: inner 128, inner 64,
    # nparticle 128 (x2), inner 32 (x2), nparticle 64, nparticle 32 (x2).
    # The repeats put the median inside inner N=32 for any number of rounds,
    # and the tail (the 11th slowest) inside one operation type: nparticle
    # N=128 for 3 or 4 rounds, inner N=64 for 6 to 9 (a 30 s run makes 4
    # at any program speed).
    ROUND = (("inner", 32), ("inner", 32), ("nparticle", 32), ("nparticle", 32),
             ("inner", 64), ("nparticle", 64),
             ("inner", 128), ("nparticle", 128), ("nparticle", 128))
    DENOM = 256
    N_PARTICLES = 8

    def _pair(self, rng, n):
        return (contiguous_steps(rng, n, self.DENOM),
                contiguous_steps(rng, n, self.DENOM))

    def round(self, r):
        rng = self.rng(r)
        make = {"inner": self._inner, "nparticle": self._nparticle}
        return [make[op](*self._pair(rng, n), f"{op} N={n}") for op, n in self.ROUND]

    def warmup(self):
        f, g = self._pair(self.rng(-1), 32)
        return self._nparticle(f, g, "warm-up").argvs[0]

    def _mp_signature(self, f, g):
        """u_signature with 40-digit mpmath values and lengths."""
        from mpmath import mp, mpc
        mp.dps = 40
        return {mpc(re, im) / VALUE_DENOM ** 2: mp.mpf(cnt) / self.DENOM
                for (re, im), cnt in u_signature(f, g, self.DENOM).items()}

    def _inner(self, f, g, label):
        from mpmath import mp
        sig = self._mp_signature(f, g)
        closed = mp.exp(-sum(length * mp.log(1 - 4 * u) for u, length in sig.items()) / 2)

        def oracle(results):
            doc = results[0].doc
            if not _close(doc["closed"], closed):
                return f"closed {doc['closed']} vs reference {closed}"
            if not _close(doc["series"], closed, doc["tail_bound"] + TOL):
                return f"series {doc['series']} vs reference {closed}"
            return None if doc["agree"] is True else "closed and series disagree"

        argv = ["inner", "--f", steps_json(f, self.DENOM), "--g", steps_json(g, self.DENOM)]
        return Group([argv], [0], oracle, label)

    def _nparticle(self, f, g, label):
        sig = self._mp_signature(f, g)
        n = self.N_PARTICLES
        m = [sum(length * u ** k for u, length in sig.items()) for k in range(1, n + 1)]
        b = [1]
        for nn in range(1, n + 1):   # the moment recursion at c = 1
            b.append(sum(2 ** (2 * k + 1) * m[k] * b[nn - k - 1] for k in range(nn)) / nn)
        a_n = math.factorial(n) ** 2 * b[n]

        def oracle(results):
            doc = results[0].doc
            for key in ("value", "rec_value"):
                if not _close(doc[key], a_n):
                    return f"{key} {doc[key]} vs reference {a_n}"
            return None if doc["match"] is True else "recursion and partition disagree"

        argv = ["nparticle", "--n", str(n), "--f", steps_json(f, self.DENOM),
                "--g", steps_json(g, self.DENOM)]
        return Group([argv], [0], oracle, label)


class Families(Workload):
    """Both backends on one family and five step-function pairs per round.

    The benchmark draws the family itself and passes it with ``--family``:
    16 distinct members of exactly 3 segments, and the checks for K use its
    first K members.  ``--random K`` would draw 1 to 3 segments per member
    inside the program, and that spread the run-to-run figures across seeds
    more than the bounds allow.

    ``--mode exact lemma4`` raises ``TypeError`` out of ``main`` at the
    commit that added this benchmark.  It stays in every round as its own
    group and counts as a failure, so ``failed_ratio`` shows the defect
    until it is fixed.
    """

    name = "families"
    round_s = 12.0
    N_PARTICLES = (12, 16, 20, 24)
    # Five pairs per round.  Of a round's 63 operations that pass (exact
    # lemma4 fails and is left out of the percentiles), 29 are faster than
    # float n=24 and 29 slower, so the median falls among the five float
    # n=24 operations, whose cost hardly depends on the input; and exact
    # n=24 makes up the tail (the 11th slowest) of a 2-round run, above it
    # only the four slowest family checks.
    PAIRS = 5
    SEGMENTS = 3      # every function has the most segments allowed
    FAMILY_SIZES = (4, 8, 16)
    DENOM = 4
    REFLECTION = json.dumps({"E": [[0, 1]], "h": [[0, 1, 0.9, 0]], "phi": [[0, 1, -1, 1]]})
    # f(2x) on [-8, 8): the window covers every function, which lives in [0, 4]
    DILATION = json.dumps({"E": [[-8, 8]], "h": [[-8, 8, 1, 0]], "phi": [[-8, 8, 2, 0]]})

    def _inputs(self, r):
        """The round's pairs, family and lemma4 coefficients, as JSON."""
        rng = self.rng(r)
        pairs = [tuple(steps_json(contiguous_steps(rng, self.SEGMENTS, self.DENOM), self.DENOM)
                       for _ in range(2)) for _ in range(self.PAIRS)]
        family: list = []
        while len(family) < max(self.FAMILY_SIZES):
            member = steps_list(sparse_steps(rng, self.SEGMENTS, self.DENOM), self.DENOM)
            if member not in family:
                family.append(member)
        coeffs = [[rng.randint(7, 16) / 16, rng.randint(-8, 8) / 16] for _ in family]
        return pairs, family, coeffs

    @staticmethod
    def _both(argv, expect, label):
        return Group([["--mode", "exact", *argv], ["--mode", "float", *argv]],
                     [expect, expect], _check_backends_agree, label)

    def round(self, r):
        pairs, family, coeffs = self._inputs(r)
        groups = [self._both(["nparticle", "--n", str(n), "--f", f, "--g", g], 0,
                             f"nparticle n={n}")
                  for f, g in pairs for n in self.N_PARTICLES]
        for k in self.FAMILY_SIZES:
            fam = ["--family", json.dumps(family[:k])]
            groups += [
                self._both(["selfadjoint", "--op", self.REFLECTION, *fam], 0,
                           f"selfadjoint reflection K={k}"),
                self._both(["selfadjoint", "--op", self.DILATION, *fam], 1,
                           f"selfadjoint dilation K={k}"),
                self._both(["contraction", "--op", self.DILATION, *fam], 0,
                           f"contraction dilation K={k}"),
            ]
            groups += [Group([["--mode", mode, "lemma4", *fam, "--coeffs", json.dumps(coeffs[:k])]],
                             [0], _check_lemma4, f"lemma4 {mode} K={k}")
                       for mode in ("exact", "float")]
        groups.append(self._both(["counterexample"], 0, "counterexample"))
        return groups

    def warmup(self):
        [(f, g), *_], _, _ = self._inputs(-1)
        return ["--mode", "exact", "nparticle", "--n", str(self.N_PARTICLES[0]),
                "--f", f, "--g", g]


WORKLOADS = {w.name: w for w in (VerifyAll, LongSteps, Families)}
