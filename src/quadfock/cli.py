"""Command-line front end.

Every check is exposed as a subcommand emitting a single JSON document on
stdout; diagnostics go to stderr.  Exit codes: 0 pass, 1 check failed,
2 domain error, 3 usage or parse error.  JSON arguments accept inline
text, a file path, or ``-`` for stdin.

Each subcommand imports the layers it runs when it runs: ``quantization``
where it reads an operator or builds a report, ``families`` where it draws
a family, ``acceptance`` in ``verify-all``.  So ``inner`` and ``nparticle``
load neither the operator layer nor the criteria.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from .errors import DomainError, QuadFockError
from .fock import (
    MAX_PARTICLES,
    FockConfig,
    _Signature,
    moments,
    n_particle_inner_partition,
    n_particle_inner_rec,
    partition_coefficient,
    partitions_multiplicity,
)
from .scalars import _json_value
from .stepfn import StepFunction, _json_array, _json_row

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 3


class CliInputError(Exception):
    pass


def _load_json(text: str):
    """Inline JSON, a file path, or '-' for stdin."""
    if text == "-":
        text = sys.stdin.read()
    elif not text.lstrip().startswith(("[", "{")):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {text!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"invalid JSON: {exc}") from exc


def _parse(text: str, what: str, build, errors=(TypeError, ValueError, OverflowError)):
    """``build`` applied to the JSON document of ``text``; a document it
    rejects, or a file that is not UTF-8, is a CliInputError naming ``what``."""
    try:
        return build(_load_json(text))
    except errors as exc:
        raise CliInputError(f"invalid {what}: {exc}") from exc


def _parse_step(text: str, exact: bool) -> StepFunction:
    return _parse(text, "step function", lambda data: StepFunction.from_json(data, exact=exact))


def _parse_operator(text: str, exact: bool):
    from .quantization import QuadOperator
    return _parse(text, "operator", lambda data: QuadOperator.from_json(data, exact=exact),
                  (KeyError, TypeError, ValueError, OverflowError))


def _cfg(args) -> FockConfig:
    try:
        c = args.c
        if args.exact:  # a c that rounds to 0 is kept exactly, so it stays positive
            c = Fraction(c).limit_denominator(10 ** 12) or Fraction(c)
        return FockConfig(c=c, depth=args.depth, tol=args.tol)
    except (ValueError, OverflowError) as exc:
        raise CliInputError(f"invalid configuration: {exc}") from exc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


# --- subcommands -----------------------------------------------------------
# Each reads the backend and the config that main built, args.exact and
# args.cfg, and returns (document, passed); main emits the document in JSON
# form and maps passed to the exit code.


def cmd_inner(args) -> tuple[dict, bool]:
    f = _parse_step(args.f, args.exact)
    g = _parse_step(args.g, args.exact)
    sig = _Signature.admissible(f, g)  # one sweep of the pair for both routes
    closed = sig.closed(args.cfg)
    series, tail, depth = sig.series(args.cfg)
    agree = abs(closed - series) <= max(tail, args.cfg.tol)
    return {"closed": closed, "series": series, "tail_bound": tail,
            "depth": depth, "agree": agree}, agree


def cmd_nparticle(args) -> tuple[dict, bool]:
    f = _parse_step(args.f, args.exact)
    g = _parse_step(args.g, args.exact)
    n = args.n
    if n > MAX_PARTICLES:
        raise CliInputError(f"--n must be at most {MAX_PARTICLES}, got {n}")
    if n == 0 and args.formula == "as_printed":
        raise CliInputError("--formula as_printed is undefined at --n 0")
    m = moments(f, g, max(n, 1))
    rec = n_particle_inner_rec(m, n, args.cfg)
    value = n_particle_inner_partition(m, n, args.cfg, args.formula)
    if args.exact:
        match = value == rec
    else:
        match = abs(complex(value) - complex(rec)) <= args.cfg.tol * max(1.0, abs(complex(rec)))
    if n == 0:  # a_0 is the int 1 in both routes; it is reported as a complex number
        value = rec = 1 + 0j
    doc = {"value": value, "rec_value": rec, "match": match}
    if args.formula == "as_printed":
        doc["partition_ratios"] = [
            {"partition": dict(sorted(multi.items())),
             "printed_over_corrected": partition_coefficient(multi, n, "as_printed")
             / partition_coefficient(multi, n, "corrected")}
            for multi in partitions_multiplicity(n)]
    return doc, match


def cmd_selfadjoint(args) -> tuple[dict, bool]:
    import random
    from .quantization import check_selfadjoint_numeric, check_selfadjoint_structure
    op = _parse_operator(args.op, args.exact)
    struct = check_selfadjoint_structure(op)
    doc = struct.to_dict()
    family = _resolve_family(args, random.Random(args.seed))
    if family:
        doc["numeric"] = check_selfadjoint_numeric(op, family, args.cfg).to_dict()
    return doc, struct.verdict


def cmd_counterexample(args) -> tuple[dict, bool]:
    from .quantization import counterexample_report
    default = "[[0, 1, 0.25, 0]]"  # (1/4) chi_[0,1), in the backend of the mode
    f = _parse_step(args.f or default, args.exact)
    g = _parse_step(args.g or default, args.exact)
    rep = counterexample_report(args.cfg, f, g)
    doc = rep.to_dict()
    closed_vs_series = max(abs(rep.lhs - rep.lhs_series), abs(rep.rhs - rep.rhs_series))
    # with a nonzero f some moment must part the two pairings
    doc["pass"] = (closed_vs_series <= max(rep.lhs_tail, rep.rhs_tail, args.cfg.tol)
                   and (rep.moment_witness["k"] > 0 or f.is_zero()))
    return doc, doc["pass"]


def cmd_contraction(args) -> tuple[dict, bool]:
    import random
    from .quantization import boundedness_report, check_l2_contraction
    op = _parse_operator(args.op, args.exact)
    family = _resolve_family(args, random.Random(args.seed))
    if not family:
        raise CliInputError("provide --family or --random K")
    bounded = boundedness_report(op, args.cfg)
    l2 = check_l2_contraction(op, family)
    return ({"boundedness": bounded.to_dict(), "l2": l2.to_dict()},
            bounded.verdict == "contraction" and bounded.closed_form_agrees and l2.contraction)


def cmd_lemma4(args) -> tuple[dict, bool]:
    import random
    from .quantization import lemma4_derivative_check
    rng = random.Random(args.seed)
    family = _resolve_family(args, rng)
    if args.random:
        coeffs = [complex(rng.uniform(0.4, 1.0), rng.uniform(-0.5, 0.5))
                  for _ in range(args.random)]
    elif family and args.coeffs:
        coeffs = _parse(args.coeffs, "--coeffs", lambda data: [
            complex(re, im) for re, im in map(_json_row, _json_array(data))])
        if not all(map(cmath.isfinite, coeffs)):
            raise CliInputError("invalid --coeffs: non-finite coefficient")
    else:
        raise CliInputError("provide --family and --coeffs, or --random K")
    if len(coeffs) != len(family):
        raise CliInputError(f"{len(coeffs)} coefficients for {len(family)} functions")
    rep = lemma4_derivative_check(family, coeffs, args.cfg)
    doc = rep.to_dict()
    doc["pass"] = rep.rel_error <= 1e-6
    return doc, doc["pass"]


def cmd_verify_all(args) -> tuple[dict, bool]:
    from .acceptance import run_all
    res = run_all(seed=args.seed)
    return res, res["passed"]


def _resolve_family(args, rng):
    if args.random:
        from .families import random_family
        return random_family(rng, args.random, exact=args.exact)
    if args.family:
        return _parse(args.family, "--family", lambda data: [
            StepFunction.from_json(item, exact=args.exact) for item in _json_array(data)])
    return []


def _finite_float(text: str) -> float:
    """argparse type of --c and --tol: a finite float."""
    x = float(text)
    if not cmath.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _nonnegative_int(text: str) -> int:
    """argparse type of --n and --random: a nonnegative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadfock",
        description="Verification CLI for quadratic Fock space identities.")
    parser.add_argument("--c", type=_finite_float, default=FockConfig.c,
                        help="representation constant (default %(default)s)")
    parser.add_argument("--depth", type=int, default=FockConfig.depth,
                        help="largest series truncation depth: the series stops at the "
                             "first depth whose tail bound is within --tol (default %(default)s)")
    parser.add_argument("--tol", type=_finite_float, default=FockConfig.tol,
                        help="numeric tolerance (default %(default)s)")
    parser.add_argument("--mode", choices=["exact", "float"], default="float",
                        help="scalar backend (default float)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inner", help="exponential-vector inner product, both ways")
    p.add_argument("--f", required=True, help="step function JSON [[l,r,re,im],...]")
    p.add_argument("--g", required=True)
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("nparticle", help="n-particle inner product")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--formula", choices=["corrected", "as_printed"],
                   default="corrected")
    p.set_defaults(func=cmd_nparticle)

    p = sub.add_parser("selfadjoint", help="self-adjointness checks for an operator")
    p.add_argument("--op", required=True,
                   help='operator JSON {"E": ..., "h": ..., "phi": ...}')
    p.add_argument("--family", help="JSON list of step functions")
    p.add_argument("--random", type=_nonnegative_int, metavar="K",
                   help="use K seeded random test functions")
    p.set_defaults(func=cmd_selfadjoint)

    p = sub.add_parser("counterexample", help="the dilation counter-example")
    p.add_argument("--f")
    p.add_argument("--g")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("contraction",
                       help="exact boundedness of Gamma_2(T), and the L2 ratio on a family")
    p.add_argument("--op", required=True)
    p.add_argument("--family")
    p.add_argument("--random", type=_nonnegative_int, metavar="K")
    p.set_defaults(func=cmd_contraction)

    p = sub.add_parser("lemma4", help="derivative identity of the Gram form")
    p.add_argument("--family")
    p.add_argument("--coeffs", help="JSON list of [re, im]")
    p.add_argument("--random", type=_nonnegative_int, metavar="K")
    p.set_defaults(func=cmd_lemma4)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(func=cmd_verify_all)

    return parser


# Built once, at import: parse_args keeps no state between calls, so every
# main call in a process shares this parser.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        with redirect_stdout(sys.stderr):  # help and usage too: stdout holds only JSON
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.exact = args.mode == "exact"  # the backend, decided once for every subcommand
    try:
        args.cfg = _cfg(args)  # checked for every subcommand, verify-all too
        doc, passed = args.func(args)
        _emit(_json_value(doc))
        return EXIT_PASS if passed else EXIT_CHECK_FAILED
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except QuadFockError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
