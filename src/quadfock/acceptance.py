"""The acceptance suite: ten desk-scale identity and property checks.

Each criterion function returns a dict with ``id``, ``name``, ``passed``
and ``details``; ``run_all`` aggregates them.  The CLI's ``verify-all``
subcommand and the test suite both call into this module so there is a
single source of truth for what "passing" means.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DomainError
from .families import random_family, random_injective_operator, reflection_operator
from .fock import (
    FockConfig,
    _Signature,
    _gram_minors,
    _partition_sums,
    exp_inner_closed,
    exp_inner_series,
    exp_vector_exists,
    gram_matrix,
    moments,
    n_particle_table,
    partition_coefficient,
    partitions_multiplicity,
)
from .quantization import (
    QuadOperator,
    adjoint_operator,
    apply_operator,
    boundedness_report,
    check_selfadjoint_structure,
    counterexample_report,
    dilation_operator,
    gamma2_matrix_element,
    lemma4_derivative_check,
    window_radius,
)
from .scalars import ExactComplex
from .stepfn import IntervalSet, PiecewiseAffineMap, StepFunction, inner


def criterion_1() -> dict:
    """Counter-example reproduction at c = 1 with the exact default pair:
    the closed forms as doubles, and the exact moment witness k = 2."""
    f = StepFunction.indicator(0, 1, ExactComplex.of(Fraction(1, 4)))
    rep = counterexample_report(FockConfig(c=Fraction(1)), f, f)
    checks = {
        "lhs_matches_closed_form": abs(rep.lhs - (3 / 4) ** -0.25) < 1e-10,
        "rhs_matches_closed_form": abs(rep.rhs - (7 / 8) ** -0.5) < 1e-10,
        "lhs_series_agrees": abs(rep.lhs - rep.lhs_series) < 1e-10,
        "rhs_series_agrees": abs(rep.rhs - rep.rhs_series) < 1e-10,
        "moment_witness_k_is_2": rep.moment_witness["k"] == 2,
    }
    return {
        "id": 1,
        "name": "counterexample reproduction",
        "passed": all(checks.values()),
        "details": {**checks, "lhs": rep.lhs.real, "rhs": rep.rhs.real,
                    "gap": rep.gap},
    }


def criterion_2(seed: int = 0) -> dict:
    """Recursion == corrected partition sum exactly; series == closed form."""
    pairs = 50
    cfg_exact = FockConfig(c=Fraction(1))
    cfg_float = FockConfig()
    rng = random.Random(seed)
    exact_ok = True
    float_ok = True
    worst = 0.0
    for _ in range(pairs):
        fe = random_family(rng, 1, exact=True)[0]
        ge = random_family(rng, 1, exact=True)[0]
        m = moments(fe, ge, 8)
        table = n_particle_table(m, 8, cfg_exact)
        # one pass over the partitions of n = 0..8, on one power table
        if list(table) != _partition_sums(m, range(9), cfg_exact, "corrected"):
            exact_ok = False
        # the exact draws' values are small dyadic rationals, so their doubles
        # are distinct and nonzero and the segments stay canonical
        f, g = (StepFunction(tuple((l, r, complex(v)) for l, r, v in h.segments))
                for h in (fe, ge))
        sig = _Signature.admissible(f, g)  # one sweep of the pair for both routes
        closed = sig.closed(cfg_float)
        series, tail, _ = sig.series(cfg_float)
        err = abs(closed - series)
        worst = max(worst, err)
        if err > max(tail, 1e-10):
            float_ok = False
    return {
        "id": 2,
        "name": "formula concordance",
        "passed": exact_ok and float_ok,
        "details": {"recursion_equals_partition": exact_ok,
                    "series_matches_closed": float_ok,
                    "worst_series_error": worst, "pairs": pairs},
    }


def criterion_3() -> dict:
    """Per-partition as_printed/corrected ratio equals 2^(sum i_j - 1)."""
    offending = []
    ok = True
    for n in range(2, 7):
        for multi in partitions_multiplicity(n):
            corrected = partition_coefficient(multi, n, "corrected")
            printed = partition_coefficient(multi, n, "as_printed")
            q = sum(multi.values())
            expected = Fraction(2) ** (q - 1)
            if printed / corrected != expected:
                ok = False
            if expected != 1:
                offending.append({"n": n,
                                  "partition": {str(j): i for j, i in sorted(multi.items())},
                                  "ratio": float(expected)})
    return {
        "id": 3,
        "name": "printed-formula audit",
        "passed": ok and len(offending) > 0,
        "details": {"ratio_law_holds": ok, "offending_partitions": offending},
    }


def criterion_4() -> dict:
    """The reflection x -> 1 - x weighted 9/10, in both backends: Gamma_2(T)
    is exactly Hermitian and every structural condition holds."""
    checks = {}
    for name, T in (("exact", reflection_operator(Fraction(9, 10), exact=True)),
                    ("float", reflection_operator(0.9))):
        rep = check_selfadjoint_structure(T)
        checks[f"hermitian_{name}"] = rep.hermitian and rep.witness == {"k": 0, "cell": None}
        checks[f"structure_{name}"] = (rep.involutive and rep.maps_into and rep.measure_preserving
                                       and rep.weight_bounded and rep.weight_symmetric)
        checks[f"verdict_{name}"] = rep.verdict
    return {"id": 4, "name": "self-adjointness, if direction",
            "passed": all(checks.values()), "details": checks}


def criterion_5() -> dict:
    """Two exact negative witnesses: the dilation, where T differs from T*,
    and the swap of [0, 1) and [1, 3) by x -> 2x + 1, weighted a and conj(a)/2
    with a = (1 + i)/2, where T = T* on L^2 but h^2 (. o phi) differs from
    its adjoint, so Gamma_2(T) is not Hermitian."""
    dilation = check_selfadjoint_structure(dilation_operator(2, ExactComplex.of(1)))
    swap = check_selfadjoint_structure(QuadOperator.from_json(
        {"E": [[0, 3]], "h": [[0, 1, 0.5, 0.5], [1, 3, 0.25, -0.25]],
         "phi": [[0, 1, 2, 1], [1, 3, 0.5, -0.5]]}, exact=True))
    checks = {
        "involutive_fails": not dilation.involutive,
        "measure_preserving_fails": not dilation.measure_preserving,
        "dilation_witness_k_is_1": dilation.witness["k"] == 1,
        "swap_witness_k_is_2": swap.witness["k"] == 2,
    }
    return {
        "id": 5,
        "name": "self-adjointness, negative witness",
        "passed": all(checks.values()),
        "details": {**checks, "dilation_witness": dilation.witness,
                    "swap_witness": swap.witness},
    }


def criterion_6(seed: int = 6) -> dict:
    """The derivative of the Gram form at t = 0, its exact n = 1 coefficient,
    matches 2c||sum alpha f||^2, the norm read off the step function."""
    cfg = FockConfig()
    rng = random.Random(seed)
    worst_rel = 0.0
    worst_ratio_dev = 0.0
    ok = True
    for _ in range(20):
        k = rng.randint(1, 4)
        fam = random_family(rng, k)
        coeffs = [complex(rng.uniform(0.4, 1.0) * (1 if rng.random() < 0.5 else -1),
                          rng.uniform(-0.5, 0.5)) for _ in range(k)]
        rep = lemma4_derivative_check(fam, coeffs, cfg)
        if rep.expected_as_stated == 0:
            continue  # a zero combination: the ratio to the stated constant is undefined
        worst_rel = max(worst_rel, rep.rel_error)
        worst_ratio_dev = max(worst_ratio_dev, abs(rep.ratio_to_stated - 2.0))
        if rep.rel_error > 1e-6:
            ok = False
    stated_constant_fails = worst_ratio_dev < 1e-3  # ratio to c is ~2, not ~1
    return {
        "id": 6,
        "name": "derivative identity with corrected constant",
        "passed": ok and stated_constant_fails,
        "details": {"worst_rel_error": worst_rel,
                    "stated_constant_off_by_factor_2": stated_constant_fails,
                    "worst_ratio_deviation_from_2": worst_ratio_dev},
    }


def criterion_7() -> dict:
    """The dilation f(2x) is a contraction of Fock space, exactly, at c = 1:
    on one window cell and on its 2 and 4 equal sub-cells, r_1 = 1/2 and
    every r_k is the closed form; the L^2 isometry 2 f(4x) is unbounded."""
    cfg = FockConfig(c=Fraction(1))
    one = ExactComplex.of(1)
    T = dilation_operator(2, one)
    rep = boundedness_report(T, cfg, splits=(1, 2, 4))
    E = IntervalSet.from_intervals([(0, Fraction(1, 4))])
    isometry = QuadOperator(E, E.indicator(one * 2),
                            PiecewiseAffineMap.from_pieces([(0, Fraction(1, 4), 4, 0)]))
    control = boundedness_report(isometry, cfg)
    checks = {
        "contraction": rep.verdict == "contraction",
        "r1_is_one_half": all(cell["r1"] == Fraction(1, 2) for cell in rep.cells),
        "r_k_equals_closed_form": rep.closed_form_agrees,
        "isometry_2f4x_unbounded": control.verdict == "unbounded",
    }
    return {
        "id": 7,
        "name": "contraction, exact per-cell norm",
        "passed": all(checks.values()),
        "details": {**checks, "cells": len(rep.cells),
                    "sup_r": max(cell["sup_r"] for cell in rep.cells),
                    "isometry_lower_bound": control.lower_bound,
                    "isometry_witness_k": control.witness["k"]},
    }


def criterion_8() -> dict:
    """Existence radius: sup norm >= 1/2 rejected everywhere, 1/2 - 1e-9 accepted."""
    cfg = FockConfig()
    ok_f = StepFunction.indicator(0, 1, complex(0.5 - 1e-9))
    results = {}

    def rejected(fn, *args) -> bool:
        try:
            fn(*args)
            return False
        except DomainError:
            return True

    for label, bad_value in [("at_half", 0.5), ("above_half", 0.6)]:
        bad = StepFunction.indicator(0, 1, complex(bad_value))
        T = dilation_operator(window_radius(bad), 1.0 + 0j)
        results[label] = {
            "exp_vector_exists_false": not exp_vector_exists(bad),
            "closed_rejects": rejected(exp_inner_closed, bad, ok_f, cfg),
            "series_rejects": rejected(exp_inner_series, bad, ok_f, cfg),
            "gram_rejects": rejected(gram_matrix, [bad], cfg),
            "gamma2_rejects": rejected(gamma2_matrix_element, T, bad, ok_f, cfg),
        }
    accepted = (exp_vector_exists(ok_f)
                and isinstance(exp_inner_closed(ok_f, ok_f, cfg), complex))
    passed = accepted and all(all(v.values()) for v in results.values())
    return {
        "id": 8,
        "name": "existence radius",
        "passed": passed,
        "details": {**results, "near_boundary_accepted": accepted},
    }


def criterion_9(seed: int = 9) -> dict:
    """Gram matrices of 4 distinct admissible functions are positive definite:
    an exact family's truncation G_N, G_N <= G, has positive leading minors
    at the first N up to GRAM_DEPTH, with no float and no threshold."""
    draws = 20
    cfg = FockConfig()
    rng = random.Random(seed)
    depths, failures = [], []
    for draw in range(draws):
        for N, _, minors in _gram_minors(random_family(rng, 4, max_abs=0.45, exact=True), cfg):
            if minors[-1] > 0:
                break
        else:
            failures.append({"draw": draw, "leading_minor": len(minors)})
        depths.append(N)
    return {
        "id": 9,
        "name": "linear independence at finite scale",
        "passed": not failures,
        "details": {"depths": depths, "failures": failures, "draws": draws},
    }


def criterion_10(seed: int = 10) -> dict:
    """Adjoint pairing <T f, g> = <f, T* g> exactly in rational mode."""
    triples = 100
    rng = random.Random(seed)
    ok = True
    for _ in range(triples):
        T = random_injective_operator(rng, exact=True)
        T_star = adjoint_operator(T)
        f = random_family(rng, 1, exact=True, span=6)[0]
        g = random_family(rng, 1, exact=True, span=6)[0]
        lhs = inner(apply_operator(T, f), g)
        rhs = inner(f, apply_operator(T_star, g))
        if lhs != rhs:
            ok = False
    return {
        "id": 10,
        "name": "adjoint pairing",
        "passed": ok,
        "details": {"triples": triples, "all_exact": ok},
    }


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(seed: int = 0) -> dict:
    """Run every criterion; the ones that draw (2, 6, 9 and 10) use their own
    fixed seeds, and ``seed`` is not used yet, so every seed gives the same
    document."""
    results = []
    for fn in CRITERIA:
        try:
            results.append(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append({"id": len(results) + 1, "name": fn.__name__,
                            "passed": False, "details": {"error": repr(exc)}})
    return {"passed": all(r["passed"] for r in results), "criteria": results}
