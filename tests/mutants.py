"""Mutants of ``src/quadfock`` that the differential tests must kill.

Each entry of ``MUTANTS`` is (id, file, old text, new text, node ids): the
file is relative to the repository root, ``old`` occurs in it exactly once,
and the mutant is killed when every named node id has a failing test.

    PYTHONPATH=src python tests/mutants.py [id ...]

copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` once, into
a snapshot in a temporary directory, and runs every named node id there,
unmutated, where all must pass.  Then, one mutant at a time, it copies the
snapshot, replaces ``old`` by ``new`` in the copy, runs ``python -m pytest
-q -p no:cacheprovider --hypothesis-seed=0 <node ids>`` and prints
``killed`` or ``SURVIVED``.  It exits 1 if any mutant survives.  Every run
judges the snapshot, so a file edited in the checkout while a run is under
way changes nothing.  ``perfbench/`` is copied because some tests read it,
such as ``tests/test_tracing_targets.py``; no mutant changes it.

    PYTHONPATH=src python tests/mutants.py --matrix [id ...]

runs the whole suite instead: once unmutated under ``tests/uncovered.py
--lines``, which records the lines of ``src/quadfock`` that each test
function executes, then once per mutant.  It prints every test function
that fails under each mutant, and then each merge candidate: a test
function T for which another function S of the same file executes every
line that T executes and fails under every mutant that T fails under.
``*`` marks a T that README.md, ROADMAP.md, CHANGES.md or this list names.
A test function is one key for all the cases of a parametrized test.

pytest does not collect this file; it runs by hand, one subprocess at a
time, with the fixed hypothesis seed ``SEED``, so a second run of either
mode prints the same lines.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
# fails under every mutant, since the mutated text no longer holds ``old``
LIST_CHECK = "test_layout.py::test_mutant_list_applies_and_names_existing_tests"

MUTANTS = [
    # --- the counter-example's moment witness ------------------------------------------
    ("witness-bound-2", "src/quadfock/quantization.py",
     "for K in (2, len(lhs_sig.sig) + 1):", "for K in (2, 2):",
     ["tests/test_quantization.py::TestCounterexample::test_moment_witness_is_the_first_unequal_a_n",
      "tests/test_cli.py::TestCounterexample::test_a_moment_witness_passes_at_any_gap"]),
    ("witness-bound-3", "src/quadfock/quantization.py",
     "for K in (2, len(lhs_sig.sig) + 1):", "for K in (2, 3):",
     ["tests/test_quantization.py::TestCounterexample::test_moment_witness_is_the_first_unequal_a_n"]),
    ("witness-m-unconjugated", "src/quadfock/quantization.py",
     "if lm[k] != rm[k].conjugate()), 0)", "if lm[k] != rm[k]), 0)",
     ["tests/test_quantization.py::TestCounterexample::test_moment_witness_is_the_first_unequal_a_n"]),
    ("witness-a-unconjugated", "src/quadfock/quantization.py",
     "n_particle_table(rm, k, cfg)[k].conjugate()", "n_particle_table(rm, k, cfg)[k]",
     ["tests/test_quantization.py::TestCounterexample::test_moment_witness_is_the_first_unequal_a_n"]),
    # --- the Hermitian test --------------------------------------------------------------
    ("hermitian-only-T1", "src/quadfock/quantization.py",
     "for k in (1, 2):", "for k in (1,):",
     ["tests/test_quantization.py::TestHermitian::test_self_adjoint_swap_whose_quantization_is_not_hermitian"]),
    ("hermitian-no-map-comparison", "src/quadfock/quantization.py",
     "_canonical_segments(w_star)) or maps", "_canonical_segments(w_star))",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells"]),
    ("hermitian-no-overlap-test", "src/quadfock/quantization.py",
     "overlap = _images_overlap(T.phi)", "overlap = None",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells",
      "tests/test_quantization.py::TestHermitian::test_a_fold_is_a_witness_not_an_error"]),
    ("hermitian-T2-weighted-h", "src/quadfock/quantization.py",
     "w = [(x0, x1, v ** k) for x0, x1, _, v in atoms]\n"
     "        w_star = [(*sorted((p(x0), p(x1))), _adjoint_weight(v ** k, p))",
     "w = [(x0, x1, v) for x0, x1, _, v in atoms]\n"
     "        w_star = [(*sorted((p(x0), p(x1))), _adjoint_weight(v, p))",
     ["tests/test_quantization.py::TestHermitian::test_self_adjoint_swap_whose_quantization_is_not_hermitian"]),
    # "T_k built on E" and "no restriction to supp h" describe one change of
    # today's code: the Hermitian test reads T's atoms on E instead of supp h
    ("hermitian-on-E", "src/quadfock/quantization.py",
     "T = _exact(QuadOperator(T.h.support(), T.h, T.phi))", "T = _exact(T)",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells",
      "tests/test_quantization.py::TestHermitian::test_a_fold_off_supp_h_does_not_count"]),
    ("hermitian-weights-not-canonical", "src/quadfock/quantization.py",
     "_first_difference(_canonical_segments(w), _canonical_segments(w_star))",
     "_first_difference(w, sorted(w_star, key=lambda s: s[0]))",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells"]),
    ("exact-reads-float-h", "src/quadfock/quantization.py",
     "h = StepFunction(tuple((l, r, ExactComplex.of(v)) for l, r, v in T.h.segments))", "h = T.h",
     ["tests/test_atoms.py::test_boundedness_cells_are_the_parent_scans",
      "tests/test_boundedness.py::test_float_weights_give_the_same_report"]),
    # --- the three conditions on phi, read off the witness's two tests of phi ----------
    # (dropping the "overlap or" guard before the phi/phi^-1 comparison changes
    # no value: it keeps _sweep's input disjoint, so it is not listed)
    ("preserving-ignores-overlap", "src/quadfock/quantization.py",
     "not overlap and unit and maps_into", "unit and maps_into",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells",
      "tests/test_quantization.py::TestHermitian::test_a_fold_is_a_witness_not_an_error",
      "tests/test_golden.py::test_output_matches_recorded_output"]),
    ("involutive-as-maps-into", "src/quadfock/quantization.py",
     "SelfAdjointReport(witness, not maps, maps_into,",
     "SelfAdjointReport(witness, maps_into, maps_into,",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells",
      "tests/test_operator_reference.py::test_random_operators_match_reference",
      "tests/test_quantization.py::TestHermitian::test_agrees_with_a_n_symmetry_on_the_slope_one_class"]),
    ("unit-slope-through-float", "src/quadfock/quantization.py",
     "unit = all(abs(p.slope) == 1 for p in T.phi.pieces)",
     "unit = all(float(abs(p.slope)) == 1 for p in T.phi.pieces)",
     ["tests/test_operator_reference.py::test_slope_below_one_by_1e_minus_20_is_not_measure_preserving"]),
    # --- the adjoint and the boundedness cells -------------------------------------------
    ("adjoint-weight-times-slope", "src/quadfock/quantization.py",
     "s = _quotient(p.slope.denominator, abs(p.slope.numerator))", "s = abs(p.slope)",
     ["tests/test_int_kernels.py::test_adjoint_operator_matches_reference",
      "tests/test_atoms.py::test_a_gap_of_h_inside_a_piece_is_a_zero_atom"]),
    ("cells-drop-zero-atoms", "src/quadfock/quantization.py",
     "_frac(ExactComplex.of(v).abs_sq()))\n"
     "             for x0, x1, p, v in _atoms(T)]",
     "_frac(ExactComplex.of(v).abs_sq()))\n"
     "             for x0, x1, p, v in _atoms(T) if v]",
     ["tests/test_atoms.py::test_atoms_give_the_reference_witness_and_cells",
      "tests/test_atoms.py::test_boundedness_cells_are_the_parent_scans"]),
    # --- the numeric cross-check ---------------------------------------------------------
    ("numeric-fold-not-caught", "src/quadfock/quantization.py",
     "    try:\n"
     "        T_star = adjoint_operator(T)\n"
     "    except NonInjectiveError:  # a fold: T* sums over its branches\n"
     "        T_star = None\n",
     "    T_star = adjoint_operator(T)\n",
     ["tests/test_cli.py::TestSelfAdjoint::test_a_fold_with_a_family_prints_its_witness"]),
    ("numeric-defect-without-adjoint", "src/quadfock/quantization.py",
     "max(self.hermitian_defect, self.adjoint_defect or 0.0)", "self.hermitian_defect",
     ["tests/test_quantization.py::TestSelfAdjointNumeric::test_dilation_default_pair_gap"]),
    # --- the int kernels -----------------------------------------------------------------
    ("pull-back-clip-le", "src/quadfock/scalars.py",
     "if n0 * left._denominator < left._numerator * d0:  # x0 < left",
     "if n0 * left._denominator <= left._numerator * d0:  # x0 < left",
     ["tests/test_int_kernels.py::test_pull_back_matches_reference"]),
    ("pull-back-decreasing-sign", "src/quadfock/scalars.py",
     "n0, d0 = (bn * rd - rn * bd) * ad, -rd * bd * an",
     "n0, d0 = (bn * rd - rn * bd) * ad, rd * bd * an",
     ["tests/test_int_kernels.py::test_pull_back_matches_reference",
      "tests/test_operator_reference.py::test_random_operators_match_reference"]),
    ("conj-times-exact-sign", "src/quadfock/scalars.py",
     "return _new(xa * a + xb * b, xa * b - xb * a, x._d * y._d)",
     "return _new(xa * a + xb * b, xa * b + xb * a, x._d * y._d)",
     ["tests/test_int_kernels.py::test_signature_product_matches_reference",
      "tests/test_sweep_reference.py::test_pair_readers_match_the_reference"]),
    ("conj-times-rat-sign", "src/quadfock/scalars.py",
     "return _new(xa * n, -xb * n, x._d * y._denominator)",
     "return _new(xa * n, xb * n, x._d * y._denominator)",
     ["tests/test_int_kernels.py::test_adjoint_weight_matches_reference",
      "tests/test_int_kernels.py::test_adjoint_operator_matches_reference"]),
    # the inverse's intercept sign and the unsorted images were each described
    # twice, before and after the kernels moved into ``scalars``: one mutant each
    ("inverse-intercept-sign", "src/quadfock/scalars.py",
     "_quotient(-b._numerator * ad, b._denominator * an)",
     "_quotient(b._numerator * ad, b._denominator * an)",
     ["tests/test_int_kernels.py::test_affine_inverse_matches_reference",
      "tests/test_int_kernels.py::test_adjoint_operator_matches_reference",
      "tests/test_operator_reference.py::test_float_adjoint_weight_keeps_every_bit"]),
    ("affine-lost-factor", "src/quadfock/scalars.py",
     "a._numerator * x._numerator * bd + b._numerator * ad * xd",
     "a._numerator * x._numerator + b._numerator * ad * xd",
     ["tests/test_int_kernels.py::test_affine_call_matches_reference",
      "tests/test_int_kernels.py::test_adjoint_operator_matches_reference",
      "tests/test_operator_reference.py::test_float_weights_of_several_segments_per_piece_keep_every_bit"]),
    ("images-unsorted", "src/quadfock/stepfn.py",
     "return sorted(((*p.image(), p) for p in self.pieces), key=itemgetter(0))",
     "return [(*p.image(), p) for p in self.pieces]",
     ["tests/test_quantization.py::TestHermitian::test_agrees_with_a_n_symmetry_on_the_slope_one_class"]),
    ("covers-past-the-last-interval", "src/quadfock/stepfn.py",
     "        if i == n:\n"
     "            return False",
     "        if i == n:\n"
     "            return True",
     ["tests/test_draw_reference.py::test_contains_set_matches_intersection",
      "tests/test_draw_reference.py::test_operator_check_listed_cases"]),
    ("quarter-grid-longer", "src/quadfock/families.py",
     "range(4 * span + 1)", "range(4 * span + 2)",
     ["tests/test_draw_reference.py::test_draws_match_reference"]),
    # --- the sweep, what is read off its cells, and the moments -------------------------
    ("sweep-cell-start-object", "src/quadfock/stepfn.py",
     "                    eb = br\n"
     "                    if not in_a:\n"
     "                        x = bl",
     "                    eb = br",
     ["tests/test_sweep_reference.py::test_sweep_listed_cases",
      "tests/test_sweep_reference.py::test_sweep_gives_the_reference_cells"]),
    ("restrict-ignores-e", "src/quadfock/stepfn.py",
     "if v and inside))", "if v))",
     ["tests/test_sweep_reference.py::test_pair_readers_match_the_reference",
      "tests/test_stepfn.py::TestIntervalSet::test_restrict",
      "tests/test_kernel.py::test_intersect_and_restrict_match_double_loop"]),
    ("map-restrict-ignores-e", "src/quadfock/stepfn.py",
     "if p and inside)", "if p)",
     ["tests/test_sweep_reference.py::test_map_restrict_matches_the_reference",
      "tests/test_int_kernels.py::test_operator_restricts_a_memoized_map_to_E",
      "tests/test_kernel.py::test_intersect_and_restrict_match_double_loop"]),
    # a touching segment of b whose left end equals, but is not, x
    ("sweep-equality-as-is", "src/quadfock/stepfn.py",
     "                if bl is x or (bl._numerator == x._numerator\n"
     "                               and bl._denominator == x._denominator):",
     "                if bl is x:",
     ["tests/test_sweep_reference.py::test_sweep_listed_cases",
      "tests/test_sweep_reference.py::test_sweep_gives_the_reference_cells"]),
    ("signature-length-wrong-denominator", "src/quadfock/stepfn.py",
     "- l._numerator * (lam // l._denominator)", "- l._numerator * (lam // r._denominator)",
     ["tests/test_sweep_reference.py::test_grid_signature_matches_the_reference",
      "tests/test_sweep_reference.py::test_grid_signature_of_the_float_pairs",
      "tests/test_float_kernel.py::test_pair_path_matches_reference"]),
    ("signature-lengths-not-summed", "src/quadfock/stepfn.py",
     "sig[u] = get(u, 0) + (r._numerator", "sig[u] = (r._numerator",
     ["tests/test_sweep_reference.py::test_pair_readers_match_the_reference",
      "tests/test_float_kernel.py::test_pair_path_matches_reference"]),
    ("scaled-lengths-not-reduced", "src/quadfock/fock.py",
     "g = math.gcd(lam, *ls)", "g = 1",
     ["tests/test_sweep_reference.py::test_grid_signature_matches_the_reference",
      "tests/test_exact_kernel.py::test_exact_series_scales_the_lengths_once"]),
    ("float-moments-reversed-sum", "src/quadfock/fock.py",
     "yield sum(terms, 0)", "yield sum(reversed(terms), 0)",
     ["tests/test_float_kernel.py::test_pair_path_matches_reference"]),
    ("exact-moments-conjugated", "src/quadfock/fock.py",
     "entries.append(_new(re, im, den))", "entries.append(_new(re, -im, den))",
     ["tests/test_exact_kernel.py::test_exact_routes_match_reference",
      "tests/test_kernel.py::test_exact_moments_match_cell_sum"]),
    ("partition-float-coefficient-on-exact", "src/quadfock/fock.py",
     "term = (float(coef) if type(cq) is float else coef) * cq", "term = float(coef) * cq",
     ["tests/test_exact_kernel.py::test_exact_routes_match_reference"]),
    # --- the exact boundedness cells and the pairing of real values --------------------
    ("table-agrees-drops-ratio", "src/quadfock/quantization.py",
     "return all(x == y * r for x, y, r in zip(num, den, want))",
     "return all(x == y for x, y, r in zip(num, den, want))",
     ["tests/test_boundedness.py::test_roadmap_probes",
      "tests/test_boundedness.py::test_seeded_draws_match_their_ratios"]),
    ("inner-drops-length", "src/quadfock/stepfn.py",
     "total = total + u * _rat(length, lam)", "total = total + u",
     ["tests/test_stepfn.py::TestInner::test_real_values"]),
    ("allclose-tol-as-zero", "src/quadfock/stepfn.py",
     "abs(complex(va) - complex(vb)) > tol", "abs(complex(va) - complex(vb)) > 0",
     ["tests/test_stepfn.py::test_step_allclose"]),
    ("allclose-exact-through-complex", "src/quadfock/stepfn.py",
     "(va != vb) if tol == 0 else", "(complex(va) != complex(vb)) if tol == 0 else",
     ["tests/test_stepfn.py::test_step_allclose"]),
    # --- the exact Gram certificate of criterion 9 -----------------------------------
    ("gram-zero-minor-accepted", "src/quadfock/fock.py",
     "if p <= 0:", "if p < 0:",
     ["tests/test_fock.py::TestGramCertificate::test_rotated_quarters_first_certify_at_depth_3",
      "tests/test_fock.py::TestGramCertificate::test_a_repeated_member_never_certifies"]),
    # b_n = a_n / (n!)^2 read as a_n / n!: the terms lose one n! of their weight
    ("gram-weight-dropped", "src/quadfock/fock.py",
     "q *= n * D * E", "q *= D * E",
     ["tests/test_fock.py::TestGramCertificate::test_rotated_quarters_first_certify_at_depth_3"]),
    ("gram-lower-triangle-unconjugated", "src/quadfock/fock.py",
     "(re * s, im * s), (re * s, -im * s)", "(re * s, im * s), (re * s, im * s)",
     ["tests/test_fock.py::TestGramCertificate::test_rotated_quarters_first_certify_at_depth_3"]),
    # --- the criteria's failure branches, each made a no-op ----------------------------
    ("criterion-2-exact-failure-ignored", "src/quadfock/acceptance.py",
     "            exact_ok = False\n", "            pass\n",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c2-exact]"]),
    ("criterion-2-float-failure-ignored", "src/quadfock/acceptance.py",
     "            float_ok = False\n", "            pass\n",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c2-float]"]),
    ("criterion-3-failure-ignored", "src/quadfock/acceptance.py",
     "if printed / corrected != expected:\n                ok = False",
     "if printed / corrected != expected:\n                pass",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c3]"]),
    ("criterion-6-zero-combination-read", "src/quadfock/acceptance.py",
     "continue  # a zero combination", "pass  # a zero combination",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c6-zero]"]),
    ("criterion-6-failure-ignored", "src/quadfock/acceptance.py",
     "if rep.rel_error > 1e-6:\n            ok = False",
     "if rep.rel_error > 1e-6:\n            pass",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c6-rel-error]"]),
    ("criterion-8-acceptance-as-rejection", "src/quadfock/acceptance.py",
     "            fn(*args)\n            return False",
     "            fn(*args)\n            return True",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c8]"]),
    ("criterion-9-failure-ignored", "src/quadfock/acceptance.py",
     "            failures.append(", "            (",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c9]"]),
    ("criterion-10-failure-ignored", "src/quadfock/acceptance.py",
     "if lhs != rhs:\n            ok = False", "if lhs != rhs:\n            pass",
     ["tests/test_acceptance.py::test_a_criterion_fails_where_its_check_fails[c10]"]),
    # --- guards and paths that only their own tests run -------------------------------
    ("sub-adds", "src/quadfock/stepfn.py",
     "return self + other.scale(-1)", "return self + other",
     ["tests/test_stepfn.py::TestAlgebra::test_sub"]),
    ("sup-norm-overflow-as-zero", "src/quadfock/stepfn.py",
     "            return math.inf", "            return 0.0",
     ["tests/test_stepfn.py::TestAlgebra::test_sup_norm_of_an_exact_value_beyond_the_doubles"]),
    ("rat-skips-gcd", "src/quadfock/scalars.py",
     "    g = gcd(n, d)\n", "    g = 1\n",
     ["tests/test_rational.py::test_rat_and_quotient_give_fractions_normal_form"]),
    ("exact-eq-float-through-complex", "src/quadfock/scalars.py",
     "return isfinite(re) and isfinite(im) and self == ExactComplex(re, im)",
     "return complex(self) == complex(other)",
     ["tests/test_scalars.py::test_unary_and_comparisons_match_fraction_pairs"]),
    ("exact-real-hash-as-tuple", "src/quadfock/scalars.py",
     "            return hash(_rat(a, d))", "            return hash((a, b, d))",
     ["tests/test_scalars.py::test_unary_and_comparisons_match_fraction_pairs",
      "tests/test_scalars.py::test_equality_with_a_float_or_complex_is_exact"]),
    ("frac-float-subclass-truncated", "src/quadfock/scalars.py",
     "return _frac(float(x))", "return _rat(int(x), 1)",
     ["tests/test_rational.py::test_frac_converts_exactly"]),
    ("piece-zero-slope-accepted", "src/quadfock/stepfn.py",
     "            if not a:\n", "            if False:\n",
     ["tests/test_cli.py::test_usage_errors_exit_3"]),
    ("piece-empty-domain-accepted", "src/quadfock/stepfn.py",
     "            if l >= r:\n", "            if l > r:\n",
     ["tests/test_cli.py::test_usage_errors_exit_3"]),
    ("cli-unreadable-path-escapes", "src/quadfock/cli.py",
     "        except OSError as exc:\n            raise CliInputError(f\"cannot read",
     "        except ValueError as exc:\n            raise CliInputError(f\"cannot read",
     ["tests/test_cli.py::test_usage_errors_exit_3"]),
    ("moment-index-zero", "src/quadfock/fock.py",
     "if not 1 <= k <= len(self.entries):", "if not 0 <= k <= len(self.entries):",
     ["tests/test_fock.py::TestMoments::test_index_and_depth_out_of_range"]),
    ("moments-depth-zero", "src/quadfock/fock.py",
     "    if K < 1:\n", "    if K < 0:\n",
     ["tests/test_fock.py::TestMoments::test_index_and_depth_out_of_range"]),
    ("partition-sum-negative-n", "src/quadfock/fock.py",
     "    if n < 0:\n        raise ValueError(\"n must be nonnegative\")\n    if n == 0:",
     "    if n < -1:\n        raise ValueError(\"n must be nonnegative\")\n    if n == 0:",
     ["tests/test_fock.py::TestNParticle::test_partition_sum_rejects_n_out_of_range"]),
    ("partition-sum-short-moments", "src/quadfock/fock.py",
     "    if len(m) < n:\n", "    if len(m) < n - 3:\n",
     ["tests/test_fock.py::TestNParticle::test_partition_sum_rejects_n_out_of_range"]),
    ("partition-table-past-the-cap", "src/quadfock/fock.py",
     "    if n > MAX_PARTICLES:\n        raise ValueError(f\"n must be at most {MAX_PARTICLES}\")\n"
     "    num = ",
     "    if n > MAX_PARTICLES + 1:\n        raise ValueError(f\"n must be at most {MAX_PARTICLES}\")\n"
     "    num = ",
     ["tests/test_fock.py::TestNParticle::test_partition_sum_rejects_n_out_of_range"]),
    ("b-sequence-raises-value-error", "src/quadfock/fock.py",
     'raise DomainError("a recursion term exceeds', 'raise ValueError("a recursion term exceeds',
     ["tests/test_fock.py::test_exact_c_beyond_the_doubles"]),
    ("scaled-region-boundary-admitted", "src/quadfock/fock.py",
     "g.sup_norm() >= 0.25:", "g.sup_norm() > 0.25:",
     ["tests/test_fock.py::TestExpVectors::test_scaled_closed_form_outside_the_region"]),
    ("powers-from-one", "src/quadfock/quantization.py",
     "    if M < 2:\n", "    if M < 1:\n",
     ["tests/test_quantization.py::TestHomomorphismPowers::test_needs_two_powers"]),
    ("lemma4-longer-coeffs-accepted", "src/quadfock/quantization.py",
     "if len(family) != len(coeffs):", "if len(family) > len(coeffs):",
     ["tests/test_quantization.py::TestDerivativeCheck::test_family_and_coeffs_of_unequal_length"]),
    ("lemma4-overflow-escapes", "src/quadfock/quantization.py",
     "except OverflowError:  # a float c or a float norm",
     "except ZeroDivisionError:  # a float c or a float norm",
     ["tests/test_quantization.py::TestDerivativeCheck::test_float_c_beyond_the_doubles"]),
    ("numeric-adjoint-image-unchecked", "src/quadfock/quantization.py",
     "        if not exp_vector_exists(g):\n            raise DomainError(f\"adjoint image",
     "        if False:\n            raise DomainError(f\"adjoint image",
     ["tests/test_quantization.py::TestSelfAdjointNumeric::test_member_or_image_beyond_the_radius"]),
]


def key(node_id: str) -> str:
    """``file.py::name``: a node id as pytest prints it from any root directory."""
    file, sep, name = node_id.partition("::")
    return Path(file).name + sep + name


def function(node_id: str) -> str:
    """The key of a node id's test function, one for all its parametrized cases."""
    return key(node_id).split("[", 1)[0]


def snapshot(dest: Path) -> Path:
    """``dest`` holding a copy of the checkout's src/, tests/, perfbench/ and
    pyproject.toml, the files a test run reads."""
    for d in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / d, dest / d, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def run(tree: Path, args: list, file=None, old=None, new=None) -> tuple:
    """pytest's return code and the keys of its FAILED and ERROR lines, on
    ``args`` in a copy of ``tree`` with ``old`` replaced by ``new`` in ``file``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = shutil.copytree(tree, Path(tmp) / "tree")
        if file:
            (tmp / file).write_text((tmp / file).read_text().replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--hypothesis-seed={SEED}", *args],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tmp / "src")),
            capture_output=True, text=True)
    return done.returncode, [key(line.split(" ", 1)[1].split(" - ")[0])
                             for line in done.stdout.splitlines()
                             if line.startswith(("FAILED ", "ERROR "))]


def fails(node_id: str, failed: list) -> bool:
    """Whether a test of ``node_id``, or the collection of its file, failed."""
    want = key(node_id)
    return any(k == want or k.startswith((want + "[", want + "::")) or want.startswith(k + "::")
               for k in failed)


def check(tree: Path, mutants: list) -> int:
    """Each mutant's named node ids on ``tree``: 0 when every mutant is killed."""
    code, failed = run(tree, sorted({n for m in mutants for n in m[4]}))
    if code:
        raise SystemExit("on the unmutated tree pytest exits %d; failing: %s" % (code, failed))
    survived = 0
    for name, file, old, new, node_ids in mutants:
        _, failed = run(tree, node_ids, file, old, new)
        alive = [n for n in node_ids if not fails(n, failed)]
        survived += bool(alive)
        print(f"{name:32} " + ("SURVIVED, passing: " + " ".join(alive) if alive else "killed"),
              flush=True)
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


def matrix(tree: Path, mutants: list) -> int:
    """The whole suite on ``tree`` once per mutant, and the merge candidates."""
    named = "".join((ROOT / doc).read_text() for doc in ("README.md", "ROADMAP.md", "CHANGES.md"))
    named += " ".join(n for m in MUTANTS for n in m[4])
    out = tree.parent / "lines.json"
    done = subprocess.run([sys.executable, str(tree / "tests" / "uncovered.py"),
                           "--lines", str(out)], cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit("on the unmutated tree uncovered.py exits %d:\n%s"
                         % (done.returncode, done.stdout[-2000:]))
    lines = {t: set(v) for t, v in json.loads(out.read_text()).items()}
    kills = {t: set() for t in lines}
    for name, file, old, new, _ in mutants:
        _, failed = run(tree, [], file, old, new)
        # a file that fails to collect fails every test function in it
        hit = {t for k in failed for t in lines
               if t == function(k) or t.startswith(k + "::")} - {LIST_CHECK}
        for t in hit:
            kills[t].add(name)
        print(f"{name:32} {len(hit):3} failing: " + " ".join(sorted(hit)), flush=True)
    print(f"{sum(bool(k) for k in kills.values())} of {len(kills)} test functions "
          f"kill at least one mutant")
    count = 0
    for t in sorted(kills):
        if not kills[t]:
            continue
        covers = [s for s in sorted(kills) if s != t and s.split("::")[0] == t.split("::")[0]
                  and lines[t] <= lines[s] and kills[t] <= kills[s]]
        if covers:
            count += 1
            mark = "*" if re.search(rf"\b{t.rsplit('::', 1)[1]}\b", named) else " "
            print(f"candidate {mark} {t} <= " + " ".join(covers))
    print(f"{count} merge candidates")
    return 0


def main(args: list) -> int:
    mode = check
    if args[:1] == ["--matrix"]:
        mode, args = matrix, args[1:]
    by_name = {m[0]: m for m in MUTANTS}
    mutants = [by_name[name] for name in args] if args else MUTANTS
    with tempfile.TemporaryDirectory() as tmp:
        tree = snapshot(Path(tmp) / "tree")
        for name, file, old, new, node_ids in mutants:
            count = (tree / file).read_text().count(old)
            if count != 1 or new == old or not node_ids:
                raise SystemExit(f"{name}: old occurs {count} times, or new == old, "
                                 "or no node ids")
        return mode(tree, mutants)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
