"""Mutants of ``src/quadfock`` that the differential tests must kill.

Each entry of ``MUTANTS`` is (id, file, old text, new text, node ids): the
file is relative to the repository root, ``old`` occurs in it exactly once,
and the mutant is killed when every named node id has a failing test.

    PYTHONPATH=src python tests/mutants.py [id ...]

copies ``src/``, ``tests/`` and ``perfbench/`` into a fresh temporary
directory and runs every named node id there, unmutated, where all must
pass.  Then, one mutant at a time, it makes a fresh copy, replaces ``old``
by ``new`` there, runs ``python -m pytest -q -p no:cacheprovider <node
ids>`` and prints ``killed`` or ``SURVIVED``.  It exits 1 if any mutant
survives.  ``perfbench/`` is copied because some tests read it, such as
``tests/test_tracing_targets.py``; no mutant changes it.  pytest does not
collect this file; it runs by hand, one subprocess at a time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
     ["tests/test_quantization.py::TestHermitian::test_a_fold_is_a_witness_not_an_error",
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
    ("signature-lengths-not-summed", "src/quadfock/stepfn.py",
     "sig[u] = r - l if length is None else length + (r - l)", "sig[u] = r - l",
     ["tests/test_sweep_reference.py::test_pair_readers_match_the_reference",
      "tests/test_float_kernel.py::test_pair_path_matches_reference"]),
    ("float-moments-reversed-sum", "src/quadfock/fock.py",
     "yield sum(terms, 0)", "yield sum(reversed(terms), 0)",
     ["tests/test_float_kernel.py::test_pair_path_matches_reference"]),
    ("exact-moments-conjugated", "src/quadfock/fock.py",
     "entries.append(_new(re, im, den))", "entries.append(_new(re, -im, den))",
     ["tests/test_exact_kernel.py::test_exact_routes_match_reference",
      "tests/test_kernel.py::test_exact_moments_match_cell_sum"]),
]


def key(node_id: str) -> str:
    """``file.py::name``: a node id as pytest prints it from any root directory."""
    file, sep, name = node_id.partition("::")
    return Path(file).name + sep + name


def run(node_ids: list, file=None, old=None, new=None) -> tuple:
    """pytest's return code and the keys of its FAILED and ERROR lines, on
    ``node_ids`` in a fresh copy of src/, tests/ and perfbench/ with ``old``
    replaced by ``new`` in ``file``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for d in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / d, tmp / d, ignore=shutil.ignore_patterns("__pycache__"))
        if file:
            (tmp / file).write_text((tmp / file).read_text().replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *node_ids],
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


def main(names: list) -> int:
    by_name = {m[0]: m for m in MUTANTS}
    mutants = [by_name[name] for name in names] if names else MUTANTS
    for name, file, old, new, node_ids in mutants:
        count = (ROOT / file).read_text().count(old)
        if count != 1 or new == old or not node_ids:
            raise SystemExit(f"{name}: old occurs {count} times, or new == old, or no node ids")
    code, failed = run(sorted({n for m in mutants for n in m[4]}))
    if code:
        raise SystemExit("on the unmutated tree pytest exits %d; failing: %s" % (code, failed))
    survived = 0
    for name, file, old, new, node_ids in mutants:
        _, failed = run(node_ids, file, old, new)
        alive = [n for n in node_ids if not fails(n, failed)]
        survived += bool(alive)
        print(f"{name:32} " + ("SURVIVED, passing: " + " ".join(alive) if alive else "killed"),
              flush=True)
    print(f"{len(mutants)} mutants: {len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
