import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadfock import acceptance, cli, families, fock, quantization, scalars, stepfn
from quadfock.cli import main
from quadfock.fock import MAX_PARTICLES
from quadfock.quantization import counterexample_report
from quadfock.scalars import ExactComplex

QUARTER = '[[0,1,0.25,0]]'
DILATION = '{"E": [[-8,8]], "h": [[-8,8,1,0]], "phi": [[-8,8,2,0]]}'
REFLECTION = '{"E": [[0,1]], "h": [[0,1,0.9,0]], "phi": [[0,1,-1,1]]}'
BIG = "1" + "0" * 400
# a segment longer than the largest double, between two breakpoints that are doubles
LONG = '[[-1e308,1e308,0.25,0]]'
TINY_SLOPE = '{"E": [[0,1]], "h": [[0,1,0.5,0]], "phi": [[0,1,1e-310,0]]}'


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestInner:
    def test_quarter_indicator(self, capsys):
        code, doc = run_cli(["inner", "--f", QUARTER, "--g", QUARTER], capsys)
        assert code == 0
        assert doc["agree"] is True
        assert doc["closed"][0] == pytest.approx(1.154700538, rel=1e-9)

    def test_zero_function(self, capsys):
        code, doc = run_cli(["inner", "--f", "[]", "--g", "[]"], capsys)
        assert code == 0
        assert doc["closed"] == [1.0, 0.0]

    def test_inadmissible_exits_2(self, capsys):
        code, _ = run_cli(["inner", "--f", '[[0,1,0.6,0]]', "--g", "[]"], capsys)
        assert code == 2

    def test_parse_error_exits_3(self, capsys):
        code, _ = run_cli(["inner", "--f", "[[", "--g", "[]"], capsys)
        assert code == 3


class TestNParticle:
    def test_n0(self, capsys):
        code, doc = run_cli(["nparticle", "--f", QUARTER, "--g", QUARTER,
                             "--n", "0"], capsys)
        assert code == 0
        assert doc["value"] == [1.0, 0.0]

    def test_corrected_matches_recursion(self, capsys):
        code, doc = run_cli(["nparticle", "--f", QUARTER, "--g", QUARTER,
                             "--n", "2"], capsys)
        assert code == 0
        assert doc["match"] is True
        assert doc["value"][0] == pytest.approx(8 / 256 + 16 / 256)

    def test_as_printed_mismatch_with_ratio_report(self, capsys):
        code, doc = run_cli(["nparticle", "--f", QUARTER, "--g", QUARTER,
                             "--n", "2", "--formula", "as_printed"], capsys)
        assert code == 1
        assert doc["match"] is False
        ratios = {tuple(sorted(p["partition"].items())): p["printed_over_corrected"]
                  for p in doc["partition_ratios"]}
        assert ratios[(("1", 2),)] == 2.0
        assert ratios[(("2", 1),)] == 1.0

    def test_exact_mode(self, capsys):
        code, doc = run_cli(["--mode", "exact", "nparticle", "--f", QUARTER,
                             "--g", QUARTER, "--n", "4"], capsys)
        assert code == 0 and doc["match"] is True


WEIGHT_2 = REFLECTION.replace("0.9", "2")
# x -> 2x + 1 on [0, 1) and its inverse on [1, 3): T = T* on L^2, yet
# Gamma_2(T) is not Hermitian
SWAP = ('{"E": [[0,3]], "h": [[0,1,0.5,0.5],[1,3,0.25,-0.25]], '
        '"phi": [[0,1,2,1],[1,3,0.5,-0.5]]}')
# [-1, 0) folds onto [0, 1), where phi is the identity
FOLD = '{"E": [[-1,1]], "h": [[-1,1,0.25,0]], "phi": [[-1,0,-1,0],[0,1,1,0]]}'
# near misses that only an exact test tells from the reflection: |h|^2 =
# (1 + 2^-45)^2, and phi with slope -(1 + 1e-13) and intercept 1 + 1e-13
NEAR_UNIT_WEIGHT = REFLECTION.replace("0.9", "1.0000000000000284")
NEAR_REFLECTION = ('{"E": [[0,1]], "h": [[0,1,0.5,0]], '
                   '"phi": [[0,1,-1.0000000000001,1.0000000000001]]}')
SMALL_FAMILY = '[[[0,0.5,0.125,0.0625]],[[0.25,1,-0.1875,0.03125]]]'


class TestSelfAdjoint:
    @pytest.mark.parametrize("op, code, k", [
        (REFLECTION, 0, 0), (DILATION, 1, 1), (WEIGHT_2, 1, 0), (SWAP, 1, 2), (FOLD, 1, 1)])
    @pytest.mark.parametrize("family", [[], ["--family", SMALL_FAMILY]])
    def test_backends_agree(self, op, code, k, family, capsys):
        # selfadjoint prints the same document in both modes, byte for byte
        (exact_code, exact), (float_code, flt) = (
            (main(["--mode", mode, "selfadjoint", "--op", op, *family]), capsys.readouterr().out)
            for mode in ("exact", "float"))
        assert exact_code == float_code == code
        assert exact == flt
        doc = json.loads(exact)
        assert doc["witness"]["k"] == k and doc["hermitian"] is (k == 0)
        assert doc["verdict"] is (code == 0)

    @pytest.mark.parametrize("op", [REFLECTION, DILATION, WEIGHT_2, SWAP, FOLD,
                                    NEAR_UNIT_WEIGHT, NEAR_REFLECTION, TINY_SLOPE])
    def test_one_exact_verdict_in_both_modes(self, op, capsys):
        # a float weight is the dyadic rational it is, so both backends decide
        # selfadjoint and the boundedness block on the same exact operator
        runs = {mode: (main(["--mode", mode, "selfadjoint", "--op", op]), capsys.readouterr().out)
                for mode in ("float", "exact")}
        assert runs["float"] == runs["exact"]
        assert runs["float"][1]
        codes, blocks = {}, {}
        for mode in ("float", "exact"):
            codes[mode], doc = run_cli(
                ["--mode", mode, "contraction", "--op", op, "--family", SMALL_FAMILY], capsys)
            blocks[mode] = doc and doc["boundedness"]
        assert codes["float"] == codes["exact"]
        assert blocks["float"] == blocks["exact"]
        assert (codes["float"] == 2) == (blocks["float"] is None)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_a_fold_with_a_family_prints_its_witness(self, mode, capsys):
        # T* of a fold sums two branches: the adjoint defect is null
        code, doc = run_cli(["--mode", mode, "selfadjoint", "--op", FOLD, "--random", "3"], capsys)
        assert code == 1
        assert doc["witness"] == {"k": 1, "cell": [0.0, 1.0]}
        assert doc["numeric"]["adjoint_defect"] is None
        assert doc["numeric"]["defect"] == doc["numeric"]["hermitian_defect"]

    def test_dilation_fails(self, capsys):
        code, doc = run_cli(["selfadjoint", "--op", DILATION, "--random", "2"],
                            capsys)
        assert code == 1
        assert doc["involutive"] is False
        assert doc["numeric"]["defect"] >= 0


# f = g = 0.01 chi_[0,1), whose gap is 1e-8; and a g against the default f
# with m_2(T f, g) = 0, so that m_3 is the first moment to part the pairings
SMALL = '[[0,1,0.01,0]]'
CANCEL = '[[0,0.25,0.25,0],[0.25,0.5,0,0.25]]'


class TestCounterexample:
    def test_c_flag(self, capsys):
        code, doc = run_cli(["counterexample"], capsys)
        assert code == 0 and doc["pass"] is True
        assert doc["gap"] == pytest.approx(5.525e-3, rel=1e-3)
        code, doc = run_cli(["--c", "2", "counterexample"], capsys)
        assert code == 0
        assert doc["lhs"][0] == pytest.approx(0.75 ** -0.5)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("argv, k", [
        # gaps 2.7e-3, 5.2e-5, 1.0e-8 and 8.9e-4: a gap is no threshold
        (["--c", "0.5", "counterexample"], 2),
        (["--c", "0.01", "counterexample"], 2),
        (["counterexample", "--f", SMALL, "--g", SMALL], 2),
        (["counterexample", "--g", CANCEL], 3),
    ])
    def test_a_moment_witness_passes_at_any_gap(self, argv, k, mode, capsys):
        code, doc = run_cli(["--mode", mode, *argv], capsys)
        assert code == 0
        assert doc["pass"] is True
        assert doc["moment_witness"]["k"] == k
        assert doc["moment_witness"]["lhs_m"] != doc["moment_witness"]["rhs_m"]

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("argv, code", [
        # disjoint supports: the pairings agree, and nothing parts them
        (["counterexample", "--g", '[[5,6,0.25,0]]'], 1),
        # a zero f passes with nothing to part
        (["counterexample", "--f", "[]"], 0),
    ])
    def test_no_moment_witness(self, argv, code, mode, capsys):
        got, doc = run_cli(["--mode", mode, *argv], capsys)
        assert got == code
        assert doc["moment_witness"] == {"k": 0, "lhs_m": None, "rhs_m": None,
                                         "lhs_a": None, "rhs_a": None}

    @pytest.mark.parametrize("c", ["0.5", "1", "2"])
    @pytest.mark.parametrize("pair", [["--f", SMALL, "--g", SMALL], ["--g", CANCEL]])
    def test_backends_agree(self, c, pair, capsys):
        # the same keys and booleans, and every number within 1e-9 relative
        def agree(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(agree(a[key], b[key]) for key in a)
            if isinstance(a, list):
                return len(a) == len(b) and all(map(agree, a, b))
            if isinstance(a, bool) or a is None:
                return a is b
            return abs(a - b) <= 1e-9 * max(abs(a), abs(b))

        exact, flt = (run_cli(["--mode", mode, "--c", c, "counterexample", *pair], capsys)
                      for mode in ("exact", "float"))
        assert exact[0] == flt[0] == 0
        assert agree(exact[1], flt[1])


class TestContractionAndLemma4:
    def test_contraction_random_family(self, capsys):
        code, doc = run_cli(["contraction", "--op", DILATION, "--random", "3"],
                            capsys)
        assert code == 0
        assert doc["boundedness"]["verdict"] == "contraction"
        assert doc["l2"]["max_ratio"] == pytest.approx(2 ** -0.5)

    def test_lemma4_random(self, capsys):
        code, doc = run_cli(["lemma4", "--random", "2"], capsys)
        assert code == 0
        assert doc["rel_error"] <= 1e-14
        assert doc["ratio_to_stated"] == pytest.approx(2.0, rel=1e-14)

    # Lemma 4 reads the derivative at t = 0, so it needs neither an admissible
    # family nor a length that is a double: only the printed numbers must be.
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_lemma4_sup_norm_beyond_the_radius(self, mode, capsys):
        # sup|f| = 5: <Psi(f), Psi(f)> does not exist, but q'(0) = 2c * 25 does
        code, doc = run_cli(["--mode", mode, "lemma4", "--family", "[[[0,1,5,0]]]",
                             "--coeffs", "[[1,0]]"], capsys)
        assert code == 0
        assert doc["derivative"] == doc["expected"] == 50.0
        assert doc["ratio_to_stated"] == 2.0

    def test_lemma4_exact_length_beyond_the_doubles(self, capsys):
        # ||f||^2 = 2e308 / 16 is exact, and 2c ||f||^2 = 2.5e307 is a double
        code, doc = run_cli(["--mode", "exact", "lemma4", "--family", f"[{LONG}]",
                             "--coeffs", "[[1,0]]"], capsys)
        assert code == 0
        assert doc["derivative"] == doc["expected"] == 2.5e307
        assert doc["abs_error"] == 0.0

    def test_lemma4_requires_input(self, capsys):
        code, _ = run_cli(["lemma4"], capsys)
        assert code == 3

    @pytest.mark.parametrize("inputs", [
        ["--random", "3"],
        ["--family", '[[[0,1,0.125,0]]]', "--coeffs", "[[1,0]]"],
    ])
    def test_lemma4_exact_agrees_with_float(self, inputs, capsys):
        docs = {}
        for mode in ("exact", "float"):
            code, docs[mode] = run_cli(["--mode", mode, "--tol", "1e-10", "lemma4", *inputs],
                                       capsys)
            assert code == 0
        for key in ("derivative", "expected", "rel_error"):
            assert abs(docs["exact"][key] - docs["float"][key]) <= 1e-10
        # the exact report is exact: q'(0) is the exact n = 1 coefficient
        assert docs["exact"]["derivative"] == docs["exact"]["expected"]
        assert docs["exact"]["abs_error"] == docs["exact"]["rel_error"] == 0.0
        assert docs["exact"]["ratio_to_stated"] == 2.0


@pytest.mark.parametrize("argv", [
    ["--c", "-1", "inner", "--f", QUARTER, "--g", QUARTER],
    ["--tol", "0", "inner", "--f", QUARTER, "--g", QUARTER],
    ["--depth", "0", "inner", "--f", QUARTER, "--g", QUARTER],
    ["nparticle", "--f", QUARTER, "--g", QUARTER, "--n", "-1"],
    ["lemma4", "--random", "-1"],
    ["lemma4", "--family", '[[[0,1,0.125,0]]]', "--coeffs", "[[1,0],[1,0]]"],
    ["lemma4", "--family", '[[[0,1,0.125,0]]]', "--coeffs", "[[1]]"],
    ["lemma4", "--family", '[[[1,0,0.125,0]]]', "--coeffs", "[[1,0]]"],
    ["contraction", "--op", DILATION, "--family", '[[[1,0,0.125,0]]]'],
    ["selfadjoint", "--op", REFLECTION, "--family", '[[[0,1,0.125]]]'],
    ["inner", "--f", '[[0,1,NaN,0]]', "--g", QUARTER],
    ["inner", "--f", '[[0,1,Infinity,0]]', "--g", QUARTER],
    ["inner", "--f", '[[0,Infinity,0.1,0]]', "--g", QUARTER],
    ["contraction", "--op", DILATION, "--random", "2", "--t", "1"],
    ["--c", "inf", "inner", "--f", QUARTER, "--g", QUARTER],
    ["selfadjoint", "--op", '{"E": [[0,Infinity]], "h": [[0,1,0.9,0]], "phi": [[0,1,-1,1]]}'],
    ["selfadjoint", "--op", '{"E": [[0,1]], "h": [[0,1,NaN,0]], "phi": [[0,1,-1,1]]}'],
    ["selfadjoint", "--op", REFLECTION, "--family", '[[[0,1,-Infinity,0]]]'],
    ["lemma4", "--family", '[[[0,1,0.125,0]]]', "--coeffs", "[[NaN,0]]"],
    # exact values must be finite floats too: BIG is 1 followed by 400 zeros
    ["--mode", "exact", "inner", "--f", f"[[0,1,{BIG},0]]", "--g", '[[0,1,0.1,0]]'],
    ["--mode", "exact", "nparticle", "--n", "2", "--f", f"[[0,1,{BIG},0]]",
     "--g", '[[0,1,0.1,0]]'],
    ["--mode", "exact", "selfadjoint", "--op", REFLECTION, "--family", f"[[[0,1,{BIG},0]]]"],
    ["--depth", "2001", "inner", "--f", QUARTER, "--g", QUARTER],
    ["nparticle", "--f", QUARTER, "--g", QUARTER, "--n", str(MAX_PARTICLES + 1)],
    ["--mode", "exact", "nparticle", "--f", QUARTER, "--g", QUARTER,
     "--n", str(MAX_PARTICLES + 1)],
    # (n!)^2 is beyond the doubles from n = 171 on
    ["nparticle", "--f", QUARTER, "--g", QUARTER, "--n", "200"],
    # the as_printed coefficient is undefined at n = 0
    ["nparticle", "--f", QUARTER, "--g", QUARTER, "--n", "0", "--formula", "as_printed"],
    ["--mode", "exact", "nparticle", "--f", QUARTER, "--g", QUARTER, "--n", "0",
     "--formula", "as_printed"],
    # "invalid operator: piece slope must be nonzero", "... positive length"
    ["selfadjoint", "--op", '{"E": [[0,1]], "h": [[0,1,0.5,0]], "phi": [[0,1,0,1]]}'],
    ["selfadjoint", "--op",
     '{"E": [[0,1]], "h": [[0,1,0.5,0]], "phi": [[0,1,-1,1],[1,1,1,0]]}'],
    # a path that cannot be read as a file: "cannot read ..."
    ["inner", "--f", os.path.dirname(__file__), "--g", QUARTER],
])
def test_usage_errors_exit_3(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, what", [
    (["inner", "--g", QUARTER, "--f"], "step function"),
    (["selfadjoint", "--op"], "operator"),
    (["contraction", "--op", DILATION, "--family"], "--family"),
    (["lemma4", "--family", '[[[0,1,0.125,0]]]', "--coeffs"], "--coeffs"),
])
def test_file_that_is_not_utf8_exits_3(argv, what, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff[[0,1,0.25,0]]")
    assert main([*argv, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid {what}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("argv, code", [
    # exp(-(1/2) * 1e308 * log(3/4)) overflows double precision
    (["inner", "--f", '[[0,1e308,0.25,0]]', "--g", '[[0,1e308,0.25,0]]'], 2),
    (["--c", "1e300", "counterexample"], 2),
    # the closed form underflows to 0, and the float series terms overflow
    (["inner", "--f", '[[0,1e308,0.25,0]]', "--g", '[[0,1e308,-0.25,0]]'], 2),
    (["inner", "--f", LONG, "--g", LONG], 2),
    (["--mode", "exact", "inner", "--f", LONG, "--g", LONG], 2),
    (["lemma4", "--family", f"[{LONG}]", "--coeffs", "[[1,0]]"], 2),
    # 2c ||f||^2 = 2.7e309 is exact, but it is printed as a double
    (["--mode", "exact", "lemma4", "--family", "[[[0,1.5e308,3,0]]]", "--coeffs", "[[1,0]]"], 2),
    (["nparticle", "--n", "2", "--f", LONG, "--g", LONG], 2),
    (["--mode", "exact", "nparticle", "--n", "2", "--f", LONG, "--g", LONG], 2),
    # c^2 of the partition sum is beyond the doubles
    (["--c", "1e300", "nparticle", "--n", "2", "--f", QUARTER, "--g", QUARTER], 2),
    # m_1^2 of the partition sum is beyond the doubles
    (["nparticle", "--n", "2", "--f", '[[0,1,1e308,0]]', "--g", '[[0,1,0.125,0]]'], 2),
    # ||f||_2 of a value 1e308 is beyond the doubles
    (["contraction", "--op", REFLECTION, "--family", "[[[0,1,1e308,0]]]"], 2),
    (["--mode", "exact", "contraction", "--op", REFLECTION, "--family", "[[[0,1,1e308,0]]]"], 2),
    # |h|^2 over the slope 1e-310 is 2.5e309: exact, but printed as a double
    (["contraction", "--op", TINY_SLOPE, "--family", "[[[0,1,0.125,0]]]"], 2),
    # the inverse slope 1e310 is beyond the doubles, for the float adjoint
    (["selfadjoint", "--op", TINY_SLOPE, "--random", "1"], 2),
])
def test_overflow_is_reported_not_raised(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_counterexample_of_a_long_g_is_finite(mode, capsys):
    # T* doubles g's breakpoints beyond the doubles, but no output reads them:
    # g = 1/4 covers f and T f, so both pairings are those of the default pair
    code, doc = run_cli(["--mode", mode, "counterexample", "--g", LONG], capsys)
    assert code == 0
    assert doc == run_cli(["--mode", mode, "counterexample"], capsys)[1]
    assert doc["moment_witness"]["k"] == 2


@pytest.mark.parametrize("command", [
    ["inner", "--f", QUARTER, "--g", QUARTER],
    ["nparticle", "--n", "6", "--f", QUARTER, "--g", '[[0,1,0.25,0.125]]'],
])
def test_exact_c_below_the_rounding_grid_stays_positive(command, capsys):
    # limit_denominator(10**12) rounds 1e-13 to 0; the exact double is kept
    code, exact = run_cli(["--mode", "exact", "--c", "1e-13", *command], capsys)
    assert code == 0
    _, flt = run_cli(["--mode", "float", "--c", "1e-13", *command], capsys)
    for key in ("closed", "value"):
        if key in flt:
            assert exact[key] == pytest.approx(flt[key], rel=1e-12, abs=0)


@pytest.mark.parametrize("given", [["--f", '[[0,1,0.3,0]]'], ["--g", '[[0,2,0.125,0.0625]]'], []])
def test_counterexample_default_input_follows_the_mode(given, capsys, monkeypatch):
    # a missing --f or --g is the default (1/4) chi_[0,1) in the backend of the
    # other, or of the mode where both are missing
    default = [arg for flag in ("--f", "--g") if flag not in given for arg in (flag, QUARTER)]
    received = []
    monkeypatch.setattr(cli, "counterexample_report",
                        lambda cfg, f, g: received.append((f, g)) or counterexample_report(cfg, f, g))
    for mode, scalar in (("exact", ExactComplex), ("float", complex)):
        one = run_cli(["--mode", mode, "counterexample", *given], capsys)
        both = run_cli(["--mode", mode, "counterexample", *given, *default], capsys)
        assert one == both
        assert one[1] is not None
        assert all(type(v) is scalar for h in received[-2] for _, _, v in h.segments)


# --- one parser per process ---------------------------------------------------


def run_with_fresh_parser(argv, capsys, monkeypatch):
    """(exit code, stdout) of argv run alone, against a parser built for it."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_PARSER", cli.build_parser())
        code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("sequence", [
    [["--mode", "exact", "--c", "0.5", "--depth", "60", "inner", "--f", QUARTER,
      "--g", QUARTER],
     ["inner", "--f", QUARTER, "--g", QUARTER]],
    [["nparticle", "--formula", "as_printed", "--n", "3", "--f", QUARTER, "--g", QUARTER],
     ["nparticle", "--n", "3", "--f", QUARTER, "--g", QUARTER]],
    [["--seed", "3", "selfadjoint", "--op", DILATION, "--random", "2"],
     ["selfadjoint", "--op", DILATION, "--random", "2"]],
    [["inner", "--f", QUARTER],
     ["inner", "--f", QUARTER, "--g", QUARTER]],
])
def test_shared_parser_keeps_no_state_between_calls(sequence, capsys, monkeypatch):
    in_sequence = []
    for argv in sequence:
        code = main(argv)
        in_sequence.append((code, capsys.readouterr().out))
    alone = [run_with_fresh_parser(argv, capsys, monkeypatch) for argv in sequence]
    assert in_sequence == alone
    # each sequence changes the output, so a carried-over option would show
    assert in_sequence[0] != in_sequence[1]


def test_main_builds_no_parser(capsys, monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    for _ in range(2):
        assert main(["inner", "--f", QUARTER, "--g", QUARTER]) == 0
        assert capsys.readouterr().out


@pytest.mark.parametrize("command, sweeps", [
    (["inner", "--f", QUARTER, "--g", '[[0,2,0.125,0.0625]]'], 1),
    (["counterexample"], 2),
])
@pytest.mark.parametrize("mode", ["float", "exact"])
def test_one_value_signature_per_pair(command, sweeps, mode, capsys, monkeypatch):
    # counterexample pairs (T f, g) and (T* g, f); each pair's closed form
    # and series read one signature
    calls = []

    def value_signature(f, g):
        calls.append((f, g))
        return signature(f, g)

    signature = fock.value_signature
    monkeypatch.setattr(fock, "value_signature", value_signature)
    assert main(["--mode", mode, *command]) == 0
    assert capsys.readouterr().out
    assert len(calls) == sweeps


def counting(calls: dict, name: str, fn, counts=None):
    """fn, adding one to ``calls[name]``, where calls has that key, at each
    call that ``counts`` accepts (every call by default)."""
    def counted(*args):
        if name in calls and (counts is None or counts(*args)):
            calls[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("run, counts", [
    # the reflection is given with dom phi = E = supp h, so no restrict is
    # made: the three phi conditions are read off the witness's overlap test
    # and phi/phi^-1 comparison; the exact test reads T_1 and T_2 off one
    # atom list and inverts no map, so the one inverse is the numeric block's
    # adjoint
    (lambda: main(["selfadjoint", "--op", REFLECTION, "--random", "3"]),
     {"map_invert": 1, "restrict": 0}),
    (acceptance.criterion_10, {"restrict": 0}),
    # one sweep for the exact moments and one for the float routes, per pair
    (acceptance.criterion_2, {"value_signature": 100}),
], ids=["selfadjoint", "criterion_10", "criterion_2"])
def test_operator_and_pair_work(run, counts, capsys, monkeypatch):
    calls = dict.fromkeys(counts, 0)
    invert = counting(calls, "map_invert", stepfn.map_invert)
    monkeypatch.setattr(stepfn, "map_invert", invert)
    monkeypatch.setattr(quantization, "map_invert", invert)
    monkeypatch.setattr(stepfn.PiecewiseAffineMap, "restrict",
                        counting(calls, "restrict", stepfn.PiecewiseAffineMap.restrict))
    monkeypatch.setattr(fock, "value_signature",
                        counting(calls, "value_signature", fock.value_signature))
    run()
    capsys.readouterr()
    assert calls == counts


def test_adjoint_pairing_draws_and_checks_without_rat_arithmetic(monkeypatch):
    # the draws build their ends and values from the rng's ints (796
    # divisions for these 100 draws before).  The pull-backs, the map
    # inverses, the signature products and the adjoint weights work on ints:
    # criterion 10 made 1640 subtractions, 1558 divisions and 222 conjugates
    # before.  The signatures' cell lengths are ints on one grid per pair (82
    # subtractions before).  The draws add nothing to any count.
    calls = {"Fraction - x": 0, "Fraction / x": 0, "conjugate": 0}
    monkeypatch.setattr(Fraction, "__sub__", counting(calls, "Fraction - x", Fraction.__sub__))
    monkeypatch.setattr(Fraction, "__truediv__",
                        counting(calls, "Fraction / x", Fraction.__truediv__))
    monkeypatch.setattr(scalars.ExactComplex, "conjugate",
                        counting(calls, "conjugate", scalars.ExactComplex.conjugate))
    assert acceptance.criterion_10()["passed"]
    assert calls == {"Fraction - x": 0, "Fraction / x": 0, "conjugate": 0}
    rng = random.Random(0)
    for _ in range(100):
        families.random_step_function(rng, exact=True)
    assert calls == {"Fraction - x": 0, "Fraction / x": 0, "conjugate": 0}


def test_float_inner_reads_each_sup_norm_once(capsys, monkeypatch):
    # the admissibility test hands its sup norms to the series (4 reads before)
    calls = []
    sup_norm_sq = stepfn.StepFunction.sup_norm_sq
    monkeypatch.setattr(stepfn.StepFunction, "sup_norm_sq",
                        lambda f: calls.append(f) or sup_norm_sq(f))
    rng = random.Random(33)
    code, doc = run_cli(["inner", "--f", _steps_json(rng, 8), "--g", _steps_json(rng, 8)],
                        capsys)
    assert code == 0 and doc["agree"] is True
    assert len(calls) == 2


def _steps_json(rng, n):
    """n adjacent segments on [0, 4), breakpoints k/256, values k/32."""
    pts = [0, *sorted(rng.sample(range(1, 1024), n - 1)), 1024]
    return json.dumps([[l / 256, r / 256, rng.randint(-6, 6) / 32, rng.randint(-6, 6) / 32]
                       for l, r in zip(pts, pts[1:])])


def test_float_inner_reads_each_length_as_a_double_once(capsys, monkeypatch):
    # the series halves the lengths as doubles, and its moments start from
    # doubles, so no length is divided or multiplied by a complex value
    calls = {"Fraction / x": 0, "Fraction * complex": 0}
    monkeypatch.setattr(Fraction, "__truediv__",
                        counting(calls, "Fraction / x", Fraction.__truediv__))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name,
                            counting(calls, "Fraction * complex", getattr(Fraction, name),
                                     lambda a, b: isinstance(b, complex)))
    rng = random.Random(32)
    code, doc = run_cli(["inner", "--f", _steps_json(rng, 32), "--g", _steps_json(rng, 32)],
                        capsys)
    assert code == 0 and doc["agree"] is True
    assert calls == {"Fraction / x": 0, "Fraction * complex": 0}


def test_float_inner_converts_each_end_once_and_merges_once(capsys, monkeypatch):
    # two contiguous 32-segment functions have 33 distinct ends each, and one
    # refinement makes one ordering comparison per cell (before: 128 _frac
    # calls on ends, and 306 Fraction ordering comparisons for this pair)
    calls = {"_frac": 0, "refine": 0, "ordering": 0}
    monkeypatch.setattr(stepfn, "_frac", counting(calls, "_frac", stepfn._frac))
    monkeypatch.setattr(stepfn, "refine", counting(calls, "refine", stepfn.refine))
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting(calls, "ordering", getattr(Fraction, name)))
    rng = random.Random(34)
    code, doc = run_cli(["inner", "--f", _steps_json(rng, 32), "--g", _steps_json(rng, 32)],
                        capsys)
    assert code == 0 and doc["agree"] is True
    assert (calls["_frac"], calls["refine"]) == (66, 1)
    assert calls["ordering"] <= 306 // 2


def test_float_inner_makes_no_rat_sum_or_difference(capsys, monkeypatch):
    # the cell lengths of the signature are ints on one grid per pair, and a
    # double length is one int division: no Fraction + or - (before: one
    # subtraction per cell and one addition per repeated u)
    rng = random.Random(34)
    f_json, g_json = _steps_json(rng, 32), _steps_json(rng, 32)
    f, g = (stepfn.StepFunction.from_json(json.loads(text)) for text in (f_json, g_json))
    names = ("__add__", "__radd__", "__sub__", "__rsub__")
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(Fraction, name, counting(calls, name, getattr(Fraction, name)))
    code, doc = run_cli(["inner", "--f", f_json, "--g", g_json], capsys)
    assert code == 0 and doc["agree"] is True
    assert type(stepfn.inner(f, g)) is complex
    assert calls == dict.fromkeys(names, 0)


def test_largest_depth_runs(capsys):
    # 4 max|u| = 0.988036 needs 1922 terms: the weights 2^(2k+1) m_{k+1} stay
    # in the doubles
    f = '[[0,1,0.497,0]]'
    code, doc = run_cli(["--depth", "2000", "inner", "--f", f, "--g", f], capsys)
    assert code == 0 and doc["agree"] is True
    assert doc["depth"] == 1922


def test_largest_particle_number_runs(capsys):
    code, doc = run_cli(["nparticle", "--f", QUARTER, "--g", QUARTER,
                         "--n", str(MAX_PARTICLES)], capsys)
    assert code == 0 and doc["match"] is True


def test_tail_bound_is_positive(capsys):
    # the true tail is about (4e-4)^61; the old bound cancelled it to 0.0
    f = stepfn.StepFunction.from_json([[0, 1, 0.01, 0]])
    _, tail, depth = fock._Signature.admissible(f, f).series(fock.FockConfig(depth=60), fixed=True)
    assert depth == 60 and tail > 0
    code, doc = run_cli(["--depth", "60", "inner", "--f", '[[0,1,0.01,0]]',
                         "--g", '[[0,1,0.01,0]]'], capsys)
    assert code == 0
    assert doc["tail_bound"] > 0 and doc["depth"] < 60


# one argv per subcommand; numpy is imported only inside fock's float Gram
# helpers, which no subcommand reaches
NUMPY_FREE = [
    ["inner", "--f", QUARTER, "--g", QUARTER],
    ["nparticle", "--f", QUARTER, "--g", QUARTER, "--n", "3"],
    ["selfadjoint", "--op", REFLECTION, "--random", "2"],
    ["counterexample"],
    ["contraction", "--op", DILATION, "--random", "2"],
    ["lemma4", "--random", "2"],
    ["verify-all"],
]


def test_no_subcommand_loads_numpy():
    assert {argv[0] for argv in NUMPY_FREE} == set(COMMANDS) - {"bogus"} | {"verify-all"}
    code = ("import contextlib, io, sys\nfrom quadfock.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in {NUMPY_FREE!r}:\n"
            "        for mode in ('float', 'exact'):\n"
            "            assert main(['--mode', mode, *argv]) == 0, argv\n"
            "assert 'numpy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self):
        cmd = [sys.executable, "-m", "quadfock.cli", "--seed", "5",
               "selfadjoint", "--op", REFLECTION, "--random", "3"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_round_trip_of_inputs(self, capsys):
        # parse -> serialize -> parse is the identity on the wire format
        from quadfock import StepFunction
        data = json.loads(QUARTER)
        f = StepFunction.from_json(data)
        assert json.loads(json.dumps(f.to_json())) == f.to_json()
        assert StepFunction.from_json(f.to_json()) == f


class TestStdin:
    def test_json_from_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(QUARTER))
        code, doc = run_cli(["inner", "--f", "-", "--g", QUARTER], capsys)
        assert code == 0 and doc["agree"] is True


def test_verify_all(capsys):
    code, doc = run_cli(["verify-all"], capsys)
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["criteria"]) == 10


# --- argv fuzz ---------------------------------------------------------------
# Mostly valid argvs, so that every command runs to its end, with garbage
# mixed in at every position.


def mostly(valid, garbage):
    """valid, or one of garbage about one time in ten"""
    return st.floats(0, 1).flatmap(lambda x: st.sampled_from(garbage) if x > 0.9 else valid)


def adjacent_segments(start, cells):
    """One segment per (width, re, im), laid end to end from start."""
    segments = []
    for width, re, im in cells:
        segments.append([start, start + width, re, im])
        start += width
    return segments


def operator_json(left, width, weight, slope, shift):
    interval = [left, left + width]
    return json.dumps({"E": [interval], "h": [[*interval, weight, 0]],
                       "phi": [[*interval, slope, shift]]})


VALUE = st.sampled_from([0.125, -0.25, 0.0625, 0.3, 0.2, 0.49, 0.6, 1e308, 0])
STEPS = st.builds(adjacent_segments, st.integers(-2, 2), st.lists(
    st.tuples(st.integers(1, 3), VALUE, st.sampled_from([0, 0.0625, -0.125])), max_size=3))
GARBAGE = ["", "[[", "{}", "[1, 2]", "null", '[["a",1,2,3]]', "[[0,1,NaN,0]]", "[[0,1,0.1]]",
           "[[1,0,0.1,0]]", "no-such-file.json"]
STEP = mostly(STEPS.map(json.dumps) | st.just(LONG), GARBAGE)
OPTIONS = {
    "--f": STEP,
    "--g": STEP,
    "--n": mostly(st.integers(0, 12).map(str), ["-1", "x"]),
    "--formula": mostly(st.sampled_from(["corrected", "as_printed"]), ["bogus"]),
    "--op": mostly(st.sampled_from([REFLECTION, DILATION, REFLECTION.replace("0.9", "2")])
                   | st.builds(operator_json, st.integers(-2, 1), st.integers(1, 3), VALUE,
                               st.sampled_from([-2, -1, 0.5, 1, 2]), st.integers(-1, 1)),
                   GARBAGE),
    "--family": mostly(st.lists(STEPS, min_size=1, max_size=3).map(json.dumps), GARBAGE + ["[]"]),
    "--random": mostly(st.integers(1, 4).map(str), ["0", "-1", "x"]),
    "--coeffs": mostly(st.lists(st.tuples(st.sampled_from([1, 0.5, -0.75, 0]),
                                          st.sampled_from([0, 0.25])),
                                min_size=1, max_size=3).map(json.dumps), GARBAGE),
}
GLOBALS = {
    "--c": mostly(st.sampled_from(["1", "0.5", "2", "0.25", "1e-13", "1e300"]),
                  ["0", "-1", "nan", "inf", "x"]),
    "--tol": mostly(st.sampled_from(["1e-10", "1e-3", "0.5"]), ["0", "nan", "x"]),
    "--depth": mostly(st.integers(1, 60).map(str), ["0", "-1", "x"]),
    "--mode": mostly(st.sampled_from(["float", "exact"]), ["bogus"]),
    "--seed": mostly(st.integers(0, 9).map(str), ["x"]),
}
# each command's required and optional options; verify-all is left out: it
# takes no input and is the slowest command
COMMANDS = {
    "inner": (["--f", "--g"], []),
    "nparticle": (["--f", "--g", "--n"], ["--formula"]),
    "selfadjoint": (["--op"], ["--family", "--random"]),
    "counterexample": ([], ["--f", "--g"]),
    "contraction": (["--op"], ["--family", "--random"]),
    "lemma4": ([], ["--family", "--coeffs", "--random"]),
    "bogus": ([], []),
}


def reject_constant(name):
    """json.loads hook for NaN, Infinity and -Infinity, which RFC 8259 has not."""
    raise ValueError(f"{name} is not JSON")


@st.composite
def argvs(draw):
    argv = []
    for name in draw(st.lists(st.sampled_from(list(GLOBALS)), unique=True)):
        argv += [name, draw(GLOBALS[name])]
    command = draw(st.sampled_from(list(COMMANDS)))
    required, optional = COMMANDS[command]
    argv.append(command)
    if optional:
        required = required + draw(st.lists(st.sampled_from(optional), unique=True))
    for name in required:
        argv += [name, draw(OPTIONS[name])]
    return argv


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["nparticle", "--n", "0", "--formula", "as_printed", "--f", QUARTER,
               "--g", QUARTER])
@example(argv=["--depth", "5", "counterexample"])
@example(argv=["lemma4", "--family", "[[]]", "--coeffs", "[[1,0]]"])
def test_every_argv_keeps_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    stdout = out.getvalue()
    if stdout:
        json.loads(stdout, parse_constant=reject_constant)  # exactly one RFC 8259 document
    assert code != 3 or stdout == ""
    assert "Traceback" not in err.getvalue()
