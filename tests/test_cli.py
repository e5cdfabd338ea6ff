import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quadfock import cli
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


class TestSelfAdjoint:
    def test_reflection_passes(self, capsys):
        code, doc = run_cli(["selfadjoint", "--op", REFLECTION], capsys)
        assert code == 0
        assert doc["verdict"] is True

    def test_dilation_fails(self, capsys):
        code, doc = run_cli(["selfadjoint", "--op", DILATION, "--random", "2"],
                            capsys)
        assert code == 1
        assert doc["involutive"] is False
        assert doc["numeric"]["defect"] >= 0


class TestCounterexample:
    def test_default_gap(self, capsys):
        code, doc = run_cli(["counterexample"], capsys)
        assert code == 0
        assert doc["pass"] is True
        assert doc["gap"] == pytest.approx(5.525e-3, rel=1e-3)

    def test_c_flag(self, capsys):
        code, doc = run_cli(["--c", "2", "counterexample"], capsys)
        assert code == 0
        assert doc["lhs"][0] == pytest.approx(0.75 ** -0.5)


class TestContractionAndLemma4:
    def test_contraction_random_family(self, capsys):
        code, doc = run_cli(["contraction", "--op", DILATION, "--random", "3"],
                            capsys)
        assert code == 0
        assert doc["gram"]["psd"] is True
        assert doc["l2"]["max_ratio"] == pytest.approx(2 ** -0.5)

    def test_lemma4_random(self, capsys):
        code, doc = run_cli(["lemma4", "--random", "2"], capsys)
        assert code == 0
        assert doc["rel_error"] <= 1e-6
        assert doc["ratio_to_stated"] == pytest.approx(2.0, rel=1e-4)

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
    ["contraction", "--op", DILATION, "--random", "2", "--t", "nan"],
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
])
def test_usage_errors_exit_3(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, code", [
    # exp(-(1/2) * 1e308 * log(3/4)) overflows double precision
    (["inner", "--f", '[[0,1e308,0.25,0]]', "--g", '[[0,1e308,0.25,0]]'], 2),
    (["--c", "1e300", "counterexample"], 2),
    # the closed form underflows to 0, and the series tail bound overflows
    (["inner", "--f", '[[0,1e308,0.25,0]]', "--g", '[[0,1e308,-0.25,0]]'], 1),
    (["inner", "--f", LONG, "--g", LONG], 2),
    (["--mode", "exact", "inner", "--f", LONG, "--g", LONG], 2),
    (["lemma4", "--family", f"[{LONG}]", "--coeffs", "[[1,0]]"], 2),
    (["--mode", "exact", "lemma4", "--family", f"[{LONG}]", "--coeffs", "[[1,0]]"], 2),
    (["nparticle", "--n", "2", "--f", LONG, "--g", LONG], 2),
    (["--mode", "exact", "nparticle", "--n", "2", "--f", LONG, "--g", LONG], 2),
    # c^2 of the partition sum is beyond the doubles
    (["--c", "1e300", "nparticle", "--n", "2", "--f", QUARTER, "--g", QUARTER], 2),
    # m_1^2 of the partition sum is beyond the doubles
    (["nparticle", "--n", "2", "--f", '[[0,1,1e308,0]]', "--g", '[[0,1,0.125,0]]'], 2),
    # T* doubles the breakpoints of g, and the witness prints them as doubles
    (["counterexample", "--g", LONG], 2),
    (["--mode", "exact", "counterexample", "--g", LONG], 2),
])
def test_overflow_is_reported_not_raised(argv, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("given", [["--f", '[[0,1,0.3,0]]'], ["--g", '[[0,2,0.125,0.0625]]']])
def test_counterexample_default_input_follows_the_mode(given, capsys):
    # a missing --f or --g is the default (1/4) chi_[0,1) in the backend of the other
    default = ["--f" if given[0] == "--g" else "--g", QUARTER]
    for mode in ("exact", "float"):
        one = run_cli(["--mode", mode, "counterexample", *given], capsys)
        both = run_cli(["--mode", mode, "counterexample", *given, *default], capsys)
        assert one == both
        assert one[1] is not None


@pytest.mark.parametrize("mode, scalar", [("exact", ExactComplex), ("float", complex)])
def test_counterexample_default_inputs_take_the_mode_backend(mode, scalar, capsys,
                                                             monkeypatch):
    received = []

    def report(cfg, f, g):
        received.extend((f, g))
        return counterexample_report(cfg, f, g)

    monkeypatch.setattr(cli, "counterexample_report", report)
    code, _ = run_cli(["--mode", mode, "counterexample"], capsys)
    assert code == 0
    assert len(received) == 2
    assert all(type(v) is scalar for h in received for _, _, v in h.segments)


def test_largest_depth_runs(capsys):
    # MAX_DEPTH terms: the weights 2^(2k+1) m_{k+1} stay in the doubles
    code, doc = run_cli(["--depth", "2000", "inner", "--f", QUARTER, "--g", QUARTER],
                        capsys)
    assert code == 0 and doc["agree"] is True


def test_largest_particle_number_runs(capsys):
    code, doc = run_cli(["nparticle", "--f", QUARTER, "--g", QUARTER,
                         "--n", str(MAX_PARTICLES)], capsys)
    assert code == 0 and doc["match"] is True


def test_tail_bound_is_positive(capsys):
    # the true tail is about (4e-4)^61; the old bound cancelled it to 0.0
    code, doc = run_cli(["--depth", "60", "inner", "--f", '[[0,1,0.01,0]]',
                         "--g", '[[0,1,0.01,0]]'], capsys)
    assert code == 0
    assert doc["tail_bound"] > 0


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
    "--t": mostly(st.sampled_from(["1", "0.5", "-0.5", "3"]), ["nan", "x"]),
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
    "contraction": (["--op"], ["--family", "--random", "--t"]),
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
