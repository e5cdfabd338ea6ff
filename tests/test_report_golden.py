"""Every report's CLI document against its recorded output.

``tests/data/reports.json`` holds the exit code and the SHA-256 of stdout
of ``quadfock --mode M ...`` for every argv in ``ARGVS``, in both modes.
The argvs reach every report's ``to_dict`` that has a CLI route:
``selfadjoint`` (structure and numeric) on three operators, ``contraction``
(Gram and L2), ``counterexample``, ``lemma4``, and ``nparticle`` with the
``as_printed`` ratios.  ``PowerCheckReport`` has no CLI route; its
``to_dict`` is compared with a literal dict below.

Regenerate the file with ``PYTHONPATH=src python tests/test_report_golden.py``,
only for a change that is meant to move a report.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quadfock import check_homomorphism_powers, dilation_operator
from quadfock.cli import main
from quadfock.stepfn import StepFunction

GOLDEN = Path(__file__).parent / "data" / "reports.json"

REFLECTION = '{"E": [[0,1]], "h": [[0,1,0.9,0]], "phi": [[0,1,-1,1]]}'
DILATION = '{"E": [[-8,8]], "h": [[-8,8,1,0]], "phi": [[-8,8,2,0]]}'
WEIGHT_2 = '{"E": [[0,1]], "h": [[0,1,2,0]], "phi": [[0,1,-1,1]]}'
# small values, so the weight-2 reflection keeps the images admissible
FAMILY = '[[[0,0.5,0.125,0.0625]],[[0.25,1,-0.1875,0.03125]],[[0.5,0.75,0.0625,-0.125]]]'
COEFFS = '[[1,0],[0.5,-0.25],[-0.75,0.5]]'
F = '[[0,0.5,0.125,0],[0.5,1,0.1875,0.0625]]'
G = '[[0,0.75,0.25,0],[0.75,1.5,-0.125,0.125]]'

COMMANDS = [
    *(["selfadjoint", "--op", op, *family]
      for op in (REFLECTION, DILATION, WEIGHT_2)
      for family in ([], ["--random", "3"], ["--family", FAMILY])),
    ["contraction", "--op", DILATION, "--random", "4"],
    ["contraction", "--op", DILATION, "--family", FAMILY, "--t", "0.5"],
    ["counterexample"],
    ["--c", "2", "counterexample"],
    ["counterexample", "--f", F, "--g", G],
    ["lemma4", "--random", "3"],
    ["lemma4", "--family", FAMILY, "--coeffs", COEFFS],
    ["nparticle", "--n", "4", "--formula", "as_printed", "--f", F, "--g", G],
]
ARGVS = [["--mode", mode, *command] for command in COMMANDS for mode in ("float", "exact")]


def record(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "code": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_recorded_argvs_are_the_argv_set():
    assert [rec["argv"] for rec in json.loads(GOLDEN.read_text())] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)))
def test_report_matches_recorded_output(index):
    want = json.loads(GOLDEN.read_text())[index]
    assert record(want["argv"]) == want


def test_power_check_report_to_dict():
    # M = 11 reaches the two-digit keys "10" and "11"
    T = dilation_operator(2)
    rep = check_homomorphism_powers(T, StepFunction.indicator(0, 1, 0.25 + 0j), 11)
    keys = [str(m) for m in range(2, 12)]
    assert rep.to_dict() == {"operator_equal": dict.fromkeys(keys, True),
                             "adjoint_equal": dict.fromkeys(keys, False)}


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(record(argv)) for argv in ARGVS) + "\n]\n")
