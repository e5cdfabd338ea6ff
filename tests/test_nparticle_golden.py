"""Exact ``quadfock nparticle`` against its recorded output.

``tests/data/nparticle_exact.json`` holds the stdout and exit code of
``quadfock --mode exact --c C nparticle ...`` for every argv in ``ARGVS``:
three pairs of 3-segment functions, n in {0, 1, 2, 8, 16, 24}, both
formulas and three values of c, plus one n = 40 run.  Exact results must
stay bit for bit the same, so stdout is compared byte for byte through its
SHA-256; the file also keeps the three result fields of each document, so a
failure shows which number moved.  The ``as_printed`` formula is left out
at n = 0, where it is undefined.

Regenerate the file with ``PYTHONPATH=src python tests/test_nparticle_golden.py``,
only for a change that is meant to move an exact result.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quadfock.cli import main

GOLDEN = Path(__file__).parent / "data" / "nparticle_exact.json"

PAIRS = [
    # dyadic breakpoints and values
    ('[[0,0.5,0.125,0.0625],[0.5,1.25,-0.1875,0.03125],[1.5,2,0.0625,-0.125]]',
     '[[0.25,0.75,0.09375,0],[0.75,1.75,0.125,0.125],[1.75,3,-0.0625,0.1875]]'),
    # decimals: every double is read exactly, so the denominators are 2^50 and more
    ('[[0,0.3,0.1,0.2],[0.3,0.7,-0.2,0.05],[0.7,1.1,0.15,-0.1]]',
     '[[0.1,0.4,0.2,-0.1],[0.4,0.9,0.05,0.25],[0.9,1.3,-0.1,0.1]]'),
    # f = g on overlapping thirds: every moment is real
    ('[[0,0.3333333333333333,0.25,0],[0.5,1,-0.125,0.125],[1,1.5,0.2,-0.05]]',
     '[[0,0.3333333333333333,0.25,0],[0.5,1,-0.125,0.125],[1,1.5,0.2,-0.05]]'),
]
CS = ["1", "0.5", "0.4285714285714286"]
NS = [0, 1, 2, 8, 16, 24]

ARGVS = [
    ["--mode", "exact", "--c", c, "nparticle", "--n", str(n), "--formula", formula,
     "--f", f, "--g", g]
    for f, g in PAIRS for c in CS for formula in ("corrected", "as_printed")
    for n in NS if not (formula == "as_printed" and n == 0)
] + [["--mode", "exact", "--c", "1", "nparticle", "--n", "40",
      "--f", PAIRS[0][0], "--g", PAIRS[0][1]]]


def record(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    stdout = out.getvalue()
    doc = json.loads(stdout) if stdout else {}
    return {"argv": argv, "code": code,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            **{key: doc.get(key) for key in ("value", "rec_value", "match")}}


def test_recorded_argvs_are_the_argv_set():
    assert [rec["argv"] for rec in json.loads(GOLDEN.read_text())] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)))
def test_exact_nparticle_matches_recorded_output(index):
    want = json.loads(GOLDEN.read_text())[index]
    assert record(want["argv"]) == want


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(record(argv)) for argv in ARGVS) + "\n]\n")
