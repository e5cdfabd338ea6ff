"""The argvs of ``inner.json``, ``nparticle_exact.json`` and ``reports.json``
under ``tests/data``, and the one way to record an argv's exit code, stdout
SHA-256 and, for ``nparticle_exact``, its three result fields."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from quadfock.cli import main

DATA = Path(__file__).parent / "data"

F = '[[0,0.5,0.125,0],[0.5,1,0.1875,0.0625]]'
G = '[[0,0.75,0.25,0],[0.75,1.5,-0.125,0.125]]'

# a pair with two segments each, a zero function, and an inadmissible pair
# (exit 2, empty stdout); the pair again under the largest cap, and under a
# cap below the depth its tail bound needs (exit 1, empty stdout)
INNER = [
    ["inner", "--f", F, "--g", G],
    ["inner", "--f", "[]", "--g", G],
    ["inner", "--f", '[[0,1,0.5,0]]', "--g", G],
    ["--depth", "2000", "inner", "--f", F, "--g", G],
    ["--depth", "3", "inner", "--f", F, "--g", G],
]

# three pairs of 3-segment functions, n in {0, 1, 2, 8, 16, 24}, both formulas
# and three values of c, plus one n = 40 run; ``as_printed`` is undefined at n = 0
NPARTICLE_PAIRS = [
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

# every report's to_dict that has a CLI route: selfadjoint (structure and
# numeric) on five operators, contraction (boundedness and L2), counterexample,
# lemma4, and nparticle with the as_printed ratios
REFLECTION = '{"E": [[0,1]], "h": [[0,1,0.9,0]], "phi": [[0,1,-1,1]]}'
DILATION = '{"E": [[-8,8]], "h": [[-8,8,1,0]], "phi": [[-8,8,2,0]]}'
WEIGHT_2 = '{"E": [[0,1]], "h": [[0,1,2,0]], "phi": [[0,1,-1,1]]}'
# T = T* on L^2, and Gamma_2(T) is not Hermitian; and a fold, whose T* is
# no weighted composition, so its adjoint defect is null
SWAP = ('{"E": [[0,3]], "h": [[0,1,0.5,0.5],[1,3,0.25,-0.25]], '
        '"phi": [[0,1,2,1],[1,3,0.5,-0.5]]}')
FOLD = '{"E": [[-1,1]], "h": [[-1,1,0.25,0]], "phi": [[-1,0,-1,0],[0,1,1,0]]}'
# small values, so the weight-2 reflection keeps the images admissible
FAMILY = '[[[0,0.5,0.125,0.0625]],[[0.25,1,-0.1875,0.03125]],[[0.5,0.75,0.0625,-0.125]]]'
COEFFS = '[[1,0],[0.5,-0.25],[-0.75,0.5]]'
REPORTS = [
    *(["selfadjoint", "--op", op, *family]
      for op in (REFLECTION, DILATION, WEIGHT_2, SWAP, FOLD)
      for family in ([], ["--random", "3"], ["--family", FAMILY])),
    ["contraction", "--op", DILATION, "--random", "4"],
    ["contraction", "--op", DILATION, "--family", FAMILY],
    ["counterexample"],
    ["--c", "2", "counterexample"],
    ["counterexample", "--f", F, "--g", G],
    ["lemma4", "--random", "3"],
    ["lemma4", "--family", FAMILY, "--coeffs", COEFFS],
    ["nparticle", "--n", "4", "--formula", "as_printed", "--f", F, "--g", G],
]

ARGVS = {
    "inner": [["--mode", mode, *command] for command in INNER for mode in ("float", "exact")],
    "nparticle_exact": [
        ["--mode", "exact", "--c", c, "nparticle", "--n", str(n), "--formula", formula,
         "--f", f, "--g", g]
        for f, g in NPARTICLE_PAIRS for c in CS for formula in ("corrected", "as_printed")
        for n in NS if not (formula == "as_printed" and n == 0)
    ] + [["--mode", "exact", "--c", "1", "nparticle", "--n", "40",
          "--f", NPARTICLE_PAIRS[0][0], "--g", NPARTICLE_PAIRS[0][1]]],
    "reports": [["--mode", mode, *command] for command in REPORTS for mode in ("float", "exact")],
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def record(name: str, argv) -> dict:
    code, stdout = run(argv)
    rec = {"argv": argv, "code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    if name == "nparticle_exact":
        doc = json.loads(stdout) if stdout else {}
        rec.update((key, doc.get(key)) for key in ("value", "rec_value", "match"))
    return rec


def recorded(name: str):
    return json.loads((DATA / f"{name}.json").read_text())
