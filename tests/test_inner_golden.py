"""``quadfock inner`` against its recorded output.

``tests/data/inner.json`` holds the exit code and the SHA-256 of stdout of
``quadfock --mode M inner ...`` for every argv in ``ARGVS``, in both modes:
a pair with two segments each, a zero function, and an inadmissible pair
(exit 2, empty stdout).

Regenerate the file with ``PYTHONPATH=src python tests/test_inner_golden.py``,
only for a change that is meant to move ``inner``'s output.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quadfock.cli import main

GOLDEN = Path(__file__).parent / "data" / "inner.json"

# the pair of tests/test_report_golden.py
F = '[[0,0.5,0.125,0],[0.5,1,0.1875,0.0625]]'
G = '[[0,0.75,0.25,0],[0.75,1.5,-0.125,0.125]]'

COMMANDS = [
    ["inner", "--f", F, "--g", G],
    ["inner", "--f", "[]", "--g", G],
    ["inner", "--f", '[[0,1,0.5,0]]', "--g", G],
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
def test_inner_matches_recorded_output(index):
    want = json.loads(GOLDEN.read_text())[index]
    assert record(want["argv"]) == want


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(record(argv)) for argv in ARGVS) + "\n]\n")
