"""``quadfock verify-all`` against its recorded output.

``tests/data/verify_all.json`` is the stdout of ``quadfock verify-all``.  The
ten verdicts and every detail that is not a float (flags, counts, names,
partitions) must match bit for bit; a float detail may move by at most
1e-12 relative, so a change that reorders float arithmetic shows here
before it shows in a verdict.  Regenerate the file only for a change that is
meant to move a detail, and say which one moved.
"""

import json
import math
from pathlib import Path

from quadfock.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_all.json"
FLOAT_REL_TOL = 1e-12


def assert_matches(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_verify_all_matches_recorded_output(capsys):
    code = main(["verify-all"])
    doc = json.loads(capsys.readouterr().out)
    want = json.loads(GOLDEN.read_text())
    assert code == 0
    assert [c["passed"] for c in doc["criteria"]] == [True] * 10
    assert_matches(doc, want)
