"""The CLI's recorded documents under ``tests/data`` and the seeded input stream.

``verify_all.json`` is the stdout of ``quadfock verify-all``: the ten verdicts
and every detail that is not a float must match bit for bit, a float detail
within 1e-12 relative, so a change that reorders float arithmetic shows here
before it shows in a verdict.  ``inner.json`` and ``reports.json`` pin the
exit code and stdout SHA-256 of every argv of ``tests/_golden.py``
(``nparticle_exact.json`` is checked in ``test_nparticle_golden.py``).
``PowerCheckReport`` has no CLI route; its ``to_dict`` is compared with a
literal dict.  The seeded draws are pinned by ``STREAM_SHA256``.

Re-record only for a change that is meant to move an output:
``PYTHONPATH=src python tests/test_golden.py`` rewrites every file under
``tests/data`` and prints each entry whose bytes moved.
"""

import hashlib
import json
import math
import random

import pytest

from quadfock import dilation_operator
from quadfock.families import random_family, random_injective_operator, random_step_function
from quadfock.quantization import check_homomorphism_powers
from quadfock.stepfn import StepFunction

from _golden import ARGVS, DATA, record, recorded, run

FLOAT_REL_TOL = 1e-12


# --- the recorded documents --------------------------------------------------


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


def test_verify_all_matches_recorded_output():
    code, stdout = run(["verify-all"])
    doc = json.loads(stdout)
    want = recorded("verify_all")
    assert code == 0
    assert [c["passed"] for c in doc["criteria"]] == [True] * 10
    assert_matches(doc, want)


@pytest.mark.parametrize("name", ["inner", "reports"])
def test_recorded_argvs_are_the_argv_set(name):
    assert [rec["argv"] for rec in recorded(name)] == ARGVS[name]


@pytest.mark.parametrize("name, index", [(name, i) for name in ("inner", "reports")
                                         for i in range(len(ARGVS[name]))])
def test_output_matches_recorded_output(name, index):
    want = recorded(name)[index]
    assert record(name, want["argv"]) == want


def test_power_check_report_to_dict():
    # M = 11 reaches the two-digit keys "10" and "11"
    T = dilation_operator(2)
    rep = check_homomorphism_powers(T, StepFunction.indicator(0, 1, 0.25 + 0j), 11)
    keys = [str(m) for m in range(2, 12)]
    assert rep.to_dict() == {"operator_equal": dict.fromkeys(keys, True),
                             "adjoint_equal": dict.fromkeys(keys, False)}


# --- the seeded input stream -------------------------------------------------

# the draws that feed every randomised criterion and ``--random K``, which
# verify_all.json does not pin in full (criterion 10 reports one flag): a run
# of draws per seed and mode, breakpoints as rationals and values by ``repr``,
# and the generator's next float, so what a draw is and how many numbers it
# consumes both show here
STREAM_SHA256 = "c5e4806d0e68f5cfc8666ad391303f2547e171fe1889e42c06daaa31c5df30ff"


def step(f) -> list:
    return [[str(l), str(r), repr(v)] for l, r, v in f.segments]


def operator(T) -> dict:
    return {"E": [[str(l), str(r)] for l, r in T.E.intervals],
            "h": step(T.h),
            "phi": [[str(p.left), str(p.right), str(p.slope), str(p.intercept)]
                    for p in T.phi.pieces]}


def draws(seed: int, exact: bool) -> dict:
    rng = random.Random(seed)
    return {
        "step": step(random_step_function(rng, exact=exact)),
        "family": [step(f) for f in random_family(rng, 3, exact=exact)],
        "wide": [step(f) for f in random_family(rng, 4, max_abs=0.45, exact=exact)],
        "long": [step(f) for f in random_family(rng, 2, exact=exact, span=6)],
        "operators": [operator(random_injective_operator(rng, exact=exact))
                      for _ in range(5)],
        "next": rng.random(),
    }


def stream_sha256() -> str:
    doc = [draws(seed, exact) for seed in range(20) for exact in (False, True)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_seeded_draws_match_recorded_hash():
    assert stream_sha256() == STREAM_SHA256


# --- re-recording ------------------------------------------------------------


def entries(text: str) -> dict:
    """A golden file's entries by label: each argv, or each verify-all criterion."""
    doc = json.loads(text or "[]")
    if isinstance(doc, dict):  # verify_all.json: each criterion, then the overall verdict
        labelled = {f"criterion {c['id']}": c for c in doc.pop("criteria")}
        return {label: json.dumps(c) for label, c in {**labelled, "passed": doc}.items()}
    return {" ".join(rec["argv"]): json.dumps(rec) for rec in doc}


if __name__ == "__main__":
    texts = {name: "[\n" + ",\n".join(json.dumps(record(name, argv)) for argv in argvs) + "\n]\n"
             for name, argvs in ARGVS.items()}
    texts["verify_all"] = run(["verify-all"])[1]
    for name, text in texts.items():
        path = DATA / f"{name}.json"
        old, new = entries(path.read_text() if path.exists() else ""), entries(text)
        for label in old | new:
            if old.get(label) != new.get(label):
                print(f"{name}: {label}")
        path.write_text(text)
    if stream_sha256() != STREAM_SHA256:
        print(f"STREAM_SHA256 moved: {stream_sha256()}")
