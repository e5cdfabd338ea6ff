"""The seeded input stream against its recorded hash.

``random_family`` and ``random_injective_operator`` feed every randomised
criterion of ``verify-all`` and the CLI's ``--random K``.  The
``verify-all`` golden file does not pin them all: criterion 10 reports only
whether every operator passed.  This test hashes the exact form of a run of
draws per seed and mode (breakpoints as rationals, values by ``repr``), and
the generator's next float after them, so a change to what a draw is or to
how many numbers it consumes shows here.

Regenerate ``SHA256`` only for a change that is meant to move the stream.
"""

import hashlib
import json
import random

from quadfock.families import random_family, random_injective_operator, random_step_function

SHA256 = "c5e4806d0e68f5cfc8666ad391303f2547e171fe1889e42c06daaa31c5df30ff"


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
    assert stream_sha256() == SHA256


if __name__ == "__main__":
    print(stream_sha256())
