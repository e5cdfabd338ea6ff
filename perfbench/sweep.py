"""Scaling sweep of single library calls, for information only.

    python3 perfbench/sweep.py

Regenerates the baseline table of ROADMAP.md: ``inner``,
``exp_inner_closed``, float ``moments`` at K=40 and exact ``moments`` at
K=10 for N in {50, 400} segments per function; the recursion and partition
sums for n in {4, 12, 24} in both backends; Gram matrices for family sizes
{4, 16}.  Each point reports the median of up to REPEATS calls; a point whose
first call takes longer than BUDGET_S seconds is called once.  This is not
one of the gated workloads: it has no oracle and no bound.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import random
import statistics
import time

from workloads import contiguous_steps, load_quadfock, sparse_steps, steps_json

REPEATS = 3
SEED = 0
BUDGET_S = 5.0
SEGMENTS = (50, 400)
PARTICLES = (4, 12, 24)
FAMILY_SIZES = (4, 16)
DENOM = 256   # breakpoint grid: 400 adjacent segments need 401 points in [0, 4]


def median_time(fn) -> tuple[float, int]:
    times = []
    while len(times) < REPEATS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if times[0] > BUDGET_S:
            break
    return statistics.median(times), len(times)


def points(seed: int):
    """(name, parameters, zero-argument call) for every point of the sweep."""
    from quadfock import (FockConfig, StepFunction, exp_inner_closed, gram_matrix,
                          inner, moments, n_particle_inner_partition,
                          n_particle_inner_rec)
    from quadfock.families import random_family
    from fractions import Fraction

    rng = random.Random(f"sweep:{seed}")

    def load(segs, denom, exact):
        return StepFunction.from_json(json.loads(steps_json(segs, denom)), exact=exact)

    cfg = FockConfig()
    for n in SEGMENTS:
        f_segs, g_segs = (contiguous_steps(rng, n, DENOM) for _ in range(2))
        f, g = load(f_segs, DENOM, False), load(g_segs, DENOM, False)
        fe, ge = load(f_segs, DENOM, True), load(g_segs, DENOM, True)
        yield "inner", {"N": n, "mode": "float"}, lambda: inner(f, g)
        yield "exp_inner_closed", {"N": n, "mode": "float"}, lambda: exp_inner_closed(f, g, cfg)
        yield "moments", {"N": n, "K": 40, "mode": "float"}, lambda: moments(f, g, 40)
        yield "moments", {"N": n, "K": 10, "mode": "exact"}, lambda: moments(fe, ge, 10)

    f_segs, g_segs = (sparse_steps(rng, 3, 4) for _ in range(2))
    for exact, c in ((True, Fraction(1)), (False, 1.0)):
        mode = "exact" if exact else "float"
        m = moments(load(f_segs, 4, exact), load(g_segs, 4, exact), max(PARTICLES))
        cfg_n = FockConfig(c=c)
        for n in PARTICLES:
            yield ("recursion", {"n": n, "mode": mode},
                   lambda n=n: n_particle_inner_rec(m, n, cfg_n))
            yield ("partition", {"n": n, "mode": mode},
                   lambda n=n: n_particle_inner_partition(m, n, cfg_n))
        for size in FAMILY_SIZES:
            family = random_family(random.Random(seed), size, exact=exact)
            yield ("gram_matrix", {"family": size, "mode": mode},
                   lambda family=family: gram_matrix(family, cfg))


def main() -> int:
    load_quadfock()
    from run import fingerprint

    rows = []
    for name, params, fn in points(SEED):
        median_s, samples = median_time(fn)
        row = {"point": name, **params, "median_s": median_s, "samples": samples}
        print(json.dumps(row), flush=True)
        rows.append(row)
    print(json.dumps({"sweep": rows, "seed": SEED, "fingerprint": fingerprint()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
