"""The seeded draws are born canonical, and verify-all builds no exact object
twice.

``families`` builds its step functions and operator weights directly, as
``StepFunction(tuple(segments))``, because their segments are already in
canonical form.  Canonicalising a draw again must give the same segment
tuples.  The counting guards below pin the work that this saves in
``run_all``: no ``from_segments`` call made from ``families``, and one table
of exact moment powers per pair in criterion 2's partition sums.
"""

import random
import sys

import pytest

import quadfock.fock as fock
from quadfock.acceptance import run_all
from quadfock.families import random_injective_operator, random_step_function
from quadfock.stepfn import StepFunction

SEEDS = range(200)


def assert_canonical(f):
    again = StepFunction.from_segments(f.segments)
    assert again == f
    assert again.segments == f.segments
    assert [tuple(map(type, s)) for s in again.segments] == \
        [tuple(map(type, s)) for s in f.segments]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("span", [2, 4, 6])
@pytest.mark.parametrize("max_abs", [0.3, 0.45])
def test_step_function_draws_are_canonical(exact, span, max_abs):
    for seed in SEEDS:
        rng = random.Random(seed)
        assert_canonical(random_step_function(rng, max_abs=max_abs, span=span, exact=exact))


@pytest.mark.parametrize("exact", [False, True])
def test_operator_weight_draws_are_canonical(exact):
    for seed in SEEDS:
        assert_canonical(random_injective_operator(random.Random(seed), exact=exact).h)


def test_run_all_makes_no_from_segments_call_from_families(monkeypatch):
    original = StepFunction.from_segments
    callers, built = [], []

    def from_segments(segments):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(segments)

    powers = fock._gaussian_powers
    monkeypatch.setattr(StepFunction, "from_segments", staticmethod(from_segments))
    monkeypatch.setattr(fock, "_gaussian_powers", lambda N, n: built.append(n) or powers(N, n))
    doc = run_all()
    assert doc["passed"]
    assert callers  # the guard sees the calls made elsewhere
    assert "quadfock.families" not in callers
    # one power table per pair of criterion 2, and none elsewhere
    assert built == [8] * doc["criteria"][1]["details"]["pairs"]
