"""Tests of the benchmark itself: spans, self times, counts, failure accounting.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, Group, json_mismatch, load_quadfock

MAIN = load_quadfock()

# A cheap slice of each workload's first round, by group label.
SLICES = {
    "verify-all": {"verify-all"},
    "long-steps": {"inner N=32", "nparticle N=32"},
    "families": {"nparticle n=12", "selfadjoint reflection K=4",
                 "selfadjoint dilation K=4", "contraction dilation K=4",
                 "lemma4 float K=4", "counterexample"},
}


def traced_run(name, seed=7):
    workload = WORKLOADS[name](seed)
    groups = [g for g in workload.round(0) if g.label in SLICES[name]]
    loop = run.Loop(MAIN, workload)
    with Tracer() as tracer:
        loop.run_round(groups, tracer)
    assert loop.failures == []
    return loop, tracer


@pytest.fixture(scope="module", params=sorted(SLICES))
def traced(request):
    return request.param, traced_run(request.param)


def test_spans_nest(traced):
    _, (loop, tracer) = traced
    spans = tracer.spans
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"] * loop.attempted
    for name, start, end, parent, op in spans:
        assert start <= end
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert op == p_op


def test_self_times_add_up_to_each_operation(traced):
    _, (_, tracer) = traced
    self_times = tracer.self_times()
    assert min(self_times) >= 0
    per_op: dict = {}
    for (_, start, end, parent, op), s in zip(tracer.spans, self_times):
        per_op[op] = per_op.get(op, 0.0) + s
        if parent < 0:
            per_op[("root", op)] = end - start
    for op in [k for k in per_op if not isinstance(k, tuple)]:
        assert per_op[op] == pytest.approx(per_op[("root", op)], abs=1e-9)


def test_counts_repeat_exactly(traced):
    name, (_, first) = traced
    _, second = traced_run(name)
    counts = {k: v for k, v in first.layer_metrics().items() if isinstance(v, int)}
    again = {k: v for k, v in second.layer_metrics().items() if isinstance(v, int)}
    assert counts == again
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]


def test_long_steps_builds_no_exact_scalar(traced):
    name, (_, tracer) = traced
    metrics = tracer.layer_metrics()
    if name == "long-steps":
        assert metrics["scalars.mul.calls"] == metrics["scalars.add.calls"] == 0
        assert metrics["stepfn.refine.cells"] > 0
    else:
        assert metrics["scalars.mul.calls"] > 0


def test_uninstall_restores_every_binding():
    import quadfock.acceptance as acceptance
    import quadfock.fock as fock
    import quadfock.stepfn as stepfn
    from quadfock.scalars import ExactComplex

    before = (fock.inner, stepfn.inner, list(acceptance.CRITERIA),
              ExactComplex.__dict__["__mul__"], stepfn.StepFunction.__dict__["from_json"])
    with Tracer():
        assert fock.inner is stepfn.inner is not before[0]
        assert acceptance.CRITERIA[0] is acceptance.criterion_1 is not before[2][0]
    after = (fock.inner, stepfn.inner, list(acceptance.CRITERIA),
             ExactComplex.__dict__["__mul__"], stepfn.StepFunction.__dict__["from_json"])
    assert after == before


def _fake_main(stdout, code=0, raises=None):
    def main(argv):
        if raises:
            raise raises
        print(stdout)
        return code
    return main


@pytest.mark.parametrize("main, failed", [
    (_fake_main('{"ok": 1}'), 0),
    (_fake_main('{"ok": 1}', code=1), 1),
    (_fake_main('{"ok": 1}\n{"ok": 1}'), 1),
    (_fake_main('{"ok": 2}'), 1),
    (_fake_main("", raises=TypeError("complex * ExactComplex")), 1),
])
def test_failure_accounting(main, failed):
    def oracle(results):
        return None if results[0].doc == {"ok": 1} else "wrong value"

    loop = run.Loop(main, WORKLOADS["verify-all"](0))
    loop.run_round([Group([["x"]], [0], oracle, "fake")])
    assert (loop.attempted, loop.failed, len(loop.ok_times)) == (1, failed, 1 - failed)


def test_backend_comparison_ignores_only_backend_specific_fields():
    exact = {"numeric": {"defect": 0.0, "exact_zero": True}, "verdict": False}
    float_ = {"numeric": {"defect": 3e-17, "exact_zero": False}, "verdict": False}
    assert json_mismatch(exact, float_) is None
    float_["numeric"]["defect"] = 1e-6
    assert json_mismatch(exact, float_) == "$.numeric.defect"
    assert json_mismatch(json.loads("[1, 2]"), [1, 2, 3]) == "$ length"
