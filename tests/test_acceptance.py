"""Acceptance suite: one test per criterion, each printing a pass/fail line,
and each criterion's failure branch, reached by replacing the one name it
compares against."""

import json
from fractions import Fraction

import pytest

from quadfock import acceptance, fock
from quadfock.acceptance import CRITERIA
from quadfock.cli import main
from quadfock.fock import GRAM_DEPTH
from quadfock.quantization import DerivativeCheckReport
from quadfock.scalars import ExactComplex
from quadfock.stepfn import StepFunction


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion, capsys):
    result = criterion()
    status = "PASS" if result["passed"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {result['id']:2d}: {result['name']}")
    assert result["passed"], result["details"]


def test_a_crashing_criterion_fails_in_place(capsys, monkeypatch):
    # run_all reports the crash as that criterion's failure and runs the rest
    def criterion_3():
        raise RuntimeError("no result")

    monkeypatch.setattr(acceptance, "CRITERIA", [*CRITERIA[:2], criterion_3, *CRITERIA[3:]])
    assert main(["verify-all"]) == 1
    doc = json.loads(capsys.readouterr().out)  # one JSON document
    assert doc["passed"] is False
    assert [c["id"] for c in doc["criteria"]] == list(range(1, 11))
    assert doc["criteria"][2] == {"id": 3, "name": "criterion_3", "passed": False,
                                  "details": {"error": "RuntimeError('no result')"}}
    assert all(c["passed"] for k, c in enumerate(doc["criteria"]) if k != 2)


class _MovedClosed(fock._Signature):
    def closed(self, cfg):
        return super().closed(cfg) + 1


def _lemma4_report(*fields):
    return lambda family, coeffs, cfg: DerivativeCheckReport(*fields)


def _repeated_family(rng, size, **kwargs):
    """A family whose members are all one function: its Gram matrix is singular."""
    return [StepFunction.indicator(0, 1, ExactComplex.of(Fraction(1, 4)))] * size


@pytest.mark.parametrize("criterion, name, value, passed", [
    (acceptance.criterion_2, "_partition_sums", lambda m, ns, cfg, formula: [], False),
    (acceptance.criterion_2, "_Signature", _MovedClosed, False),
    (acceptance.criterion_3, "partition_coefficient", lambda multi, n, mode: Fraction(1), False),
    # a zero combination is skipped, so no draw is left to fail
    (acceptance.criterion_6, "lemma4_derivative_check", _lemma4_report(0, 0, 0, 0, 0, 0), True),
    (acceptance.criterion_6, "lemma4_derivative_check", _lemma4_report(0, 1, 0.5, 1, 1, 2), False),
    (acceptance.criterion_8, "exp_inner_closed", lambda f, g, cfg: 1 + 0j, False),
    (acceptance.criterion_9, "random_family", _repeated_family, False),
    (acceptance.criterion_10, "adjoint_operator", lambda T: T, False),
], ids=["c2-exact", "c2-float", "c3", "c6-zero", "c6-rel-error", "c8", "c9", "c10"])
def test_a_criterion_fails_where_its_check_fails(criterion, name, value, passed, monkeypatch):
    monkeypatch.setattr(acceptance, name, value)
    assert criterion()["passed"] is passed


def test_criterion_9_reports_each_draw_that_fails(monkeypatch):
    # every draw runs to the cap, and its second leading minor is 0
    monkeypatch.setattr(acceptance, "random_family", _repeated_family)
    details = acceptance.criterion_9()["details"]
    assert details["depths"] == [GRAM_DEPTH] * 20
    assert details["failures"] == [{"draw": k, "leading_minor": 2} for k in range(20)]
