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
    name, passed, details = criterion()
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {CRITERIA.index(criterion) + 1:2d}: {name}")
    assert passed, details


def test_run_all_numbers_the_records_in_list_order(monkeypatch):
    # an id is a criterion's place in the list: reversed, criterion_10's
    # record comes first, with id 1, and each keeps its own name and verdict
    order = CRITERIA[::-1]
    monkeypatch.setattr(acceptance, "CRITERIA", order)
    records = acceptance.run_all()["criteria"]
    assert [r["id"] for r in records] == list(range(1, 11))
    assert [(r["name"], r["passed"], r["details"]) for r in records] == [fn() for fn in order]


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
    assert criterion()[1] is passed


def test_criterion_9_reports_each_draw_that_fails(monkeypatch):
    # every draw runs to the cap, and its second leading minor is 0
    monkeypatch.setattr(acceptance, "random_family", _repeated_family)
    _, _, details = acceptance.criterion_9()
    assert details["depths"] == [GRAM_DEPTH] * 20
    assert details["failures"] == [{"draw": k, "leading_minor": 2} for k in range(20)]
