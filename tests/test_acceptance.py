"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import json

import pytest

from quadfock import acceptance
from quadfock.acceptance import CRITERIA
from quadfock.cli import main


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
