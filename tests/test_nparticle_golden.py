"""Exact ``quadfock nparticle`` against ``tests/data/nparticle_exact.json``."""

import pytest

from _golden import ARGVS, record, recorded

NAME = "nparticle_exact"


def test_recorded_argvs_are_the_argv_set():
    assert [rec["argv"] for rec in recorded(NAME)] == ARGVS[NAME]


@pytest.mark.parametrize("index", range(len(ARGVS[NAME])))
def test_exact_nparticle_matches_recorded_output(index):
    want = recorded(NAME)[index]
    assert record(NAME, want["argv"]) == want
