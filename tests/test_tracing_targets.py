"""Every name that ``perfbench/tracing.py`` wraps exists in quadfock.

``Tracer.install`` replaces ``owner.__dict__[attr]`` for each entry of
``SPANS``, ``COUNTED`` and ``GENERATORS``, where the owner is the quadfock
module or, for a ``Class.attr`` entry, the class.  A name deleted from
quadfock but still listed there breaks only ``perfbench/run.py --trace 1``;
this test reads the lists from the file and resolves each entry the same
way, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    tracing = load_tracing()
    return [(modname, attr)
            for table in (tracing.SPANS, tracing.COUNTED, tracing.GENERATORS)
            for modname, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("modname,attr", targets())
def test_traced_name_resolves(modname, attr):
    owner = importlib.import_module(f"quadfock.{modname}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))
    assert attr in vars(owner), f"{owner.__name__} defines no {attr} of its own"
