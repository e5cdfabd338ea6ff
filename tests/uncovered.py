"""Lines of ``src/quadfock`` that no test executes, and the lines each test
function executes.

    PYTHONPATH=src python tests/uncovered.py [--lines OUT.json] [pytest args ...]

copies the checkout into a snapshot in a temporary directory
(``mutants.snapshot``) and runs the Tier-1 suite there (``pytest -q`` with
the fixed hypothesis seed ``mutants.SEED`` and the given arguments
appended), in this process, under a ``sys.settrace`` line tracer limited to
the snapshot's ``src/quadfock``.  Then it prints every line of those files
that holds bytecode and that no test executed, as ``file:line: text``, and
their count, and exits with pytest's code.  A line that runs only in a
subprocess, such as ``cli``'s ``__main__`` guard, counts as unexecuted.
With ``--lines``, it also writes OUT.json: for each test function (all the
cases of a parametrized test under one key, ``mutants.function``), the
sorted ``file:line`` it executed.  pytest does not collect this file; it
runs by hand.
"""

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from mutants import SEED, function, snapshot


def executable_lines(path: Path) -> set:
    """The lines that hold bytecode in the module at ``path``, in its
    nested code objects too."""
    code = compile(path.read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


class Recorder:
    """A line tracer that files each executed line under the test function
    that runs it, or under ``None`` outside any test."""

    def __init__(self, src: Path):
        self.src = src
        self.inside: dict = {}  # co_filename -> whether it is a file of src
        self.by_test: dict = {None: {}}  # test function -> co_filename -> lines
        self.now = self.by_test[None]

    def tracer(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.inside:
            self.inside[name] = Path(name).resolve().parent == self.src
        return self.local if self.inside[name] else None

    def local(self, frame, event, arg):
        if event == "line":
            self.now.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return self.local

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item):
        self.now = self.by_test.setdefault(function(item.nodeid), {})
        try:
            return (yield)
        finally:
            self.now = self.by_test[None]


def main(args: list) -> int:
    out = None
    if args[:1] == ["--lines"]:
        out, args = Path(args[1]).resolve(), args[2:]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = snapshot(Path(tmp).resolve())
        src = root / "src" / "quadfock"
        sys.path.insert(0, str(root / "src"))
        os.environ["PYTHONPATH"] = str(root / "src")
        os.chdir(root)
        rec = Recorder(src)
        threading.settrace(rec.tracer)
        sys.settrace(rec.tracer)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", f"--hypothesis-seed={SEED}",
                                *args], plugins=[rec])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        ran: dict = {}  # test function -> its set of "file:line"
        for test, files in rec.by_test.items():
            ran[test] = {f"{Path(name).resolve().relative_to(root)}:{n}"
                         for name, lines in files.items() for n in lines}
        everything = set().union(*ran.values())
        missing = 0
        for path in sorted(src.glob("*.py")):
            text = path.read_text().splitlines()
            rel = path.relative_to(root)
            for n in sorted(executable_lines(path)):
                if f"{rel}:{n}" not in everything:
                    print(f"{rel}:{n}: {text[n - 1].strip()}")
                    missing += 1
        print(f"{missing} lines of src/quadfock unexecuted")
        os.chdir(here)
    if out:
        del ran[None]
        out.write_text(json.dumps({t: sorted(v) for t, v in sorted(ran.items())}, indent=0))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
