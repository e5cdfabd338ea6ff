"""Lines of ``src/quadfock`` that no test executes.

    PYTHONPATH=src python tests/uncovered.py [pytest args ...]

runs the Tier-1 suite (``pytest -q``, from the repository root, with the
given arguments appended) in this process under a ``sys.settrace`` line
tracer limited to ``src/quadfock``.  Then it prints every line of those
files that holds bytecode and that no test executed, as ``file:line:
text``, and their count, and exits with pytest's code.  A line that runs
only in a subprocess, such as ``cli``'s ``__main__`` guard, counts as
unexecuted.  pytest does not collect this file; it runs by hand.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadfock"


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


def main(args: list) -> int:
    executed: dict = {}  # co_filename -> the set of its executed lines, or None outside SRC

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in executed:
            executed[name] = set() if Path(name).resolve().parent == SRC else None
        return None if executed[name] is None else local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict = {}
    for name, lines in executed.items():
        if lines is not None:
            ran.setdefault(Path(name).resolve(), set()).update(lines)
    missing = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for n in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
            missing += 1
    print(f"{missing} lines of src/quadfock unexecuted")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
