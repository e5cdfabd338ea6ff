"""No test module imports another, ``quantization`` imports no numpy,
every public name of ``quadfock`` is imported and listed once, ``cli``
reads ``--mode`` and loads JSON in one place each, ``cli`` hands no
tolerance to ``quantization``, whose verdicts are exact, ``quantization``
pulls h through phi in one place, and its self-adjointness report reads
phi's shape once.  Each reference is defined in one file, and every entry
of the mutant list in ``tests/mutants.py`` still applies to the tree and
names tests that exist.  Breakpoints are plain ``Fraction``s: ``scalars``
defines no subclass of it.

A reference implementation that two modules compare against lives in
``tests/_reference.py``; importing it from a test module would tie one
module's collection to the other's inputs and names.
"""

import ast
import re
from fractions import Fraction
from functools import cache
from pathlib import Path

import quadfock
from quadfock import scalars

TESTS = Path(__file__).parent


@cache
def parsed(path: Path) -> ast.Module:
    """The tree of a file, parsed once for all the tests below."""
    return ast.parse(path.read_text(), str(path))


def imported_modules(tree) -> list:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append((node.lineno, node.module))
    return names


def test_no_test_module_imports_another():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(TESTS.glob("test_*.py"))
             for line, name in imported_modules(parsed(path))
             if name.split(".")[0].startswith("test_")]
    assert found == []


def test_quantization_imports_no_numpy():
    # numpy's remaining jobs stay inside fock's Gram helpers
    path = Path(__file__).parent.parent / "src" / "quadfock" / "quantization.py"
    names = [name for _, name in imported_modules(ast.parse(path.read_text(), str(path)))]
    assert not [name for name in names if name.split(".")[0] == "numpy"]


def test_public_names_resolve():
    # a deleted name leaves neither a stale entry in __all__ nor a stray import
    path = Path(quadfock.__file__)
    imported = [alias.asname or alias.name
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    names = quadfock.__all__
    assert names == sorted(set(names))
    assert sorted(imported) == names
    assert all(hasattr(quadfock, name) for name in names)


def enclosing_functions(tree, match) -> list:
    """The top-level function, or "<module>", around each node match accepts."""
    return [getattr(top, "name", "<module>")
            for top in tree.body for node in ast.walk(top) if match(node)]


def cli_tree():
    path = Path(__file__).parent.parent / "src" / "quadfock" / "cli.py"
    return ast.parse(path.read_text(), str(path))


def test_cli_reads_mode_once():
    # the backend is decided in main, and every subcommand reads args.exact
    assert enclosing_functions(cli_tree(), lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "mode"
        and isinstance(node.value, ast.Name) and node.value.id == "args")) == ["main"]


def test_cli_loads_json_in_one_parse_path():
    # every JSON argument goes through _parse, which names what it rejects
    assert enclosing_functions(cli_tree(), lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_load_json")) == ["_parse"]


def test_cli_passes_no_tol_to_quantization():
    # a verdict of quantization is one exact answer, the same in both modes
    tree = cli_tree()
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "quantization"
             for alias in node.names}
    assert names
    assert enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in names and any(kw.arg == "tol" for kw in node.keywords))) == []


def quantization_tree():
    path = Path(__file__).parent.parent / "src" / "quadfock" / "quantization.py"
    return ast.parse(path.read_text(), str(path))


def called(tree, root) -> set:
    """Every name that root calls, and that the top-level functions it calls
    call, at any depth."""
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [root]
    while todo:
        for node in ast.walk(bodies[todo.pop()]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id not in seen:
                seen.add(node.func.id)
                if node.func.id in bodies:
                    todo.append(node.func.id)
    return seen


def test_quantization_pulls_h_through_phi_once():
    # one atom list: the adjoint, the Hermitian test and the boundedness
    # cells read _atoms, the two verdicts build no adjoint operator, and the
    # Hermitian test inverts no map
    tree = quantization_tree()
    assert enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_sweep")) == ["_atoms"]
    assert "_pull_back" not in {alias.name for node in ast.walk(tree)
                                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for verdict in ("adjoint_operator", "check_selfadjoint_structure", "boundedness_report"):
        assert "_atoms" in called(tree, verdict)
    for verdict in ("check_selfadjoint_structure", "boundedness_report"):
        assert "adjoint_operator" not in called(tree, verdict)
    assert "map_invert" not in called(tree, "check_selfadjoint_structure")


def test_quantization_decides_phis_shape_once():
    # the three phi conditions are read off the witness's one overlap scan
    # and its phi/phi^-1 comparison, not rebuilt from phi o phi
    tree = quantization_tree()
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"map_compose", "is_measure_preserving"}
    assert enclosing_functions(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_images_overlap")) == ["check_selfadjoint_structure"]


def test_each_reference_is_defined_once():
    # one oracle per quantity: a ref_ or reference_ name in two files is two
    files = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("ref_", "reference_")):
                files.setdefault(node.name, set()).add(path.name)
    assert {name: found for name, found in files.items() if len(found) > 1} == {}


def test_breakpoints_are_plain_fractions():
    # one rational type, which the kernels build in Fraction's normal form:
    # no subclass of Fraction, and no file names the one that was deleted
    assert [name for name, value in vars(scalars).items() if isinstance(value, type)
            and issubclass(value, Fraction) and value is not Fraction] == []
    src = Path(scalars.__file__).parent
    assert [path.name for path in sorted([*src.glob("*.py"), *TESTS.glob("*.py")])
            if path.name != Path(__file__).name
            and re.search(r"\b_Rat\b", path.read_text())] == []


def test_mutant_list_applies_and_names_existing_tests():
    # the runner is by hand; this keeps its list in step with src and tests
    (mutants,) = [node.value for node in parsed(TESTS / "mutants.py").body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MUTANTS"]
    entries = ast.literal_eval(mutants)
    assert len({name for name, *_ in entries}) == len(entries)
    for name, file, old, new, node_ids in entries:
        assert (TESTS.parent / file).read_text().count(old) == 1, name
        assert new != old and node_ids, name
        for node_id in node_ids:
            test_file, *names = node_id.split("[")[0].split("::")
            body = parsed(TESTS.parent / test_file).body
            for cls in names[:-1]:  # the classes around the test function
                body = next((node.body for node in body
                             if isinstance(node, ast.ClassDef) and node.name == cls), [])
            assert any(isinstance(node, ast.FunctionDef) and node.name == names[-1]
                       for node in body), (name, node_id)
