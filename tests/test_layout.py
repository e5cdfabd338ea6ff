"""No test module imports another, ``quantization`` imports no numpy,
every public name of ``quadfock`` is imported and listed once, ``cli``
reads ``--mode`` and loads JSON in one place each, ``cli`` hands no
tolerance to ``quantization``, whose verdicts are exact, and
``quantization`` pulls h through phi in one place.

A reference implementation that two modules compare against lives in
``tests/_reference.py``; importing it from a test module would tie one
module's collection to the other's inputs and names.
"""

import ast
from pathlib import Path

import quadfock


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
             for path in sorted(Path(__file__).parent.glob("test_*.py"))
             for line, name in imported_modules(ast.parse(path.read_text(), str(path)))
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
