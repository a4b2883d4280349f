"""Checks on the layout of the package source.

Oracles used only by the tests live in tests/, so every top-level private
function, class or constant of src/stoprule must be referenced somewhere in
src/stoprule outside its own definition.
"""

import ast
from pathlib import Path

import stoprule

SOURCES = sorted(Path(stoprule.__file__).parent.glob("*.py"))


def _defined_names(stmt):
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}


def _used_names(stmt):
    """Names a statement reads, as a bare name, an attribute or an import."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_private_names(sources):
    """(file, name) of each top-level private name of the sources that no
    other top-level statement of any of them reads."""
    stmts = [(path.name, stmt) for path in sources
             for stmt in ast.parse(path.read_text()).body]
    used = [_used_names(stmt) for _, stmt in stmts]
    unused = []
    for i, (file, stmt) in enumerate(stmts):
        for name in sorted(_defined_names(stmt)):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in names for j, names in enumerate(used) if j != i):
                unused.append((file, name))
    return unused


def test_private_names_are_used_in_src():
    assert {"poisson.py", "fullinfo.py", "dp.py"} <= {p.name for p in SOURCES}
    assert unreferenced_private_names(SOURCES) == []


def test_flags_a_private_oracle_left_behind(tmp_path):
    # a private helper whose only caller moved to the tests is reported
    module = tmp_path / "mod.py"
    module.write_text(
        "_CAP = 3\n\n"
        "def _double_sum(k):\n    return _double_sum(k - 1) if k else _CAP\n\n"
        "def public(k):\n    return k\n")
    assert unreferenced_private_names([module]) == [("mod.py", "_double_sum")]
