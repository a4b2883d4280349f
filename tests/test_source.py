"""Checks on the layout of the package source.

Oracles used only by the tests live in tests/, so every top-level function,
class or constant of src/stoprule must be referenced somewhere in
src/stoprule outside its own definition.  The only exceptions are the public
names of PAPER_API, which callers of the package use and src/ does not.
"""

import ast
from pathlib import Path

import stoprule

SOURCES = sorted(Path(stoprule.__file__).parent.glob("*.py"))
# Paper-facing entry points that nothing in src/stoprule calls
PAPER_API = {
    "fullinfo.tie_break_transform",  # observations with atoms to iid uniforms
    "mc.scaling_check",  # the scaled sample minimum against its limit law
    "poisson.rect_general_boundary",  # the level limit under any cutoff sequence
    "poisson.theta_limit",  # the trend family's limit value at its optimal area
}


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


def unreferenced_names(sources):
    """(file, name) of each top-level name of the sources, dunders aside,
    that no other top-level statement of any of them reads."""
    stmts = [(path.name, stmt) for path in sources
             for stmt in ast.parse(path.read_text()).body]
    used = [_used_names(stmt) for _, stmt in stmts]
    unused = []
    for i, (file, stmt) in enumerate(stmts):
        for name in sorted(_defined_names(stmt)):
            if name.startswith("__"):
                continue
            if not any(name in names for j, names in enumerate(used) if j != i):
                unused.append((file, name))
    return unused


def test_private_names_are_used_in_src():
    assert {"poisson.py", "fullinfo.py", "dp.py"} <= {p.name for p in SOURCES}
    unused = unreferenced_names(SOURCES)
    assert [(file, name) for file, name in unused if name.startswith("_")] == []


def test_public_names_are_used_in_src_or_paper_api():
    # a public function that only the tests call belongs in tests/oracles.py,
    # and an API entry that src/ now reads leaves the list
    unused = unreferenced_names(SOURCES)
    public = {f"{file[:-3]}.{name}" for file, name in unused if not name.startswith("_")}
    assert public == PAPER_API


def test_flags_a_private_oracle_left_behind(tmp_path):
    # a helper whose only caller moved to the tests is reported, private or not
    module = tmp_path / "mod.py"
    module.write_text(
        "_CAP = 3\n\n"
        "def _double_sum(k):\n    return _double_sum(k - 1) if k else _CAP\n\n"
        "def public(k):\n    return k\n")
    assert unreferenced_names([module]) == [("mod.py", "_double_sum"), ("mod.py", "public")]
