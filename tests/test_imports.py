"""Every top-level import of a package module is used in that module, no
module imports numpy, and every def of the package is reached by name
from package code or exported.

`__init__.py` is skipped by the first check: its imports are the
package's public names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "brauertilt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of every module the source imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy(path):
    """The package has no runtime dependency: numpy is for the tests alone."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "numpy" not in imported_modules(tree)


def test_cli_runs_without_numpy():
    """A verify suite runs end to end in a process where importing numpy
    fails."""
    code = ("import sys; sys.modules['numpy'] = None; "
            "from brauertilt.cli import main; sys.exit(main(['verify', 'line-example']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS line-example" in done.stdout


# ChainMapSpace.null_basis is read only by tests:
# test_lazy_reduction_changes_nothing pins its single lazy back-substitution.
UNREACHED_BY_DESIGN = {"complexes.ChainMapSpace.null_basis"}


def package_defs(trees: dict[str, ast.Module]) -> list[tuple[str, ast.AST]]:
    """("module.name" or "module.Class.name", node) for every top-level
    function and every method of a top-level class, dunder methods aside:
    Python calls those itself."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{mod}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                out.extend((f"{mod}.{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def name_reads(tree: ast.Module) -> dict[str, list[frozenset[int]]]:
    """Per name read in the source, as a bare name or as an attribute, the
    ids of the defs enclosing each read."""
    reads: dict[str, list[frozenset[int]]] = {}

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return reads


def test_every_def_is_reached_from_the_package():
    """Each function and method of src/brauertilt is read by name in
    package code outside its own body, or is exported from __init__.py;
    a def that only tests reach belongs in the tests."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reads: dict[str, list[frozenset[int]]] = {}
    for tree in trees.values():
        for name, where in name_reads(tree).items():
            reads.setdefault(name, []).extend(where)
    unreached = [qual for qual, node in package_defs(trees)
                 if not (qual.count(".") == 1 and node.name in exported)
                 and not any(id(node) not in inside for inside in reads.get(node.name, ()))]
    assert sorted(unreached) == sorted(UNREACHED_BY_DESIGN), (
        f"defs no package code reaches: {sorted(unreached)}; "
        f"allowed: {sorted(UNREACHED_BY_DESIGN)}")
