"""Every top-level import of a package module is used in that module, no
module imports numpy, every def of the package is reached by name from
package code or exported, and every option (a parameter with a default)
receives two values from package code.

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


def class_of(annotation, classes) -> str | None:
    """The package class an annotation names, as a bare name or a string."""
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    if isinstance(annotation, ast.Constant) and annotation.value in classes:
        return annotation.value
    return None


def receiver_classes(func, owner, ctx) -> dict[str, str | None]:
    """Name -> package class (None when unknown) for each parameter and
    local of func.  A name's class is known when it is the first parameter
    of a method of `owner`, a parameter annotated with a package class, or
    a local every assignment of which is a receiver of that class, a
    constructor call, or a call of a function annotated to return it; a
    parameter that is reassigned keeps its class only if every assignment
    has it too."""
    classes, returns, modules = ctx
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    known = {a.arg: class_of(a.annotation, classes) for a in params}
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in getattr(func, "decorator_list", ()))
    if owner and params and not static:
        known[params[0].arg] = owner
    values: dict[str, list] = {}
    single = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            values.setdefault(node.targets[0].id, []).append(node.value)
            single.add(id(node.targets[0]))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and id(node) not in single:
            values.setdefault(node.id, []).append(None)

    def infer(expr, types):
        if isinstance(expr, ast.Name):
            return types.get(expr.id)
        if isinstance(expr, ast.Call):
            f = expr.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
                f = ast.Name(f.attr)
            if isinstance(f, ast.Name):
                return f.id if f.id in classes else returns.get(f.id)
        if isinstance(expr, ast.IfExp):
            body = infer(expr.body, types)
            return body if body == infer(expr.orelse, types) else None
        return None

    types = dict(known)
    for name in values:
        types[name] = None
    changed = True
    while changed:
        changed = False
        for name, exprs in values.items():
            got = {infer(e, types) if e is not None else None for e in exprs}
            if name in known:
                got.add(known[name])
            cls = got.pop() if len(got) == 1 else None
            if types[name] != cls:
                types[name], changed = cls, True
    return types


def name_reads(tree: ast.Module, ctx) -> list[tuple]:
    """(owner, name, ids of the enclosing defs, node) per name read in the
    source.  owner is "" for a bare name, a package module for a
    module-qualified read (`linalg.rank`), a package class for an
    attribute read on a receiver of known class (see receiver_classes),
    and None for any other attribute read."""
    modules = ctx[2]
    reads = []

    def walk(node, inside, types, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside = inside | {id(node)}
            types = {**types, **receiver_classes(node, owner, ctx)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append(("", node.id, inside, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            v = node.value
            if isinstance(v, ast.Name) and v.id in modules:
                reads.append((v.id, node.attr, inside, node))
            else:
                cls = types.get(v.id) if isinstance(v, ast.Name) else None
                reads.append((cls, node.attr, inside, node))
        for child in ast.iter_child_nodes(node):
            walk(child, inside, types, node.name if isinstance(node, ast.ClassDef) else None)

    walk(tree, frozenset(), {}, None)
    return reads


def package_context(trees: dict[str, ast.Module]):
    """(class names, function name -> the package class it is annotated
    to return, module names) over the package."""
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returns: dict[str, str | None] = {}
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                cls = class_of(node.returns, classes)
                returns[node.name] = cls if returns.get(node.name, cls) == cls else None
    return classes, returns, set(trees)


def test_every_def_is_reached_from_the_package():
    """Each function and method of src/brauertilt is read by name in
    package code outside its own body, or is exported from __init__.py;
    a def that only tests reach belongs in the tests.  A read on a module
    or on a receiver of known class reaches only that module's function or
    that class's method, so a dead def cannot hide behind a live one of
    the same name."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    ctx = package_context(trees)
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reads = [read for tree in trees.values() for read in name_reads(tree, ctx)]

    def reaches(qual, node, owner, name):
        mod, *cls = qual.split(".")[:-1]
        if cls:
            return name == node.name and owner in (None, cls[0])
        return name == node.name and owner in ("", None, mod)

    unreached = [qual for qual, node in package_defs(trees)
                 if not (qual.count(".") == 1 and node.name in exported)
                 and not any(id(node) not in inside and reaches(qual, node, owner, name)
                             for owner, name, inside, _ in reads)]
    assert sorted(unreached) == sorted(UNREACHED_BY_DESIGN), (
        f"defs no package code reaches: {sorted(unreached)}; "
        f"allowed: {sorted(UNREACHED_BY_DESIGN)}")


# cli.main's argv: the console-script entry calls main() with none.
# endo.endo_brauer_tree's method: perfbench/workloads.py passes "both".
SINGLE_VALUED_BY_DESIGN = {"cli.main.argv", "endo.endo_brauer_tree.method"}


def callees(trees: dict[str, ast.Module]) -> dict[tuple, list[tuple]]:
    """(owner, name) as name_reads reports a call's function -> the
    (qualified name, def, whether the call skips its first parameter) it
    may call: a bare name or a module-qualified one calls a top-level
    function or constructs a class, a read on a receiver of known class
    calls that class's method, and any other attribute read calls every
    method of that name."""
    out: dict[tuple, list[tuple]] = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for owner in ("", mod):
                    out.setdefault((owner, node.name), []).append((f"{mod}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    qual = f"{mod}.{node.name}.{m.name}"
                    skip = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in m.decorator_list)
                    if m.name == "__init__":
                        for owner in ("", mod):
                            out.setdefault((owner, node.name), []).append((qual, m, True))
                    else:
                        for owner in (None, node.name):
                            out.setdefault((owner, m.name), []).append((qual, m, skip))
    return out


def defaults(node) -> dict[str, ast.expr]:
    """Parameter name -> default expression, for each parameter that has one."""
    a = node.args
    pos = a.posonlyargs + a.args
    out = {p.arg: d for p, d in zip(pos[len(pos) - len(a.defaults):], a.defaults)}
    out.update({p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return out


def literal(expr) -> str | None:
    """The repr of a literal expression's value, or None for any other."""
    try:
        return repr(ast.literal_eval(expr))
    except ValueError:
        return None


def argument_value(expr, default) -> str:
    """"default" for an argument equal to the default (written the same
    way, or the same literal), the literal's repr for another literal,
    and "varies" for any other expression."""
    value = literal(expr)
    if ast.unparse(expr) == ast.unparse(default) or value is not None and value == literal(default):
        return "default"
    return "varies" if value is None else value


def test_every_option_is_set_by_the_package():
    """Every parameter with a default receives at least two different
    values at package call sites, or is named in SINGLE_VALUED_BY_DESIGN:
    an option that every caller leaves at one value is dead configuration.
    An omitted argument counts as the default, and a non-constant argument
    can take any value, so it counts as a second value on its own."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    ctx = package_context(trees)
    targets = callees(trees)
    values = {f"{qual}.{name}": set() for defs in targets.values()
              for qual, node, _ in defs for name in defaults(node)}
    for tree in trees.values():
        funcs = {id(node): (owner, name) for owner, name, _, node in name_reads(tree, ctx)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call.func) not in funcs:
                continue
            for qual, node, skip in targets.get(funcs[id(call.func)], ()):
                params = [p.arg for p in node.args.posonlyargs + node.args.args][skip:]
                bound = dict(zip(params, call.args))
                bound.update((kw.arg, kw.value) for kw in call.keywords if kw.arg)
                starred = any(isinstance(a, ast.Starred) for a in call.args) or any(
                    kw.arg is None for kw in call.keywords)
                for name, default in defaults(node).items():
                    if name in bound and not isinstance(bound[name], ast.Starred):
                        value = argument_value(bound[name], default)
                    else:
                        value = "varies" if starred else "default"
                    values[f"{qual}.{name}"].add(value)
    single = sorted(q for q, v in values.items() if len(v) + ("varies" in v) < 2)
    assert single == sorted(SINGLE_VALUED_BY_DESIGN), (
        f"options the package sets to one value: {single}; "
        f"allowed: {sorted(SINGLE_VALUED_BY_DESIGN)}")
