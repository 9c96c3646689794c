"""Outside-in layer tracing for brauertilt.

The tracer installs wrappers around the package's functions from outside
the package and aggregates each span name into a call count and a self
time (the span's duration minus the time its child spans cover).
Spans are aggregated in memory; nothing is written until the pass ends.

brauertilt imports names by value (``from .complexes import
hom_complex_dim`` in several modules), so a wrapper is installed in every
``brauertilt`` module namespace that holds the original function, and
``check_bindings`` refuses to trace while any module still holds an
unwrapped copy.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "brauertilt"

# (module, attribute, span name).  A dotted attribute names a method that is
# wrapped once on its class; every other name is a module-level function.
TARGETS = (
    ("linalg", "rref", "linalg.rref"),
    ("complexes", "ChainMapSpace.__init__", "complexes.chain_map_space"),
    ("complexes", "hom_complex_dim", "complexes.hom_dim"),
    ("algebra", "BrauerTreeAlgebra.__init__", "algebra.build"),
    ("trees", "all_brauer_trees", "trees.enumerate"),
    ("trees", "BrauerTree.canonical_key", "trees.canonical_key"),
    ("modules", "min_proj_presentation", "modules.presentation"),
    ("modules", "syzygy", "modules.syzygy"),
    ("modules", "hom_dim", "modules.hom_dim"),
    ("modules", "enumerate_indecomposables", "modules.indecomposables"),
    ("tilting", "is_tilting", "tilting.is_tilting"),
    ("tilting", "module_partial_tilting_test", "tilting.module_test"),
    ("coverings", "enumerate_coverings", "coverings.enumerate"),
    ("coverings", "covering_to_complex", "coverings.to_complex"),
    ("coverings", "enumerate_two_term_tilting_bruteforce", "coverings.bruteforce"),
    ("endo", "a_cycle_generic", "endo.generic"),
    ("endo", "a_cycle_fast", "endo.fast"),
    ("endo", "validate_cycles", "endo.validate"),
    ("endo", "endo_cartan", "endo.cartan"),
    ("realization", "realize", "realization.realize"),
)


def _rref_size(tracer, stat, args, result):
    rows, cols = result[0].shape
    stat["cells"] = stat.get("cells", 0) + rows * cols


def _space_size(tracer, stat, args, result):
    stat["unknowns"] = stat.get("unknowns", 0) + args[0].total
    if tracer.inside("complexes.hom_dim"):
        stat["in_hom"] = stat.get("in_hom", 0) + 1


def _algebra_size(tracer, stat, args, result):
    stat["max_dim"] = max(stat.get("max_dim", 0), args[0].dim)


def _tree_count(tracer, stat, args, result):
    stat["trees"] = stat.get("trees", 0) + len(result)


# Size counters recorded at the span boundary, after the wrapped call returns.
MEASURES = {
    "linalg.rref": _rref_size,
    "complexes.chain_map_space": _space_size,
    "algebra.build": _algebra_size,
    "trees.enumerate": _tree_count,
}


class BindingError(RuntimeError):
    """A brauertilt module still calls a traced function unwrapped."""


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self._originals: dict[int, tuple[object, str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> dict:
        name, start, children = self._stack.pop()
        seconds = self.clock() - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "self_s": 0.0}
        stat["calls"] += 1
        stat["self_s"] += seconds - children
        if self._stack:
            self._stack[-1][2] += seconds
        return stat

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(frame[0] == name for frame in self._stack)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer, the span-name prefix before the first dot."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat["self_s"]
        return out

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self.exit()
            if measure is not None:
                measure(self, stat, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded brauertilt module, then check."""
        modules = _package_modules()
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, original, self._wrap(original, name))
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
            self._originals[id(original)] = (original, name)
        self.check_bindings()

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
        self._originals.clear()

    def check_bindings(self) -> None:
        """Raise BindingError if a brauertilt module, or a dict, list or tuple
        held at its top level, still refers to an unwrapped traced function,
        or a traced method is unwrapped on its class."""
        stale = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                held = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (list, tuple)) else ())
                for item in (value, *held):
                    hit = self._originals.get(id(item))
                    if hit is not None and hit[0] is item:
                        stale.append(f"{mod.__name__}.{key} -> {hit[1]}")
        for mod_name, attr, name in TARGETS:
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
                if id(cls.__dict__[method]) in self._originals:
                    stale.append(f"{cls.__qualname__}.{method} -> {name}")
        if stale:
            raise BindingError("unwrapped traced functions: " + ", ".join(stale))


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
