"""The names the benchmark harness in perfbench/ reads from the package.

perfbench/tests is not among the tier-1 test paths, so these checks keep a
change to the package from breaking the benchmark with tier-1 still green.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import brauertilt
from brauertilt import coverings, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layertrace = _load_layertrace()
    assert layertrace.TARGETS
    for mod_name, attr, _span in layertrace.TARGETS:
        owner = importlib.import_module(f"{layertrace.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_cache_names_read_by_the_bench_child_exist():
    assert isinstance(verify._MEMO, dict)
    assert isinstance(verify._ALGEBRAS, dict)
    assert callable(coverings._inner_families.cache_info)


def _names_read_from_bt(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain bt.<name>.<name>... read in the file."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "bt":
            chains.add(tuple(reversed(chain)))
    return chains


def test_every_package_name_the_workloads_read_resolves():
    chains = set()
    for name in ("workloads.py", "child.py"):
        chains |= _names_read_from_bt(PERFBENCH / name)
    assert ("endo", "summand_complexes") in chains
    assert ("coverings", "complex_label_key") in chains
    for chain in chains:
        owner = brauertilt
        for attr in chain:
            assert hasattr(owner, attr), "bt." + ".".join(chain)
            owner = getattr(owner, attr)
