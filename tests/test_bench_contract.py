"""The names the benchmark harness in perfbench/ reads from the package.

perfbench/tests is not among the tier-1 test paths, so these checks keep a
change to the package from breaking the benchmark with tier-1 still green.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import brauertilt
from brauertilt import complexes, coverings, endo, tilting, trees, verify
from brauertilt.algebra import star_algebra
from brauertilt.complexes import ProjComplex, algebra_complex, direct_sum
from brauertilt.modules import UniserialSpec, min_proj_presentation, uniserial_rep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worked_covering_complex():
    """The complex of the worked star(4, 1) covering."""
    cov = coverings.Covering(
        4,
        (coverings.CyclicInterval(1, 4),),
        ((coverings.CyclicInterval(2, 3), coverings.CyclicInterval(2, 2)),),
        "deg0",
    )
    return coverings.covering_to_complex(cov, star_algebra(4, 1))


def test_every_traced_name_resolves():
    layertrace = _load_layertrace()
    assert layertrace.TARGETS
    for mod_name, attr, _span in layertrace.TARGETS:
        owner = importlib.import_module(f"{layertrace.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_traced_sizes_are_recorded():
    """The size counters the tracer reads at span boundaries (the unknowns
    of a ChainMapSpace, the cells of an rref, the dimension of an algebra
    and the number of trees) still resolve and are recorded.  One decode of
    a covering complex passes through the spans of both decoders, the
    witness check and the Cartan check, with one is_tilting span, the
    covering's own decision; one realize round trip passes
    through those and realize's, with one chain-map space and no
    is_tilting span.  The covering complex's presentations are read off
    the star with no elimination, so a generic presentation supplies the
    rref."""
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        A = star_algebra(3, 1)
        T = coverings.covering_to_complex(coverings.enumerate_coverings(3)[0], A)
        complexes.hom_complex_dim(T, T, 0, direct=True)
        min_proj_presentation(uniserial_rep(A, UniserialSpec(1, 2)))
        trees.all_brauer_trees(3, 1)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats["complexes.chain_map_space"]["unknowns"] > 0
    assert stats["linalg.rref"]["cells"] > 0
    assert stats["algebra.build"]["max_dim"] == A.dim
    assert stats["trees.enumerate"]["trees"] == len(trees.all_brauer_trees(3, 1))
    decode_spans = ("endo.generic", "endo.fast", "endo.validate", "endo.cartan")
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        endo.endo_brauer_tree(_worked_covering_complex(), method="both")
    finally:
        tracer.uninstall()
    for span in decode_spans:
        assert tracer.stats[span]["calls"] >= 1, span
    # the covering's own decision; the decoders take it as made
    assert tracer.stats["tilting.is_tilting"]["calls"] == 1
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        # looked up on the package at call time, as the workloads do
        T = brauertilt.realize(trees.all_brauer_trees(4, 2)[-1], star_algebra(4, 2))
        brauertilt.endo_brauer_tree(T, method="both")
    finally:
        tracer.uninstall()
    for span in ("realization.realize",) + decode_spans:
        assert tracer.stats[span]["calls"] >= 1, span
    # the round trip decides T once, from its Hom(T, T) at shift 0
    assert "tilting.is_tilting" not in tracer.stats
    assert tracer.stats["complexes.chain_map_space"]["calls"] == 1


def test_cache_names_read_by_the_bench_child_exist():
    assert isinstance(verify._MEMO, dict)
    assert isinstance(verify._ALGEBRAS, dict)
    assert callable(coverings._inner_families.cache_info)


def test_syzygy_memo_lives_on_each_algebra():
    """child.check_cold reads only module-level caches.  The syzygy memo is
    an attribute of the algebra, so every pass still starts cold: a fresh
    star_algebra starts with it empty, and two algebras built from the same
    tree share no entries.  The traced spans around syzygies still record;
    the outer step of second_syzygy reads the memo without a second
    `syzygy` call, so one span records while both steps fill the memo."""
    A, B = star_algebra(3, 1), star_algebra(3, 1)
    assert A.syzygy_cache == {} and B.syzygy_cache == {}
    M = uniserial_rep(A, UniserialSpec(1, 2))
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        tilting.module_partial_tilting_test(M)
    finally:
        tracer.uninstall()
    assert len(A.syzygy_cache) == 2 and B.syzygy_cache == {}
    assert tracer.stats["modules.syzygy"]["calls"] == 1
    assert tracer.stats["modules.presentation"]["calls"] == 1
    min_proj_presentation(uniserial_rep(B, UniserialSpec(1, 2)))
    assert len(B.syzygy_cache) == 1 and B.syzygy_cache.keys() <= A.syzygy_cache.keys()
    assert all(A.syzygy_cache[k][0] is not B.syzygy_cache[k][0] for k in B.syzygy_cache)


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


def test_label_keys_tell_the_tilting_complexes_apart():
    """The oracle workload compares brute force with the coverings through
    complex_label_key: over star(3, 1) the 18 covering complexes and A, A[1]
    get C(6, 3) = 20 distinct keys, and a covering complex rebuilt part by
    part, names kept, gets its key back."""
    A = star_algebra(3, 1)
    complexes = [coverings.covering_to_complex(c, A) for c in coverings.enumerate_coverings(3)]
    assert len(complexes) == 18
    complexes += [algebra_complex(A, 0), algebra_complex(A, 1)]
    keys = {coverings.complex_label_key(T) for T in complexes}
    assert len(keys) == 20
    for T in complexes:
        rebuilt = direct_sum(
            [ProjComplex(A, P.comps, P.diffs, name=P.name) for P in T.parts]
        )
        assert coverings.complex_label_key(rebuilt) == coverings.complex_label_key(T)
