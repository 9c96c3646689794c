import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from functools import cached_property, lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import complexes, endo, linalg, tilting
from brauertilt.algebra import build_tree_algebra, star_algebra
from brauertilt.complexes import (
    ChainMap,
    ChainMapSpace,
    ProjComplex,
    algebra_complex,
    direct_sum,
    stalk_complex,
)
from brauertilt.coverings import (
    Covering,
    CyclicInterval,
    covering_to_complex,
    enumerate_coverings,
)
from brauertilt.endo import (
    EndoAlgebra,
    a_cycle_fast,
    a_cycle_generic,
    a_cycle_partition,
    endo_brauer_tree,
    endo_cartan,
    is_autoequivalence_covering,
    tree_from_cycles,
    validate_cycles,
)
from brauertilt.realization import realize
from brauertilt.tilting import is_tilting
from brauertilt.trees import BrauerTree, all_brauer_trees

from reference import map_from_vector, slot_triple_tensor
from test_realization import spy_is_tilting


def line_tree(n, exceptional=0, multiplicity=1):
    return BrauerTree(
        range(n + 1),
        {i: (i, i + 1) for i in range(n)},
        {v: tuple(e for e in (v - 1, v) if 0 <= e < n) for v in range(n + 1)},
        exceptional,
        multiplicity,
    )


def worked_example_complex(prime=32003):
    A = star_algebra(4, 1, prime)
    cov = Covering(
        4,
        (CyclicInterval(1, 4),),
        ((CyclicInterval(2, 3), CyclicInterval(2, 2)),),
        "deg0",
    )
    return A, covering_to_complex(cov, A)


def test_endo_cartan_values():
    A, T = worked_example_complex()
    cart = endo_cartan(T)
    idx = {l.key: i for i, l in enumerate(T.labels)}
    a = idx[("pres", ("uniserial", 4, 3))]
    b = idx[("pres", ("uniserial", 4, 2))]
    c = idx[("pres", ("uniserial", 3, 1))]
    d = idx[("stalk", 1, 0)]
    assert cart[a][a] == 2  # equal intervals
    assert cart[d][d] == 2  # stalk with itself, multiplicity 1
    assert cart[d][a] == 1 and cart[a][b] == 1 and cart[b][c] == 1
    assert cart[d][b] == 0 and cart[d][c] == 0 and cart[a][c] == 0


def test_endo_cartan_requires_tilting():
    A = star_algebra(2, 1)
    bad = direct_sum([stalk_complex(A, 1, 0), stalk_complex(A, 1, 0)])
    with pytest.raises(ValueError):
        endo_cartan(bad)


def test_an_invalid_method_is_refused_before_any_decision(monkeypatch):
    """a_cycle_partition checks `method` first: a bad method is named as
    such on a complex that is not tilting, and on a tilting one it is
    refused before is_tilting runs or any chain-map space is built."""
    A = star_algebra(2, 1)
    bad = direct_sum([stalk_complex(A, 1, 0), stalk_complex(A, 1, 0)])
    _, T = worked_example_complex()
    realized = realize(line_tree(2))
    work = []
    monkeypatch.setattr(tilting, "is_tilting", lambda *args: work.append("decide"))
    monkeypatch.setattr(ChainMapSpace, "__init__", lambda *args: work.append("space"))
    for X in (bad, T, realized):
        with pytest.raises(ValueError, match="method must be"):
            a_cycle_partition(X, method="quick")
        with pytest.raises(ValueError, match="method must be"):
            endo_brauer_tree(X, method="quick")
    assert work == []


def test_algebra_complex_gives_star_back():
    for n, k in [(1, 1), (1, 2), (3, 1), (2, 2)]:
        A = star_algebra(n, k)
        for d in (0, 1):
            tree, _ = endo_brauer_tree(algebra_complex(A, d), method="both")
            assert tree.is_isomorphic_to(A.tree)


def test_worked_example_tree_and_cycles():
    A, T = worked_example_complex()
    cycles = a_cycle_partition(T, method="both")
    validate_cycles(EndoAlgebra(T), cycles)
    tree, label_map = endo_brauer_tree(T, method="both")
    assert tree.is_isomorphic_to(line_tree(4))
    # the stalk cycle (a single stalk here) carries the exceptional mark
    exc = next(c for c in cycles if c.exceptional)
    assert all(T.labels[i].kind == "stalk" for i in exc.members)


def test_decoders_read_summands_not_labels():
    """The worked example with the names of its presentations rotated one
    place: labels are display names, so every method gives the same tree."""
    A, T = worked_example_complex()
    names = [P.name for P in T.parts if P.name is not None]
    rotated = iter(names[1:] + names[:1])
    relabelled = direct_sum([
        ProjComplex(A, P.comps, P.diffs, name=None if P.name is None else next(rotated))
        for P in T.parts
    ])
    assert [l.key for l in relabelled.labels] != [l.key for l in T.labels]
    trees = [endo_brauer_tree(relabelled, method=m)[0] for m in ("generic", "fast", "both")]
    assert all(tree.is_isomorphic_to(line_tree(4)) for tree in trees)
    assert len({tree.canonical_key() for tree in trees}) == 1


def test_parts_rebuilt_without_names_decode_alike():
    """The worked example rebuilt from its parts' components and
    differentials alone: its labels are read off those parts, so it is
    tilting, decodes to the same line and displays the same summands."""
    A, T = worked_example_complex()
    rebuilt = direct_sum([ProjComplex(A, P.comps, P.diffs) for P in T.parts])
    assert is_tilting(rebuilt)
    tree, label_map = endo_brauer_tree(rebuilt, method="both")
    assert tree.is_isomorphic_to(line_tree(4))
    assert [l.display() for l in rebuilt.labels] == [l.display() for l in T.labels]
    assert [label_map[i].display() for i in range(4)] == [l.display() for l in T.labels]
    assert rebuilt.display() == T.display()


def test_one_space_per_summand_pair_per_decode(monkeypatch):
    """One decode builds one chain-map space at shift 0, Hom(T, T), and
    splits it into the space of each ordered pair of summands; the Cartan
    check reads their dimensions from hom_cache and builds no further
    space at shift 0."""
    _, T = worked_example_complex()  # on a fresh algebra: nothing cached
    built = []
    original = ChainMapSpace.__init__

    def counting_init(self, Q, R, s):
        built.append((Q, R, s))
        original(self, Q, R, s)

    monkeypatch.setattr(ChainMapSpace, "__init__", counting_init)
    endo_brauer_tree(T, method="both")
    assert [b for b in built if b[2] == 0] == [(T, T, 0)]
    built.clear()
    endo_cartan(T)
    assert [b for b in built if b[2] == 0] == []


@lru_cache(maxsize=None)
def split_cases():
    """Tilting complexes whose End(T) the split tests read: every covering
    of star(4, 1) and star(3, 2), and the realization of every tree with at
    most 4 edges and multiplicity at most 2."""
    cases = [covering_to_complex(cov, star_algebra(n, k))
             for n, k in [(4, 1), (3, 2)] for cov in enumerate_coverings(n)]
    for n in range(1, 5):
        for k in (1, 2):
            A = star_algebra(n, k)
            cases += [realize(tree, A) for tree in all_brauer_trees(n, k)]
    return cases


def pair_columns(E: EndoAlgebra, u: int, v: int, alone: ChainMapSpace) -> dict:
    """The column of the pair space `alone` of T_u and T_v that each of
    its columns of Hom(T, T) is, from the slots the parts before u and v
    take in each degree."""
    T, A = E.T, E.T.algebra
    start = {d: [sum(len(P.slots(d)) for P in E.parts[:x]) for x in (u, v)]
             for d in T.degrees()}
    out = {}
    for (d, j, i), off in alone.offsets.items():
        here = E.hom.offsets[(d, start[d][1] + j, start[d][0] + i)]
        size = A.block_dims[(alone.Q.slots(d)[i], alone.R.slots(d)[j])]
        out.update((here + t, off + t) for t in range(size))
    return out


def test_pair_classes_of_one_hom_t_t_equal_spaces_built_alone():
    """The classes that EndoAlgebra reads for each summand pair (u, v) off
    its one reduced Hom(T, T) are those of ChainMapSpace(T_u, T_v, 0)
    built on its own: the same dimension, also in hom_cache, the same
    representatives, renumbered into the pair's columns and in the same
    order, and the same quotient coordinates of random chain maps."""
    rng = random.Random(0)
    for T in split_cases():
        E = EndoAlgebra(T)
        p, cache = T.algebra.prime, T.algebra.hom_cache
        reps = E.hom._reduction_data()[1].rows
        owned = 0
        for u, U in enumerate(E.parts):
            for v, V in enumerate(E.parts):
                alone = ChainMapSpace(U, V, 0)
                assert E.dim(u, v) == alone.dim
                assert cache[(U, V, 0)] == alone.dim
                columns = pair_columns(E, u, v, alone)
                # a representative lies in one pair: a column outside it
                # would raise KeyError
                mine = [{columns[j]: x for j, x in rep.items()} for rep in reps
                        if next(iter(rep)) in columns]
                assert mine == alone._reduction_data()[1].rows
                owned += len(mine)
                for _ in range(2):
                    vec = linalg.combine({r: rng.randrange(p) for r in range(len(alone.free))},
                                         alone.chain_basis, p)
                    f = map_from_vector(alone, vec)
                    assert E.coords(u, v, f) == alone.quotient_coords([vec])[0]
        assert owned == len(reps)


def test_split_refuses_parts_that_do_not_lay_out_the_slots():
    """The decode reads each class's summand pair off the slots the parts
    take in T, so parts out of T's slot order are refused."""
    A = star_algebra(3, 1)
    first, second = stalk_complex(A, 1, 0), stalk_complex(A, 2, 0)
    T = direct_sum([first, second])
    swapped = ProjComplex(A, T.comps, T.diffs)
    swapped.parts = (second, first)
    with pytest.raises(ValueError, match="do not lay out"):
        EndoAlgebra(swapped)


def test_radical_square_shortcut_equals_full_contraction():
    """rad^2 reads a block (u, v, w) with u != v != w as the block itself;
    that equals its contraction with the identity radical bases, and the
    whole radical square equals the one contracted block by block."""
    shortcuts = 0
    for T in split_cases():
        E = EndoAlgebra(T)
        jbasis = {(u, v): E.local_radical(u) if u == v else linalg.identity(E.dim(u, v))
                  for u in range(E.m) for v in range(E.m)}
        full = {uv: [] for uv in jbasis}
        for (u, v, w), table in E.tensor.items():
            prods = E.products((u, v, w), jbasis[(u, v)].rows, jbasis[(v, w)].rows)
            if u != v and v != w:
                assert table.rows == prods
                shortcuts += 1
            full[(u, w)].extend(row for row in prods if row)
        got = endo._radical_square(E, jbasis)
        assert got == full
    assert shortcuts > 0


def test_decode_runs_no_rref_or_nullspace_in_complexes(monkeypatch):
    """The pair spaces of a decode reduce their own sparse rows: decoding
    every covering of star(4, 1) with both decoders calls no linalg.rref
    from complexes.py, and linalg has no nullspace to call."""
    callers = Counter()
    rref = linalg.rref

    def wrapped(*args):
        callers[sys._getframe(1).f_code.co_filename] += 1
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", wrapped)
    assert not hasattr(linalg, "nullspace")
    A = star_algebra(4, 1)
    for cov in enumerate_coverings(4):
        endo_brauer_tree(covering_to_complex(cov, A), method="both")
    assert sum(callers.values()) > 0  # the wrappers are reached
    assert complexes.__file__ not in callers


def test_decode_builds_few_chain_maps(monkeypatch):
    """End(T) is multiplied in quotient coordinates: one decode of the
    worked example builds the 8 fast witnesses and at most one identity per
    summand as ChainMaps, and no composite."""
    _, T = worked_example_complex()
    built = []
    original = ChainMap.__init__

    def counting_init(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(ChainMap, "__init__", counting_init)
    a_cycle_partition(T, "both")
    assert len(built) <= 8 + len(T.parts) == 12


def test_fast_and_generic_agree_on_coverings():
    for n, k in [(3, 1), (2, 2)]:
        A = star_algebra(n, k)
        for cov in enumerate_coverings(n):
            T = covering_to_complex(cov, A)
            fast = {
                c.normalized() for c in a_cycle_fast(T) if len(c.members) >= 2
            }
            generic = {
                c.normalized() for c in a_cycle_generic(EndoAlgebra(T)) if len(c.members) >= 2
            }
            assert fast == generic, cov.sort_key()


def test_witness_maximality_enforced():
    A, T = worked_example_complex()
    cycles = a_cycle_fast(T)
    validate_cycles(EndoAlgebra(T), cycles)
    # breaking a witness chain must be caught
    broken = [c for c in cycles]
    big = next(c for c in broken if len(c.members) >= 2)
    big.witnesses = list(reversed(big.witnesses))
    with pytest.raises(Exception):
        validate_cycles(EndoAlgebra(T), broken)


def test_deg1_covering_gives_line():
    A = star_algebra(2, 1)
    T = covering_to_complex(Covering(2, (CyclicInterval(1, 2),), ((),), "deg1"), A)
    tree, _ = endo_brauer_tree(T, method="both")
    assert tree.is_isomorphic_to(line_tree(2))


def test_autoequivalence_covering_check():
    A = star_algebra(2, 1)
    hits = [
        cov
        for cov in enumerate_coverings(2)
        if is_autoequivalence_covering(cov, A)
    ]
    assert len(hits) == 4
    A22 = star_algebra(2, 2)
    assert not any(
        is_autoequivalence_covering(cov, A22)
        for cov in enumerate_coverings(2)
    )


def test_edge_count_and_multiplicity_preserved():
    for n, k in [(3, 1), (3, 2)]:
        A = star_algebra(n, k)
        for cov in enumerate_coverings(n)[:6]:
            T = covering_to_complex(cov, A)
            tree, label_map = endo_brauer_tree(T, method="fast")
            assert tree.n == n
            assert tree.multiplicity == k
            assert len(label_map) == n


def test_tree_from_cycles_rejects_a_moved_exceptional_mark():
    """With k = 2 the exceptional vertex changes the tree's Cartan matrix,
    so cycles whose mark sits on the wrong cycle fail the comparison with
    End(T)."""
    A = star_algebra(3, 2)
    cov = Covering(3, (CyclicInterval(1, 1), CyclicInterval(2, 2)), ((), ()), "deg0")
    T = covering_to_complex(cov, A)
    cycles = a_cycle_partition(T)
    assert [c.exceptional for c in cycles] == [True, False, False]
    tree, _ = tree_from_cycles(T, cycles)
    assert tree.cartan_matrix() == endo_cartan(T)
    moved = [replace(c, exceptional=(i == 1)) for i, c in enumerate(cycles)]
    with pytest.raises(AssertionError, match="Cartan matrix disagrees"):
        tree_from_cycles(T, moved)


def pick_arrows_by_rank(square_rows, candidates, p):
    """The greedy picker: keep a candidate when it raises the rank."""
    width = len(candidates[0])
    current = np.array(square_rows, dtype=np.int64).reshape(len(square_rows), width)
    picked, current_rank = [], linalg.rank(current, p)
    for i, coords in enumerate(candidates):
        stacked = np.concatenate([current, np.asarray(coords, dtype=np.int64)[None, :]], axis=0)
        if linalg.rank(stacked, p) > current_rank:
            picked.append(i)
            current, current_rank = stacked, current_rank + 1
    return picked


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 32003, 2**31 - 1)), st.integers(1, 6), st.data())
def test_pick_arrows_equals_greedy_rank_version(p, width, data):
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=width, max_size=width).map(lambda r: np.array(r, dtype=np.int64))
    square_rows = data.draw(st.lists(row, max_size=4))
    candidates = data.draw(st.lists(row, min_size=1, max_size=5))
    rows = [{j: int(x) for j, x in enumerate(r) if x} for r in square_rows]
    picked = endo._pick_arrows(rows, linalg.as_rows(candidates, p, (len(candidates), width)), p)
    assert picked == pick_arrows_by_rank(square_rows, candidates, p)


def test_arrow_picker_runs_one_elimination_per_nonzero_block(monkeypatch):
    _, T = worked_example_complex()
    E = EndoAlgebra(T)
    nonzero_blocks = sum(
        1
        for u in range(E.m)
        for v in range(E.m)
        if (E.dim(u, v) if u != v else E.local_radical(u).height)
    )
    callers = []
    original = linalg.rref

    def counting_rref(a, p):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(a, p)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    a_cycle_generic(E)
    assert nonzero_blocks > E.m
    assert callers.count("_pick_arrows") == nonzero_blocks


def test_tensor_stores_the_blocks_with_classes_on_both_sides():
    """Block (u, v, w) is stored exactly when dim(u, v) * dim(v, w) != 0,
    with one row per pair of classes, dim(u, v) * dim(v, w) rows, of width
    dim(u, w); coverings of two stars and the realizations of the 4-edge
    trees of multiplicity 2."""
    complexes = [covering_to_complex(cov, star_algebra(n, k))
                 for n, k in [(3, 1), (4, 1)] for cov in enumerate_coverings(n)]
    complexes += [realize(tree, star_algebra(4, 2)) for tree in all_brauer_trees(4, 2)]
    zero_products = 0
    for T in complexes:
        E = EndoAlgebra(T)
        dims = {(u, v): E.dim(u, v) for u in range(E.m) for v in range(E.m)}
        expected = {(u, v, w) for u, v, w in product(range(E.m), repeat=3)
                    if dims[(u, v)] * dims[(v, w)]}
        assert set(E.tensor) == expected
        for (u, v, w), block in E.tensor.items():
            assert block.shape == (dims[(u, v)] * dims[(v, w)], dims[(u, w)])
            assert len(block.rows) == dims[(u, v)] * dims[(v, w)]
        zero_products += sum(1 for u, v, w in product(range(E.m), repeat=3)
                             if dims[(u, v)] and not dims[(v, w)])
    assert zero_products > 0


def test_fast_decode_builds_one_tensor_with_few_reductions(monkeypatch):
    """On the 68 coverings of star(4, 1), method "fast" builds one tensor
    per decode, and building it reduces every product vector in one
    quotient_coords call on Hom(T, T)."""
    builds, reductions = [], []
    original_tensor = EndoAlgebra.tensor.func
    original_coords = ChainMapSpace.quotient_coords

    def counting_tensor(self):
        builds.append(self)
        return original_tensor(self)

    def counting_coords(self, vecs):
        if sys._getframe(1).f_code is original_tensor.__code__:
            reductions.append(self)
        return original_coords(self, vecs)

    prop = cached_property(counting_tensor)
    prop.__set_name__(EndoAlgebra, "tensor")
    monkeypatch.setattr(EndoAlgebra, "tensor", prop)
    monkeypatch.setattr(ChainMapSpace, "quotient_coords", counting_coords)
    A = star_algebra(4, 1)
    coverings = enumerate_coverings(4)
    assert len(coverings) == 68
    for cov in coverings:
        T = covering_to_complex(cov, A)
        builds.clear()
        reductions.clear()
        a_cycle_partition(T, method="fast")
        assert len(builds) == 1
        assert reductions == [builds[0].hom]


def test_both_decode_builds_and_reduces_one_hom_t_t(monkeypatch):
    """On the 68 coverings of star(4, 1), a_cycle_partition(T, "both")
    constructs exactly one ChainMapSpace at shift 0, Hom(T, T), and runs
    the whole-space reduction (_reduction_data) once, on that space."""
    spaces, reductions = [], []
    original_init = ChainMapSpace.__init__
    original_reduction = ChainMapSpace._reduction_data

    def counting_init(self, Q, R, s):
        if s == 0:
            spaces.append(self)
        original_init(self, Q, R, s)

    def counting_reduction(self):
        if self._reduction is None:
            reductions.append(self)
        return original_reduction(self)

    monkeypatch.setattr(ChainMapSpace, "__init__", counting_init)
    monkeypatch.setattr(ChainMapSpace, "_reduction_data", counting_reduction)
    A = star_algebra(4, 1)
    coverings = enumerate_coverings(4)
    assert len(coverings) == 68
    for cov in coverings:
        T = covering_to_complex(cov, A)
        spaces.clear()
        reductions.clear()
        a_cycle_partition(T, method="both")
        assert len(spaces) == 1 and (spaces[0].Q, spaces[0].R) == (T, T)
        assert reductions == spaces


def test_end_of_every_covering_of_star_5_1():
    """The paper's application: End(T) of every two-term tilting complex
    over the star.  The 250 coverings of star(5, 1), decoded with both
    decoders, reach all 6 plane trees with 5 edges, each as often as
    [10, 30, 30, 60, 60, 60] in some order."""
    A = star_algebra(5, 1)
    shapes = Counter()
    for cov in enumerate_coverings(5):
        tree, _ = endo_brauer_tree(covering_to_complex(cov, A), method="both")
        assert tree.n == 5 and tree.multiplicity == 1
        shapes[tree.canonical_key()] += 1
    assert sum(shapes.values()) == 250
    assert set(shapes) == {tree.canonical_key() for tree in all_brauer_trees(5, 1)}
    assert sorted(shapes.values()) == [10, 30, 30, 60, 60, 60]


def random_tree(rng, n, k):
    """A seeded random Brauer tree with n edges and multiplicity k: vertex
    i > 0 hangs from a random earlier vertex, every cyclic order is
    shuffled and the exceptional vertex is drawn."""
    edges = {i: (rng.randrange(i + 1), i + 1) for i in range(n)}
    cyclic = {}
    for v in range(n + 1):
        order = [e for e, ends in edges.items() if v in ends]
        rng.shuffle(order)
        cyclic[v] = tuple(order)
    return BrauerTree(range(n + 1), edges, cyclic, rng.randrange(n + 1), k)


def as_reduced_dicts(block: linalg.SparseRows, p: int) -> list[dict]:
    rows = [{j: x % p for j, x in row.items() if x % p} for row in block.rows]
    return rows + [{}] * (block.height - len(rows))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_tensor_equals_the_slot_triple_oracle(p):
    """The tensor contracted over the classes' nonzero coefficients equals,
    block by block and row by row, the one built by visiting every slot
    triple (tests/reference.py): on the realizations of seeded random trees
    with 5-9 edges and multiplicity 1-3, and on the covering complexes of
    star(4, 1), star(4, 2) and star(5, 1), at p = 2, 3 and 32003."""
    rng = random.Random(f"tensor/{p}")
    complexes = []
    for n in range(5, 10):
        k = rng.randint(1, 3)
        complexes.append(realize(random_tree(rng, n, k), star_algebra(n, k, p)))
    for n, k in [(4, 1), (4, 2), (5, 1)]:
        A = star_algebra(n, k, p)
        complexes += [covering_to_complex(cov, A) for cov in enumerate_coverings(n)]
    nonzero = 0
    for T in complexes:
        E = EndoAlgebra(T)
        oracle = slot_triple_tensor(E)
        assert E.tensor.keys() == oracle.keys()
        for block, rows in oracle.items():
            assert E.tensor[block].shape == rows.shape
            assert as_reduced_dicts(E.tensor[block], p) == as_reduced_dicts(rows, p)
            nonzero += sum(1 for row in rows.rows if row)
    assert nonzero > 0


def test_quotient_coords_of_empty_and_off_chain_vectors():
    """quotient_coords gives {} for an empty vector and for one whose
    entries are multiples of p, reads an unreduced chain map like its
    reduction, and refuses a vector that is not a chain map, also one
    supported on pivot columns of the commuting squares alone."""
    _, T = worked_example_complex()
    sp = EndoAlgebra(T).hom
    p = T.algebra.prime
    rep = sp._reduction_data()[1].rows[-1]
    assert sp.quotient_coords([{}, {0: p, 3: 2 * p}]) == [{}, {}]
    unreduced = {j: x + p for j, x in rep.items()}
    assert sp.quotient_coords([unreduced]) == sp.quotient_coords([rep])
    assert sp.quotient_coords([rep])[0]
    pivot = next(c for c in range(sp.total) if c not in sp._free_index)
    for bad in ({pivot: 1}, {**rep, pivot: rep.get(pivot, 0) + 1}):
        with pytest.raises(ValueError, match="not a chain map"):
            sp.quotient_coords([bad])


def test_star_only_methods_are_refused_before_any_decision(monkeypatch):
    """Over the algebra of a 3-edge tree that is not a star, "fast" and
    "both" (the default) are refused before is_tilting runs or any
    chain-map space is built; "generic" still decodes A itself to its
    tree."""
    tree = next(t for t in all_brauer_trees(3, 1) if not t.is_star())
    T = algebra_complex(build_tree_algebra(tree), 0)
    work = []
    with monkeypatch.context() as patch:
        patch.setattr(tilting, "is_tilting", lambda *args: work.append("decide"))
        patch.setattr(ChainMapSpace, "__init__", lambda *args: work.append("space"))
        for method in ("fast", "both"):
            with pytest.raises(ValueError, match="canonical Brauer star"):
                a_cycle_partition(T, method=method)
        with pytest.raises(ValueError, match="canonical Brauer star"):
            endo_brauer_tree(T)
    assert work == []
    assert endo_brauer_tree(T, method="generic")[0].is_isomorphic_to(tree)


@pytest.mark.parametrize("n, k", [(4, 1), (3, 2)])
def test_census_route_decides_each_covering_once(monkeypatch, n, k):
    """is_autoequivalence_covering over every covering of a fresh star
    calls is_tilting once per covering, the covering's own decision.  A
    covering that is decoded builds one space over the whole complex, at
    shift 0, and none at shift 1, and the End(T) built for the decode is
    freed when it returns, with no garbage collection."""
    calls, built, endos = [], [], []
    spy_is_tilting(monkeypatch, calls)
    space_init, endo_init = ChainMapSpace.__init__, EndoAlgebra.__init__

    def recording_space(self, Q, R, s):
        built.append((Q, R, s))
        space_init(self, Q, R, s)

    def recording_endo(self, T):
        endos.append(weakref.ref(self))
        endo_init(self, T)

    monkeypatch.setattr(ChainMapSpace, "__init__", recording_space)
    monkeypatch.setattr(EndoAlgebra, "__init__", recording_endo)
    A = star_algebra(n, k)
    decoded = 0
    for cov in enumerate_coverings(n):
        for log in (calls, built, endos):
            log.clear()
        is_autoequivalence_covering(cov, A)
        assert len(calls) == 1
        T = calls[0][0]
        whole = [(Q is R is T, s) for Q, R, s in built if T in (Q, R)]
        assert whole == ([(True, 0)] if endos else [])
        assert len(endos) <= 1 and all(ref() is None for ref in endos)
        decoded += len(endos)
    assert decoded == (2 * n if k == 1 else 0)


def test_a_plain_complex_is_decided_once_per_decode(monkeypatch):
    """endo_brauer_tree decides a complex that is not a TiltingComplex
    once, for the decoders and the Cartan check together, and refuses one
    that is not tilting with the same message."""
    calls = []
    spy_is_tilting(monkeypatch, calls)
    A = star_algebra(4, 1)
    for d in (0, 1):
        calls.clear()
        tree, _ = endo_brauer_tree(algebra_complex(A, d))
        assert tree.is_isomorphic_to(A.tree)
        assert len(calls) == 1
    bad = direct_sum([stalk_complex(A, 1, 0), stalk_complex(A, 1, 0)])
    with pytest.raises(ValueError, match="complex is not tilting"):
        endo_brauer_tree(bad)
