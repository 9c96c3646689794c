import heapq
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import trees
from brauertilt.trees import BrauerTree, all_brauer_trees


def line_tree(n, exceptional=0, multiplicity=1):
    return BrauerTree(
        range(n + 1),
        {i: (i, i + 1) for i in range(n)},
        {v: tuple(e for e in (v - 1, v) if 0 <= e < n) for v in range(n + 1)},
        exceptional,
        multiplicity,
    )


def test_star_shape():
    t = BrauerTree.star(4, 2)
    assert t.n == 4
    assert t.degree(0) == 4
    assert t.winding_bound(0) == 8
    assert t.winding_bound(-1) == 1
    assert t.succ(0, 4) == 1


def test_validation_errors():
    with pytest.raises(ValueError):
        BrauerTree([0, 1], {0: (0, 1), 1: (0, 1)}, {0: (0, 1), 1: (0, 1)}, 0, 1)
    with pytest.raises(ValueError):
        BrauerTree([0, 1], {0: (0, 1)}, {0: (0,), 1: ()}, 0, 1)
    with pytest.raises(ValueError):
        BrauerTree([0, 1], {0: (0, 1)}, {0: (0,), 1: (0,)}, 0, 0)
    with pytest.raises(ValueError):
        BrauerTree([0, 1], {0: (0, 1)}, {0: (0,), 1: (0,)}, 7, 1)


PATH_EDGES = {0: (0, 1), 1: (1, 2)}
PATH_ORDER = {0: (0,), 1: (0, 1), 2: (1,)}


@pytest.mark.parametrize(
    "edges, cyclic_order, message",
    [
        (PATH_EDGES, {**PATH_ORDER, 1: ([0], 1)}, "cyclic order at vertex 1"),
        ({0: (0, 1), "x": (1, 2)}, {0: (0,), 1: (0, "x"), 2: ("x",)}, "cannot be ordered"),
        (PATH_EDGES, {**PATH_ORDER, 9: (0, 1)}, "unknown vertex 9"),
    ],
    ids=["entry-not-an-edge", "unordered-ids", "unknown-vertex"],
)
def test_malformed_cyclic_orders_and_ids_are_value_errors(edges, cyclic_order, message):
    """An order entry that is no edge id (here unhashable), edge ids that
    cannot be sorted, and an order at a vertex the tree does not have are
    refused with ValueError, not a TypeError or silence."""
    with pytest.raises(ValueError, match=message):
        BrauerTree([0, 1, 2], edges, cyclic_order, 0, 1)


def test_isomorphism_detects_shape():
    assert line_tree(3).is_isomorphic_to(line_tree(3))
    assert not line_tree(3).is_isomorphic_to(BrauerTree.star(3, 1))
    # relabeled line
    other = BrauerTree(
        "abcd",
        {10: ("a", "b"), 11: ("b", "c"), 12: ("c", "d")},
        {"a": (10,), "b": (10, 11), "c": (11, 12), "d": (12,)},
        "a",
        1,
    )
    assert other.is_isomorphic_to(line_tree(3))


def test_exceptional_respected_for_higher_multiplicity():
    mid = line_tree(2, exceptional=1, multiplicity=2)
    end = line_tree(2, exceptional=0, multiplicity=2)
    assert not mid.is_isomorphic_to(end)
    # with multiplicity 1 the mark is immaterial
    assert line_tree(2, 1, 1).is_isomorphic_to(line_tree(2, 0, 1))


def test_enumeration_counts():
    assert len(all_brauer_trees(1, 1)) == 1
    assert len(all_brauer_trees(2, 1)) == 1
    assert len(all_brauer_trees(3, 1)) == 2
    assert len(all_brauer_trees(4, 1)) == 3
    assert len(all_brauer_trees(2, 2)) == 2
    for t in all_brauer_trees(4, 2):
        assert t.n == 4 and t.multiplicity == 2


@pytest.mark.parametrize("n, k", [(0, 1), (-1, 1), (3, 0)])
def test_enumeration_rejects_bad_sizes(n, k):
    with pytest.raises(ValueError):
        all_brauer_trees(n, k)


def test_shape_count_is_the_number_of_unlabeled_trees():
    # OEIS A000055 for 1..12 vertices
    a000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    assert [trees._shape_count(v) for v in range(1, 13)] == a000055


@pytest.mark.parametrize("n, k, read", [(5, 1, 52), (5, 2, 52), (4, 1, 8)])
def test_enumeration_stops_once_every_shape_is_met(monkeypatch, n, k, read):
    # the last new shape is the path, Prufer sequence (0, 1, ..., n - 2)
    labeled = trees._labeled_trees
    count = 0

    def counted(num_vertices):
        nonlocal count
        for edge_list in labeled(num_vertices):
            count += 1
            yield edge_list

    monkeypatch.setattr(trees, "_labeled_trees", counted)
    all_brauer_trees(n, k)
    assert count == read


# -- reference implementations: the full sweep and a memo-free key ----------------


def reference_encode(tree, v, in_edge, marked):
    """Code of the subtree entered at v through in_edge (the whole tree
    rooted at v when in_edge is None), re-encoding every subtree."""
    flag = 1 if (marked and v == tree.exceptional) else 0
    order = tree.cyclic_order[v]
    if in_edge is None:
        return min(
            (flag,)
            + tuple(reference_encode(tree, tree.other_end(e, v), e, marked) for e in rot)
            for rot in (order[i:] + order[:i] for i in range(len(order)))
        )
    i = order.index(in_edge)
    return (flag,) + tuple(
        reference_encode(tree, tree.other_end(e, v), e, marked)
        for e in order[i + 1 :] + order[:i]
    )


def reference_key(tree):
    marked = tree.multiplicity >= 2
    key = min(reference_encode(tree, v, None, marked) for v in tree.vertices)
    return (tree.n, tree.multiplicity, key)


def prufer_tree(seq):
    """The labeled tree of a Prufer sequence, as an edge list."""
    num_vertices = len(seq) + 2
    deg = [1] * num_vertices
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(num_vertices) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def reference_all_brauer_trees(n, multiplicity):
    """Every labeled tree in Prufer order, every cyclic order, every
    exceptional vertex; each class keeps the first tree met in it."""
    seen = {}
    for seq in product(range(n + 1), repeat=n - 1):
        edges = dict(enumerate(prufer_tree(seq)))
        incident = {v: [e for e, ends in edges.items() if v in ends] for v in range(n + 1)}
        per_vertex = [
            [(inc[0],) + p for p in permutations(inc[1:])] if len(inc) > 2 else [tuple(inc)]
            for inc in incident.values()
        ]
        for orders in product(*per_vertex):
            for exc in range(n + 1):
                tree = BrauerTree(range(n + 1), edges, dict(enumerate(orders)), exc, multiplicity)
                seen.setdefault(reference_key(tree), tree)
    return [seen[k] for k in sorted(seen)]


def representation(trees):
    return [
        (t.vertices, sorted(t.edges.items()), sorted(t.cyclic_order.items()), t.exceptional)
        for t in trees
    ]


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(1, 5) for k in (1, 2, 3)] + [(5, 1), (5, 2)]
)
def test_enumeration_keeps_the_full_sweep_representatives(n, k):
    assert representation(all_brauer_trees(n, k)) == representation(
        reference_all_brauer_trees(n, k)
    )


def test_enumeration_counts_six_edges():
    assert len(all_brauer_trees(6, 1)) == 14  # OEIS A002995
    assert len(all_brauer_trees(6, 2)) == 80  # OEIS A003239


def test_enumeration_counts_seven_edges():
    assert len(all_brauer_trees(7, 1)) == 34  # OEIS A002995
    assert len(all_brauer_trees(7, 2)) == 246  # OEIS A003239


@st.composite
def brauer_trees(draw):
    n = draw(st.integers(1, 9))
    seq = draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
    edges = dict(enumerate(prufer_tree(seq)))
    cyclic = {
        v: tuple(draw(st.permutations([e for e, ends in edges.items() if v in ends])))
        for v in range(n + 1)
    }
    exc = draw(st.integers(0, n))
    return BrauerTree(range(n + 1), edges, cyclic, exc, draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(brauer_trees())
def test_canonical_key_equals_reference(tree):
    assert tree.canonical_key() == reference_key(tree)
