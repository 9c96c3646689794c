import pytest

from brauertilt.algebra import star_algebra
from brauertilt.endo import endo_brauer_tree
from brauertilt.realization import label_brauer_tree, realize
from brauertilt.trees import BrauerTree, all_brauer_trees


def line_tree(n, exceptional=0, multiplicity=1):
    return BrauerTree(
        range(n + 1),
        {i: (i, i + 1) for i in range(n)},
        {v: tuple(e for e in (v - 1, v) if 0 <= e < n) for v in range(n + 1)},
        exceptional,
        multiplicity,
    )


def test_star_labels_follow_cyclic_order():
    star = BrauerTree.star(5, 2)
    labels = label_brauer_tree(star)
    assert [labels[e] for e in star.cyclic_order[0]] == [1, 2, 3, 4, 5]


def test_single_edge_label():
    t = line_tree(1)
    assert list(label_brauer_tree(t).values()) == [1]


def test_two_edge_path_rooted_at_end():
    t = line_tree(2, exceptional=0)
    labels = label_brauer_tree(t)
    assert labels[0] == 1 and labels[1] == 2


def test_four_line_labels_and_realization():
    t = line_tree(4)
    labels = label_brauer_tree(t)
    assert [labels[i] for i in range(4)] == [1, 4, 2, 3]
    T = realize(t)
    keys = {l.key for l in T.labels}
    assert keys == {
        ("stalk", 1, 0),
        ("pres", ("uniserial", 4, 3)),
        ("pres", ("uniserial", 4, 2)),
        ("pres", ("uniserial", 3, 1)),
    }


def test_realize_star_is_algebra():
    T = realize(BrauerTree.star(4, 2))
    assert all(l.kind == "stalk" and l.key[2] == 0 for l in T.labels)
    T1 = realize(BrauerTree.star(3, 1), stalk_degree=1)
    assert all(l.kind == "stalk" and l.key[2] == 1 for l in T1.labels)


def test_realize_uniform_stalk_degree_and_count():
    for t in all_brauer_trees(3, 2):
        T = realize(t)
        assert len(T.labels) == 3
        assert {l.key[2] for l in T.labels if l.kind == "stalk"} == {0}


def test_roundtrip_with_exceptional_placement():
    # 2-edge path, multiplicity 2, exceptional at an end
    t = line_tree(2, exceptional=0, multiplicity=2)
    T = realize(t)
    back, _ = endo_brauer_tree(T, method="both")
    assert back.is_isomorphic_to(t)
    mid = line_tree(2, exceptional=1, multiplicity=2)
    assert not back.is_isomorphic_to(mid)


def test_algebra_type_mismatch_rejected():
    with pytest.raises(ValueError):
        realize(line_tree(2), star_algebra(3, 1))
    with pytest.raises(ValueError):
        realize(line_tree(2), stalk_degree=2)
