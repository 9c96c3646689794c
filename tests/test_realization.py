import json
from functools import lru_cache
from pathlib import Path

import pytest

import brauertilt
from brauertilt import cli, complexes, coverings, endo, realization, tilting
from brauertilt.algebra import star_algebra
from brauertilt.complexes import direct_sum, stalk_complex
from brauertilt.endo import endo_brauer_tree
from brauertilt.modules import uniserial_presentation
from brauertilt.realization import label_brauer_tree, realize
from brauertilt.tilting import TiltingComplex
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


@lru_cache(maxsize=None)
def small_trees():
    """Every Brauer tree with at most 6 edges at multiplicity 1 and 2."""
    return [t for n in range(1, 7) for k in (1, 2) for t in all_brauer_trees(n, k)]


def rooted(tree):
    """Read off the tree rooted at its exceptional vertex, independently of
    the realization: the level of the vertex above each edge, the edge above
    it (None for a root edge) and the edges of the subtree it heads."""
    level, above, through = {tree.exceptional: 0}, {}, {tree.exceptional: None}
    stack = [tree.exceptional]
    while stack:
        v = stack.pop()
        for e in tree.cyclic_order[v]:
            w = tree.other_end(e, v)
            if w not in level:
                level[w] = level[v] + 1
                above[e] = (level[v], through[v])
                through[w] = e
                stack.append(w)
    subtree = {e: {e} for e in tree.edges}
    for e in sorted(tree.edges, key=lambda e: -above[e][0]):
        if above[e][1] is not None:
            subtree[above[e][1]] |= subtree[e]
    return above, subtree


@pytest.mark.parametrize("stalk_degree", [0, 1])
def test_labels_are_blocks_with_the_edge_at_the_parity_end(stalk_degree):
    """(i) the labels are a bijection onto 1..n; (ii) every edge's subtree
    holds one contiguous block of labels, and the edge sits at its bottom
    under an even-level vertex (odd-level when mirrored) and at its top
    otherwise."""
    for tree in small_trees():
        labels = label_brauer_tree(tree, mirror=stalk_degree == 1)
        assert sorted(labels.values()) == list(range(1, tree.n + 1))
        above, subtree = rooted(tree)
        for e, (level, _) in above.items():
            block = sorted(labels[f] for f in subtree[e])
            assert block == list(range(block[0], block[-1] + 1))
            at_bottom = (level % 2 == 0) != (stalk_degree == 1)
            assert labels[e] == (block[0] if at_bottom else block[-1])


@pytest.mark.parametrize("stalk_degree", [0, 1])
def test_parts_are_root_stalks_and_edge_pair_presentations(stalk_degree):
    """(iii) the parts of realize are the stalks at the root-edge labels,
    and for each other edge and the edge above it, labelled lo < hi, the
    presentation of the uniserial with top hi and length hi - lo, which
    lies in 1..n-1, all in summand-key order."""
    algebras = {}
    for tree in small_trees():
        n = tree.n
        if (n, tree.multiplicity) not in algebras:
            algebras[n, tree.multiplicity] = star_algebra(n, tree.multiplicity)
        A = algebras[n, tree.multiplicity]
        labels = label_brauer_tree(tree, mirror=stalk_degree == 1)
        expect = []
        for e, (_, up) in rooted(tree)[0].items():
            if up is None:
                expect.append(stalk_complex(A, labels[e], stalk_degree))
                continue
            lo, hi = sorted((labels[e], labels[up]))
            assert 1 <= hi - lo <= n - 1
            expect.append(uniserial_presentation(A, hi, hi - lo))
        expect.sort(key=lambda P: P.summand.key)
        parts = realize(tree, A, stalk_degree).parts
        assert len(parts) == n and all(P is Q for P, Q in zip(parts, expect))


LINE_4_2_MID = {"vertices": [0, 1, 2, 3, 4],
                "edges": [{"id": i, "ends": [i, i + 1]} for i in range(4)],
                "cyclic_order": {"0": [0], "1": [0, 1], "2": [1, 2], "3": [2, 3], "4": [3]},
                "exceptional": 2, "multiplicity": 2}


@pytest.mark.parametrize(
    "doc, stalk_degree, golden",
    [
        ({"star": {"n": 5, "k": 2}}, 0, "realize_star_5_2.json"),
        (LINE_4_2_MID, 0, "realize_line_4_2_mid_deg0.json"),
        (LINE_4_2_MID, 1, "realize_line_4_2_mid_deg1.json"),
    ],
    ids=["star-5-2", "line-4-2-mid-deg0", "line-4-2-mid-deg1"],
)
def test_realize_json_golden(tmp_path, capsys, doc, stalk_degree, golden):
    """`brauertilt --json realize` matches the committed output byte for
    byte: the summands, their order and their differentials are pinned."""
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["--json", "realize", str(path), "--stalk-degree", str(stalk_degree)])
    assert rc == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()


def test_realize_returns_the_decided_sum_of_its_parts():
    """realize returns the direct sum of its parts, field for field, and
    the End(T) it carries is built over that plain sum, not over the value
    itself, so End(T) refers back to no value that holds it."""
    A = star_algebra(4, 2)
    T = realize(line_tree(4, exceptional=2, multiplicity=2), A)
    plain = direct_sum(T.parts)
    assert isinstance(T, TiltingComplex)
    assert (T.comps, T.diffs, T.labels) == (plain.comps, plain.diffs, plain.labels)
    E = T.endo
    assert E.T is not T and E.hom.Q is E.T and E.T.parts == T.parts
    assert E.parts == list(T.parts)


def test_the_checking_constructor_refuses_complexes_that_are_not_tilting():
    """TiltingComplex, realize's constructor, refuses the realization of a
    tree with a summand left out (the classes no longer span K_0) and with
    the presentation of P/soc P added (the classes still span, but Hom(T,
    T[1]) is not 0), with the error the decoders give a complex that is not
    tilting."""
    for tree, A in ((line_tree(4), star_algebra(4, 1)), (line_tree(3, 1, 2), star_algebra(3, 2))):
        parts = list(realize(tree, A).parts)
        socle_quotient = uniserial_presentation(A, 1, A.n * A.tree.multiplicity)
        assert socle_quotient.comps == {0: (1,), 1: (1,)}
        for bad in (parts[:-1], parts[1:], parts + [socle_quotient]):
            with pytest.raises(ValueError, match="complex is not tilting"):
                TiltingComplex(bad)
            with pytest.raises(ValueError, match="complex is not tilting"):
                endo_brauer_tree(direct_sum(bad))
        assert isinstance(TiltingComplex(parts[::-1]), TiltingComplex)


def spy_is_tilting(monkeypatch, calls):
    """Record every call of is_tilting from any package module that holds it."""
    original = tilting.is_tilting

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (brauertilt, tilting, endo, realization, coverings):
        if getattr(mod, "is_tilting", None) is original:
            monkeypatch.setattr(mod, "is_tilting", spy)


@pytest.mark.parametrize("n, k", [(6, 1), (5, 2)])
@pytest.mark.parametrize("stalk_degree", [0, 1])
def test_one_round_trip_decides_once_from_one_space(monkeypatch, n, k, stalk_degree):
    """realize then endo_brauer_tree(method="both") on a fresh star builds
    exactly one ChainMapSpace, Hom(T, T) over the whole complex at shift 0,
    none at shift 1, and never calls is_tilting: T is decided from the
    space its End(T) is read from, and the decoders and the Cartan check
    take that decision as made."""
    built, calls = [], []
    init = complexes.ChainMapSpace.__init__

    def recording_init(self, Q, R, s):
        built.append((Q, R, s))
        init(self, Q, R, s)

    monkeypatch.setattr(complexes.ChainMapSpace, "__init__", recording_init)
    spy_is_tilting(monkeypatch, calls)
    tree = next(t for t in all_brauer_trees(n, k) if not t.is_star() and t.cyclic_order[t.exceptional][1:])
    T = realize(tree, star_algebra(n, k), stalk_degree)
    back, _ = endo_brauer_tree(T, method="both")
    assert back.is_isomorphic_to(tree)
    assert [(Q is R is T.endo.T, len(Q.parts), s) for Q, R, s in built] == [(True, n, 0)]
    assert calls == []
