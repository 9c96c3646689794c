"""Realize any Brauer tree as the endomorphism ring of a two-term tilting
complex over the star algebra of the same type.

The tree is rooted at its exceptional vertex and every edge receives a
label in 1..n so that each subtree occupies a contiguous block of labels:
below an even-level vertex (root included) an edge takes the bottom of its
block, below an odd-level vertex the top.  Root edges become projective
stalks; an edge below an odd-level vertex with up-edge labeled j becomes
the presentation with lower term P_j and cover P_(own label); below an
even-level vertex the two roles swap.  This makes the summands around each
vertex share the component the A-cycle grouping keys on, with labels
ascending in the order of the cyclic order, so the endomorphism tree
reproduces the input.
"""

from __future__ import annotations

from .algebra import BrauerTreeAlgebra, star_algebra
from .complexes import ProjComplex, direct_sum, stalk_complex
from .modules import uniserial_presentation
from .tilting import is_tilting
from .trees import BrauerTree


def _oriented_children(tree: BrauerTree, v, up_edge):
    order = tree.cyclic_order[v]
    if up_edge is None:
        return list(order)
    i = order.index(up_edge)
    return list(order[i + 1 :] + order[:i])


def _subtree_edge_count(tree: BrauerTree, v, up_edge) -> int:
    total = 0
    for e in _oriented_children(tree, v, up_edge):
        total += 1 + _subtree_edge_count(tree, tree.other_end(e, v), e)
    return total


def label_brauer_tree(tree: BrauerTree, mirror: bool = False) -> dict:
    """Edge labeling used by the realization; bijective onto 1..n.

    Every subtree occupies a contiguous block.  In the primary form an edge
    under an even-level vertex takes the bottom of its block and an edge
    under an odd-level vertex the top; the mirrored form (used when all
    stalks go to the upper degree) swaps the two.
    """
    root = tree.exceptional
    labels: dict = {}

    def assign(edge, upper_vertex, level, lo, hi):
        take_bottom = (level % 2 == 0) != mirror
        if take_bottom:
            labels[edge] = lo
            window = (lo + 1, hi)
        else:
            labels[edge] = hi
            window = (lo, hi - 1)
        child_vertex = tree.other_end(edge, upper_vertex)
        cursor = window[0]
        for ch in _oriented_children(tree, child_vertex, edge):
            size = 1 + _subtree_edge_count(
                tree, tree.other_end(ch, child_vertex), ch
            )
            assign(ch, child_vertex, level + 1, cursor, cursor + size - 1)
            cursor += size

    cursor = 1
    for e in _oriented_children(tree, root, None):
        size = 1 + _subtree_edge_count(tree, tree.other_end(e, root), e)
        assign(e, root, 0, cursor, cursor + size - 1)
        cursor += size
    if sorted(labels.values()) != list(range(1, tree.n + 1)):
        raise AssertionError("edge labeling failed to cover 1..n")
    return labels


def realize(
    tree: BrauerTree,
    A: BrauerTreeAlgebra | None = None,
    stalk_degree: int = 0,
) -> ProjComplex:
    """Two-term tilting complex over the star algebra of type
    (n, multiplicity) whose endomorphism Brauer tree is the given tree.

    stalk_degree 0 is the primary construction; stalk_degree 1 builds the
    mirrored variant with all projective stalks in the upper degree.
    Without A the star algebra is built at the default prime.
    """
    if stalk_degree not in (0, 1):
        raise ValueError("stalk_degree must be 0 or 1")
    if A is None:
        A = star_algebra(tree.n, tree.multiplicity)
    else:
        A.require_star()
        if A.n != tree.n or A.tree.multiplicity != tree.multiplicity:
            raise ValueError("algebra type does not match the tree")
    labels = label_brauer_tree(tree, mirror=stalk_degree == 1)
    root = tree.exceptional
    n = A.n

    summands = []  # (sort key, part)
    for e in _oriented_children(tree, root, None):
        summands.append((("stalk", labels[e]), stalk_complex(A, labels[e], stalk_degree)))

    def walk(edge, upper_vertex, level):
        child_vertex = tree.other_end(edge, upper_vertex)
        for ch in _oriented_children(tree, child_vertex, edge):
            own, up = labels[ch], labels[edge]
            odd_rule = (level + 1) % 2 == 1
            if stalk_degree == 1:
                odd_rule = not odd_rule
            if odd_rule:
                p0, p1 = up, own
            else:
                p0, p1 = own, up
            length = (p1 - p0) % n
            summands.append((("pres", p1, length), uniserial_presentation(A, p1, length)))
            walk(ch, child_vertex, level + 1)

    for e in _oriented_children(tree, root, None):
        walk(e, root, 0)

    T = direct_sum([part for _, part in sorted(summands, key=lambda kp: kp[0])])
    if not is_tilting(T):
        raise AssertionError("realization did not produce a tilting complex")
    return T
