"""Realize any Brauer tree as the endomorphism ring of a two-term tilting
complex over the star algebra of the same type.

The tree is rooted at its exceptional vertex, and one walk down from it,
visiting the edges at each vertex in cyclic order from the edge above,
numbers the edges 1..n (see label_brauer_tree), so that every subtree holds
a contiguous block of labels.  Root edges become projective stalks.  Any
other edge and the edge above it carry labels lo < hi, since one lies in
the other's block and opens or closes it, and the pair becomes the
presentation P_lo -> P_hi of the uniserial with top hi and length hi - lo.
This makes the summands around each vertex share the component the A-cycle
grouping keys on, with labels ascending in the order of the cyclic order,
so the endomorphism tree reproduces the input.
"""

from __future__ import annotations

from .algebra import BrauerTreeAlgebra, star_algebra
from .complexes import stalk_complex
from .modules import uniserial_presentation
from .tilting import TiltingComplex
from .trees import BrauerTree


def _children(tree: BrauerTree, v, up_edge):
    """The edges at v below up_edge, in cyclic order from it."""
    order = tree.cyclic_order[v]
    if up_edge is None:
        return order
    i = order.index(up_edge)
    return order[i + 1 :] + order[:i]


def label_brauer_tree(tree: BrauerTree, mirror: bool = False) -> dict:
    """Edge labeling used by the realization; bijective onto 1..n.

    One counted walk down from the exceptional vertex: an edge under an
    even-level vertex (odd-level when mirrored, the form used when all
    stalks go to the upper degree) takes the next label when the walk
    enters it, any other edge when the walk leaves it.  So every subtree
    holds a contiguous block, with its top edge at the bottom of the block
    in the first case and at the top in the second.  realize turns an edge
    and the edge above it, labelled lo < hi, into P_lo -> P_hi.
    """
    labels: dict = {}

    def walk(edge, upper_vertex, level):
        on_entry = (level % 2 == 0) != mirror
        if on_entry:
            labels[edge] = len(labels) + 1
        v = tree.other_end(edge, upper_vertex)
        for ch in _children(tree, v, edge):
            walk(ch, v, level + 1)
        if not on_entry:
            labels[edge] = len(labels) + 1

    for e in _children(tree, tree.exceptional, None):
        walk(e, tree.exceptional, 0)
    return labels


def realize(
    tree: BrauerTree,
    A: BrauerTreeAlgebra | None = None,
    stalk_degree: int = 0,
) -> TiltingComplex:
    """Two-term tilting complex over the star algebra of type
    (n, multiplicity) whose endomorphism Brauer tree is the given tree,
    decided once and carrying its End(T) (see TiltingComplex), which
    endo_brauer_tree decodes without deciding again.

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
    parts = [stalk_complex(A, labels[e], stalk_degree) for e in _children(tree, root, None)]

    def walk(edge, upper_vertex):
        v = tree.other_end(edge, upper_vertex)
        for ch in _children(tree, v, edge):
            lo, hi = sorted((labels[ch], labels[edge]))
            parts.append(uniserial_presentation(A, hi, hi - lo))
            walk(ch, v)

    for e in _children(tree, root, None):
        walk(e, root)
    return TiltingComplex(sorted(parts, key=lambda P: P.summand.key))
