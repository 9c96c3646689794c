"""Tilting decisions for complexes of projectives, and the module-level
criterion that decides them without touching chain maps.

For a minimal presentation T of a module M (no projective summands) the
complex T is partial tilting exactly when M has no maps to its second
syzygy and no chain maps T -> M; the two routes are kept independent so
they can cross-check each other.
"""

from __future__ import annotations

from . import linalg
from .complexes import ProjComplex, direct_sum, euler_pairing, hom_complex_dim
from .modules import (
    Representation,
    hom_dim,
    min_proj_presentation,
    second_syzygy,
)


def shift_range(Q: ProjComplex, R: ProjComplex):
    """Nonzero shifts where Hom can be nonzero for degree reasons; none
    when either complex is zero."""
    if not Q.comps or not R.comps:
        return []
    lo = R.min_degree - Q.max_degree
    hi = R.max_degree - Q.min_degree
    return [s for s in range(lo, hi + 1) if s != 0]


def is_partial_tilting(T: ProjComplex, direct: bool = False) -> bool:
    """Hom(T, T[s]) = 0 for every shift s != 0.

    Only the positive shifts are computed.  Brauer tree algebras are
    symmetric, so K^b(proj A) is 0-Calabi-Yau, Hom(X, Y) = D Hom(Y, X), and
    dim Hom(T, T[-s]) = dim Hom(T[s], T) = dim Hom(T, T[s]).  For a
    two-term T this leaves the single space Hom(T, T[1]), whose vanishing
    is presilting (Adachi, Iyama and Reiten, "tau-tilting theory", 2014).
    The shift-duality suite checks the identity by computing both sides
    directly, without this shortcut.
    """
    return all(
        hom_complex_dim(T, T, s, direct=direct) == 0 for s in shift_range(T, T) if s > 0
    )


def is_tilting(T: ProjComplex, direct: bool = False) -> bool:
    """Partial tilting with summands whose classes span K_0 (the rank
    criterion replaces the generation condition over these algebras; see
    classes_span_k0).  T must lie in two consecutive degrees."""
    return classes_span_k0(T) and is_partial_tilting(T, direct=direct)


def classes_span_k0(T: ProjComplex) -> bool:
    """Whether the classes of the summands of T span K_0.

    The summands are the parts of T (see direct_sum), and their classes
    sum_d (-1)^d [T^d] must have rank n, the number of simples.  This is
    exact: the classes of the distinct indecomposable summands of a
    two-term presilting complex are linearly independent, and those of a
    tilting complex form a Z-basis of K_0 (Adachi, Iyama and Reiten,
    "tau-tilting theory", 2014), so the rank taken mod the working prime
    is the rank over Q.  A part that is itself decomposable adds only its
    total class, so it cannot stand in for missing summands.  Raises
    ValueError unless T lies in two consecutive degrees.
    """
    if T.comps and T.max_degree - T.min_degree > 1:
        raise ValueError("is_tilting decides two-term complexes only")
    A, p = T.algebra, T.algebra.prime
    # each part's class read from its cached k0_terms, so a shared part
    # (an interned stalk or presentation) computes it once
    classes = [{A.eidx[e]: x % p for e, x in P.k0_terms if x % p} for P in T.parts]
    return linalg.rank(linalg.SparseRows(classes, A.n), p) == A.n


class TiltingComplex(ProjComplex):
    """A two-term tilting complex, the sum of its parts in the order
    given, made by a checking constructor that refuses other parts with
    ValueError.  `endo` is the End(T) it carries, or None.

    TiltingComplex(parts), realize's, builds End(T) over the plain sum
    (endo.EndoAlgebra, whose one space is ChainMapSpace(T, T, 0)), decides
    T from it (classes_span_k0, then dim End(T) = euler_pairing(T, T),
    which holds exactly when T is partial tilting) and adopts the sum's
    fields.  It keeps that End(T), which refers to the plain sum, not to
    the value: no reference cycle.

    of_parts(parts), covering_to_complex's, sums the parts into the value
    itself and decides it by is_tilting, through the shift-1 pair cache
    (exact: presilting is pairwise).  It carries no End(T).
    """

    endo = None

    @classmethod
    def of_parts(cls, parts) -> "TiltingComplex":
        T = cls._sum_of(parts)
        if not is_tilting(T):
            raise ValueError("complex is not tilting")
        return T

    def __init__(self, parts):
        from .endo import EndoAlgebra

        T = direct_sum(parts)
        E = EndoAlgebra(T) if classes_span_k0(T) else None
        # for a two-term T the Euler characteristic of its Hom complex gives
        # dim End(T) - <[T], [T]> = dim Hom(T, T[1]) + dim Hom(T, T[-1])
        if E is None or E.hom.dim != euler_pairing(T, T):
            raise ValueError("complex is not tilting")
        self._adopt(T.algebra, T.comps, T.diffs, None, T.parts)
        self.endo = E


def hom_to_module(T: ProjComplex, M: Representation) -> int:
    """dim Hom_{K^b}(T, M) with M a stalk in T's lower degree: maps from
    the lower term to M modulo those factoring through the differential."""
    A = T.algebra
    if M.algebra is not A:
        raise ValueError("module over a different algebra")
    lo = T.min_degree
    src = T.slots(lo)
    tgt = T.slots(lo + 1)
    dim_maps = sum(M.dims[A.eidx[a]] for a in src)
    if not tgt or lo not in T.diffs:
        return dim_maps
    diff, p = T.diffs[lo], A.prime
    cols = sum(M.dims[A.eidx[b]] for b in tgt)
    # block (g, h) holds the sum of c times the action of each class pc of
    # the entry from slot g to slot h
    rows = []
    for g, a in enumerate(src):
        here = [{} for _ in range(M.dims[A.eidx[a]])]
        coff = 0
        for h, b in enumerate(tgt):
            for pc, c in diff[h][g].items():
                for row, arow in zip(here, M.path_action(pc).rows):
                    for j, v in arow.items():
                        row[coff + j] = (row.get(coff + j, 0) + c * v) % p
            coff += M.dims[A.eidx[b]]
        rows.extend({j: v for j, v in row.items() if v} for row in here)
    return dim_maps - linalg.rank(linalg.SparseRows(rows, cols), p)


def module_partial_tilting_test(M: Representation) -> bool:
    """Decide partial tilting of the minimal presentation from module data
    alone: no maps M -> second syzygy and no chain maps onto M.  A module
    with a projective summand is refused by `syzygy`; only the maps onto M
    are read from the (interned) presentation.
    """
    if M.is_zero():
        raise ValueError("zero module")
    if hom_dim(M, second_syzygy(M)) != 0:
        return False
    return hom_to_module(min_proj_presentation(M), M) == 0
