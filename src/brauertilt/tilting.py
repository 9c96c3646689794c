"""Tilting decisions for complexes of projectives, and the module-level
criteria that decide them without touching chain maps.

For a minimal presentation T of a module M (no projective summands) the
complex T is partial tilting exactly when M has no maps to its second
syzygy and no chain maps T -> M; the two routes are kept independent so
they can cross-check each other.
"""

from __future__ import annotations

from . import linalg
from .complexes import ChainMapSpace, ProjComplex, direct_sum, hom_complex_dim
from .modules import (
    Representation,
    hom_dim,
    min_proj_presentation,
    projective_rep,
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


def shift_one_dim(hom: ChainMapSpace) -> int:
    """dim Hom(T, T[1]) of a two-term complex T, read from its space
    hom = ChainMapSpace(T, T, 0) with no space at shift 1.

    With T in degrees lo and lo + 1 there are no degree-wise maps
    T -> T[2], so Hom(T, T[1]) is the coefficients of the maps
    T^lo -> T^(lo+1) modulo the image of D_0.  That image has the rank of
    the space's commuting squares C = D_0, whose pivots its constructor
    counts: dim Hom(T, T[1]) = (those coefficients) - rank C.  The space at
    shift 1 eliminates N = D_0^T instead, with the signs of the degree-0
    unknowns flipped, which leaves the rank alone.
    """
    T = hom.Q
    if hom.R is not T or hom.s != 0:
        raise ValueError("needs the space Hom(T, T) at shift 0")
    if not T.comps or T.max_degree == T.min_degree:
        return 0
    if T.max_degree - T.min_degree > 1:
        raise ValueError("needs a two-term complex")
    lo, dims = T.min_degree, T.algebra.block_dims
    coefficients = sum(dims[(a, b)] for a in T.slots(lo) for b in T.slots(lo + 1))
    rank_c = hom.total - hom.dim - hom.null_rank
    return coefficients - rank_c


class TiltingComplex(ProjComplex):
    """A two-term tilting complex, the sum of its parts in the order
    given, made by a checking constructor that refuses other parts with
    ValueError.  `endo` is the End(T) it carries, or None.

    TiltingComplex(parts), realize's, builds End(T) over the plain sum
    (endo.EndoAlgebra, whose one space is ChainMapSpace(T, T, 0)), decides
    T from it (classes_span_k0 and shift_one_dim) and adopts the sum's
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
        if E is None or shift_one_dim(E.hom):
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


def stalk_orthogonality_test(M: Representation, edge, degree: int) -> bool:
    """Whether the stalk of P_edge (at the given degree of a two-term
    presentation) can join the minimal presentation of M, which must be
    partial tilting, in a partial tilting complex."""
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if not is_partial_tilting(min_proj_presentation(M)):
        raise ValueError("minimal presentation of M is not partial tilting")
    A = M.algebra
    P = projective_rep(A, edge)
    N = M if degree == 0 else second_syzygy(M)
    return hom_dim(N, P) == 0 and hom_dim(P, N) == 0
