"""The catalogue of an algebra: its candidate indecomposable two-term
summands and which pairs of them can sit in one presilting complex.

Presilting is a pairwise condition (Adachi, Iyama and Reiten,
"tau-tilting theory", 2014): a sum of presilting parts is presilting
exactly when Hom(u, v[1]) = 0 for every ordered pair of its parts.  Hom is
additive, so the Hom complex of a direct sum is block-diagonal by pairs of
parts, and one space over the sum of the members gives every pair's
dimension at once (pair_dims).  coverings.star_catalogue chooses the
members over the star and keeps the value on the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainMapSpace, direct_sum


@dataclass(frozen=True)
class Catalogue:
    """members: partial tilting two-term complexes over one algebra.
    rows[i] has bit j set when members i and j are compatible,
    Hom(i, j[1]) = Hom(j, i[1]) = 0; bit i is set, as every member is
    partial tilting."""

    members: tuple
    rows: tuple

    @classmethod
    def of(cls, members) -> "Catalogue":
        """The catalogue of the members, read from one shift-1 space over
        their sum.  Every pair's dim Hom(u, v[1]) is written to the
        algebra's hom_cache by record_hom_dims."""
        members = tuple(members)
        dims = pair_dims(members, 1)
        record_hom_dims(members[0].algebra,
                        {(members[i], members[j], 1): dim for (i, j), dim in dims.items()})
        m = len(members)
        return cls(members, tuple(sum(1 << j for j in range(m) if dims[i, j] == dims[j, i] == 0)
                                  for i in range(m)))


def record_hom_dims(A, dims: dict) -> None:
    """Write each pair's dimension, keyed (u, v, s) as in hom_cache, to
    A.hom_cache, the one batch writer there; an entry already there must
    agree (AssertionError)."""
    for key, dim in dims.items():
        if A.hom_cache.setdefault(key, dim) != dim:
            raise AssertionError(f"Hom dimension {dim} disagrees with a cached Hom dimension")


def pair_dims(parts, s: int) -> dict[tuple[int, int], int]:
    """dim Hom(parts[i], parts[j][s]) for every ordered pair (i, j), read
    from one ChainMapSpace over the sum of the parts at shift s.

    Its unknowns and the rows of its matrices C and N are numbered within
    pairs of parts, and forward elimination combines two rows only where
    they share a column, so every pivot lies in one pair's columns: a
    pair's dimension is its unknowns less its pivots."""
    S = direct_sum(parts)
    space = ChainMapSpace(S, S, s)
    owner = {d: [k for k, P in enumerate(parts) for _ in P.slots(d)] for d in S.comps}
    dims = S.algebra.block_dims
    pair_of = []  # the pair of each unknown, in column order
    for d, j, i in space.offsets:
        pair = (owner[d][i], owner[d + s][j])
        pair_of += [pair] * dims[(S.slots(d)[i], S.slots(d + s)[j])]
    out = dict.fromkeys(((u, v) for u in range(len(parts)) for v in range(len(parts))), 0)
    for pair in pair_of:
        out[pair] += 1
    for c in space.chain_pivots + space.null_pivots:
        out[pair_of[c]] -= 1
    return out
