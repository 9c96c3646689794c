"""Bounded complexes of projectives and Hom spaces in the homotopy category.

A differential entry from a P_a slot to a P_b slot is a linear combination
of path classes from edge a to edge b, acting by right multiplication.
Composition of maps multiplies the path elements left factor first, so a
chain map followed by another corresponds to the algebra product of their
entries in that order.

Hom_{K^b}(Q, R[s]) is H^s of the Hom complex: the chain maps, the kernel
of its differential D_s, modulo the null-homotopic maps, the image of
D_{s-1}.  One builder gives the matrix of D at both shifts, and both are
eliminated exactly over the working prime field.  Sign conventions for
shifted differentials are dropped: they rescale unknowns and never change
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .algebra import BrauerTreeAlgebra


@dataclass(frozen=True)
class Summand:
    """Name of one part of a complex, read off the part (see
    ProjComplex.summand): nothing stores or aligns it.

    A stalk P_e in degree d has key ("stalk", e, d); any other part has
    key ("pres", name) for the name its constructor gave it, or
    ("pres", (), content) when it has none: the content alone, so equal
    complexes get equal keys whatever order they were built in.
    """

    key: tuple
    text: str = field(compare=False)

    @property
    def kind(self) -> str:
        return self.key[0]

    def display(self) -> str:
        return self.text


class ProjComplex:
    """Bounded complex of projectives.

    comps maps a degree to the tuple of projective edge indices in that
    degree; diffs[d] is the matrix of the differential comps[d] ->
    comps[d+1], stored as rows over target slots with path-element entries.
    parts are the summands the complex was assembled from (see direct_sum);
    a complex built on its own is its only part.  name is what its
    constructor called such a part (uniserial_presentation sets it); the
    labels, one Summand per part, are read off the parts, for display only.
    """

    def __init__(self, algebra: BrauerTreeAlgebra, comps, diffs, name=None):
        self._adopt(algebra, comps, {}, name, None)
        for d, mat in diffs.items():
            d = _degree(d)
            self.diffs[d] = _checked(algebra, mat, self.slots(d), self.slots(d + 1),
                                     f"differential at degree {d}")
        self._validate()

    def _adopt(self, algebra, comps, grid, name, parts):
        """Set every field of the complex, holding grid as its
        differentials as it is."""
        self.algebra = algebra
        self.comps = {_degree(d): tuple(c) for d, c in comps.items() if len(c) > 0}
        self.diffs = grid
        self.name = name
        self.parts = tuple(parts) if parts is not None else (self,) if self.comps else ()

    @classmethod
    def _sum_of(cls, parts) -> "ProjComplex":
        """direct_sum, made as a complex of this class.  Its differentials
        are copied from the parts' entries here, so only their shape is
        checked."""
        parts = list(parts)
        if not parts:
            raise ValueError("empty direct sum")
        A = parts[0].algebra
        if any(P.algebra is not A for P in parts):
            raise ValueError("summands live over different algebras")
        degrees = sorted({d for P in parts for d in P.comps})
        # starts[k][d]: the first slot of part k in its degree d of the sum
        comps = {d: [] for d in degrees}
        starts = []
        for P in parts:
            starts.append({d: len(comps[d]) for d in P.comps})
            for d, slots in P.comps.items():
                comps[d].extend(slots)
        used = {d for P in parts for d in P.diffs}
        grid = {d: [[{} for _ in comps[d]] for _ in comps.get(d + 1, ())] for d in degrees if d in used}
        # each entry of a part joins two degrees where the part has slots
        for P, at in zip(parts, starts):
            for d, mat in P.diffs.items():
                for h, xs in enumerate(mat):
                    for g, x in enumerate(xs):
                        grid[d][at[d + 1] + h][at[d] + g] = dict(x)
        S = cls.__new__(cls)
        S._adopt(A, comps, grid, None, [q for P in parts for q in P.parts])
        for d, mat in grid.items():
            _check_shape(mat, S.slots(d), S.slots(d + 1), f"differential at degree {d}")
        return S

    def _validate(self):
        for d in self.diffs:
            if d + 1 in self.diffs:
                square = _product(self.algebra, self.diffs[d], self.diffs[d + 1], len(self.slots(d)))
                if any(entry for row in square for entry in row):
                    raise ValueError("differential does not square to zero")

    # -- shape ------------------------------------------------------------------

    def degrees(self):
        return sorted(self.comps)

    @property
    def min_degree(self):
        return min(self.comps)

    @property
    def max_degree(self):
        return max(self.comps)

    def slots(self, d) -> tuple:
        return self.comps.get(d, ())

    def diff(self, d):
        src, tgt = self.slots(d), self.slots(d + 1)
        if d in self.diffs:
            return self.diffs[d]
        return [[{} for _ in src] for _ in tgt]

    def k0_class(self) -> tuple:
        """The class sum_d (-1)^d [X^d] in K_0, as multiplicities over the edges."""
        eidx = self.algebra.eidx
        cls = [0] * len(eidx)
        for d, slots in self.comps.items():
            sign = -1 if d % 2 else 1
            for e in slots:
                cls[eidx[e]] += sign
        return tuple(cls)

    @cached_property
    def k0_terms(self) -> tuple:
        """The nonzero entries of k0_class(), as (edge, multiplicity) pairs."""
        return tuple((e, x) for e, x in zip(self.algebra.edges, self.k0_class()) if x)

    @property
    def labels(self) -> tuple:
        """One Summand per part, read off the part."""
        return tuple(P.summand for P in self.parts)

    @cached_property
    def summand(self) -> Summand:
        """This complex named as one part: a stalk when it has one slot in
        one degree, else a presentation, shown as P_b->P_a when it has one
        slot in each of degrees 0 and 1.  An unnamed presentation is keyed
        by its content: its comps, and each nonzero differential entry as
        its sorted (basis index, coefficient mod p) pairs."""
        if len(self.comps) == 1:
            (d, slots), = self.comps.items()
            if len(slots) == 1:
                return Summand(("stalk", slots[0], d), f"P_{slots[0]}[deg {d}]")
        name = self.name
        if name is None:
            index, p = self.algebra.index, self.algebra.prime
            entries = ((d, h, g, tuple(sorted((index[pc], c % p) for pc, c in x.items() if c % p)))
                       for d in sorted(self.diffs) for h, row in enumerate(self.diffs[d])
                       for g, x in enumerate(row))
            key = ("pres", (), (tuple(sorted(self.comps.items())),
                                tuple(e for e in entries if e[3])))
            text = "; ".join(f"deg {d}: {list(self.comps[d])}" for d in self.degrees())
        else:
            key = ("pres", tuple(name) if isinstance(name, (list, tuple)) else (name,))
            text = f"pres{name}"
        if self.degrees() == [0, 1] and len(self.comps[0]) == len(self.comps[1]) == 1:
            # cover first, matching the usual way these summands are written
            text = f"P_{self.comps[1][0]}->P_{self.comps[0][0]}"
        return Summand(key, text)

    def display(self) -> str:
        return " + ".join(l.display() for l in self.labels)


def _degree(d) -> int:
    """The degree d as an int: d is an integer, or the digit string of a
    JSON key.  Raises ValueError for any other value, such as 1.5."""
    try:
        n = int(d)
    except (TypeError, ValueError):
        n = None
    if n is None or n != d and str(n) != d:
        raise ValueError(f"degree {d!r} is not an integer")
    return n


def _checked(A: BrauerTreeAlgebra, mat, src, tgt, what: str) -> list:
    """A copy of the path-element matrix mat from the slots src to the slots
    tgt, stored as rows over tgt.  Raises ValueError unless it has that
    shape and every entry [h][g] is a combination of basis classes from
    edge src[g] to edge tgt[h]."""
    mat = [[dict(entry) for entry in row] for row in mat]
    _check_shape(mat, src, tgt, what)
    for h, row in enumerate(mat):
        for g, entry in enumerate(row):
            for pc in entry:
                if pc not in A.index:
                    raise ValueError(f"entry {pc} of {what} is not a basis class")
                if pc.start != src[g] or pc.end != tgt[h]:
                    raise ValueError(f"entry {pc} of {what} not in block ({src[g]}, {tgt[h]})")
    return mat


def _check_shape(mat, src, tgt, what: str):
    """Raises ValueError unless mat has a row per slot of tgt and an entry
    per slot of src in each row."""
    if len(mat) != len(tgt) or any(len(row) != len(src) for row in mat):
        raise ValueError(f"{what} has wrong shape")


def _product(A: BrauerTreeAlgebra, first, then, width: int) -> list:
    """The product "first, then `then`" of two matrices of path elements,
    each stored as rows over its target slots: entry [t][i] is the sum over
    j of first[j][i] * then[t][j], multiplied left factor first in A.mult.
    width is the number of source slots of `first`."""
    mult, p = A.mult, A.prime
    out = []
    for then_row in then:
        row = []
        for i in range(width):
            acc = {}
            for j, y in enumerate(then_row):
                for pcx, cx in first[j][i].items():
                    for pcy, cy in y.items():
                        r = mult.get((pcx, pcy))
                        if r is not None:
                            acc[r] = (acc.get(r, 0) + cx * cy) % p
            row.append({pc: c for pc, c in acc.items() if c})
        out.append(row)
    return out


def stalk_complex(A: BrauerTreeAlgebra, edge, degree=0) -> ProjComplex:
    """P_edge in that degree, built once per algebra (A.summand_cache)."""
    key = ("stalk", edge, _degree(degree))
    P = A.summand_cache.get(key)
    if P is None:
        if edge not in A.eidx:
            raise ValueError(f"unknown edge {edge}")
        P = A.summand_cache[key] = ProjComplex(A, {key[2]: (edge,)}, {})
    return P


def algebra_complex(A: BrauerTreeAlgebra, degree=0) -> ProjComplex:
    """A (or A shifted) as the sum of all projective stalks."""
    return direct_sum([stalk_complex(A, e, degree) for e in A.edges])


def direct_sum(parts) -> ProjComplex:
    """The parts laid out one after another in every degree."""
    return ProjComplex._sum_of(parts)


# -- chain maps -----------------------------------------------------------------


class ChainMap:
    """Chain map Q -> R[s], stored per degree d as a matrix of path elements
    from the slots of Q_d to those of R_{d+s}.  A wrong shape or an entry
    outside its block is refused, as in ProjComplex; commuting with the
    differentials is left to is_chain_map."""

    def __init__(self, Q: ProjComplex, R: ProjComplex, s: int, comps):
        self.Q, self.R, self.s = Q, R, _degree(s)
        self.comps = {}
        for d, mat in comps.items():
            d = _degree(d)
            self.comps[d] = _checked(Q.algebra, mat, Q.slots(d), R.slots(d + self.s),
                                     f"chain map at degree {d}")

    def entry(self, d):
        src, tgt = self.Q.slots(d), self.R.slots(d + self.s)
        if d in self.comps:
            return self.comps[d]
        return [[{} for _ in src] for _ in tgt]

    def is_chain_map(self) -> bool:
        """Whether d_Q f_{d+1} = f_d d_R in every degree, multiplied out in
        A.mult (independently of ChainMapSpace)."""
        A = self.Q.algebra
        for d in self.Q.degrees():
            width = len(self.Q.slots(d))
            if not width or not self.R.slots(d + self.s + 1):
                continue
            lhs = _product(A, self.Q.diff(d), self.entry(d + 1), width)
            if lhs != _product(A, self.entry(d), self.R.diff(d + self.s), width):
                return False
        return True


def identity_chain_map(T: ProjComplex) -> ChainMap:
    from .algebra import idempotent

    comps = {}
    for d in T.degrees():
        slots = T.slots(d)
        comps[d] = [
            [{idempotent(slots[i]): 1} if i == j else {} for i in range(len(slots))]
            for j in range(len(slots))
        ]
    return ChainMap(T, T, 0, comps)


class ChainMapSpace:
    """Hom_{K^b}(Q, R[s]) = H^s of the Hom complex, whose degree t holds
    the degree-wise maps Q -> R[t], with differential
    D_t(f) = d_Q f + sign * f d_R.

    The unknowns are the coefficients of a map Q -> R[s], in blocks at the
    offsets of `_block_offsets` at s, the one layout a space builds.  One
    builder, `_hom_differential`, gives both matrices as `linalg.SparseRows`
    without their zero rows, rows told apart by their blocks at the other
    shift: the commuting squares C = D_s with sign -1 (the chain maps are
    ker D_s), and N = D_{s-1}^T with sign +1, whose rows span the
    null-homotopic maps (im D_{s-1}).  A matrix is built only when maps
    Q -> R[s] and maps at its other shift exist; for a two-term pair at
    s = 1 there are no maps Q -> R[2], so C has no rows and is not built.

    Construction is rank-first: it runs only the forward pass of
    elimination (`linalg.echelon`) on each matrix with rows and keeps the
    echelon forms and their pivot columns (chain_pivots, null_pivots), so
    dim = total - rank C - rank N from the pivot counts.
    D_s D_{s-1} = 0, the containment of the null-homotopic maps in the
    chain maps, is checked as C N^T = 0 on the rows as built, which are
    then dropped.  A tilting decision reads only dim, so it back-substitutes
    nothing.

    The bases are made on first read, each once: null_basis (the reduced
    rows of N) and chain_basis (the nullspace of C) each back-substitute
    their echelon form (`linalg.back_substitute`, in place).
    _reduction_data works on the same sparse rows, with one code path for
    every space, dimension 0 included: the null rows in the coordinates of
    chain_basis, eliminated once by their last column, give the quotient
    representatives and the matrix that gives quotient coordinates, which
    holds chain_basis as its left block.  quotient_coords finds a
    vector's free columns through a {column: position} map.

    When Q and R are sums of parts, the Hom complex is block-diagonal by
    pairs of parts, and so is every elimination above: the classes of a
    pair of parts are those of its space built alone, in the same order
    (EndoAlgebra reads them so), and its pivots lie in the pair's columns
    (catalogue.pair_dims counts them so).
    """

    def __init__(self, Q: ProjComplex, R: ProjComplex, s: int):
        A, s = Q.algebra, _degree(s)
        if R.algebra is not A:
            raise ValueError("complexes over different algebras")
        p = A.prime
        here = _block_offsets(A, Q, R, s)
        total = here[1]
        # C can have rows only if maps Q -> R[s] and Q -> R[s+1] exist, N
        # only if maps Q -> R[s] and Q -> R[s-1] do
        cmat = nmat = linalg.SparseRows([], total)
        above = total > 0 and _meets(Q, R, s + 1)
        below = total > 0 and _meets(Q, R, s - 1)
        if above or below:
            q_entries = _nonzero_entries(Q)
            entries = (q_entries, q_entries if R is Q else _nonzero_entries(R))
        if above:
            cmat = _hom_differential(A, Q, R, s, -1, here, entries)
        if below:
            nmat = _hom_differential(A, Q, R, s - 1, 1, here, entries, transpose=True)
        # forward elimination only: dim needs the pivot counts, and the
        # echelon forms are reduced when a basis is first read
        chain, null = [linalg.echelon(m, p) if m.rows else (m, []) for m in (cmat, nmat)]
        if not _product_vanishes(cmat, nmat, p):
            raise AssertionError("null-homotopic maps escaped the chain-map space")
        self.Q, self.R, self.s = Q, R, s
        self.offsets, self.total = here
        (self._chain_ech, self.chain_pivots), (self._null_ech, self.null_pivots) = chain, null
        self.null_rank = len(self.null_pivots)
        self.dim = self.total - len(self.chain_pivots) - self.null_rank
        self._reduction = None

    @cached_property
    def null_basis(self) -> linalg.SparseRows:
        """Rows form a basis of the null-homotopic maps: the reduced rows
        of N."""
        red = linalg.back_substitute(self._null_ech, self.null_pivots, self.Q.algebra.prime)
        return linalg.SparseRows(red.rows, self.total)

    @cached_property
    def free(self) -> list[int]:
        """The free columns of C, the columns that are not its pivots: a
        chain map is the combination of chain_basis with its entries there."""
        return linalg.free_columns(self.chain_pivots, self.total)

    @cached_property
    def _free_index(self) -> dict[int, int]:
        """The position of each free column in free."""
        return {c: r for r, c in enumerate(self.free)}

    @cached_property
    def chain_basis(self) -> linalg.SparseRows:
        """Rows span the chain maps: the nullspace of the commuting squares,
        one row per free column, 1 there and minus that column of the
        reduced rows of C at their pivots."""
        p = self.Q.algebra.prime
        red = linalg.back_substitute(self._chain_ech, self.chain_pivots, p)
        return linalg.kernel_basis(red.rows, self.chain_pivots, self.free, self.total, p)

    def _reduction_data(self):
        """The free columns of C, the chain-basis rows that are independent
        of the null rows and of the earlier chain-basis rows, and the matrix
        [chain_basis | F^T] that quotient_coords multiplies by.

        A chain map v is the combination of the chain basis with the
        coefficients y = v[free].  In these coordinates the chain basis is
        the identity, and the null rows restricted to the free columns span
        the null-homotopic maps.  Eliminated by their last column, they put
        a pivot at every free column whose basis row is a null row plus
        earlier basis rows, so the other free columns pick the
        representatives greedily.  With the null rows reduced, y is the sum
        of y[pivot] times each null row and a combination of the
        representatives, whose coefficients, the quotient coordinates F y,
        are y at the representatives minus what the null rows put there: F
        has one row per representative, the kernel basis of the reduced
        null rows.  So y [chain_basis | F^T] is v followed by its quotient
        coordinates.
        """
        if self._reduction is None:
            p, free, total = self.Q.algebra.prime, self.free, self.total
            last = len(free) - 1
            # the null rows at the free columns, numbered backwards, so that
            # the forward pass eliminates each row by its last column
            back = {c: last - r for r, c in enumerate(free)}
            rows = [{back[j]: v for j, v in row.items() if j in back}
                    for row in self._null_ech.rows]
            ech, pivots = linalg.echelon(linalg.SparseRows(rows, len(free)), p)
            linalg.back_substitute(ech, pivots, p)
            taken = set(pivots)
            chosen = [r for r in range(len(free)) if last - r not in taken]
            # row q of F, numbered backwards, goes into column total + q
            f = linalg.kernel_basis(ech.rows, pivots, [last - r for r in chosen], len(free), p)
            chain_basis = self.chain_basis
            both = [dict(row) for row in chain_basis.rows]
            for q, row in enumerate(f.rows):
                for c, v in row.items():
                    both[last - c][total + q] = v
            self._reduction = (free, linalg.SparseRows([chain_basis.rows[r] for r in chosen], total),
                               linalg.SparseRows(both, total + len(chosen)))
        return self._reduction

    def quotient_coords(self, vecs) -> list[dict]:
        """Coordinates in the homotopy quotient of each chain-map vector
        ({index: value} dict) of vecs.  One pass over a vector adds its
        free entries times the rows of [chain_basis | F^T] (the vector, if
        it is a chain map, then its coordinates) and subtracts the vector:
        a nonzero left below column total raises ValueError."""
        rows = self._reduction_data()[2].rows
        p, total, index = self.Q.algebra.prime, self.total, self._free_index
        out = []
        for vec in vecs:
            acc = {}
            for c, x in vec.items():
                acc[c] = acc.get(c, 0) - x
                r = index.get(c)
                if r is not None:
                    for k, y in rows[r].items():
                        acc[k] = acc.get(k, 0) + x * y
            coords = {}
            for k, s in acc.items():
                if s % p:
                    if k < total:
                        raise ValueError("vector is not a chain map")
                    coords[k - total] = s % p
            out.append(coords)
        return out


def map_vector(f: ChainMap, offsets: dict) -> dict:
    """The coefficients of the chain map f as an {index: value} vector,
    with the block of its entry from Q_d slot i to R_{d+s} slot j at
    offsets[(d, j, i)]: a space's offsets, or those of one of its pairs
    of parts (see EndoAlgebra)."""
    A = f.Q.algebra
    p, vec = A.prime, {}
    for d, mat in f.comps.items():
        for j, row in enumerate(mat):
            for i, entry in enumerate(row):
                off = offsets[(d, j, i)]
                for pc, c in entry.items():
                    if c % p:
                        vec[off + A.block_pos[(pc.start, pc.end)][pc]] = c % p
    return vec


def _block_offsets(A: BrauerTreeAlgebra, Q: ProjComplex, R: ProjComplex, shift: int):
    """Offset of the coefficient block of each map from Q_d slot i to
    R_{d+shift} slot j, keyed (d, j, i), blocks ordered by d, then j, then
    i; and the total size."""
    offsets, total = {}, 0
    dims = A.block_dims
    for d in Q.degrees():
        src = Q.slots(d)
        for j, b in enumerate(R.slots(d + shift)):
            for i, a in enumerate(src):
                offsets[(d, j, i)] = total
                total += dims[(a, b)]
    return offsets, total


def _meets(Q: ProjComplex, R: ProjComplex, shift: int) -> bool:
    """Whether some degree of Q meets a degree of R[shift], i.e. whether
    _block_offsets at that shift has any block."""
    comps = R.comps
    for d in Q.comps:  # a loop: any() over a generator costs 3x as much here
        if d + shift in comps:
            return True
    return False


def _nonzero_entries(X: ProjComplex) -> list:
    """(d, row, col, entry) for every nonzero differential entry, the entry
    mapping slot col of degree d to slot row of degree d + 1."""
    return [
        (d, row, col, x)
        for d, mat in X.diffs.items()
        for row, xs in enumerate(mat)
        for col, x in enumerate(xs)
        if x
    ]


def _hom_differential(A: BrauerTreeAlgebra, Q: ProjComplex, R: ProjComplex, t: int,
                      sign: int, here, entries, transpose: bool = False) -> linalg.SparseRows:
    """The nonzero rows, reduced mod p, of the matrix of
    D_t(f) = d_Q f + sign * f d_R from the maps Q -> R[t] to the maps
    Q -> R[t+1], or of its transpose; entries are the _nonzero_entries of
    Q and of R.  Columns are numbered by here, the _block_offsets of the
    space's own shift (t, or t + 1 with transpose).  A row is keyed by its
    block (d, j, i) at the other shift u, the map from Q_d slot i to
    R_{d+u} slot j, and its coordinate there; rows come in the order the
    traversal meets them, so shift u needs no layout.  Each product of
    A.mult_coords is added into its row as it comes, and an entry that
    cancels to 0 is dropped."""
    offsets, cols = here
    q_entries, r_entries = entries
    p = A.prime
    acc: dict[tuple, dict[int, int]] = {}

    def put(tgt: tuple, src: tuple, x, side: str, edge, sign: int) -> None:
        # add sign times the block of multiplication by x (see A.mult_coords
        # for side and edge) at row block tgt and column block src of D_t
        block, off = (src, offsets[tgt]) if transpose else (tgt, offsets[src])
        for pc, v in x.items():
            v *= sign
            for r, c in A.mult_coords(pc, side, edge):
                key, j = ((block, c), off + r) if transpose else ((block, r), off + c)
                row = acc.get(key)
                if row is None:
                    row = acc[key] = {}
                val = (row.get(j, 0) + v) % p
                if val:
                    row[j] = val
                else:
                    row.pop(j, None)

    for d, m, i, x in q_entries:
        # x from Q_d slot i to Q_{d+1} slot m, followed by f_{d+1}
        for j, b in enumerate(R.slots(d + t + 1)):
            put((d, j, i), (d + 1, j, m), x, "L", b, 1)
    for e, j, jj, x in r_entries:
        # f_d into R_e slot jj, followed by x from there to R_{e+1} slot j
        d = e - t
        for i, a in enumerate(Q.slots(d)):
            put((d, j, i), (d, jj, i), x, "R", a, sign)
    return linalg.SparseRows([row for row in acc.values() if row], cols)


def _product_vanishes(a: linalg.SparseRows, b: linalg.SparseRows, p: int) -> bool:
    """Whether a b^T = 0 mod p, for sparse rows of the same width: each
    row of b is multiplied against the entries of a, column by column."""
    by_col: dict[int, list] = {}
    for i, row in enumerate(a.rows):
        for j, v in row.items():
            by_col.setdefault(j, []).append((i, v))
    if not by_col:
        return True
    for row in b.rows:
        acc: dict[int, int] = {}
        for j, v in row.items():
            for i, w in by_col.get(j, ()):
                acc[i] = acc.get(i, 0) + v * w
        if any(x % p for x in acc.values()):
            return False
    return True


def hom_complex_dim(Q: ProjComplex, R: ProjComplex, s: int, direct: bool = False) -> int:
    """dim Hom_{K^b}(Q, R[s]).

    Hom is additive, so the dimension is the sum over pairs of parts, each
    pair computed once and cached on the algebra under the two parts
    themselves, (u, v, s): the constructors intern every part they build,
    so equal parts are one object.  The parts' labels take no part in it.
    A shift that is not an integer is refused (ValueError).
    direct=True forces one whole-complex elimination instead; the
    shift-duality suite computes that way, independently of the cache.

    The algebras are symmetric, so K^b(proj A) is 0-Calabi-Yau and
    dim Hom(Q, R[s]) = dim Hom(R, Q[-s]).  The tilting decisions use this
    to ask only for positive shifts: is_tilting computes Hom(T, T[1]) and
    no space at s = -1.  The shift-duality suite checks the identity by
    computing both Hom(T, T[1]) and Hom(T, T[-1]) with direct=True.
    """
    A, s = Q.algebra, _degree(s)
    if R.algebra is not A:
        raise ValueError("complexes over different algebras")
    if direct:
        return ChainMapSpace(Q, R, s).dim
    total = 0
    for u in Q.parts:
        for v in R.parts:
            key = (u, v, s)
            dim = A.hom_cache.get(key)
            if dim is None:
                dim = A.hom_cache[key] = ChainMapSpace(u, v, s).dim
            total += dim
    return total


def euler_pairing(Q: ProjComplex, R: ProjComplex) -> int:
    """The classes of Q and R in K_0 paired by the Cartan matrix of A,
    k0(Q) C k0(R): the alternating sum of module Hom dimensions between
    the components, which equals dim Hom_{K^b}(Q, R) whenever the pair has
    no Homs in nonzero shifts.  Entry (a, b) of C is the dimension of
    block (a, b)."""
    dims = Q.algebra.block_dims
    return sum(x * y * dims[(a, b)] for a, x in Q.k0_terms for b, y in R.k0_terms)
