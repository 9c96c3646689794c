"""Finite dimensional left modules over a Brauer tree algebra, stored as
explicit representations: a dimension per edge and one matrix per arrow,
as sparse rows (`linalg.SparseRows`; a vector is one {index: value} row).

Convention (left modules, paths composing left factor first): the arrow
a -> b acts by a matrix from the b-component into the a-component.  With the
star arrows running i -> i+1 this makes the composition series of uniserial
modules descend mod n from the top, and Hom(P_i, M) is the i-component.

Path actions are computed once each.  A path class q is its first arrow
times the class that follows (the algebra's `path_factors`), so the images
q.v of one vector under every class ending at its edge are spun out with
one matrix-vector product per class (`Representation.path_images`); the
projective cover fills its map this way.  P_i splits off M exactly when the
socle class z_i acts nonzero on the i-component.  The kernel of a map is a
submodule held in the reduced row echelon basis of its span at each edge,
where the coordinates of a vector of the span are its entries at the pivot
columns.

Each step is one elimination: the radical and the socle of a
representation and the kernel of a map are one forward pass or one rref
over the block-diagonal matrix of all edges (`linalg.block_pivots`,
`reduced_kernels`), which gives every edge the pivots and the reduced form
it would get alone, and `hom_basis` builds its intertwiner equations as
sparse rows.

Syzygies are computed once per module content: the algebra's
`syzygy_cache` holds the syzygy, its inclusion into the projective cover
and the cover's slots, keyed by the module's dims and arrow matrices, and
`syzygy`, `second_syzygy` and `min_proj_presentation` all read it; the
presentation itself is interned per module content in `summand_cache`.
The memos only share the results of deterministic computations, so the
module route and the chain-map route of the presentation criterion still
cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import BrauerTreeAlgebra, PathClass, socle_class


class Representation:
    """A module given by per-edge dimensions and arrow action matrices.

    act[arrow], `linalg.SparseRows` or a nested sequence of ints (see
    `linalg.as_rows`), has shape (dims[start], dims[end]) and maps the
    component at the arrow's end edge into the component at its start
    edge; a missing arrow acts by zero.
    """

    def __init__(self, algebra: BrauerTreeAlgebra, dims, act):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n:
            raise ValueError("dims must list one entry per edge")
        self.act = {}
        for arrow in algebra.arrows:
            shape = (self.dims[algebra.eidx[arrow.start]], self.dims[algebra.eidx[arrow.end]])
            m = act.get(arrow)
            if m is None:
                self.act[arrow] = linalg.zero(*shape)
                continue
            try:
                self.act[arrow] = linalg.as_rows(m, algebra.prime, shape)
            except ValueError as err:
                raise ValueError(f"action of {arrow}: {err}") from None

    @classmethod
    def _of_fresh_rows(cls, algebra: BrauerTreeAlgebra, dims, act) -> "Representation":
        """As __init__, for reduced `SparseRows` built here: shapes are checked, nothing copied."""
        M = cls.__new__(cls)
        M.algebra, M.dims, M.act = algebra, tuple(dims), act
        if any(act[a].shape != (M.dims[algebra.eidx[a.start]], M.dims[algebra.eidx[a.end]])
               for a in algebra.arrows):
            raise ValueError("action matrix shape mismatch")
        return M

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_action(self, pc: PathClass) -> linalg.SparseRows:
        """Matrix of the path class, mapping the end-edge component into the
        start-edge component: the product of its arrows' matrices, read off
        the algebra's `path_factors`."""
        A = self.algebra
        if pc.kind == "e":
            return linalg.identity(self.dims[A.eidx[pc.start]])
        factors = A.path_factors
        first, rest = factors[pc]
        out = self.act[first]
        while rest.kind != "e":
            if not any(out.rows):
                return linalg.zero(out.height, self.dims[A.eidx[pc.end]])
            first, rest = factors[rest]
            out = linalg.product(out, self.act[first], A.prime)
        return out

    def path_images(self, edge, v: dict) -> dict[PathClass, dict]:
        """q.v for every basis class q ending at `edge`, where v, an
        {index: value} vector, lies in the component at `edge`.  Spinning:
        with q = first * rest each image is act[first] @ (rest.v), one
        matrix-vector product per class, none once rest.v is zero."""
        A = self.algebra
        factors = A.path_factors
        images = {}
        for q in A.classes_ending[edge]:
            if q.kind == "e":
                images[q] = {j: x % A.prime for j, x in v.items() if x % A.prime}
                continue
            first, rest = factors[q]
            images[q] = linalg.apply(self.act[first], images[rest], A.prime) if images[rest] else {}
        return images

    # -- structure --------------------------------------------------------------

    def radical_pivots(self) -> list[list[int]]:
        """Per edge, the pivot columns of the reduced span of the radical part
        of that component (the columns of the arrows starting there); the
        unit vectors at the other columns lift a basis of the top.  One
        forward pass over all edges."""
        A = self.algebra
        blocks = [[] for _ in A.edges]
        for arrow in A.arrows:
            blocks[A.eidx[arrow.start]].append(linalg.transpose(self.act[arrow]))
        return linalg.block_pivots(blocks, self.dims, A.prime)

    def top_multiplicities(self) -> tuple[int, ...]:
        pivots = self.radical_pivots()
        return tuple(self.dims[i] - len(pivots[i]) for i in range(len(self.dims)))

    def socle_multiplicities(self) -> tuple[int, ...]:
        """Per edge, the dimension of the common kernel of the arrows
        ending there: the dimension minus the rank of their stacked
        matrices, from one forward pass over all edges."""
        A = self.algebra
        blocks = [[] for _ in A.edges]
        for arrow in A.arrows:
            blocks[A.eidx[arrow.end]].append(self.act[arrow])
        pivots = linalg.block_pivots(blocks, self.dims, A.prime)
        return tuple(d - len(piv) for d, piv in zip(self.dims, pivots))

    def top_generators(self) -> list[tuple[int, dict]]:
        """Deterministic lift of a basis of the top: (edge index, vector)."""
        pivots = self.radical_pivots()
        return [(a_idx, {c: 1}) for a_idx, d in enumerate(self.dims)
                for c in linalg.free_columns(pivots[a_idx], d)]


@dataclass(frozen=True)
class UniserialSpec:
    """Uniserial star module: top simple and number of composition factors,
    the factors descending mod n from the top."""

    top: int
    length: int


class ModuleMap:
    """Per-edge matrices intertwining the arrow actions; mats[i], read as
    Representation reads an action, maps the source's component at edge i
    into the target's."""

    def __init__(self, source: Representation, target: Representation, mats):
        self.source = source
        self.target = target
        p = source.algebra.prime
        try:
            self.mats = [linalg.as_rows(m, p, (t, s))
                         for m, t, s in zip(mats, target.dims, source.dims, strict=True)]
        except ValueError:
            raise ValueError("component matrix shape mismatch") from None

    @classmethod
    def _of_fresh_rows(cls, source: Representation, target: Representation, mats) -> "ModuleMap":
        """As __init__, for reduced `SparseRows` built here: shapes are checked, nothing copied."""
        f = cls.__new__(cls)
        f.source, f.target, f.mats = source, target, mats
        if [m.shape for m in mats] != list(zip(target.dims, source.dims)):
            raise ValueError("component matrix shape mismatch")
        return f

    def is_isomorphism(self) -> bool:
        p = self.source.algebra.prime
        return self.source.dims == self.target.dims and all(
            linalg.is_invertible(m, p) for m in self.mats
        )


# -- constructors ----------------------------------------------------------------


def simple_rep(A: BrauerTreeAlgebra, edge) -> Representation:
    dims = [0] * A.n
    dims[A.eidx[edge]] = 1
    return Representation(A, dims, {})


def projective_rep(A: BrauerTreeAlgebra, edge) -> Representation:
    """P_edge = A e_edge; the component at c has the paths c -> edge as basis
    and an arrow acts by prepending itself."""
    return projective_sum(A, [edge])[0]


def _uniserial_bound(A: BrauerTreeAlgebra, top, length) -> int:
    """n k for the uniserial star module with this top and length, which
    must be a star algebra's module with 1 <= length <= n k + 1 and a
    known top (checked in that order)."""
    A.require_star()
    nk = A.n * A.tree.multiplicity
    if not 1 <= length <= nk + 1:
        raise ValueError(f"uniserial length {length} out of range 1..{nk + 1}")
    if top not in A.eidx:
        raise ValueError(f"unknown edge {top}")
    return nk


def uniserial_rep(A: BrauerTreeAlgebra, spec: UniserialSpec) -> Representation:
    """Uniserial module over a star algebra with the given top and length;
    basis vector t sits at edge top - t mod n, and the one arrow from edge
    top - t - 1 to edge top - t moves it to vector t + 1."""
    _uniserial_bound(A, spec.top, spec.length)
    dims = [0] * A.n
    position = []  # (edge, basis index within its component), per depth
    for t in range(spec.length):
        e = A.star_next(spec.top, -t)
        position.append((e, dims[A.eidx[e]]))
        dims[A.eidx[e]] += 1
    act = {arrow: linalg.zero(dims[A.eidx[arrow.start]], dims[A.eidx[arrow.end]])
           for arrow in A.arrows}
    arrow_at = {(arrow.start, arrow.end): arrow for arrow in A.arrows}
    for (e, i), (f, j) in zip(position, position[1:]):
        act[arrow_at[(f, e)]].rows[j][i] = 1
    return Representation._of_fresh_rows(A, dims, act)


# -- homomorphisms ---------------------------------------------------------------


def hom_basis(M: Representation, N: Representation) -> list[ModuleMap]:
    """A basis of the module maps phi: M -> N, read off one rref of the
    equations `_hom_equations`."""
    A = M.algebra
    p = A.prime
    eqs, offs = _hom_equations(M, N)
    red, pivots = linalg.rref(eqs, p)
    free = linalg.free_columns(pivots, eqs.cols)
    # the edge, row and column of each unknown
    place = [(i, *divmod(j, M.dims[i])) for i in range(A.n) for j in range(offs[i + 1] - offs[i])]
    basis = []
    for vec in linalg.kernel_basis(red.rows, pivots, free, eqs.cols, p).rows:
        mats = [linalg.zero(N.dims[i], M.dims[i]) for i in range(A.n)]
        for j, v in vec.items():
            i, r, c = place[j]
            mats[i].rows[r][c] = v
        basis.append(ModuleMap._of_fresh_rows(M, N, mats))
    return basis


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N): the unknowns of `_hom_equations` less their rank."""
    eqs, _ = _hom_equations(M, N)
    return eqs.cols - linalg.rank(eqs, M.algebra.prime)


def _hom_equations(M: Representation, N: Representation) -> tuple[linalg.SparseRows, list[int]]:
    """The equations phi_a @ M.act = N.act @ phi_b of the module maps
    phi: M -> N, one sparse row per arrow a -> b and entry of the
    M_b -> N_a block, in unknowns holding phi_i (shape N_i x M_i)
    row-major from offs[i]; and offs."""
    A = M.algebra
    if N.algebra is not A:
        raise ValueError("modules over different algebras")
    p = A.prime
    offs = [0]
    for i in range(A.n):
        offs.append(offs[-1] + N.dims[i] * M.dims[i])
    rows, height = [], 0
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        ma, mb = M.dims[a], M.dims[b]
        height += N.dims[a] * mb
        # the nonzero entries of each column of M.act and each row of N.act
        m_cols = [[(offs[a] + s, v) for s, v in col.items()]
                  for col in linalg.transpose(M.act[arrow]).rows]
        n_rows = [[(offs[b] + s * mb, v) for s, v in row.items()]
                  for row in N.act[arrow].rows]
        for r, n_row in enumerate(n_rows):
            for c, m_col in enumerate(m_cols):
                row = {j + r * ma: v for j, v in m_col}
                for j, v in n_row:
                    j += c
                    x = (row.get(j, 0) - v) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if row:
                    rows.append(row)
    return linalg.SparseRows(rows, offs[-1], height), offs


def top_and_socle(M: Representation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if M.is_zero():
        raise ValueError("the zero module has no top or socle")
    return M.top_multiplicities(), M.socle_multiplicities()


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Isomorphism test.  An invertible member of a hom basis proves it,
    which settles indecomposables; otherwise M and N are isomorphic iff
    dim Hom(X, M) = dim Hom(X, N) for every indecomposable X (Auslander),
    read over `enumerate_indecomposables`, which raises ValueError where
    its catalogue is not known to be complete."""
    if M.dims != N.dims:
        return False
    if M.is_zero() or any(f.is_isomorphism() for f in hom_basis(M, N)):
        return True
    return all(hom_dim(X, M) == hom_dim(X, N) for _, X in enumerate_indecomposables(M.algebra))


def has_projective_summand(M: Representation) -> bool:
    """P_i splits off M iff some map P_i -> M is nonzero on the socle z_i of
    P_i (such a map is injective and P_i is injective).  The maps P_i -> M
    are q |-> q.v for v in the i-component, which send z_i to z_i.v, so
    this asks whether z_i acts nonzero on that component.  An injective
    map needs P_i's dimensions to fit into M's, which is checked first."""
    A = M.algebra
    return any(
        all(len(A.blocks[(c, edge)]) <= d for c, d in zip(A.edges, M.dims))
        and any(M.path_action(socle_class(edge)).rows)
        for edge in A.edges
    )


# -- covers, syzygies, presentations ----------------------------------------------


def projective_sum(A: BrauerTreeAlgebra, edges) -> tuple[Representation, list]:
    """Direct sum of projectives; offsets[slot][edge_idx] is the column
    offset of that slot's block inside each component."""
    edges = list(edges)
    dims = [0] * A.n
    offsets = []
    for cover_edge in edges:
        offsets.append(tuple(dims))
        for c_idx, c in enumerate(A.edges):
            dims[c_idx] += len(A.blocks[(c, cover_edge)])
    act = {}
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        m = act[arrow] = linalg.zero(dims[a], dims[b])
        for slot, cover_edge in enumerate(edges):
            for r, c in A.mult_coords(arrow, "L", cover_edge):
                m.rows[offsets[slot][a] + r][offsets[slot][b] + c] = 1
    return Representation._of_fresh_rows(A, dims, act), offsets


def projective_cover(M: Representation):
    """Returns (cover_edges, cover_rep, slot_offsets, cover_map).  The map
    sends the slot of each top generator v onto A.v, spun from v by
    `Representation.path_images`."""
    A = M.algebra
    gens = M.top_generators()
    cover_edges = [A.edges[a_idx] for a_idx, _ in gens]
    cover, offsets = projective_sum(A, cover_edges)
    mats = [linalg.zero(M.dims[i], cover.dims[i]) for i in range(A.n)]
    for slot, (a_idx, v) in enumerate(gens):
        # the slot's column for the class q holds the image q.v
        gen_edge = A.edges[a_idx]
        for q, img in M.path_images(gen_edge, v).items():
            c_idx = A.eidx[q.start]
            col, rows = offsets[slot][c_idx] + A.block_pos[(q.start, gen_edge)][q], mats[c_idx].rows
            for r, x in img.items():
                rows[r][col] = x
    cover_map = ModuleMap._of_fresh_rows(cover, M, mats)
    return cover_edges, cover, offsets, cover_map


def syzygy(M: Representation) -> Representation:
    """Kernel of the projective cover of M, which must have no projective
    summand."""
    if M.is_zero():
        raise ValueError("syzygy of the zero module is undefined here")
    if has_projective_summand(M):
        raise ValueError("module has a projective direct summand")
    return _syzygy_with_embedding(M)[0]


def _content_key(M: Representation) -> tuple:
    """The dims and the entries of the arrow matrices in arrow order.  With
    the dims fixed every arrow matrix has a fixed shape, so the key
    identifies the module's content exactly."""
    return (M.dims, tuple(frozenset((i, *e) for i, row in enumerate(M.act[arrow].rows)
                                    for e in row.items()) for arrow in M.algebra.arrows))


def _syzygy_with_embedding(M: Representation):
    """(syzygy, its inclusion into the cover, cover edges, slot offsets),
    computed once per module content on the algebra (`syzygy_cache`).

    The computation reads nothing but the content, so a hit returns what a
    fresh computation would.  The result is shared: its edges and offsets
    are tuples, and no caller edits its matrices.
    """
    A = M.algebra
    key = _content_key(M)
    hit = A.syzygy_cache.get(key)
    if hit is None:
        cover_edges, cover, offsets, cover_map = projective_cover(M)
        sub, incl = kernel_representation(cover_map)
        hit = A.syzygy_cache[key] = (sub, incl, tuple(cover_edges), tuple(offsets))
    return hit


def kernel_representation(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """The kernel of f as a subrepresentation of its source; returns
    (kernel, inclusion), with one elimination over all edges
    (`linalg.reduced_kernels`): per edge, the reduced basis of the kernel
    and its pivot columns.

    The kernel's basis is the reduced basis at each edge.  A reduced row is
    1 at its own pivot column and 0 at the others, so the coordinates of a
    vector of the kernel are its entries at the pivot columns; recombining
    the basis with them checks that the arrow images lie in the kernel.
    """
    M = f.source
    A = M.algebra
    p = A.prime
    reduced = linalg.reduced_kernels(f.mats, p)
    act = {}
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        basis_a, piv_a = reduced[a]
        # row t: the coordinates of the image of basis vector t at edge b
        coords = []
        for v in reduced[b][0].rows:
            image = linalg.apply(M.act[arrow], v, p)
            coord = {r: image[c] for r, c in enumerate(piv_a) if c in image}
            if linalg.combine(coord, basis_a, p) != image:
                raise ValueError("the kernel is not stable under the arrow actions")
            coords.append(coord)
        act[arrow] = linalg.transpose(linalg.SparseRows(coords, len(piv_a)))
    sub = Representation._of_fresh_rows(A, [len(piv) for _, piv in reduced], act)
    incl = ModuleMap._of_fresh_rows(sub, M, [linalg.transpose(basis) for basis, _ in reduced])
    return sub, incl


def second_syzygy(M: Representation) -> Representation:
    """Ω²(M), for M as `syzygy` takes it.  The outer step reads the memo
    alone: over a self-injective algebra Ω(M) has no projective summand
    when M has none."""
    return _syzygy_with_embedding(syzygy(M))[0]


def min_proj_presentation(M: Representation):
    """Two-term complex (degree 0: cover of the syzygy) -> (degree 1: cover
    of M) with cokernel M and radical differential entries.

    Interned per module content in `summand_cache`, under
    ("presentation", content key), so modules with equal content share one
    complex."""
    A = M.algebra
    key = ("presentation", _content_key(M))
    T = A.summand_cache.get(key)
    if T is None:
        T = A.summand_cache[key] = _presentation(M)
    return T


def _presentation(M: Representation):
    """The minimal presentation of M, built from its syzygy."""
    from .complexes import ProjComplex

    A = M.algebra
    if M.is_zero():
        raise ValueError("presentation of the zero module is empty")
    if has_projective_summand(M):
        raise ValueError("module has a projective direct summand")
    omega, incl, cover_edges1, offsets1 = _syzygy_with_embedding(M)
    gens = omega.top_generators()
    cover_edges0 = [A.edges[a_idx] for a_idx, _ in gens]
    diff = [[dict() for _ in cover_edges0] for _ in cover_edges1]
    for g, (a_idx, v) in enumerate(gens):
        w = linalg.apply(incl.mats[a_idx], v, A.prime)
        gen_edge = A.edges[a_idx]
        for h, cover_edge in enumerate(cover_edges1):
            start = offsets1[h][a_idx]
            local = {}
            for j, q in enumerate(A.blocks[(gen_edge, cover_edge)]):
                coeff = w.get(start + j)
                if coeff:
                    local[q] = coeff
            diff[h][g] = local
    return ProjComplex(A, {0: cover_edges0, 1: cover_edges1}, {0: diff})


def uniserial_presentation(A: BrauerTreeAlgebra, top, length):
    """Minimal presentation of the uniserial M(top, length), named
    ("uniserial", top, length); built once per algebra (`summand_cache`).

    The star algebra is a symmetric Nakayama algebra: P_a is uniserial,
    with the path of length t from a - t to a spanning its depth t.  So
    M(a, l) = P_a / rad^l P_a, and for l <= n k the radical power rad^l P_a
    is the image of P_{a-l} under right multiplication by the path of
    length l from a - l to a, a projective cover of it.  The presentation
    is that one entry, read off the star path, with no module computed;
    at l = n k + 1 the module is P_a itself.  `min_proj_presentation`
    builds the same complex from the module.
    """
    from .complexes import ProjComplex

    key = ("uniserial", top, length)
    T = A.summand_cache.get(key)
    if T is None:
        if length > _uniserial_bound(A, top, length):
            raise ValueError("module has a projective direct summand")
        src = A.star_next(top, -length)
        T = A.summand_cache[key] = ProjComplex(
            A, {0: (src,), 1: (top,)}, {0: [[{A.star_path(src, length): 1}]]}, name=key
        )
    return T


# -- catalogues --------------------------------------------------------------------


def string_letters_valid(A: BrauerTreeAlgebra, letters) -> str | None:
    """None when the walk is a valid string, else a message naming the
    violated condition."""
    if not letters:
        return None
    arrow_set = set(A.arrows)
    for arrow, sign in letters:
        if arrow not in arrow_set:
            return f"{arrow} is not an arrow"
        if sign not in (1, -1):
            return "signs must be +1 or -1"
    for t in range(1, len(letters)):
        (c1, s1), (c2, s2) = letters[t - 1], letters[t]
        n1 = c1.end if s1 == 1 else c1.start
        n2 = c2.start if s2 == 1 else c2.end
        if n1 != n2:
            return f"letters {t - 1} and {t} do not share an endpoint"
        if c1 == c2 and s1 == -s2:
            return f"letters {t - 1} and {t} backtrack"
    # maximal same-sign runs must be nonzero paths avoiding the socle
    t = 0
    while t < len(letters):
        u = t
        while u + 1 < len(letters) and letters[u + 1][1] == letters[t][1]:
            u += 1
        run = [c for c, _ in letters[t : u + 1]]
        if letters[t][1] == -1:
            run = list(reversed(run))
        acc = run[0]
        for c in run[1:]:
            acc = A.compose(acc, c) if acc is not None else None
        if acc is None or acc.kind != "p":
            return f"run at positions {t}..{u} composes to zero"
        t = u + 1
    return None


def string_rep(A: BrauerTreeAlgebra, letters) -> Representation:
    """String module of a nonempty reduced walk.  letters is a list of
    (arrow, +1 or -1); the empty walk at an edge gives its simple_rep."""
    if not letters:
        raise ValueError("the empty walk is a simple module: use simple_rep")
    msg = string_letters_valid(A, letters)
    if msg is not None:
        raise ValueError(f"invalid string walk: {msg}")
    nodes = []
    c0, s0 = letters[0]
    nodes.append(c0.start if s0 == 1 else c0.end)
    for c, s in letters:
        nodes.append(c.end if s == 1 else c.start)
    dims = [0] * A.n
    pos = []
    for e in nodes:
        i = A.eidx[e]
        pos.append(dims[i])
        dims[i] += 1
    act = {arrow: linalg.zero(dims[A.eidx[arrow.start]], dims[A.eidx[arrow.end]]) for arrow in A.arrows}
    for t, (c, s) in enumerate(letters):
        if s == 1:
            act[c].rows[pos[t]][pos[t + 1]] = 1  # c . node_{t+1} = node_t
        else:
            act[c].rows[pos[t + 1]][pos[t]] = 1  # c . node_t = node_{t+1}
    return Representation._of_fresh_rows(A, dims, act)


def _walk_key(A: BrauerTreeAlgebra, letters):
    arrow_index = {a: i for i, a in enumerate(A.arrows)}
    fwd = tuple((arrow_index[c], s) for c, s in letters)
    rev = tuple((arrow_index[c], -s) for c, s in reversed(letters))
    return min(fwd, rev)


def enumerate_strings(A: BrauerTreeAlgebra):
    """All nontrivial strings (reduced relation-avoiding walks) up to
    inversion; together with the simples these classify the nonprojective
    indecomposables when the multiplicity is 1."""
    out = {}
    stack = [[(c, s)] for c in A.arrows for s in (1, -1)]
    # every exact walk is pushed once (its parent is unique), so both
    # orientations get their right-extensions explored; only the stored key
    # identifies the two orientations
    while stack:
        letters = stack.pop()
        if string_letters_valid(A, letters) is not None:
            continue
        out.setdefault(_walk_key(A, letters), letters)
        last_node = letters[-1][0].end if letters[-1][1] == 1 else letters[-1][0].start
        for c in A.arrows:
            if c.start == last_node:
                stack.append(letters + [(c, 1)])
            if c.end == last_node:
                stack.append(letters + [(c, -1)])
    return list(out.values())


def enumerate_indecomposables(A: BrauerTreeAlgebra):
    """Complete list of indecomposables as (label, Representation).

    Supported: any star algebra (all uniserials) and multiplicity-1 tree
    algebras with at most 6 edges (string modules).
    """
    items = []
    if A.is_canonical_star:
        nk = A.n * A.tree.multiplicity
        for top in A.edges:
            for l in range(1, nk + 1):
                items.append((("uniserial", top, l), uniserial_rep(A, UniserialSpec(top, l))))
        for e in A.edges:
            items.append((("projective", e), projective_rep(A, e)))
        return items
    if A.tree.multiplicity == 1 and A.n <= 6:
        for letters in enumerate_strings(A):
            items.append((("string", _walk_key(A, letters)), string_rep(A, letters)))
        for e in A.edges:
            items.append((("string", ("triv", A.eidx[e])), simple_rep(A, e)))
            items.append((("projective", e), projective_rep(A, e)))
        return items
    raise ValueError("enumeration supports stars and small multiplicity-1 trees")
