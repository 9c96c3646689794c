"""Independent references that the tests check the package against.

Nothing in `brauertilt` calls these: they are general routes the package
does not need, kept here as oracles.  They are a linear solver, a
nullspace and the reduced bases of several matrices at once over F_p,
the relations check of a representation, the dimensions of its top and
socle, the intertwining check of a module map, the reduced spans of a
module's subspaces, the submodule they span and the quotient of a module
by it, the module P/soc(P) built that way, the minimality of a complex,
the cokernel of a two-term complex, the chain maps of a space's quotient
representatives, the structure tensor of End(T) built slot triple by
slot triple, the brute force's clique search over a table of booleans,
the string search that checks each whole walk, the arc rule for two
uniserial presentations over the star, the stalk test read off module
Hom spaces, and JSON readers for modules and complexes with a writer for
coverings.  Each is built from the package's own primitives by a
different path than the one the package takes; the package reads
P/soc(P) off its presentation instead.
"""

import json

from brauertilt import linalg
from brauertilt.algebra import BrauerTreeAlgebra, socle_class
from brauertilt.complexes import ChainMap, ChainMapSpace, ProjComplex, direct_sum, stalk_complex
from brauertilt.coverings import Covering, CyclicInterval, mod1
from brauertilt.jsonio import SchemaError, _need, _typed
from brauertilt.modules import (
    ModuleMap,
    Representation,
    UniserialSpec,
    hom_dim,
    min_proj_presentation,
    projective_rep,
    projective_sum,
    second_syzygy,
    simple_rep,
    string_letters_valid,
    string_rep,
    uniserial_presentation,
    uniserial_rep,
)
from brauertilt.tilting import is_partial_tilting

# -- linear algebra --------------------------------------------------------------


def nullspace(a, p: int) -> linalg.SparseRows:
    """Rows form a basis of {x : a @ x = 0 mod p}: `kernel_basis` of the
    reduced form of a."""
    red, pivots = linalg.rref(a, p)
    return linalg.kernel_basis(red.rows, pivots, linalg.free_columns(pivots, red.cols),
                               red.cols, p)


def solve(a, b, p: int):
    """One solution x of a @ x = b mod p, or None if inconsistent.

    b is a vector, an {index: value} dict or a flat sequence of ints, and
    x is then a vector dict; or b is a matrix of stacked right-hand
    columns, and x is then `SparseRows`.
    """
    m = linalg.as_rows(a, p)
    vector = isinstance(b, dict) or _is_flat(b)
    if vector:
        if not isinstance(b, dict):
            b = b.tolist() if hasattr(b, "tolist") else list(b)
            if len(b) != m.height:
                raise ValueError(f"rhs of length {len(b)} for a matrix of shape {m.shape}")
            b = dict(enumerate(b))
        b = [[b.get(i, 0)] for i in range(m.height)]
    b = linalg.as_rows(b, p)
    if b.height != m.height:
        raise ValueError(f"rhs shape mismatch {m.shape} vs {b.shape}")
    n = m.cols
    aug = [dict(row) for row in m.rows] + [{} for _ in range(m.height - len(m.rows))]
    for row, rhs in zip(aug, b.rows):
        row.update((n + j, v) for j, v in rhs.items())
    red, pivots = linalg.rref(linalg.SparseRows(aug, n + b.cols), p)
    x = linalg.zero(n, b.cols)
    for c, row in zip(pivots, red.rows):
        if c >= n:
            return None
        x.rows[c] = {j - n: v for j, v in row.items() if j >= n}
    if vector:
        return {i: row[0] for i, row in enumerate(x.rows) if row}
    return x


def _is_flat(b) -> bool:
    """Whether b is a flat sequence of ints rather than a nested one."""
    shape = getattr(b, "shape", None)
    if shape is not None:
        return len(shape) == 1
    return not isinstance(b, linalg.SparseRows) and all(not hasattr(v, "__len__") for v in b)


def reduced_bases(mats, p: int) -> list[tuple[linalg.SparseRows, list[int]]]:
    """Per matrix of mats, the reduced row echelon basis of its rows and
    its pivot columns, from one rref of the block-diagonal matrix of the
    mats."""
    widths = [m.cols for m in mats]
    rows, offs = linalg._block_diagonal([[m] for m in mats], widths)
    red, pivots = linalg.rref(rows, p)
    out, at = [], 0
    for o, w, piv in zip(offs, widths, linalg._split_pivots(pivots, offs)):
        out.append((linalg.SparseRows([{j - o: v for j, v in row.items()}
                                       for row in red.rows[at:at + len(piv)]], w), piv))
        at += len(piv)
    return out


# -- modules ---------------------------------------------------------------------


def check_relations(M: Representation) -> None:
    """Raises AssertionError unless every product of basis path classes
    acts on M as the product of their actions."""
    A = M.algebra
    actions = {pc: M.path_action(pc) for pc in A.basis}
    for p in A.basis:
        for q in A.basis:
            if p.end != q.start:
                continue
            prod = linalg.product(actions[p], actions[q], A.prime)
            r = A.compose(p, q)
            expected = actions[r] if r is not None else linalg.zero(*prod.shape)
            if prod != expected:
                raise AssertionError(f"relation violated on {p} * {q}")


def top_multiplicities(M: Representation) -> tuple[int, ...]:
    """Per edge, the dimension of the top: the dimension less the pivots
    of `Representation.radical_pivots`."""
    pivots = M.radical_pivots()
    return tuple(d - len(piv) for d, piv in zip(M.dims, pivots))


def socle_multiplicities(M: Representation) -> tuple[int, ...]:
    """Per edge, the dimension of the common kernel of the arrows
    ending there: the dimension minus the rank of their stacked
    matrices, from one forward pass over all edges."""
    A = M.algebra
    blocks = [[] for _ in A.edges]
    for arrow in A.arrows:
        blocks[A.eidx[arrow.end]].append(M.act[arrow])
    pivots = linalg.block_pivots(blocks, M.dims, A.prime)
    return tuple(d - len(piv) for d, piv in zip(M.dims, pivots))


def is_module_map(f: ModuleMap) -> bool:
    """Whether the matrices of f intertwine the arrow actions."""
    A = f.source.algebra
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        left = linalg.product(f.mats[a], f.source.act[arrow], A.prime)
        if left != linalg.product(f.target.act[arrow], f.mats[b], A.prime):
            return False
    return True


def named_presentation(M: Representation, name) -> ProjComplex:
    """A copy of min_proj_presentation(M) named `name`; the interned
    presentation itself keeps no name."""
    T = min_proj_presentation(M)
    return ProjComplex(M.algebra, T.comps, T.diffs, name=name)


def projective_socle_vector(A: BrauerTreeAlgebra, edge) -> tuple[int, dict]:
    """(edge index, vector) of the socle basis element z inside P_edge."""
    return A.eidx[edge], {A.block_pos[(edge, edge)][socle_class(edge)]: 1}


def reduced_spans(M: Representation, spans) -> list[tuple[linalg.SparseRows, list[int]]]:
    """Per edge, the reduced row echelon basis of spans[edge_idx] and its
    pivot columns, from one rref over all edges (`reduced_bases`).  A span
    is read as `linalg.as_rows` reads it; an empty one may have any
    shape."""
    p = M.algebra.prime
    mats = []
    for i, d in enumerate(M.dims):
        try:
            s = linalg.as_rows(spans[i], p)
        except ValueError:
            s = None
        if s is None or s.height and s.cols and s.cols != d:
            raise ValueError(f"span at edge index {i} must have rows of length {d}")
        mats.append(s if s.height and s.cols else linalg.SparseRows([], d))
    return reduced_bases(mats, p)


def sub_representation(M: Representation, spans) -> tuple[Representation, ModuleMap]:
    """The subrepresentation of M spanned per edge by the rows of
    spans[edge_idx], with its inclusion; the spans are reduced by one rref
    over all edges (`reduced_spans`).

    The sub's basis is the reduced basis of each span.  A reduced row is 1
    at its own pivot column and 0 at the others, so the coordinates of a
    vector of the span are its entries at the pivot columns; recombining
    the basis with them checks that the arrow images lie in the span.
    """
    A = M.algebra
    p = A.prime
    reduced = reduced_spans(M, spans)
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
                raise ValueError("spans are not stable under the arrow actions")
            coords.append(coord)
        act[arrow] = linalg.transpose(linalg.SparseRows(coords, len(piv_a)))
    sub = Representation(A, [len(piv) for _, piv in reduced], act)
    return sub, ModuleMap(sub, M, [linalg.transpose(basis) for basis, _ in reduced])


def quotient_representation(M: Representation, spans) -> tuple[Representation, ModuleMap]:
    """Quotient of M by the submodule spanned by spans; returns
    (quotient, projection).

    The quotient's basis at each edge is the unit vectors at the non-pivot
    (free) columns of the span's reduced basis.  Writing x as its pivot
    entries times the reduced rows plus the rest, the projection is
    x[free] - red[:, free]^T x[pivots]: the rows of the reduced form's
    kernel basis.  It must kill the arrow images of the span.
    """
    A = M.algebra
    p = A.prime
    reduced = reduced_spans(M, spans)
    frees = [linalg.free_columns(piv, d) for d, (_, piv) in zip(M.dims, reduced)]
    projs = [linalg.kernel_basis(red.rows, piv, free, d, p)
             for d, (red, piv), free in zip(M.dims, reduced, frees)]
    act = {}
    for arrow in A.arrows:
        a, b = A.eidx[arrow.start], A.eidx[arrow.end]
        m = M.act[arrow]
        if any(linalg.apply(projs[a], linalg.apply(m, v, p), p) for v in reduced[b][0].rows):
            raise ValueError("spans are not stable under the arrow actions")
        col = {c: r for r, c in enumerate(frees[b])}
        at_free = linalg.SparseRows([{col[j]: v for j, v in row.items() if j in col}
                                     for row in m.rows], len(col), m.height)
        act[arrow] = linalg.product(projs[a], at_free, p)
    quot = Representation(A, [len(f) for f in frees], act)
    return quot, ModuleMap(M, quot, projs)


def socle_quotient_rep(A: BrauerTreeAlgebra, edge) -> tuple[Representation, ModuleMap]:
    """P_edge / soc(P_edge) with the projection map."""
    P = projective_rep(A, edge)
    idxe, zvec = projective_socle_vector(A, edge)
    spans = [linalg.SparseRows([], d) for d in P.dims]
    spans[idxe] = linalg.SparseRows([zvec], P.dims[idxe])
    return quotient_representation(P, spans)


# -- complexes -------------------------------------------------------------------


def is_minimal(T: ProjComplex) -> bool:
    """Whether no differential entry of T has an idempotent term."""
    return all(
        all(pc.kind != "e" for entry in row for pc in entry)
        for mat in T.diffs.values()
        for row in mat
    )


def cokernel_rep(T: ProjComplex) -> Representation:
    """Cokernel of the differential of a two-term complex, as a module on
    the upper term."""
    A = T.algebra
    lo, hi = T.min_degree, T.max_degree
    if hi - lo != 1:
        raise ValueError("cokernel is defined for two-term complexes")
    upper, offsets = projective_sum(A, T.slots(hi))
    spans = [[] for _ in range(A.n)]
    diff = T.diff(lo)
    for g, a in enumerate(T.slots(lo)):
        for c_idx, c in enumerate(A.edges):
            # row q: the image q * diff[.][g] of the basis class q of e_c A e_a,
            # reduced when quotient_representation reads the spans
            rows = [{} for _ in A.blocks[(c, a)]]
            for h in range(len(T.slots(hi))):
                for pc, cf in diff[h][g].items():
                    for r, q in A.mult_coords(pc, "R", c):
                        j = offsets[h][c_idx] + r
                        rows[q][j] = rows[q].get(j, 0) + cf
            spans[c_idx].extend(rows)
    spans = [linalg.SparseRows(rows, d) for rows, d in zip(spans, upper.dims)]
    quot, _ = quotient_representation(upper, spans)
    return quot


def map_from_vector(sp: ChainMapSpace, vec: dict) -> ChainMap:
    """The map of sp whose coefficients are the {index: value} vector vec."""
    A = sp.Q.algebra
    comps = {}
    for d in sp.Q.degrees():
        src, tgt = sp.Q.slots(d), sp.R.slots(d + sp.s)
        if not src or not tgt:
            continue
        mat = [[{} for _ in src] for _ in tgt]
        for j, b in enumerate(tgt):
            for i, a in enumerate(src):
                off = sp.offsets[(d, j, i)]
                for kk, pc in enumerate(A.blocks[(a, b)]):
                    c = vec.get(off + kk)
                    if c:
                        mat[j][i][pc] = c
        comps[d] = mat
    return ChainMap(sp.Q, sp.R, sp.s, comps)


def slot_triple_tensor(E) -> dict:
    """The structure tensor of the EndoAlgebra E, built by visiting every
    slot triple of every degree and probing every class for a coefficient:
    for slots I, K and J of T on edges a, b and c, class x of block (a, b)
    times class y of block (b, c) is class r of block (a, c), read off
    A.mult_coords.  Every product vector, zero ones included, is reduced by
    one quotient_coords on Hom(T, T), and its coordinates are renumbered as
    the classes of their pair."""
    T, m = E.T, E.m
    A, offsets, reps = T.algebra, E.hom.offsets, E._reps
    dims = [[E.dim(u, v) for v in range(m)] for u in range(m)]
    vecs = {(u, v, w): [{} for _ in range(dims[u][v] * dims[v][w])]
            for u in range(m) for w in range(m) for v in range(m)
            if dims[u][v] and dims[v][w]}
    for d in T.degrees():
        slots = [(u, i, a) for i, ((u, _), a) in enumerate(zip(E._owner[d], T.slots(d)))]
        for u, i, a in slots:
            for v, k, b in slots:
                if not dims[u][v]:
                    continue
                xs, f0 = reps[(u, v)], offsets[(d, k, i)]
                for w, j, c in slots:
                    triples = [(x, y, r) for x, pc in enumerate(A.blocks[(a, b)])
                               for r, y in A.mult_coords(pc, "L", c)]
                    if not dims[v][w] or not triples:
                        continue
                    ys, g0 = reps[(v, w)], offsets[(d, j, k)]
                    h0, out, width = offsets[(d, j, i)], vecs[(u, v, w)], dims[v][w]
                    for x, y, r in triples:
                        for ii, rep in enumerate(xs):
                            f = rep.get(f0 + x)
                            if not f:
                                continue
                            for jj, rep2 in enumerate(ys):
                                g = rep2.get(g0 + y)
                                if g:
                                    row = out[ii * width + jj]
                                    row[h0 + r] = row.get(h0 + r, 0) + f * g
    coords = iter(E.hom.quotient_coords([row for rows in vecs.values() for row in rows]))
    return {block: linalg.SparseRows([{E._local[q]: x for q, x in next(coords).items()} for _ in rows],
                                     dims[block[0]][block[2]])
            for block, rows in vecs.items()}


def boolean_table_cliques(A: BrauerTreeAlgebra) -> list[tuple]:
    """The brute force's clique search over the star A as a table of
    booleans: its own candidates (every uniserial presentation and stalk
    that is partial tilting, decided directly, in summand-key order), an
    m x m table from one ChainMapSpace per ordered pair at shift 1, and a
    recursive `extend` over increasing indices.  Returns each clique of
    A.n candidates, as the tuple of them, in the order found."""
    n, k = A.n, A.tree.multiplicity
    items = [uniserial_presentation(A, top, l) for top in A.edges for l in range(1, n * k + 1)]
    items += [stalk_complex(A, e, d) for e in A.edges for d in (0, 1)]
    catalog = sorted((T for T in items if is_partial_tilting(T, direct=True)),
                     key=lambda T: T.summand.key)
    m = len(catalog)
    compat = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            ok = (ChainMapSpace(catalog[i], catalog[j], 1).dim == 0
                  and ChainMapSpace(catalog[j], catalog[i], 1).dim == 0)
            compat[i][j] = compat[j][i] = ok
    found = []

    def extend(chosen, start):
        if len(chosen) == n:
            found.append(tuple(catalog[i] for i in chosen))
            return
        for i in range(start, m):
            if m - i < n - len(chosen):
                break
            if all(compat[j][i] for j in chosen):
                extend(chosen + [i], i + 1)

    extend([], 0)
    return found


def basis_maps(sp: ChainMapSpace) -> list[ChainMap]:
    """The chain maps of sp's quotient representatives, a basis of the
    space modulo homotopy."""
    return [map_from_vector(sp, v) for v in sp._reduction_data()[1].rows]


def strings_by_whole_walk(A: BrauerTreeAlgebra) -> dict:
    """{walk key: walk} of every nontrivial string, as `enumerate_strings`
    keys them, found by a search that extends every popped walk by every
    letter sharing its last node and keeps a walk only if
    `string_letters_valid` passes it whole."""
    index = {c: i for i, c in enumerate(A.arrows)}
    out = {}
    stack = [[(c, s)] for c in A.arrows for s in (1, -1)]
    while stack:
        letters = stack.pop()
        if string_letters_valid(A, letters) is not None:
            continue
        fwd = tuple((index[c], s) for c, s in letters)
        out.setdefault(min(fwd, tuple((i, -s) for i, s in reversed(fwd))), letters)
        last_node = letters[-1][0].end if letters[-1][1] == 1 else letters[-1][0].start
        for c in A.arrows:
            if c.start == last_node:
                stack.append(letters + [(c, 1)])
            if c.end == last_node:
                stack.append(letters + [(c, -1)])
    return out


def compatible_pres(m1: UniserialSpec, m2: UniserialSpec, n: int) -> bool:
    """Whether the minimal presentations of two uniserials (lengths < n)
    can sit in one partial tilting complex: their supports extended one
    step below the socle must be nested or disjoint as marked arcs."""
    for m in (m1, m2):
        if not 1 <= m.length < n:
            raise ValueError(f"length {m.length} out of range 1..{n - 1}")
    a1 = CyclicInterval(mod1(m1.top - m1.length, n), m1.length + 1)
    a2 = CyclicInterval(mod1(m2.top - m2.length, n), m2.length + 1)
    return a1.nested_or_disjoint(a2, n)


def stalk_orthogonality_test(M: Representation, edge, degree: int) -> bool:
    """Whether the stalk of P_edge (at the given degree of a two-term
    presentation) can join the minimal presentation of M, which must be
    partial tilting, in a partial tilting complex."""
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if not is_partial_tilting(min_proj_presentation(M)):
        raise ValueError("minimal presentation of M is not partial tilting")
    P = projective_rep(M.algebra, edge)
    N = M if degree == 0 else second_syzygy(M)
    return hom_dim(N, P) == 0 and hom_dim(P, N) == 0


def trivial_covering(n: int, mode: str = "deg0") -> Covering:
    """The covering of the n-gon by its n singletons."""
    return Covering(n, tuple(CyclicInterval(s, 1) for s in range(1, n + 1)), ((),) * n, mode)


# -- JSON ------------------------------------------------------------------------


def covering_to_json(cov: Covering) -> dict:
    return {
        "outer": [{"start": o.start, "size": o.size} for o in cov.outer],
        "inner": {
            str(i): [{"start": iv.start, "size": iv.size} for iv in fam]
            for i, fam in enumerate(cov.inner)
            if fam
        },
        "mode": cov.mode,
    }


def module_from_json(A, doc) -> Representation:
    if isinstance(doc, str):
        doc = json.loads(doc)
    if "uniserial" in doc:
        u = doc["uniserial"]
        return uniserial_rep(A, UniserialSpec(_need(u, "top", "$.uniserial"), _need(u, "len", "$.uniserial")))
    if "string" in doc:
        s = doc["string"]
        walk = s.get("walk", [])
        letters = []
        for w in walk:
            if not isinstance(w, int) or w == 0 or abs(w) > len(A.arrows):
                raise SchemaError("$.string.walk", f"bad signed arrow id {w}")
            letters.append((A.arrows[abs(w) - 1], 1 if w > 0 else -1))
        if letters:
            return string_rep(A, letters)
        return simple_rep(A, _need(s, "edge", "$.string"))
    raise SchemaError("$", "expected 'uniserial' or 'string'")


def complex_from_json(A, doc) -> ProjComplex:
    if isinstance(doc, str):
        doc = json.loads(doc)
    summands = _need(doc, "summands", "$")
    parts = []
    for i, s in enumerate(summands):
        if "stalk" in s:
            st, path = s["stalk"], f"$.summands[{i}].stalk"
            degree = _typed(st.get("degree", 0), int, f"{path}.degree")
            parts.append(stalk_complex(A, _need(st, "edge", path), degree))
        elif "pres" in s:
            M = module_from_json(A, s["pres"])  # also validates a uniserial
            u = s["pres"].get("uniserial")
            if u is not None:
                parts.append(uniserial_presentation(A, u["top"], u["len"]))
            else:
                parts.append(named_presentation(M, ("module", i)))
        else:
            raise SchemaError(f"$.summands[{i}]", "expected 'stalk' or 'pres'")
    return direct_sum(parts)
