"""Endomorphism rings of two-term tilting complexes over a Brauer star
algebra: Cartan matrix, partition of the summands into A-cycles with their
cyclic orders, and the resulting Brauer tree.

Two independent decoders are provided.  The generic one holds End(T) in
quotient coordinates, the classes of one reduced Hom(T, T) numbered per
summand pair, with one block-sparse structure tensor per decode
(EndoAlgebra), built from the classes' nonzero coefficients joined on
their middle slot; it reads off the quiver from the radical modulo its
square and traces maximal chains of arrows with nonzero products; every
product is a contraction against one block of the tensor.  The star fast
path groups summands by shared components and orders them along the
star, with explicit witness morphisms whose maximal nonzero compositions,
walked through the same tensor, certify each cyclic order.

A complex is decided once: the decoders and endo_cartan take a
TiltingComplex (tilting.py) as decided and decide any other complex by
is_tilting first.  realize's values keep the End(T) they were decided
from; covering_to_complex's carry none, so a decode builds one over the
value, uses it and lets it go.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import BrauerTreeAlgebra, idempotent, socle_class
from .complexes import (
    ChainMap,
    ChainMapSpace,
    ProjComplex,
    euler_pairing,
    hom_complex_dim,
    identity_chain_map,
    map_vector,
)
from .tilting import TiltingComplex, is_tilting
from .trees import BrauerTree


@dataclass
class ACycle:
    """A vertex of the endomorphism Brauer tree: the cyclically ordered
    summands around it, witness morphisms between consecutive members, and
    whether the vertex is exceptional.  witnesses[t], from member t to the
    next, is a ChainMap from the fast decoder and the arrow's quotient
    coordinates (see EndoAlgebra) from the generic one."""

    members: tuple  # summand indices, in cyclic order
    exceptional: bool
    witnesses: list | None = None

    def normalized(self):
        rots = [
            self.members[i:] + self.members[:i] for i in range(len(self.members))
        ]
        return min(rots)


def summand_complexes(T: ProjComplex) -> list[ProjComplex]:
    """The parts of T, its summands, in order (see ProjComplex.labels)."""
    return list(T.parts)


def endo_cartan(T: ProjComplex) -> list[list[int]]:
    """Cartan matrix of End(T): Hom dimensions at shift zero between the
    summands, checked to be symmetric and cross-checked against the
    alternating-sum pairing.  The pairing is symmetric, since A's block
    dimensions are (the algebra checks them against the tree's symmetric
    Cartan matrix), so it is compared once per unordered pair."""
    _require_tilting(T)
    parts = summand_complexes(T)
    m = len(parts)
    cart = [[hom_complex_dim(parts[i], parts[j], 0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i, m):
            if cart[i][j] != cart[j][i]:
                raise AssertionError("endomorphism Cartan matrix is not symmetric")
            if cart[i][j] != euler_pairing(parts[i], parts[j]):
                raise AssertionError("Cartan entry disagrees with the Euler pairing")
    return cart


# -- star fast path -------------------------------------------------------------------


def _part_shapes(parts):
    """(stalk degree, per-summand info) read from the parts' components: a
    part in one degree is a stalk ("stalk", edge), one in degrees 0 and 1
    a presentation ("pres", degree-0 edge, degree-1 edge)."""
    stalk_degrees, info = set(), []
    for P in parts:
        if any(len(slots) != 1 for slots in P.comps.values()):
            raise ValueError("fast path needs one slot per degree in each summand")
        if len(P.comps) == 1:
            stalk_degrees.add(P.min_degree)
            info.append(("stalk", P.slots(P.min_degree)[0]))
        elif P.degrees() == [0, 1]:
            info.append(("pres", P.slots(0)[0], P.slots(1)[0]))
        else:
            raise ValueError("fast path needs stalks and presentations in degrees 0 and 1")
    if len(stalk_degrees) != 1:
        raise ValueError("expected stalk summands concentrated in one degree")
    return stalk_degrees.pop(), info


def a_cycle_fast(T: ProjComplex) -> list[ACycle]:
    """A-cycle partition by the shared-component case analysis over the
    star, including leaf groups of a single summand."""
    A = T.algebra
    A.require_star()
    n = A.n
    parts = summand_complexes(T)
    delta, info = _part_shapes(parts)

    stalks = sorted(
        (i for i, it in enumerate(info) if it[0] == "stalk"),
        key=lambda i: info[i][1],
    )
    cycles = []

    def stalk_map(u, v, degree):
        length = (info[v][1] - info[u][1]) % n or n
        pc = A.star_path(info[u][1], length)
        return ChainMap(parts[u], parts[v], 0, {degree: [[{pc: 1}]]})

    # the cycle of all stalks, exceptional
    mem = tuple(stalks)
    wits = [
        stalk_map(mem[t], mem[(t + 1) % len(mem)], delta) for t in range(len(mem))
    ]
    cycles.append(ACycle(mem, True, wits))

    # presentations sharing their component c in degree deg, ordered along
    # the star by their other component; a step is the identity of P_c in
    # degree deg and the path between the other components
    for deg in (0, 1):
        groups: dict[int, list[int]] = {}
        for i, it in enumerate(info):
            if it[0] == "pres":
                groups.setdefault(it[1 + deg], []).append(i)
        for c in sorted(groups):
            group = sorted(groups[c], key=lambda i: (info[i][2 - deg] - c) % n)
            wits = []
            for u, v in zip(group, group[1:]):
                a, b = info[u][2 - deg], info[v][2 - deg]
                step = {deg: [[{idempotent(c): 1}]], 1 - deg: [[{A.star_path(a, (b - a) % n): 1}]]}
                wits.append(ChainMap(parts[u], parts[v], 0, step))
            z, e = {socle_class(c): 1}, {idempotent(c): 1}
            stalk = next((s for s in stalks if info[s][1] == c), None) if deg == delta else None
            if stalk is None:
                mem = tuple(group)
                closing = {deg: [[z]], 1 - deg: [[{}]]}
                wits.append(ChainMap(parts[group[-1]], parts[group[0]], 0, closing))
            else:
                # the stalk P_c enters by z_c and leaves by e_c in degree 0,
                # the other way round in degree 1
                enter, leave = (z, e) if deg == 0 else (e, z)
                mem = (stalk,) + tuple(group)
                wits.insert(0, ChainMap(parts[stalk], parts[group[0]], 0, {deg: [[enter]]}))
                wits.append(ChainMap(parts[group[-1]], parts[stalk], 0, {deg: [[leave]]}))
            cycles.append(ACycle(mem, False, wits))

    return cycles


def validate_cycles(E: EndoAlgebra, cycles: list[ACycle]):
    """Witness maximality: around a cycle of length r the composition of r
    consecutive witnesses (kr at the exceptional vertex) is not
    null-homotopic, and one more composition kills it."""
    k = E.T.algebra.tree.multiplicity
    for cyc in cycles:
        r = len(cyc.members)
        if cyc.witnesses is None or len(cyc.witnesses) != r:
            raise AssertionError("cycle carries no witness chain")
        wits = []
        for t, w in enumerate(cyc.witnesses):
            u, v = cyc.members[t], cyc.members[(t + 1) % r]
            if w.Q is not E.parts[u] or w.R is not E.parts[v] or not w.is_chain_map():
                raise AssertionError("witness is not a chain map between consecutive members")
            wits.append(E.coords(u, v, w))
        bound = k * r if cyc.exceptional else r
        for start in range(r):
            *_, last, past = _walk(E, cyc.members, wits, start, bound + 1)
            if not last:
                raise AssertionError("witness composition died too early")
            if past:
                raise AssertionError("witness composition survived past the bound")


def _walk(E: EndoAlgebra, members, wits, start, steps) -> list[dict]:
    """Quotient coordinates of the composites of the first 1, ..., steps
    witnesses around a cycle from member `start` on; wits[t] is in
    coordinates and maps members[t] to the next member.  Each step is one
    vector-block product with the structure tensor."""
    r = len(members)
    comps = [wits[start]]
    for t in range(start + 1, start + steps):
        block = (members[start], members[t % r], members[(t + 1) % r])
        comps.append(E.products(block, [comps[-1]], [wits[t % r]])[0])
    return comps


# -- generic decoder ------------------------------------------------------------------


class EndoAlgebra:
    """End(T) in quotient coordinates, with one block-sparse structure
    tensor.  Per decode it builds one space Hom(T, T) with the usual
    ChainMapSpace constructor and reduces it once.  The Hom complex is
    block-diagonal by summand pairs, so each quotient class of Hom(T, T)
    lies in one pair (u, v), and the pair's classes, in their order there,
    are those of ChainMapSpace(T_u, T_v, 0) built alone: the basis of
    block (u, v) of End(T), classes 0, ..., dim(u, v) - 1.  A class's pair
    is read off the slots the parts take in T, so the parts must lay out
    T's slots in order, as direct_sum does.  Every pair's dimension, 0
    included, goes to A.hom_cache, where endo_cartan finds it.

    The same space decides realize's TiltingComplex, with no space at
    shift 1 (tilting.shift_one_dim).

    The tensor (`tensor`, built once on first use) holds block (u, v, w)
    only where dim(u, v) and dim(v, w) are both nonzero, as sparse rows of
    width dim(u, w): row i * dim(v, w) + j holds the coordinates of class
    i of (u, v) followed by class j of (v, w).  Every product of End(T) is
    a contraction against one block (`products`).
    """

    def __init__(self, T: ProjComplex):
        A = T.algebra
        self.T, self.p = T, A.prime
        self.parts = summand_complexes(T)
        self.m = m = len(self.parts)
        # the part and the slot within it of each slot of T, per degree
        self._owner = {}
        for d in T.degrees():
            if tuple(a for P in self.parts for a in P.slots(d)) != T.slots(d):
                raise ValueError("the parts of the complex do not lay out its slots")
            self._owner[d] = [(u, i) for u, P in enumerate(self.parts)
                              for i in range(len(P.slots(d)))]
        self.hom = ChainMapSpace(T, T, 0)
        # per pair, the offset here of each of its blocks, keyed as in the
        # pair's own space; and the block (d, j, i, offset) of each column
        self._offsets = {(u, v): {} for u in range(m) for v in range(m)}
        self._block_of = block_of = []
        for (d, j, i), off in self.hom.offsets.items():
            (u, ii), (v, jj) = self._owner[d][i], self._owner[d][j]
            self._offsets[(u, v)][(d, jj, ii)] = off
            block_of.extend([(d, j, i, off)] * A.block_dims[(T.slots(d)[i], T.slots(d)[j])])
        # class q of Hom(T, T) is class _local[q] of its pair, whose
        # representatives are _reps[pair], in the columns here
        self._reps = {uv: [] for uv in self._offsets}
        self._local = []
        for rep in self.hom._reduction_data()[1].rows:
            d, j, i, _ = block_of[next(iter(rep))]
            reps = self._reps[(self._owner[d][i][0], self._owner[d][j][0])]
            self._local.append(len(reps))
            reps.append(rep)
        for (u, v), reps in self._reps.items():
            A.hom_cache[(self.parts[u], self.parts[v], 0)] = len(reps)

    def dim(self, u, v) -> int:
        """dim Hom(T_u, T_v) in the homotopy category."""
        return len(self._reps[(u, v)])

    def _localize(self, coords: dict) -> dict:
        """Quotient coordinates of Hom(T, T) that lie in one pair,
        renumbered as that pair's classes."""
        local = self._local
        return {local[q]: x for q, x in coords.items()}

    def coords(self, u, v, f: ChainMap) -> dict:
        """Quotient coordinates of the chain map f from summand u to v."""
        vec = map_vector(f, self._offsets[(u, v)])
        return self._localize(self.hom.quotient_coords([vec])[0])

    def products(self, block, xs, ys) -> list[dict]:
        """Row a * len(ys) + b: the class xs[a] followed by the class ys[b],
        for block = (u, v, w), xs a list of reduced coordinate rows of
        (u, v) and ys one of (v, w), contracted with the block."""
        table = self.tensor.get(block)
        if table is None:  # dim(u, v) or dim(v, w) is 0: every class is 0
            return [{} for _ in range(len(xs) * len(ys))]
        width, rows, p = self.dim(block[1], block[2]), table.rows, self.p
        out = []
        for x in xs:
            for y in ys:
                acc = {}
                for i, a in x.items():
                    for j, b in y.items():
                        f = a * b
                        for r, c in rows[i * width + j].items():
                            acc[r] = acc.get(r, 0) + f * c
                out.append({r: s % p for r, s in acc.items() if s % p})
        return out

    @cached_property
    def tensor(self) -> dict[tuple, linalg.SparseRows]:
        """The blocks of the structure tensor.

        Class i of (u, v) is its quotient representative reps_uv[i] in
        Hom(T, T).  The representatives' nonzero coefficients are indexed
        by degree and slot, as left factors ending at a slot K and as right
        factors starting there, and joined on K: coefficient x of a map
        from I to K and y of one from K to J, on edges a, b and c, meet at
        each (y, r) of A.block_products(a, b, c)[x], and their product goes
        to coefficient r of the map from I to J in the vector of class i
        followed by class j.  Only nonzero products are visited.  One
        quotient_coords on Hom(T, T), which refuses a vector that is not a
        chain map, reduces the nonzero vectors (a zero one has coordinates
        {}), numbered as the classes of pair (u, w).
        """
        A, m, T = self.T.algebra, self.m, self.T
        offsets, block_of, owner = self.hom.offsets, self._block_of, self._owner
        dims = [[self.dim(u, v) for v in range(m)] for u in range(m)]
        # the product vectors of block (u, v, w): row i * dim(v, w) + j
        vecs = {(u, v, w): [{} for _ in range(dims[u][v] * dims[v][w])]
                for u in range(m) for w in range(m) for v in range(m)
                if dims[u][v] and dims[v][w]}
        # left[(d, K)][I]: (class, x, value) of the maps from I to K;
        # right[(d, K)][J][y]: (class, value) of those from K to J
        left, right = {}, {}
        for reps in self._reps.values():
            for q, rep in enumerate(reps):
                for col, f in rep.items():
                    d, k, i, off = block_of[col]
                    x = col - off
                    left.setdefault((d, k), {}).setdefault(i, []).append((q, x, f))
                    right.setdefault((d, i), {}).setdefault(k, {}).setdefault(x, []).append((q, f))
        products_of = A.block_products
        for (d, k), lefts in left.items():
            rights = right.get((d, k))
            if rights is None:
                continue
            slots, own = T.slots(d), owner[d]
            b, v = slots[k], own[k][0]
            for i, xs in lefts.items():
                a, u = slots[i], own[i][0]
                for j, ys in rights.items():
                    table = products_of(a, b, slots[j])
                    if not table:
                        continue
                    w = own[j][0]
                    out, width, h0 = vecs[(u, v, w)], dims[v][w], offsets[(d, j, i)]
                    for ii, x, f in xs:
                        base = ii * width
                        for y, r in table[x]:
                            gs = ys.get(y)
                            if gs:
                                at = h0 + r
                                for jj, g in gs:
                                    row = out[base + jj]
                                    row[at] = row.get(at, 0) + f * g
        coords = iter(self.hom.quotient_coords([row for rows in vecs.values() for row in rows if row]))
        return {(u, v, w): linalg.SparseRows([self._localize(next(coords)) if row else {} for row in rows],
                                             dims[u][w])
                for (u, v, w), rows in vecs.items()}

    def local_radical(self, u) -> linalg.SparseRows:
        """Rows spanning rad End(T_u), read off the block (u, u, u)."""
        d = self.dim(u, u)
        if d == 1:
            return linalg.SparseRows([], 1)
        p, rows = self.p, self.tensor[(u, u, u)].rows
        idc = self.coords(u, u, identity_chain_map(self.parts[u]))
        rad_rows = []
        for i in range(d):
            # left multiplication by basis class i, transposed: row j is
            # class i followed by class j
            lt = rows[i * d:(i + 1) * d]
            # its scalar part c, with L - c nilpotent, so trace L = d * c
            trace = sum(row.get(j, 0) for j, row in enumerate(lt))
            candidates = [trace * pow(d, -1, p) % p] if p > d else range(p)
            c = next((c for c in candidates if _is_nilpotent(_minus_scalar(lt, c, p), p, d)), None)
            if c is None:
                raise AssertionError("local algebra has no scalar part")
            # class i minus c times the identity class
            row = {j: -c * x % p for j, x in idc.items() if c * x % p}
            _add_at(row, i, 1, p)
            rad_rows.append(row)
        return linalg.SparseRows(linalg.rref(linalg.SparseRows(rad_rows, d), p)[0].rows, d)


def _add_at(row: dict, j: int, x: int, p: int) -> None:
    """row[j] += x mod p, dropping the entry if it becomes zero."""
    x = (row.get(j, 0) + x) % p
    if x:
        row[j] = x
    else:
        row.pop(j, None)


def _minus_scalar(rows, c, p) -> linalg.SparseRows:
    """The square matrix with these rows minus c times the identity."""
    out = [dict(row) for row in rows]
    for j, row in enumerate(out):
        _add_at(row, j, -c, p)
    return linalg.SparseRows(out, len(out))


def _is_nilpotent(mat: linalg.SparseRows, p, d) -> bool:
    steps = max(1, d).bit_length() + 1
    for _ in range(steps):
        if not any(mat.rows):
            return True
        mat = linalg.product(mat, mat, p)
    return not any(mat.rows)


def _pick_arrows(square_rows, candidates: linalg.SparseRows, p) -> list[int]:
    """Indices of the candidates that a greedy pass keeps independent
    modulo the span of `square_rows` and the candidates kept before.

    Candidate i is kept exactly when it is outside the span of the rows
    and of all earlier candidates, i.e. when its column is a pivot column
    of the transposed stack [rows; candidates]^T, so one elimination
    decides them all.
    """
    stacked = linalg.SparseRows(list(square_rows) + candidates.rows, candidates.cols)
    skip = len(square_rows)
    return [c - skip for c in linalg.rref(linalg.transpose(stacked), p)[1] if c >= skip]


def _radical_square(E: EndoAlgebra, jbasis) -> dict[tuple, list[dict]]:
    """The nonzero products of the radical bases jbasis over each block of
    the tensor, listed under their target pair.  Only a diagonal pair has a
    radical basis other than the identity, so a block (u, v, w) with
    u != v != w gives the rows of the block itself; the others take one
    contraction each."""
    jsq: dict[tuple, list[dict]] = {uv: [] for uv in jbasis}
    for (u, v, w), table in E.tensor.items():
        if u != v and v != w:
            prods = table.rows
        else:
            prods = E.products((u, v, w), jbasis[(u, v)].rows, jbasis[(v, w)].rows)
        jsq[(u, w)].extend(row for row in prods if row)
    return jsq


def a_cycle_generic(E: EndoAlgebra) -> list[ACycle]:
    """Quiver of End(T) from the radical modulo its square; cycles traced
    along maximal nonzero compositions of arrows."""
    p, m = E.p, E.m
    k = E.T.algebra.tree.multiplicity

    # radical basis per block, in quotient coordinates
    jbasis = {(u, v): E.local_radical(u) if u == v else linalg.identity(E.dim(u, v))
              for u in range(m) for v in range(m)}

    jsq = _radical_square(E, jbasis)

    arrows = []  # (u, v, coordinates)
    for u in range(m):
        for v in range(m):
            if not jbasis[(u, v)].rows:
                continue
            picked = _pick_arrows(jsq[(u, v)], jbasis[(u, v)], p)
            for i in picked:
                arrows.append((u, v, jbasis[(u, v)].rows[i]))
            if u != v and len(picked) > 1:
                raise AssertionError("more than one arrow between distinct vertices")

    # successors: unique next arrow with nonzero composite, all pairs of
    # arrows u -> v -> w in one contraction per block
    by_pair: dict[tuple, list[int]] = {}
    for ai, (u, v, _) in enumerate(arrows):
        by_pair.setdefault((u, v), []).append(ai)
    nxt: dict[int, list[int]] = {ai: [] for ai in range(len(arrows))}
    for (u, v), firsts in by_pair.items():
        for w in range(m):
            thens = by_pair.get((v, w))
            if not thens:
                continue
            xs, ys = ([arrows[a][2] for a in ids] for ids in (firsts, thens))
            live = E.products((u, v, w), xs, ys)
            for t, ai in enumerate(firsts):
                row = live[t * len(thens):(t + 1) * len(thens)]
                nxt[ai].extend(bi for bi, nonzero in zip(thens, row) if nonzero)
    succ = {}
    for ai, found in nxt.items():
        if len(found) > 1:
            raise AssertionError("arrow has more than one nonzero successor")
        succ[ai] = found[0] if found else None

    visited = set()
    cycles = []
    for ai in range(len(arrows)):
        if ai in visited:
            continue
        # walk back to a chain head if the orbit is not closed
        chain = [ai]
        visited.add(ai)
        cur = ai
        closed = False
        while succ[cur] is not None:
            cur = succ[cur]
            if cur == chain[0]:
                closed = True
                break
            if cur in visited:
                raise AssertionError("arrow orbits are not disjoint")
            visited.add(cur)
            chain.append(cur)
        if not closed:
            preds = [bi for bi in range(len(arrows)) if succ[bi] == chain[0]]
            if preds:
                raise AssertionError("open chain with a predecessor")
        members = tuple(arrows[b][0] for b in chain)
        wits = [arrows[b][2] for b in chain]
        cycles.append(ACycle(members, False, wits))

    # exceptional detection: two full loops of compositions stay nonzero
    # exactly at the exceptional cycle when the multiplicity is >= 2
    exceptional_idx = None
    for ci, cyc in enumerate(cycles):
        if k < 2:
            break
        if _walk(E, cyc.members, cyc.witnesses, 0, 2 * len(cyc.members))[-1]:
            if exceptional_idx is not None:
                raise AssertionError("two cycles look exceptional")
            exceptional_idx = ci
    if exceptional_idx is None:
        # multiplicity 1 (or no arrows at all): the mark is immaterial;
        # put it on the cycle holding a stalk summand when there is one
        stalk_positions = {i for i, P in enumerate(E.parts) if len(P.comps) == 1}
        for ci, cyc in enumerate(cycles):
            if set(cyc.members) & stalk_positions:
                exceptional_idx = ci
                break
        if exceptional_idx is None:
            exceptional_idx = 0 if cycles else None
    for ci, cyc in enumerate(cycles):
        cyc.exceptional = ci == exceptional_idx
    if not cycles:
        # single summand, no arrows (one-edge tree with multiplicity 1)
        cycles = [ACycle((0,), True, None)]
    return cycles


# -- tree assembly --------------------------------------------------------------------


def _require_tilting(T: ProjComplex) -> None:
    """Refuse T unless it is tilting: a TiltingComplex was decided when it
    was made, any other complex is decided by is_tilting."""
    if not isinstance(T, TiltingComplex) and not is_tilting(T):
        raise ValueError("complex is not tilting")


def tree_from_cycles(T: ProjComplex, cycles: list[ACycle]) -> tuple[BrauerTree, dict]:
    """Brauer tree of End(T) from the A-cycles of its summands, with edges
    labeled by the summands; returns (tree, edge -> summand label map).
    The tree's Cartan matrix must be that of End(T), read from the Hom
    dimensions the decoders recorded."""
    A = T.algebra
    n = len(T.parts)
    # vertex c is cycle c; leaf vertices follow, in summand order
    cyclic = {ci: cyc.members for ci, cyc in enumerate(cycles)}
    ends = {i: [] for i in range(n)}
    for ci, cyc in enumerate(cycles):
        if len(set(cyc.members)) != len(cyc.members):
            raise AssertionError("cycle repeats a summand")
        for i in cyc.members:
            ends[i].append(ci)
    for i in range(n):
        if len(ends[i]) > 2:
            raise AssertionError("summand lies on more than two cycles")
        while len(ends[i]) < 2:
            ends[i].append(len(cyclic))
            cyclic[len(cyclic)] = (i,)
    exc_cycles = [ci for ci, cyc in enumerate(cycles) if cyc.exceptional]
    if len(exc_cycles) != 1:
        raise AssertionError("expected exactly one exceptional cycle")
    tree = BrauerTree(range(len(cyclic)), ends, cyclic, exc_cycles[0], A.tree.multiplicity)
    if tree.cartan_matrix() != endo_cartan(T):
        raise AssertionError(
            "tree Cartan matrix disagrees with the endomorphism Cartan matrix"
        )
    return tree, dict(enumerate(T.labels))


def a_cycle_partition(T: ProjComplex, method: str = "both") -> list[ACycle]:
    """Partition of the summands of a tilting complex into A-cycles.

    method 'generic' decodes the quiver of End(T); 'fast' applies the
    shared-component case analysis over the star and checks its witnesses;
    'both' runs the two and insists they agree.  Both read the summands'
    components, never their labels, and share one EndoAlgebra: the one
    realize's TiltingComplex carries, else one built over T once T is
    decided.  A bad method, and 'fast' or 'both' off the star, are refused
    before any decision or space.
    """
    if method not in ("fast", "generic", "both"):
        raise ValueError("method must be 'fast', 'generic' or 'both'")
    if method != "generic":
        T.algebra.require_star()
    _require_tilting(T)
    E = T.endo if isinstance(T, TiltingComplex) and T.endo else EndoAlgebra(T)
    if method == "generic":
        return a_cycle_generic(E)
    fast = a_cycle_fast(T)
    validate_cycles(E, fast)
    if method == "fast":
        return fast
    generic = a_cycle_generic(E)
    def norm(cycles, with_flag):
        full = {c.normalized(): c.exceptional for c in cycles if len(c.members) >= 2}
        if with_flag:
            return {(mem, flag) for mem, flag in full.items()}
        return set(full)
    with_flag = T.algebra.tree.multiplicity >= 2
    if norm(fast, with_flag) != norm(generic, with_flag):
        raise AssertionError("fast and generic A-cycle decoders disagree")
    return fast


def endo_brauer_tree(T: ProjComplex, method: str = "both"):
    """Brauer tree of End(T) with edges labeled by the summands; returns
    (tree, edge -> summand label map).  See tree_from_cycles."""
    return tree_from_cycles(T, a_cycle_partition(T, method=method))


def is_autoequivalence_covering(cov, A: BrauerTreeAlgebra) -> bool:
    """Whether the covering's tilting complex has endomorphism ring
    isomorphic to the star algebra itself: its Cartan matrix must be A's,
    and then the tree both decoders agree on must be A's tree."""
    from .coverings import covering_to_complex

    T = covering_to_complex(cov, A)
    if endo_cartan(T) != A.cartan_matrix():
        return False
    tree, _ = endo_brauer_tree(T)
    return tree.is_isomorphic_to(A.tree)
