"""Endomorphism rings of two-term tilting complexes over a Brauer star
algebra: Cartan matrix, partition of the summands into A-cycles with their
cyclic orders, and the resulting Brauer tree.

Two independent decoders are provided.  The generic one holds End(T) in
quotient coordinates, multiplied by structure constants, reads off the
quiver from the radical modulo its square and traces maximal chains of
arrows with nonzero products.  The star fast path groups summands by shared
components and orders them along the star, with explicit witness morphisms
whose maximal nonzero compositions certify each cyclic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .algebra import BrauerTreeAlgebra, build_tree_algebra, idempotent, socle_class
from .complexes import (
    ChainMap,
    ChainMapSpace,
    ProjComplex,
    euler_pairing,
    hom_complex_dim,
    hom_space,
    identity_chain_map,
)
from .tilting import is_tilting
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
    summands, cross-checked against the alternating-sum pairing."""
    if not is_tilting(T):
        raise ValueError("complex is not tilting")
    parts = summand_complexes(T)
    m = len(parts)
    cart = [[hom_complex_dim(parts[i], parts[j], 0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
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
            if not last.any():
                raise AssertionError("witness composition died too early")
            if past.any():
                raise AssertionError("witness composition survived past the bound")


def _walk(E: EndoAlgebra, members, wits, start, steps) -> list[np.ndarray]:
    """Quotient coordinates of the composites of the first 1, ..., steps
    witnesses around a cycle from member `start` on; wits[t] is in
    coordinates and maps members[t] to the next member."""
    r = len(members)
    comps = [wits[start]]
    for t in range(start + 1, start + steps):
        u, v, w = members[start], members[t % r], members[(t + 1) % r]
        comps.append(E.compose(u, v, w, comps[-1], wits[t % r]))
    return comps


# -- generic decoder ------------------------------------------------------------------


class EndoAlgebra:
    """End(T) in quotient coordinates, with one product.  Per decode it owns
    the space of each summand pair, built on first use through hom_space,
    so endo_cartan finds its dimension cached, and the structure constants
    of each summand triple, built on first use (see _table)."""

    def __init__(self, T: ProjComplex):
        self.T = T
        self.p = T.algebra.prime
        self.parts = summand_complexes(T)
        self.m = len(self.parts)
        self._spaces: dict[tuple, ChainMapSpace] = {}
        self._tables: dict[tuple, np.ndarray] = {}

    def space(self, u, v) -> ChainMapSpace:
        if (u, v) not in self._spaces:
            self._spaces[(u, v)] = hom_space(self.parts[u], self.parts[v], 0)
        return self._spaces[(u, v)]

    def coords(self, u, v, f: ChainMap) -> np.ndarray:
        """Quotient coordinates of the chain map f from summand u to v."""
        sp = self.space(u, v)
        return sp.quotient_coords(sp.vector_of(f))

    def compose(self, u, v, w, x, y) -> np.ndarray:
        """Quotient coordinates of class x (u -> v) followed by class y
        (v -> w), both given in reduced quotient coordinates."""
        xy = np.outer(x, y) % self.p
        return linalg.matmul(xy.reshape(1, -1), self._table(u, v, w), self.p)[0]

    def _table(self, u, v, w) -> np.ndarray:
        """Row i * dim(v, w) + j: the quotient coordinates of basis class i
        of (u, v) followed by basis class j of (v, w).  In degree d, class x
        of block (a, b), from slot i to slot k, times class col of block
        (b, c), from slot k to slot j, is class r of block (a, c) for each
        (r, col) in A.mult_coords(x, "L", c); these index triples pair the
        entries of the representatives of the two spaces."""
        if (u, v, w) in self._tables:
            return self._tables[(u, v, w)]
        A, p = self.T.algebra, self.p
        first, then, out = self.space(u, v), self.space(v, w), self.space(u, w)
        U, V, W = self.parts[u], self.parts[v], self.parts[w]
        triples = []  # (entry of u -> v, entry of v -> w, entry of their product)
        for d in U.degrees():
            for i, a in enumerate(U.slots(d)):
                for k, b in enumerate(V.slots(d)):
                    f_off = first.offsets[(d, k, i)]
                    for x_pos, x in enumerate(A.blocks[(a, b)]):
                        for j, c in enumerate(W.slots(d)):
                            g_off, h_off = then.offsets[(d, j, k)], out.offsets[(d, j, i)]
                            triples.extend((f_off + x_pos, g_off + col, h_off + r)
                                           for r, col in A.mult_coords(x, "L", c))
        fi, gi, hi = np.array(triples, dtype=np.intp).reshape(-1, 3).T
        reps_f, reps_g = first._reduction_data()[1], then._reduction_data()[1]
        # reduced entries keep each product below 2^62; reduce before summing
        prods = (reps_f[:, None, fi] * reps_g[None, :, gi]) % p
        vecs = linalg.zeros(first.dim * then.dim, out.total)
        np.add.at(vecs, (slice(None), hi), prods.reshape(len(vecs), len(hi)))
        table = self._tables[(u, v, w)] = out.quotient_coords(vecs)
        return table

    def local_radical(self, u) -> list[np.ndarray]:
        """Coordinate vectors spanning rad End(T_u)."""
        d = self.space(u, u).dim
        if d == 1:
            return []
        p, table = self.p, self._table(u, u, u)
        idc = self.coords(u, u, identity_chain_map(self.parts[u]))
        rad_rows = []
        for i, e in enumerate(linalg.eye(d)):
            # left multiplication by basis class i: column j is class i followed by class j
            L = table[i * d:(i + 1) * d].T
            # its scalar part c, with L - c nilpotent, so trace L = d * c
            candidates = [int(np.trace(L)) * pow(d, -1, p) % p] if p > d else range(p)
            c = next((c for c in candidates if _is_nilpotent(L - c * linalg.eye(d), p, d)), None)
            if c is None:
                raise AssertionError("local algebra has no scalar part")
            rad_rows.append((e - c * idc) % p)
        red, piv = linalg.rref(np.array(rad_rows, dtype=np.int64), p)
        return list(red[:len(piv)])


def _is_nilpotent(mat, p, d) -> bool:
    m = mat.copy() % p
    steps = max(1, d).bit_length() + 1
    for _ in range(steps):
        if not m.any():
            return True
        m = linalg.matmul(m, m, p)
    return not m.any()


def _pick_arrows(square_rows, candidates, p) -> list[int]:
    """Indices of the candidates that a greedy pass keeps independent
    modulo the span of `square_rows` and the candidates kept before.

    Candidate i is kept exactly when it is outside the span of the rows
    and of all earlier candidates, i.e. when its column is a pivot column
    of the transposed stack [rows; candidates]^T, so one elimination
    decides them all.
    """
    stacked = np.array(list(square_rows) + list(candidates), dtype=np.int64)
    skip = len(square_rows)
    return [c - skip for c in linalg.rref(stacked.T, p)[1] if c >= skip]


def a_cycle_generic(E: EndoAlgebra) -> list[ACycle]:
    """Quiver of End(T) from the radical modulo its square; cycles traced
    along maximal nonzero compositions of arrows."""
    p, m = E.p, E.m
    k = E.T.algebra.tree.multiplicity

    # radical basis per block, in quotient coordinates
    jbasis = {(u, v): E.local_radical(u) if u == v else list(linalg.eye(E.space(u, v).dim))
              for u in range(m) for v in range(m)}

    # radical squared per block
    jsq: dict[tuple, list[np.ndarray]] = {uv: [] for uv in jbasis}
    for u, w, v in product(range(m), repeat=3):
        for f, g in product(jbasis[(u, v)], jbasis[(v, w)]):
            coords = E.compose(u, v, w, f, g)
            if coords.any():
                jsq[(u, w)].append(coords)

    arrows = []  # (u, v, coordinates)
    for u in range(m):
        for v in range(m):
            if not jbasis[(u, v)]:
                continue
            picked = _pick_arrows(jsq[(u, v)], jbasis[(u, v)], p)
            for i in picked:
                arrows.append((u, v, jbasis[(u, v)][i]))
            if u != v and len(picked) > 1:
                raise AssertionError("more than one arrow between distinct vertices")

    # successors: unique next arrow with nonzero composite
    succ = {}
    for ai, (u, v, f) in enumerate(arrows):
        nxt = [
            bi
            for bi, (u2, w, g) in enumerate(arrows)
            if u2 == v and E.compose(u, v, w, f, g).any()
        ]
        if len(nxt) > 1:
            raise AssertionError("arrow has more than one nonzero successor")
        succ[ai] = nxt[0] if nxt else None

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
        if _walk(E, cyc.members, cyc.witnesses, 0, 2 * len(cyc.members))[-1].any():
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
    if build_tree_algebra(tree, A.prime).cartan_matrix() != endo_cartan(T):
        raise AssertionError(
            "tree Cartan matrix disagrees with the endomorphism Cartan matrix"
        )
    return tree, dict(enumerate(T.labels))


def a_cycle_partition(T: ProjComplex, method: str = "both") -> list[ACycle]:
    """Partition of the summands of a tilting complex into A-cycles.

    method 'generic' decodes the quiver of End(T); 'fast' applies the
    shared-component case analysis over the star and checks its witnesses;
    'both' runs the two and insists they agree.  Both read the summands'
    components, never their labels, and share one EndoAlgebra.
    """
    if not is_tilting(T):
        raise ValueError("complex is not tilting")
    if method not in ("fast", "generic", "both"):
        raise ValueError("method must be 'fast', 'generic' or 'both'")
    E = EndoAlgebra(T)
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


def is_autoequivalence_covering(cov, A: BrauerTreeAlgebra, method: str = "fast") -> bool:
    """Whether the covering's tilting complex has endomorphism ring
    isomorphic to the star algebra itself."""
    from .coverings import covering_to_complex

    T = covering_to_complex(cov, A)
    tree, _ = endo_brauer_tree(T, method=method)
    return tree.is_isomorphic_to(A.tree)
