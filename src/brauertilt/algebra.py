"""Basis-level model of a Brauer tree algebra.

The basis consists of path classes: one idempotent e_i per edge, the proper
winding paths around a single vertex, and one socle class z_i per edge (the
two full windings at an edge are identified into the single class z_i).
Paths multiply by concatenation, left factor first: compose(p, q) is "p then
q".  A product is zero as soon as it mixes winding vertices or exceeds the
full winding length.

Projective left modules are P_i = A e_i, so a map P_i -> P_j is right
multiplication by an element of e_i A e_j, i.e. by a combination of path
classes running from edge i to edge j.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .trees import BrauerTree

DEFAULT_PRIME = 32003


class PathClass(NamedTuple):
    kind: str  # "e" idempotent, "p" proper winding path, "z" socle
    start: int  # start edge
    end: int  # end edge
    vertex: object  # winding vertex (proper paths only)
    length: int  # arrow steps ("z": full winding, length stored as -1)

    def __repr__(self):
        if self.kind == "e":
            return f"e[{self.start}]"
        if self.kind == "z":
            return f"z[{self.start}]"
        return f"p[{self.vertex};{self.start};{self.length}]"


def idempotent(edge) -> PathClass:
    return PathClass("e", edge, edge, None, 0)


def socle_class(edge) -> PathClass:
    return PathClass("z", edge, edge, None, -1)


class BrauerTreeAlgebra:
    """Exact basis, multiplication table and Cartan data of a Brauer tree
    algebra over the prime field F_p.

    The structure constants are all 0/1, so the basis data is independent
    of the prime; the prime only enters later linear algebra.
    """

    def __init__(self, tree: BrauerTree, prime: int = DEFAULT_PRIME):
        # elimination runs on Python ints, so any prime would do; the bound
        # keeps the primality check, trial division up to sqrt(p), cheap
        if not 2 <= prime < 2**31 or any(prime % q == 0 for q in range(2, isqrt(prime) + 1)):
            raise ValueError(f"working prime must be a prime below 2**31, got {prime}")
        self.tree = tree
        self.prime = prime
        self.edges = tree.edge_ids()
        self.n = len(self.edges)
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        # per vertex, the full winding length and each edge's place in the
        # cyclic order, read by every product of the table
        self._bound = {v: tree.winding_bound(v) for v in tree.cyclic_order}
        self._place = {v: {e: i for i, e in enumerate(order)}
                       for v, order in tree.cyclic_order.items()}
        self._build_basis()
        self._build_mult()
        self._build_arrows()
        self._check_consistency()
        # dim Hom(X, Y[s]) keyed (X, Y, s) by the parts themselves, which
        # the constructors intern in summand_cache: it holds
        # modules.uniserial_presentation (read off the star path, filling
        # no module memo), complexes.stalk_complex and
        # modules.min_proj_presentation; syzygy_cache memoizes
        # modules._syzygy_with_embedding, keyed like the presentations by
        # a module's dims and the entries of its arrow matrices;
        # mult_cache and product_cache hold the index form of the structure
        # constants (mult_coords, block_products)
        self.hom_cache: dict = {}
        self.summand_cache: dict = {}
        self.syzygy_cache: dict = {}
        self.mult_cache: dict = {}
        self.product_cache: dict = {}
        # built on first use (most algebras never act on a module); not a
        # functools.cached_property, which writes through the instance
        # __dict__, after which CPython 3.11 reads every attribute of the
        # algebra about 3x slower
        self._path_factors = None
        self._classes_ending = None

    # -- construction ---------------------------------------------------------

    def _winding_end(self, v, start_edge, length):
        order = self.tree.cyclic_order[v]
        return order[(self._place[v][start_edge] + length) % len(order)]

    def _build_basis(self):
        tree = self.tree
        basis: list[PathClass] = []
        for e in self.edges:
            basis.append(idempotent(e))
        for e in self.edges:
            for v in tree.edges[e]:
                for t in range(1, self._bound[v]):
                    basis.append(
                        PathClass("p", e, self._winding_end(v, e, t), v, t)
                    )
        for e in self.edges:
            basis.append(socle_class(e))
        self.basis = basis
        self.index = {pc: i for i, pc in enumerate(basis)}
        self.dim = len(basis)
        blocks: dict[tuple, list[PathClass]] = {
            (a, b): [] for a in self.edges for b in self.edges
        }
        for pc in basis:
            blocks[(pc.start, pc.end)].append(pc)
        self.blocks = blocks
        self.block_dims = {key: len(pcs) for key, pcs in blocks.items()}
        self.block_pos = {
            (a, b): {pc: i for i, pc in enumerate(pcs)} for (a, b), pcs in blocks.items()
        }
        # the path classes starting at each edge, i.e. composable after it
        self._starting = {
            a: [pc for b in self.edges for pc in blocks[(a, b)]] for a in self.edges
        }

    def _compose_raw(self, p: PathClass, q: PathClass):
        if p.end != q.start:
            return None
        if p.kind == "e":
            return q
        if q.kind == "e":
            return p
        if p.kind == "z" or q.kind == "z":
            return None
        if p.vertex != q.vertex:
            return None
        total = p.length + q.length
        bound = self._bound[p.vertex]
        if total < bound:
            return PathClass("p", p.start, self._winding_end(p.vertex, p.start, total), p.vertex, total)
        if total == bound:
            return socle_class(p.start)
        return None

    def _build_mult(self):
        self.mult = {
            (p, q): r
            for p in self.basis
            for q in self._starting[p.end]
            if (r := self._compose_raw(p, q)) is not None
        }

    def _build_arrows(self):
        arrows = [pc for pc in self.basis if pc.kind == "p" and pc.length == 1]
        # degenerate case: both windings at an edge are trivial, so the socle
        # class is not a product of shorter paths and must act as a generator
        for e in self.edges:
            v, w = self.tree.edges[e]
            if self.tree.winding_bound(v) == 1 and self.tree.winding_bound(w) == 1:
                arrows.append(socle_class(e))
        self.arrows = arrows

    def _check_consistency(self):
        """The Cartan matrix of the tree and an associative multiplication
        table, proved by Light's test (Clifford and Preston, "The Algebraic
        Theory of Semigroups", vol. 1, section 1.2).

        The table holds composable pairs only, and every product must be a
        basis class running from the start of its left factor to the end of
        its right factor.  Then (pg)r and p(gr) are both zero unless
        p.end == g.start: the product of the other pair starts at g.start.
        The set G of the elements g with (pg)r = p(gr) for all p and r is
        a subspace, since the table is extended bilinearly, and it is closed
        under products: for g, h in G, (p(gh))r = ((pg)h)r = (pg)(hr) =
        p(g(hr)) = p((gh)r).  So it is enough to check the generators (the
        idempotents and `arrows`) as middle factors, comparing the maps
        r -> (pg)r and r -> p(gr) for each composable pair (p, g), and then
        that every basis class is a product of generators, which the table
        itself shows: every class is reached from the generators by right
        multiplication with generators.  Associativity is checked before
        reachability, so a table that is not associative says so.
        """
        if self.cartan_matrix() != self.tree.cartan_matrix():
            raise AssertionError("Cartan matrix of the basis disagrees with the tree")
        products = {p: {} for p in self.basis}  # p -> {q: pq} for pq != 0
        for (p, q), r in self.mult.items():
            if r not in self.index or (r.start, r.end) != (p.start, q.end):
                raise AssertionError(
                    f"product of ({p}, {q}) is {r}, not a basis class from "
                    f"edge {p.start} to edge {q.end}"
                )
            products[p][q] = r
        generators = {e: [idempotent(e)] for e in self.edges}  # by start edge
        for g in self.arrows:
            generators[g.start].append(g)
        for p in self.basis:
            row = products[p]
            for g in generators[p.end]:
                pg = row.get(g)
                left = products[pg] if pg is not None else {}
                right = {
                    r: x for r, gr in products[g].items() if (x := row.get(gr)) is not None
                }
                if left != right:
                    r = next(r for r in self._starting[g.end] if left.get(r) != right.get(r))
                    raise AssertionError(f"multiplication not associative on ({p}, {g}, {r})")
        reached = {g for gs in generators.values() for g in gs}
        frontier = list(reached)
        while frontier:
            q = frontier.pop()
            row = products[q]
            for g in generators[q.end]:
                qg = row.get(g)
                if qg is not None and qg not in reached:
                    reached.add(qg)
                    frontier.append(qg)
        for q in self.basis:
            if q not in reached:
                raise AssertionError(f"basis class {q} is not a product of generators")

    # -- public interface -------------------------------------------------------

    def compose(self, p: PathClass, q: PathClass):
        """Product "p then q"; None encodes zero."""
        if p not in self.index or q not in self.index:
            raise ValueError("path class does not belong to this algebra")
        return self.mult.get((p, q))

    def mult_coords(self, pc: PathClass, side: str, edge) -> tuple:
        """Multiplication by one path class between blocks, as the (row,
        column) positions of the ones in its 0/1 matrix.

        side "L" maps y in block (pc.end, edge) to pc*y in block
        (pc.start, edge); side "R" maps y in block (edge, pc.start) to
        y*pc in block (edge, pc.end).  Rows index the target block and
        columns the source block, in the order of `blocks`.  Cached in
        `mult_cache`.
        """
        key = (pc, side, edge)
        coords = self.mult_cache.get(key)
        if coords is None:
            if side == "L":
                src, tgt = self.blocks[(pc.end, edge)], (pc.start, edge)
                products = [self.mult.get((pc, y)) for y in src]
            else:
                src, tgt = self.blocks[(edge, pc.start)], (edge, pc.end)
                products = [self.mult.get((y, pc)) for y in src]
            pos = self.block_pos[tgt]
            coords = tuple((pos[r], col) for col, r in enumerate(products) if r is not None)
            self.mult_cache[key] = coords
        return coords

    def block_products(self, a, b, c) -> tuple:
        """The products between blocks (a, b) and (b, c), read as
        {x: ((y, r), ...)}: entry x lists the pairs (y, r) such that class
        x of block (a, b) followed by class y of block (b, c) is class r of
        block (a, c).  The empty tuple when no product is nonzero.  Read
        off mult_coords and cached in `product_cache`."""
        key = (a, b, c)
        table = self.product_cache.get(key)
        if table is None:
            table = tuple(tuple((y, r) for r, y in self.mult_coords(pc, "L", c))
                          for pc in self.blocks[(a, b)])
            table = self.product_cache[key] = table if any(table) else ()
        return table

    def cartan_matrix(self) -> list[list[int]]:
        return [
            [len(self.blocks[(self.edges[i], self.edges[j])]) for j in range(self.n)]
            for i in range(self.n)
        ]

    def dim_projective(self, i) -> int:
        return sum(len(self.blocks[(a, i)]) for a in self.edges)

    def first_arrow(self, pc: PathClass) -> PathClass:
        """The first arrow factor of a non-idempotent class, left factor
        first: the arrow out of its start around its winding vertex; for a
        socle class, around an end of its edge with a winding of length at
        least 2, or the socle class itself when it is an arrow."""
        if pc.kind == "p":
            return PathClass("p", pc.start, self.tree.succ(pc.vertex, pc.start), pc.vertex, 1)
        for v in self.tree.edges[pc.start]:
            if self._bound[v] >= 2:
                return PathClass("p", pc.start, self.tree.succ(v, pc.start), v, 1)
        return pc

    @property
    def path_factors(self) -> dict[PathClass, tuple[PathClass, PathClass]]:
        """Every non-idempotent class q as (first arrow, class that follows),
        so that q = compose(first, rest) with first = `first_arrow(q)`."""
        if self._path_factors is None:
            factors = {}
            for q in self.basis:
                if q.kind != "e":
                    first = self.first_arrow(q)
                    rest = next(r for r in self._starting[first.end] if self.mult.get((first, r)) == q)
                    factors[q] = (first, rest)
            self._path_factors = factors
        return self._path_factors

    @property
    def classes_ending(self) -> dict[object, list[PathClass]]:
        """The basis classes ending at each edge, shortest first and the
        socle class last, so each class comes after the class that follows
        its first arrow in `path_factors`."""
        if self._classes_ending is None:
            self._classes_ending = {
                e: sorted(
                    (q for a in self.edges for q in self.blocks[(a, e)]),
                    key=lambda q: (q.kind == "z", q.length),
                )
                for e in self.edges
            }
        return self._classes_ending

    # star conveniences ---------------------------------------------------------

    @property
    def is_canonical_star(self) -> bool:
        """Star with edges 1..n in that cyclic order around the center,
        as produced by star_algebra; the mod-n edge arithmetic below
        assumes this labeling."""
        return (
            self.tree.is_star()
            and self.edges == list(range(1, self.n + 1))
            and self.tree.cyclic_order[self.tree.exceptional]
            == tuple(range(1, self.n + 1))
        )

    def require_star(self):
        if not self.is_canonical_star:
            raise ValueError("operation requires the canonical Brauer star algebra")

    def star_next(self, edge, steps):
        """Edge label shifted by +steps around the star (labels 1..n)."""
        return (edge - 1 + steps) % self.n + 1

    def star_path(self, start_edge, length) -> PathClass | None:
        """Path class of the given length winding from start_edge around the
        star center; None when the length exceeds the socle length."""
        self.require_star()
        bound = self.n * self.tree.multiplicity
        if length == 0:
            return idempotent(start_edge)
        if length < bound:
            return PathClass(
                "p", start_edge, self.star_next(start_edge, length), 0, length
            )
        if length == bound:
            return socle_class(start_edge)
        return None


def build_tree_algebra(tree: BrauerTree, prime: int = DEFAULT_PRIME) -> BrauerTreeAlgebra:
    return BrauerTreeAlgebra(tree, prime)


def star_algebra(n: int, k: int, prime: int = DEFAULT_PRIME) -> BrauerTreeAlgebra:
    if n < 1 or k < 1:
        raise ValueError("star parameters must satisfy n >= 1 and k >= 1")
    return BrauerTreeAlgebra(BrauerTree.star(n, k), prime)

