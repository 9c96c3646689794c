"""Brauer trees: finite trees with a cyclic edge order at every vertex,
one exceptional vertex and a multiplicity.

The cyclic order at a vertex lists the incident edges in the order in which
the quiver arrows of the associated algebra rotate around that vertex; the
composition series of the projectives then wind the opposite way (left
modules).  For the star this puts the arrows at i -> i+1 and makes uniserial
composition series descend mod n.
"""

from __future__ import annotations

import heapq
from itertools import permutations, product


class BrauerTree:
    """Combinatorial Brauer tree of type (n, multiplicity).

    Attributes:
        vertices: tuple of vertex ids.
        edges: dict edge id -> (v, w) endpoint pair.
        cyclic_order: dict vertex id -> tuple of incident edge ids.
        exceptional: the exceptional vertex id.
        multiplicity: integer k >= 1 attached to the exceptional vertex.
    """

    def __init__(self, vertices, edges, cyclic_order, exceptional, multiplicity):
        self.vertices = tuple(vertices)
        self.edges = {e: tuple(ends) for e, ends in dict(edges).items()}
        self.cyclic_order = {v: tuple(c) for v, c in dict(cyclic_order).items()}
        self.exceptional = exceptional
        self.multiplicity = int(multiplicity)
        self._validate()
        self._succ = {
            (v, e): order[(i + 1) % len(order)]
            for v, order in self.cyclic_order.items()
            for i, e in enumerate(order)
        }

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def star(n: int, multiplicity: int) -> "BrauerTree":
        """Star with edges 1..n around the exceptional center 0."""
        if n < 1:
            raise ValueError("a star needs at least one edge")
        vertices = [0] + [-i for i in range(1, n + 1)]
        edges = {i: (0, -i) for i in range(1, n + 1)}
        cyclic = {0: tuple(range(1, n + 1))}
        cyclic.update({-i: (i,) for i in range(1, n + 1)})
        return BrauerTree(vertices, edges, cyclic, 0, multiplicity)

    # -- validation ------------------------------------------------------------

    def _validate(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if not self.edges:
            raise ValueError("tree must have at least one edge")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count must be vertex count minus one")
        if self.exceptional not in self.vertices:
            raise ValueError(f"exceptional vertex {self.exceptional} unknown")
        try:
            sorted(self.edges)
        except TypeError:
            raise ValueError("edge ids cannot be ordered") from None
        incident = {v: [] for v in self.vertices}
        for e, (v, w) in self.edges.items():
            if v == w or v not in incident or w not in incident:
                raise ValueError(f"edge {e} has invalid endpoints {(v, w)}")
            incident[v].append(e)
            incident[w].append(e)
        for v in self.cyclic_order:
            if v not in incident:
                raise ValueError(f"cyclic order at unknown vertex {v}")
        for v in self.vertices:
            # a permutation of the incident edges; counting compares entries
            # by ==, so an entry that is no edge id is refused, not hashed
            order = self.cyclic_order.get(v, ())
            if len(order) != len(incident[v]) or any(order.count(e) != 1 for e in incident[v]):
                raise ValueError(
                    f"cyclic order at vertex {v} does not match its incident edges"
                )
        # connectivity
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for e in incident[v]:
                w = self.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("graph is not connected")

    # -- basic accessors --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.edges)

    def edge_ids(self):
        return sorted(self.edges)

    def other_end(self, edge, v):
        a, b = self.edges[edge]
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} is not an endpoint of edge {edge}")

    def degree(self, v) -> int:
        return len(self.cyclic_order[v])

    def vertex_multiplicity(self, v) -> int:
        return self.multiplicity if v == self.exceptional else 1

    def winding_bound(self, v) -> int:
        """Length of the full winding around v (multiplicity times degree)."""
        return self.vertex_multiplicity(v) * self.degree(v)

    def cartan_matrix(self) -> list[list[int]]:
        """dim e_i A e_j of the tree's algebra, rows and columns in
        edge_ids() order: the multiplicities of the vertices the two edges
        share, so m(v) + m(w) on the diagonal, m(v) for edges meeting at v
        and 0 for disjoint edges."""
        ends = {e: set(vw) for e, vw in self.edges.items()}
        ids = self.edge_ids()
        return [
            [sum(self.vertex_multiplicity(v) for v in ends[e] & ends[f]) for f in ids]
            for e in ids
        ]

    def succ(self, v, edge):
        """Next edge after `edge` in the cyclic order at v (arrow direction)."""
        return self._succ[(v, edge)]

    def is_star(self) -> bool:
        return self.degree(self.exceptional) == self.n

    # -- isomorphism -------------------------------------------------------------

    def canonical_key(self):
        """Canonical form; equal keys mean isomorphic trees with matching
        cyclic orders, and with matching exceptional vertex when the
        multiplicity is at least 2, where the mark changes the algebra.

        The key is the least code over the roots and the rotations at the
        root; the code of the subtree entered through edge e at vertex v
        lists its children in cyclic order after e, and is computed once
        per call.
        """
        marked = {self.exceptional} if self.multiplicity >= 2 else set()
        memo = {}

        def code(v, in_edge):
            c = memo.get((in_edge, v))
            if c is None:
                order = self.cyclic_order[v]
                i = order.index(in_edge)
                c = (int(v in marked),) + tuple(
                    code(self.other_end(e, v), e) for e in order[i + 1 :] + order[:i]
                )
                memo[(in_edge, v)] = c
            return c

        def root_code(v):
            children = tuple(code(self.other_end(e, v), e) for e in self.cyclic_order[v])
            flag = (int(v in marked),)
            return min(flag + children[i:] + children[:i] for i in range(len(children)))

        key = min(root_code(v) for v in self.vertices)
        return (self.n, self.multiplicity, key)

    def is_isomorphic_to(self, other: "BrauerTree") -> bool:
        return self.canonical_key() == other.canonical_key()


def _labeled_trees(num_vertices: int):
    """All labeled trees on vertices 0..num_vertices-1 as edge lists, in
    the order of their Prufer sequences."""
    if num_vertices == 1:
        return
    if num_vertices == 2:
        yield [(0, 1)]
        return
    for seq in product(range(num_vertices), repeat=num_vertices - 2):
        deg = [1] * num_vertices
        for v in seq:
            deg[v] += 1
        ptr = [v for v in range(num_vertices) if deg[v] == 1]
        heapq.heapify(ptr)
        edges = []
        for v in seq:
            leaf = heapq.heappop(ptr)
            edges.append((leaf, v))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(ptr, v)
        u = heapq.heappop(ptr)
        w = heapq.heappop(ptr)
        edges.append((u, w))
        yield edges


def _shape_code(adj) -> tuple:
    """Code of the unlabeled tree with adjacency lists `adj`: the least AHU
    code (sorted tuple of the children's codes) over the one or two centers,
    found by stripping leaves."""

    def ahu(v, parent):
        return tuple(sorted(ahu(w, v) for w in adj[v] if w != parent))

    deg = [len(ws) for ws in adj]
    layer = [v for v, d in enumerate(deg) if d == 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        inner = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    inner.append(w)
        layer = inner
    return min(ahu(v, None) for v in layer)


def _shape_count(num_vertices: int) -> int:
    """Number of unlabeled trees on num_vertices vertices (OEIS A000055):
    every shape grows from the single vertex one leaf at a time, so the
    shapes of each size are those of the size before with one leaf added
    anywhere, deduplicated by `_shape_code`."""
    shapes = [[[]]]
    for size in range(1, num_vertices):
        grown = {}
        for adj in shapes:
            for v in range(size):
                bigger = [ws + [size] if w == v else ws for w, ws in enumerate(adj)] + [[v]]
                grown.setdefault(_shape_code(bigger), bigger)
        shapes = list(grown.values())
    return len(shapes)


def all_brauer_trees(n: int, multiplicity: int) -> list[BrauerTree]:
    """Representatives of every isomorphism class of Brauer trees with n
    edges and the given multiplicity (shape, cyclic orders and, for
    multiplicity >= 2, exceptional placement all vary), sorted by key.

    At multiplicity 1 these are the trees of `_planar_trees`.  At
    multiplicity >= 2 each of those is marked at each of its vertices in
    vertex order, and each class keeps the first marked tree.  A sweep
    that also ran over the exceptional vertex would meet the class of a
    planar tree P marked at v first at the multiplicity-1 representative
    of P, at its least vertex marking it into that class, so the
    representatives are again those of the full sweep.
    """
    if n < 1 or multiplicity < 1:
        raise ValueError("a census needs n >= 1 edges and multiplicity >= 1")
    if multiplicity == 1:
        return _planar_trees(n)
    seen = {}
    for tree in _planar_trees(n):
        for v in tree.vertices:
            marked = BrauerTree(tree.vertices, tree.edges, tree.cyclic_order, v, multiplicity)
            seen.setdefault(marked.canonical_key(), marked)
    return [seen[k] for k in sorted(seen)]


def _planar_trees(n: int) -> list[BrauerTree]:
    """The multiplicity-1 Brauer trees with n edges, one per class and
    sorted by key, all with exceptional vertex 0, since the key ignores
    the mark there.

    The sweep runs over the labeled trees on vertices 0..n in Prufer order
    (edge i is the i-th edge of the decoding), then over the cyclic orders
    at each vertex (first incident edge fixed, the others permuted); each
    class is represented by the first tree the sweep meets in it.  Work
    that cannot meet a class first is skipped, so the representatives are
    those of the full sweep:
    - a labeled tree whose shape appeared earlier in the sweep, since an
      isomorphism onto the earlier tree carries each of its cyclic orders
      onto one already met there;
    - every labeled tree after the one that brings the count of shapes met
      up to the number of unlabeled trees on n + 1 vertices, since each
      later tree has a shape met earlier and falls under the first rule.
    """
    total = _shape_count(n + 1)
    shapes = set()
    seen = {}
    for edge_list in _labeled_trees(n + 1):
        adj = [[] for _ in range(n + 1)]
        incident = [[] for _ in range(n + 1)]
        for e, (a, b) in enumerate(edge_list):
            adj[a].append(b)
            adj[b].append(a)
            incident[a].append(e)
            incident[b].append(e)
        shape = _shape_code(adj)
        if shape in shapes:
            continue
        shapes.add(shape)
        edges = dict(enumerate(edge_list))
        # one cyclic order per vertex: fix the first incident edge, permute the rest
        per_vertex = [
            [(inc[0],) + p for p in permutations(inc[1:])] if len(inc) > 2 else [tuple(inc)]
            for inc in incident
        ]
        for orders in product(*per_vertex):
            tree = BrauerTree(range(n + 1), edges, dict(enumerate(orders)), 0, 1)
            seen.setdefault(tree.canonical_key(), tree)
        if len(shapes) == total:
            break
    return [seen[k] for k in sorted(seen)]
