"""Seeded inputs for the benchmark workloads.

Everything here is plain data made from the seed with ``random.Random``;
the package only ever sees the trees and orders generated here.
"""

from __future__ import annotations

import heapq
import random
from math import comb

# Tree-roundtrip: TREES_PER_SIZE random trees per (edges, multiplicity) in
# every pass.  The sizes are fixed so that every seed builds the same star
# algebras; the seed varies the shape, the cyclic orders and the exceptional
# vertex.  Round-trip cost varies by a factor of up to 2.5 between trees of
# one size, so the tail latency needs many distinct trees per run: each pass
# draws its own, and 16-edge trees, which made item_p95_ms depend on the one
# or two such trees a seed drew, are left out.
RANDOM_TREE_SIZES = tuple((n, 1 + (n - 8) % 3) for n in range(8, 13))
TREES_PER_SIZE = 4

# Tilting-oracle: the star whose coverings are decided one by one.
DIRECT_STAR = (6, 1)


def prufer_edges(seq, num_vertices):
    """Edge list of the labelled tree on 0..num_vertices-1 with this Prüfer
    sequence (length num_vertices - 2)."""
    degree = [1] * num_vertices
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(num_vertices) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree_spec(rng, n, multiplicity):
    """Keyword arguments of a BrauerTree with n edges: a random Prüfer
    sequence, a random cyclic order at each vertex and a random
    exceptional vertex."""
    num_vertices = n + 1
    seq = [rng.randrange(num_vertices) for _ in range(num_vertices - 2)]
    edges = dict(enumerate(prufer_edges(seq, num_vertices)))
    incident = {v: [] for v in range(num_vertices)}
    for e, (a, b) in edges.items():
        incident[a].append(e)
        incident[b].append(e)
    cyclic_order = {}
    for v, order in incident.items():
        rng.shuffle(order)
        cyclic_order[v] = tuple(order)
    return {
        "vertices": tuple(range(num_vertices)),
        "edges": edges,
        "cyclic_order": cyclic_order,
        "exceptional": rng.randrange(num_vertices),
        "multiplicity": multiplicity,
    }


def pass_rng(seed, index):
    """The random source of pass `index` of a run with this seed."""
    return random.Random(f"{seed}/{index}")


def random_tree_specs(rng):
    return [
        random_tree_spec(rng, n, k)
        for n, k in RANDOM_TREE_SIZES
        for _ in range(TREES_PER_SIZE)
    ]


def oracle_decisions(rng):
    """The order in which the coverings of the direct star are decided, and
    for each one a permutation of its summands: (covering index, perm)."""
    n = DIRECT_STAR[0]
    order = list(range(comb(2 * n, n) - 2))
    rng.shuffle(order)
    return [(i, rng.sample(range(n), n)) for i in order]
