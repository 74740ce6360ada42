"""Shared graph builders and reference oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from oneplanar.embedding import OnePlanarEmbedding, merge_blocks
from oneplanar.graph import (
    Block,
    Graph,
    biconnected_components,
    build_graph,
)


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return build_graph(rows * cols, edges)


def wheel_graph(n: int) -> Graph:
    """Cycle on n vertices plus a hub joined to all of them."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return build_graph(n + 1, edges)


def petersen_graph() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return build_graph(10, edges)


def glue_at_vertex(g1: Graph, g2: Graph) -> Graph:
    """Identify vertex 0 of g2 with vertex 0 of g1; g1 edges keep their ids."""
    shift = g1.n - 1
    edges = list(g1.edges)
    for u, v in g2.edges:
        edges.append((u + shift if u else 0, v + shift if v else 0))
    return build_graph(g1.n + g2.n - 1, edges)


def chain_graph(parts: list[Graph]) -> Graph:
    """Graphs glued end to end: the last vertex of each is the first of the next."""
    edges: list[tuple[int, int]] = []
    n = 0
    for i, part in enumerate(parts):
        shift = n - 1 if i else 0
        edges += [(u + shift, v + shift) for u, v in part.edges]
        n = shift + part.n
    return build_graph(n, edges)


def one_block(g: Graph) -> tuple[Block]:
    """g as a single block with identity vertex and edge maps."""
    return (Block(graph=g, vertex_map=tuple(range(g.n)), edge_map=tuple(range(g.m))),)


def merge_one_block(g: Graph, cert: OnePlanarEmbedding) -> OnePlanarEmbedding:
    """The validated certificate `merge_blocks` builds from g's block certificate.

    Isolated vertices belong to no block, so an edgeless g merges no block.
    """
    if not g.m:
        return merge_blocks(g, biconnected_components(g), [])
    return merge_blocks(g, one_block(g), [cert])


def random_connected_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Random spanning tree plus extra edges, m total when n-1 <= m <= C(n,2)."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        u, v = verts[rng.randrange(i)], verts[i]
        edges.add((min(u, v), max(u, v)))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    for uv in pool:
        if len(edges) >= m:
            break
        edges.add(uv)
    return build_graph(n, sorted(edges))


def all_labeled_connected_graphs(max_n: int):
    """Every connected graph on vertex sets {0..n-1}, n <= max_n."""
    for n in range(1, max_n + 1):
        pool = list(itertools.combinations(range(n), 2))
        for r in range(len(pool) + 1):
            for chosen in itertools.combinations(pool, r):
                if _connected(n, chosen):
                    yield build_graph(n, list(chosen))


def _connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        u = todo.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
