"""Simple undirected graphs with dense integer ids, plus block decomposition.

Vertices are 0..n-1 and edges are 0..m-1 in insertion order.  Self loops and
parallel edges are rejected at construction time; every algorithm in this
package relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphError(ValueError):
    """Base class for graph construction errors."""


class SelfLoopError(GraphError):
    def __init__(self, u: int) -> None:
        super().__init__(f"self loop at vertex {u}")
        self.vertex = u


class ParallelEdgeError(GraphError):
    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"duplicate edge ({u}, {v})")
        self.endpoints = (u, v)


class VertexOutOfRangeError(GraphError):
    def __init__(self, u: int, n: int) -> None:
        super().__init__(f"vertex {u} outside range 0..{n - 1}")
        self.vertex = u


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    ``edges[e]`` is the pair (u, v) with u < v.  ``incidence[v]`` lists the
    ids of edges incident to v, in increasing edge-id order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    incidence: tuple[tuple[int, ...], ...]
    _edge_index: dict[tuple[int, int], int] = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge id joining u and v, or None if they are not adjacent."""
        if u > v:
            u, v = v, u
        return self._edge_index.get((u, v))

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        return w if v == u else u

    def neighbors(self, v: int) -> list[int]:
        return [self.other_end(e, v) for e in self.incidence[v]]

    def adjacent_edges(self, e: int, f: int) -> bool:
        """True if edges e and f share an endpoint."""
        a, b = self.edges[e]
        c, d = self.edges[f]
        return a == c or a == d or b == c or b == d


def build_graph(n: int, edge_list: list[tuple[int, int]]) -> Graph:
    """Construct a Graph, validating every endpoint and edge.

    Edge ids follow the order of ``edge_list``; each stored pair is
    normalized to (min, max).
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edges: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    inc: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n):
            raise VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError(u)
        if u > v:
            u, v = v, u
        if (u, v) in index:
            raise ParallelEdgeError(u, v)
        e = len(edges)
        index[(u, v)] = e
        edges.append((u, v))
        inc[u].append(e)
        inc[v].append(e)
    return Graph(
        n=n,
        edges=tuple(edges),
        incidence=tuple(tuple(lst) for lst in inc),
        _edge_index=index,
    )


# ---------------------------------------------------------------------------
# Biconnected components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One biconnected component, re-indexed as a standalone graph.

    ``vertex_map[i]`` / ``edge_map[j]`` give the original ids of local
    vertex i / local edge j.  Local ids are assigned in increasing order of
    the original ids, so the mapping is deterministic.
    """

    graph: Graph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: tuple[int, ...]
    # (block index, original cut-vertex id) incidence pairs of the block tree.
    block_tree: tuple[tuple[int, int], ...]


def biconnected_components(g: Graph) -> BlockDecomposition:
    """Decompose g into blocks (maximal biconnected subgraphs).

    Bridges become single-edge blocks.  Isolated vertices belong to no
    block.  Works on disconnected graphs; the block tree is then a forest.
    Blocks are ordered by their smallest original edge id.  A block that
    holds every vertex and edge of g has g itself as its graph.
    """
    n = g.n
    visited = [False] * n
    depth = [0] * n
    low = [0] * n
    parent_edge = [-1] * n
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []

    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        # Iterative DFS; each stack frame is (vertex, incidence position).
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(g.incidence[v]):
                stack[-1] = (v, i + 1)
                e = g.incidence[v][i]
                if e == parent_edge[v]:
                    continue
                w = g.other_end(e, v)
                if not visited[w]:
                    visited[w] = True
                    depth[w] = depth[v] + 1
                    low[w] = depth[w]
                    parent_edge[w] = e
                    edge_stack.append(e)
                    stack.append((w, 0))
                elif depth[w] < depth[v]:
                    # Back edge to a proper ancestor.
                    edge_stack.append(e)
                    if depth[w] < low[v]:
                        low[v] = depth[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= depth[u]:
                        # u separates v's subtree: pop one block.
                        comp = []
                        while True:
                            e = edge_stack.pop()
                            comp.append(e)
                            if e == parent_edge[v]:
                                break
                        raw_blocks.append(comp)

    raw_blocks.sort(key=min)
    blocks: list[Block] = []
    for comp in raw_blocks:
        if len(comp) == g.m and all(g.incidence):  # g is biconnected
            blocks.append(Block(g, tuple(range(n)), tuple(range(g.m))))
            continue
        comp_sorted = sorted(comp)
        verts = sorted({u for e in comp_sorted for u in g.edges[e]})
        vmap = {u: i for i, u in enumerate(verts)}
        local_edges = [(vmap[g.edges[e][0]], vmap[g.edges[e][1]]) for e in comp_sorted]
        blocks.append(
            Block(
                graph=build_graph(len(verts), local_edges),
                vertex_map=tuple(verts),
                edge_map=tuple(comp_sorted),
            )
        )

    # a cut vertex is a vertex in two or more blocks
    membership = [0] * n
    for blk in blocks:
        for v in blk.vertex_map:
            membership[v] += 1
    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=tuple(v for v in range(n) if membership[v] > 1),
        block_tree=tuple(
            (bi, v)
            for bi, blk in enumerate(blocks)
            for v in blk.vertex_map
            if membership[v] > 1
        ),
    )
