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


def biconnected_components(g: Graph) -> tuple[Block, ...]:
    """The blocks (maximal biconnected subgraphs) of g.

    Bridges become single-edge blocks, isolated vertices belong to no
    block, and a cut vertex is a vertex of two or more blocks.  Blocks are
    ordered by their smallest original edge id.  A block that holds every
    vertex and edge of g has g itself as its graph.

    The DFS is one loop over flat per-vertex lists: it walks back up along
    ``parent_edge`` and resumes a vertex's incidence scan from ``rest``.  A
    tree edge records the edge-stack height below it in ``mark``, so the
    block it closes is the stack slice above that height.  Each block's
    graph is built straight from g's edges, which g's own
    :func:`build_graph` has checked; the local pairs keep (min, max) order
    because local ids follow original ids.
    """
    n, edges, incidence = g.n, g.edges, g.incidence
    depth = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    rest: list = [None] * n  # the rest of a vertex's incidence scan, past a tree edge
    mark = [0] * n  # edge-stack height when v's tree edge was pushed
    edge_stack: list[int] = []
    raw_blocks: list[list[int]] = []

    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        v, pe, dv, it = root, -1, 0, iter(incidence[root])
        while True:
            for e in it:
                if e == pe:
                    continue
                a, b = edges[e]
                w = b if a == v else a
                dw = depth[w]
                if dw == -1:  # tree edge: finish w first
                    depth[w] = low[w] = dv + 1
                    parent_edge[w] = e
                    mark[w] = len(edge_stack)
                    edge_stack.append(e)
                    rest[v] = it
                    v, pe, dv, it = w, e, dv + 1, iter(incidence[w])
                    break
                if dw < dv:  # back edge to a proper ancestor
                    edge_stack.append(e)
                    if dw < low[v]:
                        low[v] = dw
            else:  # v is done: back to its parent u along pe
                if pe == -1:
                    break
                a, b = edges[pe]
                u = b if a == v else a
                lv = low[v]
                if lv < low[u]:
                    low[u] = lv
                if lv >= dv - 1:  # u separates v's subtree: pop one block
                    k = mark[v]
                    raw_blocks.append(edge_stack[k:])
                    del edge_stack[k:]
                v, pe, dv, it = u, parent_edge[u], dv - 1, rest[u]

    raw_blocks.sort(key=min)
    blocks: list[Block] = []
    local = [0] * n  # local id of each vertex of the block being built
    for comp in raw_blocks:
        if len(comp) == g.m and all(incidence):  # g is biconnected
            blocks.append(Block(g, tuple(range(n)), tuple(range(g.m))))
            continue
        comp.sort()
        verts = sorted({u for e in comp for u in edges[e]})
        for i, u in enumerate(verts):
            local[u] = i
        local_edges = [(local[a], local[b]) for a, b in map(edges.__getitem__, comp)]
        inc_lists: list[list[int]] = [[] for _ in verts]
        for j, (a, b) in enumerate(local_edges):
            inc_lists[a].append(j)
            inc_lists[b].append(j)
        graph = Graph(
            n=len(verts),
            edges=tuple(local_edges),
            incidence=tuple(map(tuple, inc_lists)),
            _edge_index=dict(zip(local_edges, range(len(local_edges)))),
        )
        blocks.append(Block(graph, tuple(verts), tuple(comp)))

    return tuple(blocks)
