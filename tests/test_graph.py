"""Graph container, validation, and biconnected decomposition."""

from __future__ import annotations

import random
from collections import Counter

import networkx as nx
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    glue_at_vertex,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from oneplanar.graph import (
    ParallelEdgeError,
    SelfLoopError,
    VertexOutOfRangeError,
    biconnected_components,
    build_graph,
)


class TestBuildGraph:
    def test_normalizes_endpoint_order(self):
        g = build_graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 2), (0, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(ParallelEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(0, 2)])
        with pytest.raises(VertexOutOfRangeError):
            build_graph(2, [(-1, 0)])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0


class TestAccessors:
    def test_degree_and_neighbors(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert g.degree(0) == 3
        assert g.degree(3) == 1
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert sorted(g.neighbors(2)) == [0, 1]

    def test_edge_between(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.edge_between(1, 0) == 0
        assert g.edge_between(1, 2) == 1
        assert g.edge_between(0, 2) is None

    def test_other_end(self):
        g = build_graph(3, [(0, 2)])
        assert g.other_end(0, 0) == 2
        assert g.other_end(0, 2) == 0

    def test_incidence_sorted(self):
        g = complete_graph(4)
        assert g.incidence[0] == (0, 1, 2)
        assert g.incidence[3] == (2, 4, 5)

    def test_adjacent_edges_predicate(self):
        g = complete_graph(4)
        assert g.adjacent_edges(0, 1)       # (0,1) and (0,2) share 0
        assert not g.adjacent_edges(0, 5)   # (0,1) and (2,3) are independent


def cut_vertices(blocks) -> tuple[int, ...]:
    """The vertices in two or more blocks, in increasing order."""
    count = Counter(v for b in blocks for v in b.vertex_map)
    return tuple(sorted(v for v, k in count.items() if k > 1))


def block_tree(blocks) -> set[tuple[int, int]]:
    """The (block index, cut vertex) links of the block tree."""
    cuts = set(cut_vertices(blocks))
    return {(bi, v) for bi, b in enumerate(blocks) for v in b.vertex_map if v in cuts}


class TestBiconnected:
    def test_single_block_cycle(self):
        blocks = biconnected_components(cycle_graph(5))
        assert len(blocks) == 1
        assert cut_vertices(blocks) == ()
        assert blocks[0].graph.m == 5

    def test_path_splits_into_bridges(self):
        blocks = biconnected_components(path_graph(4))
        assert len(blocks) == 3
        assert all(b.graph.m == 1 for b in blocks)
        assert cut_vertices(blocks) == (1, 2)

    def test_two_triangles_sharing_vertex(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        assert cut_vertices(blocks) == (2,)
        # Blocks order follows the smallest original edge id they contain.
        assert blocks[0].edge_map[0] == 0
        assert set(blocks[1].edge_map) == {3, 4, 5}

    def test_block_maps_preserve_order(self):
        g = glue_at_vertex(complete_graph(4), complete_graph(4))
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        for block in blocks:
            assert list(block.vertex_map) == sorted(block.vertex_map)
            for local, (u, v) in enumerate(block.graph.edges):
                ou, ov = g.edges[block.edge_map[local]]
                assert (block.vertex_map[u], block.vertex_map[v]) == (ou, ov)

    def test_disconnected_and_isolated(self):
        g = build_graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        assert cut_vertices(blocks) == ()

    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(5), grid_graph(4, 6)],
                             ids=["c5", "k5", "grid"])
    def test_biconnected_graph_is_its_own_block(self, g):
        blocks = biconnected_components(g)
        assert len(blocks) == 1 and blocks[0].graph is g
        assert blocks[0].vertex_map == tuple(range(g.n))
        assert blocks[0].edge_map == tuple(range(g.m))

    def test_block_graph_is_not_g_with_an_isolated_vertex(self):
        g = build_graph(6, list(cycle_graph(5).edges))
        blocks = biconnected_components(g)
        assert len(blocks) == 1 and blocks[0].graph is not g
        assert blocks[0].graph == cycle_graph(5)

    def test_block_graph_is_not_g_with_two_blocks(self):
        g = glue_at_vertex(complete_graph(4), cycle_graph(4))
        blocks = biconnected_components(g)
        assert len(blocks) == 2 and all(b.graph is not g for b in blocks)

    def test_block_tree_links(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        blocks = biconnected_components(g)
        assert set(block_tree(blocks)) == {(0, 2), (1, 2)}

    def test_matches_networkx_on_random_graphs(self, rng: random.Random):
        for _ in range(120):
            n = rng.randrange(2, 12)
            m = rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2) + 1)
            g = random_connected_graph(n, m, rng)
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.n))
            want_blocks = {
                frozenset(frozenset(e) for e in comp)
                for comp in nx.biconnected_component_edges(h)
            }
            blocks = biconnected_components(g)
            got_blocks = {
                frozenset(frozenset(g.edges[orig]) for orig in b.edge_map)
                for b in blocks
            }
            assert got_blocks == want_blocks
            cuts = set(nx.articulation_points(h))
            assert set(cut_vertices(blocks)) == cuts
            assert list(cut_vertices(blocks)) == sorted(cut_vertices(blocks))
            assert set(block_tree(blocks)) == {
                (bi, v) for bi, b in enumerate(blocks) for v in b.vertex_map if v in cuts
            }

    def test_edge_partition(self, rng: random.Random):
        for _ in range(60):
            g = random_connected_graph(rng.randrange(2, 10), rng.randrange(1, 14), rng)
            if g.m == 0:
                continue
            blocks = biconnected_components(g)
            seen = sorted(orig for b in blocks for orig in b.edge_map)
            assert seen == list(range(g.m))

    @staticmethod
    def assert_built_like_build_graph(g, blocks):
        for block in blocks:
            local = {v: i for i, v in enumerate(block.vertex_map)}
            local_edges = [tuple(local[v] for v in g.edges[e]) for e in block.edge_map]
            want = build_graph(len(block.vertex_map), local_edges)
            got = block.graph
            assert got.n == want.n
            assert got.edges == want.edges
            assert got.incidence == want.incidence
            for u in range(want.n):
                for v in range(want.n):
                    assert got.edge_between(u, v) == want.edge_between(u, v)

    def test_block_graphs_match_build_graph(self, rng: random.Random):
        for _ in range(80):
            # a few random parts, with bridges between some, plus isolated vertices
            edges, n = [], 0
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(2, 9)
                part = random_connected_graph(k, rng.randrange(k - 1, k * (k - 1) // 2 + 1), rng)
                if n and rng.random() < 0.5:
                    edges.append((rng.randrange(n), n + rng.randrange(k)))
                edges += [(u + n, v + n) for u, v in part.edges]
                n += k + rng.randrange(0, 2)
            rng.shuffle(edges)
            g = build_graph(n, edges)
            self.assert_built_like_build_graph(g, biconnected_components(g))

    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(5), grid_graph(4, 6)],
                             ids=["c5", "k5", "grid"])
    def test_own_block_matches_build_graph(self, g):
        blocks = biconnected_components(g)
        assert blocks[0].graph is g
        self.assert_built_like_build_graph(g, blocks)
