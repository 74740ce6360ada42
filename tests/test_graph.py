"""Graph container, validation, and biconnected decomposition."""

from __future__ import annotations

import random

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


class TestBiconnected:
    def test_single_block_cycle(self):
        dec = biconnected_components(cycle_graph(5))
        assert len(dec.blocks) == 1
        assert dec.cut_vertices == ()
        assert dec.blocks[0].graph.m == 5

    def test_path_splits_into_bridges(self):
        dec = biconnected_components(path_graph(4))
        assert len(dec.blocks) == 3
        assert all(b.graph.m == 1 for b in dec.blocks)
        assert dec.cut_vertices == (1, 2)

    def test_two_triangles_sharing_vertex(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        dec = biconnected_components(g)
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == (2,)
        # Blocks order follows the smallest original edge id they contain.
        assert dec.blocks[0].edge_map[0] == 0
        assert set(dec.blocks[1].edge_map) == {3, 4, 5}

    def test_block_maps_preserve_order(self):
        g = glue_at_vertex(complete_graph(4), complete_graph(4))
        dec = biconnected_components(g)
        assert len(dec.blocks) == 2
        for block in dec.blocks:
            assert list(block.vertex_map) == sorted(block.vertex_map)
            for local, (u, v) in enumerate(block.graph.edges):
                ou, ov = g.edges[block.edge_map[local]]
                assert (block.vertex_map[u], block.vertex_map[v]) == (ou, ov)

    def test_disconnected_and_isolated(self):
        g = build_graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
        dec = biconnected_components(g)
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == ()

    @pytest.mark.parametrize("g", [cycle_graph(5), complete_graph(5), grid_graph(4, 6)],
                             ids=["c5", "k5", "grid"])
    def test_biconnected_graph_is_its_own_block(self, g):
        dec = biconnected_components(g)
        assert len(dec.blocks) == 1 and dec.blocks[0].graph is g
        assert dec.blocks[0].vertex_map == tuple(range(g.n))
        assert dec.blocks[0].edge_map == tuple(range(g.m))

    def test_block_graph_is_not_g_with_an_isolated_vertex(self):
        g = build_graph(6, list(cycle_graph(5).edges))
        dec = biconnected_components(g)
        assert len(dec.blocks) == 1 and dec.blocks[0].graph is not g
        assert dec.blocks[0].graph == cycle_graph(5)

    def test_block_graph_is_not_g_with_two_blocks(self):
        g = glue_at_vertex(complete_graph(4), cycle_graph(4))
        dec = biconnected_components(g)
        assert len(dec.blocks) == 2 and all(b.graph is not g for b in dec.blocks)

    def test_block_tree_links(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        dec = biconnected_components(g)
        assert set(dec.block_tree) == {(0, 2), (1, 2)}

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
            dec = biconnected_components(g)
            got_blocks = {
                frozenset(frozenset(g.edges[orig]) for orig in b.edge_map)
                for b in dec.blocks
            }
            assert got_blocks == want_blocks
            cuts = set(nx.articulation_points(h))
            assert set(dec.cut_vertices) == cuts
            assert list(dec.cut_vertices) == sorted(dec.cut_vertices)
            assert set(dec.block_tree) == {
                (bi, v) for bi, b in enumerate(dec.blocks) for v in b.vertex_map if v in cuts
            }

    def test_edge_partition(self, rng: random.Random):
        for _ in range(60):
            g = random_connected_graph(rng.randrange(2, 10), rng.randrange(1, 14), rng)
            if g.m == 0:
                continue
            dec = biconnected_components(g)
            seen = sorted(orig for b in dec.blocks for orig in b.edge_map)
            assert seen == list(range(g.m))
