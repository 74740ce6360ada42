"""Planarization, certificate realization, validation, and the text format."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import complete_graph, glue_at_vertex
from oneplanar.embedding import (
    AdjacentPairError,
    EdgeCrossedTwiceError,
    EmbeddingParseError,
    InvalidBlockEmbeddingError,
    NotPlanarRotationError,
    OnePlanarEmbedding,
    count_crossings,
    merge_blocks,
    parse_embedding,
    planarize,
    realize,
    serialize_embedding,
    validate,
)
from oneplanar.graph import Graph, biconnected_components, build_graph
from oneplanar.planarity import RotationSystem, rotation_edges
from oneplanar.planarity import test_planarity as check_planarity


def star_rotation(p) -> RotationSystem:
    lists = rotation_edges(p.star_graph.n, list(p.star_graph.edges))
    assert lists is not None
    return RotationSystem.from_lists(lists)


def k5_certificate() -> tuple[Graph, OnePlanarEmbedding]:
    g = complete_graph(5)
    p = planarize(g, [(0, 9)])
    return g, realize(p, star_rotation(p))


def two_edge_graph() -> Graph:
    return build_graph(4, [(0, 1), (2, 3)])


class TestPlanarize:
    def test_k5_star_structure(self):
        g = complete_graph(5)
        p = planarize(g, [(0, 9)])
        assert p.star_graph.n == 6 and p.star_graph.m == 12
        assert p.dummy_map == (((0, 9), (0, 1, 3, 4)),)
        # Uncrossed originals keep id order, then the four dummy halves.
        assert p.star_graph.edges[:8] == tuple(g.edges[e] for e in range(1, 9))
        assert p.star_graph.edges[8:] == ((0, 5), (1, 5), (3, 5), (4, 5))
        assert p.edge_map == (1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 9, 9)

    def test_pair_order_normalized(self):
        g = complete_graph(5)
        assert planarize(g, [(9, 0)]) == planarize(g, [(0, 9)])

    def test_no_crossings_reproduces_graph(self):
        g = complete_graph(4)
        p = planarize(g, [])
        assert p.star_graph == g and p.dummy_map == ()
        assert p.edge_map == tuple(range(6))

    def test_edge_crossed_twice_rejected(self):
        with pytest.raises(EdgeCrossedTwiceError):
            planarize(complete_graph(5), [(0, 7), (0, 8)])

    def test_adjacent_pair_rejected(self):
        with pytest.raises(AdjacentPairError):
            planarize(complete_graph(5), [(0, 1)])

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError):
            planarize(complete_graph(5), [(0, 99)])


class TestRealize:
    def test_alternating_dummy_survives(self):
        g = two_edge_graph()
        p = planarize(g, [(0, 1)])
        # Star is a 4-ray star around the dummy; halves are edges 0..3 with
        # edge pattern (0, 0, 1, 1), so order 0,2,1,3 alternates.
        rs = RotationSystem.from_lists([[0], [1], [2], [3], [0, 2, 1, 3]])
        emb = realize(p, rs)
        assert emb.crossings == ((0, 1),)
        assert validate(g, emb)

    @pytest.mark.parametrize("dummy_row", [[0, 1, 2, 3], [0, 2, 3, 1]])
    def test_touching_dummy_is_removed(self, dummy_row):
        # Blocked or touching patterns (0 0 1 1 / 0 1 1 0) are not
        # transversal crossings; the dummy is dissolved in place.
        g = two_edge_graph()
        p = planarize(g, [(0, 1)])
        rs = RotationSystem.from_lists([[0], [1], [2], [3], dummy_row])
        emb = realize(p, rs)
        assert emb.crossings == ()
        assert emb.planarization.star_graph == g
        assert validate(g, emb)

    def test_nonplanar_rotation_rejected(self):
        g = complete_graph(4)
        p = planarize(g, [])
        bad = RotationSystem.from_lists([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 5, 4]])
        with pytest.raises(NotPlanarRotationError):
            realize(p, bad)

    def test_plain_planar_certificate(self):
        g = complete_graph(4)
        emb = realize(planarize(g, []), check_planarity(g).rotation)
        assert emb.crossings == () and count_crossings(emb) == 0
        assert validate(g, emb)

    def test_k5_certificate(self):
        g, emb = k5_certificate()
        assert emb.crossings == ((0, 9),)
        assert validate(g, emb)


class TestValidate:
    def test_rejects_wrong_base_graph(self):
        _, emb = k5_certificate()
        assert not validate(complete_graph(4), emb)

    def test_rejects_tampered_crossings(self):
        g, emb = k5_certificate()
        assert not validate(g, dataclasses.replace(emb, crossings=((0, 8),)))

    def test_rejects_swapped_rotation_rows(self):
        g, emb = k5_certificate()
        order = list(emb.rotation.order)
        order[0], order[1] = order[1], order[0]
        bad = dataclasses.replace(emb, rotation=RotationSystem(tuple(order)))
        assert not validate(g, bad)

    def test_rejects_short_rotation(self):
        g, emb = k5_certificate()
        bad = dataclasses.replace(
            emb, rotation=RotationSystem(emb.rotation.order[:-1])
        )
        assert not validate(g, bad)

    def test_rejects_nonalternating_dummy_claimed_as_crossing(self):
        g = two_edge_graph()
        p = planarize(g, [(0, 1)])
        rs = RotationSystem.from_lists([[0], [1], [2], [3], [0, 1, 2, 3]])
        fake = OnePlanarEmbedding(planarization=p, rotation=rs, crossings=((0, 1),))
        assert not validate(g, fake)

    def test_rejects_foreign_planarization(self):
        g, emb = k5_certificate()
        other = planarize(g, [(0, 8)])
        fake = OnePlanarEmbedding(
            planarization=other, rotation=emb.rotation, crossings=emb.crossings
        )
        assert not validate(g, fake)


class TestMergeBlocks:
    def test_two_k5_blocks(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        dec = biconnected_components(g)
        assert len(dec.blocks) == 2
        embs = []
        for block in dec.blocks:
            p = planarize(block.graph, [(0, 9)])
            embs.append(realize(p, star_rotation(p)))
        merged = merge_blocks(g, dec, embs)
        assert count_crossings(merged) == 2
        assert validate(g, merged)
        # The cut vertex carries darts of both blocks in one rotation row.
        assert len(merged.rotation.order[0]) == 8

    def test_bridge_and_triangle(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        dec = biconnected_components(g)
        embs = [
            realize(planarize(b.graph, []), check_planarity(b.graph).rotation)
            for b in dec.blocks
        ]
        merged = merge_blocks(g, dec, embs)
        assert count_crossings(merged) == 0
        assert validate(g, merged)

    def test_wrong_count_rejected(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        dec = biconnected_components(g)
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, dec, [])

    def test_invalid_certificate_rejected(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        dec = biconnected_components(g)
        _, emb = k5_certificate()
        bad = dataclasses.replace(emb, crossings=((0, 8),))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, dec, [emb, bad])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda order: order[:-1],  # one row short: the translation misses
            lambda order: (order[0][::-1],) + order[1:],  # builds, fails validation
        ],
        ids=["row-short", "row-reversed"],
    )
    def test_mangled_rotation_rejected(self, mangle):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        dec = biconnected_components(g)
        _, emb = k5_certificate()
        bad = dataclasses.replace(emb, rotation=RotationSystem(mangle(emb.rotation.order)))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, dec, [emb, bad])

    @pytest.mark.parametrize("picks", [(1, 0), (0, 0), (1, 1)])
    def test_other_blocks_certificate_rejected(self, picks):
        # K5 and K4 blocks glued at a vertex; each gets a certificate that
        # belongs to a block of the other shape.
        g = glue_at_vertex(complete_graph(5), complete_graph(4))
        dec = biconnected_components(g)
        _, k5 = k5_certificate()
        k4 = realize(planarize(complete_graph(4), []), check_planarity(complete_graph(4)).rotation)
        good = [k5, k4]
        assert validate(g, merge_blocks(g, dec, good))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, dec, [good[i] for i in picks])


class TestTextFormat:
    def test_round_trip_with_crossing(self):
        g, emb = k5_certificate()
        text = serialize_embedding(emb)
        back = parse_embedding(text, g)
        assert back.crossings == emb.crossings
        assert back.rotation == emb.rotation
        assert serialize_embedding(back) == text
        assert validate(g, back)

    def test_round_trip_without_crossing(self):
        g = complete_graph(4)
        emb = realize(planarize(g, []), check_planarity(g).rotation)
        text = serialize_embedding(emb)
        assert parse_embedding(text, g).rotation == emb.rotation

    def test_sections_present(self):
        _, emb = k5_certificate()
        text = serialize_embedding(emb)
        assert "crossings:\n" in text
        assert "rotation:\n" in text
        assert "dummies:\nc0: 0 9\n" in text

    @pytest.mark.parametrize(
        "mangle,lineno",
        [
            (lambda t: t.replace("dummies:\n", "dummies\n"), 0),       # header lost
            (lambda t: "junk\n" + t, 1),                               # before header
            (lambda t: t + "crossings:\n", 12),                        # duplicate
            (lambda t: t.replace("0 9", "0 9 9", 1), 2),               # arity
            (lambda t: t.replace("0 9", "0 x", 1), 2),                 # not an int
            (lambda t: t.replace("c0: 0 9", "c0: 0 8"), 11),           # wrong pair
            (lambda t: t.replace("c0: 0 9", "c1: 0 9"), 11),           # wrong id
            (lambda t: t.replace("c0.0", "c0.7"), 4),                  # bad half
            (lambda t: t.replace("c0.0", "c9.0"), 4),                  # bad dummy
            (lambda t: t.replace("\n1:", "\n99:"), 5),                 # bad vertex
        ],
    )
    def test_parse_errors_carry_line_numbers(self, mangle, lineno):
        g, emb = k5_certificate()
        text = serialize_embedding(emb)
        with pytest.raises(EmbeddingParseError) as err:
            parse_embedding(mangle(text), g)
        assert err.value.lineno == lineno

    def test_parse_against_wrong_graph(self):
        g, emb = k5_certificate()
        with pytest.raises(EmbeddingParseError):
            parse_embedding(serialize_embedding(emb), complete_graph(4))

    def test_missing_vertex_row(self):
        g, emb = k5_certificate()
        lines = serialize_embedding(emb).splitlines()
        del lines[3]  # first rotation row
        with pytest.raises(EmbeddingParseError):
            parse_embedding("\n".join(lines) + "\n", g)
