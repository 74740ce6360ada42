"""Star graphs, block merging, validation, and the text format."""

from __future__ import annotations

import dataclasses

import pytest

import oneplanar.embedding as embedding_module
from conftest import complete_graph, glue_at_vertex, merge_one_block
from oneplanar.embedding import (
    AdjacentPairError,
    EdgeCrossedTwiceError,
    EmbeddingParseError,
    InvalidBlockEmbeddingError,
    OnePlanarEmbedding,
    count_crossings,
    merge_blocks,
    parse_embedding,
    planarize,
    serialize_embedding,
    validate,
)
from oneplanar.graph import Graph, biconnected_components, build_graph
from oneplanar.planarity import RotationSystem, rotation_edges
from oneplanar.planarity import test_planarity as check_planarity


def star_rotation(star: Graph) -> RotationSystem:
    lists = rotation_edges(star.n, list(star.edges))
    assert lists is not None
    return RotationSystem.from_lists(lists)


def block_certificate(g: Graph, crossings) -> OnePlanarEmbedding:
    """g's certificate as a block: the crossings and an LR rotation of their star."""
    return OnePlanarEmbedding(g, tuple(crossings), star_rotation(planarize(g, crossings)))


def k5_certificate() -> tuple[Graph, OnePlanarEmbedding]:
    g = complete_graph(5)
    return g, merge_one_block(g, block_certificate(g, [(0, 9)]))


def two_edge_graph() -> Graph:
    return build_graph(4, [(0, 1), (2, 3)])


class TestPlanarize:
    def test_k5_star_structure(self):
        g = complete_graph(5)
        star = planarize(g, [(0, 9)])
        assert star.n == 6 and star.m == 12
        # Uncrossed originals keep id order, then the halves to the corners
        # 0, 1 of edge 0 and 3, 4 of edge 9.
        assert star.edges[:8] == tuple(g.edges[e] for e in range(1, 9))
        assert star.edges[8:] == ((0, 5), (1, 5), (3, 5), (4, 5))

    def test_pair_order_normalized(self):
        g = complete_graph(5)
        assert planarize(g, [(9, 0)]) == planarize(g, [(0, 9)])

    def test_no_crossings_reproduces_graph(self):
        g = complete_graph(4)
        star = planarize(g, [])
        assert star == g and star.edges == g.edges

    def test_no_crossings_builds_no_graph(self, monkeypatch):
        # the star graph of a crossing-free certificate is g itself
        def refuse(*args):
            raise AssertionError("built a graph")

        monkeypatch.setattr(embedding_module, "build_graph", refuse)
        g = complete_graph(4)
        assert planarize(g, ()) is g
        assert validate(g, OnePlanarEmbedding(g, (), star_rotation(g)))
        with pytest.raises(AssertionError, match="built a graph"):
            planarize(g, [(0, 5)])

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
    """A block certificate realized by `merge_blocks` on a one-block
    decomposition: each dummy kept or dissolved, the result validated."""

    def test_alternating_dummy_survives(self):
        g = two_edge_graph()
        # Star is a 4-ray star around the dummy; halves are edges 0..3 with
        # edge pattern (0, 0, 1, 1), so order 0,2,1,3 alternates.
        rs = RotationSystem.from_lists([[0], [1], [2], [3], [0, 2, 1, 3]])
        emb = merge_one_block(g, OnePlanarEmbedding(g, ((0, 1),), rs))
        assert emb.crossings == ((0, 1),)
        assert validate(g, emb)

    @pytest.mark.parametrize("dummy_row", [[0, 1, 2, 3], [0, 2, 3, 1]])
    def test_touching_dummy_is_removed(self, dummy_row):
        # Blocked or touching patterns (0 0 1 1 / 0 1 1 0) are not
        # transversal crossings; the dummy is dissolved in place.
        g = two_edge_graph()
        rs = RotationSystem.from_lists([[0], [1], [2], [3], dummy_row])
        emb = merge_one_block(g, OnePlanarEmbedding(g, ((0, 1),), rs))
        assert emb.crossings == ()
        assert planarize(g, emb.crossings) == g
        assert validate(g, emb)

    def test_nonplanar_rotation_rejected(self):
        g = complete_graph(4)
        bad = RotationSystem.from_lists([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 5, 4]])
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_one_block(g, OnePlanarEmbedding(g, (), bad))

    def test_plain_planar_certificate(self):
        g = complete_graph(4)
        emb = merge_one_block(g, OnePlanarEmbedding(g, (), check_planarity(g)))
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
        rs = RotationSystem.from_lists([[0], [1], [2], [3], [0, 1, 2, 3]])
        fake = OnePlanarEmbedding(g, ((0, 1),), rs)
        assert not validate(g, fake)

    def test_rejects_foreign_planarization(self):
        # the rotation of another crossing set's star, given with K5's pairs
        g, emb = k5_certificate()
        other = star_rotation(planarize(g, [(0, 8)]))
        assert validate(g, OnePlanarEmbedding(g, ((0, 8),), other))
        assert not validate(g, dataclasses.replace(emb, rotation=other))


class TestMergeBlocks:
    def test_two_k5_blocks(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        blocks = biconnected_components(g)
        assert len(blocks) == 2
        certs = [block_certificate(block.graph, [(0, 9)]) for block in blocks]
        merged = merge_blocks(g, blocks, certs)
        assert count_crossings(merged) == 2
        assert validate(g, merged)
        # The cut vertex carries darts of both blocks in one rotation row.
        assert len(merged.rotation.order[0]) == 8

    def test_bridge_and_triangle(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        blocks = biconnected_components(g)
        certs = [OnePlanarEmbedding(b.graph, (), check_planarity(b.graph)) for b in blocks]
        merged = merge_blocks(g, blocks, certs)
        assert count_crossings(merged) == 0
        assert validate(g, merged)

    def test_wrong_count_rejected(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        blocks = biconnected_components(g)
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, blocks, [])

    def test_invalid_certificate_rejected(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        blocks = biconnected_components(g)
        cert = block_certificate(complete_graph(5), [(0, 9)])
        bad = dataclasses.replace(cert, crossings=((0, 8),))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, blocks, [cert, bad])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda order: order[:-1],  # one row short: does not fit the star graph
            lambda order: order + ((),),  # one row too many: does not fit either
            lambda order: (order[0][::-1],) + order[1:],  # builds, fails validation
        ],
        ids=["row-short", "row-extra", "row-reversed"],
    )
    def test_mangled_rotation_rejected(self, mangle):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        blocks = biconnected_components(g)
        cert = block_certificate(complete_graph(5), [(0, 9)])
        bad = dataclasses.replace(cert, rotation=RotationSystem(mangle(cert.rotation.order)))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, blocks, [cert, bad])

    @pytest.mark.parametrize("picks", [(1, 0), (0, 0), (1, 1)])
    def test_other_blocks_certificate_rejected(self, picks):
        # K5 and K4 blocks glued at a vertex; each gets a certificate that
        # belongs to a block of the other shape.
        g = glue_at_vertex(complete_graph(5), complete_graph(4))
        blocks = biconnected_components(g)
        k5 = block_certificate(complete_graph(5), [(0, 9)])
        k4 = OnePlanarEmbedding(
            complete_graph(4), (), check_planarity(complete_graph(4))
        )
        good = [k5, k4]
        assert validate(g, merge_blocks(g, blocks, good))
        with pytest.raises(InvalidBlockEmbeddingError):
            merge_blocks(g, blocks, [good[i] for i in picks])

    def test_touching_block_glued_to_k5_is_unchanged(self):
        # A 4-cycle block whose one dummy only touches (edge pattern
        # 0 0 2 2), glued at a vertex to a K5 block with a real crossing.
        # The text was recorded from the earlier two-step build: each
        # block's certificate on its own first, then the merge.
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        # star edges: 0 = (1, 2), 1 = (0, 3), then the halves 2..5 to 0, 1, 2, 3
        touching = OnePlanarEmbedding(
            c4, ((0, 2),),
            RotationSystem.from_lists([[1, 2], [0, 3], [0, 4], [1, 5], [2, 3, 4, 5]]),
        )
        g = glue_at_vertex(c4, complete_graph(5))
        blocks = biconnected_components(g)
        merged = merge_blocks(g, blocks, [touching, block_certificate(complete_graph(5), [(0, 9)])])
        assert serialize_embedding(merged) == (
            "crossings:\n4 13\nrotation:\n0: 3 0 5 6 c0.0 7\n1: 1 0\n2: 1 2\n3: 3 2\n"
            "4: 8 10 c0.1 9\n5: 5 12 8 11\n6: 9 c0.2 6 11\n7: c0.3 10 12 7\n"
            "8: c0.2 c0.1 c0.3 c0.0\ndummies:\nc0: 4 13\n"
        )
        assert validate(g, merged)


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
        emb = merge_one_block(g, OnePlanarEmbedding(g, (), check_planarity(g)))
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

    # The outcome of each rotation token as the first row of K5's one-crossing
    # certificate (crossing edges 0 and 9, so star ids 0..7 are edges 1..8 and
    # 8..11 are c0.0..c0.3), recorded before the token table (the last eight
    # before the canonical-spelling fallback): the star id, or the error
    # message; every error is on line 4.
    K5_TOKENS = [
        ("1", 0), ("8", 7), ("c0.0", 8), ("c0.3", 11),
        ("007", 6), ("+3", 2), ("c00.1", 9), ("c0.01", 9), ("\u0663", 2),
        ("c0.\u0663", 11), ("c\u0660.1", 9), ("\uff11", 0), ("1_0", "unknown edge 10"),
        ("-1", "unknown edge -1"), ("c0.4", "bad dart 'c0.4'"), ("c1.0", "bad dart 'c1.0'"),
        ("0", "dart '0' not in star graph"), ("9", "dart '9' not in star graph"),
        ("-0", "dart '-0' not in star graph"), ("10", "unknown edge 10"),
        ("x", "bad dart 'x'"), ("c0.", "bad dart 'c0.'"), ("c.1", "bad dart 'c.1'"),
        ("C0.1", "bad dart 'C0.1'"), ("c0.1.2", "bad dart 'c0.1.2'"),
        ("c-0.1", "bad dart 'c-0.1'"), ("c+0.1", "bad dart 'c+0.1'"),
        ("0x1", "bad dart '0x1'"), ("c0.0x", "bad dart 'c0.0x'"), ("c0:1", "bad dart 'c0:1'"),
        ("+9", "dart '+9' not in star graph"), ("09", "dart '09' not in star graph"),
        ("0_9", "dart '0_9' not in star graph"), ("+08", 7), ("-3", "unknown edge -3"),
        ("c0.04", "bad dart 'c0.04'"), ("c00.4", "bad dart 'c00.4'"),
        ("c1.00", "bad dart 'c1.00'"),
    ]

    @pytest.mark.parametrize("tok,want", K5_TOKENS, ids=[ascii(t) for t, _ in K5_TOKENS])
    def test_rotation_tokens_as_recorded(self, tok, want):
        g, emb = k5_certificate()
        lines = serialize_embedding(emb).splitlines()
        assert lines[3].startswith("0:")
        lines[3] = f"0: {tok} 1"
        text = "\n".join(lines) + "\n"
        if isinstance(want, int):
            assert parse_embedding(text, g).rotation.order[0] == (want, 0)
        else:
            with pytest.raises(EmbeddingParseError) as err:
                parse_embedding(text, g)
            assert err.value.lineno == 4 and str(err.value) == f"line 4: {want}"

    @pytest.mark.parametrize("tok", ["c" + "1" * 5000 + ".0", "c0." + "0" * 5000, "1" * 5000])
    def test_overlong_tokens_are_bad_darts(self, tok):
        # int() refuses strings over 4300 digits; that is a parse error too
        g, emb = k5_certificate()
        lines = serialize_embedding(emb).splitlines()
        lines[3] = f"0: {tok} 1"
        with pytest.raises(EmbeddingParseError, match=r"^line 4: bad dart") as err:
            parse_embedding("\n".join(lines) + "\n", g)
        assert err.value.lineno == 4

    @pytest.mark.parametrize("tok,want", [("0", 0), ("5", 5), ("05", 5), ("6", "unknown edge 6"),
                                          ("c0.0", "bad dart 'c0.0'")])
    def test_rotation_tokens_without_crossings(self, tok, want):
        g = complete_graph(4)
        emb = merge_one_block(g, OnePlanarEmbedding(g, (), check_planarity(g)))
        lines = serialize_embedding(emb).splitlines()
        assert lines[2].startswith("0:")
        lines[2] = f"0: {tok}"
        text = "\n".join(lines) + "\n"
        if isinstance(want, int):
            assert parse_embedding(text, g).rotation.order[0] == (want,)
        else:
            with pytest.raises(EmbeddingParseError) as err:
                parse_embedding(text, g)
            assert err.value.lineno == 3 and str(err.value) == f"line 3: {want}"

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
