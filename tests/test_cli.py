"""File parsing, the block pipeline, the benchmark driver, and the CLI."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import multiprocessing
import os
import random
import re
import subprocess
import sys
from concurrent.futures import Future

import pytest

import oneplanar.cli as cli_module
import oneplanar.embedding as embedding_module
import oneplanar.graph as graph_module
import oneplanar.planarity as planarity_module
import oneplanar.search as search_module

from conftest import (
    chain_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    glue_at_vertex,
    grid_graph,
    petersen_graph,
    random_connected_graph,
)
from oneplanar.cli import (
    CSV_HEADER,
    InstanceRecord,
    ParseError,
    _parse_duration,
    _record_row,
    bench,
    main,
    parse_graph_file,
    run_pipeline,
)
from oneplanar.embedding import (
    count_crossings,
    parse_embedding,
    serialize_embedding,
    validate,
)
from oneplanar.graph import GraphError, build_graph
from oneplanar.search import SearchConfig
from reference import canonical_universe


def k7_without(*dropped):
    return build_graph(7, [e for e in complete_graph(7).edges if e not in dropped])


# graph and its verdict; K7 stops at the density gate, K7 - e and K7 - P3
# are decided by exhausting the full universe
_METAMORPHIC_BASES = {
    "K5": (complete_graph(5), "OnePlanar"),
    "K6": (complete_graph(6), "OnePlanar"),
    "K3,3": (complete_bipartite(3, 3), "OnePlanar"),
    "Petersen": (petersen_graph(), "OnePlanar"),
    "K7": (complete_graph(7), "NotOnePlanar"),
    "K7-e": (k7_without((0, 1)), "NotOnePlanar"),
    "K7-P3": (k7_without((0, 1), (1, 2)), "NotOnePlanar"),
    "K7-2match": (k7_without((0, 1), (2, 3)), "OnePlanar"),
}


def k7_then_k6():
    """K7 and K6 sharing vertex 0, K7 edges first so its block leads."""
    k7 = complete_graph(7)
    k6 = complete_graph(6)
    return glue_at_vertex(k7, k6)


class TestEdgelistParsing:
    def test_basic(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a triangle\n0 1\n1 2\n\n0 2\n")
        g = parse_graph_file(str(f))
        assert g.n == 3 and g.edges == ((0, 1), (1, 2), (0, 2))

    def test_vertex_count_is_max_plus_one(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 5\n")
        assert parse_graph_file(str(f)).n == 6

    @pytest.mark.parametrize(
        "payload,lineno",
        [
            ("0 1\n2\n", 2),
            ("0 1 2\n", 1),
            ("0 one\n", 1),
            ("0 -1\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, payload, lineno):
        f = tmp_path / "bad.txt"
        f.write_text(payload)
        with pytest.raises(ParseError) as err:
            parse_graph_file(str(f))
        assert err.value.lineno == lineno
        assert str(f) in str(err.value)

    @pytest.mark.parametrize("payload", ["0 0\n", "0 1\n1 0\n"])
    def test_rejects_malformed_graphs(self, tmp_path, payload):
        f = tmp_path / "bad.txt"
        f.write_text(payload)
        with pytest.raises(GraphError):
            parse_graph_file(str(f))

    def test_comments_only_is_empty_graph(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# nothing here\n")
        g = parse_graph_file(str(f))
        assert g.n == 0 and g.m == 0


class TestGmlParsing:
    GOOD = """
    graph [
      comment "ignored"
      directed 0
      node [ id 10 label "a" ]
      node [ id 12 label "b" graphics [ x 3 y 4 ] ]
      node [ id 11 ]
      edge [ source 10 target 12 weight 2 ]
      edge [ source 12 target 11 ]
    ]
    """

    def test_ids_compact_in_sorted_order(self, tmp_path):
        f = tmp_path / "g.gml"
        f.write_text(self.GOOD)
        g = parse_graph_file(str(f))
        # ids 10,11,12 become 0,1,2
        assert g.n == 3 and g.edges == ((0, 2), (1, 2))

    def test_extension_selects_format(self, tmp_path):
        f = tmp_path / "g.gml"
        f.write_text(self.GOOD)
        assert parse_graph_file(str(f), fmt="auto").m == 2

    def test_leading_token_selects_format(self, tmp_path):
        f = tmp_path / "noext"
        f.write_text(self.GOOD)
        assert parse_graph_file(str(f)).m == 2

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ("graph [ node [ id 1 ] node [ id 1 ] ]", "duplicate"),
            ("graph [ node [ label \"x\" ] ]", "id"),
            ("graph [ edge [ source 0 target 1 ] ]", "unknown"),
            ("graph [ node [ id 0 ]", "end of file"),
            ("graph [ node [ id 0 ] edge [ source 0 ] ]", "target"),
        ],
    )
    def test_structural_errors(self, tmp_path, payload, fragment):
        f = tmp_path / "bad.gml"
        f.write_text(payload)
        with pytest.raises(ParseError) as err:
            parse_graph_file(str(f))
        assert fragment in str(err.value).lower()

    # ParseError.lineno of each case, as recorded before the one-pass tokenizer
    @pytest.mark.parametrize(
        "payload,lineno",
        [
            ("graph [ node [ id 1 ] node [ id 1 ] ]", 1),
            ("graph [ node [ label \"x\" ] ]", 1),
            ("graph [ edge [ source 0 target 1 ] ]", 1),
            ("graph [ node [ id 0 ]", 1),
            ("graph [ node [ id 0 ] edge [ source 0 ] ]", 1),
            ("graph [\n  node [ id 0 ]\n  node [ id 1 ]\n  edge [ source 0 target x1 ]\n]\n", 4),
            ("graph [\n  node [ id 0 ]\n  node [\n id 0 ]\n]\n", 3),
            ("graph [\n  node [ id 0 ] # c\n  edge [ source 0 target 5 ]\n]\n", 3),
            ("\n\ngraph\n node [ id 0 ]", 4),
            ("graph [\n node [ id 0 ]\n\n", 2),
        ],
    )
    def test_error_line_numbers(self, tmp_path, payload, lineno):
        f = tmp_path / "bad.gml"
        f.write_text(payload)
        with pytest.raises(ParseError) as err:
            parse_graph_file(str(f))
        assert err.value.lineno == lineno

    def test_hash_inside_quotes_is_not_a_comment(self, tmp_path):
        f = tmp_path / "g.gml"
        f.write_text(
            'graph [\n node [ id 1 label "#a" ]\n node [ id 2 ]\n node [ id 3 ]\n'
            " edge [ source 1 target 2 ]\n edge [ source 2 target 3 ]\n]\n"
        )
        g = parse_graph_file(str(f))
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_trailing_comment_is_ignored(self, tmp_path):
        f = tmp_path / "g.gml"
        f.write_text(
            "graph [ # a path\n node [ id 1 ] # first\n node [ id 2 label \"x\" ]#second\n"
            " node [ id 3 ]\n edge [ source 1 target 2 ] # edge [ source 1 target 3 ]\n"
            " edge [ source 2 target 3 ]\n] # end\n"
        )
        g = parse_graph_file(str(f))
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_explicit_format_overrides_extension(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] ]")
        assert parse_graph_file(str(f), fmt="gml").m == 1
        with pytest.raises(ParseError):
            parse_graph_file(str(f), fmt="edgelist")

    # igraph and yEd write top-level keys before the graph block
    IGRAPH = ('Creator "igraph"\nVersion 1\ngraph\n'
              "[ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] ]\n")

    def test_header_keys_before_graph(self, tmp_path):
        f = tmp_path / "g.gml"
        f.write_text(self.IGRAPH)
        g = parse_graph_file(str(f))
        assert g.n == 2 and g.edges == ((0, 1),)
        # without the extension too: a first token that is no vertex id
        # selects GML
        for name in ("igraph.txt", "noext"):
            f = tmp_path / name
            f.write_text("# written by igraph\n" + self.IGRAPH)
            assert parse_graph_file(str(f)) == g

    @pytest.mark.parametrize("payload,tok", [("Creator [ ] [ graph [ ] ]", "["),
                                             ('Creator "x" ] graph [ ]', "]")])
    def test_bracket_in_key_position(self, tmp_path, payload, tok):
        f = tmp_path / "bad.gml"
        f.write_text(payload)
        with pytest.raises(ParseError, match=rf"expected 'graph', got '\{tok}'"):
            parse_graph_file(str(f))

    def test_gml_format_on_an_edge_list(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        with pytest.raises(ParseError):
            parse_graph_file(str(f), fmt="gml")

    @pytest.mark.parametrize("fmt", ["xml", "GML", ""])
    def test_unknown_format_raises(self, tmp_path, fmt):
        # an edge list is not read under a format name it was not given
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        with pytest.raises(ValueError, match="format must be one of auto, edgelist, gml"):
            parse_graph_file(str(f), fmt=fmt)


class TestPipeline:
    def test_planar_multi_block(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        record, emb = run_pipeline(g, SearchConfig(), name="tri-bridge")
        assert record.verdict == "OnePlanar"
        assert record.blocks == 2 and record.crossings == 0
        assert record.backtracked is False
        assert validate(g, emb)

    def test_two_k6_blocks_sum_crossings(self):
        g = glue_at_vertex(complete_graph(6), complete_graph(6))
        record, emb = run_pipeline(g, SearchConfig())
        assert record.verdict == "OnePlanar"
        assert record.blocks == 2
        assert record.crossings == 6
        assert count_crossings(emb) == 6
        assert validate(g, emb)

    def test_negative_block_halts_early(self):
        record, emb = run_pipeline(k7_then_k6(), SearchConfig())
        assert record.verdict == "NotOnePlanar" and emb is None
        # The K7 block leads and dies at the density gate, so the K6
        # block is never searched at all.
        assert record.nodes == 0 and record.backtracked is False

    def test_unknown_from_expired_budget(self):
        # a budget of 1 ns has run out before the first block is searched
        g = glue_at_vertex(complete_graph(6), complete_graph(6))
        record, emb = run_pipeline(g, SearchConfig(time_budget=1e-9))
        assert record.verdict == "Unknown" and emb is None

    @pytest.mark.parametrize("name", sorted(_METAMORPHIC_BASES))
    def test_verdict_invariant_under_relabelling_reordering_and_pendant(self, name):
        g, want = _METAMORPHIC_BASES[name]
        rng = random.Random(name)
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        # sorted, so edge ids, pair order and the search move with the
        # labels; only a complete graph maps onto its own edge list
        relabelled = build_graph(g.n, sorted(tuple(sorted((perm[u], perm[v])))
                                             for u, v in g.edges))
        assert (relabelled.edges == g.edges) is (g.m == g.n * (g.n - 1) // 2)
        variants = {
            "relabelled": relabelled,
            "reordered": build_graph(g.n, shuffled),
            "pendant grid": glue_at_vertex(g, grid_graph(3, 3)),
            "pendant first": glue_at_vertex(cycle_graph(5), g),
        }
        cfg = SearchConfig(time_budget=60.0)
        assert run_pipeline(g, cfg)[0].verdict == want
        for label, h in variants.items():
            record, emb = run_pipeline(h, cfg)
            assert record.verdict == want, label
            assert (emb is not None) is (want == "OnePlanar"), label

    def test_record_density(self):
        record, _ = run_pipeline(complete_graph(5), SearchConfig())
        assert record.n == 5 and record.m == 10 and record.density == 2.0

    @pytest.mark.parametrize("name", ["K5/K3,3 chain", "grid 6x6"])
    def test_one_planarization_and_euler_check_per_certificate(self, name, monkeypatch):
        g = {
            "K5/K3,3 chain": chain_graph([complete_graph(5), complete_bipartite(3, 3)] * 2
                                         + [complete_graph(5)]),
            "grid 6x6": grid_graph(6, 6),
        }[name]
        calls = {"planarize": 0, "euler_check": 0}
        for attr, module in (("planarize", embedding_module), ("euler_check", planarity_module)):
            orig = getattr(module, attr)

            def counting(*args, _orig=orig, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _orig(*args, **kwargs)

            # every module that imported the name calls the wrapper too
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("oneplanar") and \
                        getattr(mod, attr, None) is orig:
                    monkeypatch.setattr(mod, attr, counting)
        record, emb = run_pipeline(g, SearchConfig())
        # the merged certificate is the only one built and checked
        assert calls == {"planarize": 1, "euler_check": 1}
        assert record.verdict == "OnePlanar" and validate(g, emb)
        assert record.blocks == (5 if name == "K5/K3,3 chain" else 1)

    @pytest.mark.parametrize("name", ["K5/K3,3 chain", "grid 6x6"])
    def test_one_star_graph_per_run_and_round_trip(self, name, monkeypatch):
        g = {
            "K5/K3,3 chain": chain_graph([complete_graph(5), complete_bipartite(3, 3)] * 2
                                         + [complete_graph(5)]),
            "grid 6x6": grid_graph(6, 6),
        }[name]
        calls = {"planarize": 0, "build_graph": 0}
        for attr, module in (("planarize", embedding_module), ("build_graph", graph_module)):
            orig = getattr(module, attr)

            def counting(*args, _orig=orig, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _orig(*args, **kwargs)

            # every module that imported the name calls the wrapper too
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("oneplanar") and \
                        getattr(mod, attr, None) is orig:
                    monkeypatch.setattr(mod, attr, counting)
        record, emb = run_pipeline(g, SearchConfig())
        text = serialize_embedding(emb)
        calls["build_graph"] = 0
        parsed = parse_embedding(text, g)
        # validate in run_pipeline builds the only star graph; the parser
        # reads darts through the star layout and builds no graph at all
        assert calls == {"planarize": 1, "build_graph": 0}
        assert parsed == emb and record.verdict == "OnePlanar"

    # Recorded before the certify path stopped building a block graph or a
    # star graph equal to g: the record of each input (time aside) and a
    # sha256 of its serialized certificate.  The chains' node and cut counts
    # were re-recorded when the skew pass became a loop, which decides each
    # K5 or K3,3 block with one try (100, 120 and 108 nodes and 20 cuts
    # before); their digests did not move.
    CERTIFY_PINS = {
        "chain-K5.txt": ((81, 200, 20, 20, 20, 0, 20),
                         "076b398f121173a449a5f41407dd47fb31abdf9eead6015c1cc71cbb54425f9c"),
        "chain-K33.gml": ((101, 180, 20, 20, 20, 0, 20),
                          "309f5decfd5ba785207eb6ca48e26df7db31c1b1b3d4ecd21c5aa85911709306"),
        "chain-mixed.txt": ((89, 192, 20, 20, 20, 0, 20),
                            "f1def3d8a4735c084fd2bf3b6f4083b004391e6132eda392a9b1ef1fee1aa2a7"),
        "grid16.gml": ((256, 480, 1, 0, 0, 0, 0),
                       "95e366d22c49508e337eb9e58189378746c4c6cf897fc3bfe4047cf7d5747e00"),
    }

    @pytest.mark.parametrize("name", sorted(CERTIFY_PINS))
    def test_certify_path_is_pinned(self, name, tmp_path):
        rng = random.Random(15)
        g = {
            "chain-K5.txt": lambda: chain_graph([complete_graph(5)] * 20),
            "chain-K33.gml": lambda: chain_graph([complete_bipartite(3, 3)] * 20),
            "chain-mixed.txt": lambda: chain_graph(
                [rng.choice((complete_graph(5), complete_bipartite(3, 3))) for _ in range(20)]),
            "grid16.gml": lambda: grid_graph(16, 16),
        }[name]()
        path = tmp_path / name
        if name.endswith(".gml"):  # node ids 1, 4, 7, ... map back to 0, 1, 2, ...
            parts = ["graph ["] + [f"node [ id {3 * v + 1} ]" for v in range(g.n)]
            parts += [f"edge [ source {3 * u + 1} target {3 * v + 1} ]" for u, v in g.edges]
            path.write_text("\n".join(parts + ["]"]) + "\n")
        else:
            path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        record, emb = run_pipeline(parse_graph_file(str(path)), SearchConfig(), name=name)
        (n, m, blocks, crossings, nodes, cuts, satur), digest = self.CERTIFY_PINS[name]
        assert dataclasses.replace(record, time_ms=0.0) == InstanceRecord(
            name, n=n, m=m, density=m / n, blocks=blocks, verdict="OnePlanar",
            crossings=crossings, backtracked=nodes > 0, nodes=nodes,
            cuts_nonplanar=cuts, sol_satur=satur,
        )
        assert hashlib.sha256(serialize_embedding(emb).encode()).hexdigest() == digest

    @staticmethod
    def certificate_digest() -> str:
        # No search certificate here has a dummy to dissolve; the hand-made
        # blocks in test_embedding cover that path.
        corpus = [
            ("K5", complete_graph(5)),
            ("K6", complete_graph(6)),
            ("K3,3", complete_bipartite(3, 3)),
            ("Petersen", petersen_graph()),
            ("K6+K5", glue_at_vertex(complete_graph(6), complete_graph(5))),
            ("chain20", chain_graph([complete_graph(5), complete_bipartite(3, 3)] * 10)),
            ("grid5x6", grid_graph(5, 6)),
        ]
        rng = random.Random(2024)
        corpus += [(f"rand{n}", random_connected_graph(n, 2 * n - 2, rng)) for n in range(8, 13)]
        digest = hashlib.sha256()
        for name, g in corpus:
            record, emb = run_pipeline(g, SearchConfig())
            digest.update(f"{name} {record.verdict}\n".encode())
            if emb is not None:
                digest.update(serialize_embedding(emb).encode())
        return digest.hexdigest()

    def test_certificates_match_recorded_digest(self):
        # Re-recorded with twin-orbit branching, which changes the
        # certificates of K6 and K6+K5 and of no other graph here, and
        # when the search came to visit the tree level by level, which
        # gives rand11 a drawing with 2 crossings instead of 3.
        assert self.certificate_digest() == (
            "a9a5e505f532b2deec03243315d31b6e0e9ce70482e881bd8a219d6a6d8597dd"
        )

    def test_canonical_certificates_match_recorded_digest(self, monkeypatch):
        # Recorded with the canonical search when every block built and
        # checked a certificate of its own before the merge; the single
        # merge gave the same bytes.  Re-recorded when the search came to
        # visit the tree level by level (rand11 as above).
        monkeypatch.setattr(search_module, "build_universe", canonical_universe)
        assert self.certificate_digest() == (
            "803a9581bf2bd72c9d5c724e8d2dc3b3204bd11c2aa20154aa4c1562f46c5a1c"
        )


def write_corpus(root) -> dict[str, str]:
    """A small standard instance directory; returns name -> path."""
    files = {}
    named = (
        ("k5.txt", complete_graph(5)),
        ("grid.txt", grid_graph(3, 4)),
        ("k7.txt", complete_graph(7)),
        ("petersen.txt", petersen_graph()),
    )
    for name, g in named:
        p = root / name
        p.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        files[name] = str(p)
    gml = root / "k4.gml"
    parts = ["graph ["]
    parts += [f"node [ id {v} ]" for v in range(4)]
    parts += [f"edge [ source {u} target {v} ]" for u, v in complete_graph(4).edges]
    gml.write_text(" ".join(parts + ["]"]))
    files["k4.gml"] = str(gml)
    return files


def strip_times(csv: str) -> str:
    out = []
    for line in csv.splitlines():
        if line.startswith("# n="):
            line = re.sub(r"mean_time_ms=\S+", "mean_time_ms=_", line)
        elif not line.startswith(("#", CSV_HEADER)):
            cols = line.split(",")
            cols[7] = "_"
            line = ",".join(cols)
        out.append(line)
    return "\n".join(out)


class TestBench:
    def test_csv_shape(self, tmp_path):
        write_corpus(tmp_path)
        result = bench([str(tmp_path)], SearchConfig())
        lines = result.csv.splitlines()
        assert lines[0] == CSV_HEADER
        rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert [r.split(",")[0] for r in rows] == [
            "grid.txt", "k4.gml", "k5.txt", "k7.txt", "petersen.txt"
        ]
        verdicts = {r.split(",")[0]: r.split(",")[5] for r in rows}
        assert verdicts == {
            "grid.txt": "OnePlanar",
            "k4.gml": "OnePlanar",
            "k5.txt": "OnePlanar",
            "k7.txt": "NotOnePlanar",
            "petersen.txt": "OnePlanar",
        }
        assert any(l.startswith("# summary") for l in lines)
        # grid (n=12) and petersen (n=10) land in the 10-20 bucket
        assert any(l.startswith("# n=10-20 files=2") for l in lines)

    def test_row_field_count_matches_header(self, tmp_path):
        write_corpus(tmp_path)
        result = bench([str(tmp_path)], SearchConfig())
        width = len(CSV_HEADER.split(","))
        for line in result.csv.splitlines():
            if line and not line.startswith("#"):
                assert len(line.split(",")) == width

    def test_malformed_file_becomes_error_row(self, tmp_path):
        (tmp_path / "bad.txt").write_text("0 zero\n")
        (tmp_path / "ok.txt").write_text("0 1\n")
        result = bench([str(tmp_path)], SearchConfig())
        by_name = {r.name: r for r in result.records}
        assert by_name["bad.txt"].verdict == "Error"
        assert by_name["bad.txt"].error
        assert by_name["ok.txt"].verdict == "OnePlanar"

    def test_skip_planar_drops_rows(self, tmp_path):
        write_corpus(tmp_path)
        result = bench([str(tmp_path)], SearchConfig(), skip_planar=True)
        names = [r.name for r in result.records]
        assert names == ["k5.txt", "k7.txt", "petersen.txt"]

    def test_skip_planar_runs_no_extra_planarity_test(self, tmp_path, monkeypatch):
        f = tmp_path / "k6.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(6).edges))
        runs = []
        lr = planarity_module._run

        def counting(*args, **kwargs):
            runs.append(args[0])
            return lr(*args, **kwargs)

        monkeypatch.setattr(planarity_module, "_run", counting)
        kept = bench([str(f)], SearchConfig(), skip_planar=True)
        skipping = len(runs)
        runs.clear()
        plain = bench([str(f)], SearchConfig())
        assert [(r.name, r.verdict) for r in kept.records] == [("k6.txt", "OnePlanar")]
        assert strip_times(kept.csv) == strip_times(plain.csv)
        assert skipping == len(runs) > 0

    def test_skip_planar_drops_planar_multi_block_and_edgeless(self, tmp_path):
        planar = glue_at_vertex(grid_graph(3, 3), complete_graph(4))
        (tmp_path / "planar.txt").write_text("".join(f"{u} {v}\n" for u, v in planar.edges))
        (tmp_path / "empty.txt").write_text("# no edges\n")
        (tmp_path / "isolated.gml").write_text("graph [ node [ id 0 ] node [ id 1 ] ]")
        (tmp_path / "k5.txt").write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        kept = bench([str(tmp_path)], SearchConfig(), skip_planar=True)
        assert [r.name for r in kept.records] == ["k5.txt"]
        every = bench([str(tmp_path)], SearchConfig())
        assert {r.name: r.blocks for r in every.records}["planar.txt"] > 1

    def test_skip_planar_merges_no_planar_certificate(self, tmp_path, monkeypatch):
        # a planar graph's row is dropped from its block results, before
        # any certificate is built; a row that stays is merged as before
        planar = glue_at_vertex(grid_graph(3, 3), complete_graph(4))
        (tmp_path / "planar.txt").write_text("".join(f"{u} {v}\n" for u, v in planar.edges))
        (tmp_path / "k6.txt").write_text("".join(f"{u} {v}\n" for u, v in complete_graph(6).edges))
        merged = []
        merge = cli_module.merge_blocks

        def counting(g, blocks, certificates):
            merged.append(g.n)
            return merge(g, blocks, certificates)

        monkeypatch.setattr(cli_module, "merge_blocks", counting)
        bench([str(tmp_path / "planar.txt")], SearchConfig(), skip_planar=True)
        assert merged == []
        kept = bench([str(tmp_path / "k6.txt")], SearchConfig(), skip_planar=True)
        assert merged == [6]
        assert [(r.name, r.crossings) for r in kept.records] == [("k6.txt", 3)]

    def test_package_import_leaves_process_pools_unloaded(self):
        # bench imports the pool modules when it starts workers; a plain
        # import of the package must not pay for multiprocessing
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        code = ("import sys, oneplanar; print(sorted(m for m in sys.modules "
                "if m in ('multiprocessing', 'concurrent.futures.process')))")
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_worker_counts_agree(self, tmp_path):
        write_corpus(tmp_path)
        one = bench([str(tmp_path)], SearchConfig(), workers=1)
        two = bench([str(tmp_path)], SearchConfig(), workers=2)
        assert strip_times(one.csv) == strip_times(two.csv)

    @pytest.mark.parametrize("workers", [0, -3, True, 2.0, "2"])
    def test_bad_worker_count_raises(self, workers, tmp_path):
        # bench is the one check of a worker count: it runs nothing here
        (tmp_path / "k4.txt").write_text("".join(f"{u} {v}\n" for u, v in complete_graph(4).edges))
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            bench([str(tmp_path)], SearchConfig(), workers=workers)

    def test_unknown_format_raises_before_any_file_is_read(self, tmp_path, monkeypatch):
        (tmp_path / "k4.txt").write_text("".join(f"{u} {v}\n" for u, v in complete_graph(4).edges))

        def no_read(*args):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli_module, "parse_graph_file", no_read)
        with pytest.raises(ValueError, match="format must be one of auto, edgelist, gml"):
            bench([str(tmp_path)], SearchConfig(), fmt="GML")

    def test_workers_capped_at_file_count(self, tmp_path, monkeypatch):
        # A fork pool starts all of its workers at the first submit, so a
        # pool wider than the batch forks idle processes.  The recording
        # fake runs every task here and starts none.
        for name, g in (("k4.txt", complete_graph(4)), ("k5.txt", complete_graph(5)),
                        ("c5.txt", cycle_graph(5))):
            (tmp_path / name).write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        many = bench([str(tmp_path)], SearchConfig(), workers=64)
        assert pools == [3]
        assert [r.name for r in many.records] == ["c5.txt", "k4.txt", "k5.txt"]
        one = bench([str(tmp_path / "k5.txt")], SearchConfig(), workers=64)
        assert pools == [3]
        assert [(r.name, r.verdict) for r in one.records] == [("k5.txt", "OnePlanar")]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched parser reaches the workers only through fork",
    )
    def test_dead_worker_becomes_error_row(self, tmp_path, monkeypatch):
        # A worker that dies outright (as on a signal or out of memory)
        # must cost its own row only, not the batch.
        write_corpus(tmp_path)
        (tmp_path / "crash.txt").write_text("0 1\n")
        parse = cli_module.parse_graph_file

        def dying(path, fmt="auto"):
            if os.path.basename(path) == "crash.txt":
                os._exit(3)
            return parse(path, fmt)

        monkeypatch.setattr(cli_module, "parse_graph_file", dying)
        result = bench([str(tmp_path)], SearchConfig(), workers=2)
        by_name = {r.name: r for r in result.records}
        assert by_name["crash.txt"].verdict == "Error"
        assert "worker died" in by_name["crash.txt"].error
        monkeypatch.setattr(cli_module, "parse_graph_file", parse)
        whole = bench([str(tmp_path)], SearchConfig(), workers=1)
        survivors = [r for r in result.records if r.name != "crash.txt"]
        assert [(r.name, r.verdict, r.nodes) for r in survivors] == [
            (r.name, r.verdict, r.nodes) for r in whole.records if r.name != "crash.txt"
        ]
        assert len(survivors) == 5

    def test_header_and_row_format(self):
        # the column contract as the README spells it out
        assert CSV_HEADER == (
            "name,n,m,density,blocks,verdict,crossings,time_ms,backtracked,"
            "nodes,cuts_dec,cuts_kec,cuts_nonplanar,sol_satur,sol_compl"
        )
        record = InstanceRecord(
            name="k6.txt", n=6, m=15, density=2.5, blocks=1, verdict="OnePlanar",
            crossings=3, time_ms=68.31, backtracked=True, nodes=898, cuts_dec=127,
            cuts_kec=246, cuts_nonplanar=58, sol_satur=1, sol_compl=0,
        )
        assert _record_row(record) == "k6.txt,6,15,2.500,1,OnePlanar,3,68.3,1,898,127,246,58,1,0"
        error = InstanceRecord(name="bad.txt", error="unreadable")
        assert _record_row(error) == "bad.txt,0,0,0.000,0,Error,,0.0,0,0,0,0,0,0,0"

    def test_summary_counts_every_record(self, tmp_path):
        write_corpus(tmp_path)
        (tmp_path / "bad.txt").write_text("0 zero\n")
        g = grid_graph(8, 8)
        (tmp_path / "grid8.txt").write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        result = bench([str(tmp_path)], SearchConfig())
        files = re.findall(r"^# n=\S+ files=(\d+) ", result.csv, re.MULTILINE)
        assert sum(map(int, files)) == len(result.records) == 7
        # k4, k5, k7 and the Error row (n=0) share the bucket below 10
        assert "# n=0-9 files=4 " in result.csv
        assert "# n=10-20 files=2 " in result.csv
        assert "# n=61-70 files=1 " in result.csv

    def test_explicit_file_list(self, tmp_path):
        files = write_corpus(tmp_path)
        result = bench([files["k5.txt"]], SearchConfig())
        assert [r.name for r in result.records] == ["k5.txt"]


class TestDurations:
    @pytest.mark.parametrize(
        "text,seconds",
        [("300", 300.0), ("45s", 45.0), ("5m", 300.0), ("3h", 10800.0), ("2.5m", 150.0)],
    )
    def test_accepted(self, text, seconds):
        assert _parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "s", "5x", "h3", "0", "0.0m"])
    def test_rejected(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_duration(text)


class TestMain:
    def test_check_positive(self, tmp_path, capsys):
        f = tmp_path / "k5.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "k5.txt: OnePlanar with 1 crossing(s)" in out
        assert "blocks=1" in out

    def test_check_negative_still_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "k7.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(7).edges))
        assert main(["check", str(f)]) == 0
        assert "NotOnePlanar" in capsys.readouterr().out

    def test_check_parse_error_exits_two(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("nope\n")
        assert main(["check", str(f)]) == 2
        assert "bad.txt" in capsys.readouterr().err

    def test_check_missing_file_exits_two(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.txt")]) == 2

    def test_emitted_embedding_parses_back(self, tmp_path):
        f = tmp_path / "k5.txt"
        g = complete_graph(5)
        f.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        out = tmp_path / "cert.txt"
        assert main(["check", str(f), "--emit-embedding", str(out)]) == 0
        emb = parse_embedding(out.read_text(), g)
        assert validate(g, emb)

    def test_unwritable_embedding_path_exits_two(self, tmp_path, capsys):
        # the run is done, so the verdict is printed before the error
        f = tmp_path / "k5.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        out = tmp_path / "absent" / "cert.txt"
        assert main(["check", str(f), "--emit-embedding", str(out)]) == 2
        captured = capsys.readouterr()
        assert "OnePlanar with 1 crossing(s)" in captured.out
        assert captured.err.startswith("error: ") and "cert.txt" in captured.err

    def test_check_oracle_flag(self, tmp_path, capsys):
        f = tmp_path / "k5.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        assert main(["check", str(f), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: OnePlanar (agrees)" in out

    def test_check_oracle_skipped_when_too_large(self, tmp_path, capsys):
        f = tmp_path / "k7.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(7).edges))
        assert main(["check", str(f), "--oracle"]) == 0
        assert "oracle: skipped" in capsys.readouterr().out

    def test_bench_writes_csv(self, tmp_path, capsys):
        write_corpus(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["bench", str(tmp_path), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_bench_unwritable_out_exits_two(self, tmp_path, capsys):
        files = write_corpus(tmp_path)
        out = tmp_path / "absent" / "report.csv"
        assert main(["bench", files["grid.txt"], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "report.csv" in captured.err

    def test_bench_stdout_default(self, tmp_path, capsys):
        files = write_corpus(tmp_path)
        assert main(["bench", files["grid.txt"]]) == 0
        assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER

    def test_flags_reach_search(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "k5.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        seen = []

        def recording(g, cfg, name="instance"):
            seen.append(cfg)
            return run_pipeline(g, cfg, name)

        monkeypatch.setattr(cli_module, "run_pipeline", recording)
        assert main(["check", str(f), "--timeout", "45s"]) == 0
        assert "OnePlanar" in capsys.readouterr().out
        assert main(["check", str(f)]) == 0
        assert seen == [SearchConfig(time_budget=45.0), SearchConfig()]

    @pytest.mark.parametrize("flags", [
        ["--completion-prob", "0.5"], ["--seed", "3"], ["--no-kite"], ["--no-skew"],
        ["--skew-size", "1"],
    ], ids=lambda flags: flags[0])
    def test_removed_flag_exits_two(self, flags, tmp_path, capsys):
        f = tmp_path / "k4.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(4).edges))
        with pytest.raises(SystemExit) as exc:
            main(["check", str(f)] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flags[0] in err

    def test_python_dash_m_runs_main(self, tmp_path):
        f = tmp_path / "k5.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(5).edges))
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "oneplanar", "check", str(f)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("k5.txt: OnePlanar with 1 crossing(s)")
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            # no longer flags, so any value is refused
            ["check", "--skew-size", "-1"],
            ["check", "--skew-size", "1.5"],
            ["check", "--completion-prob", "1.5"],
            ["check", "--completion-prob", "-0.1"],
            ["check", "--completion-prob", "nan"],
            ["check", "--timeout", "0"],
            ["bench", "--workers", "0"],
        ],
        ids=["skew-negative", "skew-not-integer", "prob-above-one", "prob-negative", "prob-nan",
             "timeout-zero", "workers-zero"],
    )
    def test_bad_flag_exits_two(self, flags, tmp_path, capsys):
        f = tmp_path / "k4.txt"
        f.write_text("".join(f"{u} {v}\n" for u, v in complete_graph(4).edges))
        with pytest.raises(SystemExit) as exc:
            main([flags[0], str(f)] + flags[1:])
        assert exc.value.code == 2
        assert flags[1] in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_bad_threads_env_exits_two(self, value, tmp_path, monkeypatch, capsys):
        write_corpus(tmp_path)
        monkeypatch.setenv("ONEPLANAR_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "ONEPLANAR_THREADS" in err and repr(value) in err
        with pytest.raises(ValueError, match="ONEPLANAR_THREADS"):
            bench([str(tmp_path)], SearchConfig())

    def test_workers_flag_overrides_bad_threads_env(self, tmp_path, monkeypatch, capsys):
        write_corpus(tmp_path)
        monkeypatch.setenv("ONEPLANAR_THREADS", "two")
        assert main(["bench", str(tmp_path), "--workers", "1"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_threads_env(self, tmp_path, monkeypatch, capsys):
        write_corpus(tmp_path)
        monkeypatch.setenv("ONEPLANAR_THREADS", "2")
        assert main(["bench", str(tmp_path)]) == 0
        env_csv = capsys.readouterr().out
        monkeypatch.delenv("ONEPLANAR_THREADS")
        assert main(["bench", str(tmp_path)]) == 0
        plain_csv = capsys.readouterr().out
        assert strip_times(env_csv) == strip_times(plain_csv)
