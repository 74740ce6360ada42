"""Acceptance gate: one test per shipping criterion, one printed line each.

Every test ends by printing ``PASS: ...`` or ``FAIL: ...`` straight to the
terminal (bypassing capture) so a full run reads as a checklist.  The
criteria exercise the public surface only: the block driver, the pipeline,
the benchmark CSV, and the certificate machinery.
"""

from __future__ import annotations

import itertools
import random
import re
import time

import pytest

import oneplanar.search as search_module
from conftest import (
    all_labeled_connected_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    glue_at_vertex,
    grid_graph,
    merge_one_block,
    path_graph,
    petersen_graph,
    random_connected_graph,
    wheel_graph,
)
from oneplanar.cli import bench, run_pipeline
from oneplanar.embedding import (
    count_crossings,
    parse_embedding,
    serialize_embedding,
    validate,
)
from oneplanar.graph import Graph, build_graph
from oneplanar.pairs import build_universe
from oneplanar.planarity import is_planar_edges
from oneplanar.search import (
    SearchConfig,
    SearchState,
    Verdict,
    oracle_is_one_planar,
)
from oneplanar.search import test_block as solve_block
from reference import (
    canonical_universe,
    crossed_edges,
    edge_mask,
    saturated_edges,
    without_kites,
)


def _report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {line}")
    assert ok, line


# Certificates produced along the way, revalidated wholesale later on.
COLLECTED: list[tuple[Graph, object]] = []


def _oracle_corpus() -> list[Graph]:
    """772 graphs on <= 5 vertices plus 200 seeded 6-8 vertex graphs."""
    graphs = list(all_labeled_connected_graphs(5))
    assert len(graphs) == 772
    rng = random.Random(0xACCE55)
    extra: list[Graph] = []
    while len(extra) < 200:
        n = rng.randrange(6, 9)
        m = rng.randrange(n + 1, min(n + 6, n * (n - 1) // 2 + 1))
        g = random_connected_graph(n, m, rng)
        if build_universe(g).k <= 16:
            extra.append(g)
    return graphs + extra


_CORPUS: list[Graph] | None = None


def oracle_corpus() -> list[Graph]:
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = _oracle_corpus()
    return _CORPUS


def test_dense_graphs_rejected_without_search(capsys):
    worst_ms = 0.0
    for n in (7, 8, 9):
        g = complete_graph(n)
        t0 = time.perf_counter()
        res = solve_block(g, SearchConfig())
        worst_ms = max(worst_ms, (time.perf_counter() - t0) * 1e3)
        assert res.verdict is Verdict.NOT_ONE_PLANAR
        assert res.stats.nodes_visited == 0
        assert res.stats.used_backtracking is False
    ok = worst_ms < 10.0
    _report(capsys, ok,
            f"K7/K8/K9 rejected by the edge-count bound with zero search "
            f"nodes, worst {worst_ms:.2f}ms")


# the search with and without its kite masks (without_kites) and with and
# without twin orbits (canonical_universe)
ORACLE_SEARCHES = list(itertools.product(("kites", "no kites"), ("orbits", "canonical")))


def _oracle_disagreements(graphs: list[Graph], max_k: int = 20) -> int:
    """Runs of ORACLE_SEARCHES whose verdict is Unknown or differs from
    the exhaustive oracle's; certificates go to COLLECTED."""
    disagreements = 0
    for g in graphs:
        want = oracle_is_one_planar(g, max_k)
        for kites, orbits in ORACLE_SEARCHES:
            with pytest.MonkeyPatch.context() as mp:
                if kites == "no kites":
                    without_kites(mp)
                if orbits == "canonical":
                    mp.setattr(search_module, "build_universe", canonical_universe)
                res = solve_block(g, SearchConfig())
            got = res.verdict
            if got is Verdict.UNKNOWN or (got is Verdict.ONE_PLANAR) != want:
                disagreements += 1
            elif res.certificate is not None:
                COLLECTED.append((g, merge_one_block(g, res.certificate)))
    return disagreements


def test_verdicts_match_exhaustive_oracle(capsys):
    t0 = time.perf_counter()
    graphs = oracle_corpus()
    disagreements = _oracle_disagreements(graphs)
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 300.0
    _report(capsys, ok,
            f"search agrees with exhaustive enumeration on {len(graphs)} "
            f"graphs x {len(ORACLE_SEARCHES)} searches "
            f"({len(graphs) * len(ORACLE_SEARCHES)} runs, "
            f"{disagreements} disagreements, {dt:.0f}s)")


def _k6_minus_at_most_two_edges() -> list[Graph]:
    """The 121 labelled graphs K6 - F with |F| <= 2: every one has more
    than 3n - 6 edges, so the capacity cut can fire in its search."""
    edges = complete_graph(6).edges
    graphs = [
        build_graph(6, [e for e in edges if e not in dropped])
        for size in (0, 1, 2)
        for dropped in itertools.combinations(edges, size)
    ]
    assert len(graphs) == 121
    return graphs


def test_verdicts_match_oracle_above_the_euler_bound(capsys):
    t0 = time.perf_counter()
    graphs = _k6_minus_at_most_two_edges()
    disagreements = _oracle_disagreements(graphs, max_k=45)
    dt = time.perf_counter() - t0
    ok = disagreements == 0
    _report(capsys, ok,
            f"search agrees with exhaustive enumeration on {len(graphs)} "
            f"graphs K6 minus at most 2 edges x {len(ORACLE_SEARCHES)} searches "
            f"({len(graphs) * len(ORACLE_SEARCHES)} runs, "
            f"{disagreements} disagreements, {dt:.0f}s)")


def test_every_positive_verdict_has_valid_certificate(capsys):
    # Standalone seed set so the check bites even run in isolation.
    for g in (complete_graph(5), complete_graph(6), complete_bipartite(3, 3),
              petersen_graph(), grid_graph(3, 4)):
        res = solve_block(g, SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        COLLECTED.append((g, merge_one_block(g, res.certificate)))
    failures = sum(0 if validate(g, emb) else 1 for g, emb in COLLECTED)
    # Serialization must preserve validity, for every certificate.
    for g, emb in COLLECTED:
        back = parse_embedding(serialize_embedding(emb), g)
        failures += 0 if validate(g, back) else 1
    ok = failures == 0 and len(COLLECTED) >= 5
    _report(capsys, ok,
            f"{len(COLLECTED)} certificates revalidated independently and "
            f"round-tripped through the text format, {failures} failures")


def test_classic_graphs(capsys):
    k5 = solve_block(complete_graph(5), SearchConfig())
    k6 = solve_block(complete_graph(6), SearchConfig())
    k33 = solve_block(complete_bipartite(3, 3), SearchConfig())
    assert k5.verdict is k6.verdict is k33.verdict is Verdict.ONE_PLANAR
    assert count_crossings(merge_one_block(complete_graph(5), k5.certificate)) == 1
    assert count_crossings(merge_one_block(complete_graph(6), k6.certificate)) == 3
    assert count_crossings(merge_one_block(complete_bipartite(3, 3), k33.certificate)) == 1
    planar_corpus = [
        path_graph(9), cycle_graph(12), grid_graph(4, 5), wheel_graph(8),
        complete_graph(4),
    ]
    for g in planar_corpus:
        res = solve_block(g, SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        emb = merge_one_block(g, res.certificate)
        assert count_crossings(emb) == 0
        assert res.stats.used_backtracking is False
        assert res.stats.nodes_visited == 0
        COLLECTED.append((g, emb))
    _report(capsys, True,
            "classics solved: K5=1 crossing, K6=3, K3,3=1; planar corpus "
            "embeds with zero crossings and zero search nodes")


def test_blocks_compose_and_first_negative_halts(capsys):
    twin = glue_at_vertex(complete_graph(6), complete_graph(6))
    record, emb = run_pipeline(twin, SearchConfig())
    assert record.verdict == "OnePlanar" and record.blocks == 2
    assert record.crossings == 6 and count_crossings(emb) == 6
    assert validate(twin, emb)
    COLLECTED.append((twin, emb))

    # K7's edges come first, so its block is searched first and the K6
    # block must never be touched.
    dead = glue_at_vertex(complete_graph(7), complete_graph(6))
    record2, emb2 = run_pipeline(dead, SearchConfig())
    assert record2.verdict == "NotOnePlanar" and emb2 is None
    assert record2.nodes == 0 and record2.backtracked is False
    _report(capsys, True,
            "two glued K6 blocks merge into one 6-crossing certificate; "
            "a dense leading block halts the pipeline with zero nodes")


def _valid_full_assignments(g: Graph, universe, limit: int) -> list[list[int]]:
    """Up to `limit` full assignments: <=1 crossing per edge, planar stars."""
    sols: list[list[int]] = []
    counts = [0] * g.m
    bits = [0] * universe.k

    def rec(i: int) -> None:
        if len(sols) >= limit:
            return
        if i == universe.k:
            chosen = [universe.pairs[j] for j in range(universe.k) if bits[j]]
            crossed = {e for pair in chosen for e in pair}
            n, edges = g.n, [g.edges[e] for e in range(g.m) if e not in crossed]
            for e, f in chosen:
                d, n = n, n + 1
                u1, v1 = g.edges[e]
                u2, v2 = g.edges[f]
                edges += [(u1, d), (v1, d), (u2, d), (v2, d)]
            if is_planar_edges(n, edges):
                sols.append(bits.copy())
            return
        rec(i + 1)
        e, f = universe.pairs[i]
        if not counts[e] and not counts[f] and len(sols) < limit:
            bits[i] = 1
            counts[e] = counts[f] = 1
            rec(i + 1)
            bits[i] = 0
            counts[e] = counts[f] = 0

    rec(0)
    return sols


def test_saturated_edges_never_change_status(capsys, monkeypatch):
    """Across >=1000 (prefix, edge, solution) triples, an edge saturated at
    the prefix is crossed in a full valid extension iff it is crossed in
    the prefix already.  The search state replaying each prefix refuses
    no push and saturates the same edges as the reference."""
    without_kites(monkeypatch)  # the reference saturates no kite edge here
    rng = random.Random(1009)
    triples = violations = mismatches = 0
    while triples < 1000:
        n = rng.randrange(5, 8)
        m = rng.randrange(n, min(n + 5, n * (n - 1) // 2 + 1))
        g = random_connected_graph(n, m, rng)
        u = build_universe(g)
        if not 0 < u.k <= 12:
            continue
        for bits in _valid_full_assignments(g, u, limit=3):
            full_crossed = crossed_edges(u, bits)
            for j in (u.k // 3, 2 * u.k // 3, u.k - 1):
                pref_crossed = crossed_edges(u, bits[:j])
                saturated = saturated_edges(u, bits[:j])
                for e in saturated:
                    triples += 1
                    if (e in pref_crossed) != (e in full_crossed):
                        violations += 1
                state = SearchState(g, u)
                pushed = all(state.push(bit) is None for bit in bits[:j])
                if not pushed or state.saturated() != edge_mask(saturated):
                    mismatches += 1
    ok = violations == mismatches == 0
    _report(capsys, ok,
            f"saturation is permanent across {triples} sampled triples, "
            f"{violations} violations, {mismatches} search-state mismatches")


def _strip_times(csv: str) -> str:
    out = []
    for line in csv.splitlines():
        if line.startswith("# n="):
            line = re.sub(r"mean_time_ms=\S+", "mean_time_ms=_", line)
        elif line and not line.startswith("#") and not line.startswith("name,"):
            cols = line.split(",")
            cols[7] = "_"
            line = ",".join(cols)
        out.append(line)
    return "\n".join(out)


def test_deterministic_output(capsys, tmp_path):
    for name, g in (
        ("k4.txt", complete_graph(4)),
        ("k5.txt", complete_graph(5)),
        ("k6.txt", complete_graph(6)),
        ("k7.txt", complete_graph(7)),
        ("petersen.txt", petersen_graph()),
        ("grid.txt", grid_graph(3, 4)),
    ):
        (tmp_path / name).write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    runs = [
        bench([str(tmp_path)], SearchConfig(), workers=1),
        bench([str(tmp_path)], SearchConfig(), workers=1),
        bench([str(tmp_path)], SearchConfig(), workers=2),
    ]
    csvs = {_strip_times(r.csv) for r in runs}
    g6 = complete_graph(6)
    texts = {
        serialize_embedding(run_pipeline(g6, SearchConfig())[1]) for _ in range(2)
    }
    ok = len(csvs) == 1 and len(texts) == 1
    _report(capsys, ok,
            "benchmark CSV is byte-identical (minus timings) across repeat "
            "runs and worker counts; serialized certificates repeat exactly")


@pytest.mark.slow
def test_scale_twenty_vertex_instances(capsys):
    rng = random.Random(20250814)
    graphs: list[Graph] = []
    while len(graphs) < 10:
        g = random_connected_graph(20, 30, rng)
        if not is_planar_edges(g.n, list(g.edges)):
            graphs.append(g)
    # a node bound, not a time bound: one depth-first pass of the search
    # tree takes up to 735,026 nodes on these; visited level by level in
    # the number of crossings, every instance is decided within 30,000
    budget = 300.0
    max_nodes = 30_000
    decided = 0
    worst = 0.0
    most = 0
    for g in graphs:
        t0 = time.perf_counter()
        record, emb = run_pipeline(g, SearchConfig(time_budget=budget))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        most = max(most, record.nodes)
        if record.verdict != "Unknown" and record.nodes <= max_nodes:
            decided += 1
            if emb is not None:
                assert validate(g, emb)
    ok = decided == 10
    _report(capsys, ok,
            f"{decided}/10 random nonplanar 20-vertex instances decided "
            f"within {max_nodes:,} nodes each (most {most:,} nodes, "
            f"slowest attempt {worst:.1f}s)")
