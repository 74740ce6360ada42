"""Node verification, backtracking search, skew restriction, block driver."""

from __future__ import annotations

import random
import time

import pytest

import oneplanar.search as search_module
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    glue_at_vertex,
    grid_graph,
    petersen_graph,
    random_connected_graph,
)
from oneplanar.embedding import count_crossings, serialize_embedding, validate
from oneplanar.graph import Graph, build_graph
from oneplanar.pairs import (
    PartialSolution,
    build_restricted_universe,
    build_universe,
    crossing_counts,
    saturated_edges,
)
from oneplanar.planarity import is_planar_edges
from oneplanar.search import (
    CutReason,
    NodeKind,
    SearchConfig,
    SearchState,
    SearchStats,
    SolutionKind,
    UniverseTooLargeError,
    Verdict,
    backtrack,
    find_kite_edges,
    find_skew_set,
    oracle_is_one_planar,
    verify_node,
)
from oneplanar.search import test_block as solve_block


def quiet_cfg(**kw) -> SearchConfig:
    """Deterministic config: completion only when explicitly enabled."""
    base = dict(completion_probability=0.0, rng_seed=0)
    base.update(kw)
    return SearchConfig(**base)


def prefix(universe, bits) -> PartialSolution:
    sol = PartialSolution.empty(universe)
    for b in bits:
        sol.push(b)
    return sol


class TestKites:
    def test_k4_single_crossing(self):
        g = complete_graph(4)
        assert find_kite_edges(g, [(0, 5)]) == {1, 2, 3, 4}

    def test_k5_crossing(self):
        # (0,1) x (3,4): the quadrilateral is (0,3),(0,4),(1,3),(1,4).
        g = complete_graph(5)
        assert find_kite_edges(g, [(0, 9)]) == {2, 3, 5, 6}

    def test_missing_quad_edges_not_invented(self):
        g = build_graph(4, [(0, 1), (2, 3), (0, 2)])
        assert find_kite_edges(g, [(0, 1)]) == {2}

    def test_union_over_crossings(self):
        g = complete_graph(5)
        both = find_kite_edges(g, [(0, 9), (4, 9)])
        assert both == {2, 3, 5, 6} | find_kite_edges(g, [(4, 9)])


class TestVerifyNode:
    def test_root_continues_without_completion(self):
        g = complete_graph(4)
        sol = prefix(build_universe(g), [])
        v = verify_node(sol, g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CNT

    def test_double_crossing_cut(self):
        g = complete_graph(5)
        sol = prefix(build_universe(g), [1, 1])  # (0,7) and (0,8) cross edge 0
        v = verify_node(sol, g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.DOUBLE_EDGE_CROSSING

    def test_kite_edge_cut(self):
        # Cross (0,1)x(3,4), then cross kite edge (0,3) with (2,4).
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1  # pair (0,9)
        bits[8] = 1  # pair (2,8)
        sol = prefix(build_universe(g), bits)
        v = verify_node(sol, g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.KITE_EDGE_CROSSING

    def test_kite_cut_needs_kite_pruning(self):
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1
        bits[8] = 1
        sol = prefix(build_universe(g), bits)
        cfg = quiet_cfg(enable_kite_pruning=False)
        v = verify_node(sol, g, cfg, random.Random(0))
        assert v.cut_reason is not CutReason.KITE_EDGE_CROSSING

    def test_saturated_nonplanar_cut(self):
        g = complete_graph(5)
        u = build_universe(g)
        sol = prefix(u, [0] * u.k)  # no crossings at all: K5 itself
        v = verify_node(sol, g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.NONPLANAR_INDUCED

    def test_full_assignment_solution_by_saturation(self):
        g = complete_graph(5)
        u = build_universe(g)
        bits = [0] * u.k
        bits[2] = 1  # only (0,9)
        v = verify_node(prefix(u, bits), g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION
        assert v.crossings == ((0, 9),)
        assert v.star_rotation is not None

    def test_restricted_solution_before_full_depth(self):
        # In the K5 universe restricted to edge 0, one crossing saturates
        # everything after a single decision.
        g = complete_graph(5)
        u = build_restricted_universe(g, [0])
        v = verify_node(prefix(u, [1]), g, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION

    def test_completion_draw_uses_seeded_rng(self):
        # random.Random(0).random() = 0.844... > 0.8: no draw, node continues.
        # random.Random(1).random() = 0.134... < 0.8: completion fires on a
        # planar graph and certifies the all-zeros extension.
        g = complete_graph(4)
        u = build_universe(g)
        cfg = quiet_cfg(completion_probability=0.8)
        v0 = verify_node(prefix(u, []), g, cfg, random.Random(0))
        assert v0.kind is NodeKind.CNT
        v1 = verify_node(prefix(u, []), g, cfg, random.Random(1))
        assert v1.kind is NodeKind.SOL
        assert v1.solution_kind is SolutionKind.COMPLETION
        assert v1.crossings == ()

    def test_completion_failure_continues(self):
        # K5 with nothing crossed completes to a nonplanar drawing, so the
        # node survives even though the coin said try.
        g = complete_graph(5)
        v = verify_node(
            prefix(build_universe(g), []),
            g,
            quiet_cfg(completion_probability=1.0),
            random.Random(0),
        )
        assert v.kind is NodeKind.CNT

    def test_no_rng_consumed_before_completion_step(self):
        # A cut node must not touch the PRNG stream.
        g = complete_graph(5)
        rng = random.Random(7)
        before = rng.getstate()
        verify_node(prefix(build_universe(g), [1, 1]), g, quiet_cfg(completion_probability=0.8), rng)
        assert rng.getstate() == before

    def test_stats_track_planarity_calls(self):
        g = complete_graph(5)
        u = build_universe(g)
        stats = SearchStats()
        verify_node(prefix(u, [1, 1]), g, quiet_cfg(), random.Random(0), stats)
        assert stats.planarity_calls == 0  # cut before any planarity work
        verify_node(prefix(u, [0] * u.k), g, quiet_cfg(), random.Random(0), stats)
        assert stats.planarity_calls == 1

    def test_cut_is_monotone_under_extension(self, rng: random.Random):
        # Once a prefix is cut for a structural reason, every extension is
        # cut as well (possibly for an earlier reason in the chain).
        g = complete_graph(5)
        u = build_universe(g)
        cfg = quiet_cfg()
        found = 0
        while found < 25:
            depth = rng.randrange(1, u.k)
            bits = [rng.randrange(2) for _ in range(depth)]
            sol = prefix(u, bits)
            v = verify_node(sol, g, cfg, random.Random(0))
            if v.kind is not NodeKind.CUT:
                continue
            if v.cut_reason is CutReason.NONPLANAR_INDUCED:
                continue  # planarity cuts argue over saturated edges only
            found += 1
            for _ in range(4):
                ext = bits + [rng.randrange(2) for _ in range(u.k - depth)]
                ve = verify_node(prefix(u, ext), g, cfg, random.Random(0))
                assert ve.kind is NodeKind.CUT


def true_extension_exists(g: Graph, universe, bits) -> bool:
    """Exhaustive check: can the prefix grow into a drawing that works?

    Only double crossings prune the recursion; kites are deliberately not
    used here so the check is a fair referee for kite-free search claims.
    """
    counts = [0] * g.m
    for i, b in enumerate(bits):
        if b:
            e, f = universe.pairs[i]
            counts[e] += 1
            counts[f] += 1
            if counts[e] > 1 or counts[f] > 1:
                return False

    def rec(i: int, chosen: list[tuple[int, int]]) -> bool:
        if i == universe.k:
            n, edges = _planarized_edges(g, chosen)
            return is_planar_edges(n, edges)
        if rec(i + 1, chosen):
            return True
        e, f = universe.pairs[i]
        if counts[e] or counts[f]:
            return False
        counts[e] = counts[f] = 1
        ok = rec(i + 1, chosen + [(e, f)])
        counts[e] = counts[f] = 0
        return ok

    fixed = [(universe.pairs[i]) for i, b in enumerate(bits) if b]
    return rec(len(bits), fixed)


def _planarized_edges(g: Graph, chosen):
    crossed = {e for pair in chosen for e in pair}
    edges = [g.edges[e] for e in range(g.m) if e not in crossed]
    n = g.n
    for e, f in chosen:
        d = n
        n += 1
        u1, v1 = g.edges[e]
        u2, v2 = g.edges[f]
        edges += [(u1, d), (v1, d), (u2, d), (v2, d)]
    return n, edges


class TestKiteFreeSearchNeverCutsViable:
    """With kite pruning off, a cut prefix truly has no workable extension."""

    def test_on_small_graphs(self, rng: random.Random):
        cfg = quiet_cfg(enable_kite_pruning=False)
        checked = 0
        while checked < 60:
            g = random_connected_graph(5, rng.randrange(5, 9), rng)
            u = build_universe(g)
            if not 0 < u.k <= 10:
                continue
            depth = rng.randrange(1, u.k + 1)
            bits = [rng.randrange(2) for _ in range(depth)]
            v = verify_node(prefix(u, bits), g, cfg, random.Random(0))
            if v.kind is NodeKind.CUT:
                checked += 1
                assert not true_extension_exists(g, u, bits)


class TestBacktrack:
    def test_k4_zero_spine(self):
        # Without completion K4 walks the all-zeros branch to saturation:
        # root, three zero nodes, solution at full depth.
        g = complete_graph(4)
        stats = SearchStats()
        verdict, emb = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert count_crossings(emb) == 0
        assert stats.nodes_visited == 4
        assert stats.sol_satur == 1
        assert stats.cuts_dec == stats.cuts_kec == stats.cuts_nonplanar == 0

    def test_k5_restricted(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, emb = backtrack(
            g, build_restricted_universe(g, [0]), quiet_cfg(), stats
        )
        assert verdict is Verdict.ONE_PLANAR
        assert count_crossings(emb) == 1
        assert validate(g, emb)
        assert stats.nodes_visited == 5
        assert stats.cuts_nonplanar == 1 and stats.sol_satur == 1

    def test_k5_full_universe(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, emb = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert validate(g, emb)
        assert count_crossings(emb) == 1

    def test_restricted_exhaustion_is_unknown(self):
        # All restricted pairs share edge 0, so at most one can cross and
        # K6 stays nonplanar: exhaustion proves nothing beyond the subset.
        g = complete_graph(6)
        u = build_restricted_universe(g, [0])
        stats = SearchStats()
        verdict, emb = backtrack(g, u, quiet_cfg(), stats)
        assert verdict is Verdict.UNKNOWN and emb is None
        assert stats.cuts_dec > 0 or stats.cuts_nonplanar > 0

    def test_full_exhaustion_is_negative(self):
        # Padded K7: verdict comes from exhausting the full universe.
        g = complete_graph(7)
        stats = SearchStats()
        verdict, emb = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.NOT_ONE_PLANAR and emb is None
        assert stats.nodes_visited > 100_000

    def test_deadline_returns_unknown(self):
        g = complete_graph(7)
        stats = SearchStats()
        verdict, emb = backtrack(
            g, build_universe(g), quiet_cfg(), stats, deadline=time.monotonic() + 0.05
        )
        assert verdict is Verdict.UNKNOWN and emb is None

    def test_deterministic_stats(self):
        g = complete_graph(6)
        cfg = SearchConfig(rng_seed=42)
        runs = []
        for _ in range(2):
            stats = SearchStats()
            verdict, emb = backtrack(g, build_universe(g), cfg, stats)
            runs.append((verdict, serialize_embedding(emb), stats.nodes_visited,
                         stats.cuts_dec, stats.cuts_kec, stats.cuts_nonplanar,
                         stats.sol_satur, stats.sol_compl))
        assert runs[0] == runs[1]

    def test_seed_steers_completion(self):
        # Seed 0 opens with 0.844 (> 0.8, no try), then 0.758 at the next
        # node: K4 completes there.  Seed 1 opens with 0.134 and completes
        # at the root.  Node counts pin the draw-per-reached-node contract.
        g = complete_graph(4)
        u = build_universe(g)
        by_seed = {}
        for seed in (0, 1):
            stats = SearchStats()
            verdict, emb = backtrack(g, u, SearchConfig(rng_seed=seed), stats)
            assert verdict is Verdict.ONE_PLANAR
            assert count_crossings(emb) == 0
            by_seed[seed] = (stats.nodes_visited, stats.sol_compl)
        assert by_seed == {0: (2, 1), 1: (1, 1)}


class _Enough(Exception):
    """Stops a search once the state was checked at enough nodes."""


def _state_differential_cases():
    cases = [("K6", complete_graph(6)), ("K4,4", complete_bipartite(4, 4)),
             ("Petersen", petersen_graph())]
    r = random.Random(8)
    for n in range(8, 13):
        g = random_connected_graph(n, 2 * n + 2, r)
        while is_planar_edges(g.n, g.edges):
            g = random_connected_graph(n, 2 * n + 2, r)
        cases.append((f"random{n}", g))
    return [pytest.param(g, id=name) for name, g in cases]


class TestSearchState:
    """The state push/pop keep current matches the from-scratch reference
    functions at every node, and every node's verdict matches the one
    classified from a replayed prefix, which carries no path facts."""

    MAX_NODES = 800

    @pytest.mark.parametrize("g", _state_differential_cases())
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("kite", [True, False], ids=["kite", "nokite"])
    def test_matches_reference_at_every_node(self, monkeypatch, g, restricted, kite):
        original = SearchState.classify
        seen = []

        def checking(state, cfg, rng, stats):
            sol = state.sol
            pairs = sol.decided_pairs()
            kites = find_kite_edges(g, pairs) if kite else set()
            assert state.counts == crossing_counts(sol)
            assert state.crossings == pairs
            assert {e for e, c in enumerate(state.kites) if c} == kites
            assert state.saturated == saturated_edges(sol, kites)
            assert state.doubled == sum(c > 1 for c in state.counts)
            assert state.crossed_kites == sum(1 for e in kites if state.counts[e])

            fresh = SearchState(g, sol.universe, kite)
            for bit in sol.bits[: sol.cursor]:
                fresh.push(bit)
            replay_rng = random.Random()
            replay_rng.setstate(rng.getstate())
            want = original(fresh, cfg, replay_rng, SearchStats())
            got = original(state, cfg, rng, stats)
            assert got == want
            assert rng.getstate() == replay_rng.getstate()
            seen.append(got.kind)
            if len(seen) >= self.MAX_NODES:
                raise _Enough
            return got

        monkeypatch.setattr(SearchState, "classify", checking)
        if restricted:
            u = build_restricted_universe(g, find_skew_set(g, 1) or [0, 1])
        else:
            u = build_universe(g)
        cfg = SearchConfig(enable_kite_pruning=kite, completion_probability=0.5, rng_seed=3)
        try:
            backtrack(g, u, cfg, SearchStats())
        except _Enough:
            pass
        assert NodeKind.CNT in seen

    def test_pop_undoes_push(self, rng: random.Random):
        g = complete_bipartite(4, 4)
        u = build_universe(g)
        state = SearchState(g, u, kite_pruning=True)
        empty = (list(state.counts), list(state.kites), set(state.saturated), state.doubled)
        for _ in range(20):
            depth = rng.randrange(1, u.k + 1)
            for _ in range(depth):
                state.push(rng.randrange(2))
            for _ in range(depth):
                state.pop()
            assert (state.counts, state.kites, state.saturated, state.doubled) == empty
            assert state.crossings == [] and state.crossed_kites == 0

    def test_path_facts_skip_repeated_queries(self):
        # Most K6 nodes repeat a query their path has already answered (the
        # search ran one LR test per node before), and none is run again.
        g = complete_graph(6)
        stats = SearchStats()
        verdict, _ = backtrack(g, build_universe(g), SearchConfig(), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert stats.planarity_calls < stats.nodes_visited / 2


# Node and cut counts of test_block at the commit before the search state
# was made incremental: (nodes, cuts_dec, cuts_kec, cuts_nonplanar,
# sol_satur, sol_compl).  Equal counts under every completion probability
# show that no random draw moved.
PINNED_TREES = {
    ("K6", "default"): (898, 127, 246, 58, 1, 0),
    ("K6", "p=0"): (898, 127, 246, 58, 1, 0),
    ("K6", "p=1"): (898, 127, 246, 58, 1, 0),
    ("K6", "no kite"): (2144, 413, 0, 641, 0, 1),
    ("K4,4", "default"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "p=0"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "p=1"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "no kite"): (63440, 17972, 0, 13722, 0, 1),
    ("random12", "default"): (2245, 430, 275, 351, 0, 1),
    ("random12", "p=0"): (2262, 430, 275, 351, 1, 0),
    ("random12", "p=1"): (2244, 430, 275, 351, 0, 1),
    ("random12", "no kite"): (3630, 787, 0, 962, 0, 1),
}
_TREE_GRAPHS = {
    "K6": lambda: complete_graph(6),
    "K4,4": lambda: complete_bipartite(4, 4),
    # nonplanar with a skew edge: the restricted pass runs, fails, and the
    # full pass finds the drawing
    "random12": lambda: random_connected_graph(12, 22, random.Random(30)),
}
_TREE_CONFIGS = {
    "default": {},
    "p=0": {"completion_probability": 0.0},
    "p=1": {"completion_probability": 1.0},
    "no kite": {"enable_kite_pruning": False},
}


@pytest.mark.parametrize("graph,config", sorted(PINNED_TREES))
def test_search_tree_is_pinned(graph, config):
    res = solve_block(_TREE_GRAPHS[graph](), SearchConfig(**_TREE_CONFIGS[config]))
    s = res.stats
    assert res.verdict is Verdict.ONE_PLANAR
    assert s.used_skew_pass is (graph == "random12")
    got = (s.nodes_visited, s.cuts_dec, s.cuts_kec, s.cuts_nonplanar, s.sol_satur, s.sol_compl)
    assert got == PINNED_TREES[graph, config]


class TestSkewSets:
    def test_planar_graph_needs_none(self):
        assert find_skew_set(grid_graph(3, 3), 1) == []

    def test_k5_first_edge(self):
        assert find_skew_set(complete_graph(5), 1) == [0]

    def test_k33_single_edge(self):
        s = find_skew_set(complete_bipartite(3, 3), 1)
        assert s is not None and len(s) == 1
        g = complete_bipartite(3, 3)
        rest = [g.edges[e] for e in range(g.m) if e not in s]
        assert is_planar_edges(g.n, rest)

    def test_k6_needs_three_removals(self):
        g = complete_graph(6)
        assert find_skew_set(g, 1) is None
        assert find_skew_set(g, 2) is None
        s = find_skew_set(g, 3)
        rest = [g.edges[e] for e in range(g.m) if e not in s]
        assert len(s) == 3 and is_planar_edges(g.n, rest)

    def test_pair_spanning_two_blocks(self):
        g = glue_at_vertex(complete_graph(5), complete_graph(5))
        assert find_skew_set(g, 1) is None
        assert find_skew_set(g, 2) == [0, 10]

    def test_lexicographically_first(self):
        # Every single-edge deletion of K5 is planar, so [0] must win.
        assert find_skew_set(complete_graph(5), 2) == [0]

    def test_expired_deadline_raises(self):
        with pytest.raises(TimeoutError):
            find_skew_set(complete_graph(6), 3, deadline=time.monotonic() - 1.0)

    def test_known_nonplanar_skips_whole_graph_test(self, monkeypatch):
        calls = []

        def counting(n, edges):
            calls.append(len(edges))
            return is_planar_edges(n, edges)

        monkeypatch.setattr(search_module, "is_planar_edges", counting)
        g = complete_graph(5)
        assert find_skew_set(g, 1, nonplanar=True) == find_skew_set(g, 1) == [0]
        # the second call starts with the whole graph, the first does not
        assert calls == [9, 10, 9]
        # test_block has found the block nonplanar and must not ask again
        for g in (complete_graph(5), complete_bipartite(3, 3)):
            calls.clear()
            assert solve_block(g, SearchConfig()).stats.used_skew_pass
            assert calls and g.m not in calls


class TestOracle:
    def test_classics(self):
        assert oracle_is_one_planar(complete_graph(4))
        assert oracle_is_one_planar(complete_graph(5))
        assert oracle_is_one_planar(complete_bipartite(3, 3))
        assert oracle_is_one_planar(cycle_graph(8))

    def test_k6_is_one_planar(self):
        assert oracle_is_one_planar(complete_graph(6), max_k=45)

    def test_universe_cap(self):
        with pytest.raises(UniverseTooLargeError):
            oracle_is_one_planar(complete_graph(7))


class TestBlockDriver:
    def test_planar_block_skips_search(self):
        res = solve_block(grid_graph(4, 4), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert count_crossings(res.embedding) == 0
        assert res.stats.used_backtracking is False
        assert res.stats.nodes_visited == 0

    def test_k5_uses_skew_pass(self):
        res = solve_block(complete_graph(5), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert count_crossings(res.embedding) == 1
        assert res.stats.used_skew_pass is True
        assert res.stats.nodes_visited == 5

    def test_k6_needs_full_search(self):
        res = solve_block(complete_graph(6), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert count_crossings(res.embedding) == 3
        assert res.stats.used_skew_pass is False
        assert validate(complete_graph(6), res.embedding)

    def test_density_rejection_instant(self):
        for n in (7, 8, 9):
            t0 = time.perf_counter()
            res = solve_block(complete_graph(n), SearchConfig())
            dt = time.perf_counter() - t0
            assert res.verdict is Verdict.NOT_ONE_PLANAR
            assert res.stats.nodes_visited == 0
            assert res.stats.used_backtracking is False
            assert dt < 0.01

    def test_petersen(self):
        res = solve_block(petersen_graph(), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert validate(petersen_graph(), res.embedding)

    def test_small_graphs_always_admit_drawings(self, rng: random.Random):
        # Every graph on fewer than 7 vertices has a drawing; the driver
        # must find one rather than report a negative.
        for _ in range(30):
            n = rng.randrange(1, 7)
            mmax = n * (n - 1) // 2
            g = random_connected_graph(n, rng.randrange(max(0, n - 1), mmax + 1), rng)
            res = solve_block(g, SearchConfig())
            assert res.verdict is Verdict.ONE_PLANAR
            assert validate(g, res.embedding)

    def test_expired_deadline_yields_unknown(self):
        # K6 passes the density gate, so the exhausted clock must stop the
        # backtracking itself and surface as Unknown, not as a negative.
        g = complete_graph(6)
        res = solve_block(
            g, SearchConfig(enable_skew_pass=False), deadline=time.monotonic() - 1.0
        )
        assert res.verdict is Verdict.UNKNOWN and res.embedding is None
        # the clock is read before the root: only the whole-graph test ran
        assert res.stats.nodes_visited == 0
        assert res.stats.planarity_calls == 1

    def test_expired_deadline_stops_skew_search(self, monkeypatch):
        # K6 needs three edges removed, so a size-3 skew search tests edge
        # set after edge set; an expired clock must stop it before the first.
        calls = []

        def counting(n, edges):
            calls.append(n)
            return is_planar_edges(n, edges)

        monkeypatch.setattr(search_module, "is_planar_edges", counting)
        res = solve_block(
            complete_graph(6), SearchConfig(skew_set_size=3), deadline=time.monotonic() - 1.0
        )
        assert res.verdict is Verdict.UNKNOWN and res.embedding is None
        assert len(calls) <= 1

    def test_option_combos_agree_on_verdicts(self, rng: random.Random):
        for _ in range(12):
            g = random_connected_graph(6, rng.randrange(6, 13), rng)
            verdicts = set()
            for kite in (True, False):
                for prob in (0.0, 0.8):
                    cfg = SearchConfig(
                        enable_kite_pruning=kite, completion_probability=prob
                    )
                    verdicts.add(solve_block(g, cfg).verdict)
            assert len(verdicts) == 1

    def test_agrees_with_oracle(self, rng: random.Random):
        for _ in range(40):
            n = rng.randrange(4, 8)
            mmax = n * (n - 1) // 2
            g = random_connected_graph(n, rng.randrange(n - 1, mmax + 1), rng)
            u = build_universe(g)
            if u.k > 20:
                continue
            want = oracle_is_one_planar(g)
            res = solve_block(g, SearchConfig())
            assert res.verdict is not Verdict.UNKNOWN
            assert (res.verdict is Verdict.ONE_PLANAR) == want
