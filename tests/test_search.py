"""Node verification, backtracking search, skew restriction, block driver."""

from __future__ import annotations

import hashlib
import random
import time

import networkx as nx
import pytest

import oneplanar.search as search_module
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    glue_at_vertex,
    grid_graph,
    merge_one_block,
    petersen_graph,
    random_connected_graph,
)
from oneplanar.embedding import count_crossings, serialize_embedding, star_edge_list, validate
from oneplanar.graph import Graph, build_graph
from oneplanar.pairs import build_restricted_universe, build_universe
from oneplanar.planarity import is_planar_edges, rotation_edges
from oneplanar.search import (
    CutReason,
    NodeKind,
    NodeVerdict,
    SearchConfig,
    SearchState,
    SearchStats,
    SolutionKind,
    UniverseTooLargeError,
    Verdict,
    backtrack,
    find_skew_set,
    oracle_is_one_planar,
)
from oneplanar.search import test_block as solve_block
from reference import (
    canonical_universe,
    crossing_counts,
    decided_pairs,
    edge_mask,
    find_kite_edges,
    prefix_cut,
    saturated_edges,
)


def quiet_cfg(**kw) -> SearchConfig:
    """Deterministic config: completion only when explicitly enabled."""
    base = dict(completion_probability=0.0, rng_seed=0)
    base.update(kw)
    return SearchConfig(**base)


# the unpatched methods, for tests that wrap them on the class
_push, _classify = SearchState.push, SearchState.classify


def replay(g, universe, bits, cfg, rng, stats=None) -> NodeVerdict:
    """The verdict of the node a bit prefix reaches: the cut of its first
    push that is refused, or else the classification of the node after
    the last bit."""
    state = SearchState(g, universe, cfg.enable_kite_pruning)
    for bit in bits:
        cut = _push(state, bit)
        if cut is not None:
            return cut
    return _classify(state, cfg, rng, SearchStats() if stats is None else stats)


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
    """Verdicts of single nodes, reached by replaying a bit prefix."""

    def test_root_continues_without_completion(self):
        g = complete_graph(4)
        v = replay(g, build_universe(g), [], quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CNT

    def test_double_crossing_cut(self):
        g = complete_graph(5)
        # (0,7) and (0,8) cross edge 0
        v = replay(g, build_universe(g), [1, 1], quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.DOUBLE_EDGE_CROSSING

    def test_kite_edge_cut(self):
        # Cross (0,1)x(3,4), then cross kite edge (0,3) with (2,4).
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1  # pair (0,9)
        bits[8] = 1  # pair (2,8)
        v = replay(g, build_universe(g), bits, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.KITE_EDGE_CROSSING

    def test_kite_cut_needs_kite_pruning(self):
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1
        bits[8] = 1
        cfg = quiet_cfg(enable_kite_pruning=False)
        v = replay(g, build_universe(g), bits, cfg, random.Random(0))
        assert v.cut_reason is not CutReason.KITE_EDGE_CROSSING

    def test_saturated_nonplanar_cut(self):
        g = complete_graph(5)
        u = build_universe(g)
        # no crossings at all: K5 itself
        v = replay(g, u, [0] * u.k, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.NONPLANAR_INDUCED

    def test_full_assignment_solution_by_saturation(self):
        g = complete_graph(5)
        u = build_universe(g)
        bits = [0] * u.k
        bits[2] = 1  # only (0,9)
        v = replay(g, u, bits, quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION
        assert v.crossings == ((0, 9),)
        assert v.star_rotation is not None

    def test_restricted_solution_before_full_depth(self):
        # In the K5 universe restricted to edge 0, one crossing saturates
        # everything after a single decision.
        g = complete_graph(5)
        u = build_restricted_universe(g, [0])
        v = replay(g, u, [1], quiet_cfg(), random.Random(0))
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION

    def test_completion_draw_uses_seeded_rng(self):
        # random.Random(0).random() = 0.844... > 0.8: no draw, node continues.
        # random.Random(1).random() = 0.134... < 0.8: completion fires on a
        # planar graph and certifies the all-zeros extension.
        g = complete_graph(4)
        u = build_universe(g)
        cfg = quiet_cfg(completion_probability=0.8)
        v0 = replay(g, u, [], cfg, random.Random(0))
        assert v0.kind is NodeKind.CNT
        v1 = replay(g, u, [], cfg, random.Random(1))
        assert v1.kind is NodeKind.SOL
        assert v1.solution_kind is SolutionKind.COMPLETION
        assert v1.crossings == ()

    def test_completion_failure_continues(self):
        # K5 with nothing crossed completes to a nonplanar drawing, so the
        # node survives even though the coin said try.
        g = complete_graph(5)
        v = replay(g, build_universe(g), [], quiet_cfg(completion_probability=1.0),
                   random.Random(0))
        assert v.kind is NodeKind.CNT

    def test_no_rng_consumed_before_completion_step(self):
        # A cut node must not touch the PRNG stream.
        g = complete_graph(5)
        rng = random.Random(7)
        before = rng.getstate()
        replay(g, build_universe(g), [1, 1], quiet_cfg(completion_probability=0.8), rng)
        assert rng.getstate() == before

    def test_stats_track_planarity_calls(self):
        g = complete_graph(5)
        u = build_universe(g)
        stats = SearchStats()
        replay(g, u, [1, 1], quiet_cfg(), random.Random(0), stats)
        assert stats.planarity_calls == 0  # cut before any planarity work
        replay(g, u, [0] * u.k, quiet_cfg(), random.Random(0), stats)
        assert stats.planarity_calls == 1

    def test_cut_is_monotone_under_extension(self, rng: random.Random):
        # Once a prefix is cut for a structural reason, every extension is
        # cut as well (possibly for an earlier reason in the chain), and the
        # reference finds a doubled or crossed kite edge in both.
        g = complete_graph(5)
        u = build_universe(g)
        cfg = quiet_cfg()
        found = 0
        while found < 25:
            depth = rng.randrange(1, u.k)
            bits = [rng.randrange(2) for _ in range(depth)]
            v = replay(g, u, bits, cfg, random.Random(0))
            if v.kind is not NodeKind.CUT:
                continue
            if v.cut_reason is CutReason.NONPLANAR_INDUCED:
                continue  # planarity cuts argue over saturated edges only
            found += 1
            assert prefix_cut(g, u, bits, kite=True) is not None
            for _ in range(4):
                ext = bits + [rng.randrange(2) for _ in range(u.k - depth)]
                ve = replay(g, u, ext, cfg, random.Random(0))
                assert ve.kind is NodeKind.CUT
                assert prefix_cut(g, u, ext, kite=True) is not None


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
            v = replay(g, u, bits, cfg, random.Random(0))
            if v.kind is NodeKind.CUT:
                checked += 1
                assert not true_extension_exists(g, u, bits)


class TestBacktrack:
    def test_k4_zero_spine(self):
        # Without completion K4 walks the all-zeros branch to saturation:
        # root, three zero nodes, solution at full depth.
        g = complete_graph(4)
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert count_crossings(merge_one_block(g, cert)) == 0
        assert stats.nodes_visited == 4
        assert stats.sol_satur == 1
        assert stats.cuts_dec == stats.cuts_kec == stats.cuts_nonplanar == 0

    def test_graphs_on_two_vertices_or_fewer(self):
        # 3n - 6 bounds the edges of planar graphs on three vertices or
        # more only: an edge or a lone vertex is a saturation solution
        for g in (build_graph(1, []), build_graph(2, [(0, 1)])):
            stats = SearchStats()
            verdict, cert = backtrack(g, build_universe(g), quiet_cfg(), stats)
            assert verdict is Verdict.ONE_PLANAR and cert.crossings == ()
            assert stats.nodes_visited == stats.sol_satur == stats.planarity_calls == 1

    def test_k5_restricted(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, cert = backtrack(
            g, build_restricted_universe(g, [0]), quiet_cfg(), stats
        )
        assert verdict is Verdict.ONE_PLANAR
        emb = merge_one_block(g, cert)
        assert count_crossings(emb) == 1
        assert validate(g, emb)
        assert stats.nodes_visited == 5
        assert stats.cuts_nonplanar == 1 and stats.sol_satur == 1

    def test_k5_full_universe(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.ONE_PLANAR
        emb = merge_one_block(g, cert)
        assert validate(g, emb)
        assert count_crossings(emb) == 1

    def test_restricted_exhaustion_is_unknown(self):
        # All restricted pairs share edge 0, so at most one can cross and
        # K6 stays nonplanar: exhaustion proves nothing beyond the subset.
        g = complete_graph(6)
        u = build_restricted_universe(g, [0])
        stats = SearchStats()
        verdict, cert = backtrack(g, u, quiet_cfg(), stats)
        assert verdict is Verdict.UNKNOWN and cert is None
        assert stats.cuts_dec > 0 or stats.cuts_nonplanar > 0

    def test_full_exhaustion_is_negative(self):
        # Padded K7: verdict comes from exhausting the full universe.
        g = complete_graph(7)
        stats = SearchStats()
        verdict, cert = backtrack(g, canonical_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.NOT_ONE_PLANAR and cert is None
        assert stats.nodes_visited == 45_275

    def test_twin_orbits_exhaust_with_fewer_nodes(self):
        # K7's vertices are all twins, so its pairs form one orbit: every
        # crossing set is explored only with the first pair crossed
        g = complete_graph(7)
        assert set(build_universe(g).orbit) == {0}
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), quiet_cfg(), stats)
        assert verdict is Verdict.NOT_ONE_PLANAR and cert is None
        assert stats.nodes_visited == 1_628

    def test_deadline_returns_unknown(self):
        # the canonical search, since the twin orbits decide K7 in 1,628 nodes
        g = complete_graph(7)
        stats = SearchStats()
        verdict, cert = backtrack(
            g, canonical_universe(g), quiet_cfg(), stats, deadline=time.monotonic() + 0.05
        )
        assert verdict is Verdict.UNKNOWN and cert is None

    def test_deterministic_stats(self):
        g = complete_graph(6)
        cfg = SearchConfig(rng_seed=42)
        runs = []
        for _ in range(2):
            stats = SearchStats()
            verdict, cert = backtrack(g, build_universe(g), cfg, stats)
            text = serialize_embedding(merge_one_block(g, cert))
            runs.append((verdict, text, stats.nodes_visited,
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
            verdict, cert = backtrack(g, u, SearchConfig(rng_seed=seed), stats)
            assert verdict is Verdict.ONE_PLANAR
            assert count_crossings(merge_one_block(g, cert)) == 0
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


def assert_state_matches_reference(state: SearchState, g, kite: bool) -> None:
    """Every mask at the cursor equals what the reference functions compute
    from the decided prefix alone, and the prefix crosses no edge twice
    and (with kites) no kite edge."""
    u, bits, d = state.universe, state.bits[: state.cursor], state.cursor
    pairs = decided_pairs(u, bits)
    counts = crossing_counts(u, bits)
    kites = find_kite_edges(g, pairs) if kite else set()
    assert prefix_cut(g, u, bits, kite) is None
    assert state.crossings == pairs
    assert state.crossed[d] == edge_mask(e for e, c in enumerate(counts) if c)
    assert state.kites[d] == edge_mask(kites)
    assert state.saturated() == edge_mask(saturated_edges(u, bits, kites))
    assert state.crossed[d] & state.kites[d] == edge_mask(e for e in kites if counts[e]) == 0


class TestSearchState:
    """The masks push writes match the from-scratch reference functions at
    every node, and every node's verdict matches the one classified from a
    replayed prefix, which carries no path facts."""

    MAX_NODES = 800

    @pytest.mark.parametrize("g", _state_differential_cases())
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("kite", [True, False], ids=["kite", "nokite"])
    def test_matches_reference_at_every_node(self, monkeypatch, g, restricted, kite):
        seen = []

        def checking(state, cfg, rng, stats):
            assert_state_matches_reference(state, g, kite)
            replay_rng = random.Random()
            replay_rng.setstate(rng.getstate())
            want = replay(g, state.universe, state.bits[: state.cursor], cfg, replay_rng)
            got = _classify(state, cfg, rng, stats)
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
        # A random walk of pushes and pops, checked after every step.  It
        # also tries 1s that would cross an edge twice or cross a kite
        # edge: push refuses exactly those, with the cut the reference
        # names, and leaves the state as it was.
        k6 = complete_graph(6)
        k44 = complete_bipartite(4, 4)
        cases = [
            (k44, build_universe(k44)),
            (k6, build_restricted_universe(k6, find_skew_set(k6, 3))),
        ]
        for g, u in cases:
            for kite in (True, False):
                state = SearchState(g, u, kite_pruning=kite)
                assert_state_matches_reference(state, g, kite)
                refused = {CutReason.DOUBLE_EDGE_CROSSING: 0, CutReason.KITE_EDGE_CROSSING: 0}
                for _ in range(600):
                    d = state.cursor
                    if d < u.k and (d == 0 or rng.random() < 0.6):
                        bit = int(rng.random() < 0.3)
                        want = prefix_cut(g, u, state.bits[:d] + [bit], kite)
                        before = (list(state.bits), list(state.crossings), list(state.crossed),
                                  list(state.kites), list(state.cornered))
                        cut = state.push(bit)
                        assert (cut and cut.cut_reason) is want
                        if cut is not None:
                            assert cut.kind is NodeKind.CUT
                            refused[want] += 1
                            assert state.cursor == d
                            assert before == (state.bits, state.crossings, state.crossed,
                                              state.kites, state.cornered)
                    else:
                        state.pop()
                    assert_state_matches_reference(state, g, kite)
                while state.cursor:
                    state.pop()
                    assert_state_matches_reference(state, g, kite)
                assert state.crossings == [] and state.saturated() == state.closed[0]
                assert refused[CutReason.DOUBLE_EDGE_CROSSING] > 0
                assert (refused[CutReason.KITE_EDGE_CROSSING] > 0) is kite

    def test_path_facts_skip_repeated_queries(self):
        # Most K6 nodes repeat a query their path has already answered (the
        # search ran one LR test per node before), and none is run again.
        g = complete_graph(6)
        stats = SearchStats()
        verdict, _ = backtrack(g, build_universe(g), SearchConfig(), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert stats.planarity_calls < stats.nodes_visited / 2


def k7_minus_edge() -> Graph:
    """K7 without edge 01: not 1-planar, and too dense for most star graphs."""
    return build_graph(7, [e for e in complete_graph(7).edges if e != (0, 1)])


_CUT_GRAPHS = {
    "K6": lambda: complete_graph(6),
    "K4,4": lambda: complete_bipartite(4, 4),
    "Petersen": petersen_graph,
    "K7-e": k7_minus_edge,
}


class TestPrePushCut:
    """At every push that backtrack makes, push refuses a 1 with the DEC or
    KEC cut exactly when the reference finds an edge crossed twice or a
    crossed kite edge in the prefix plus that 1, and accepts every 0; each
    refused 1-child is counted as a node and a cut."""

    MAX_NODES = {"K4,4": 12000, "K7-e": 3000}  # classified nodes; K6 and Petersen run to the end

    @pytest.mark.parametrize("graph", sorted(_CUT_GRAPHS))
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("kite", [True, False], ids=["kite", "nokite"])
    def test_matches_replayed_classification(self, monkeypatch, graph, restricted, kite):
        g = _CUT_GRAPHS[graph]()
        cfg = SearchConfig(enable_kite_pruning=kite)
        cuts = {CutReason.DOUBLE_EDGE_CROSSING: 0, CutReason.KITE_EDGE_CROSSING: 0}
        classified = 0

        def checking_push(state, bit):
            want = prefix_cut(g, state.universe, state.bits[: state.cursor] + [bit], kite)
            v = _push(state, bit)
            assert (v and v.cut_reason) is want
            if v is not None:
                cuts[v.cut_reason] += 1
            return v

        def counting_classify(state, cfg, rng, stats):
            nonlocal classified
            classified += 1
            if classified > self.MAX_NODES.get(graph, 10**9):
                raise _Enough
            return _classify(state, cfg, rng, stats)

        monkeypatch.setattr(SearchState, "push", checking_push)
        monkeypatch.setattr(SearchState, "classify", counting_classify)
        u = build_restricted_universe(g, [0, 1]) if restricted else build_universe(g)
        stats = SearchStats()
        try:
            backtrack(g, u, cfg, stats)
        except _Enough:
            pass
        else:
            # one node per classification and one per refused 1-child
            assert stats.nodes_visited == classified + sum(cuts.values())
        assert cuts[CutReason.DOUBLE_EDGE_CROSSING] > 0
        # Petersen's full search finds its drawing after 205 nodes, none a KEC cut
        kec_seen = kite and (graph, restricted) != ("Petersen", False)
        assert (cuts[CutReason.KITE_EDGE_CROSSING] > 0) is kec_seen


class TestCountAnswers:
    """Queries that classify settles by the edge count, without a star
    graph or an LR run, are nonplanar star graphs.  Only completion and
    saturation attempts are settled so: the capacity cut comes before
    every saturated query the count would settle."""

    MAX_NODES = 3000

    @pytest.mark.parametrize("graph", ["K6", "K7-e"])
    def test_settled_queries_are_nonplanar(self, monkeypatch, graph):
        g = _CUT_GRAPHS[graph]()
        runs = 0

        def counted(fn):
            def run(*args):
                nonlocal runs
                runs += 1
                return fn(*args)

            return run

        monkeypatch.setattr(search_module, "is_planar_edges", counted(is_planar_edges))
        monkeypatch.setattr(search_module, "rotation_edges", counted(rotation_edges))
        original = SearchState.classify
        settled = {"saturated": 0, "full": 0}
        classified = 0

        def checking(state, cfg, rng, stats):
            nonlocal classified
            asked, ran = stats.planarity_calls, runs
            v = original(state, cfg, rng, stats)
            unrun = (stats.planarity_calls - asked) - (runs - ran)
            assert unrun in (0, 1)
            if unrun:
                # the settled query is the last one asked: a saturated
                # query cuts, while a nonplanar full query below a node
                # that is not saturated leaves it CNT
                sat = state.saturated()
                saturated = sat != (1 << g.m) - 1 and v.cut_reason is CutReason.NONPLANAR_INDUCED
                n_star, star = star_edge_list(g, state.crossings, keep=sat if saturated else None)
                assert not nx.check_planarity(nx.Graph(star))[0]
                assert not is_planar_edges(n_star, star)
                settled["saturated" if saturated else "full"] += 1
            classified += 1
            if classified >= self.MAX_NODES:
                raise _Enough
            return v

        monkeypatch.setattr(SearchState, "classify", checking)
        try:
            solve_block(g, SearchConfig())
        except _Enough:
            pass
        assert settled["full"] > 0
        # the capacity cut settles every saturated query the count would
        # answer before it is asked
        assert settled["saturated"] == 0


def capacity_cut_by_reference(state: SearchState, g: Graph, kite: bool) -> bool:
    """Whether the node at the cursor is a capacity cut, from the decided
    prefix and the reference functions alone: not a DEC or KEC cut, not
    saturated, and its crossings plus half its free edges (unsaturated,
    with an unsaturated universe partner) below m - 3n + 6."""
    u, bits = state.universe, state.bits[: state.cursor]
    pairs = decided_pairs(u, bits)
    if prefix_cut(g, u, bits, kite) is not None:
        return False
    sat = saturated_edges(u, bits, find_kite_edges(g, pairs) if kite else set())
    if len(sat) == g.m:
        return False
    partners: list[set[int]] = [set() for _ in range(g.m)]
    for a, b in u.pairs:
        partners[a].add(b)
        partners[b].add(a)
    free = [e for e in range(g.m) if e not in sat and partners[e] - sat]
    return len(pairs) + len(free) // 2 < g.m - (3 * g.n - 6)


def dec_free_extensions(u, bits):
    """Crossing sets of every full assignment extending the decided prefix
    in which no edge is crossed twice."""
    pairs, k = u.pairs, u.k
    chosen = decided_pairs(u, bits)
    used = {e for pair in chosen for e in pair}

    def extend(i: int):
        if i == k:
            yield list(chosen)
            return
        yield from extend(i + 1)
        a, b = pairs[i]
        if a not in used and b not in used:
            chosen.append(pairs[i])
            used.update((a, b))
            yield from extend(i + 1)
            chosen.pop()
            used.difference_update((a, b))

    yield from extend(len(bits))


def is_capacity_cut(v, state: SearchState, asked: int, stats: SearchStats) -> bool:
    """A nonplanar cut of a node that is not saturated, made without a
    planarity query: the capacity cut, and nothing else in classify."""
    return (v.cut_reason is CutReason.NONPLANAR_INDUCED and stats.planarity_calls == asked
            and state.saturated() != (1 << state.g.m) - 1)


def k7_minus_2match() -> Graph:
    """K7 without edges 01 and 23: 1-planar."""
    return build_graph(7, [e for e in complete_graph(7).edges if e not in ((0, 1), (2, 3))])


def scale_instance(index: int) -> Graph:
    """Instance `index` of the acceptance scale set: the nonplanar draws of
    random_connected_graph(20, 30) from seed 20250814, in draw order."""
    rng = random.Random(20250814)
    found = -1
    while True:
        g = random_connected_graph(20, 30, rng)
        if not is_planar_edges(g.n, list(g.edges)):
            found += 1
            if found == index:
                return g


class TestCapacityCut:
    """Every node classify cuts by capacity is one the reference functions
    call a capacity cut, and the other way round; where at most
    MAX_UNDECIDED pairs are left, every extension of the cut node without
    a doubly crossed edge has a nonplanar star graph."""

    MAX_UNDECIDED = 16
    MAX_NODES = {"K7-2match": 3000, "K7-e": 3000}  # K6 runs to the end

    @pytest.mark.parametrize("graph,universe", [
        ("K6", "full"),
        # K6 has no single skew edge: restrict to its first skew set
        ("K6", "skew set"),
        ("K7-2match", "full"),
        ("K7-e", "full"),
    ])
    @pytest.mark.parametrize("kite", [True, False], ids=["kite", "nokite"])
    def test_cut_subtrees_hold_no_drawing(self, monkeypatch, graph, universe, kite):
        g = {"K6": lambda: complete_graph(6), "K7-2match": k7_minus_2match,
             "K7-e": k7_minus_edge}[graph]()
        original = SearchState.classify
        classified = cuts = checked = 0

        def checking(state, cfg, rng, stats):
            nonlocal classified, cuts, checked
            asked = stats.planarity_calls
            v = original(state, cfg, rng, stats)
            cut = is_capacity_cut(v, state, asked, stats)
            assert cut is capacity_cut_by_reference(state, g, kite)
            if cut:
                cuts += 1
            if cut and state.universe.k - state.cursor <= self.MAX_UNDECIDED:
                checked += 1
                for crossings in dec_free_extensions(state.universe, state.bits[: state.cursor]):
                    _, star = star_edge_list(g, crossings)
                    assert not nx.check_planarity(nx.Graph(star))[0]
            classified += 1
            if classified >= self.MAX_NODES.get(graph, 10**9):
                raise _Enough
            return v

        monkeypatch.setattr(SearchState, "classify", checking)
        if universe == "full":
            u = build_universe(g)
        else:
            u = build_restricted_universe(g, find_skew_set(g, 3))
        try:
            backtrack(g, u, SearchConfig(enable_kite_pruning=kite), SearchStats())
        except _Enough:
            pass
        assert checked > 0
        if graph != "K7-2match":
            assert cuts > 0

    @pytest.mark.parametrize("graph", ["K4,4", "random12", "scale6"])
    def test_inert_below_the_bound(self, monkeypatch, graph):
        # m <= 3n - 6: a drawing may need no crossing, so nothing is cut;
        # the canonical search, where K4,4 runs more than 2000 nodes
        g = _TREE_GRAPHS[graph]() if graph in _TREE_GRAPHS else scale_instance(6)
        assert g.m <= 3 * g.n - 6
        monkeypatch.setattr(search_module, "build_universe", canonical_universe)
        original = SearchState.classify
        cuts = 0

        def counting(state, cfg, rng, stats):
            nonlocal cuts
            asked = stats.planarity_calls
            v = original(state, cfg, rng, stats)
            cuts += is_capacity_cut(v, state, asked, stats)
            return v

        monkeypatch.setattr(SearchState, "classify", counting)
        res = solve_block(g, SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR and res.stats.nodes_visited > 2000
        assert cuts == 0


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
    "p=0.5": {"completion_probability": 0.5},
    "p=1": {"completion_probability": 1.0},
    "no kite": {"enable_kite_pruning": False},
}


def solve_tree_graph(graph, config, monkeypatch, canonical: bool):
    """test_block on a `_TREE_GRAPHS` graph; `canonical` swaps its full
    universe for `canonical_universe`, the search without twin orbits."""
    if canonical:
        monkeypatch.setattr(search_module, "build_universe", canonical_universe)
    return solve_block(_TREE_GRAPHS[graph](), SearchConfig(**_TREE_CONFIGS[config]))


# random12 has no twins: its orbits are the identity, so the search with
# twin orbits keeps its canonical pins
def _from_random12(pins: dict) -> dict:
    return {key: pin for key, pin in pins.items() if key[0] == "random12"}


# planarity_calls of the canonical test_block under the default config,
# recorded before the edge count answered queries without an LR run; K6's
# with the capacity cut, which changes its tree
PINNED_CALLS = {"K6": 56, "K4,4": 2546, "random12": 679}
# the same under twin-orbit branching
PRUNED_CALLS = {"K6": 24, "K4,4": 194, "random12": PINNED_CALLS["random12"]}


@pytest.mark.parametrize("graph", sorted(PINNED_CALLS))
def test_planarity_calls_are_pinned(graph, monkeypatch):
    res = solve_tree_graph(graph, "default", monkeypatch, canonical=True)
    assert res.stats.planarity_calls == PINNED_CALLS[graph]


@pytest.mark.parametrize("graph", sorted(PRUNED_CALLS))
def test_pruned_planarity_calls_are_pinned(graph, monkeypatch):
    res = solve_tree_graph(graph, "default", monkeypatch, canonical=False)
    assert res.stats.planarity_calls == PRUNED_CALLS[graph]


def tree_counts(res) -> tuple[int, ...]:
    s = res.stats
    return (s.nodes_visited, s.cuts_dec, s.cuts_kec, s.cuts_nonplanar, s.sol_satur, s.sol_compl)


# Node and cut counts of the canonical test_block at the commit before the
# search state was made incremental: (nodes, cuts_dec, cuts_kec,
# cuts_nonplanar, sol_satur, sol_compl).  Equal counts under every
# completion probability show that no random draw moved.  K6 has
# m > 3n - 6, so the capacity cut changes its tree: its counts are
# recorded with the cut.  K4,4 and random12 are below the bound and keep
# theirs.
PINNED_TREES = {
    ("K6", "default"): (326, 32, 66, 47, 1, 0),
    ("K6", "p=0"): (326, 32, 66, 47, 1, 0),
    ("K6", "p=1"): (326, 32, 66, 47, 1, 0),
    ("K6", "no kite"): (2118, 407, 0, 634, 0, 1),
    ("K4,4", "default"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "p=0"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "p=1"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "no kite"): (63440, 17972, 0, 13722, 0, 1),
    ("random12", "default"): (2245, 430, 275, 351, 0, 1),
    ("random12", "p=0"): (2262, 430, 275, 351, 1, 0),
    ("random12", "p=1"): (2244, 430, 275, 351, 0, 1),
    ("random12", "no kite"): (3630, 787, 0, 962, 0, 1),
}
# the same under twin-orbit branching, recorded when it was introduced
PRUNED_TREES = {
    ("K6", "default"): (120, 5, 8, 8, 1, 0),
    ("K6", "p=0"): (120, 5, 8, 8, 1, 0),
    ("K6", "p=1"): (120, 5, 8, 8, 1, 0),
    ("K6", "no kite"): (240, 35, 0, 46, 0, 1),
    ("K4,4", "default"): (793, 132, 139, 61, 1, 0),
    ("K4,4", "p=0"): (793, 132, 139, 61, 1, 0),
    ("K4,4", "p=1"): (793, 132, 139, 61, 1, 0),
    ("K4,4", "no kite"): (3111, 739, 0, 752, 0, 1),
} | _from_random12(PINNED_TREES)


@pytest.mark.parametrize("graph,config", sorted(PINNED_TREES))
def test_search_tree_is_pinned(graph, config, monkeypatch):
    res = solve_tree_graph(graph, config, monkeypatch, canonical=True)
    assert res.verdict is Verdict.ONE_PLANAR
    assert res.stats.used_skew_pass is (graph == "random12")
    assert tree_counts(res) == PINNED_TREES[graph, config]


@pytest.mark.parametrize("graph,config", sorted(PRUNED_TREES))
def test_pruned_search_tree_is_pinned(graph, config, monkeypatch):
    res = solve_tree_graph(graph, config, monkeypatch, canonical=False)
    assert res.verdict is Verdict.ONE_PLANAR
    assert tree_counts(res) == PRUNED_TREES[graph, config]


def order_digest(graph, config, monkeypatch, canonical: bool) -> str:
    """sha256 over the "cursor kind reason" line of every node test_block
    classifies, in visiting order.  A 1-child that push refuses is hashed
    as the line its classification gave."""
    original = SearchState.classify
    digest = hashlib.sha256()

    def recording(state, cfg, rng, stats):
        v = original(state, cfg, rng, stats)
        reason = v.cut_reason or v.solution_kind
        digest.update(f"{state.cursor} {v.kind.name} {reason and reason.name}\n".encode())
        return v

    def recording_push(state, bit):
        v = _push(state, bit)
        if v is not None:
            digest.update(f"{state.cursor + 1} CUT {v.cut_reason.name}\n".encode())
        return v

    monkeypatch.setattr(SearchState, "classify", recording)
    monkeypatch.setattr(SearchState, "push", recording_push)
    res = solve_tree_graph(graph, config, monkeypatch, canonical)
    assert res.verdict is Verdict.ONE_PLANAR
    return digest.hexdigest()


# Digests of the canonical search, recorded with the search that kept an
# explicit stack of siblings still to visit.  K6's digests are recorded
# with the capacity cut, which changes its tree.
PINNED_ORDERS = {
    ("K6", "default"): "e576dd8d42afaee10c2094ba3d0f9b99498d4061a130deedee985bfae08d8858",
    ("K6", "p=0.5"): "e576dd8d42afaee10c2094ba3d0f9b99498d4061a130deedee985bfae08d8858",
    ("K6", "p=0"): "e576dd8d42afaee10c2094ba3d0f9b99498d4061a130deedee985bfae08d8858",
    ("K4,4", "default"): "74580db65aaaf60d822a303250ff2106145a14d1d35935ec603229c44dc2c2ee",
    ("K4,4", "p=0.5"): "74580db65aaaf60d822a303250ff2106145a14d1d35935ec603229c44dc2c2ee",
    ("K4,4", "p=0"): "74580db65aaaf60d822a303250ff2106145a14d1d35935ec603229c44dc2c2ee",
    ("random12", "default"): "224f7c1b18bbf77f62c0a773605125ef66f9549865736e5c4e5b05b08107144c",
    ("random12", "p=0.5"): "224f7c1b18bbf77f62c0a773605125ef66f9549865736e5c4e5b05b08107144c",
    ("random12", "p=0"): "8a271f6688494ee7362bb126608feaf8fa21246ca204297779ca86718d77a07d",
}
# the same under twin-orbit branching, recorded when it was introduced
PRUNED_ORDERS = {
    ("K6", "default"): "6ce29d88f4337d62eba56312896a212b623719e8ff209b0dcf0182194eb37a2b",
    ("K6", "p=0.5"): "6ce29d88f4337d62eba56312896a212b623719e8ff209b0dcf0182194eb37a2b",
    ("K6", "p=0"): "6ce29d88f4337d62eba56312896a212b623719e8ff209b0dcf0182194eb37a2b",
    ("K4,4", "default"): "642f88b8eac0f80fbf37a8a1fdbbf12b7378585f0df5492360f205997262d421",
    ("K4,4", "p=0.5"): "642f88b8eac0f80fbf37a8a1fdbbf12b7378585f0df5492360f205997262d421",
    ("K4,4", "p=0"): "642f88b8eac0f80fbf37a8a1fdbbf12b7378585f0df5492360f205997262d421",
} | _from_random12(PINNED_ORDERS)


@pytest.mark.parametrize("graph,config", sorted(PINNED_ORDERS))
def test_search_order_is_pinned(graph, config, monkeypatch):
    assert order_digest(graph, config, monkeypatch, canonical=True) == PINNED_ORDERS[graph, config]


@pytest.mark.parametrize("graph,config", sorted(PRUNED_ORDERS))
def test_pruned_search_order_is_pinned(graph, config, monkeypatch):
    got = order_digest(graph, config, monkeypatch, canonical=False)
    assert got == PRUNED_ORDERS[graph, config]


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
        assert count_crossings(merge_one_block(grid_graph(4, 4), res.certificate)) == 0
        assert res.stats.used_backtracking is False
        assert res.stats.nodes_visited == 0

    def test_k5_uses_skew_pass(self):
        res = solve_block(complete_graph(5), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert count_crossings(merge_one_block(complete_graph(5), res.certificate)) == 1
        assert res.stats.used_skew_pass is True
        assert res.stats.nodes_visited == 5

    def test_k6_needs_full_search(self):
        res = solve_block(complete_graph(6), SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        emb = merge_one_block(complete_graph(6), res.certificate)
        assert count_crossings(emb) == 3
        assert res.stats.used_skew_pass is False
        assert validate(complete_graph(6), emb)

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
        assert validate(petersen_graph(), merge_one_block(petersen_graph(), res.certificate))

    def test_small_graphs_always_admit_drawings(self, rng: random.Random):
        # Every graph on fewer than 7 vertices has a drawing; the driver
        # must find one rather than report a negative.
        for _ in range(30):
            n = rng.randrange(1, 7)
            mmax = n * (n - 1) // 2
            g = random_connected_graph(n, rng.randrange(max(0, n - 1), mmax + 1), rng)
            res = solve_block(g, SearchConfig())
            assert res.verdict is Verdict.ONE_PLANAR
            assert validate(g, merge_one_block(g, res.certificate))

    def test_expired_deadline_yields_unknown(self):
        # K6 passes the density gate, so the exhausted clock must stop the
        # backtracking itself and surface as Unknown, not as a negative.
        g = complete_graph(6)
        res = solve_block(
            g, SearchConfig(skew_set_size=0), deadline=time.monotonic() - 1.0
        )
        assert res.verdict is Verdict.UNKNOWN and res.certificate is None
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
        assert res.verdict is Verdict.UNKNOWN and res.certificate is None
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
