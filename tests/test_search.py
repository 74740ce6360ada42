"""Node verification, backtracking search, skew restriction, block driver."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time

import networkx as nx
import pytest

import oneplanar.planarity as planarity_module
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
    capacity_short,
    classify_prefix,
    crossing_counts,
    decided_pairs,
    edge_mask,
    find_kite_edges,
    prefix_cut,
    saturated_edges,
    without_kites,
)

# the unpatched methods, for tests that wrap them on the class
_push, _classify = SearchState.push, SearchState.classify


def replay(g, universe, bits, stats=None) -> NodeVerdict:
    """The verdict of the node a bit prefix reaches: the cut of its first
    push that is refused, or else the classification of the node after
    the last bit.  That classification holds when the prefix is empty,
    ends with a 1, or ends with a 0 below a node the search would extend
    (see :meth:`SearchState.classify`); `classify_prefix` classifies any
    prefix."""
    state = SearchState(g, universe)
    for bit in bits:
        cut = _push(state, bit)
        if cut is not None:
            return cut
    return _classify(state, SearchStats() if stats is None else stats)


def fail_full_queries(monkeypatch) -> None:
    """Make every full star graph query fail: no zero completion and no
    saturated node is a solution, so a search runs to exhaustion and its
    open nodes are the ones the saturated-subgraph query lets through."""
    monkeypatch.setattr(search_module, "rotation_edges", lambda n, edges: None)


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

    def test_root_continues_without_completion(self, monkeypatch):
        # K4's root passes its saturated-subgraph query; with its zero
        # completion failing, it is a node to extend
        fail_full_queries(monkeypatch)
        g = complete_graph(4)
        v = replay(g, build_universe(g), [])
        assert v.kind is NodeKind.CNT

    def test_double_crossing_cut(self):
        g = complete_graph(5)
        # (0,7) and (0,8) cross edge 0
        v = replay(g, build_universe(g), [1, 1])
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.DOUBLE_EDGE_CROSSING

    def test_kite_edge_cut(self):
        # Cross (0,1)x(3,4), then cross kite edge (0,3) with (2,4).
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1  # pair (0,9)
        bits[8] = 1  # pair (2,8)
        v = replay(g, build_universe(g), bits)
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.KITE_EDGE_CROSSING

    def test_kite_cut_needs_kite_pruning(self, monkeypatch):
        # the KEC cut comes from the kite masks alone
        without_kites(monkeypatch)
        g = complete_graph(5)
        bits = [0] * 9
        bits[2] = 1
        bits[8] = 1
        v = replay(g, build_universe(g), bits)
        assert v.cut_reason is not CutReason.KITE_EDGE_CROSSING

    def test_saturated_nonplanar_cut(self):
        g = complete_graph(5)
        u = build_universe(g)
        # no crossings at all: K5 itself
        v = replay(g, u, [0] * u.k)
        assert v.kind is NodeKind.CUT
        assert v.cut_reason is CutReason.NONPLANAR_INDUCED

    def test_full_assignment_solution_by_saturation(self):
        g = complete_graph(5)
        u = build_universe(g)
        bits = [0] * u.k
        bits[2] = 1  # only (0,9)
        # the path passes through the solution the search finds at depth 3
        v = classify_prefix(g, u, bits)
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION
        assert v.crossings == ((0, 9),)
        assert v.star_rotation is not None

    def test_restricted_solution_before_full_depth(self):
        # In the K5 universe restricted to edge 0, one crossing saturates
        # everything after a single decision.
        g = complete_graph(5)
        u = build_restricted_universe(g, [0])
        v = replay(g, u, [1])
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.SATURATION

    def test_root_completion_certifies_planar_graph(self):
        # the root of a planar graph completes with all zeros to a drawing
        # without crossings
        g = complete_graph(4)
        v = replay(g, build_universe(g), [])
        assert v.kind is NodeKind.SOL
        assert v.solution_kind is SolutionKind.COMPLETION
        assert v.crossings == ()

    def test_completion_failure_continues(self):
        # K5 with nothing crossed completes to a nonplanar drawing, so the
        # node survives its zero completion
        g = complete_graph(5)
        v = replay(g, build_universe(g), [])
        assert v.kind is NodeKind.CNT

    def test_cut_nodes_try_no_completion(self, monkeypatch):
        # the zero completion comes after every cut: a node that is cut
        # before it is saturated asks no full star graph query
        runs = 0

        def counting(n, edges):
            nonlocal runs
            runs += 1
            return rotation_edges(n, edges)

        cut_open = 0

        def checking(state, stats):
            nonlocal cut_open
            before = runs
            v = _classify(state, stats)
            if v.kind is NodeKind.CUT and state.saturated() != (1 << state.g.m) - 1:
                cut_open += 1
                assert runs == before
            return v

        monkeypatch.setattr(search_module, "rotation_edges", counting)
        monkeypatch.setattr(SearchState, "classify", checking)
        g = complete_graph(6)
        verdict, _ = backtrack(g, canonical_universe(g), SearchStats())
        assert verdict is Verdict.ONE_PLANAR
        assert cut_open > 0 and runs > 0

    def test_stats_track_planarity_calls(self):
        g = complete_graph(5)
        u = build_universe(g)
        stats = SearchStats()
        replay(g, u, [1, 1], stats)
        assert stats.planarity_calls == 0  # cut before any planarity work
        classify_prefix(g, u, [0] * u.k, stats=stats)
        assert stats.planarity_calls == 1

    def test_cut_is_monotone_under_extension(self, rng: random.Random):
        # Once a prefix is cut for a structural reason, every extension is
        # cut as well (possibly for an earlier reason in the chain), and the
        # reference finds a doubled or crossed kite edge in both.
        g = complete_graph(5)
        u = build_universe(g)
        found = 0
        while found < 25:
            depth = rng.randrange(1, u.k)
            bits = [rng.randrange(2) for _ in range(depth)]
            v = replay(g, u, bits)
            if v.kind is not NodeKind.CUT:
                continue
            if v.cut_reason is CutReason.NONPLANAR_INDUCED:
                continue  # planarity cuts argue over saturated edges only
            found += 1
            assert prefix_cut(g, u, bits, kite=True) is not None
            for _ in range(4):
                ext = bits + [rng.randrange(2) for _ in range(u.k - depth)]
                ve = replay(g, u, ext)
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
    """With the kite masks taken out, a cut prefix truly has no workable
    extension."""

    def test_on_small_graphs(self, monkeypatch, rng: random.Random):
        without_kites(monkeypatch)
        checked = 0
        while checked < 60:
            g = random_connected_graph(5, rng.randrange(5, 9), rng)
            u = build_universe(g)
            if not 0 < u.k <= 10:
                continue
            depth = rng.randrange(1, u.k + 1)
            bits = [rng.randrange(2) for _ in range(depth)]
            v = classify_prefix(g, u, bits, kite=False)
            if v.kind is NodeKind.CUT:
                checked += 1
                assert not true_extension_exists(g, u, bits)


class TestBacktrack:
    def test_k4_zero_spine(self):
        # The root's zero completion is the leaf at the end of the all-zeros
        # spine: K4 is certified at the root, with one saturated-subgraph
        # query and one full query, and the spine is never walked.
        g = complete_graph(4)
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), stats)
        assert verdict is Verdict.ONE_PLANAR
        assert count_crossings(merge_one_block(g, cert)) == 0
        assert stats.nodes_visited == stats.sol_compl == 1
        assert stats.planarity_calls == 2
        assert stats.cuts_dec == stats.cuts_kec == stats.cuts_nonplanar == 0

    def test_graphs_on_two_vertices_or_fewer(self):
        # 3n - 6 bounds the edges of planar graphs on three vertices or
        # more only: an edge or a lone vertex is a saturation solution
        for g in (build_graph(1, []), build_graph(2, [(0, 1)])):
            stats = SearchStats()
            verdict, cert = backtrack(g, build_universe(g), stats)
            assert verdict is Verdict.ONE_PLANAR and cert.crossings == ()
            assert stats.nodes_visited == stats.sol_satur == stats.planarity_calls == 1

    def test_k5_restricted(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, cert = backtrack(g, build_restricted_universe(g, [0]), stats)
        assert verdict is Verdict.ONE_PLANAR
        emb = merge_one_block(g, cert)
        assert count_crossings(emb) == 1
        assert validate(g, emb)
        assert stats.nodes_visited == 5
        assert stats.cuts_nonplanar == 1 and stats.sol_satur == 1

    def test_k5_full_universe(self):
        g = complete_graph(5)
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), stats)
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
        verdict, cert = backtrack(g, u, stats)
        assert verdict is Verdict.UNKNOWN and cert is None
        assert stats.cuts_dec > 0 or stats.cuts_nonplanar > 0

    def test_full_exhaustion_is_negative(self):
        # Padded K7: verdict comes from exhausting the full universe.
        g = complete_graph(7)
        stats = SearchStats()
        verdict, cert = backtrack(g, canonical_universe(g), stats)
        assert verdict is Verdict.NOT_ONE_PLANAR and cert is None
        assert stats.nodes_visited == 45_275

    def test_twin_orbits_exhaust_with_fewer_nodes(self):
        # K7's vertices are all twins, so its pairs form one orbit: every
        # crossing set is explored only with the first pair crossed
        g = complete_graph(7)
        assert set(build_universe(g).orbit) == {0}
        stats = SearchStats()
        verdict, cert = backtrack(g, build_universe(g), stats)
        assert verdict is Verdict.NOT_ONE_PLANAR and cert is None
        assert stats.nodes_visited == 1_628

    def test_deadline_returns_unknown(self):
        # the canonical search, since the twin orbits decide K7 in 1,628 nodes
        g = complete_graph(7)
        stats = SearchStats()
        verdict, cert = backtrack(
            g, canonical_universe(g), stats, deadline=time.monotonic() + 0.05
        )
        assert verdict is Verdict.UNKNOWN and cert is None

    def test_deterministic_stats(self):
        g = complete_graph(6)
        runs = []
        for _ in range(2):
            stats = SearchStats()
            verdict, cert = backtrack(g, build_universe(g), stats)
            text = serialize_embedding(merge_one_block(g, cert))
            runs.append((verdict, text, stats.nodes_visited,
                         stats.cuts_dec, stats.cuts_kec, stats.cuts_nonplanar,
                         stats.sol_satur, stats.sol_compl))
        assert runs[0] == runs[1]


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
    """Every mask of the node at the cursor, at its crossing count, equals
    what the reference functions compute from the decided prefix alone,
    and the prefix crosses no edge twice and (with kites) no kite edge."""
    u, bits, c = state.universe, state.bits[: state.cursor], len(state.crossings)
    pairs = decided_pairs(u, bits)
    counts = crossing_counts(u, bits)
    kites = find_kite_edges(g, pairs) if kite else set()
    assert prefix_cut(g, u, bits, kite) is None
    assert state.crossings == pairs
    assert state.crossed[c] == edge_mask(e for e, n in enumerate(counts) if n)
    assert state.kites[c] == edge_mask(kites)
    assert state.saturated() == edge_mask(saturated_edges(u, bits, kites))
    assert state.crossed[c] & state.kites[c] == edge_mask(e for e in kites if counts[e]) == 0


def snapshot(state: SearchState) -> dict:
    """Every attribute of the state, its lists copied."""
    return {name: list(v) if isinstance(v, list) else v for name, v in vars(state).items()}


class TestSearchState:
    """The masks push writes match the from-scratch reference functions at
    every node, and every node's verdict matches the one `classify_prefix`
    works out from the prefix alone, asking every query; `classify` writes
    nothing on the state."""

    MAX_NODES = 800

    @pytest.mark.parametrize("g", _state_differential_cases())
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("kite", [True, False], ids=["kite", "nokite"])
    def test_matches_reference_at_every_node(self, monkeypatch, g, restricted, kite):
        if not kite:
            without_kites(monkeypatch)
        seen = []

        def checking(state, stats):
            assert_state_matches_reference(state, g, kite)
            want = classify_prefix(g, state.universe, state.bits[: state.cursor], kite)
            before = snapshot(state)
            got = _classify(state, stats)
            assert snapshot(state) == before
            assert got == want
            seen.append(got.kind)
            if len(seen) >= self.MAX_NODES:
                raise _Enough
            return got

        monkeypatch.setattr(SearchState, "classify", checking)
        if restricted:
            u = build_restricted_universe(g, find_skew_set(g, 1) or [0, 1])
        else:
            u = build_universe(g)
        try:
            backtrack(g, u, SearchStats())
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
        for (g, u), kite in itertools.product(cases, (True, False)):
            with pytest.MonkeyPatch.context() as mp:
                if not kite:
                    without_kites(mp)
                state = SearchState(g, u)
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
                        elif not bit:
                            # an accepted 0 changes no crossing and no mask
                            assert before[1:] == (state.crossings, state.crossed,
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
        verdict, _ = backtrack(g, build_universe(g), stats)
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
        if not kite:
            without_kites(monkeypatch)
        cuts = {CutReason.DOUBLE_EDGE_CROSSING: 0, CutReason.KITE_EDGE_CROSSING: 0}
        classified = 0

        def checking_push(state, bit):
            want = prefix_cut(g, state.universe, state.bits[: state.cursor] + [bit], kite)
            v = _push(state, bit)
            assert (v and v.cut_reason) is want
            if v is not None:
                cuts[v.cut_reason] += 1
            return v

        def counting_classify(state, stats):
            nonlocal classified
            classified += 1
            if classified > self.MAX_NODES.get(graph, 10**9):
                raise _Enough
            return _classify(state, stats)

        monkeypatch.setattr(SearchState, "push", checking_push)
        monkeypatch.setattr(SearchState, "classify", counting_classify)
        u = build_restricted_universe(g, [0, 1]) if restricted else build_universe(g)
        stats = SearchStats()
        try:
            backtrack(g, u, stats)
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

        def checking(state, stats):
            nonlocal classified
            asked, ran = stats.planarity_calls, runs
            v = original(state, stats)
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
    return len(sat) < g.m and capacity_short(g, u, sat, len(pairs))


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
        if not kite:
            without_kites(monkeypatch)
        original = SearchState.classify
        classified = cuts = checked = 0

        def checking(state, stats):
            nonlocal classified, cuts, checked
            asked = stats.planarity_calls
            v = original(state, stats)
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
            backtrack(g, u, SearchStats())
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

        def counting(state, stats):
            nonlocal cuts
            asked = stats.planarity_calls
            v = original(state, stats)
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


def solve_tree_graph(graph, config, monkeypatch, canonical: bool):
    """test_block on a `_TREE_GRAPHS` graph; `canonical` swaps its full
    universe for `canonical_universe`, the search without twin orbits, and
    the config "no kite" takes the kite masks out (`without_kites`).  The
    config "p=1" names the zero completion tried at a node with
    probability 1; the search now always tries it, so "p=1" runs the
    default search and keeps the pins recorded under that name."""
    if canonical:
        monkeypatch.setattr(search_module, "build_universe", canonical_universe)
    if config == "no kite":
        without_kites(monkeypatch)
    return solve_block(_TREE_GRAPHS[graph](), SearchConfig())


# random12 has no twins: its orbits are the identity, so the search with
# twin orbits keeps its canonical pins
def _from_random12(pins: dict) -> dict:
    return {key: pin for key, pin in pins.items() if key[0] == "random12"}


# planarity_calls of the canonical test_block with the zero completion
# tried at every open node; K6's with the capacity cut, which changes its
# tree
PINNED_CALLS = {"K6": 56, "K4,4": 2549, "random12": 680}
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
# cuts_nonplanar, sol_satur, sol_compl), recorded there with the zero
# completion tried at a node with probability 1, as the search now tries
# it at every node.  K6 has m > 3n - 6, so the capacity cut changes its
# tree: its counts are recorded with the cut.  K4,4 and random12 are below
# the bound and keep theirs.  The "no kite" counts were recorded with kite
# pruning switched off, which `without_kites` reproduces.
PINNED_TREES = {
    ("K6", "default"): (326, 32, 66, 47, 1, 0),
    ("K6", "p=1"): (326, 32, 66, 47, 1, 0),
    ("K6", "no kite"): (2118, 407, 0, 634, 0, 1),
    ("K4,4", "default"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "p=1"): (15624, 3648, 3174, 964, 1, 0),
    ("K4,4", "no kite"): (63440, 17972, 0, 13722, 0, 1),
    ("random12", "default"): (2244, 430, 275, 351, 0, 1),
    ("random12", "p=1"): (2244, 430, 275, 351, 0, 1),
    ("random12", "no kite"): (3630, 787, 0, 962, 0, 1),
}
# the same under twin-orbit branching, recorded when it was introduced
PRUNED_TREES = {
    ("K6", "default"): (120, 5, 8, 8, 1, 0),
    ("K6", "p=1"): (120, 5, 8, 8, 1, 0),
    ("K6", "no kite"): (240, 35, 0, 46, 0, 1),
    ("K4,4", "default"): (793, 132, 139, 61, 1, 0),
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

    def recording(state, stats):
        v = original(state, stats)
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


# Digests of the canonical search.  K6's and K4,4's were recorded with the
# search that kept an explicit stack of siblings still to visit, K6's with
# the capacity cut, which changes its tree; random12's when the zero
# completion came to be tried at every open node.
PINNED_ORDERS = {
    ("K6", "default"): "e576dd8d42afaee10c2094ba3d0f9b99498d4061a130deedee985bfae08d8858",
    ("K4,4", "default"): "74580db65aaaf60d822a303250ff2106145a14d1d35935ec603229c44dc2c2ee",
    ("random12", "default"): "ee8b90829f2fb1bf229d5d04840159565866bd824aab6460aeaf45773ac9bb9c",
}
# the same under twin-orbit branching, recorded when it was introduced
PRUNED_ORDERS = {
    ("K6", "default"): "6ce29d88f4337d62eba56312896a212b623719e8ff209b0dcf0182194eb37a2b",
    ("K4,4", "default"): "642f88b8eac0f80fbf37a8a1fdbbf12b7378585f0df5492360f205997262d421",
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


class TestSearchConfig:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "skew_set_size", "time_budget"]

    @pytest.mark.parametrize("field,value", [
        ("skew_set_size", -1),
        ("skew_set_size", 1.0),
        ("skew_set_size", "2"),
        ("skew_set_size", True),
        ("time_budget", 0),
        ("time_budget", -1.0),
        ("time_budget", float("nan")),
    ])
    def test_bad_value_raises(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(SearchConfig(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("completion_probability", 0.5), ("rng_seed", 3), ("enable_kite_pruning", False),
    ])
    def test_removed_setting_raises(self, field, value):
        # an old script fails loudly instead of being silently ignored
        with pytest.raises(TypeError, match=field):
            SearchConfig(**{field: value})


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

    def test_passes_stats_to_backtrack_by_keyword(self, monkeypatch):
        # perfbench's span hook on backtrack reads `stats` by keyword, or
        # else at position 3, which backtrack no longer has
        calls = []
        original = search_module.backtrack

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(search_module, "backtrack", recording)
        res = solve_block(_TREE_GRAPHS["random12"](), SearchConfig())
        assert res.stats.used_skew_pass and len(calls) == 2  # restricted, then full
        assert all(kwargs["stats"] is res.stats for kwargs in calls)

    @pytest.mark.parametrize("graph,kernel_runs,nodes,calls",
                             [("K5", 1, 5, 6), ("K3,3", 3, 6, 7)])
    def test_small_blocks_run_the_lr_kernel_rarely(self, monkeypatch, graph, kernel_runs,
                                                  nodes, calls):
        # Every query on fewer than 9 edges or 6 vertices is answered by the
        # edge count; the kernel runs for rotations and larger star graphs.
        g = {"K5": complete_graph(5), "K3,3": complete_bipartite(3, 3)}[graph]
        runs = 0
        orient = planarity_module._orient

        def counting(*args):
            nonlocal runs
            runs += 1
            return orient(*args)

        monkeypatch.setattr(planarity_module, "_orient", counting)
        res = solve_block(g, SearchConfig())
        assert res.verdict is Verdict.ONE_PLANAR
        assert (runs, res.stats.nodes_visited, res.stats.planarity_calls) == (
            kernel_runs, nodes, calls)

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

    def test_kite_masks_leave_verdicts_unchanged(self, rng: random.Random):
        for _ in range(12):
            g = random_connected_graph(6, rng.randrange(6, 13), rng)
            verdicts = {solve_block(g, SearchConfig()).verdict}
            with pytest.MonkeyPatch.context() as mp:
                without_kites(mp)
                verdicts.add(solve_block(g, SearchConfig()).verdict)
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
