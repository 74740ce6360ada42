"""Twin classes, pair orbits and the twin-orbit rule of the search.

The canonical search, `backtrack` on `canonical_universe`, visits every
branch; the default search skips the 1-children that a swap of twin
vertices maps onto an earlier branch.  These tests check the orbits
against the group they stand for, the rule against the canonical tree,
and the verdicts against the canonical search and known answers.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oneplanar.search as search_module
from conftest import complete_bipartite, complete_graph, petersen_graph, random_connected_graph
from oneplanar.cli import run_pipeline
from oneplanar.embedding import validate
from oneplanar.graph import Graph, biconnected_components, build_graph
from oneplanar.pairs import build_restricted_universe, build_universe, twin_classes
from oneplanar.search import SearchConfig, SearchState, SearchStats, Verdict, backtrack
from oneplanar.search import test_block as solve_block
from reference import canonical_universe
from test_search import fail_full_queries, scale_instance


def complete_minus(n: int, dropped) -> Graph:
    return build_graph(n, [e for e in complete_graph(n).edges if e not in dropped])


def complete_minus_up_to(n: int, sizes) -> list[Graph]:
    """Every labelled K_n minus F, for each size of F in `sizes`."""
    edges = complete_graph(n).edges
    return [complete_minus(n, dropped) for size in sizes
            for dropped in itertools.combinations(edges, size)]


def twin_partition(g: Graph) -> set[frozenset[int]]:
    """The twin classes by their definition, without `twin_classes`."""
    nb = [frozenset(g.neighbors(v)) for v in range(g.n)]
    return {frozenset(u for u in range(g.n) if nb[u] == nb[v] or nb[u] | {u} == nb[v] | {v})
            for v in range(g.n)}


def rand12(variant: int) -> Graph:
    """Variant `variant` of the benchmark's rand12 family."""
    return random_connected_graph(12, 22, random.Random(f"rand/{variant}"))


# the rand12 variants the benchmark runs
RAND12_VARIANTS = (2, 4, 14, 17, 50, 95, 112, 158)

_SMALL_GRAPHS = {
    "K6": lambda: complete_graph(6),
    "K4,4": lambda: complete_bipartite(4, 4),
    "K3,5": lambda: complete_bipartite(3, 5),
    "K7-e": lambda: complete_minus(7, [(0, 1)]),
    "K7-P3": lambda: complete_minus(7, [(0, 1), (1, 2)]),
    "K7-2match": lambda: complete_minus(7, [(0, 1), (2, 3)]),
    "Petersen": petersen_graph,
}


class TestTwinClasses:
    def test_known_classes(self):
        assert twin_classes(complete_minus(7, [(0, 1)])) == [0, 0, 2, 2, 2, 2, 2]
        assert twin_classes(complete_bipartite(4, 4)) == [0, 0, 0, 0, 4, 4, 4, 4]
        assert twin_classes(complete_graph(5)) == [0] * 5
        assert twin_classes(petersen_graph()) == list(range(10))

    def test_match_neighbourhoods(self, rng: random.Random):
        # u and v share a class exactly when N(u) = N(v) or N[u] = N[v],
        # and swapping them is then an automorphism
        for _ in range(300):
            n = rng.randrange(2, 8)
            g = random_connected_graph(n, rng.randrange(n - 1, n * (n - 1) // 2 + 1), rng)
            classes = twin_classes(g)
            nb = [set(g.neighbors(v)) for v in range(g.n)]
            edges = set(g.edges)
            for u, v in itertools.combinations(range(n), 2):
                twins = nb[u] == nb[v] or nb[u] | {u} == nb[v] | {v}
                assert (classes[u] == classes[v]) is twins
                if twins:
                    swap = {u: v, v: u}
                    image = {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges}
                    assert image == edges
            assert all(classes[c] == c <= v for v, c in enumerate(classes))


def orbits_by_closure(g: Graph) -> list[int]:
    """Each pair's orbit under the group of twin swaps, as the smallest
    position reachable by applying swaps one at a time."""
    u = build_universe(g)
    classes = twin_classes(g)
    index = {pair: i for i, pair in enumerate(u.pairs)}
    swaps = [(a, b) for a, b in itertools.combinations(range(g.n), 2) if classes[a] == classes[b]]
    orbit = list(range(u.k))
    for start in range(u.k):
        if orbit[start] != start:
            continue
        todo = [start]
        while todo:
            i = todo.pop()
            for a, b in swaps:
                swap = {a: b, b: a}
                image = []
                for e in u.pairs[i]:
                    x, y = (swap.get(w, w) for w in g.edges[e])
                    image.append(g.edge_between(x, y))
                j = index[tuple(sorted(image))]
                if orbit[j] == j and j != start:
                    orbit[j] = start
                    todo.append(j)
    return orbit


class TestOrbits:
    @pytest.mark.parametrize("name", sorted(_SMALL_GRAPHS))
    def test_orbits_are_the_twin_group_orbits(self, name):
        g = _SMALL_GRAPHS[name]()
        assert list(build_universe(g).orbit) == orbits_by_closure(g)

    def test_random_graphs(self, rng: random.Random):
        for _ in range(60):
            n = rng.randrange(4, 9)
            g = random_connected_graph(n, rng.randrange(n, n * (n - 1) // 2 + 1), rng)
            assert list(build_universe(g).orbit) == orbits_by_closure(g)

    def test_restricted_universe_has_identity_orbit(self):
        g = complete_graph(6)
        u = build_restricted_universe(g, [0, 1, 2])
        assert u.orbit == tuple(range(u.k))

    @pytest.mark.parametrize("name", ["scale6"] + [f"rand12/{v}" for v in RAND12_VARIANTS])
    def test_benchmark_graphs(self, name):
        # scale6 and every rand12 variant but 95 are twin-free in each
        # block, so their trees are the canonical ones; rand12/95 has the
        # true twins 1 and 4
        g = scale_instance(6) if name == "scale6" else rand12(int(name.split("/")[1]))
        for block in biconnected_components(g).blocks:
            u = build_universe(block.graph)
            if name == "rand12/95" and block.graph.n > 2:
                twins = {c for c in twin_partition(block.graph) if len(c) > 1}
                assert twins == {frozenset(block.vertex_map.index(v) for v in (1, 4))}
                assert u.orbit != tuple(range(u.k))
            else:
                assert u.orbit == tuple(range(u.k))


def classified_prefixes(g: Graph, universe) -> tuple[list[tuple[int, ...]], SearchStats]:
    """The prefix of every node the search classifies, in order, with every
    full star graph query failing, so that no node is a solution and the
    search exhausts the universe."""
    prefixes = []
    original = SearchState.classify

    def recording(state, stats):
        prefixes.append(tuple(state.bits[: state.cursor]))
        return original(state, stats)

    stats = SearchStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SearchState, "classify", recording)
        fail_full_queries(mp)
        assert backtrack(g, universe, SearchConfig(), stats)[0] is Verdict.NOT_ONE_PLANAR
    return prefixes, stats


def keeps_rule(orbit, prefix) -> bool:
    """No crossing of the prefix lies in an orbit that opens before its
    first crossing; so that one opens its own orbit."""
    ones = [d for d, bit in enumerate(prefix) if bit]
    return all(orbit[d] >= ones[0] for d in ones)


class TestRule:
    @pytest.mark.parametrize("name", ["K6", "K4,4", "K7-2match", "K7-e"])
    def test_pruned_tree_is_the_canonical_tree_minus_skipped_branches(self, name):
        # Run to exhaustion, the trees differ only by the rule: the pruned
        # search classifies, in the same order, the nodes of the canonical
        # search whose prefix keeps it; a skipped 1-child is neither a node
        # nor a cut
        g = _SMALL_GRAPHS[name]()
        u = build_universe(g)
        pruned, stats = classified_prefixes(g, u)
        canonical, _ = classified_prefixes(g, canonical_universe(g))
        assert pruned == [p for p in canonical if keeps_rule(u.orbit, p)]
        assert len(pruned) < len(canonical)
        assert stats.nodes_visited == len(pruned) + stats.cuts_dec + stats.cuts_kec


# the K_{a,b} verdicts of Czap and Hudak's characterisation of 1-planar
# complete bipartite graphs, with the node counts of test_block and a time
# budget the canonical search overruns
KNOWN_BIPARTITE = {
    "K4,4": ((4, 4), "OnePlanar", 793, 10.0),
    "K3,6": ((3, 6), "OnePlanar", 7_765, 10.0),
    # the canonical search takes 1,984,411 nodes and 21.7 s
    "K4,5": ((4, 5), "NotOnePlanar", 53_498, 10.0),
    # the canonical search takes 7,271,963 nodes and 78.7 s
    "K3,7": ((3, 7), "NotOnePlanar", 230_503, 60.0),
}


@pytest.mark.parametrize("name", [
    "K4,4", "K3,6", "K4,5", pytest.param("K3,7", marks=pytest.mark.slow),
])
def test_complete_bipartite_known_answers(name):
    (a, b), want, nodes, budget = KNOWN_BIPARTITE[name]
    g = complete_bipartite(a, b)
    res = solve_block(g, SearchConfig(time_budget=budget))
    assert res.verdict.value == want
    assert res.stats.nodes_visited == nodes
    record, emb = run_pipeline(g, SearchConfig(time_budget=budget))
    assert record.verdict == want
    if want == "OnePlanar":
        assert validate(g, emb)


def verdict_disagreements(graphs, canonical_verdict) -> list[int]:
    """Indices of the graphs whose test_block verdict differs from
    `canonical_verdict(i, g)` or is Unknown."""
    bad = []
    for i, g in enumerate(graphs):
        got = solve_block(g, SearchConfig()).verdict
        if got is Verdict.UNKNOWN or got is not canonical_verdict(i, g):
            bad.append(i)
    return bad


def canonical_block_verdict(g: Graph) -> Verdict:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "build_universe", canonical_universe)
        return solve_block(g, SearchConfig()).verdict


def test_verdicts_match_canonical_search():
    # K6 minus at most 2 edges, each against its own canonical run; the 231
    # K7 minus 1 or 2 edges against the canonical run of their isomorphism
    # class (K7-e, K7-P3, K7-2match), since the verdict is a graph invariant
    small = complete_minus_up_to(6, (0, 1, 2))
    assert verdict_disagreements(small, lambda i, g: canonical_block_verdict(g)) == []
    by_class = {kind: canonical_block_verdict(_SMALL_GRAPHS[kind]())
                for kind in ("K7-e", "K7-P3", "K7-2match")}
    assert by_class == {"K7-e": Verdict.NOT_ONE_PLANAR, "K7-P3": Verdict.NOT_ONE_PLANAR,
                        "K7-2match": Verdict.ONE_PLANAR}
    edges = complete_graph(7).edges
    dropped = [d for size in (1, 2) for d in itertools.combinations(edges, size)]

    def kind(i, g):
        d = dropped[i]
        if len(d) == 1:
            return by_class["K7-e"]
        return by_class["K7-P3" if set(d[0]) & set(d[1]) else "K7-2match"]

    big = [complete_minus(7, d) for d in dropped]
    assert len(small) + len(big) == 352
    assert verdict_disagreements(big, kind) == []


@pytest.mark.slow
def test_verdicts_match_canonical_search_on_every_labelling():
    # the 1,682 labelled graphs K6 minus at most 2 edges and K7 minus 1 to 3
    # edges (all within 4n - 8), each against its own canonical run
    graphs = complete_minus_up_to(6, (0, 1, 2)) + complete_minus_up_to(7, (1, 2, 3))
    assert len(graphs) == 1682
    assert verdict_disagreements(graphs, lambda i, g: canonical_block_verdict(g)) == []


@pytest.mark.parametrize("name,want", [
    ("K7-e", "NotOnePlanar"), ("K7-P3", "NotOnePlanar"),
    ("K7-2match", "OnePlanar"), ("K4,4", "OnePlanar"),
])
def test_verdict_invariant_under_relabellings_that_move_twins(name, want):
    # the relabelled edges are sorted, so edge ids, pair order and orbits
    # move with the twins and the search tree differs
    g = _SMALL_GRAPHS[name]()
    twins = twin_partition(g)
    rng = random.Random(name)
    perms = []
    while len(perms) < 10:
        perm = list(range(g.n))
        rng.shuffle(perm)
        if {frozenset(perm[v] for v in c) for c in twins} != twins:
            perms.append(perm)
    nodes = set()
    for perm in perms:
        h = build_graph(g.n, sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges))
        record, emb = run_pipeline(h, SearchConfig(time_budget=60.0))
        assert record.verdict == want
        assert (emb is not None and validate(h, emb)) is (want == "OnePlanar")
        nodes.add(record.nodes)
    assert len(nodes) > 1
