"""Planarity testing and combinatorial embeddings.

The reference route is a brute-force search over all rotation systems of a
graph: a graph is planar iff some rotation system satisfies Euler's formula
on every edge-bearing component.  That enumerator is independent of the
left-right test under scrutiny and feasible for small degree sequences.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import networkx as nx
import pytest

from conftest import (
    all_labeled_connected_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    wheel_graph,
)
from oneplanar.embedding import star_edge_list
from oneplanar.graph import Graph, build_graph
from oneplanar.pairs import build_universe
from oneplanar.planarity import (
    InconsistentRotationError,
    RotationSystem,
    euler_check,
    is_planar_edges,
    rotation_edges,
)
from oneplanar.planarity import test_planarity as check_planarity


def brute_force_planar(g: Graph) -> bool:
    """True iff some rotation system of g passes the Euler check."""
    fixed = [g.incidence[v] for v in range(g.n)]
    pools = [
        [inc[:1] + perm for perm in itertools.permutations(inc[1:])] if inc else [()]
        for inc in fixed
    ]
    for combo in itertools.product(*pools):
        if euler_check(g, RotationSystem(tuple(combo))):
            return True
    return False


class TestClassics:
    @pytest.mark.parametrize(
        "g,planar",
        [
            (complete_graph(4), True),
            (complete_graph(5), False),
            (complete_bipartite(3, 3), False),
            (complete_graph(6), False),
            (petersen_graph(), False),
            (grid_graph(4, 5), True),
            (wheel_graph(6), True),
            (cycle_graph(9), True),
            (path_graph(7), True),
            (build_graph(1, []), True),
            (build_graph(0, []), True),
        ],
        ids=["k4", "k5", "k33", "k6", "petersen", "grid", "wheel", "c9", "p7", "v1", "empty"],
    )
    def test_verdicts(self, g: Graph, planar: bool):
        verdict = check_planarity(g)
        assert verdict.planar is planar
        assert (verdict.rotation is not None) is planar

    def test_k5_minus_edge_planar(self):
        edges = list(itertools.combinations(range(5), 2))[1:]
        assert is_planar_edges(5, edges)

    def test_k33_minus_edge_planar(self):
        g = complete_bipartite(3, 3)
        assert is_planar_edges(6, list(g.edges[1:]))

    def test_subdivision_stays_nonplanar(self):
        # Subdivide every K5 edge once: still a K5 minor.
        g = complete_graph(5)
        edges = []
        for i, (u, v) in enumerate(g.edges):
            w = 5 + i
            edges += [(u, w), (w, v)]
        assert not is_planar_edges(15, edges)

    def test_dense_guard(self):
        # m > 3n - 6 refuses without running the left-right machinery.
        assert not is_planar_edges(7, list(itertools.combinations(range(7), 2)))


class TestAgainstBruteForce:
    def test_all_graphs_up_to_five_vertices(self):
        for g in all_labeled_connected_graphs(5):
            assert is_planar_edges(g.n, list(g.edges)) == brute_force_planar(g), g.edges

    def test_random_sparse_six_vertex(self, rng: random.Random):
        for _ in range(40):
            g = random_connected_graph(6, rng.randrange(5, 10), rng)
            assert is_planar_edges(g.n, list(g.edges)) == brute_force_planar(g), g.edges


class TestAgainstNetworkx:
    def test_random_graphs(self, rng: random.Random):
        for _ in range(400):
            n = rng.randrange(1, 12)
            mmax = n * (n - 1) // 2
            m = rng.randrange(0, mmax + 1) if n > 1 else 0
            edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
            h = nx.Graph(edges)
            h.add_nodes_from(range(n))
            assert is_planar_edges(n, edges) == nx.check_planarity(h, False)[0]


class TestSizeRule:
    """`is_planar_edges` answers a graph with fewer than 9 edges or fewer
    than 6 vertices by the 3n - 6 count alone; `rotation_edges` always runs
    the left-right test and is the reference here."""

    def test_every_graph_on_at_most_six_vertices(self):
        seen = {True: 0, False: 0}
        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [uv for i, uv in enumerate(pairs) if mask >> i & 1]
                want = rotation_edges(n, edges) is not None
                assert is_planar_edges(n, edges) is want, (n, edges)
                seen[want] += 1
        assert seen == {True: 33170, False: 698}, seen  # as networkx counts them

    @pytest.mark.parametrize("g", [complete_bipartite(3, 3), complete_graph(5)],
                             ids=["k33", "k5"])
    @pytest.mark.parametrize("shift", [0, 2], ids=["isolated last", "isolated first"])
    def test_kuratowski_graphs_with_isolated_vertices(self, g: Graph, shift: int):
        # K3,3 on 8 vertices (m 9) and K5 on 7 (m 10) pass the count
        edges = [(u + shift, v + shift) for u, v in g.edges]
        assert not is_planar_edges(g.n + 2, edges)
        assert rotation_edges(g.n + 2, edges) is None

    def test_sparse_graphs_against_networkx(self, rng: random.Random):
        for _ in range(400):
            n = rng.randrange(1, 21)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randrange(min(8, len(pairs)) + 1))
            assert is_planar_edges(n, edges) is nx_planar(n, edges), (n, edges)


class TestEmbeddings:
    def test_rotation_covers_incidence(self):
        g = complete_graph(4)
        rot = check_planarity(g).rotation
        assert rot is not None
        for v in range(4):
            assert sorted(rot.order[v]) == sorted(g.incidence[v])

    def test_embedding_passes_euler_check(self, rng: random.Random):
        found = 0
        while found < 150:
            n = rng.randrange(1, 11)
            m = rng.randrange(0, 2 * n) if n > 1 else 0
            g = random_connected_graph(n, m, rng)
            verdict = check_planarity(g)
            if not verdict.planar:
                continue
            found += 1
            assert euler_check(g, verdict.rotation)

    def test_rotation_edges_matches_test_planarity(self):
        g = grid_graph(3, 3)
        lists = rotation_edges(g.n, list(g.edges))
        assert lists is not None
        assert RotationSystem.from_lists(lists) == check_planarity(g).rotation

    def test_rotation_edges_none_for_nonplanar(self):
        g = complete_graph(5)
        assert rotation_edges(g.n, list(g.edges)) is None

    def test_deterministic(self):
        g = grid_graph(4, 4)
        assert check_planarity(g).rotation == check_planarity(g).rotation


def networkx_accepts(g: Graph, rs: RotationSystem) -> bool:
    """networkx's own Euler check of the rotation, read as clockwise rows."""
    emb = nx.PlanarEmbedding()
    emb.add_nodes_from(range(g.n))
    emb.set_data({v: [g.other_end(e, v) for e in rs.order[v]] for v in range(g.n)})
    try:
        emb.check_structure()
    except nx.NetworkXException:
        return False
    return True


class TestEulerCheck:
    def test_accepts_planar_rotation(self):
        g = cycle_graph(4)
        assert euler_check(g, RotationSystem.from_lists([[3, 0], [0, 1], [1, 2], [2, 3]]))

    def test_rejects_toroidal_rotation(self):
        # K4 with this rotation traces 2 faces: 4 - 6 + 2 = 0, genus one.
        g = complete_graph(4)
        bad = RotationSystem.from_lists([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 5, 4]])
        assert not euler_check(g, bad)
        assert brute_force_planar(g)

    def test_isolated_vertices_ignored(self):
        g = build_graph(4, [(0, 1)])
        assert euler_check(g, RotationSystem.from_lists([[0], [0], [], []]))

    def test_multiple_components(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rot = check_planarity(g).rotation
        assert euler_check(g, rot)

    def test_matches_networkx_on_random_rotations(self, rng: random.Random):
        # networkx's check_structure traces faces and applies Euler's
        # formula per component; euler_check applies it once, summed.
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randrange(2, 11)
            m = rng.randrange(0, min(2 * n, n * (n - 1) // 2) + 1)
            edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
            g = build_graph(n, edges)
            candidates = [[list(inc) for inc in g.incidence]]
            planar = check_planarity(g)
            if planar.planar:
                assert euler_check(g, planar.rotation)
                candidates.append([list(r) for r in planar.rotation.order])
            for base in list(candidates):
                shuffled = [list(r) for r in base]
                for r in shuffled:
                    rng.shuffle(r)
                candidates.append(shuffled)
            for lists in candidates:
                rs = RotationSystem.from_lists(lists)
                want = networkx_accepts(g, rs)
                assert euler_check(g, rs) == want, (edges, lists)
                verdicts[want] += 1
        assert min(verdicts.values()) > 100

    def test_rejects_toroidal_component_next_to_planar_one(self):
        # Components have V - E + F <= 2 each, so the planar triangle
        # cannot make up for the toroidal K4 in the one summed check.
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = build_graph(7, k4 + [(4, 5), (5, 6), (4, 6)])
        lists = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 5, 4], [6, 8], [6, 7], [7, 8]]
        rs = RotationSystem.from_lists(lists)
        assert not euler_check(g, rs)
        assert not networkx_accepts(g, rs)
        planar_k4 = check_planarity(complete_graph(4)).rotation.order
        fixed = RotationSystem.from_lists([list(r) for r in planar_k4] + lists[4:])
        assert euler_check(g, fixed) and networkx_accepts(g, fixed)

    @pytest.mark.parametrize(
        "lists",
        [
            [[0], [0]],                 # missing a vertex row
            [[0], [0], [], [], []],     # extra row
            [[0, 0], [0], []],          # duplicate dart at a vertex
            [[1], [0], []],             # edge listed at a non-endpoint
            [[0], [], []],              # edge missing at one endpoint
            [[0, 9], [0], []],          # unknown edge id
        ],
    )
    def test_rejects_malformed_rotation(self, lists):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(InconsistentRotationError):
            euler_check(g, RotationSystem.from_lists(lists))


# ---------------------------------------------------------------------------
# Search-shaped queries: golden output, networkx, metamorphic invariance
# ---------------------------------------------------------------------------


def random_planar_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random stacked triangulation on n >= 3 vertices with about a fifth
    of its edges dropped, relabelled, shuffled, endpoints in random order."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, v), (b, c, v), (c, a, v)]
        edges += [(a, v), (b, v), (c, v)]
    edges = [uv for uv in edges if rng.random() < 0.8]
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    return [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in edges]


def random_crossings(g: Graph, want: int, rng: random.Random) -> list[tuple[int, int]]:
    """Up to `want` independent edge pairs of g, no edge in two pairs,
    sorted as the search lists them."""
    pairs = list(build_universe(g).pairs)
    rng.shuffle(pairs)
    used: set[int] = set()
    chosen = []
    for a, b in pairs:
        if len(chosen) < want and a not in used and b not in used:
            used.update((a, b))
            chosen.append((a, b))
    return sorted(chosen)


def golden_queries() -> list[tuple[int, list[tuple[int, int]]]]:
    """Seeded LR queries: grids, random planar and random sparse graphs,
    and star graphs of random crossing sets of K6, K4,4 and K7 - e, with
    and without a kept edge subset as the search asks them."""
    rng = random.Random(20261018)
    out = []
    for r, c in [(1, 5), (2, 2), (3, 5), (6, 6), (4, 9), (12, 12)]:
        g = grid_graph(r, c)
        out.append((g.n, list(g.edges)))
    for _ in range(80):
        n = rng.randrange(3, 41)
        out.append((n, random_planar_edges(n, rng)))
    for _ in range(40):
        n = rng.randrange(5, 21)
        m = rng.randrange(n - 1, min(3 * n - 6, n * (n - 1) // 2) + 1)
        g = random_connected_graph(n, m, rng)
        out.append((g.n, list(g.edges)))
    k7e = build_graph(7, [uv for uv in itertools.combinations(range(7), 2) if uv != (0, 1)])
    for base in (complete_graph(6), complete_bipartite(4, 4), k7e):
        for _ in range(60):
            crossings = random_crossings(base, rng.randrange(6), rng)
            keep = (sum(1 << e for e in range(base.m) if rng.random() < 0.6)
                    if rng.random() < 0.7 else None)
            out.append(star_edge_list(base, crossings, keep=keep))
    return out


class TestGoldenOutput:
    # Recorded with the object-based left-right tester that the flat kernel
    # replaced: 306 queries, 142 of them planar.  A different digest means
    # a verdict or a rotation changed, and with it certificates and trees.
    DIGEST = "454c556ed9b0555ba3667ead2024f7b7e7c078da00b40e771648b39519218f5b"

    def test_verdicts_and_rotations_unchanged(self):
        h = hashlib.sha256()
        planar = 0
        queries = golden_queries()
        for n, edges in queries:
            verdict = is_planar_edges(n, edges)
            rot = rotation_edges(n, edges)
            assert (rot is not None) is verdict
            planar += verdict
            h.update(repr((n, verdict, rot)).encode())
        assert (len(queries), planar) == (306, 142)
        assert h.hexdigest() == self.DIGEST


def nx_planar(n: int, edges) -> bool:
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    return nx.check_planarity(h, False)[0]


class TestStarGraphQueries:
    def test_against_networkx(self, rng: random.Random):
        seen = {True: 0, False: 0}
        for _ in range(240):
            n = rng.randrange(5, 31)
            g = random_connected_graph(n, rng.randrange(n - 1, 2 * n + 1), rng)
            crossings = random_crossings(g, rng.randrange(7), rng)
            keep = (sum(1 << e for e in range(g.m) if rng.random() < 0.6)
                    if rng.random() < 0.5 else None)
            n_star, star = star_edge_list(g, crossings, keep=keep)
            want = nx_planar(n_star, star)
            assert is_planar_edges(n_star, star) is want, (g.edges, crossings, keep)
            rot = rotation_edges(n_star, star)
            assert (rot is not None) is want
            if rot is not None:
                assert euler_check(build_graph(n_star, star), RotationSystem.from_lists(rot))
            seen[want] += 1
        assert min(seen.values()) >= 40, seen

    def test_every_rotation_passes_euler_check(self):
        for n, edges in golden_queries():
            rot = rotation_edges(n, edges)
            if rot is not None:
                assert euler_check(build_graph(n, edges), RotationSystem.from_lists(rot))

    def test_invariant_under_relabelling_and_reordering(self, rng: random.Random):
        queries = golden_queries()
        seen = {True: 0, False: 0}
        for n, edges in rng.sample(queries, 120):
            want = is_planar_edges(n, edges)
            for _ in range(3):
                label = list(range(n))
                rng.shuffle(label)
                moved = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
                         for u, v in edges]
                rng.shuffle(moved)
                assert is_planar_edges(n, moved) is want
                assert (rotation_edges(n, moved) is not None) is want
            seen[want] += 1
        assert min(seen.values()) >= 30, seen
