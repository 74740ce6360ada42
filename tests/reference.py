"""Set-based reference model of a decided prefix, the oracle for the edge
masks and the node answers of :class:`~oneplanar.search.SearchState`.

A prefix is the list of bits decided so far over a pair universe, 1 for a
pair that crosses; its length is the cursor.  Every function here
recomputes its answer from the prefix alone.  `fewest_crossings` is the
brute-force oracle of the capped search.  `without_kites` is a test
fake of the search with the kite rule taken out, which the reference
models with ``kite=False``.
"""

from __future__ import annotations

import dataclasses
import itertools

from oneplanar.embedding import OnePlanarEmbedding, star_edge_list
from oneplanar.graph import Graph
from oneplanar.pairs import PairUniverse, build_universe
from oneplanar.planarity import RotationSystem, is_planar_edges, rotation_edges
from oneplanar.search import CutReason, SearchState, SearchStats


def canonical_universe(g: Graph) -> PairUniverse:
    """The full universe with every pair its own orbit: `backtrack` on it
    is the search without twin-orbit branching, which visits every
    branch."""
    u = build_universe(g)
    return dataclasses.replace(u, orbit=tuple(range(u.k)))


def restricted_universe(g: Graph, edges) -> PairUniverse:
    """The pairs of g's universe that hold an edge of `edges`, in universe
    order, each its own orbit: a small tree whose drawings all cross one
    of `edges`, such as a skew edge, whose removal leaves g planar.  Most
    edges lie in no pair here, so rules (b) and (c) saturate them from the
    root on."""
    u = build_universe(g)
    keep = set(edges)
    pairs = tuple(p for p in u.pairs if keep.intersection(p))
    edge_pairs = [[] for _ in range(g.m)]
    for i, (e, f) in enumerate(pairs):
        edge_pairs[e].append(i)
        edge_pairs[f].append(i)
    return PairUniverse(pairs, tuple(map(tuple, edge_pairs)), tuple(range(len(pairs))))


def without_kites(mp) -> None:
    """Patch, through the monkeypatch `mp`, every SearchState built from
    now on to have no kite masks: no KEC cut and no kite edge saturated.
    The other rules then also run on the paths the KEC cut would refuse."""
    init = SearchState.__init__

    def init_without_kites(state, g, universe):
        init(state, g, universe)
        state._pair_kites = [0] * universe.k

    mp.setattr(SearchState, "__init__", init_without_kites)


def edge_mask(edges) -> int:
    return sum(1 << e for e in edges)


def decided_pairs(u: PairUniverse, bits) -> list[tuple[int, int]]:
    """Pairs set to 1 in the prefix, in universe order."""
    return [u.pairs[i] for i, bit in enumerate(bits) if bit]


def crossing_counts(u: PairUniverse, bits) -> list[int]:
    """How often each edge is crossed by the prefix."""
    counts = [0] * u.m
    for e, f in decided_pairs(u, bits):
        counts[e] += 1
        counts[f] += 1
    return counts


def crossed_edges(u: PairUniverse, bits) -> set[int]:
    """Edges contained in some pair decided to cross."""
    return {e for pair in decided_pairs(u, bits) for e in pair}


def find_kite_edges(g: Graph, crossing_pairs) -> set[int]:
    """Edges of g joining endpoints across some crossing pair.

    For crossing edges (u1, v1) x (u2, v2) these are the up-to-four
    quadrilateral edges u1u2, u1v2, v1u2, v1v2 that exist in g.
    """
    out: set[int] = set()
    for a, b in crossing_pairs:
        u1, v1 = g.edges[a]
        u2, v2 = g.edges[b]
        for x in (u1, v1):
            for y in (u2, v2):
                e = g.edge_between(x, y)
                if e is not None:
                    out.add(e)
    return out


def saturated_edges(u: PairUniverse, bits, kites=frozenset()) -> set[int]:
    """Edges whose crossing status can no longer change.

    An edge is saturated once one of these holds:
      (a) it is already crossed;
      (b) its last pair in the order lies before the cursor (edges in no
          pair are saturated from the start);
      (c) every partner it could still cross is itself crossed, so any
          further crossing would cross that partner twice;
      (d) it is in `kites`, the kite edges of the crossings so far.

    Pairs decided to 0 do not help with (c): the partner must actually be
    crossed.  All conditions read the universe `u`, so one that leaves out
    pairs (`restricted_universe`) saturates edges the full one keeps open.
    """
    cursor = len(bits)
    crossed = crossed_edges(u, bits)
    sat = crossed | set(kites)
    for e, occ in enumerate(u.edge_pairs):
        if e in sat:
            continue
        if not occ or occ[-1] < cursor:
            sat.add(e)
            continue
        if all((b if a == e else a) in crossed for a, b in (u.pairs[p] for p in occ)):
            sat.add(e)
    return sat


def prefix_cut(g: Graph, u: PairUniverse, bits, kite: bool) -> CutReason | None:
    """DEC if the prefix crosses some edge twice, else KEC if (with kite
    pruning) it crosses a kite edge of its crossings, else None."""
    counts = crossing_counts(u, bits)
    if any(c > 1 for c in counts):
        return CutReason.DOUBLE_EDGE_CROSSING
    if kite and any(counts[e] for e in find_kite_edges(g, decided_pairs(u, bits))):
        return CutReason.KITE_EDGE_CROSSING
    return None


def capacity_short(g: Graph, u: PairUniverse, sat: set[int], crossings: int) -> bool:
    """Whether `crossings` plus half the free edges (not in `sat`, with a
    universe partner not in `sat`) stay below m - 3n + 6, the fewest
    crossings of a drawing."""
    partners: list[set[int]] = [set() for _ in range(g.m)]
    for a, b in u.pairs:
        partners[a].add(b)
        partners[b].add(a)
    free = [e for e in range(g.m) if e not in sat and partners[e] - sat]
    return crossings + len(free) // 2 < g.m - (3 * g.n - 6)


def classify_prefix(g: Graph, u: PairUniverse, bits, kite: bool = True,
                    stats: SearchStats | None = None) -> OnePlanarEmbedding | CutReason | None:
    """The answer of the node a prefix reaches, from the prefix alone: its
    drawing, its cut, or None for a node to extend.

    A prefix with a doubly crossed edge or (with `kite`) a crossed kite
    edge is that cut (`prefix_cut`).  Otherwise a node that is not
    saturated is cut when its capacity falls short (`capacity_short`) or
    its saturated subgraph's star graph is nonplanar, and it then tries
    its zero completion: the drawing with the prefix's crossings if that
    star graph is planar, else None.  A saturated node is that drawing if
    its star graph is planar, else the nonplanar cut.  Both queries are
    asked at every node, whatever its ancestors were, and each one asked
    is counted in ``stats.planarity_calls``.
    """
    cut = prefix_cut(g, u, bits, kite)
    if cut is not None:
        return cut
    stats = SearchStats() if stats is None else stats
    pairs = decided_pairs(u, bits)
    sat = saturated_edges(u, bits, find_kite_edges(g, pairs) if kite else set())
    saturated = len(sat) == g.m
    if not saturated:
        if capacity_short(g, u, sat, len(pairs)):
            return CutReason.NONPLANAR_INDUCED
        stats.planarity_calls += 1
        if not is_planar_edges(*star_edge_list(g, pairs, keep=edge_mask(sat))):
            return CutReason.NONPLANAR_INDUCED
    stats.planarity_calls += 1
    rot = rotation_edges(*star_edge_list(g, pairs))
    if rot is None:
        return CutReason.NONPLANAR_INDUCED if saturated else None
    return OnePlanarEmbedding(g, tuple(pairs), RotationSystem.from_lists(rot))


def fewest_crossings(g: Graph, most: int) -> int | None:
    """The fewest crossings of a drawing of g, or None if every drawing
    needs more than `most`.  Tries every set of pairs of g's universe, no
    edge in two of them, by size from the empty set up, and asks whether
    its star graph is planar."""
    pairs = build_universe(g).pairs
    for size in range(most + 1):
        for chosen in itertools.combinations(pairs, size):
            edges = [e for pair in chosen for e in pair]
            if len(set(edges)) == len(edges) and is_planar_edges(*star_edge_list(g, chosen)):
                return size
    return None
