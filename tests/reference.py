"""Set-based reference model of a decided prefix, the oracle for the edge
masks of :class:`~oneplanar.search.SearchState`.

A prefix is the list of bits decided so far over a pair universe, 1 for a
pair that crosses; its length is the cursor.  Every function here
recomputes its answer from the prefix alone.  `without_kites` is a test
fake of the search with the kite rule taken out, which the reference
models with ``kite=False``.
"""

from __future__ import annotations

import dataclasses

from oneplanar.graph import Graph
from oneplanar.pairs import PairUniverse, build_universe
from oneplanar.search import CutReason, SearchState


def canonical_universe(g: Graph) -> PairUniverse:
    """The full universe with every pair its own orbit: `backtrack` on it
    is the search without twin-orbit branching, which visits every
    branch."""
    u = build_universe(g)
    return dataclasses.replace(u, orbit=tuple(range(u.k)))


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
    crossed.  All conditions read the active universe, so restricted
    universes saturate edges that full universes would keep open.
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
