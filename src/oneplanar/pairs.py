"""Universe of crossable edge pairs.

A candidate drawing is encoded as a bit vector over all unordered pairs of
independent edges (edges sharing an endpoint can never cross).  Pairs are
kept in lexicographic order of their (smaller id, larger id) tuple; the
search walks this order left to right, so a partial assignment is just a
prefix of decided bits (see :class:`~oneplanar.search.SearchState`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class PairUniverse:
    """All pairs a search may cross, plus per-edge occurrence lists.

    ``edge_pairs[e]`` holds the positions (ascending) of the pairs that
    contain edge e; it has one entry list per graph edge, possibly empty.
    ``restricted`` marks universes limited to pairs meeting a skew set.
    """

    pairs: tuple[tuple[int, int], ...]
    edge_pairs: tuple[tuple[int, ...], ...]
    restricted: bool

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        return len(self.edge_pairs)


def _index_pairs(m: int, pairs: list[tuple[int, int]], restricted: bool) -> PairUniverse:
    occ: list[list[int]] = [[] for _ in range(m)]
    for i, (e, f) in enumerate(pairs):
        occ[e].append(i)
        occ[f].append(i)
    return PairUniverse(
        pairs=tuple(pairs),
        edge_pairs=tuple(tuple(o) for o in occ),
        restricted=restricted,
    )


def build_universe(g: Graph) -> PairUniverse:
    """Every unordered pair of independent edges, lexicographically ordered."""
    pairs = [
        (e, f)
        for e in range(g.m)
        for f in range(e + 1, g.m)
        if not g.adjacent_edges(e, f)
    ]
    return _index_pairs(g.m, pairs, restricted=False)


def build_restricted_universe(g: Graph, skew_edges) -> PairUniverse:
    """Independent pairs containing at least one skew edge, same order."""
    skew = set(skew_edges)
    pairs = [
        (e, f)
        for e in range(g.m)
        for f in range(e + 1, g.m)
        if (e in skew or f in skew) and not g.adjacent_edges(e, f)
    ]
    return _index_pairs(g.m, pairs, restricted=True)
