"""Universe of crossable edge pairs.

A candidate drawing is encoded as a bit vector over all unordered pairs of
independent edges (edges sharing an endpoint can never cross).  Pairs are
kept in lexicographic order of their (smaller id, larger id) tuple; the
search walks this order left to right, so a partial assignment is just a
prefix of decided bits (see :class:`~oneplanar.search.SearchState`).

The universe also gives each pair its orbit under swaps of twin
vertices (see `twin_classes`).  The four endpoints of an independent pair
are distinct, so two pairs lie in one orbit exactly when their edges have
the same endpoint classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class PairUniverse:
    """All pairs a search may cross, plus per-edge occurrence lists.

    ``edge_pairs[e]`` holds the positions (ascending) of the pairs that
    contain edge e; it has one entry list per graph edge, possibly empty.
    ``orbit[i]`` is the position of the first pair in pair i's orbit under
    twin swaps.
    """

    pairs: tuple[tuple[int, int], ...]
    edge_pairs: tuple[tuple[int, ...], ...]
    orbit: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        return len(self.edge_pairs)


def twin_classes(g: Graph) -> list[int]:
    """Each vertex's twin class, named by its smallest member.

    Twins have the same open neighbourhood N(v) or the same closed one
    N[v], so swapping two is an automorphism.  N(u) never equals N[w]:
    N[w] holds w, and holds u too if u and w are adjacent, while N(u)
    holds w only then and never holds u.  So one table holds both kinds.
    A vertex never has twins of both kinds, so the classes are well
    defined."""
    first: dict[frozenset[int], int] = {}
    classes = []
    for v in range(g.n):
        nb = frozenset(g.neighbors(v))
        c = first.get(nb, first.get(nb | {v}, v))
        first.setdefault(nb, c)
        first.setdefault(nb | {v}, c)
        classes.append(c)
    return classes


def build_universe(g: Graph) -> PairUniverse:
    """Every unordered pair of independent edges, lexicographically ordered,
    with each pair's twin orbit."""
    pairs = [
        (e, f)
        for e in range(g.m)
        for f in range(e + 1, g.m)
        if not g.adjacent_edges(e, f)
    ]
    cls = twin_classes(g)
    ends = [tuple(sorted((cls[u], cls[v]))) for u, v in g.edges]
    first: dict[tuple, int] = {}
    orbit = [
        first.setdefault(tuple(sorted((ends[e], ends[f]))), i)
        for i, (e, f) in enumerate(pairs)
    ]
    occ: list[list[int]] = [[] for _ in range(g.m)]
    for i, (e, f) in enumerate(pairs):
        occ[e].append(i)
        occ[f].append(i)
    return PairUniverse(
        pairs=tuple(pairs), edge_pairs=tuple(tuple(o) for o in occ), orbit=tuple(orbit)
    )
