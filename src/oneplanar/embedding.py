"""Planarizations, drawing certificates, and block merging.

A set of crossing pairs turns a graph into its planarization: every
crossing becomes a degree-4 dummy vertex subdividing both edges.  A
planar rotation system of that star graph, with the rotation at each
dummy alternating between its two edges, is the certificate format for
"this graph has a drawing with at most one crossing per edge".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Graph, build_graph
from .planarity import (
    InconsistentRotationError,
    RotationSystem,
    euler_check,
)


class EdgeCrossedTwiceError(ValueError):
    def __init__(self, e: int) -> None:
        super().__init__(f"edge {e} appears in more than one crossing pair")
        self.edge = e


class AdjacentPairError(ValueError):
    def __init__(self, e: int, f: int) -> None:
        super().__init__(f"edges {e} and {f} share an endpoint and cannot cross")
        self.pair = (e, f)


class InvalidBlockEmbeddingError(ValueError):
    """Block certificates do not fit the graph, or merge into an invalid one."""


class EmbeddingParseError(ValueError):
    def __init__(self, lineno: int, msg: str) -> None:
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


@dataclass(frozen=True)
class Planarization:
    """Star graph obtained by replacing each crossing with a dummy vertex.

    Dummy t gets star vertex id ``base_graph.n + t`` following the order
    of the crossing list.  ``dummy_map[t]`` is ``((e1, e2), (u1, v1, u2,
    v2))`` with (u1, v1) the endpoints of e1 and (u2, v2) those of e2.
    ``edge_map[s]`` names the original edge that star edge s is part of.
    """

    base_graph: Graph
    star_graph: Graph
    dummy_map: tuple[tuple[tuple[int, int], tuple[int, int, int, int]], ...]
    edge_map: tuple[int, ...]

    @property
    def base_n(self) -> int:
        return self.base_graph.n


@dataclass(frozen=True)
class OnePlanarEmbedding:
    """Certificate: planarization plus a planar rotation of its star graph.

    The rotation at every dummy must alternate between the two crossing
    edges, so each dummy is a genuine transversal crossing.
    """

    planarization: Planarization
    rotation: RotationSystem
    crossings: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BlockCertificate:
    """What a positive block search hands back; not checked on its own.

    ``rotation`` is a planar rotation of the star graph that
    :func:`star_edge_list` lays out for the block and ``crossings``.
    :func:`merge_blocks` turns the certificates of all blocks into one
    :class:`OnePlanarEmbedding` and validates that.
    """

    crossings: tuple[tuple[int, int], ...]
    rotation: RotationSystem


def count_crossings(emb: OnePlanarEmbedding) -> int:
    return len(emb.crossings)


def star_edge_list(g: Graph, pairs, keep=None) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of the star graph; the one star layout.

    Uncrossed edges come first in id order (only those whose bit is set in
    the edge mask `keep`, if given), then the half-edges to u1, v1, u2, v2
    of dummy g.n + t for the t-th pair (e1, e2) = ((u1, v1), (u2, v2)).
    Pairs are not checked.
    """
    in_pair = {e for pr in pairs for e in pr}
    edges = [
        (u, v)
        for e, (u, v) in enumerate(g.edges)
        if e not in in_pair and (keep is None or keep >> e & 1)
    ]
    d = g.n
    for a, b in pairs:
        u1, v1 = g.edges[a]
        u2, v2 = g.edges[b]
        edges.extend([(u1, d), (v1, d), (u2, d), (v2, d)])
        d += 1
    return d, edges


def planarize(g: Graph, crossings) -> Planarization:
    """Build the star graph for the given crossing pairs.

    Pairs must be independent (AdjacentPairError otherwise) and no edge
    may appear twice (EdgeCrossedTwiceError).  Each pair is stored as
    (smaller id, larger id) and the star graph follows
    :func:`star_edge_list`, which keeps everything deterministic.
    """
    seen: set[int] = set()
    norm: list[tuple[int, int]] = []
    for a, b in crossings:
        if a > b:
            a, b = b, a
        for e in (a, b):
            if not (0 <= e < g.m):
                raise ValueError(f"unknown edge id {e} in crossing pair")
            if e in seen:
                raise EdgeCrossedTwiceError(e)
            seen.add(e)
        if a == b or g.adjacent_edges(a, b):
            raise AdjacentPairError(a, b)
        norm.append((a, b))

    n_star, star_edges = star_edge_list(g, norm)
    return Planarization(
        base_graph=g,
        star_graph=build_graph(n_star, star_edges),
        dummy_map=tuple(((a, b), g.edges[a] + g.edges[b]) for a, b in norm),
        edge_map=tuple(_star_edge_map(g.m, norm)),
    )


def _star_edge_map(m: int, pairs) -> list[int]:
    """The edge of g that each edge of the star_edge_list star is part of."""
    in_pair = {e for pr in pairs for e in pr}
    return [e for e in range(m) if e not in in_pair] + [e for a, b in pairs for e in (a, a, b, b)]


def validate(g: Graph, emb: OnePlanarEmbedding) -> bool:
    """Independent certificate check; True only if everything holds up.

    Verifies, from scratch: the planarization really is g with each
    listed crossing subdivided exactly once, the crossing list is sane
    (independent pairs, no edge twice), the rotation is a sphere
    embedding of the star graph, and every dummy alternates.
    """
    try:
        p = emb.planarization
        star = p.star_graph
        if p.base_graph.n != g.n or p.base_graph.edges != g.edges:
            return False
        t_count = len(p.dummy_map)
        if star.n != g.n + t_count:
            return False
        if emb.crossings != tuple(pair for pair, _ in p.dummy_map):
            return False
        if len(p.edge_map) != star.m:
            return False

        crossed: dict[int, int] = {}
        for t, ((a, b), (u1, v1, u2, v2)) in enumerate(p.dummy_map):
            if a == b or g.adjacent_edges(a, b):
                return False
            if g.edges[a] != (u1, v1) or g.edges[b] != (u2, v2):
                return False
            for e in (a, b):
                if e in crossed:
                    return False
                crossed[e] = t

        # every original edge is covered by exactly the right star edges
        halves: dict[int, list[tuple[int, int]]] = {e: [] for e in range(g.m)}
        for s, (x, y) in enumerate(star.edges):
            e = p.edge_map[s]
            if not (0 <= e < g.m):
                return False
            if y < g.n:
                if e in crossed or g.edges[e] != (x, y):
                    return False
                halves[e].append((-1, s))
            else:
                t = y - g.n
                if crossed.get(e) != t:
                    return False
                if x not in g.edges[e]:
                    return False
                halves[e].append((t, s))
        for e in range(g.m):
            h = halves[e]
            if e in crossed:
                if len(h) != 2:
                    return False
                ends = {star.edges[s][0] for _, s in h}
                if ends != set(g.edges[e]):
                    return False
            elif len(h) != 1:
                return False

        if not euler_check(star, emb.rotation):
            return False
        for t in range(t_count):
            rot = emb.rotation.order[g.n + t]
            if len(rot) != 4:
                return False
            e02 = (p.edge_map[rot[0]], p.edge_map[rot[2]])
            e13 = (p.edge_map[rot[1]], p.edge_map[rot[3]])
            if e02[0] != e02[1] or e13[0] != e13[1] or e02[0] == e13[0]:
                return False
        return True
    except (IndexError, KeyError, InconsistentRotationError):
        return False


# ---------------------------------------------------------------------------
# Block merging
# ---------------------------------------------------------------------------


def merge_blocks(
    g: Graph, decomposition, certificates: list[BlockCertificate]
) -> OnePlanarEmbedding:
    """Build g's certificate from the block certificates and validate it.

    A block's dummy stays a crossing where its rotation alternates between
    the two edges.  At any other dummy the edges only touch: the dummy is
    dissolved and each of its half-edges is replaced in place by the whole
    edge, so g never gets more crossings than its blocks listed.  Every
    block star edge is translated once, straight to its id in the
    planarization of g by the surviving pairs.  Blocks share only cut
    vertices, so the rotation at a shared vertex splices each later
    block's rotation in as one contiguous segment right after the
    smallest-id dart of the first block there.  Only the result is
    validated, against g; InvalidBlockEmbeddingError is raised if it fails
    or the inputs do not fit g.
    """
    blocks = decomposition.blocks
    if len(certificates) != len(blocks):
        raise InvalidBlockEmbeddingError(
            f"got {len(certificates)} certificates for {len(blocks)} blocks"
        )
    try:
        merged = _merge(g, blocks, certificates)
    except (IndexError, KeyError, ValueError) as exc:
        raise InvalidBlockEmbeddingError(f"block certificates do not fit g: {exc}") from None
    if not validate(g, merged):
        raise InvalidBlockEmbeddingError("merged certificate failed validation")
    return merged


def _merge(g: Graph, blocks, certificates: list[BlockCertificate]) -> OnePlanarEmbedding:
    # which dummies of each block survive, and the surviving pairs in g's ids
    uncrossed: list[list[int]] = []
    alive: list[list[bool]] = []
    pairs: list[tuple[int, int]] = []
    for blk, cert in zip(blocks, certificates):
        bg, rows, crossings = blk.graph, cert.rotation.order, cert.crossings
        if len(rows) != bg.n + len(crossings):
            raise ValueError(f"rotation has {len(rows)} rows for a star graph on "
                             f"{bg.n + len(crossings)} vertices")
        edge_of = _star_edge_map(bg.m, crossings)
        uncrossed.append(edge_of[: len(edge_of) - 4 * len(crossings)])
        # cyclic pattern e1,e2,e1,e2 versus e1,e1,e2,e2 at a degree-4 dummy
        alive.append([
            edge_of[rows[bg.n + t][0]] == edge_of[rows[bg.n + t][2]]
            for t in range(len(crossings))
        ])
        pairs.extend(
            (blk.edge_map[a], blk.edge_map[b])
            for (a, b), keep in zip(crossings, alive[-1]) if keep
        )
    merged = planarize(g, pairs)
    star = merged.star_graph

    per_vertex: list[list[list[int]]] = [[] for _ in range(g.n)]
    dummy_rotations: list[list[int]] = []
    d = g.n  # next dummy of the merged planarization
    for blk, cert, plain, keeps in zip(blocks, certificates, uncrossed, alive):
        bg, vmap, rows = blk.graph, blk.vertex_map, cert.rotation.order
        # merged star edge id of every block star edge; `whole` is None for
        # the edges that stay crossed
        whole = [star.edge_between(*g.edges[e]) for e in blk.edge_map]
        to_merged = [whole[e] for e in plain]
        for (a, b), keep in zip(cert.crossings, keeps):
            if keep:
                ends = bg.edges[a] + bg.edges[b]
                to_merged.extend(star.edge_between(vmap[x], d) for x in ends)
                d += 1
            else:
                to_merged.extend((whole[a], whole[a], whole[b], whole[b]))
        if None in to_merged:
            raise KeyError(f"star edge {to_merged.index(None)} of a block has no counterpart in g")

        for lv, v in enumerate(vmap):
            per_vertex[v].append([to_merged[s] for s in rows[lv]])
        for t, keep in enumerate(keeps):
            if keep:
                dummy_rotations.append([to_merged[s] for s in rows[bg.n + t]])

    order: list[list[int]] = []
    for v in range(g.n):
        segs = per_vertex[v]
        if not segs:
            order.append([])
            continue
        base = segs[0]
        pos = base.index(min(base))
        spliced = base[: pos + 1]
        for seg in segs[1:]:
            spliced.extend(seg)
        spliced.extend(base[pos + 1 :])
        order.append(spliced)
    order.extend(dummy_rotations)

    return OnePlanarEmbedding(
        planarization=merged,
        rotation=RotationSystem.from_lists(order),
        crossings=tuple(pair for pair, _ in merged.dummy_map),
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_DART_RE = re.compile(r"^c(\d+)\.(\d+)$")


def _dart_token(p: Planarization, s: int) -> str:
    x, y = p.star_graph.edges[s]
    if y < p.base_n:
        return str(p.edge_map[s])
    t = y - p.base_n
    corners = p.dummy_map[t][1]
    return f"c{t}.{corners.index(x)}"


def serialize_embedding(emb: OnePlanarEmbedding) -> str:
    """Render a certificate in the three-section text format."""
    p = emb.planarization
    lines = ["crossings:"]
    for a, b in emb.crossings:
        lines.append(f"{a} {b}")
    lines.append("rotation:")
    for v in range(p.star_graph.n):
        toks = " ".join(_dart_token(p, s) for s in emb.rotation.order[v])
        lines.append(f"{v}: {toks}" if toks else f"{v}:")
    lines.append("dummies:")
    for t, ((a, b), _) in enumerate(p.dummy_map):
        lines.append(f"c{t}: {a} {b}")
    return "\n".join(lines) + "\n"


def parse_embedding(text: str, g: Graph) -> OnePlanarEmbedding:
    """Parse the output of :func:`serialize_embedding` back against g."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line in ("crossings:", "rotation:", "dummies:"):
            name = line[:-1]
            if name in sections:
                raise EmbeddingParseError(lineno, f"duplicate section {name}")
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise EmbeddingParseError(lineno, "content before any section header")
        current.append((lineno, line))
    for name in ("crossings", "rotation", "dummies"):
        if name not in sections:
            raise EmbeddingParseError(0, f"missing section {name}")

    pairs: list[tuple[int, int]] = []
    for lineno, line in sections["crossings"]:
        parts = line.split()
        if len(parts) != 2:
            raise EmbeddingParseError(lineno, "expected two edge ids")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise EmbeddingParseError(lineno, "edge ids must be integers") from None
    try:
        p = planarize(g, pairs)
    except ValueError as exc:
        raise EmbeddingParseError(0, f"bad crossing list: {exc}") from None

    if len(sections["dummies"]) != len(pairs):
        raise EmbeddingParseError(0, "dummies section disagrees with crossings")
    for t, (lineno, line) in enumerate(sections["dummies"]):
        mobj = re.match(r"^c(\d+):\s*(\d+)\s+(\d+)$", line)
        if not mobj:
            raise EmbeddingParseError(lineno, f"malformed dummy line {line!r}")
        if int(mobj.group(1)) != t:
            raise EmbeddingParseError(lineno, "dummy ids must appear in order")
        if (int(mobj.group(2)), int(mobj.group(3))) != p.dummy_map[t][0]:
            raise EmbeddingParseError(lineno, "dummy pair disagrees with crossings")

    rows: dict[int, list[int]] = {}
    for lineno, line in sections["rotation"]:
        head, _, rest = line.partition(":")
        try:
            v = int(head)
        except ValueError:
            raise EmbeddingParseError(lineno, f"bad vertex id {head!r}") from None
        if not (0 <= v < p.star_graph.n) or v in rows:
            raise EmbeddingParseError(lineno, f"unexpected vertex id {v}")
        row = []
        for tok in rest.split():
            mobj = _DART_RE.match(tok)
            if mobj:
                t, h = int(mobj.group(1)), int(mobj.group(2))
                if not (0 <= t < len(p.dummy_map)) or not (0 <= h < 4):
                    raise EmbeddingParseError(lineno, f"bad dart {tok!r}")
                corner = p.dummy_map[t][1][h]
                s = p.star_graph.edge_between(corner, p.base_n + t)
            else:
                try:
                    e = int(tok)
                except ValueError:
                    raise EmbeddingParseError(lineno, f"bad dart {tok!r}") from None
                if not (0 <= e < g.m):
                    raise EmbeddingParseError(lineno, f"unknown edge {e}")
                s = p.star_graph.edge_between(*g.edges[e])
            if s is None:
                raise EmbeddingParseError(lineno, f"dart {tok!r} not in star graph")
            row.append(s)
        rows[v] = row
    if len(rows) != p.star_graph.n:
        raise EmbeddingParseError(0, "rotation section misses vertices")

    return OnePlanarEmbedding(
        planarization=p,
        rotation=RotationSystem.from_lists([rows[v] for v in range(p.star_graph.n)]),
        crossings=tuple(p.dummy_map[t][0] for t in range(len(p.dummy_map))),
    )
