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


class NotPlanarRotationError(ValueError):
    """The supplied rotation system does not embed the star graph."""


class InvalidBlockEmbeddingError(ValueError):
    """A per-block certificate failed validation during merging."""


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
    edge_map = [e for e in range(g.m) if e not in seen]
    dummy_map = []
    for a, b in norm:
        edge_map.extend([a, a, b, b])
        dummy_map.append(((a, b), g.edges[a] + g.edges[b]))

    return Planarization(
        base_graph=g,
        star_graph=build_graph(n_star, star_edges),
        dummy_map=tuple(dummy_map),
        edge_map=tuple(edge_map),
    )


def _alternates(p: Planarization, rot_d: tuple[int, ...]) -> bool:
    # cyclic pattern e1,e2,e1,e2 versus e1,e1,e2,e2 at a degree-4 dummy
    return p.edge_map[rot_d[0]] == p.edge_map[rot_d[2]]


def realize(p: Planarization, rs: RotationSystem) -> OnePlanarEmbedding:
    """Turn a planar rotation of the star graph into a certificate.

    Dummies whose rotation alternates stay as crossings.  At any other
    dummy the two edges only touch, so the dummy is removed and each edge
    is rerouted through the spot it occupied: its two half-darts are
    replaced in place by the whole edge.  The result therefore never has
    more crossings than the planarization suggested.
    """
    if not euler_check(p.star_graph, rs):
        raise NotPlanarRotationError("rotation is not a sphere embedding of the star graph")

    survivors = [
        t
        for t in range(len(p.dummy_map))
        if _alternates(p, rs.order[p.base_n + t])
    ]
    if len(survivors) == len(p.dummy_map):
        return OnePlanarEmbedding(
            planarization=p,
            rotation=rs,
            crossings=tuple(pair for pair, _ in p.dummy_map),
        )

    g = p.base_graph
    keep = [p.dummy_map[t][0] for t in survivors]
    p2 = planarize(g, keep)
    new_dummy = {t: g.n + i for i, t in enumerate(survivors)}
    surviving_edges = {e for pair in keep for e in pair}

    def translate(s: int) -> int:
        x, y = p.star_graph.edges[s]
        if y < p.base_n:
            out = p2.star_graph.edge_between(x, y)
        else:
            t = y - p.base_n
            if t in new_dummy:
                out = p2.star_graph.edge_between(x, new_dummy[t])
            else:
                # dummy eliminated: the half is replaced by the whole edge
                out = p2.star_graph.edge_between(*g.edges[p.edge_map[s]])
        assert out is not None
        return out

    order: list[list[int]] = []
    for v in range(g.n):
        order.append([translate(s) for s in rs.order[v]])
    for t in survivors:
        order.append([translate(s) for s in rs.order[p.base_n + t]])

    return OnePlanarEmbedding(
        planarization=p2,
        rotation=RotationSystem.from_lists(order),
        crossings=tuple(keep),
    )


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


def merge_blocks(g: Graph, decomposition, embeddings: list[OnePlanarEmbedding]) -> OnePlanarEmbedding:
    """Combine per-block certificates into one validated certificate for g.

    Blocks share only cut vertices, so the merged rotation at a shared
    vertex splices each later block's rotation in as one contiguous
    segment right after the smallest-id dart of the first block there.
    Only the result is validated, against g; InvalidBlockEmbeddingError
    is raised if it fails or the inputs do not fit g.
    """
    blocks = decomposition.blocks
    if len(embeddings) != len(blocks):
        raise InvalidBlockEmbeddingError(
            f"got {len(embeddings)} embeddings for {len(blocks)} blocks"
        )
    try:
        merged = _merge(g, blocks, embeddings)
    except (IndexError, KeyError, ValueError) as exc:
        raise InvalidBlockEmbeddingError(f"block certificates do not fit g: {exc}") from None
    if not validate(g, merged):
        raise InvalidBlockEmbeddingError("merged certificate failed validation")
    return merged


def _merge(g: Graph, blocks, embeddings: list[OnePlanarEmbedding]) -> OnePlanarEmbedding:
    all_pairs: list[tuple[int, int]] = []
    offsets: list[int] = []
    for blk, emb in zip(blocks, embeddings):
        offsets.append(len(all_pairs))
        for a, b in emb.crossings:
            all_pairs.append((blk.edge_map[a], blk.edge_map[b]))
    merged = planarize(g, all_pairs)

    def translate(blk, emb, offset: int, s: int) -> int:
        bp = emb.planarization
        x, y = bp.star_graph.edges[s]
        if y < bp.base_n:
            out = merged.star_graph.edge_between(blk.vertex_map[x], blk.vertex_map[y])
        else:
            out = merged.star_graph.edge_between(
                blk.vertex_map[x], g.n + offset + (y - bp.base_n)
            )
        if out is None:
            raise KeyError(f"star edge {s} of a block has no counterpart in g")
        return out

    per_vertex: list[list[list[int]]] = [[] for _ in range(g.n)]
    dummy_rotations: list[list[int]] = []
    for blk, emb, offset in zip(blocks, embeddings, offsets):
        bp = emb.planarization
        for lv, v in enumerate(blk.vertex_map):
            per_vertex[v].append(
                [translate(blk, emb, offset, s) for s in emb.rotation.order[lv]]
            )
        for t in range(len(bp.dummy_map)):
            dummy_rotations.append(
                [translate(blk, emb, offset, s) for s in emb.rotation.order[bp.base_n + t]]
            )

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
        crossings=tuple(all_pairs),
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
