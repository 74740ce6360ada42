"""Star graphs, drawing certificates, and block merging.

A set of crossing pairs turns a graph into its star graph (its
planarization): every crossing becomes a degree-4 dummy vertex
subdividing both edges.  A planar rotation system of that star graph,
with the rotation at each dummy alternating between its two edges, is
the certificate for "this graph has a drawing with at most one crossing
per edge".  :class:`OnePlanarEmbedding` holds just the graph, the pairs
and the rotation; star ids follow the one :func:`star_edge_list` layout,
and only :func:`validate` builds the star graph, through
:func:`planarize`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Graph, build_graph
from .planarity import RotationSystem, euler_check


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
class OnePlanarEmbedding:
    """Certificate: crossing pairs of g and a planar rotation of their star.

    Each pair lists its smaller edge id first.  The star graph is never
    stored: it is always the :func:`star_edge_list` layout of g and the
    pairs, and ``rotation`` names its edges by star id.  The rotation at
    every dummy must alternate between the two crossing edges, so each
    dummy is a genuine transversal crossing.  A positive block search
    hands back one for its block, unchecked; :func:`merge_blocks` builds
    and validates the one for the whole graph.
    """

    graph: Graph
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


def _plain_edges(m: int, pairs) -> list[int]:
    """The uncrossed edge ids in id order; in the star_edge_list layout,
    star edge s < len(plain) is the edge plain[s].

    Half j of the t-th pair (to corner u1, v1, u2, v2 for j = 0..3) is
    star edge len(plain) + 4t + j, a part of the pair's edge j >> 1.
    """
    in_pair = {e for pr in pairs for e in pr}
    return [e for e in range(m) if e not in in_pair]


def _checked_pairs(g: Graph, crossings) -> list[tuple[int, int]]:
    """The crossing pairs, each as (smaller id, larger id), once checked.

    Pairs must name edges of g, be independent (AdjacentPairError
    otherwise), and no edge may appear twice (EdgeCrossedTwiceError).
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
    return norm


def planarize(g: Graph, crossings) -> Graph:
    """The star graph of g for the given crossing pairs; the one builder.

    The pairs are checked as in :func:`_checked_pairs` and each is taken
    as (smaller id, larger id); the star graph follows
    :func:`star_edge_list`, which keeps everything deterministic.  Without
    crossings the star graph is g itself, and none is built.
    """
    pairs = _checked_pairs(g, crossings)
    return build_graph(*star_edge_list(g, pairs)) if pairs else g


def _alternating(dummy_rows, halves: int) -> list[bool]:
    """Whether each dummy's row alternates between its pair's two edges.

    The t-th row's halves are star ids halves + 4t + j, j = 0..3, and half
    j is part of the pair's edge j >> 1.  A row of exactly its four halves
    alternates iff its first and third entries belong to the same edge:
    the cyclic pattern e1,e2,e1,e2 against e1,e1,e2,e2.
    """
    out = []
    for row in dummy_rows:
        out.append((row[0] - halves) >> 1 == (row[2] - halves) >> 1)
        halves += 4
    return out


def validate(g: Graph, emb: OnePlanarEmbedding) -> bool:
    """Independent certificate check; True only if everything holds up.

    Verifies, from scratch: the certificate is about g, every pair lists
    its smaller id first, the pairs are sane (independent, no edge twice),
    the rotation is a sphere embedding of their star graph, and every
    dummy alternates; :func:`euler_check` has made sure that each dummy's
    row holds exactly its four halves.
    """
    if emb.graph.n != g.n or emb.graph.edges != g.edges:
        return False
    if any(a >= b for a, b in emb.crossings):
        return False
    try:
        star = planarize(g, emb.crossings)
        if not euler_check(star, emb.rotation):
            return False
    except ValueError:  # bad pairs, or a rotation that does not fit the star
        return False
    return all(_alternating(emb.rotation.order[g.n :], star.m - 4 * len(emb.crossings)))


# ---------------------------------------------------------------------------
# Block merging
# ---------------------------------------------------------------------------


def merge_blocks(
    g: Graph, blocks, certificates: list[OnePlanarEmbedding]
) -> OnePlanarEmbedding:
    """Build g's certificate from the block certificates and validate it.

    ``blocks`` is ``biconnected_components(g)``, one certificate per block.

    A block's dummy stays a crossing where its rotation alternates between
    the two edges.  At any other dummy the edges only touch: the dummy is
    dissolved and each of its half-edges is replaced in place by the whole
    edge, so g never gets more crossings than its blocks listed.  Every
    block star edge is translated once, straight to its id in g's star
    layout for the surviving pairs; no star graph is built here.  Blocks
    share only cut vertices, so the rotation at a shared vertex splices
    each later block's rotation in as one contiguous segment right after
    the smallest-id dart of the first block there.  Only the result is
    validated, against g; InvalidBlockEmbeddingError is raised if it fails
    or the inputs do not fit g.
    """
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


def _merge(g: Graph, blocks, certificates: list[OnePlanarEmbedding]) -> OnePlanarEmbedding:
    # which dummies of each block survive, and the surviving pairs in g's ids
    plains: list[list[int]] = []
    alive: list[list[bool]] = []
    pairs: list[tuple[int, int]] = []
    for blk, cert in zip(blocks, certificates):
        bg, rows, crossings = blk.graph, cert.rotation.order, cert.crossings
        if len(rows) != bg.n + len(crossings):
            raise ValueError(f"rotation has {len(rows)} rows for a star graph on "
                             f"{bg.n + len(crossings)} vertices")
        plain = _plain_edges(bg.m, crossings)
        plains.append(plain)
        keeps = _alternating(rows[bg.n :], len(plain))
        alive.append(keeps)
        for (a, b), keep in zip(crossings, keeps):
            if keep:
                a, b = blk.edge_map[a], blk.edge_map[b]
                pairs.append((a, b) if a < b else (b, a))
    merged_plain = _plain_edges(g.m, pairs)
    star_of = [-1] * g.m  # merged star id of each edge, -1 for a crossed edge
    for s, e in enumerate(merged_plain):
        star_of[e] = s
    halves = len(merged_plain)  # merged star id of the next kept pair's first half

    per_vertex: list[list[list[int]]] = [[] for _ in range(g.n)]
    dummy_rotations: list[list[int]] = []
    t = 0  # index of the next kept pair in `pairs`
    for blk, cert, plain, keeps in zip(blocks, certificates, plains, alive):
        bg, vmap, rows = blk.graph, blk.vertex_map, cert.rotation.order
        # merged star id of every block edge, -1 for the edges that stay crossed
        whole = [star_of[e] for e in blk.edge_map]
        to_merged = [whole[e] for e in plain]
        for (a, b), keep in zip(cert.crossings, keeps):
            if keep:
                corners = g.edges[pairs[t][0]] + g.edges[pairs[t][1]]
                to_merged.extend(
                    halves + corners.index(vmap[x]) for x in bg.edges[a] + bg.edges[b]
                )
                halves += 4
                t += 1
            else:
                to_merged.extend((whole[a], whole[a], whole[b], whole[b]))

        for lv, v in enumerate(vmap):
            per_vertex[v].append([to_merged[s] for s in rows[lv]])
        for row, keep in zip(rows[bg.n :], keeps):
            if keep:
                dummy_rotations.append([to_merged[s] for s in row])

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
    return OnePlanarEmbedding(g, tuple(pairs), RotationSystem.from_lists(order))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_DART_RE = re.compile(r"^c(\d+)\.(\d+)$")


def _star_names(m: int, pairs) -> list[str]:
    """The text token of every star id: the edge id of an uncrossed edge,
    then ``cT.H`` for half H of the T-th pair."""
    names = list(map(str, _plain_edges(m, pairs)))
    names.extend(f"c{t}.{h}" for t in range(len(pairs)) for h in range(4))
    return names


def serialize_embedding(emb: OnePlanarEmbedding) -> str:
    """Render a certificate in the three-section text format."""
    g = emb.graph
    name = _star_names(g.m, emb.crossings).__getitem__

    lines = ["crossings:"]
    for a, b in emb.crossings:
        lines.append(f"{a} {b}")
    lines.append("rotation:")
    for v, row in enumerate(emb.rotation.order):
        toks = " ".join(map(name, row))
        lines.append(f"{v}: {toks}" if toks else f"{v}:")
    lines.append("dummies:")
    for t, (a, b) in enumerate(emb.crossings):
        lines.append(f"c{t}: {a} {b}")
    return "\n".join(lines) + "\n"


def parse_embedding(text: str, g: Graph) -> OnePlanarEmbedding:
    """Parse the output of :func:`serialize_embedding` back against g.

    Darts are mapped to star ids through the star layout; no star graph
    is built.  The tokens :func:`serialize_embedding` writes (plain edge
    ids and ``cT.H``) are looked up in one table built per call.  Any other
    token, such as ``007``, ``+3`` or ``c0.01``, is first rewritten in
    that spelling (``str(int(tok))`` or ``c{int(T)}.{int(H)}``), so it
    names the same star edge as its canonical spelling or raises.
    """
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
        pairs = _checked_pairs(g, pairs)
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
        if (int(mobj.group(2)), int(mobj.group(3))) != pairs[t]:
            raise EmbeddingParseError(lineno, "dummy pair disagrees with crossings")

    n_star = g.n + len(pairs)
    names = _star_names(g.m, pairs)
    canonical = dict(zip(names, range(len(names))))

    def dart(tok: str, lineno: int) -> int:
        """Star id of a token serialize_embedding does not write, through its
        canonical spelling; EmbeddingParseError if it names no star edge."""
        mobj = _DART_RE.match(tok)
        try:
            key = f"c{int(mobj.group(1))}.{int(mobj.group(2))}" if mobj else str(int(tok))
        except ValueError:
            raise EmbeddingParseError(lineno, f"bad dart {tok!r}") from None
        if key in canonical:
            return canonical[key]
        if mobj:
            raise EmbeddingParseError(lineno, f"bad dart {tok!r}")
        if not (0 <= int(key) < g.m):
            raise EmbeddingParseError(lineno, f"unknown edge {key}")
        raise EmbeddingParseError(lineno, f"dart {tok!r} not in star graph")

    rows: dict[int, list[int]] = {}
    for lineno, line in sections["rotation"]:
        head, _, rest = line.partition(":")
        try:
            v = int(head)
        except ValueError:
            raise EmbeddingParseError(lineno, f"bad vertex id {head!r}") from None
        if not (0 <= v < n_star) or v in rows:
            raise EmbeddingParseError(lineno, f"unexpected vertex id {v}")
        toks = rest.split()
        try:
            rows[v] = list(map(canonical.__getitem__, toks))
        except KeyError:
            rows[v] = [canonical[tok] if tok in canonical else dart(tok, lineno)
                       for tok in toks]
    if len(rows) != n_star:
        raise EmbeddingParseError(0, "rotation section misses vertices")

    return OnePlanarEmbedding(
        g, tuple(pairs), RotationSystem.from_lists([rows[v] for v in range(n_star)])
    )
