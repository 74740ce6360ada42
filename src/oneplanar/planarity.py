"""Left-right planarity testing with combinatorial embedding extraction.

The tester follows Brandes' left-right partition formulation.  Edges are
handled as integer darts: edge e with endpoints (u, v) owns dart 2*e
(u -> v) and dart 2*e + 1 (v -> u); d ^ 1 reverses a dart.

All state lives in flat lists indexed by dart or vertex, and the three
phases are plain loops over them, because the backtracking search calls
the tester thousands of times on small graphs:

* per dart: ``head`` (the vertex it points to), ``lowpt``, ``lowpt2``,
  ``nesting``, ``ref``, ``side``, ``lowpt_edge`` and ``stack_bottom``;
* per vertex: ``height`` (DFS depth), ``parent_dart`` (-1 at a DFS
  root), ``out_darts`` (in orientation order) and the resume index of the
  iterative DFS, which walks back up along ``parent_dart``;
* a conflict pair is a 4-slot list ``[left_low, left_high, right_low,
  right_high]`` of return darts, -1 marking an empty slot.

Every DFS scans a vertex's darts in edge-id order (orientation) or in the
stable ``nesting`` order (testing, embedding), so the verdict and the
rotation are a function of the edge list alone.

Two entry points exist on purpose: :func:`is_planar_edges` runs only the
orientation and testing phases, while :func:`rotation_edges` additionally
runs the embedding phase and returns per-vertex clockwise rotations.

Both refuse a simple graph with more than 3n - 6 edges (n > 2) without
running a phase.  :func:`is_planar_edges` also answers a graph with fewer
than 9 edges or fewer than 6 vertices by that count alone: by Kuratowski's
theorem every nonplanar graph contains a subdivision of K5 or K3,3, so it
has at least 9 edges, and on 5 vertices it is K5 itself, whose 10 edges
the count rejects.  :func:`rotation_edges` has no such shortcut, since
it must return a rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


class InconsistentRotationError(ValueError):
    """A rotation system does not structurally match its graph."""


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of incident edge ids around every vertex.

    ``order[v]`` lists the edges at v in clockwise order.  Together with
    the graph this determines a set of faces; see :func:`euler_check`.
    """

    order: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_lists(lists: list[list[int]]) -> "RotationSystem":
        return RotationSystem(tuple(tuple(r) for r in lists))


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    rotation: RotationSystem | None


# ---------------------------------------------------------------------------
# Left-right tester over flat dart arrays
# ---------------------------------------------------------------------------


def _orient(n: int, edges, head: list[int]):
    """Phase 1: DFS orientation, lowpoints and nesting depths.

    Returns (parent_dart, roots, out_darts, lowpt, nesting).
    """
    m = len(edges)
    adj: list[list[int]] = [[] for _ in range(n)]  # darts out of v by edge id
    d = 0
    for u, v in edges:
        adj[u].append(d)
        adj[v].append(d + 1)
        d += 2
    height = [-1] * n
    parent_dart = [-1] * n
    roots: list[int] = []
    oriented = [False] * m
    out_darts: list[list[int]] = [[] for _ in range(n)]
    lowpt = [0] * (2 * m)
    lowpt2 = [0] * (2 * m)
    nesting = [0] * (2 * m)
    ind = [0] * n  # where a vertex resumes its scan after a tree dart
    for root in range(n):
        if height[root] != -1:
            continue
        height[root] = 0
        roots.append(root)
        v, e, i, hv, av, out = root, -1, 0, 0, adj[root], out_darts[root]
        while True:
            if i < len(av):
                d = av[i]
                i += 1
                if oriented[d >> 1]:
                    continue
                oriented[d >> 1] = True
                out.append(d)
                w = head[d]
                lowpt2[d] = hv
                if height[w] == -1:  # tree dart: finish w first
                    lowpt[d] = hv
                    parent_dart[w] = d
                    height[w] = hv + 1
                    ind[v] = i
                    v, e, i, hv, av, out = w, d, 0, hv + 1, adj[w], out_darts[w]
                    continue
                low = lowpt[d] = height[w]  # back dart
                low2 = hv
            else:  # v is done: back to its parent along the tree dart e
                if e == -1:
                    break
                d = e
                v = head[e ^ 1]
                e, i, hv, av, out = parent_dart[v], ind[v], hv - 1, adj[v], out_darts[v]
                low, low2 = lowpt[d], lowpt2[d]
            nesting[d] = 2 * low + 1 if low2 < hv else 2 * low
            if e != -1:
                le = lowpt[e]
                if low < le:
                    lowpt2[e] = le if le < low2 else low2
                    lowpt[e] = low
                elif low > le:
                    if low < lowpt2[e]:
                        lowpt2[e] = low
                elif low2 < lowpt2[e]:
                    lowpt2[e] = low2
    return parent_dart, roots, out_darts, lowpt, nesting


def _lr_test(n, head, parent_dart, roots, out_darts, lowpt, nesting):
    """Phase 2: left-right partition over the stack S of conflict pairs;
    returns (ref, side), or None if the graph is nonplanar."""
    m2 = len(head)
    ordered = [sorted(out, key=nesting.__getitem__) for out in out_darts]
    ref = [-1] * m2
    side = [1] * m2
    lowpt_edge = [-1] * m2
    stack_bottom: list[list[int] | None] = [None] * m2
    S: list[list[int]] = []
    ind = [0] * n
    for root in roots:
        v, e, i, hv, oa = root, -1, 0, 0, ordered[root]
        while True:
            if i < len(oa):
                d = oa[i]
                i += 1
                stack_bottom[d] = S[-1] if S else None
                w = head[d]
                if d == parent_dart[w]:  # tree dart: finish w first
                    ind[v] = i
                    v, e, i, hv, oa = w, d, 0, hv + 1, ordered[w]
                    continue
                lowpt_edge[d] = d  # back dart: its own one-edge interval
                S.append([-1, -1, d, d])
            else:  # v is done: back to its parent u along the tree dart e
                if e == -1:
                    break
                # trim back edges ending at u
                u = head[e ^ 1]
                hv -= 1
                while S:
                    ql, qlh, qr, qrh = S[-1]
                    if ql == -1 and qlh == -1:
                        low = lowpt[qr]
                    elif qr == -1 and qrh == -1:
                        low = lowpt[ql]
                    else:
                        low = min(lowpt[ql], lowpt[qr])
                    if low != hv:
                        break
                    S.pop()
                    if ql != -1:
                        side[ql] = -1
                if S:
                    P = S[-1]
                    ql, qlh, qr, qrh = P
                    while qlh != -1 and head[qlh] == u:
                        qlh = ref[qlh]
                    if qlh == -1 and ql != -1:  # just emptied
                        ref[ql] = qr
                        side[ql] = -1
                        ql = -1
                    while qrh != -1 and head[qrh] == u:
                        qrh = ref[qrh]
                    if qrh == -1 and qr != -1:
                        ref[qr] = ql
                        side[qr] = -1
                        qr = -1
                    P[0] = ql
                    P[1] = qlh
                    P[2] = qr
                    P[3] = qrh
                if lowpt[e] < hv:  # e has its own return edge
                    hl = S[-1][1]
                    hr = S[-1][3]
                    if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                        ref[e] = hl
                    else:
                        ref[e] = hr
                d, v = e, u
                e, i, oa = parent_dart[u], ind[u], ordered[u]
            if lowpt[d] >= hv:  # d has no return edge
                continue
            if d == oa[0]:
                lowpt_edge[e] = lowpt_edge[d]
                continue
            # add constraints of d: its return edges go into the right
            # interval of a new pair P
            pll = plh = prl = prh = -1
            low_e = lowpt[e]
            bottom = stack_bottom[d]
            while True:
                ql, qlh, qr, qrh = S.pop()
                if ql != -1 or qlh != -1:
                    ql, qlh, qr, qrh = qr, qrh, ql, qlh
                    if ql != -1 or qlh != -1:
                        return None
                if lowpt[qr] > low_e:
                    if prl == -1 and prh == -1:  # topmost interval
                        prh = qrh
                    else:
                        ref[prl] = qrh
                    prl = qr
                else:  # align
                    ref[qr] = lowpt_edge[e]
                if (S[-1] if S else None) is bottom:
                    break
            # conflicting return edges of earlier siblings go left
            low_d = lowpt[d]
            while True:
                ql, qlh, qr, qrh = S[-1]
                if not (
                    ((ql != -1 or qlh != -1) and lowpt[qlh] > low_d)
                    or ((qr != -1 or qrh != -1) and lowpt[qrh] > low_d)
                ):
                    break
                S.pop()
                if (qr != -1 or qrh != -1) and lowpt[qrh] > low_d:
                    ql, qlh, qr, qrh = qr, qrh, ql, qlh
                    if (qr != -1 or qrh != -1) and lowpt[qrh] > low_d:
                        return None
                if prl != -1:
                    ref[prl] = qrh
                if qr != -1:
                    prl = qr
                if pll == -1 and plh == -1:  # topmost interval
                    plh = qlh
                else:
                    ref[pll] = qlh
                pll = ql
            if pll != -1 or plh != -1 or prl != -1 or prh != -1:
                S.append([pll, plh, prl, prh])
    return ref, side


def _embed(n, head, parent_dart, roots, out_darts, nesting, ref, side):
    """Phase 3: signed nesting depths, then clockwise dart rotations."""
    for out in out_darts:
        for d in out:
            if ref[d] != -1:  # resolve d's side along its reference chain
                chain = []
                x = d
                while ref[x] != -1:
                    chain.append(x)
                    x = ref[x]
                while chain:
                    x = chain.pop()
                    side[x] *= side[ref[x]]
                    ref[x] = -1
            nesting[d] *= side[d]
    ordered = [sorted(out, key=nesting.__getitem__) for out in out_darts]
    rotation = [list(oa) for oa in ordered]
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for root in roots:
        v, i, oa = root, 0, ordered[root]
        while True:
            if i < len(oa):
                d = oa[i]
                i += 1
                w = head[d]
                if d == parent_dart[w]:  # tree dart
                    rotation[w].insert(0, d ^ 1)
                    left_ref[v] = right_ref[v] = d
                    ind[v] = i
                    v, i, oa = w, 0, ordered[w]
                    continue
                # back dart: weave the reversed dart into the target
                rw = rotation[w]
                if side[d] == 1:
                    rw.insert(rw.index(right_ref[w]) + 1, d ^ 1)
                else:
                    rw.insert(rw.index(left_ref[w]), d ^ 1)
                    left_ref[w] = d ^ 1
            else:  # v is done: back to its parent
                e = parent_dart[v]
                if e == -1:
                    break
                v = head[e ^ 1]
                i, oa = ind[v], ordered[v]
    return rotation


def _run(n: int, edges, want_embedding: bool) -> list[list[int]] | None:
    """Shared driver; returns dart rotations or None if nonplanar."""
    if n > 2 and len(edges) > 3 * n - 6:
        return None
    head = [0] * (2 * len(edges))  # head[d]: the vertex dart d points to
    head[0::2] = [uv[1] for uv in edges]
    head[1::2] = [uv[0] for uv in edges]
    parent_dart, roots, out_darts, lowpt, nesting = _orient(n, edges, head)
    tested = _lr_test(n, head, parent_dart, roots, out_darts, lowpt, nesting)
    if tested is None:
        return None
    if not want_embedding:
        return []
    return _embed(n, head, parent_dart, roots, out_darts, nesting, *tested)


def is_planar_edges(n: int, edges) -> bool:
    """Planarity of the simple graph given as an edge list (no embedding).

    Below 9 edges or 6 vertices no graph holds a subdivision of K5 or
    K3,3 other than K5 itself, so the 3n - 6 count settles it without the
    left-right test.
    """
    m = len(edges)
    if m < 9 or n < 6:
        return n <= 2 or m <= 3 * n - 6
    return _run(n, edges, want_embedding=False) is not None


def rotation_edges(n: int, edges) -> list[list[int]] | None:
    """Clockwise edge-id rotations of a planar embedding, or None."""
    darts = _run(n, edges, want_embedding=True)
    if darts is None:
        return None
    return [[d >> 1 for d in rot] for rot in darts]


def test_planarity(g: Graph) -> PlanarityVerdict:
    """Run the full test on a Graph; positive verdicts carry an embedding."""
    rot = rotation_edges(g.n, g.edges)
    if rot is None:
        return PlanarityVerdict(planar=False, rotation=None)
    return PlanarityVerdict(planar=True, rotation=RotationSystem.from_lists(rot))


# ---------------------------------------------------------------------------
# Euler check
# ---------------------------------------------------------------------------


def euler_check(g: Graph, rs: RotationSystem) -> bool:
    """Check that a rotation system describes a sphere embedding.

    Structural defects (wrong length, duplicate, missing or foreign edges)
    raise :class:`InconsistentRotationError`.  For a structurally valid
    rotation the return value says whether every edge-bearing connected
    component satisfies V - E + F = 2 under face tracing.

    One sum over the whole graph suffices.  Face tracing gives a component
    of genus g the value V - E + F = 2 - 2g <= 2, so the sum V' - m + F
    (V' the vertices that have edges) reaches 2 * C' (C' the components
    that have edges) only when every component has genus 0.
    """
    n, m, edges, order = g.n, g.m, g.edges, rs.order
    if len(order) != n:
        raise InconsistentRotationError(
            f"rotation has {len(order)} vertices, graph has {n}"
        )
    # at[d]: position of dart d in the row of the vertex it leaves; dart 2e
    # leaves edges[e][0] and dart 2e + 1 leaves edges[e][1]
    at = [-1] * (2 * m)
    for v in range(n):
        row = order[v]
        for i, e in enumerate(row):
            if not (0 <= e < m):
                raise InconsistentRotationError(f"unknown edge id {e} at vertex {v}")
            a, b = edges[e]
            d = 2 * e if v == a else 2 * e + 1 if v == b else -1
            if d >= 0 and at[d] >= 0:
                raise InconsistentRotationError(f"edge {e} repeated at vertex {v}")
            if d < 0:
                raise InconsistentRotationError(f"edge {e} not incident to vertex {v}")
            at[d] = i
        if len(row) != g.degree(v):
            raise InconsistentRotationError(f"rotation at vertex {v} misses edges")

    # C' is V' less the edges that join two union-find trees
    vertices = components = sum(1 for inc in g.incidence if inc)
    parent = list(range(n))
    for a, b in edges:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            components -= 1

    # trace faces: the successor of dart d into vertex h is the dart after
    # d's reverse in h's row
    faces = 0
    seen = bytearray(2 * m)
    for start in range(2 * m):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = 1
            h = edges[d >> 1][1 - (d & 1)]
            rot = order[h]
            f = rot[(at[d ^ 1] + 1) % len(rot)]
            d = 2 * f if edges[f][0] == h else 2 * f + 1
    return vertices - m + faces == 2 * components
