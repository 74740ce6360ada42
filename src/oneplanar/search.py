"""Backtracking search for drawings with at most one crossing per edge.

The search walks the pair universe left to right, assigning each pair
"crosses" (1) or "does not cross" (0).  Each node of the resulting
binary tree is classified as a solution, a dead end, or a node worth
extending, based on three facts about the decided prefix:

  * an edge crossed twice can never be repaired (DEC cut);
  * a crossed kite edge is never necessary, because a kite edge can be
    redrawn along its crossing without touching anything (KEC cut);
  * edges whose status can no longer change (saturated edges) must
    already form a planar arrangement once their crossings are replaced
    by dummy vertices (nonplanar cut otherwise).

Exhausting the tree without a solution proves the graph has no such
drawing, provided the universe was not restricted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum

from .embedding import OnePlanarEmbedding, planarize, realize, star_edge_list
from .graph import Graph
from .pairs import (
    PairUniverse,
    PartialSolution,
    build_restricted_universe,
    build_universe,
    crossing_counts,
    saturated_edges,
)
from .planarity import (
    RotationSystem,
    is_planar_edges,
    rotation_edges,
    test_planarity,
)


class Verdict(Enum):
    ONE_PLANAR = "OnePlanar"
    NOT_ONE_PLANAR = "NotOnePlanar"
    UNKNOWN = "Unknown"


class NodeKind(Enum):
    SOL = "SOL"
    CUT = "CUT"
    CNT = "CNT"


class CutReason(Enum):
    DOUBLE_EDGE_CROSSING = "DEC"
    KITE_EDGE_CROSSING = "KEC"
    NONPLANAR_INDUCED = "Nonplanar"


class SolutionKind(Enum):
    SATURATION = "Satur"
    COMPLETION = "Compl"


class UniverseTooLargeError(ValueError):
    def __init__(self, k: int, limit: int) -> None:
        super().__init__(f"universe has {k} pairs, oracle limit is {limit}")
        self.k = k
        self.limit = limit


@dataclass
class SearchConfig:
    skew_set_size: int = 1
    completion_probability: float = 0.8
    rng_seed: int = 0
    time_budget: float = 3 * 3600.0
    enable_kite_pruning: bool = True
    enable_skew_pass: bool = True


@dataclass
class SearchStats:
    nodes_visited: int = 0
    cuts_dec: int = 0
    cuts_kec: int = 0
    cuts_nonplanar: int = 0
    sol_satur: int = 0
    sol_compl: int = 0
    planarity_calls: int = 0
    elapsed: float = 0.0
    used_backtracking: bool = False
    used_skew_pass: bool = False

    def merge(self, other: "SearchStats") -> None:
        self.nodes_visited += other.nodes_visited
        self.cuts_dec += other.cuts_dec
        self.cuts_kec += other.cuts_kec
        self.cuts_nonplanar += other.cuts_nonplanar
        self.sol_satur += other.sol_satur
        self.sol_compl += other.sol_compl
        self.planarity_calls += other.planarity_calls
        self.elapsed += other.elapsed
        self.used_backtracking |= other.used_backtracking
        self.used_skew_pass |= other.used_skew_pass


@dataclass(frozen=True)
class NodeVerdict:
    kind: NodeKind
    cut_reason: CutReason | None = None
    solution_kind: SolutionKind | None = None
    # For SOL nodes: the crossing set and a planar rotation of its star
    # graph, ready to be turned into a certificate.
    crossings: tuple[tuple[int, int], ...] | None = None
    star_rotation: tuple[tuple[int, ...], ...] | None = None


@dataclass
class BlockResult:
    verdict: Verdict
    embedding: OnePlanarEmbedding | None
    stats: SearchStats


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


def verify_node(
    sol: PartialSolution,
    g: Graph,
    cfg: SearchConfig,
    rng: random.Random,
    stats: SearchStats | None = None,
) -> NodeVerdict:
    """Classify one search node from its decided prefix.

    Order of checks: double crossings, crossed kite edges, planarity of
    the saturated subgraph's planarization, saturation of the whole
    graph, and finally the optional zero-completion attempt.  The random
    draw happens only if that last step is actually reached.
    """
    counts = crossing_counts(sol)
    if any(c > 1 for c in counts):
        return NodeVerdict(NodeKind.CUT, cut_reason=CutReason.DOUBLE_EDGE_CROSSING)

    pairs = sol.decided_pairs()
    if cfg.enable_kite_pruning:
        kites = find_kite_edges(g, pairs)
        if any(counts[e] for e in kites):
            return NodeVerdict(NodeKind.CUT, cut_reason=CutReason.KITE_EDGE_CROSSING)
    else:
        kites = set()

    sat = saturated_edges(sol, kites)
    if len(sat) < g.m:
        n_star, star = star_edge_list(g, pairs, keep=sat)
        if stats is not None:
            stats.planarity_calls += 1
        if not is_planar_edges(n_star, star):
            return NodeVerdict(NodeKind.CUT, cut_reason=CutReason.NONPLANAR_INDUCED)
        if not (cfg.completion_probability > 0 and rng.random() < cfg.completion_probability):
            return NodeVerdict(NodeKind.CNT)
        # complete with all zeros: same crossings, full edge set
        kind = SolutionKind.COMPLETION
    else:
        # the saturated subgraph is the whole graph: the planarity call
        # below decides between a saturation solution and a dead end
        kind = SolutionKind.SATURATION

    n_star, star = star_edge_list(g, pairs)
    if stats is not None:
        stats.planarity_calls += 1
    rot = rotation_edges(n_star, star)
    if rot is not None:
        return NodeVerdict(
            NodeKind.SOL,
            solution_kind=kind,
            crossings=tuple(pairs),
            star_rotation=tuple(tuple(r) for r in rot),
        )
    if kind is SolutionKind.SATURATION:
        return NodeVerdict(NodeKind.CUT, cut_reason=CutReason.NONPLANAR_INDUCED)
    return NodeVerdict(NodeKind.CNT)


def backtrack(
    g: Graph,
    universe: PairUniverse,
    cfg: SearchConfig,
    stats: SearchStats,
    deadline: float | None = None,
) -> tuple[Verdict, OnePlanarEmbedding | None]:
    """Depth-first search over the universe; 0 branches explored first.

    Returns OnePlanar with a certificate (not validated; see merge_blocks)
    on the first solution node.  Full exhaustion proves NotOnePlanar;
    exhausting a restricted universe or hitting the deadline yields Unknown.
    """
    stats.used_backtracking = True
    rng = random.Random(cfg.rng_seed)
    sol = PartialSolution.empty(universe)

    def classify(into_stats: SearchStats) -> NodeVerdict:
        v = verify_node(sol, g, cfg, rng, stats=into_stats)
        into_stats.nodes_visited += 1
        if v.kind is NodeKind.CUT:
            if v.cut_reason is CutReason.DOUBLE_EDGE_CROSSING:
                into_stats.cuts_dec += 1
            elif v.cut_reason is CutReason.KITE_EDGE_CROSSING:
                into_stats.cuts_kec += 1
            else:
                into_stats.cuts_nonplanar += 1
        elif v.kind is NodeKind.SOL:
            if v.solution_kind is SolutionKind.SATURATION:
                into_stats.sol_satur += 1
            else:
                into_stats.sol_compl += 1
        return v

    # stack of (depth, bit) still to visit: bit 1 pushed first so bit 0 pops first
    stack: list[tuple[int, int]] = []
    while True:
        v = classify(stats)
        if v.kind is NodeKind.SOL:
            # planarize uses star_edge_list too, so the rotation's edge ids carry over
            p = planarize(g, v.crossings)
            return Verdict.ONE_PLANAR, realize(p, RotationSystem(v.star_rotation))
        if v.kind is NodeKind.CNT and sol.cursor < universe.k:
            stack.append((sol.cursor, 1))
            stack.append((sol.cursor, 0))
        if not stack:
            break
        if deadline is not None and time.monotonic() >= deadline:
            return Verdict.UNKNOWN, None
        depth, bit = stack.pop()
        while sol.cursor > depth:
            sol.pop()
        sol.push(bit)

    if universe.restricted:
        return Verdict.UNKNOWN, None
    return Verdict.NOT_ONE_PLANAR, None


def find_skew_set(g: Graph, size: int, deadline: float | None = None) -> list[int] | None:
    """Lexicographically first set of at most `size` edges whose removal
    leaves a planar graph, or None if no such set exists.  Raises
    TimeoutError once `deadline` (a time.monotonic() value) passes."""
    if is_planar_edges(g.n, g.edges):
        return []

    def rest(exclude: list[int]):
        drop = set(exclude)
        return [uv for e, uv in enumerate(g.edges) if e not in drop]

    def recurse(start: int, chosen: list[int], budget: int) -> list[int] | None:
        if budget == 0:
            return None
        for e in range(start, g.m):
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("deadline passed during the skew set search")
            chosen.append(e)
            if is_planar_edges(g.n, rest(chosen)):
                return list(chosen)
            deeper = recurse(e + 1, chosen, budget - 1)
            if deeper is not None:
                return deeper
            chosen.pop()
        return None

    return recurse(0, [], size)


def test_block(
    g: Graph,
    cfg: SearchConfig,
    deadline: float | None = None,
) -> BlockResult:
    """Decide 1-planarity of one (biconnected) block.

    Pipeline: planar graphs are certified directly; blocks on fewer than
    7 vertices always have a drawing, found by search; a nonplanar block
    with more than 4n - 8 edges is too dense for any drawing; otherwise
    a restricted pass over pairs meeting a skew set runs first and the
    unrestricted search settles whatever is left open.
    """
    t0 = time.monotonic()
    stats = SearchStats()
    own_deadline = t0 + cfg.time_budget
    deadline = own_deadline if deadline is None else min(deadline, own_deadline)

    def done(verdict: Verdict, emb: OnePlanarEmbedding | None) -> BlockResult:
        stats.elapsed = time.monotonic() - t0
        return BlockResult(verdict, emb, stats)

    stats.planarity_calls += 1
    pv = test_planarity(g)
    if pv.planar:
        emb = realize(planarize(g, []), pv.rotation)
        return done(Verdict.ONE_PLANAR, emb)

    if g.n >= 7 and g.m > 4 * g.n - 8:
        return done(Verdict.NOT_ONE_PLANAR, None)

    if cfg.enable_skew_pass and cfg.skew_set_size > 0:
        try:
            skew = find_skew_set(g, cfg.skew_set_size, deadline)
        except TimeoutError:
            return done(Verdict.UNKNOWN, None)
        if skew:
            stats.used_skew_pass = True
            restricted = build_restricted_universe(g, skew)
            verdict, emb = backtrack(g, restricted, cfg, stats, deadline)
            if verdict is Verdict.ONE_PLANAR:
                return done(verdict, emb)
            if time.monotonic() >= deadline:
                return done(Verdict.UNKNOWN, None)

    verdict, emb = backtrack(g, build_universe(g), cfg, stats, deadline)
    if verdict is Verdict.NOT_ONE_PLANAR and g.n < 7:
        raise RuntimeError("internal error: graphs on fewer than 7 vertices always have a drawing")
    return done(verdict, emb)


def oracle_is_one_planar(g: Graph, max_k: int = 20) -> bool:
    """Reference decision by exhaustive enumeration of the pair universe.

    Tries every assignment in which no edge is crossed twice and tests
    the planarization of each complete one.  Only usable on small
    universes; raises UniverseTooLargeError beyond `max_k` pairs.
    """
    u = build_universe(g)
    if u.k > max_k:
        raise UniverseTooLargeError(u.k, max_k)
    pairs = u.pairs
    counts = [0] * g.m

    def descend(i: int) -> bool:
        if i == u.k:
            chosen = [pairs[j] for j in range(u.k) if taken[j]]
            n_star, star = star_edge_list(g, chosen)
            return is_planar_edges(n_star, star)
        taken[i] = False
        if descend(i + 1):
            return True
        a, b = pairs[i]
        if counts[a] == 0 and counts[b] == 0:
            taken[i] = True
            counts[a] += 1
            counts[b] += 1
            ok = descend(i + 1)
            counts[a] -= 1
            counts[b] -= 1
            taken[i] = False
            if ok:
                return True
        return False

    taken = [False] * u.k
    return descend(0)
