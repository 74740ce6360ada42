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
    """Counters of one search, or of several merged.

    ``planarity_calls`` counts the LR planarity runs actually made.  A
    query that the current search path has already answered (see
    :class:`SearchState`) is skipped and not counted.
    """

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


# Verdicts without a payload are shared; only SOL verdicts are built per node.
_CNT = NodeVerdict(NodeKind.CNT)
_CUT_DEC = NodeVerdict(NodeKind.CUT, cut_reason=CutReason.DOUBLE_EDGE_CROSSING)
_CUT_KEC = NodeVerdict(NodeKind.CUT, cut_reason=CutReason.KITE_EDGE_CROSSING)
_CUT_NONPLANAR = NodeVerdict(NodeKind.CUT, cut_reason=CutReason.NONPLANAR_INDUCED)


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


class SearchState:
    """One search path: its decided prefix and everything a node's
    classification reads from it, kept current by `push` and `pop`.

    Per edge e it holds the crossing count ``counts[e]``, the number of
    decided crossings having e as a kite edge ``kites[e]`` (all 0 without
    kite pruning) and the number of universe partners of e not yet crossed.
    ``crossings`` lists the crossing pairs in universe order and
    ``saturated`` is the set :func:`~oneplanar.pairs.saturated_edges`
    computes, with the kite edges when kite pruning is on.  ``doubled``
    counts edges crossed more than once and ``crossed_kites`` crossed edges
    that are kite edges, so the DEC and KEC checks cost O(1).  Saturation is
    tracked as the number of rules (a)-(d) that hold for each edge; `pop`
    undoes its push step for step, reading the popped bit from the prefix.

    Two facts about the path are kept per depth and only set by `classify`:

    * ``_planar_sat[d]``: the size of the saturated set whose star graph
      the node at depth d proved planar, or -1.  A bit-0 push changes no
      crossing and saturation only grows along a path, so a child with a
      saturated set of the same size asks the query its parent answered.
    * ``_nonplanar_full[d]``: the full star graph of the node's crossing set
      is nonplanar.  A bit-0 push inherits it, a bit-1 push clears it.

    All of it is O(k + m) for a universe of k pairs over m edges.
    """

    def __init__(self, g: Graph, universe: PairUniverse, kite_pruning: bool) -> None:
        self.g = g
        self.sol = PartialSolution.empty(universe)
        m, k = g.m, universe.k
        self.counts = [0] * m
        self.kites = [0] * m
        self.crossings: list[tuple[int, int]] = []
        self.saturated: set[int] = set()
        self.doubled = 0
        self.crossed_kites = 0
        self._sat_rules = [0] * m
        self._open = [len(occ) for occ in universe.edge_pairs]
        pairs = universe.pairs
        self._partners = [
            tuple(pairs[p][0] + pairs[p][1] - e for p in occ)
            for e, occ in enumerate(universe.edge_pairs)
        ]
        # edges whose last pair sits at each position: saturated by rule (b)
        # once the cursor passes it
        self._closing: list[tuple[int, ...]] = [()] * k
        for e, occ in enumerate(universe.edge_pairs):
            if occ:
                self._closing[occ[-1]] += (e,)
            else:  # in no pair: rules (b) and (c) hold from the start
                self._raise(e)
                self._raise(e)
        self._pair_kites = (
            [tuple(sorted(find_kite_edges(g, [pr]))) for pr in pairs]
            if kite_pruning
            else None
        )
        self._planar_sat = [-1] * (k + 1)
        self._nonplanar_full = [False] * (k + 1)

    def _raise(self, e: int) -> None:
        self._sat_rules[e] += 1
        if self._sat_rules[e] == 1:
            self.saturated.add(e)

    def _lower(self, e: int) -> None:
        self._sat_rules[e] -= 1
        if self._sat_rules[e] == 0:
            self.saturated.discard(e)

    def push(self, bit: int) -> None:
        """Decide the pair at the cursor: 1 crosses it, 0 does not."""
        sol = self.sol
        i = sol.cursor
        sol.push(bit)
        self._planar_sat[i + 1] = -1
        self._nonplanar_full[i + 1] = self._nonplanar_full[i] and not bit
        if bit:
            pair = sol.universe.pairs[i]
            self.crossings.append(pair)
            counts, kites, open_ = self.counts, self.kites, self._open
            for e in pair:
                counts[e] += 1
                if counts[e] == 1:
                    self._raise(e)  # rule (a)
                    if kites[e]:
                        self.crossed_kites += 1
                    for f in self._partners[e]:
                        open_[f] -= 1
                        if open_[f] == 0:
                            self._raise(f)  # rule (c)
                elif counts[e] == 2:
                    self.doubled += 1
            if self._pair_kites is not None:
                for e in self._pair_kites[i]:
                    kites[e] += 1
                    if kites[e] == 1:
                        self._raise(e)  # rule (d)
                        if counts[e]:
                            self.crossed_kites += 1
        for e in self._closing[i]:
            self._raise(e)  # rule (b)

    def pop(self) -> None:
        """Take back the last decision."""
        sol = self.sol
        i = sol.cursor - 1
        bit = sol.bits[i]
        sol.pop()
        for e in self._closing[i]:
            self._lower(e)
        if bit:
            counts, kites, open_ = self.counts, self.kites, self._open
            if self._pair_kites is not None:
                for e in self._pair_kites[i]:
                    kites[e] -= 1
                    if kites[e] == 0:
                        self._lower(e)
                        if counts[e]:
                            self.crossed_kites -= 1
            for e in reversed(self.crossings.pop()):
                counts[e] -= 1
                if counts[e] == 0:
                    self._lower(e)
                    if kites[e]:
                        self.crossed_kites -= 1
                    for f in self._partners[e]:
                        if open_[f] == 0:
                            self._lower(f)
                        open_[f] += 1
                elif counts[e] == 1:
                    self.doubled -= 1

    def classify(
        self, cfg: SearchConfig, rng: random.Random, stats: SearchStats
    ) -> NodeVerdict:
        """Classify the node at the end of the path; see :func:`verify_node`."""
        if self.doubled:
            return _CUT_DEC
        if self.crossed_kites:
            return _CUT_KEC
        g, d = self.g, self.sol.cursor
        n_sat = len(self.saturated)
        if n_sat < g.m:
            # after a bit-0 push with no new saturated edge the parent, a
            # CNT node, has already found this very query planar
            if not (d and not self.sol.bits[d - 1] and self._planar_sat[d - 1] == n_sat):
                n_star, star = star_edge_list(g, self.crossings, keep=self.saturated)
                stats.planarity_calls += 1
                if not is_planar_edges(n_star, star):
                    return _CUT_NONPLANAR
            self._planar_sat[d] = n_sat
            if not (cfg.completion_probability > 0 and rng.random() < cfg.completion_probability):
                return _CNT
            # complete with all zeros: same crossings, full edge set
            kind = SolutionKind.COMPLETION
        else:
            # the saturated subgraph is the whole graph: the planarity call
            # below decides between a saturation solution and a dead end
            kind = SolutionKind.SATURATION

        if not self._nonplanar_full[d]:
            n_star, star = star_edge_list(g, self.crossings)
            stats.planarity_calls += 1
            rot = rotation_edges(n_star, star)
            if rot is not None:
                return NodeVerdict(
                    NodeKind.SOL,
                    solution_kind=kind,
                    crossings=tuple(self.crossings),
                    star_rotation=tuple(tuple(r) for r in rot),
                )
            self._nonplanar_full[d] = True
        return _CUT_NONPLANAR if kind is SolutionKind.SATURATION else _CNT


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

    The prefix is replayed into a fresh :class:`SearchState`, so this is
    the classification `backtrack` runs at every node, minus the planarity
    answers a search path carries from node to node.
    """
    state = SearchState(g, sol.universe, cfg.enable_kite_pruning)
    for bit in sol.bits[: sol.cursor]:
        state.push(bit)
    return state.classify(cfg, rng, SearchStats() if stats is None else stats)


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
    The deadline is checked before every node, the root included.
    """
    stats.used_backtracking = True
    rng = random.Random(cfg.rng_seed)
    state = SearchState(g, universe, cfg.enable_kite_pruning)
    sol, k = state.sol, universe.k

    # stack of (depth, bit) still to visit: bit 1 pushed first so bit 0 pops first
    stack: list[tuple[int, int]] = []
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            return Verdict.UNKNOWN, None
        v = state.classify(cfg, rng, stats)
        stats.nodes_visited += 1
        if v is _CNT:
            if sol.cursor < k:
                stack.append((sol.cursor, 1))
                stack.append((sol.cursor, 0))
        elif v is _CUT_DEC:
            stats.cuts_dec += 1
        elif v is _CUT_KEC:
            stats.cuts_kec += 1
        elif v is _CUT_NONPLANAR:
            stats.cuts_nonplanar += 1
        else:
            if v.solution_kind is SolutionKind.SATURATION:
                stats.sol_satur += 1
            else:
                stats.sol_compl += 1
            # planarize uses star_edge_list too, so the rotation's edge ids carry over
            p = planarize(g, v.crossings)
            return Verdict.ONE_PLANAR, realize(p, RotationSystem(v.star_rotation))
        if not stack:
            break
        depth, bit = stack.pop()
        while sol.cursor > depth:
            state.pop()
        state.push(bit)

    if universe.restricted:
        return Verdict.UNKNOWN, None
    return Verdict.NOT_ONE_PLANAR, None


def find_skew_set(
    g: Graph, size: int, deadline: float | None = None, *, nonplanar: bool = False
) -> list[int] | None:
    """Lexicographically first set of at most `size` edges whose removal
    leaves a planar graph, or None if no such set exists.  Raises
    TimeoutError once `deadline` (a time.monotonic() value) passes.
    `nonplanar=True` says the caller has already found g nonplanar, which
    skips the whole-graph test."""
    if not nonplanar and is_planar_edges(g.n, g.edges):
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
            skew = find_skew_set(g, cfg.skew_set_size, deadline, nonplanar=True)
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
