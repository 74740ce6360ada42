"""Backtracking search for drawings with at most one crossing per edge.

The search walks the pair universe left to right, assigning each pair
"crosses" (1) or "does not cross" (0).  Each node of the resulting
binary tree is a solution, a dead end (cut), or a node worth extending,
by four facts about the decided prefix.  The first two are decided when
a 1 is pushed, which is then refused:

  * an edge crossed twice can never be repaired (DEC cut);
  * a crossed kite edge, an edge joining an end of one crossing edge to
    an end of the other, is never necessary, because it can be redrawn
    along its crossing without touching anything (KEC cut).

The other two are decided when the node is classified:

  * edges whose status can no longer change (saturated edges) must
    already form a planar arrangement once their crossings are replaced
    by dummy vertices (nonplanar cut otherwise);
  * a drawing with c crossings planarizes to n + c vertices and m + 2c
    edges, so it needs c >= m - 3n + 6; a node whose crossings plus the
    crossings its unsaturated edges could still add fall short holds no
    solution (capacity cut, counted as a nonplanar cut).

A node that passes them and is not saturated tries its zero completion:
its crossings with every other edge uncrossed, a solution if that star
graph is planar.  Every such node tries it, so the tree depends on the
graph and the universe alone.

One more rule skips branches that a symmetry maps onto earlier ones.
Swapping two twins (vertices with the same open or the same closed
neighbourhood) is an automorphism, and the universe names each pair's
orbit under these swaps by the orbit's first position (see
:mod:`~oneplanar.pairs`).  The 1-child of pair d is never pushed when
its orbit opens before the path's first crossing, or before d when the
path has none.  This is sound: in any drawing, a twin permutation maps a
crossing of its earliest orbit onto that orbit's first pair, and the
image is a drawing whose crossings all lie in that orbit or later ones,
with the first pair as its first crossing, so the rule keeps it.  The
cuts above read the whole universe and so stay sound under the rule.

Exhausting the tree without a solution proves the graph has no such
drawing, provided the universe was not restricted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import or_

from .embedding import OnePlanarEmbedding, star_edge_list
from .graph import Graph
from .pairs import PairUniverse, build_restricted_universe, build_universe
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
    """Search settings: the largest skew set the restricted pass tries (0
    turns that pass off) and the time budget of a run, in seconds.  Both
    are checked here, and a bad value raises ValueError."""

    skew_set_size: int = 1
    time_budget: float = 3 * 3600.0

    def __post_init__(self) -> None:
        size = self.skew_set_size
        if isinstance(size, bool) or not isinstance(size, int) or size < 0:
            raise ValueError(f"skew_set_size must be an integer >= 0, got {size!r}")
        if not self.time_budget > 0:  # NaN fails this too
            raise ValueError(f"time_budget must be positive, got {self.time_budget!r}")


@dataclass
class SearchStats:
    """Counters of one search, or of several merged.

    ``planarity_calls`` counts the planarity queries `classify` asks,
    whether the LR test or the edge count settles them; the count also
    settles, inside :func:`~oneplanar.planarity.is_planar_edges`, every
    query on fewer than 9 edges or 6 vertices.  A node below a 0
    asks neither query its parent has answered (see
    :meth:`SearchState.classify`); a capacity cut asks none.
    """

    nodes_visited: int = 0
    cuts_dec: int = 0
    cuts_kec: int = 0
    cuts_nonplanar: int = 0
    sol_satur: int = 0
    sol_compl: int = 0
    planarity_calls: int = 0
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
        self.used_backtracking |= other.used_backtracking
        self.used_skew_pass |= other.used_skew_pass


@dataclass(frozen=True)
class NodeVerdict:
    kind: NodeKind
    cut_reason: CutReason | None = None
    solution_kind: SolutionKind | None = None
    # For SOL nodes: the crossing set and a planar rotation of its star
    # graph in the star_edge_list layout, the block's OnePlanarEmbedding.
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
    certificate: OnePlanarEmbedding | None
    stats: SearchStats


class SearchState:
    """One search path: its decided prefix and everything a node's
    classification reads from it, as edge masks.

    ``bits[:cursor]`` are the decided bits, 1 for a pair that crosses,
    and ``crossings`` lists the crossing pairs in universe order.  Bit e
    of a mask stands for edge e.  An edge is saturated, its crossing
    status fixed below the node, once one of these holds; for the node at
    depth d (d pairs decided) with c crossings the state holds one mask
    per rule:

    * ``crossed[c]``: (a) it is in some crossing pair;
    * ``closed[d]``: (b) it has no pair at position d or later; this
      depends on the universe only;
    * ``cornered[c]``: (c) every universe partner it has is crossed, so
      any further crossing would cross that partner twice (a pair decided
      0 does not count);
    * ``kites[c]``: (d) it is a kite edge of a crossing.

    Rules (a), (c) and (d) change only when a pair crosses, so their masks
    are indexed by the number of crossings on the path, at most m // 2.
    A 0 `push` writes its bit and moves the cursor, a 1 writes crossing
    slot c + 1 from slot c, and `pop` moves the cursor back, so nothing is
    undone.  All rules read the active universe, so a restricted universe
    saturates edges a full one would keep open.  `push` alone decides DEC
    and KEC cuts: it refuses a 1 that would cross an edge twice or cross
    a kite edge, so no path holds either.

    The star graph of a drawing with c crossings has n + c vertices and
    m + 2c edges, so it can only be planar if c >= ``_need`` = m - 3n + 6.
    `classify` answers a completion or saturation query with fewer
    crossings without building its star graph.  It cuts a node that is
    not saturated when its crossings plus half its free edges (unsaturated,
    with an unsaturated universe partner) stay below ``_need``, since
    every crossing below the node pairs two free edges (capacity cut).
    """

    def __init__(self, g: Graph, universe: PairUniverse) -> None:
        self.g = g
        self.universe = universe
        k, pairs = universe.k, universe.pairs
        self.bits = [0] * k
        self.cursor = 0
        self.crossings: list[tuple[int, int]] = []
        partners: list[list[int]] = [[] for _ in range(g.m)]
        partner_mask = [0] * g.m
        for a, b in pairs:
            partners[a].append(b)
            partners[b].append(a)
            partner_mask[a] |= 1 << b
            partner_mask[b] |= 1 << a
        self._partners, self._partner_mask = partners, partner_mask
        # kite mask of each pair: the edges of g joining an end of one of
        # its edges to an end of the other
        self._pair_kites = [0] * k
        edges, between = g.edges, g.edge_between
        for i, (a, b) in enumerate(pairs):
            u1, v1 = edges[a]
            u2, v2 = edges[b]
            mask = 0
            for e in (between(u1, u2), between(u1, v2), between(v1, u2), between(v1, v2)):
                if e is not None:
                    mask |= 1 << e
            self._pair_kites[i] = mask
        # closed[d]: edges in no pair, plus those whose last pair is before d
        last = [0] * (k + 1)
        for e, occ in enumerate(universe.edge_pairs):
            last[occ[-1] + 1 if occ else 0] |= 1 << e
        self.closed = list(accumulate(last, or_))
        self._all_edges = (1 << g.m) - 1
        # fewest crossings of a planar star graph; on n <= 2 every graph is
        # planar and no crossing fits
        self._need = g.m - (3 * g.n - 6) if g.n > 2 else 0
        self.crossed = [0] * (g.m // 2 + 1)
        self.kites = [0] * (g.m // 2 + 1)
        self.cornered = [0] * (g.m // 2 + 1)

    def push(self, bit: int) -> NodeVerdict | None:
        """Decide the pair at the cursor: 1 crosses it, 0 does not.

        A 1 that would cross an already crossed edge returns the DEC cut;
        otherwise a 1 whose crossing would cross a kite edge, of an earlier
        crossing or of its own, returns the KEC cut.  A refused push leaves
        the state untouched; every other push returns None.
        """
        d = self.cursor
        if not bit:
            self.bits[d] = 0
            self.cursor = d + 1
            return None
        a, b = pair = self.universe.pairs[d]
        ab = 1 << a | 1 << b
        c = len(self.crossings)
        if self.crossed[c] & ab:
            return _CUT_DEC
        crossed = self.crossed[c] | ab
        kites = self.kites[c] | self._pair_kites[d]
        if crossed & kites:
            return _CUT_KEC
        self.bits[d] = 1
        self.cursor = d + 1
        self.crossings.append(pair)
        self.crossed[c + 1] = crossed
        self.kites[c + 1] = kites
        cornered = self.cornered[c]
        partner_mask = self._partner_mask
        for f in self._partners[a] + self._partners[b]:
            if not partner_mask[f] & ~crossed:
                cornered |= 1 << f
        self.cornered[c + 1] = cornered
        return None

    def pop(self) -> None:
        """Take back the last decision."""
        self.cursor -= 1
        if self.bits[self.cursor]:
            self.crossings.pop()

    def saturated(self) -> int:
        """Mask of the saturated edges at the cursor."""
        c = len(self.crossings)
        return self.crossed[c] | self.kites[c] | self.cornered[c] | self.closed[self.cursor]

    def classify(self, stats: SearchStats) -> NodeVerdict:
        """Classify the node at the cursor as a solution, a nonplanar cut
        or a node to extend.

        Precondition: every proper ancestor of the node was classified
        CNT, as on every node `backtrack` visits, and the path was built
        by `push`, so no edge on it is crossed twice and no kite edge is
        crossed; DEC and KEC cuts never come from here.  Order of checks:
        saturation of the whole graph; then, for a node that is not
        saturated, the capacity bound, planarity of the saturated
        subgraph's star graph, and finally the zero completion, which
        every such node tries.  Below a 0 the parent had the same
        crossings, so it found their full star graph nonplanar, and it
        found its saturated subgraph's star graph planar: neither query is
        asked again.  Nothing on the state is written.
        """
        g, d, c = self.g, self.cursor, len(self.crossings)
        fixed = self.crossed[c] | self.kites[c] | self.cornered[c]
        sat = fixed | self.closed[d]
        below_zero = d > 0 and not self.bits[d - 1]
        if sat != self._all_edges:
            # capacity cut: a crossing below this node pairs two free edges,
            # unsaturated ones with an unsaturated universe partner, each
            # used once; count them until they cover the crossings missing
            missing = 2 * (self._need - c)
            if missing > 0:
                unsat = self._all_edges ^ sat
                rest, partner_mask = unsat, self._partner_mask
                while rest and missing:
                    low = rest & -rest
                    if partner_mask[low.bit_length() - 1] & unsat:
                        missing -= 1
                    rest ^= low
                if missing:
                    return _CUT_NONPLANAR
            # below a 0 that saturates no new edge, the parent asked this
            if not (below_zero and fixed | self.closed[d - 1] == sat):
                stats.planarity_calls += 1
                if not is_planar_edges(*star_edge_list(g, self.crossings, keep=sat)):
                    return _CUT_NONPLANAR
            # complete with all zeros: same crossings, full edge set
            kind, dead_end = SolutionKind.COMPLETION, _CNT
        else:
            # the saturated subgraph is the whole graph: the planarity call
            # below decides between a saturation solution and a dead end
            kind, dead_end = SolutionKind.SATURATION, _CUT_NONPLANAR

        if below_zero:  # the parent found these crossings' star graph nonplanar
            return dead_end
        stats.planarity_calls += 1
        rot = None if c < self._need else rotation_edges(*star_edge_list(g, self.crossings))
        if rot is None:
            return dead_end
        return NodeVerdict(
            NodeKind.SOL,
            solution_kind=kind,
            crossings=tuple(self.crossings),
            star_rotation=tuple(tuple(r) for r in rot),
        )


def backtrack(
    g: Graph,
    universe: PairUniverse,
    stats: SearchStats,
    deadline: float | None = None,
) -> tuple[Verdict, OnePlanarEmbedding | None]:
    """Depth-first search over the universe; 0 branches explored first.

    Returns OnePlanar on the first solution node, with a
    :class:`OnePlanarEmbedding` of g from that node's crossing set and star
    rotation (not checked here; merge_blocks builds the certificate of the
    whole graph and validates it).  Full
    exhaustion proves NotOnePlanar; exhausting a restricted universe or
    hitting the deadline yields Unknown.
    The deadline is read before every node that `classify` sees, the
    root included.

    The path is the stack: every 0 on it still has its 1-sibling to
    visit and every 1 has none, so the decided prefix alone says where
    the search goes after a leaf.  A 1-sibling that
    :meth:`SearchState.push` refuses as a DEC or KEC cut is counted, as a
    node and a cut, on the way back up; it is a leaf that `classify`
    never sees.  A 1-sibling whose pair's orbit opens before the path's
    first crossing (before the pair itself on a path without crossings)
    is skipped without a push and counts as nothing (see the module
    docstring).
    """
    stats.used_backtracking = True
    state = SearchState(g, universe)
    bits, k, orbit = state.bits, universe.k, universe.orbit
    first = 0  # position of the path's first crossing, read while it has one

    while True:
        if deadline is not None and time.monotonic() >= deadline:
            return Verdict.UNKNOWN, None
        v = state.classify(stats)
        stats.nodes_visited += 1
        if v is _CNT:
            if state.cursor < k:
                state.push(0)
                continue
        elif v is _CUT_NONPLANAR:
            stats.cuts_nonplanar += 1
        else:
            if v.solution_kind is SolutionKind.SATURATION:
                stats.sol_satur += 1
            else:
                stats.sol_compl += 1
            cert = OnePlanarEmbedding(g, v.crossings, RotationSystem(v.star_rotation))
            return Verdict.ONE_PLANAR, cert
        # a leaf: back up past the 1s, whose subtrees are done, and take the
        # 1-sibling of the deepest 0 unless its pair lies in an orbit before
        # the path's first crossing or push refuses it as a cut leaf
        while True:
            while state.cursor and bits[state.cursor - 1]:
                state.pop()
            if not state.cursor:
                break
            state.pop()
            d = state.cursor
            lowest = first if state.crossings else d
            if orbit[d] < lowest:
                continue
            cut = state.push(1)
            if cut is None:
                first = lowest
                break
            stats.nodes_visited += 1
            if cut is _CUT_DEC:
                stats.cuts_dec += 1
            else:
                stats.cuts_kec += 1
        if not state.cursor:
            break

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

    A positive verdict carries a :class:`OnePlanarEmbedding` of g: no
    crossings and the planarity test's rotation for a planar block, else
    the solution node's crossings and star rotation.  It is not checked
    here; :func:`~oneplanar.embedding.merge_blocks` builds and validates
    the certificate of the whole graph.
    """
    stats = SearchStats()
    own_deadline = time.monotonic() + cfg.time_budget
    deadline = own_deadline if deadline is None else min(deadline, own_deadline)

    stats.planarity_calls += 1
    pv = test_planarity(g)
    if pv.planar:
        return BlockResult(Verdict.ONE_PLANAR, OnePlanarEmbedding(g, (), pv.rotation), stats)

    if g.n >= 7 and g.m > 4 * g.n - 8:
        return BlockResult(Verdict.NOT_ONE_PLANAR, None, stats)

    if cfg.skew_set_size > 0:
        try:
            skew = find_skew_set(g, cfg.skew_set_size, deadline, nonplanar=True)
        except TimeoutError:
            return BlockResult(Verdict.UNKNOWN, None, stats)
        if skew:
            stats.used_skew_pass = True
            restricted = build_restricted_universe(g, skew)
            verdict, cert = backtrack(g, restricted, stats=stats, deadline=deadline)
            if verdict is Verdict.ONE_PLANAR:
                return BlockResult(verdict, cert, stats)
            if time.monotonic() >= deadline:
                return BlockResult(Verdict.UNKNOWN, None, stats)

    verdict, cert = backtrack(g, build_universe(g), stats=stats, deadline=deadline)
    if verdict is Verdict.NOT_ONE_PLANAR and g.n < 7:
        raise RuntimeError("internal error: graphs on fewer than 7 vertices always have a drawing")
    return BlockResult(verdict, cert, stats)


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
