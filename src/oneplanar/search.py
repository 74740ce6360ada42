"""Backtracking search for drawings with at most one crossing per edge.

The search walks the pair universe left to right, assigning each pair
"crosses" (1) or "does not cross" (0).  Each node of the resulting
binary tree is its drawing (a solution), its cut (a :class:`CutReason`)
or None, a node worth extending, by four facts about the decided prefix.
The first two are decided when a 1 is pushed, which is then refused:

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

A node's drawing is its zero completion: its crossings with every other
edge uncrossed, a solution if that star graph is planar.
:func:`backtrack` asks for it only at the nodes whose path holds the
level's crossings.  A node above them is never the drawing: it has fewer
crossings than the edge count allows, or it lies on the 0-chain below a
node of an earlier level whose star graph, of the same crossings, was
found nonplanar.  So the tree depends on the graph and the universe
alone.

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

A node's own star graph query is answered without its star graph when
the path's last crossing p = (a, b) cannot be added.  Deleting the
two halves of a at p's dummy vertex from the star graph of the path's
crossings C + p leaves the star graph of C without a and with b
subdivided, so that star graph can be planar only if the star graph of C
stays planar without a and without b.  Whether an edge can be removed
from the star graph of the first s crossings is asked once per edge while
those crossings stay on the path, and nodes hanging off one 0-chain share
it.

The nodes with the path's crossings form the 0-chain below the 1 that
added the last of them, and down that chain the saturated subgraph only
grows, so its star graph turns nonplanar at one cursor and stays so.
The chain's first saturated-subgraph query finds that cursor by
bisection, up to a saturated node or a capacity cut, and its later nodes
read it.  The nonplanar saturated subgraph S found there settles
removable-edge queries too: the star graph without an edge outside S
contains the star graph of S, so no such edge is removable.

Exhausting the tree without a solution proves the graph has no such
drawing.  :func:`backtrack` visits the tree level by level in the
number of crossings on the path, so the drawing it finds has the fewest
crossings of any.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress
from operator import or_

from .embedding import OnePlanarEmbedding, star_edge_list
from .graph import Graph
from .pairs import PairUniverse, build_universe
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


class CutReason(Enum):
    DOUBLE_EDGE_CROSSING = "DEC"
    KITE_EDGE_CROSSING = "KEC"
    NONPLANAR_INDUCED = "Nonplanar"


class UniverseTooLargeError(ValueError):
    def __init__(self, k: int, limit: int) -> None:
        super().__init__(f"universe has {k} pairs, oracle limit is {limit}")
        self.k = k
        self.limit = limit


@dataclass
class SearchConfig:
    """Search settings: the time budget of a run, in seconds.  It is
    checked here, and a bad value raises ValueError."""

    time_budget: float = 3 * 3600.0

    def __post_init__(self) -> None:
        if not self.time_budget > 0:  # NaN fails this too
            raise ValueError(f"time_budget must be positive, got {self.time_budget!r}")


@dataclass
class SearchStats:
    """Counters of one search, or of several merged.

    ``planarity_calls`` counts the queries of the whole-block test, the
    skew-edge search (none if the deadline stops it), the skew pass and
    the search.  In the search it is one per call of
    :func:`~oneplanar.planarity.is_planar_edges` or
    :func:`~oneplanar.planarity.rotation_edges`; the first settles every
    query on fewer than 9 edges or 6 vertices by the edge count alone.
    Only a node whose path holds its level's crossings asks its own star
    graph (see :func:`backtrack`), and a node the next level reopens asks
    its saturated subgraph then.  A capacity cut asks nothing.  The
    saturated-subgraph queries of one 0-chain cost the calls of one
    bisection (see the module docstring), charged to the node that asks
    first.  A star graph query settled by its last crossing's edges costs
    no call, and each removable-edge query it asks costs one.
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
    undone.  `push` alone decides DEC and KEC cuts: it refuses a 1 that
    would cross an edge twice or cross a kite edge, so no path holds
    either.

    The star graph of a drawing with c crossings has n + c vertices and
    m + 2c edges, so it can only be planar if c >= ``_need`` = m - 3n + 6,
    where :func:`backtrack`'s levels start.  `classify` cuts a node that
    is not saturated when its crossings plus half its free edges
    (unsaturated, with an unsaturated universe partner) stay below
    ``_need``, since every crossing below the node pairs two free edges
    (capacity cut).

    ``tested[s]`` and ``removable[s]`` memoise, for the first s crossings
    on the path, the edges whose removal from their star graph was tested
    and the edges whose removal leaves it planar.  ``sat_cut[s]`` holds,
    for the 0-chain with those crossings, the cursors its bisection
    covered and the first of them whose saturated subgraph has a
    nonplanar star graph.  A 1 that writes slot c + 1 clears all three,
    so a memo is read only while its crossings are on the path.
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
        self.tested = [0] * (g.m // 2 + 1)
        self.removable = [0] * (g.m // 2 + 1)
        self.sat_cut: list[tuple[range, int] | None] = [None] * (g.m // 2 + 1)

    def push(self, bit: int) -> CutReason | None:
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
            return CutReason.DOUBLE_EDGE_CROSSING
        crossed = self.crossed[c] | ab
        kites = self.kites[c] | self._pair_kites[d]
        if crossed & kites:
            return CutReason.KITE_EDGE_CROSSING
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
        self.tested[c + 1] = self.removable[c + 1] = 0
        self.sat_cut[c + 1] = None
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

    def classify(self, stats: SearchStats) -> CutReason | None:
        """Classify the node at the cursor, above its level: the nonplanar
        cut, or None for a node to extend.

        Such a node is never the drawing (see the module docstring), so it
        is cut when it is saturated, falls to the capacity cut or has a
        saturated subgraph with a nonplanar star graph.  The path was built
        by `push`, so no edge on it is crossed twice and no kite edge is
        crossed; DEC and KEC cuts never come from here.  Nothing on the
        state is written but its memos.
        """
        sat = self.saturated()
        if (sat == self._all_edges or self._capacity_cut(len(self.crossings), sat)
                or not self._saturated_planar(stats)):
            return CutReason.NONPLANAR_INDUCED
        return None

    def classify_at_level(self, stats: SearchStats) -> OnePlanarEmbedding | CutReason | None:
        """Classify the node at the cursor, whose path holds its level's
        crossings, by its own star graph alone: the block's drawing if it
        is planar, else the nonplanar cut if the node is saturated and
        None, a node to extend, if not.  Every node below has the node's
        crossings or more, so this is the one drawing with exactly these
        crossings.  One planarity query, unless an edge of the last
        crossing is not removable (:meth:`_removable`); the saturated
        subgraph's query waits for :meth:`reopen`."""
        dead_end = CutReason.NONPLANAR_INDUCED if self.saturated() == self._all_edges else None
        if self.crossings:
            a, b = self.crossings[-1]
            s = len(self.crossings) - 1
            # an edge already known not to be removable asks nothing
            if self.tested[s] & ~self.removable[s] & (1 << a | 1 << b) or not (
                self._removable(a, stats) and self._removable(b, stats)
            ):
                return dead_end
        stats.planarity_calls += 1
        rot = rotation_edges(*star_edge_list(self.g, self.crossings))
        if rot is None:
            return dead_end
        return OnePlanarEmbedding(self.g, tuple(self.crossings), RotationSystem.from_lists(rot))

    def reopen(self, cursor: int, positions: tuple[int, ...],
               stats: SearchStats) -> CutReason | None:
        """Go back to a node that :meth:`classify_at_level` left to extend,
        at `cursor` with crossings at `positions`, by pushing them again,
        and ask the query of `classify` that its children's `classify`
        relies on: the nonplanar cut if the saturated subgraph's star graph
        is nonplanar, else None.  The capacity cut cannot fire here, as the
        node holds at least m - 3n + 6 crossings.  The crossings the path
        shares with the node stay, with their slots and memos, and only
        the rest are pushed."""
        crossings, pairs = self.crossings, self.universe.pairs
        kept = 0
        for pair, d in zip(crossings, positions):
            if pair != pairs[d]:
                break
            kept += 1
        del crossings[kept:]
        start = positions[kept - 1] + 1 if kept else 0
        self.bits[start:cursor] = [0] * (cursor - start)
        for d in positions[kept:]:
            self.cursor = d
            self.push(1)
        self.cursor = cursor
        return None if self._saturated_planar(stats) else CutReason.NONPLANAR_INDUCED

    def _capacity_cut(self, c: int, sat: int) -> bool:
        """Whether a node with c crossings and saturated edges `sat` falls
        to the capacity cut: a crossing below it pairs two free edges,
        unsaturated ones with an unsaturated universe partner, each used
        once; count them until they cover the crossings missing."""
        missing = 2 * (self._need - c)
        if missing > 0:
            unsat = self._all_edges ^ sat
            rest, partner_mask = unsat, self._partner_mask
            while rest and missing:
                low = rest & -rest
                if partner_mask[low.bit_length() - 1] & unsat:
                    missing -= 1
                rest ^= low
        return missing > 0

    def _saturated_planar(self, stats: SearchStats) -> bool:
        """Whether the star graph of the saturated subgraph at the cursor is
        planar.  The nodes with the path's crossings form the 0-chain below
        the 1 that wrote their slot, and down it the saturated subgraph only
        grows, so the first query at a slot bisects the chain for the first
        cursor where the star graph turns nonplanar, up to a node that is
        saturated or falls to the capacity cut, and the slot's ``sat_cut``
        answers the chain's later nodes.  Every query costs one call."""
        c, d = len(self.crossings), self.cursor
        memo = self.sat_cut[c]
        if memo is None or d not in memo[0]:
            fixed = self.crossed[c] | self.kites[c] | self.cornered[c]
            closed, all_edges = self.closed, self._all_edges
            steps, last, end = [], -1, len(closed)
            for x in range(d, end):
                sat = fixed | closed[x]
                if sat == all_edges or self._capacity_cut(c, sat):
                    end = x
                    break
                if sat != last:
                    steps.append(x)
                    last = sat
            lo, hi = 0, len(steps)
            while lo < hi:
                mid = (lo + hi) // 2
                stats.planarity_calls += 1
                keep = fixed | closed[steps[mid]]
                if is_planar_edges(*star_edge_list(self.g, self.crossings, keep=keep)):
                    lo = mid + 1
                else:
                    hi = mid
            cut = end
            if lo < len(steps):
                cut = steps[lo]
                # the star graph without an edge outside this subgraph
                # contains its star graph, so no such edge is removable
                self.tested[c] |= all_edges ^ (fixed | closed[cut])
            memo = self.sat_cut[c] = (range(d, end), cut)
        return d < memo[1]

    def _removable(self, e: int, stats: SearchStats) -> bool:
        """Whether the star graph of the path's crossings but the last stays
        planar without edge e; a planarity query the first time it is
        asked for these crossings, then the memo of their slot."""
        s, bit = len(self.crossings) - 1, 1 << e
        if not self.tested[s] & bit:
            stats.planarity_calls += 1
            self.tested[s] |= bit
            star = star_edge_list(self.g, self.crossings[:s], keep=self._all_edges ^ bit)
            if is_planar_edges(*star):
                self.removable[s] |= bit
        return bool(self.removable[s] & bit)


def backtrack(
    g: Graph,
    universe: PairUniverse,
    stats: SearchStats,
    deadline: float | None = None,
) -> tuple[Verdict, OnePlanarEmbedding | None]:
    """Depth-first search over the universe, 0 branches first, visited
    level by level in the number of crossings on the path.

    Level L, from max(m - 3n + 6, 0) up, searches the tree down to the
    nodes whose path holds L crossings; level 0 is the root alone.  Such
    a node asks only its own star graph
    (:meth:`SearchState.classify_at_level`): the answer if it is planar,
    a leaf if the node is saturated, and otherwise a node whose subtree
    level L + 1 searches, after :meth:`SearchState.reopen` restores it.
    Every node is classified once, so a search that exhausts the tree
    visits the default tree's nodes with the same cuts, and NotOnePlanar
    comes only from a level that leaves nothing open.

    The first solution node gives OnePlanar and the
    :class:`OnePlanarEmbedding` of g it returns (merge_blocks validates
    it), with the fewest crossings of any drawing of g: one with fewest
    crossings crosses no kite edge, a twin swap keeps the count and the
    capacity cut holds for any drawing, so level L finds a drawing when g
    has one with L crossings.  The deadline is read before every node the
    search classifies or reopens.

    Within a subtree the path is the stack: every 0 on it still has its
    1-sibling to visit and every 1 has none.  A 1-sibling that `push`
    refuses is counted, as a node and a DEC or KEC cut, on the way back
    up; one whose pair's orbit opens before the path's first crossing
    (before the pair itself on a path without one) is skipped.
    """
    stats.used_backtracking = True
    state = SearchState(g, universe)
    bits, crossings, orbit = state.bits, state.crossings, universe.orbit
    level = max(state._need, 0)
    # the root, not yet classified, and then the nodes each level leaves open
    subtrees: list[tuple[int, tuple[int, ...] | None]] = [(0, None)]
    while subtrees:
        deferred = []  # the nodes whose subtrees the next level searches
        for floor, positions in subtrees:
            if deadline is not None and time.monotonic() >= deadline:
                return Verdict.UNKNOWN, None
            if positions is not None:  # a node the level below left open
                if state.reopen(floor, positions, stats) is CutReason.NONPLANAR_INDUCED:
                    stats.cuts_nonplanar += 1
                    continue
                state.push(0)
            first = positions[0] if positions else 0  # read while the path has a crossing
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    return Verdict.UNKNOWN, None
                stats.nodes_visited += 1
                if len(crossings) < level:
                    v = state.classify(stats)
                    if v is None:  # never saturated, so the cursor is below k
                        state.push(0)
                        continue
                else:
                    v = state.classify_at_level(stats)
                    if isinstance(v, OnePlanarEmbedding):
                        if state.saturated() == state._all_edges:
                            stats.sol_satur += 1
                        else:
                            stats.sol_compl += 1
                        return Verdict.ONE_PLANAR, v
                    if v is None:
                        deferred.append((state.cursor, tuple(compress(range(state.cursor), bits))))
                if v is CutReason.NONPLANAR_INDUCED:
                    stats.cuts_nonplanar += 1
                # a leaf: back up past the 1s and take the 1-sibling of the deepest
                # 0, unless the orbit rule skips it or push refuses it as a cut leaf
                while True:
                    while state.cursor > floor and bits[state.cursor - 1]:
                        state.pop()
                    if state.cursor == floor:
                        break
                    state.pop()
                    d = state.cursor
                    lowest = first if crossings else d
                    if orbit[d] < lowest:
                        continue
                    cut = state.push(1)
                    if cut is None:
                        first = lowest
                        break
                    stats.nodes_visited += 1
                    if cut is CutReason.DOUBLE_EDGE_CROSSING:
                        stats.cuts_dec += 1
                    else:
                        stats.cuts_kec += 1
                if state.cursor == floor:
                    break
        subtrees = deferred
        level += 1
    return Verdict.NOT_ONE_PLANAR, None


def find_skew_set(g: Graph, deadline: float | None = None) -> int | None:
    """The first edge whose removal leaves the nonplanar graph g planar, or
    None if there is none.  Raises TimeoutError once `deadline` (a
    time.monotonic() value) passes."""
    for e in range(g.m):
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError("deadline passed during the skew edge search")
        if is_planar_edges(g.n, g.edges[:e] + g.edges[e + 1 :]):
            return e
    return None


def test_block(
    g: Graph,
    cfg: SearchConfig,
    deadline: float | None = None,
) -> BlockResult:
    """Decide 1-planarity of one (biconnected) block.

    Pipeline: a block on 7 or more vertices with more than 4n - 8 edges
    is too dense for any drawing (and nonplanar, as 4n - 8 >= 3n - 6);
    planar graphs are certified directly; blocks on fewer than 7
    vertices always have a drawing, found by search; otherwise, when
    removing one edge e leaves the block planar (e is a skew edge), each
    crossing of e with one other edge is tried first, and the search
    settles whatever is left open.  Past the density gate, a deadline
    that has passed gives Unknown before any planarity query.

    The skew pass tries each crossing (e, f) of e with an edge f
    independent of it, f from the last edge to the first, and returns the
    first whose star graph is planar.  Each try counts as a node, a
    planarity call, and a saturation solution or a nonplanar cut.  This
    order gives the drawing a 0-first search over the pairs holding e
    finds first: its all-zero path ends where g minus e and the partners
    still ahead turns nonplanar, and a crossing with one of those partners
    has no planar star graph either.

    A positive verdict carries a :class:`OnePlanarEmbedding` of g: no
    crossings and the planarity test's rotation for a planar block, else
    the solution node's crossings and star rotation.  It is not checked
    here; :func:`~oneplanar.embedding.merge_blocks` builds and validates
    the certificate of the whole graph.
    """
    stats = SearchStats()
    own_deadline = time.monotonic() + cfg.time_budget
    deadline = own_deadline if deadline is None else min(deadline, own_deadline)

    if g.n >= 7 and g.m > 4 * g.n - 8:
        return BlockResult(Verdict.NOT_ONE_PLANAR, None, stats)
    if time.monotonic() >= deadline:
        return BlockResult(Verdict.UNKNOWN, None, stats)

    stats.planarity_calls += 1
    rotation = test_planarity(g)
    if rotation is not None:
        return BlockResult(Verdict.ONE_PLANAR, OnePlanarEmbedding(g, (), rotation), stats)

    try:
        e = find_skew_set(g, deadline)
    except TimeoutError:
        return BlockResult(Verdict.UNKNOWN, None, stats)
    stats.planarity_calls += g.m if e is None else e + 1
    if e is not None:
        stats.used_skew_pass = stats.used_backtracking = True
        for f in reversed(range(g.m)):
            if g.adjacent_edges(e, f):  # e itself included
                continue
            if time.monotonic() >= deadline:
                return BlockResult(Verdict.UNKNOWN, None, stats)
            pair = (min(e, f), max(e, f))
            stats.nodes_visited += 1
            stats.planarity_calls += 1
            rot = rotation_edges(*star_edge_list(g, [pair]))
            if rot is not None:
                stats.sol_satur += 1
                cert = OnePlanarEmbedding(g, (pair,), RotationSystem.from_lists(rot))
                return BlockResult(Verdict.ONE_PLANAR, cert, stats)
            stats.cuts_nonplanar += 1

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
