"""Pair universe construction and saturation bookkeeping."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cycle_graph, random_connected_graph
from oneplanar.graph import build_graph
from oneplanar.pairs import build_universe
from oneplanar.search import SearchState
from reference import (
    crossed_edges,
    crossing_counts,
    decided_pairs,
    edge_mask,
    restricted_universe,
    saturated_edges,
    without_kites,
)

# K5 edge ids are lexicographic: (0,1)=0 (0,2)=1 (0,3)=2 (0,4)=3 (1,2)=4
# (1,3)=5 (1,4)=6 (2,3)=7 (2,4)=8 (3,4)=9.  Its 15 independent pairs,
# worked out by hand, in (min,max) lexicographic order:
K5_PAIRS = (
    (0, 7), (0, 8), (0, 9),
    (1, 5), (1, 6), (1, 9),
    (2, 4), (2, 6), (2, 8),
    (3, 4), (3, 5), (3, 7),
    (4, 9), (5, 8), (6, 7),
)


class TestBuildUniverse:
    def test_k4_three_perfect_pairs(self):
        u = build_universe(complete_graph(4))
        assert u.pairs == ((0, 5), (1, 4), (2, 3))
        assert u.k == 3 and u.m == 6

    def test_k5_fifteen_pairs(self):
        u = build_universe(complete_graph(5))
        assert u.pairs == K5_PAIRS

    def test_k6_count(self):
        # C(15,2)=105 pairs minus 6*C(5,2)=60 adjacent ones.
        assert build_universe(complete_graph(6)).k == 45

    def test_cycle_count(self):
        # C6: each edge independent of the 3 edges not touching it.
        assert build_universe(cycle_graph(6)).k == 9

    def test_star_has_empty_universe(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        u = build_universe(g)
        assert u.k == 0 and u.edge_pairs == ((), (), ())

    def test_edge_pairs_index(self):
        u = build_universe(complete_graph(5))
        for e, occ in enumerate(u.edge_pairs):
            assert list(occ) == sorted(occ)
            assert all(e in u.pairs[p] for p in occ)
        # Every pair is indexed under both of its edges.
        for i, (e, f) in enumerate(u.pairs):
            assert i in u.edge_pairs[e] and i in u.edge_pairs[f]


class TestDecidedPrefix:
    def test_push_pop_roundtrip(self):
        g = complete_graph(4)
        state = SearchState(g, build_universe(g))
        assert state.push(1) is None and state.push(0) is None
        assert state.cursor == 2 and state.bits[:2] == [1, 0]
        assert state.crossings == [(0, 5)]
        state.pop()
        state.pop()
        assert state.cursor == 0 and state.crossings == []

    def test_counts_match_crossed(self, rng: random.Random):
        g = complete_graph(5)
        u = build_universe(g)
        for _ in range(50):
            bits = [rng.randrange(2) for _ in range(rng.randrange(u.k + 1))]
            counts = crossing_counts(u, bits)
            assert crossed_edges(u, bits) == {e for e, c in enumerate(counts) if c}
            assert sum(counts) == 2 * len(decided_pairs(u, bits))


class TestSaturation:
    def test_empty_prefix_full_universe(self):
        assert saturated_edges(build_universe(complete_graph(4)), []) == set()

    def test_crossing_saturates_both_edges(self):
        assert saturated_edges(build_universe(complete_graph(4)), [1]) == {0, 5}

    def test_restricted_saturates_uncovered_edges(self):
        u = restricted_universe(complete_graph(5), [0])
        assert u.pairs == ((0, 7), (0, 8), (0, 9))
        assert saturated_edges(u, []) == {1, 2, 3, 4, 5, 6}

    def test_passed_occurrence_saturates(self):
        u = restricted_universe(complete_graph(5), [0])
        # Pair (0,7) is behind the cursor, so edge 7 can never cross now.
        assert saturated_edges(u, [0]) == {1, 2, 3, 4, 5, 6, 7}

    def test_exhausted_partners_saturate(self):
        u = restricted_universe(complete_graph(5), [0])
        # Edges 8 and 9 only cross edge 0, which is taken: everything fixed.
        assert saturated_edges(u, [1]) == set(range(10))

    def test_declined_pair_does_not_count_as_partner(self):
        # Edge 5 in K4 pairs only with edge 0; deciding (0,5)=0 passes its
        # occurrence, so (b) fires, but edge 1 keeps its future pair open.
        assert saturated_edges(build_universe(complete_graph(4)), [0]) == {0, 5}

    def test_kite_edges_join_the_set(self):
        u = build_universe(complete_graph(4))
        assert saturated_edges(u, [1], kites=frozenset({1, 4})) == {0, 1, 4, 5}


def _pool() -> list:
    rng = random.Random(20260814)
    graphs = [complete_graph(4), complete_graph(5), cycle_graph(6)]
    while len(graphs) < 24:
        g = random_connected_graph(rng.randrange(4, 8), rng.randrange(4, 10), rng)
        if build_universe(g).k <= 12:
            graphs.append(g)
    return graphs


POOL = _pool()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_saturation_is_monotone(data):
    g = data.draw(st.sampled_from(POOL))
    u = build_universe(g)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=u.k, max_size=u.k))
    j = data.draw(st.integers(0, u.k))
    assert saturated_edges(u, bits[:j]) <= saturated_edges(u, bits)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_saturated_status_survives_valid_extension(data):
    """Once saturated, an edge is crossed in an extension iff crossed now.

    Extensions are restricted to assignments without double crossings; a
    drawing crossing an edge twice is never a solution, so those branches
    carry no counterexamples.  The search state replaying the prefix
    refuses no push and saturates the same edges.
    """
    g = data.draw(st.sampled_from(POOL))
    u = build_universe(g)
    bits = [0] * u.k
    order = data.draw(st.permutations(range(u.k)))
    counts = [0] * u.m
    for p in order:
        e, f = u.pairs[p]
        if counts[e] or counts[f]:
            continue
        if data.draw(st.booleans()):
            bits[p] = 1
            counts[e] += 1
            counts[f] += 1
    j = data.draw(st.integers(0, u.k))
    now, later = crossed_edges(u, bits[:j]), crossed_edges(u, bits)
    saturated = saturated_edges(u, bits[:j])
    for e in saturated:
        assert (e in now) == (e in later)
    with pytest.MonkeyPatch.context() as mp:
        without_kites(mp)  # the reference saturates no kite edge here
        state = SearchState(g, u)
    assert all(state.push(bit) is None for bit in bits[:j])
    assert state.saturated() == edge_mask(saturated)
