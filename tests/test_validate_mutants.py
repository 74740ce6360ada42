"""`validate` verdicts on seeded mutants of pipeline certificates.

Every mutant is a (crossings, rotation rows) pair derived from the
certificate `run_pipeline` returns for one of a fixed set of graphs.  The
list of (graph, kind, verdict) triples is pinned by a digest, so a change
to how certificates are stored or checked cannot quietly change what
`validate` accepts.  Every accepted mutant is also checked here without
the package: its star graph is rebuilt from g and the pairs, networkx's
`check_structure` must accept the rotation and every dummy must
alternate.
"""

from __future__ import annotations

import hashlib
import random

import networkx as nx

from conftest import (
    complete_bipartite,
    complete_graph,
    glue_at_vertex,
    grid_graph,
    petersen_graph,
    random_connected_graph,
)
from oneplanar.cli import run_pipeline
from oneplanar.embedding import OnePlanarEmbedding, star_edge_list, validate
from oneplanar.graph import Graph
from oneplanar.pairs import build_universe
from oneplanar.planarity import RotationSystem, rotation_edges
from oneplanar.search import SearchConfig

# Recorded with the earlier certificate type, which stored the star graph
# built by `planarize` next to the rotation (a `planarize` error counted as
# a rejection), when 103 of the 660 mutants were accepted; re-recorded when
# the search came to visit the tree level by level, which changes the
# certificates the mutants start from: 101 are accepted.
MUTANT_DIGEST = "99229617e48114c47183aa83fec998d6e68a7613c1be9fda97a13978633636c3"

MUTANT_KINDS = (
    "original", "swap-rows", "reverse-row", "swap-entries", "reverse-pair",
    "add-pair", "drop-pair", "non-alternating", "foreign-rotation",
)


def mutant_graphs():
    graphs = [
        ("K5", complete_graph(5)),
        ("K6", complete_graph(6)),
        ("K3,3", complete_bipartite(3, 3)),
        ("Petersen", petersen_graph()),
        ("grid 3x4", grid_graph(3, 4)),
        ("K6+K5", glue_at_vertex(complete_graph(6), complete_graph(5))),
    ]
    for n in range(8, 13):
        graphs.append((f"random {n}", random_connected_graph(n, 2 * n - 2, random.Random(n))))
    return graphs


def foreign_rotation(g, crossings, rng):
    """An LR rotation of the star of another crossing set: the given one
    with one pair traded for a universe pair, or with one pair more if
    there is none; None if no such star is planar."""
    drops = list(range(len(crossings))) or [None]
    rng.shuffle(drops)
    for i in drops:
        keep = [pr for j, pr in enumerate(crossings) if j != i]
        used = {e for pr in keep for e in pr}
        options = [pr for pr in build_universe(g).pairs
                   if pr not in crossings and not used & set(pr)]
        rng.shuffle(options)
        for pr in options:
            rows = rotation_edges(*star_edge_list(g, keep + [pr]))
            if rows is not None:
                return rows
    return None


def mutate(kind, g, crossings, rows, rng):
    """One mutant (crossings, rows) of a certificate, or None if `kind`
    does not apply to it."""
    crossings, rows = list(crossings), [list(r) for r in rows]
    c = len(crossings)
    if kind == "original":
        pass
    elif kind == "swap-rows":
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "reverse-row":
        rows[rng.randrange(len(rows))].reverse()
    elif kind == "swap-entries":
        row = rng.choice([r for r in rows if len(r) > 1])
        i, j = rng.sample(range(len(row)), 2)
        row[i], row[j] = row[j], row[i]
    elif kind == "reverse-pair":
        if not c:
            return None
        t = rng.randrange(c)
        crossings[t] = crossings[t][::-1]
    elif kind == "add-pair":
        a, b = rng.sample(range(g.m), 2)
        crossings.insert(rng.randrange(c + 1), (a, b))
    elif kind == "drop-pair":
        if not c:
            return None
        del crossings[rng.randrange(c)]
    elif kind == "non-alternating":
        if not c:
            return None
        row = rows[g.n + rng.randrange(c)]
        row[1], row[2] = row[2], row[1]
    else:
        rows = foreign_rotation(g, crossings, rng)
        if rows is None:
            return None
    return crossings, rows


def mutant_verdicts(check):
    """(graph, kind, verdict) of 60 seeded mutants of the pipeline
    certificate of each mutant graph, `check(g, crossings, rows)` giving
    the verdict."""
    out = []
    for label, g in mutant_graphs():
        record, emb = run_pipeline(g, SearchConfig())
        assert record.verdict == "OnePlanar", label
        rng = random.Random(label)
        made = 0
        while made < 60:
            kind = rng.choice(MUTANT_KINDS)
            mutant = mutate(kind, g, emb.crossings, emb.rotation.order, rng)
            if mutant is None:
                continue
            out.append((label, kind, check(g, *mutant)))
            made += 1
    return out


def networkx_certifies(g: Graph, crossings, rows) -> bool:
    """The rotation passes networkx's check of the star graph, rebuilt
    here from g and the pairs, and alternates at every dummy."""
    crossed = {e for pr in crossings for e in pr}
    ends = [g.edges[e] for e in range(g.m) if e not in crossed]
    for t, (a, b) in enumerate(crossings):
        ends += [(x, g.n + t) for x in g.edges[a] + g.edges[b]]
    emb = nx.PlanarEmbedding()
    emb.add_nodes_from(range(len(rows)))
    emb.set_data({v: [x if y == v else y for x, y in (ends[s] for s in row)]
                  for v, row in enumerate(rows)})
    try:
        emb.check_structure()
    except nx.NetworkXException:
        return False
    for t, (a, b) in enumerate(crossings):
        x = [ends[s][0] for s in rows[g.n + t]]  # the corner of each half
        if {frozenset((x[0], x[2])), frozenset((x[1], x[3]))} != \
                {frozenset(g.edges[a]), frozenset(g.edges[b])}:
            return False
    return True


def test_validate_verdicts_on_mutants_match_recorded_digest():
    accepted = []

    def check(g, crossings, rows):
        emb = OnePlanarEmbedding(g, tuple(crossings), RotationSystem.from_lists(rows))
        ok = validate(g, emb)
        if ok:
            accepted.append((g, crossings, rows))
        return ok

    verdicts = mutant_verdicts(check)
    assert len(verdicts) >= 600
    assert {kind for _, kind, _ in verdicts} == set(MUTANT_KINDS)
    assert {kind for _, kind, ok in verdicts if not ok} == set(MUTANT_KINDS) - {"original"}
    assert len(accepted) == 101
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == MUTANT_DIGEST
    for g, crossings, rows in accepted:
        assert networkx_certifies(g, crossings, rows)
