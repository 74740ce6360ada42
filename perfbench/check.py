"""Output check that does not rely on the program's own validator.

A positive verdict is accepted only if the crossing list of its
certificate, read back from the serialized text, describes a drawing:
every edge is crossed at most once, no crossing pair shares an endpoint,
and the graph with each crossing replaced by a degree-4 vertex is planar
according to networkx.  A negative verdict is accepted only if it matches
the pinned verdict, and for bound families also the edge bound.
"""

from __future__ import annotations

from corpus import BOUND, CONSTRUCTION, Instance, bound_holds


def same_graph(inst: Instance, g) -> bool:
    """The program's Graph holds exactly the generated input, in order."""
    want = tuple(tuple(sorted(e)) for e in inst.edges)
    return g.n == inst.n and tuple(g.edges) == want


def crossings_problem(inst: Instance, crossings) -> str | None:
    """Why `crossings` is not a drawing of `inst`, or None if it is."""
    edges = [tuple(sorted(e)) for e in inst.edges]
    crossed: set[int] = set()
    for pair in crossings:
        if len(pair) != 2:
            return f"malformed crossing {pair!r}"
        for e in pair:
            if not 0 <= e < len(edges):
                return f"unknown edge {e}"
            if e in crossed:
                return f"edge {e} crossed twice"
            crossed.add(e)
        a, b = pair
        if set(edges[a]) & set(edges[b]):
            return f"crossing pair {a},{b} shares an endpoint"
    # imported here, so that a run reads its peak memory before networkx loads
    import networkx as nx

    star = nx.Graph()
    star.add_nodes_from(range(inst.n))
    star.add_edges_from(uv for e, uv in enumerate(edges) if e not in crossed)
    for t, (a, b) in enumerate(crossings):
        star.add_edges_from((x, ("x", t)) for x in edges[a] + edges[b])
    if not nx.check_planarity(star)[0]:
        return "planarization is not planar"
    return None


def verdict_problem(inst: Instance, verdict: str, pinned: dict | None,
                    parsed_crossings, reported_crossings: int | None) -> str | None:
    """Why this outcome is wrong, or None if it is right."""
    if verdict not in ("OnePlanar", "NotOnePlanar"):
        return f"verdict {verdict}"
    if inst.expect == CONSTRUCTION:
        want = "OnePlanar"
    elif pinned is None:
        return "no pinned verdict"
    else:
        want = pinned["verdict"]
    if inst.expect == BOUND and not (want == "NotOnePlanar" and bound_holds(inst.n, len(inst.edges))):
        return "bound family without the bound"
    if verdict != want:
        return f"verdict {verdict}, expected {want}"
    if verdict == "NotOnePlanar":
        return None
    if parsed_crossings is None:
        return "positive verdict without certificate"
    if reported_crossings != len(parsed_crossings):
        return f"reports {reported_crossings} crossings, certificate has {len(parsed_crossings)}"
    return crossings_problem(inst, parsed_crossings)

