"""Spans around the program's public functions, recorded from outside.

`install` replaces each traced function by a wrapper in every loaded
`oneplanar` module that holds it, so both the defining module and the
modules that imported the name (e.g. `oneplanar.search.is_planar_edges`)
call the wrapper.  A name that no longer exists is listed as unobserved
instead of failing the run.  Spans are kept in memory as parallel arrays
(name, start, end, parent, instance) until the run ends, when `summary`
turns them into per-name call counts, inclusive time and self time (a
span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# (defining module, function name); the span is named "<module>.<name>"
TRACED = [
    ("oneplanar.cli", "parse_graph_file"),
    ("oneplanar.cli", "run_pipeline"),
    ("oneplanar.graph", "biconnected_components"),
    ("oneplanar.search", "test_block"),
    ("oneplanar.search", "find_skew_set"),
    ("oneplanar.search", "backtrack"),
    ("oneplanar.pairs", "build_universe"),
    ("oneplanar.pairs", "build_restricted_universe"),
    ("oneplanar.pairs", "crossing_counts"),
    ("oneplanar.pairs", "saturated_edges"),
    ("oneplanar.planarity", "test_planarity"),
    ("oneplanar.planarity", "is_planar_edges"),
    ("oneplanar.planarity", "rotation_edges"),
    ("oneplanar.planarity", "euler_check"),
    ("oneplanar.embedding", "planarize"),
    ("oneplanar.embedding", "realize"),
    ("oneplanar.embedding", "validate"),
    ("oneplanar.embedding", "merge_blocks"),
    ("oneplanar.embedding", "serialize_embedding"),
    ("oneplanar.embedding", "parse_embedding"),
]


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by the id stored in self.name
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance = array("l")
        self.instance_id = -1
        self.counts: Counter[str] = Counter()
        self.unobserved: list[str] = []
        self._open: list[int] = []
        self._last_query = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, span: str):
        sid = len(self.names)
        self.names.append(span)
        hook = _HOOKS.get(span)
        names, starts, ends, parents, insts = self.name, self.start, self.end, self.parent, self.instance
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = hook.before(self, args, kwargs) if hook else None
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            insts.append(self.instance_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook:
                hook.after(self, args, kwargs, before, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self) -> None:
        for modname, attr in TRACED:
            span = f"{modname.split('.', 1)[1]}.{attr}"
            try:
                orig = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.unobserved.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, span)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if (name == "oneplanar" or name.startswith("oneplanar.")) and \
                        getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[i]
        return out


class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, before, result) -> None:
        pass


class _PlanarityQuery(_Hook):
    """Counts repeats (a query identical to the previous is_planar_edges
    query) and nonplanar answers."""

    def __init__(self, repeats: bool) -> None:
        self.repeats = repeats

    def before(self, tracer, args, kwargs):
        if self.repeats:
            try:
                query = (_arg(args, kwargs, 0, "n"), tuple(_arg(args, kwargs, 1, "edges")))
            except (IndexError, KeyError, TypeError):
                tracer.counts["hook_errors"] += 1
                return None
            if query == tracer._last_query:
                tracer.counts["planarity.repeats"] += 1
            tracer._last_query = query
        return None

    def after(self, tracer, args, kwargs, before, result) -> None:
        if result is None or result is False:
            tracer.counts["planarity.nonplanar"] += 1


class _Backtrack(_Hook):
    """Splits search nodes between restricted and full universes."""

    def before(self, tracer, args, kwargs):
        try:
            return _arg(args, kwargs, 3, "stats").nodes_visited
        except (IndexError, KeyError, AttributeError):
            tracer.counts["hook_errors"] += 1
            return None

    def after(self, tracer, args, kwargs, before, result) -> None:
        if before is None:
            return
        try:
            nodes = _arg(args, kwargs, 3, "stats").nodes_visited - before
            restricted = _arg(args, kwargs, 1, "universe").restricted
        except (IndexError, KeyError, AttributeError):
            tracer.counts["hook_errors"] += 1
            return
        tracer.counts["search.restricted_nodes" if restricted else "search.full_nodes"] += nodes


class _Universe(_Hook):
    def after(self, tracer, args, kwargs, before, result) -> None:
        try:
            tracer.counts["pairs.universe_k"] += result.k
            tracer.counts["pairs.universes"] += 1
        except AttributeError:
            tracer.counts["hook_errors"] += 1


_HOOKS = {
    "planarity.is_planar_edges": _PlanarityQuery(repeats=True),
    "planarity.rotation_edges": _PlanarityQuery(repeats=False),
    "search.backtrack": _Backtrack(),
    "pairs.build_universe": _Universe(),
}
