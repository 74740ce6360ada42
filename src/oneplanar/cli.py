"""Command line front end: check single graphs, benchmark directories.

Input formats: plain edge lists (one "u v" pair per line, ``#`` comments)
and a small GML subset (graph/node/edge blocks with id, source, target).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass, fields

from .embedding import (
    OnePlanarEmbedding,
    count_crossings,
    merge_blocks,
    serialize_embedding,
)
from .graph import Block, Graph, biconnected_components, build_graph
from .search import (
    SearchConfig,
    SearchStats,
    UniverseTooLargeError,
    Verdict,
    oracle_is_one_planar,
    test_block,
)


class ParseError(ValueError):
    def __init__(self, path: str, lineno: int, msg: str) -> None:
        super().__init__(f"{path}:{lineno}: {msg}")
        self.path = path
        self.lineno = lineno


@dataclass
class InstanceRecord:
    """One row of benchmark output; mirrors the CSV columns."""

    name: str
    n: int = 0
    m: int = 0
    density: float = 0.0
    blocks: int = 0
    verdict: str = "Error"
    crossings: int | None = None
    time_ms: float = 0.0
    backtracked: bool = False
    nodes: int = 0
    cuts_dec: int = 0
    cuts_kec: int = 0
    cuts_nonplanar: int = 0
    sol_satur: int = 0
    sol_compl: int = 0
    error: str | None = None


_CSV_COLUMNS = tuple(f.name for f in fields(InstanceRecord) if f.name != "error")
CSV_HEADER = ",".join(_CSV_COLUMNS)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _parse_edgelist(text: str, path: str) -> Graph:
    edges: list[tuple[int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected two vertex ids, got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"vertex ids must be integers: {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "vertex ids must be nonnegative")
        edges.append((u, v))
        top = max(top, u, v)
    return build_graph(top + 1, edges)


# a quoted string, a bracket, a bare token, or a comment to the end of the line
_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]#]+|#.*')


def _parse_gml(text: str, path: str) -> Graph:
    """Read the GML subset: the tokens of every line, with their line numbers,
    then the graph block.  ``#`` starts a comment outside a quoted string."""
    toks: list[str] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        found = _GML_TOKEN.findall(raw)
        if found and found[-1][0] == "#":
            found.pop()
        toks += found
        linenos += [lineno] * len(found)
    try:
        return _gml_graph(zip(linenos, toks), path)
    except StopIteration:
        raise ParseError(path, linenos[-1] if linenos else 1, "unexpected end of file") from None


def _gml_skip(tokens, path: str) -> None:
    """Skip one value: a token, or a bracketed list."""
    lineno, tok = next(tokens)
    if tok == "[":
        depth = 1
        while depth:
            lineno, tok = next(tokens)
            if tok == "[":
                depth += 1
            elif tok == "]":
                depth -= 1
    elif tok == "]":
        raise ParseError(path, lineno, "unexpected ']'")


def _gml_int(tokens, path: str, field: str) -> int:
    lineno, tok = next(tokens)
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, lineno, f"{field} must be an integer, got {tok!r}") from None


def _gml_graph(tokens, path: str) -> Graph:
    """The graph of a (line number, token) iterator, past any top-level key-value
    pairs (``Creator "igraph"``); running out of tokens raises StopIteration."""
    lineno, tok = next(tokens)
    while tok not in ("graph", "[", "]"):
        _gml_skip(tokens, path)
        lineno, tok = next(tokens)
    if tok != "graph":
        raise ParseError(path, lineno, f"expected 'graph', got {tok!r}")
    lineno, tok = next(tokens)
    if tok != "[":
        raise ParseError(path, lineno, "expected '[' after 'graph'")

    node_ids: set[int] = set()
    raw_edges: list[tuple[int, int, int]] = []
    while True:
        lineno, tok = next(tokens)
        if tok == "]":
            break
        if tok == "node":
            ln, op = next(tokens)
            if op != "[":
                raise ParseError(path, ln, "expected '[' after 'node'")
            nid = None
            while True:
                ln, key = next(tokens)
                if key == "]":
                    break
                if key == "id":
                    nid = _gml_int(tokens, path, "node id")
                else:
                    _gml_skip(tokens, path)
            if nid is None:
                raise ParseError(path, lineno, "node without id")
            if nid in node_ids:
                raise ParseError(path, lineno, f"duplicate node id {nid}")
            node_ids.add(nid)
        elif tok == "edge":
            ln, op = next(tokens)
            if op != "[":
                raise ParseError(path, ln, "expected '[' after 'edge'")
            src = dst = None
            while True:
                ln, key = next(tokens)
                if key == "]":
                    break
                if key == "source":
                    src = _gml_int(tokens, path, "source")
                elif key == "target":
                    dst = _gml_int(tokens, path, "target")
                else:
                    _gml_skip(tokens, path)
            if src is None or dst is None:
                raise ParseError(path, lineno, "edge without source/target")
            raw_edges.append((lineno, src, dst))
        else:
            _gml_skip(tokens, path)

    order = {nid: i for i, nid in enumerate(sorted(node_ids))}
    edges = []
    for lineno, src, dst in raw_edges:
        if src not in order or dst not in order:
            raise ParseError(path, lineno, f"edge references unknown node ({src}, {dst})")
        edges.append((order[src], order[dst]))
    return build_graph(len(order), edges)


_FORMATS = ("auto", "edgelist", "gml")


def _check_format(fmt: str) -> None:
    """Raise ValueError unless `fmt` names a format `parse_graph_file` reads."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {fmt!r}")


def parse_graph_file(path: str, fmt: str = "auto") -> Graph:
    """Load a graph from an edge list or GML file.

    `fmt` is "edgelist", "gml", or "auto", else ValueError.  Auto
    detection reads a ".gml" file as GML; any other file is an edge list
    when its first token outside comments is an integer (or it has none),
    and GML otherwise, which may open with a top-level key such as
    ``Creator "igraph"`` before ``graph [``.
    """
    _check_format(fmt)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "auto":
        fmt = "edgelist"
        if path.endswith(".gml"):
            fmt = "gml"
        else:
            lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
            try:
                int(next((words[0] for words in lines if words), "0"))
            except ValueError:
                fmt = "gml"
    if fmt == "gml":
        return _parse_gml(text, path)
    return _parse_edgelist(text, path)


# ---------------------------------------------------------------------------
# Whole-graph pipeline
# ---------------------------------------------------------------------------


def run_pipeline(
    g: Graph, cfg: SearchConfig, name: str = "instance"
) -> tuple[InstanceRecord, OnePlanarEmbedding | None]:
    """Decide the whole graph block by block and merge the certificates.

    A drawing exists iff every block has one, so the first negative block
    halts the run.  The certificate returned is validated against g by
    ``merge_blocks``.  Block verdicts left open by the deadline make the
    overall answer Unknown unless some later block is outright negative.
    """
    t0 = time.monotonic()
    return _finish(g, name, t0, *_decide_blocks(g, cfg, t0))


def _decide_blocks(
    g: Graph, cfg: SearchConfig, t0: float
) -> tuple[tuple[Block, ...], Verdict, SearchStats, list[OnePlanarEmbedding]]:
    """The block loop of `run_pipeline`, started at `t0`: the blocks,
    the overall verdict, the merged stats and, while every block so far is
    positive, the block certificates."""
    deadline = t0 + cfg.time_budget
    blocks = biconnected_components(g)
    stats = SearchStats()
    certificates: list[OnePlanarEmbedding] = []
    verdict = Verdict.ONE_PLANAR
    for blk in blocks:
        res = test_block(blk.graph, cfg, deadline=deadline)
        stats.merge(res.stats)
        if res.verdict is Verdict.NOT_ONE_PLANAR:
            verdict = Verdict.NOT_ONE_PLANAR
            break
        if res.verdict is Verdict.UNKNOWN:
            verdict = Verdict.UNKNOWN
        elif verdict is Verdict.ONE_PLANAR:
            certificates.append(res.certificate)
    return blocks, verdict, stats, certificates


def _finish(
    g: Graph,
    name: str,
    t0: float,
    blocks: tuple[Block, ...],
    verdict: Verdict,
    stats: SearchStats,
    certificates: list[OnePlanarEmbedding],
) -> tuple[InstanceRecord, OnePlanarEmbedding | None]:
    """The merge and the record of `run_pipeline`, started at `t0`."""
    emb = None
    crossings = None
    if verdict is Verdict.ONE_PLANAR:
        emb = merge_blocks(g, blocks, certificates)
        crossings = count_crossings(emb)

    record = InstanceRecord(
        name=name,
        n=g.n,
        m=g.m,
        density=(g.m / g.n) if g.n else 0.0,
        blocks=len(blocks),
        verdict=verdict.value,
        crossings=crossings,
        time_ms=(time.monotonic() - t0) * 1000.0,
        backtracked=stats.used_backtracking,
        nodes=stats.nodes_visited,
        cuts_dec=stats.cuts_dec,
        cuts_kec=stats.cuts_kec,
        cuts_nonplanar=stats.cuts_nonplanar,
        sol_satur=stats.sol_satur,
        sol_compl=stats.sol_compl,
    )
    return record, emb


# ---------------------------------------------------------------------------
# Benchmark driver
# ---------------------------------------------------------------------------


# how a column is written when str() is not the format; None is written as ""
_CSV_FORMAT = {
    "density": "{:.3f}".format,
    "time_ms": "{:.1f}".format,
    "backtracked": lambda b: str(int(b)),
}


def _record_row(r: InstanceRecord) -> str:
    cells = []
    for name in _CSV_COLUMNS:
        value = getattr(r, name)
        cells.append("" if value is None else _CSV_FORMAT.get(name, str)(value))
    return ",".join(cells)


def _bench_one(task) -> InstanceRecord | None:
    path, fmt, cfg, skip_planar = task
    name = os.path.basename(path)
    try:
        g = parse_graph_file(path, fmt)
        t0 = time.monotonic()
        blocks = _decide_blocks(g, cfg, t0)
        # g is planar iff all its blocks are, and a planar block's certificate
        # is the planarity gate's, without crossings: drop the row unmerged
        _, verdict, _, certificates = blocks
        planar = verdict is Verdict.ONE_PLANAR and not any(c.crossings for c in certificates)
        if skip_planar and planar:
            return None
        return _finish(g, name, t0, *blocks)[0]
    except Exception as exc:  # per-file failures become Error rows
        return InstanceRecord(name=name, verdict="Error", error=str(exc))


def _bench_isolated(task) -> InstanceRecord | None:
    """Run one task in a worker of its own; a dead worker gives an Error row."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(_bench_one, task).result()
        except BrokenProcessPool as exc:
            return InstanceRecord(name=os.path.basename(task[0]), verdict="Error",
                                  error=f"worker died: {exc}")


def _bench_pool(tasks: list, workers: int) -> list[InstanceRecord | None]:
    """Run tasks on `workers` processes, collecting results future by future.

    A worker that dies (signal, out of memory, os._exit) breaks the pool and
    every task still in it.  Those tasks are run again one by one, each in
    a worker of its own, so only the task that kills its worker becomes an
    Error row.  The pool modules are imported here, not with the package,
    because loading multiprocessing costs every sequential run memory and
    start-up time.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_bench_one, t) for t in tasks]
    results = []
    for task, fut in zip(tasks, futures):
        try:
            results.append(fut.result())
        except BrokenProcessPool:
            results.append(_bench_isolated(task))
    return results


def _checked_workers(workers) -> int:
    """`workers` if it is a worker count `bench` accepts, an int >= 1 and
    not a bool; ValueError otherwise."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


def _env_workers() -> int:
    """Worker count from ONEPLANAR_THREADS; 1 when it is unset or empty."""
    text = os.environ.get("ONEPLANAR_THREADS", "")
    if not text:
        return 1
    try:
        return _checked_workers(int(text))
    except ValueError:
        raise ValueError(f"ONEPLANAR_THREADS must be an integer >= 1, got {text!r}") from None


def _bucket(n: int) -> tuple[int, int]:
    """Vertex-count range of n's summary line: 10-20, then decades."""
    if n < 10:
        return 0, 9
    if n <= 20:
        return 10, 20
    lo = (n - 1) // 10 * 10 + 1
    return lo, lo + 9


def _summary_lines(records: list[InstanceRecord]) -> list[str]:
    lines = ["# summary"]
    for lo, hi in sorted({_bucket(r.n) for r in records}):
        rows = [r for r in records if lo <= r.n <= hi]
        counts = {v: 0 for v in ("OnePlanar", "NotOnePlanar", "Unknown", "Error")}
        for r in rows:
            counts[r.verdict] = counts.get(r.verdict, 0) + 1
        nodes = sum(r.nodes for r in rows)
        mean_t = sum(r.time_ms for r in rows) / len(rows)
        lines.append(
            f"# n={lo}-{hi} files={len(rows)} one_planar={counts['OnePlanar']} "
            f"not_one_planar={counts['NotOnePlanar']} unknown={counts['Unknown']} "
            f"error={counts['Error']} total_nodes={nodes} mean_time_ms={mean_t:.1f}"
        )
    return lines


@dataclass
class BenchResult:
    csv: str
    records: list[InstanceRecord]


def bench(
    paths: list[str],
    cfg: SearchConfig,
    fmt: str = "auto",
    workers: int | None = None,
    skip_planar: bool = False,
) -> BenchResult:
    """Run the pipeline over many files and render the CSV report.

    Rows come out sorted by file name regardless of worker count, so the
    report is reproducible run to run (timing columns aside).  A file
    that fails to parse or crashes, or whose worker process dies, becomes
    a verdict=Error row.  `workers` defaults to ONEPLANAR_THREADS (or 1);
    a worker count, given or from there, that is not an integer >= 1
    raises ValueError, as does a `fmt` that `parse_graph_file` does not
    accept.  No more workers than files are started; a single one runs
    in the calling process.
    """
    _check_format(fmt)
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(
                os.path.join(p, f)
                for f in os.listdir(p)
                if not f.startswith(".") and os.path.isfile(os.path.join(p, f))
            )
        else:
            files.append(p)
    files.sort(key=os.path.basename)

    workers = _env_workers() if workers is None else _checked_workers(workers)

    tasks = [(path, fmt, cfg, skip_planar) for path in files]
    # a process pool starts all its workers at the first submit
    workers = min(workers, len(tasks))
    if workers <= 1:
        results = [_bench_one(t) for t in tasks]
    else:
        results = _bench_pool(tasks, workers)

    records = sorted(
        (r for r in results if r is not None), key=lambda r: r.name
    )
    lines = [CSV_HEADER]
    lines.extend(_record_row(r) for r in records)
    lines.extend(_summary_lines(records))
    return BenchResult(csv="\n".join(lines) + "\n", records=records)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse_duration(text: str) -> float:
    """A duration in seconds that SearchConfig, where the budget is
    checked, accepts; an argparse error otherwise."""
    mobj = re.fullmatch(r"(\d+(?:\.\d+)?)([smh]?)", text.strip())
    if not mobj:
        raise argparse.ArgumentTypeError(f"bad duration {text!r} (use 300, 45s, 5m or 3h)")
    seconds = float(mobj.group(1)) * {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}[mobj.group(2)]
    try:
        SearchConfig(time_budget=seconds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seconds


def _workers(text: str) -> int:
    value = int(text)
    try:
        return _checked_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse names the type in "invalid int value"
_workers.__name__ = "int"


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=_parse_duration, default=None,
                   help="search budget per run (e.g. 45s, 5m, 3h)")
    p.add_argument("--format", choices=_FORMATS, default="auto")


def _config_from_args(args) -> SearchConfig:
    return SearchConfig() if args.timeout is None else SearchConfig(time_budget=args.timeout)


def _write(path: str, text: str) -> int:
    """Write `text` to the file `path`: exit code 0, or 2 after an error line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oneplanar",
        description="Decide whether graphs can be drawn with at most one crossing per edge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test a single graph file")
    p_check.add_argument("file")
    _add_config_flags(p_check)
    p_check.add_argument("--emit-embedding", metavar="PATH",
                         help="write the certificate to PATH on a positive verdict")
    p_check.add_argument("--oracle", action="store_true",
                         help="cross-check against exhaustive enumeration (small graphs)")

    p_bench = sub.add_parser("bench", help="run over files/directories and print CSV")
    p_bench.add_argument("paths", nargs="+")
    _add_config_flags(p_bench)
    p_bench.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p_bench.add_argument("--workers", type=_workers, default=None,
                         help="process count (default: ONEPLANAR_THREADS or 1)")
    p_bench.add_argument("--skip-planar", action="store_true",
                         help="drop instances that are plain planar from the report")

    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    if args.command == "bench" and args.workers is None:
        try:
            args.workers = _env_workers()
        except ValueError as exc:
            p_bench.error(str(exc))

    if args.command == "check":
        try:
            g = parse_graph_file(args.file, args.format)
        except (ParseError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        record, emb = run_pipeline(g, cfg, name=os.path.basename(args.file))
        print(f"{record.name}: {record.verdict}"
              + (f" with {record.crossings} crossing(s)" if record.crossings is not None else ""))
        print(f"  n={record.n} m={record.m} blocks={record.blocks} "
              f"nodes={record.nodes} time={record.time_ms:.1f}ms")
        print(f"  cuts: dec={record.cuts_dec} kec={record.cuts_kec} "
              f"nonplanar={record.cuts_nonplanar}; solutions: satur={record.sol_satur} "
              f"compl={record.sol_compl}")
        if args.oracle:
            try:
                expected = oracle_is_one_planar(g)
            except UniverseTooLargeError as exc:
                print(f"  oracle: skipped ({exc})")
            else:
                want = Verdict.ONE_PLANAR.value if expected else Verdict.NOT_ONE_PLANAR.value
                agree = "agrees" if record.verdict == want else "DISAGREES"
                print(f"  oracle: {want} ({agree})")
        if args.emit_embedding:
            if emb is None:
                print("no certificate to emit (verdict is not positive)", file=sys.stderr)
            else:
                return _write(args.emit_embedding, serialize_embedding(emb))
        return 0

    result = bench(args.paths, cfg, fmt=args.format,
                   workers=args.workers, skip_planar=args.skip_planar)
    if args.out:
        return _write(args.out, result.csv)
    sys.stdout.write(result.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
