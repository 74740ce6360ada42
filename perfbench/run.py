#!/usr/bin/env python3
"""Benchmark of the oneplanar tester, driven through its public functions.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-sat --seed 1 --seconds 40 --trace 0

One process, one instance at a time (a closed loop with one client).  The
seed picks a corpus (see corpus.py); the run decides it pass after pass,
instance by instance, for about `--seconds`.  An instance's time covers
reading its file (when it comes from one), `cli.run_pipeline` and, for a
positive verdict, the serialize -> parse round trip of the certificate.
Each decision's time is scaled to a nominal host speed by the reference
routine of pace.py, which a timer runs every quarter second.  Each corpus
instance counts with its median scaled time over the run: wall_s is their
sum (one pass over the corpus), instance_ms_p50 their median.  Every
outcome is checked by check.py after the passes, so the check counts
neither in the times nor in the peak memory.

`--trace 0` reports the end-to-end metrics.  `--trace 1` spends the first half
of the time untraced, then wraps the program's public functions (spans.py)
for whole passes in the second half, and reports the per-layer metrics, each
per pass, with the tracing overhead.  The last line of stdout is the JSON
result; a copy with every decision and the run context goes to
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import corpus
from check import same_graph, verdict_problem
from pace import NOMINAL_S, Pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
PINNED_PATH = os.path.join(HERE, "pinned.json")

# Per-instance search budget; a verdict of Unknown after it counts as failed.
INSTANCE_BUDGET_S = 60.0
# Set-up is repeated and its median reported, because one import is noisy.
SETUP_REPEATS = 15
TREE = ("nodes", "cuts_dec", "cuts_kec", "cuts_nonplanar", "sol_satur", "sol_compl")


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Import oneplanar from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "oneplanar", "__init__.py")):
        raise SystemExit(f"error: program source not found at {SRC}")
    sys.path.insert(0, SRC)
    import oneplanar

    if os.path.dirname(os.path.abspath(oneplanar.__file__)) != os.path.join(SRC, "oneplanar"):
        raise SystemExit(f"error: imported oneplanar from {oneplanar.__file__}, not {SRC}")
    return oneplanar


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import oneplanar; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, check=True, timeout=120, cwd=HERE)
    return float(out.stdout)


def build_corpus(workload: str, seed: int, pinned: dict, directory: str):
    from oneplanar.graph import build_graph

    insts = []
    for fam, variant in corpus.choose(workload, seed, pinned):
        inst = corpus.build_instance(fam, variant)
        if inst.file_format:
            inst.path = corpus.write_graph_file(inst, directory)
        else:
            inst.graph = build_graph(inst.n, inst.edges)
        insts.append(inst)
    return insts


class Runner:
    """Decides instances, checks each outcome and keeps the records."""

    def __init__(self, pinned: dict, pace: Pace) -> None:
        from oneplanar.search import SearchConfig

        self.pinned = pinned
        self.pace = pace
        self.cfg = SearchConfig(time_budget=INSTANCE_BUDGET_S)
        self.cli = importlib.import_module("oneplanar.cli")
        self.embedding = importlib.import_module("oneplanar.embedding")
        self.decisions: list[dict] = []
        # distinct outcome -> (instance, certificate crossings, its rows)
        self._outcomes: dict[tuple, tuple] = {}

    def decide(self, inst):
        # module attributes are looked up per call, so tracing can patch them
        g = self.cli.parse_graph_file(inst.path) if inst.path else inst.graph
        record, emb = self.cli.run_pipeline(g, self.cfg, name=inst.key)
        text = parsed = None
        if emb is not None:
            text = self.embedding.serialize_embedding(emb)
            parsed = self.embedding.parse_embedding(text, g)
        return g, record, emb, text, parsed

    def run_one(self, inst, pass_no: int, tracer=None) -> float:
        """Decides `inst` once, keeps its record and returns its time."""
        if tracer is not None:
            tracer.instance_id = len(self.decisions)
        row = {"pass": pass_no, "key": inst.key, "traced": tracer is not None}
        self.decisions.append(row)
        start = self.pace.start()
        try:
            g, record, emb, text, parsed = self.decide(inst)
        except Exception as exc:  # an instance that crashes is a failed decision
            row.update(self.pace.stop(start), verdict="Error",
                       problem=f"{type(exc).__name__}: {exc}")
            return row["time_s"]
        row.update(self.pace.stop(start))
        pin = self.pinned.get(inst.key)
        row.update(verdict=record.verdict, blocks=record.blocks, crossings=record.crossings,
                   **{k: getattr(record, k) for k in TREE})
        row["tree_same"] = None if pin is None else all(row[k] == pin[k] for k in TREE)
        if not same_graph(inst, g):
            row["problem"] = "program graph differs from the input"
        elif parsed is not None and parsed.crossings != emb.crossings:
            row["problem"] = "certificate changed in the serialize/parse round trip"
        else:
            row["problem"] = None  # until check_outcomes has run
            outcome = (inst.key, record.verdict, record.crossings, text)
            if outcome not in self._outcomes:
                self._outcomes[outcome] = (inst, None if parsed is None else parsed.crossings, [])
            self._outcomes[outcome][2].append(row)
        return row["time_s"]

    def check_outcomes(self) -> None:
        """Checks each distinct outcome once (byte-identical repeats share
        the result) and marks its rows."""
        for (key, verdict, crossings, _), (inst, parsed, rows) in self._outcomes.items():
            problem = verdict_problem(inst, verdict, self.pinned.get(key), parsed, crossings)
            for row in rows:
                row["problem"] = problem
        self._outcomes.clear()


def run_for(runner: Runner, insts, seconds: float, tracer=None, whole_passes=False,
            between=None) -> None:
    """Decide the corpus pass after pass for about `seconds`, calling
    `between` after each decision.  The first pass is always whole.  After
    it, the next instance is decided only if its last time says it ends in
    time, or with `whole_passes` the next pass only if the last pass's times
    do."""
    t_end = time.perf_counter() + seconds
    last: dict[str, float] = {}
    i = 0
    while True:
        pass_no, at = divmod(i, len(insts))
        if pass_no and (at == 0 or not whole_passes):
            need = sum(last.values()) if whole_passes else last[insts[at].key]
            if need > t_end - time.perf_counter():
                return
        last[insts[at].key] = runner.run_one(insts[at], pass_no, tracer)
        if between is not None:
            between()
        i += 1


def instance_times(decisions: list[dict], field: str = "time_s") -> list[float]:
    """Each corpus instance's median time over its decisions, ascending."""
    by_key: dict[str, list[float]] = {}
    for d in decisions:
        by_key.setdefault(d["key"], []).append(d[field])
    return sorted(statistics.median(v) for v in by_key.values())


def tail(xs: list[float]) -> float:
    """Instance time at the highest percentile with at least ten instances
    beyond it, from ascending per-instance times.  Below 21 instances that
    percentile would not lie above the median, so the slowest instance's
    time is reported.  Counting instances, not decisions, keeps the choice
    independent of how many passes a run fits."""
    return xs[-11] if len(xs) >= 21 else xs[-1]


def per_pass_counts(decisions: list[dict], passes: int) -> dict[str, float]:
    return {k: sum(d.get(k, 0) for d in decisions) / passes for k in TREE + ("blocks",)}


def layer_metrics(tracer, runner: Runner, untraced: list[dict], traced: list[dict],
                  passes: int) -> dict[str, float | None]:
    """Per-layer metrics, each per traced pass.  "_s" metrics are self time
    (the span minus its traced children) except search.skew_s, which is the
    whole skew-set search.  A metric whose traced functions all went missing
    is None (unobserved)."""
    spans = tracer.summary()

    def total(field, *names):
        seen = [n for n in names if n in spans]
        return sum(spans[n][field] for n in seen) / passes if seen else None

    def self_s(*names):
        return total("self_s", *names)

    def calls(*names):
        return total("calls", *names)

    def count(key, span):
        return tracer.counts[key] / passes if span in spans else None

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    counts = per_pass_counts(traced, passes)
    lr_calls = calls("planarity.is_planar_edges", "planarity.rotation_edges")
    failed = sum(d["problem"] is not None for d in runner.decisions)
    changed = {d["key"] for d in runner.decisions if d.get("tree_same") is False}
    untraced_wall = sum(instance_times(untraced))
    overhead = sum(instance_times(traced)) - untraced_wall
    return {
        "planarity.calls": lr_calls,
        "planarity.s": self_s("planarity.test_planarity", "planarity.is_planar_edges",
                              "planarity.rotation_edges"),
        "planarity.calls_per_node": ratio(lr_calls, counts["nodes"]),
        "planarity.repeat_share": ratio(count("planarity.repeats", "planarity.is_planar_edges"),
                                        calls("planarity.is_planar_edges")),
        "planarity.nonplanar_share": ratio(tracer.counts["planarity.nonplanar"] / passes, lr_calls),
        "planarity.euler_check_s": self_s("planarity.euler_check"),
        "embedding.validate_calls": calls("embedding.validate"),
        "embedding.validate_s": self_s("embedding.validate"),
        "embedding.realize_s": self_s("embedding.realize"),
        "embedding.merge_s": self_s("embedding.merge_blocks"),
        "embedding.planarize_s": self_s("embedding.planarize"),
        "embedding.roundtrip_s": self_s("embedding.serialize_embedding", "embedding.parse_embedding"),
        "pairs.state_s": self_s("pairs.crossing_counts", "pairs.saturated_edges"),
        "pairs.universe_s": self_s("pairs.build_universe", "pairs.build_restricted_universe"),
        "pairs.universe_k": ratio(count("pairs.universe_k", "pairs.build_universe"),
                                  count("pairs.universes", "pairs.build_universe")),
        "search.self_s": self_s("search.backtrack"),
        "search.nodes_per_s": ratio(sum(d.get("nodes", 0) for d in untraced),
                                    sum(d["time_s"] for d in untraced)),
        "search.nodes": counts["nodes"],
        "search.cuts_dec": counts["cuts_dec"],
        "search.cuts_kec": counts["cuts_kec"],
        "search.cuts_nonplanar": counts["cuts_nonplanar"],
        "search.sol_satur": counts["sol_satur"],
        "search.sol_compl": counts["sol_compl"],
        "search.skew_s": total("incl_s", "search.find_skew_set"),
        "search.restricted_nodes": count("search.restricted_nodes", "search.backtrack"),
        "search.full_nodes": count("search.full_nodes", "search.backtrack"),
        "search.tree_changed": len(changed),
        "pipeline.self_s": self_s("cli.run_pipeline", "search.test_block"),
        "cli.parse_s": self_s("cli.parse_graph_file"),
        "graph.blocks_s": self_s("graph.biconnected_components"),
        "graph.blocks": counts["blocks"],
        "check.failed_share": failed / len(runner.decisions),
        "trace.overhead_s": overhead,
        "trace.overhead_share": ratio(overhead, untraced_wall),
        "trace.spans": len(tracer.start) / passes,
        "trace.unobserved": len(tracer.unobserved) + tracer.counts["hook_errors"],
    }


def context(args, load_start) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    load_program()
    with open(PINNED_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)

    os.makedirs(WORK, exist_ok=True)
    graph_dir = os.path.join(WORK, f"graphs-{os.getpid()}")
    os.makedirs(graph_dir, exist_ok=True)
    try:
        imports, builds = [], []
        pace = Pace()

        def set_up():
            start = pace.start()
            with pace.paused():
                seconds = time_import()  # timed in the child
            imports.append({**pace.stop(start), "time_s": seconds})
            start = pace.start()
            built = build_corpus(args.workload, args.seed, pinned, graph_dir)
            builds.append(pace.stop(start))
            return built

        insts = set_up()
        runner = Runner(pinned, pace)
        if not args.trace:
            # The set-up repeats are spread over the run, so that their
            # median samples the machine over as long a time as the
            # decisions do; a burst of them at the start reads it at one
            # moment.
            t_start = time.perf_counter()

            def set_up_on_schedule():
                due = SETUP_REPEATS * (time.perf_counter() - t_start) / args.seconds
                while len(imports) < min(due, SETUP_REPEATS):
                    set_up()

            with pace.sampling():
                run_for(runner, insts, args.seconds, between=set_up_on_schedule)
            # read before check_outcomes loads networkx
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            while len(imports) < SETUP_REPEATS:
                set_up()
            runner.check_outcomes()
            for d in runner.decisions:
                d["scaled_s"] = pace.scaled(d)
            xs = instance_times(runner.decisions, "scaled_s")
            metrics = {
                "wall_s": sum(xs),
                "instance_ms_p50": 1000.0 * statistics.median(xs),
                "instance_ms_tail": 1000.0 * tail(xs),
                "setup_s": (statistics.median(pace.scaled(s) for s in imports)
                            + statistics.median(pace.scaled(s) for s in builds)),
                "peak_rss_mb": peak_rss_mb,
            }
            notes = {"passes": len(runner.decisions) / len(insts), "instances": len(xs),
                     "measured_wall_s": sum(instance_times(runner.decisions)),
                     "measured_setup_s": (statistics.median(s["time_s"] for s in imports)
                                          + statistics.median(s["time_s"] for s in builds)),
                     "reference_calls": len(pace.samples),
                     "reference_ms_median": 1000.0 * statistics.median(pace.samples),
                     "reference_ms_nominal": 1000.0 * NOMINAL_S}
        else:
            from spans import Tracer

            # the first half untraced, the second traced: their difference
            # is the tracing overhead
            t_start = time.perf_counter()
            run_for(runner, insts, args.seconds / 2, whole_passes=True)
            untraced = list(runner.decisions)
            tracer = Tracer()
            tracer.install()
            try:
                run_for(runner, insts, t_start + args.seconds - time.perf_counter(), tracer,
                        whole_passes=True)
            finally:
                tracer.uninstall()
            runner.check_outcomes()
            traced = runner.decisions[len(untraced):]
            passes = len(traced) // len(insts)
            metrics = layer_metrics(tracer, runner, untraced, traced, passes)
            unobserved = sorted(k for k, v in metrics.items() if v is None)
            metrics.update({k: 0.0 for k in unobserved})
            notes = {"passes": passes, "untraced_wall_s": sum(instance_times(untraced)),
                     "traced_wall_s": sum(instance_times(traced)),
                     "unobserved_functions": tracer.unobserved,
                     "unobserved_metrics": unobserved}
    finally:
        shutil.rmtree(graph_dir, ignore_errors=True)

    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"error: BENCHMARK.json lists {sorted(set(units) - set(metrics))} "
                         f"that this run does not compute, and omits {sorted(set(metrics) - set(units))}")
    failed = sum(d["problem"] is not None for d in runner.decisions)
    attempted = len(runner.decisions)
    changed = sorted({d["key"] for d in runner.decisions if d.get("tree_same") is False})
    ctx = context(args, load_start)
    notes.update(attempted=attempted, failed=failed, failed_share=failed / attempted,
                 tree_changed=changed,
                 tree_unpinned=sorted({d["key"] for d in runner.decisions if d.get("tree_same") is None}),
                 problems=sorted({f"{d['key']}: {d['problem']}" for d in runner.decisions if d["problem"]}))

    print("context " + json.dumps(ctx))
    print("notes " + json.dumps(notes))
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "notes": notes, "result": result,
                   "decisions": runner.decisions,
                   "reference_samples": list(zip(pace.at, pace.samples))}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
