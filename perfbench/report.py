#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/report.py --seeds 1,2,3,4,5

It runs every workload of BENCHMARK.json once per seed for `run_seconds`
with tracing off, each run a fresh `run.py` process, one after another
(never in parallel: the runs measure time).  For every workload and
end-to-end metric it prints the median over the seeds, the quartiles and
the spread (the distance between the quartiles as a share of the median,
as statistics.quantiles(values, n=4) gives them), plus the failed share.
The whole summary is also written to perfbench/.work/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for w in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                print(f"{w} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        print(f"== {w}: {len(seeds)} runs, {attempted} decisions, failed_share {failed / attempted:g}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": xs}
            print(f"  {name:26s} {med:14.6g} {units[name]:10s} q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}")
        summary[w] = {"seeds": seeds, "attempted": attempted, "failed": failed,
                      "failed_share": failed / attempted, "metrics": rows}

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with open(os.path.join(HERE, ".work", "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
