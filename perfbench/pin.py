"""Regenerate pinned.json: verdict and search-tree counts of every variant.

Run from the repository root as `python3 perfbench/pin.py` (several
minutes on one core).  The benchmark fails an instance whose verdict differs
from its pinned one and reports, without failing, an instance whose node or
cut counts differ (search.tree_changed).  Re-pin only when a change is meant
to alter the search tree, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from corpus import SCALE6, WORKLOADS, build_instance, scale_instance  # noqa: E402
from check import crossings_problem  # noqa: E402
from oneplanar import SearchConfig, build_graph, run_pipeline  # noqa: E402

PINNED_PATH = os.path.join(HERE, "pinned.json")
TREE = ("verdict", "nodes", "cuts_dec", "cuts_kec", "cuts_nonplanar", "sol_satur", "sol_compl")
CONFIG = SearchConfig(time_budget=120.0)


def pin(fam, variant: int, cfg: SearchConfig) -> dict:
    inst = build_instance(fam, variant)
    g = build_graph(inst.n, inst.edges)
    record, emb = run_pipeline(g, cfg, name=inst.key)
    row = {k: getattr(record, k) for k in TREE}
    if emb is not None:
        problem = crossings_problem(inst, emb.crossings)
        if problem:
            raise RuntimeError(f"{inst.key}: {problem}")
    return row


def main() -> int:
    if scale_instance(6) != (20, SCALE6):
        raise RuntimeError("corpus.SCALE6 is not acceptance scale instance #6")
    table: dict[str, dict] = {}
    for workload, families in WORKLOADS.items():
        for fam in families:
            if fam.window is None:
                for v in range(fam.pool):
                    table[f"{fam.name}/{v}"] = pin(fam, v, CONFIG)
                    print(workload, fam.name, v, table[f"{fam.name}/{v}"], flush=True)
                continue
            # a candidate far above the window is stopped early (at 4000
            # nodes/s, well below the rates seen), which keeps the scan short
            scan = SearchConfig(time_budget=max(8.0, fam.window[1] / 4000))
            found = 0
            v = 0
            while found < fam.pool:
                row = pin(fam, v, scan)
                want = "NotOnePlanar" if workload == "search-unsat" else "OnePlanar"
                if row["verdict"] == want and fam.window[0] <= row["nodes"] <= fam.window[1]:
                    table[f"{fam.name}/{v}"] = row
                    found += 1
                    print(workload, fam.name, v, row, flush=True)
                v += 1
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
