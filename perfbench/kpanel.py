"""Regenerate kpanel.json, the k-product panels of the k-hooks workload.

    python3 perfbench/kpanel.py

Run from the repository root; it times all 3600 hook products
O^{s_{6-m}...s_5} . O^v at n = 6 once (about ten minutes on one core).

A k-product's cost is heavy-tailed: at n = 6 the median is about 30 ms, the
maximum about 3 s, and the standard deviation twice the mean.  Sixty random
products per pass would make a run's wall time differ by a fifth between
seeds.  So the k-products are not drawn from the seed: the pairs are ranked
by cost, and panel j takes every STEP-th pair from rank j * STEP / PANELS
on (a systematic sample over the ranking), so every panel has the cost
profile of all pairs, its heavy tail included.  Pass p of every seed runs
panel p mod PANELS; the seed draws the qk-conjecture queries and the order.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads

N = 6
STEP = 60
PANELS = 2
OUT = Path(__file__).resolve().parent / "kpanel.json"


def select(costs: dict[tuple[int, str], float]) -> list[list[tuple[int, str]]]:
    ranked = sorted(costs, key=lambda pair: (-costs[pair], pair))
    return [ranked[j * STEP // PANELS::STEP] for j in range(PANELS)]


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from flagq import ktheory

    costs = {}
    for m in range(1, N):
        for v in workloads.perms(N):
            t0 = time.perf_counter()
            ktheory.k_cup_special(m, v)
            costs[(m, workloads.one_line(v))] = time.perf_counter() - t0
    panels = select(costs)
    OUT.write_text(json.dumps({"n": N, "panels": panels}) + "\n")
    for j, panel in enumerate(panels):
        print(f"panel {j}: {len(panel)} pairs, {sum(costs[p] for p in panel):.2f} s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
