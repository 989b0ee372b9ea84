"""Repeated benchmark runs, their spread, and a BENCH trajectory entry.

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME ...] [--frontier] [--out FILE]

Run from the repository root.  For each workload it runs ``run.py`` once per
seed 0 .. seeds-1 (a fresh process each, one at a time) and once traced on
seed 1, then reports for every end-to-end metric the median, the quartiles
and the spread (interquartile distance over the median) next to the bound
in BENCHMARK.json.  With ``--frontier`` it adds the frontier probe.  The
result, with the commit, the Python version and nproc, is written to
``--out`` (default ``perfbench/results/BENCH_<commit>.json``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import frontier

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--frontier", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    label = commit()
    entry: dict = {
        "commit": label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [one_run(spec, name, seed, 0) for seed in range(args.seeds)]
        traced = one_run(spec, name, 1, 1)
        metrics = {
            m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds
        }
        entry["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        ok &= entry["workloads"][name]["correct"]
        for m, s in metrics.items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"{name:12s} {m:12s} median {s['median']:12.4f}  spread {s['spread']:.3f}"
                  f"  bound {bounds[m]}{flag}", file=sys.stderr)
    if args.frontier:
        entry["frontier"] = frontier.probe()
    out = args.out or HERE / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
