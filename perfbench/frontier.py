"""Frontier probe: the largest n at which each sweep finishes within a budget.

    python3 perfbench/frontier.py

Run from the repository root.  For ``verify all`` and ``verify ktheory`` it
runs ``flagq verify <what> --n n`` for n = 2, 3, ... in a fresh process each,
and stops a sweep at the first n that fails or does not finish within
BUDGET_S seconds; that n is recorded as ``"timeout"``.  Informational: the
probe is not part of the scored runs.
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 60
SWEEPS = ("all", "ktheory")
MAX_N = 9

CHILD = "import sys; sys.path.insert(0, 'src'); from flagq.cli import main; sys.exit(main(sys.argv[1:]))"


def probe() -> dict:
    out: dict = {"budget_s": BUDGET_S}
    for what in SWEEPS:
        times: dict = {}
        for n in range(2, MAX_N + 1):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", CHILD, "verify", what, "--n", str(n)],
                    cwd=ROOT, capture_output=True, timeout=BUDGET_S)
            except subprocess.TimeoutExpired:
                times[n] = "timeout"
                break
            if proc.returncode != 0:
                times[n] = f"exit {proc.returncode}"
                break
            times[n] = round(time.perf_counter() - t0, 3)
        finished = [n for n, t in times.items() if not isinstance(t, str)]
        out[what] = {"frontier_n": max(finished, default=None), "seconds": times}
    return out


if __name__ == "__main__":
    print(json.dumps(probe(), indent=1))
