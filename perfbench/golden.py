"""Regenerate golden.json: output digests of the default seed's first passes.

    python3 perfbench/golden.py

Run from the repository root, and only when an output change is intended:
the benchmark counts every op of the default seed whose output differs from
its stored digest as failed, so golden CLI output stays byte-identical.
"""
from __future__ import annotations

import json
import sys

import run
import workloads

PASSES = 2


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for name in workloads.WORKLOADS:
        records, _, _ = run.measure(name, run.GOLDEN_SEED, False, passes=PASSES)
        run.check(records)
        bad = [r for r in records if r["failure"] is not None]
        for r in bad:
            print(f"FAILED {' '.join(r['argv'])}: {r['failure']}", file=sys.stderr)
        if bad:
            return 1
        golden[name] = [[r["digest"] for r in records if r["pass"] == p]
                        for p in range(PASSES)]
        print(f"{name}: {len(records)} ops", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
