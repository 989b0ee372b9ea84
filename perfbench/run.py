"""flagq benchmark: one run of one workload.

    python3 perfbench/run.py --workload qh-queries --seed 1 --seconds 15 --trace 0

Run from the repository root.  The run drives the public CLI entry
``flagq.cli.main(argv)`` in this process, one op after the other (a closed
loop with one client and no threads), with stdout captured and
``--format json``.  The ops come from ``workloads.py``, seeded by
``--seed``.

A pass runs one deck of ops in one or more cold sessions: each session
imports flagq afresh, so every memo and engine starts empty as in a new CLI
process.  With ``--trace 0`` passes repeat, each with a new deck, until
``--seconds`` of op time have gone by; the pass under way is finished.  With
``--trace 1`` the first pass runs once untraced and once traced (see
``tracing.py``), so per-layer counts repeat exactly for a seed, and the ratio
of the two op times is the tracing overhead.

Every op is checked after the timed region (``checks.py``); on the default
seed its output must also match the digest stored in ``golden.json``.  A
nonzero exit, an exception, a ``SystemExit``, a timeout or a failed check
counts the op as failed.  The last line of stdout is the JSON result; a
detail file with every op goes to ``.perfbench_out/`` in the repository.

Times are reported at a reference host speed.  A shared host runs the same
code up to 1.8 times slower for spans from milliseconds to a minute, and
neither wall nor CPU time leaves that out.  So a fixed pure-Python probe
(``probe``) runs before every op, every ``PROBE_EVERY_S`` during an op (from
SIGALRM; its time is taken out of the op's) and around every set-up.  Each
measured time is scaled by ``PROBE_REF_S`` over the median probe time near
it: a time reads as it would on a host where the probe takes
``PROBE_REF_S``.  The probe does not touch flagq, so a faster program still
reads faster.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads
from checks import Checker
from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 25
OP_TIMEOUT_S = 30.0
# the probe's time on the reference host speed (about its median on a
# 2-vCPU VM with Python 3.11.7)
PROBE_REF_S = 0.4e-3
# an op is scaled by the median of the probes up to this many ops away
PROBE_WINDOW = 2
# wall seconds between two probes during an op
PROBE_EVERY_S = 0.02
# probes at the start and the end of a session, so that a session of one
# long op still has a steady median
PROBE_EDGE = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "cases_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM; not an ``Exception`` so flagq cannot catch it."""


class Running:
    """The op under way: when it started, its probes and their wall time."""
    armed = False
    start = 0.0
    probes: list = []
    probing_s = 0.0


def _on_alarm(signum, frame):
    if not Running.armed:
        return
    t0 = time.perf_counter()
    Running.probes.append(probe())
    Running.probing_s += time.perf_counter() - t0
    if t0 - Running.start - Running.probing_s > OP_TIMEOUT_S:
        raise OpTimeout()


def drop_flagq() -> None:
    for name in [n for n in sys.modules if n == "flagq" or n.startswith("flagq.")]:
        del sys.modules[name]
    gc.collect()


def load_flagq():
    """Import flagq afresh, so every memo starts empty as in a new process."""
    drop_flagq()
    return importlib.import_module("flagq.cli")


# the probe's keys and table, made once: the probe itself allocates nothing
# the cycle collector tracks
_PROBE_KEYS = [(i % 7, i % 11, i) for i in range(600)]
_PROBE_TABLE: dict = {}


def probe() -> float:
    """Seconds one fixed piece of dict, tuple, int and str work takes now.

    It makes only ints and strs, which the cycle collector does not track, so
    a probe never moves the point where flagq's next collection falls.
    """
    keys, table, acc = _PROBE_KEYS, _PROBE_TABLE, 0
    start = time.perf_counter()
    table.clear()
    for i in range(600):
        k = keys[i]
        table[k] = table.get(k, 0) + k[2] * 3
    for i in range(600):
        acc += int(str(table[keys[i]]))
    # a fraction sum kept as a reduced numerator and denominator
    num, den = 0, 1
    for i in range(1, 120):
        num, den = num * i + (i % 13) * den, den * i
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return time.perf_counter() - start


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def run_session(cli, ops, pass_index: int, records: list, tracer: Tracer | None = None) -> float:
    """Run ops against ``cli``; append one record per op; return their wall seconds.

    Each record holds the op's wall time less its probes (``seconds``), the
    probe time around it (``probe_s``, the median of the probes within
    ``PROBE_WINDOW`` ops) and its time at the reference speed (``ref_s``).
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    # probes[i] holds the probe times taken just before and during op i, the
    # last entry those after the last op
    first, probes = len(records), []
    try:
        for i, op in enumerate(ops):
            probes.append([probe() for _ in range(1 if i else PROBE_EDGE)])
            argv = [cache_dir if a == workloads.CACHE else a for a in op.argv]
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = len(records)
            status, code = "ok", 0
            Running.probes, Running.probing_s = probes[i], 0.0
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            Running.armed = True
            Running.start = start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except OpTimeout:
                status = "timeout"
            except Exception:
                status = "error: " + traceback.format_exc(limit=-3)
            finally:
                Running.armed = False
                seconds = time.perf_counter() - start - Running.probing_s
                signal.setitimer(signal.ITIMER_REAL, 0)
            if status == "ok" and code not in (0, None):
                status = f"exit {code}: {err.getvalue().strip()[:300]}"
            records.append({
                "pass": pass_index,
                "kind": op.kind,
                "query": op.query,
                "argv": list(op.argv),
                "seconds": seconds,
                "status": status,
                "stdout": out.getvalue().replace(cache_dir, workloads.CACHE),
            })
        probes.append([probe() for _ in range(PROBE_EDGE)])
        for i, r in enumerate(records[first:]):
            near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 2]
            r["probes"] = probes[i]
            r["probe_s"] = statistics.median(t for ts in near for t in ts)
            r["ref_s"] = r["seconds"] * PROBE_REF_S / r["probe_s"]
        return sum(r["seconds"] for r in records[first:])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def measure(workload, seed, tiny, seconds=None, passes=None, tracer=None, after_import=None):
    """Run passes until ``seconds`` of op time or ``passes`` passes are done.

    Every session imports flagq afresh.  ``after_import`` (used by the
    self-tests) runs on each fresh import.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    records: list = []
    elapsed, p = 0.0, 0
    while True:
        for ops in workloads.deck(workload, seed, p, tiny):
            cli = load_flagq()
            if after_import is not None:
                after_import()
            if tracer is not None:
                tracer.install()
            elapsed += run_session(cli, ops, p, records, tracer)
            if tracer is not None:
                tracer.end_session()
        p += 1
        if (passes is not None and p >= passes) or (passes is None and elapsed >= seconds):
            return records, elapsed, p


def check(records: list, golden: list | None = None) -> None:
    """Set ``failure`` (None when correct) and ``cases`` on every record.

    ``golden`` holds, per pass, the expected output digest of every op.
    """
    load_flagq()
    checker = Checker(sys.modules["flagq.polynomials"], sys.modules["flagq.qhring"])
    index: dict[int, int] = {}
    for r in records:
        i = index[r["pass"]] = index.get(r["pass"], -1) + 1
        r["digest"] = digest(r["stdout"])
        if r["status"] != "ok":
            r["failure"], r["cases"] = r["status"], 0
            continue
        r["failure"], r["cases"] = checker.check(r["kind"], r["argv"], r["stdout"])
        if (r["failure"] is None and golden is not None and r["pass"] < len(golden)
                and golden[r["pass"]][i] != r["digest"]):
            r["failure"] = "output differs from the golden digest"


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b).

    Evaluated by its continued fraction (modified Lentz), on the side of
    the mean where the fraction converges fast.
    """
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * h


def percentile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with weights from the beta
    distribution centred on rank q (n + 1).  Where the samples are sparse, as
    at the upper tail of k-hooks, one order statistic can lie a fifth away
    from its neighbour, so a nearest-rank percentile jumps between runs of the
    same deck; this estimate moves smoothly.
    """
    xs, n = sorted(values), len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def time_setups(workload: str, seed: int, tiny: bool) -> list[float]:
    """Set up ``SETUP_REPEATS`` times: import flagq afresh, make the first deck.

    Returns the set-up times at the reference speed.
    """
    setup = []
    for _ in range(SETUP_REPEATS):
        drop_flagq()
        before = [probe() for _ in range(PROBE_EDGE)]
        t0 = time.perf_counter()
        importlib.import_module("flagq.cli")
        workloads.deck(workload, seed, 0, tiny)
        took = time.perf_counter() - t0
        near = before + [probe() for _ in range(PROBE_EDGE)]
        setup.append(took * PROBE_REF_S / statistics.median(near))
    return setup


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        after_import=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    OUT.mkdir(exist_ok=True)
    setup = time_setups(workload, seed, tiny)
    golden = None
    if seed == GOLDEN_SEED and not tiny:
        golden = json.loads(GOLDEN.read_text()).get(workload)

    records, elapsed, passes = measure(
        workload, seed, tiny, seconds=None if trace else seconds,
        passes=1 if trace else None, after_import=after_import)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail: dict = {"workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
                    "setup_s": setup, "passes": passes, "elapsed_s": elapsed}
    if trace:
        tracer = Tracer()
        plain = records
        records, _, _ = measure(
            workload, seed, tiny, passes=1, tracer=tracer,
            after_import=after_import)
        check(records, golden)
        for r, p in zip(records, plain):
            if r["failure"] is None and r["stdout"] != p["stdout"]:
                r["failure"] = "traced output differs from the untraced output"
        metrics = tracer.metrics(
            overhead=sum(r["ref_s"] for r in records) / sum(r["ref_s"] for r in plain),
            bytes_out=sum(len(r["stdout"].encode()) for r in records))
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        tracer.write(OUT / f"{workload}-seed{seed}-spans.json")
    else:
        check(records, golden)
        ok = [r for r in records if r["failure"] is None]
        queries = [r["ref_s"] * 1e3 for r in records if r["query"]]
        writes = [r["ref_s"] * 1e3 for r in records if not r["query"]]
        ref_elapsed = sum(r["ref_s"] for r in records)
        metrics = {
            "ops_per_s": len(ok) / ref_elapsed,
            "cases_per_s": sum(r["cases"] for r in ok) / ref_elapsed,
            "op_p50_ms": percentile(queries, 0.5),
            "op_p90_ms": percentile(queries, 0.9),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        detail["write_p50_ms"] = percentile(writes, 0.5) if writes else None
        detail["query_ops"] = len(queries)

    failed = sum(1 for r in records if r["failure"] is not None)
    detail["fail_ratio"] = failed / len(records)
    detail["metrics"] = metrics
    detail["ops"] = [{k: v for k, v in r.items() if k != "stdout"} for r in records]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    for r in records:
        if r["failure"] is not None:
            print(f"FAILED {' '.join(r['argv'])}: {r['failure']}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small ranks, for the benchmark self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "flagq" / "cli.py").is_file():
        print(f"perfbench: no flagq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FLAGQ_CACHE", None)  # it would override every --cache-dir
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
