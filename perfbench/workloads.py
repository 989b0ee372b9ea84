"""Seeded op decks for the four benchmark workloads.

A deck is what one pass of a workload runs: a list of sessions, each a list
of CLI invocations that share one fresh import of flagq.  Decks
are made from ``random.Random`` seeded by (workload, seed, pass index) and
from plain permutation arithmetic, so they depend on nothing in flagq and
the same seed always gives the same argv lists.  The one exception is the
k-product panel of k-hooks, which is fixed across seeds (see kpanel.py).

``tiny`` decks use ranks small enough that a whole pass takes well under a
second; the benchmark self-tests run them.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# placeholder for the per-pass cache directory of the table-cache workload
CACHE = "{cache}"


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    # counted in op_p50_ms / op_p90_ms (queries and cached reads, not writes)
    query: bool = True


def perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


def length(p: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def one_line(p: tuple[int, ...]) -> str:
    return "".join(str(x) for x in p)


def by_length(ps) -> dict[int, list[tuple[int, ...]]]:
    out: dict[int, list] = {}
    for p in ps:
        out.setdefault(length(p), []).append(p)
    return out


def hook(n: int, m: int) -> tuple[int, ...]:
    """s_{n-m} ... s_{n-1} in one-line form: the value n-m moves to position n."""
    return tuple(list(range(1, n - m)) + list(range(n - m + 1, n + 1)) + [n - m])


# --- qh-queries --------------------------------------------------------------

# The Fraction-elimination engine of the seed builds the degree-7 and
# degree-8 expanders at n = 5 in about 17 s and 98 s, so products whose
# shorter factor is longer than 6 cannot be part of a timed pass.
QH_MAX_SHORT = 6


def qh_queries(rng: random.Random, tiny: bool, pass_index: int) -> list[list[Op]]:
    n, products, rn, reduces = (3, 20, 3, 5) if tiny else (5, 1500, 4, 100)
    ops = []
    ps = perms(n)
    while len(ops) < products:
        u, v = rng.choice(ps), rng.choice(ps)
        if min(length(u), length(v)) <= QH_MAX_SHORT:
            ops.append(Op("product", (
                "product", "--n", str(n), "--u", one_line(u), "--v", one_line(v),
                "--format", "json")))
    top = rn * (rn - 1) // 2
    rps = perms(rn)
    levels = by_length(rps)
    for _ in range(reduces):
        # degree-consistent (w, lam): l(u) + l(v) = l(w) + <2 rho, lam>
        while True:
            u, v = rng.choice(rps), rng.choice(rps)
            total = length(u) + length(v)
            lams = [
                lam for lam in itertools.product((0, 1, 2), repeat=rn - 1)
                if any(lam) and 0 <= total - 2 * sum(lam) <= top
            ]
            if lams:
                break
        lam = rng.choice(lams)
        w = rng.choice(levels[total - 2 * sum(lam)])
        ops.append(Op("reduce", (
            "reduce", "--n", str(rn), "--u", one_line(u), "--v", one_line(v),
            "--w", one_line(w), "--lambda", ",".join(map(str, lam)),
            "--format", "json")))
    rng.shuffle(ops)
    return [ops]


# --- k-hooks -----------------------------------------------------------------

KPANEL = Path(__file__).resolve().parent / "kpanel.json"


def k_hooks(rng: random.Random, tiny: bool, pass_index: int) -> list[list[Op]]:
    """60 k-products from a fixed panel (see kpanel.py) and 200 seeded qk queries."""
    if tiny:
        n, qks = 4, 10
        kprods = [(rng.randint(1, n - 1), one_line(rng.choice(perms(n)))) for _ in range(6)]
    else:
        panel = json.loads(KPANEL.read_text())
        n, qks = panel["n"], 200
        kprods = panel["panels"][pass_index % len(panel["panels"])]
    ops = [
        Op("k-product", ("k-product", "--n", str(n), "--hook", str(m), "--v", v,
                         "--format", "json"))
        for m, v in kprods
    ]
    ps = perms(n)
    for i in range(qks):
        m, u = rng.randint(1, n - 1), rng.choice(ps)
        argv = ("qk-conjecture", "--n", str(n), "--hook", str(m), "--u", one_line(u),
                "--format", "json")
        if i % 2:
            k = rng.randint(1, n - 1)
            argv += ("--project", ",".join(str(j) for j in range(1, n) if j != k))
        ops.append(Op("qk-conjecture", argv))
    rng.shuffle(ops)
    return [ops]


# --- sweeps ------------------------------------------------------------------

def sweeps(rng: random.Random, tiny: bool, pass_index: int) -> list[list[Op]]:
    """The five sweep commands in seeded order, each in its own session.

    A sweep is a whole CLI invocation, so it starts cold; sharing a session
    would let one sweep's memos (and the garbage collector's work on them)
    change the next sweep's time depending on the order.
    """
    if tiny:
        cmds = [("verify", "seidel", "--n", "3"), ("verify", "pieri", "--n", "3"),
                ("verify", "support", "--n", "3"),
                ("explore", "--n", "3", "--i", "1", "--j", "2"),
                ("verify", "all", "--n", "3")]
    else:
        # pieri at n = 6 is the closed form alone: the CLI only adds the
        # engine comparison at n <= 4 unless --engine-check is given
        cmds = [("verify", "seidel", "--n", "6"), ("verify", "pieri", "--n", "6"),
                ("verify", "support", "--n", "5"),
                ("explore", "--n", "5", "--i", "2", "--j", "3"),
                ("verify", "all", "--n", "4")]
    ops = [Op(c[0], c + ("--format", "json")) for c in cmds]
    rng.shuffle(ops)
    return [[op] for op in ops]


# --- table-cache -------------------------------------------------------------

def table_cache(rng: random.Random, tiny: bool, pass_index: int) -> list[list[Op]]:
    n, reads, writes = (3, 20, 2) if tiny else (4, 300, 10)
    ps = perms(n)
    ops = [
        Op("read", ("product", "--n", str(n), "--u", one_line(rng.choice(ps)),
                    "--v", one_line(rng.choice(ps)), "--cache-dir", CACHE,
                    "--format", "json"))
        for _ in range(reads)
    ]
    write = Op("write", ("table", "--n", str(n), "--cache-dir", CACHE, "--format", "json"),
               query=False)
    # the first op writes, so every read goes through a table on disk
    for pos in sorted(rng.sample(range(1, reads), writes - 1), reverse=True):
        ops.insert(pos, write)
    return [[write] + ops]


WORKLOADS = {
    "qh-queries": qh_queries,
    "k-hooks": k_hooks,
    "sweeps": sweeps,
    "table-cache": table_cache,
}


def deck(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[list[Op]]:
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return WORKLOADS[workload](rng, tiny, pass_index)
