"""flagq command-line interface.

Subcommands: product, k-product, qk-conjecture, table, verify, reduce,
explore.  Each builds one JSON payload; ``--format json`` prints it and
``--format text`` prints a text view rendered from the payload alone.
Output is deterministic: terms sorted by q-degree lexicographically, then by
the one-line form of the permutation.  Exit status 0 on success, 1
when a verification sweep finds a counterexample or a reduction is stuck, 2
on usage errors, 3 on an internal error (a fault in flagq, never in the
input).
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Optional

from . import ktheory, qhring, rootsys, seidel, table, weyl
from .reporting import VerifyReport

SCHEMA = 1


class UsageError(Exception):
    """Invalid command-line input; reported with exit status 2."""


# --- rendering -------------------------------------------------------------
# Each command builds one JSON payload.  Its text output is a view of that
# payload, rendered only when --format text asks for it.

def render_magnitude(c: int, lam, symbol: str) -> str:
    """|c| when it is not 1, the q-monomial when it is not 1, then the symbol."""
    parts = [] if abs(c) == 1 else [str(abs(c))]
    q = rootsys.q_monomial_string(lam)
    if q != "1":
        parts.append(q)
    parts.append(symbol)
    return "*".join(parts)


def render_class(terms: list[dict], letter: str = "s") -> str:
    """Signed sum of the payload terms of class_to_json."""
    if not terms:
        return "0"
    parts = []
    for t in terms:
        c = t["coeff"]
        text = render_magnitude(c, t["q"], f"{letter}[{','.join(map(str, t['word']))}]")
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def class_to_json(cls) -> list[dict]:
    return [
        {
            "q": list(lam),
            "w": weyl.perm_to_string(w),
            "word": list(weyl.canonical_word(w)),
            "coeff": int(c),
        }
        for (lam, w), c in sorted(cls.items())
    ]


def render_product(payload: dict) -> str:
    return render_class(payload["terms"])


def render_k_class(payload: dict) -> str:
    """The K-class terms, then the projected rows of qk-conjecture --project."""
    text = render_class(payload["terms"], "O")
    if "projected" not in payload:
        return text
    lines = [
        ("- " if r["coeff"] < 0 else "+ ")
        + render_magnitude(r["coeff"], r["q"], "O(" + ", ".join(map(str, r["partition"])) + ")")
        for r in payload["projected"]
    ]
    return text + "\nprojected:\n" + "\n".join(lines)


def render_table(payload: dict) -> str:
    return f"wrote {payload['entries']} entries to {payload['path']}"


def render_verify(payload: dict) -> str:
    return "\n".join(
        f"{r['name']} n={r['n']}: {r['passed']}/{r['total']} "
        + ("pass" if r["passed"] == r["total"] else "FAIL")
        for r in payload["reports"]
    )


def render_reduce(payload: dict, zero_by: Optional[str]) -> str:
    """The trace in text; ``zero_by`` names what gave a "zero" terminal."""
    lines = []
    for idx, st in enumerate(payload["steps"]):
        head = "  " if idx == 0 else f"= [{payload['rules'][idx - 1]}] "
        lines.append(
            f"{head}N[u={st['u']}, v={st['v']}; w={st['w']}, "
            f"lam={','.join(map(str, st['lambda']))}]"
        )
    if payload["terminal"] == "zero":
        lines.append(f"= 0 ({zero_by})")
    elif payload["terminal"] == "stuck":
        lines.append("stuck: no reduction rule applies")
    else:
        lines.append(f"= {payload['value']}")
    return "\n".join(lines)


def render_explore(payload: dict) -> str:
    return "\n".join(
        f"{r['one_line']} descents={','.join(map(str, r['descents'])) or '-'} "
        f"u(n)={r['u_n']} equal={r['equal']}"
        for r in payload["rows"]
    )


def emit(payload: dict, text, fmt: str) -> None:
    """Print the payload as JSON, or the text that text(payload) renders from it."""
    if fmt == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        print(text(payload))


# --- argument handling -----------------------------------------------------

def parse_perm(args, n: int, flag: str):
    """The permutation given by --flag or --flag-word (argparse requires one)."""
    one_line = getattr(args, flag)
    if one_line is not None:
        return user_input(f"--{flag}", lambda: weyl.perm_from_string(one_line, n))
    word = getattr(args, f"{flag}_word")
    return user_input(
        f"--{flag}-word", lambda: weyl.from_word(weyl.word_from_string(word), n)
    )


def user_input(what: str, parse):
    """parse(), with the ValueError or OSError of bad input turned into a UsageError."""
    try:
        return parse()
    except (ValueError, OSError) as e:
        raise UsageError(f"{what}: {e}") from None


def check_hook(args) -> None:
    if not 1 <= args.hook <= args.n - 1:
        raise UsageError(f"--hook must be between 1 and {args.n - 1}")


def add_perm_args(sub, *flags):
    for flag in flags:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument(f"--{flag}")
        group.add_argument(f"--{flag}-word")


# --- subcommands -----------------------------------------------------------

def cmd_product(args) -> int:
    n = args.n
    u = parse_perm(args, n, "u")
    v = parse_perm(args, n, "v")
    cls = None
    if args.cache_dir:
        path = table.table_path(args.cache_dir, n)
        if path.exists():
            cached = user_input("cache table", lambda: table.StructureTable.load(path))
            if cached.n != n:
                raise UsageError(f"cache table: {path} holds an n = {cached.n} table")
            cls = cached.get(u, v)
    if cls is None:
        cls = qhring.quantum_product(u, v)
    emit({"n": n, "terms": class_to_json(cls)}, render_product, args.format)
    return 0


def cmd_k_product(args) -> int:
    check_hook(args)
    cls = ktheory.k_cup_special(args.hook, parse_perm(args, args.n, "v"))
    emit({"n": args.n, "terms": class_to_json(cls)}, render_k_class, args.format)
    return 0


def cmd_qk_conjecture(args) -> int:
    n = args.n
    check_hook(args)
    u = parse_perm(args, n, "u")
    if args.project is not None:
        dp = user_input("--project", lambda: sorted(weyl.word_from_string(args.project)))
        missing = [i for i in range(1, n) if i not in dp]
        if len(missing) != 1 or len(dp) != n - 2:
            raise UsageError(f"--project must list every index 1..{n - 1} but one")
    try:
        cls = ktheory.qk_conjecture_product(args.hook, u)
    except ktheory.ConjectureViolation as e:
        print(f"flagq: counterexample: {e}", file=sys.stderr)
        return 1
    payload = {"n": n, "terms": class_to_json(cls)}
    if args.project is not None:
        rows = ktheory.partition_labels(ktheory.pi_star(dp, cls), missing[0])
        payload["projected"] = [
            {"partition": list(mu), "q": list(lam), "coeff": int(c)}
            for mu, lam, c in rows
        ]
    emit(payload, render_k_class, args.format)
    return 0


def cmd_table(args) -> int:
    t = table.build_table(args.n)
    path = table.table_path(args.cache_dir, args.n)
    try:
        t.save(path)
    except OSError as e:
        raise UsageError(f"--cache-dir: {e}") from None
    emit(
        {"n": args.n, "path": str(path), "entries": len(t.entries)},
        render_table,
        args.format,
    )
    return 0


def _verify_reports(which: str, n: int, engine_check: bool) -> list[VerifyReport]:
    reports = []
    if which in ("seidel", "all"):
        reports.append(seidel.verify_seidel(n))
    if which in ("pieri", "all"):
        reports.append(seidel.verify_pieri(n, engine_check=engine_check))
    if which in ("support", "all"):
        reports.append(seidel.verify_support(n))
    if which in ("filtration", "all"):
        reports.extend(qhring.verify_filtration(n))
    if which in ("ktheory", "all"):
        reports.append(ktheory.k_verify(n))
    if not reports:
        raise UsageError(f"unknown verification target {which!r}")
    return reports


def cmd_verify(args) -> int:
    # engine comparison of the Pieri sweep is implied at small rank,
    # opt-in beyond (full products dominate the runtime there)
    engine_check = args.engine_check or args.n <= 4
    reports = _verify_reports(args.what, args.n, engine_check)
    emit({"reports": [r.to_json() for r in reports]}, render_verify, args.format)
    return 0 if all(r.ok for r in reports) else 1


def cmd_reduce(args) -> int:
    n = args.n
    u = parse_perm(args, n, "u")
    v = parse_perm(args, n, "v")
    w = parse_perm(args, n, "w")
    lam = user_input(
        "--lambda", lambda: rootsys.degree_from_string(getattr(args, "lambda"), n)
    )
    trace = qhring.reduce_trace(u, v, w, lam)
    steps = [
        {
            "u": weyl.perm_to_string(st.u),
            "v": weyl.perm_to_string(st.v),
            "w": weyl.perm_to_string(st.w),
            "lambda": list(st.lam),
        }
        for st in trace.states
    ]
    emit(
        {"terminal": trace.terminal, "value": trace.value, "steps": steps,
         "rules": trace.rules},
        lambda payload: render_reduce(payload, trace.zero_by),
        args.format,
    )
    if trace.terminal == "stuck":
        value = qhring.structure_constant(u, v, w, lam)
        print(f"flagq: reduction stuck; engine value {value}", file=sys.stderr)
        return 1
    return 0


def cmd_explore(args) -> int:
    if not 1 <= args.i <= args.j <= args.n - 1:
        raise UsageError(f"--i and --j need 1 <= i <= j <= {args.n - 1}")
    rows = seidel.explore_classical_equality(args.n, args.i, args.j)
    emit({"n": args.n, "rows": rows}, render_explore, args.format)
    return 0


# --- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagq",
        description="Exact quantum Schubert calculus on complete flag varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--format", choices=("text", "json"), default="text")

    p = subs.add_parser("product", help="quantum product of two Schubert classes")
    common(p)
    add_perm_args(p, "u", "v")
    p.add_argument("--cache-dir", default=None, help="read from a table written there")
    p.set_defaults(func=cmd_product)

    p = subs.add_parser("k-product", help="K-theory hook product")
    common(p)
    p.add_argument("--hook", type=int, required=True)
    add_perm_args(p, "v")
    p.set_defaults(func=cmd_k_product)

    p = subs.add_parser("qk-conjecture", help="conjectural QK hook product")
    common(p)
    p.add_argument("--hook", type=int, required=True)
    p.add_argument("--project", default=None, help="Delta_P indices, e.g. '1,2,4,5'")
    add_perm_args(p, "u")
    p.set_defaults(func=cmd_qk_conjecture)

    p = subs.add_parser("table", help="generate and cache a product table")
    common(p)
    p.add_argument("--cache-dir", required=True, help="directory to write the table to")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("verify", help="run a verification sweep")
    p.add_argument(
        "what",
        choices=("seidel", "pieri", "support", "filtration", "ktheory", "all"),
    )
    common(p)
    p.add_argument("--engine-check", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("reduce", help="quantum-to-classical reduction trace")
    common(p)
    add_perm_args(p, "u", "v", "w")
    p.add_argument("--lambda", required=True, help="degree vector, e.g. '1,1,0'")
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("explore", help="quantum = classical equality dataset")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n < 2:
            raise UsageError("--n must be at least 2")
        return args.func(args)
    except UsageError as e:
        parser.exit(2, f"flagq: {e}\n")
    except Exception as e:
        traceback.print_exc()
        parser.exit(3, f"flagq: internal error: {type(e).__name__}: {e}\n")


if __name__ == "__main__":
    sys.exit(main())
