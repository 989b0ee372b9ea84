"""Correctness gate for every benchmark op, run after the timed region.

``Checker`` takes flagq modules imported afresh after the measured passes,
so its oracles do not share memos (or a patched function) with the run it
checks.  Per op kind:

* ``product`` (and cached ``read``): degree axiom, positive integer
  coefficients, reduced words, sorted terms, and the q = 0 part equal to the
  Schubert-polynomial product (``schubert`` + ``normal_form`` +
  ``expand_schubert_homog``); a cached read must also equal the uncached
  engine answer.
* ``reduce``: the chain starts at the query and its value equals the
  structure constant read off the engine product.
* ``k-product``: signs alternate with the length excess and the lowest
  layer equals the Schubert-polynomial product.
* ``qk-conjecture``: signs alternate with the graded excess, the lowest
  graded layer equals the quantum product from the engine, and a
  ``--project`` result equals the projection of the printed terms.
* ``verify`` / ``explore``: every report has ``passed == total``; explore
  lists every permutation once.
* ``write``: the table has an entry for every ordered pair.

``check`` returns ``(failure reason or None, cases)``; cases are the sweep
cases and explore rows of a sweep op and 1 for every other op.
"""
from __future__ import annotations

import json
import math

from workloads import hook, length, one_line, perms


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _perm(s: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in s)


def _from_word(word, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


class CheckFailure(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailure(reason)


class Checker:
    def __init__(self, polynomials, qhring) -> None:
        self.P = polynomials
        self.qhring = qhring
        self._cup: dict = {}
        self._quantum: dict = {}

    # - oracles -
    def cup(self, u, v) -> dict:
        """Classical product from Schubert polynomials modulo the ideal."""
        if (u, v) not in self._cup:
            P, n = self.P, len(u)
            f = P.pmul(P.schubert(P.trim_perm(u)), P.schubert(P.trim_perm(v)))
            self._cup[(u, v)] = {
                P.embed_perm(w, n): c
                for w, c in P.expand_schubert_homog(P.normal_form(f, n), n).items() if c
            }
        return self._cup[(u, v)]

    def quantum(self, u, v) -> dict:
        if (u, v) not in self._quantum:
            self._quantum[(u, v)] = {
                (tuple(q), w): int(c) for (q, w), c in self.qhring.quantum_product(u, v).items()
            }
        return self._quantum[(u, v)]

    # - shared term checks -
    @staticmethod
    def terms(payload: dict, n: int) -> dict:
        """Parse and sanity-check a ``terms`` list into {(q, w): coeff}."""
        out = {}
        keys = []
        for t in payload["terms"]:
            q, w, word, c = tuple(t["q"]), _perm(t["w"]), tuple(t["word"]), t["coeff"]
            _require(sorted(w) == list(range(1, n + 1)), f"{t['w']} is not in S_{n}")
            _require(len(q) == n - 1 and all(isinstance(a, int) and a >= 0 for a in q),
                     f"bad degree {q}")
            _require(isinstance(c, int) and c != 0, f"bad coefficient {c!r}")
            _require(_from_word(word, n) == w and len(word) == length(w),
                     f"{word} is not a reduced word of {t['w']}")
            keys.append((q, w))
            out[(q, w)] = c
        _require(keys == sorted(set(keys)), "terms not sorted or repeated")
        return out

    def product(self, argv, payload) -> None:
        n = int(_arg(argv, "--n"))
        u, v = _perm(_arg(argv, "--u")), _perm(_arg(argv, "--v"))
        terms = self.terms(payload, n)
        degree = length(u) + length(v)
        for (q, w), c in terms.items():
            _require(length(w) + 2 * sum(q) == degree, f"degree axiom fails at {q}, {w}")
            _require(c > 0, f"negative coefficient {c} at {q}, {w}")
        classical = {w: c for (q, w), c in terms.items() if not any(q)}
        _require(classical == self.cup(u, v), "q = 0 part differs from the Schubert product")

    # - per kind -
    def check(self, kind: str, argv, stdout: str) -> tuple[str | None, int]:
        try:
            payload = json.loads(stdout)
            return None, getattr(self, "_" + kind.replace("-", "_"))(argv, payload) or 1
        except CheckFailure as e:
            return str(e), 0
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return f"malformed output: {type(e).__name__}: {e}", 0

    def _product(self, argv, payload) -> None:
        self.product(argv, payload)

    def _read(self, argv, payload) -> None:
        self.product(argv, payload)
        u, v = _perm(_arg(argv, "--u")), _perm(_arg(argv, "--v"))
        _require(self.terms(payload, len(u)) == self.quantum(u, v),
                 "cached read differs from the uncached answer")

    def _write(self, argv, payload) -> None:
        n = int(_arg(argv, "--n"))
        _require(payload["entries"] == math.factorial(n) ** 2,
                 f"table has {payload['entries']} entries")

    def _reduce(self, argv, payload) -> None:
        u, v, w = (_perm(_arg(argv, f)) for f in ("--u", "--v", "--w"))
        lam = tuple(int(a) for a in _arg(argv, "--lambda").split(","))
        first = payload["steps"][0]
        _require((first["u"], first["v"], first["w"], tuple(first["lambda"]))
                 == (one_line(u), one_line(v), one_line(w), lam), "chain does not start at the query")
        _require(len(payload["rules"]) == len(payload["steps"]) - 1, "rules do not match steps")
        _require(payload["terminal"] in ("classical", "zero"), f"terminal {payload['terminal']}")
        expected = self.quantum(u, v).get((lam, w), 0)
        _require(payload["value"] == expected, f"value {payload['value']} != {expected}")

    def _k_product(self, argv, payload) -> None:
        n, m = int(_arg(argv, "--n")), int(_arg(argv, "--hook"))
        v = _perm(_arg(argv, "--v"))
        terms = self.terms(payload, n)
        base = m + length(v)
        for (q, w), c in terms.items():
            excess = length(w) - base
            _require(not any(q), "quantum term in a K-theory product")
            _require(excess >= 0 and (c > 0) == (excess % 2 == 0), f"sign pattern at {w}")
        lowest = {w: c for (q, w), c in terms.items() if length(w) == base}
        _require(lowest == self.cup(hook(n, m), v), "lowest layer differs from the Schubert product")

    def _qk_conjecture(self, argv, payload) -> None:
        n, m = int(_arg(argv, "--n")), int(_arg(argv, "--hook"))
        u = _perm(_arg(argv, "--u"))
        terms = self.terms(payload, n)
        base = m + length(u)
        for (q, w), c in terms.items():
            excess = length(w) + 2 * sum(q) - base
            _require(excess >= 0 and (c > 0) == (excess % 2 == 0), f"sign pattern at {q}, {w}")
        lowest = {k: c for k, c in terms.items() if length(k[1]) + 2 * sum(k[0]) == base}
        _require(lowest == self.quantum(hook(n, m), u),
                 "lowest layer differs from the quantum product")
        if "--project" in argv:
            dp = {int(a) for a in _arg(argv, "--project").split(",")}
            _require(sorted(map(tuple, map(_row, payload["projected"])))
                     == sorted(_project(terms, dp, n)), "projection differs from pi_*")

    def _verify(self, argv, payload) -> int:
        reports = payload["reports"]
        _require(bool(reports), "no reports")
        for r in reports:
            _require(r["total"] > 0 and r["passed"] == r["total"] and not r["counterexamples"],
                     f"{r['name']} n={r['n']}: {r['passed']}/{r['total']}")
        return sum(r["total"] for r in reports)

    def _explore(self, argv, payload) -> int:
        n = int(_arg(argv, "--n"))
        rows = payload["rows"]
        _require(sorted(r["one_line"] for r in rows) == sorted(map(one_line, perms(n))),
                 "explore does not list S_n once")
        _require(all(isinstance(r["equal"], bool) for r in rows), "non-boolean equal")
        return len(rows)


def _row(r: dict) -> tuple:
    return (tuple(r["partition"]), tuple(r["q"]), r["coeff"])


def _project(terms: dict, dp: set[int], n: int) -> list[tuple]:
    """pi_*: q_i -> 1 on Delta_P, w -> its minimal coset representative."""
    k = next(i for i in range(1, n) if i not in dp)
    out: dict = {}
    for (q, w), c in terms.items():
        lam = tuple(0 if i in dp else a for i, a in enumerate(q, start=1))
        blocks, start = [], 0
        for i in range(1, n + 1):
            if i == n or i not in dp:
                blocks.append(range(start, i))
                start = i
        wmin = list(w)
        for b in blocks:
            for pos, val in zip(b, sorted(w[p] for p in b)):
                wmin[pos] = val
        mu = tuple(wmin[i] - (i + 1) for i in range(k))[::-1]
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        out[(mu, lam)] = out.get((mu, lam), 0) + c
    return [(mu, lam, c) for (mu, lam), c in out.items() if c]
