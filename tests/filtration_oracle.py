"""The full pair sweep of the filtration check, kept as a test oracle.

This is how ``flagq.qhring.verify_filtration`` ran before it multiplied only
Seidel-orbit representatives: one product per unordered pair {u, v} of
S_n, checked for every alpha_i and recorded as (u, v) and then (v, u).  It
calls ``qhring.quantum_product`` through the module, so a test that patches
the product patches it here too.
"""
from __future__ import annotations

from operator import add, gt

from flagq import qhring, weyl
from flagq.qhring import _grades, _zero
from flagq.reporting import VerifyReport


def verify_filtration(n: int) -> list[VerifyReport]:
    """F_a * F_b subset F_{a+b} (lexicographic order), one report per alpha_i.

    Checked on pure Schubert classes; multiplying by q-monomials shifts both
    sides of the inequality by the same grade, so this case is exhaustive.
    A term fails when its alpha_i-grade exceeds that of its factors
    (_grades).  The product is commutative, so each unordered pair {u, v} is
    multiplied once and checked for every i; each report still counts (u, v)
    and then (v, u), n!^2 ordered pairs in all.
    """
    reports = [VerifyReport("filtration", n) for _ in range(1, n)]
    perms = weyl.all_permutations(n)
    descents = {u: _grades(_zero(n), u) for u in perms}
    for k, u in enumerate(perms):
        for v in perms[: k + 1]:
            bounds = list(map(add, descents[u], descents[v]))
            graded = ((key, _grades(*key)) for key in qhring.quantum_product(u, v))
            over = [(key, grades) for key, grades in graded if any(map(gt, grades, bounds))]
            for i, (report, bound) in enumerate(zip(reports, bounds)):
                bad = [key for key, grades in over if grades[i] > bound]
                report.record(not bad, (u, v, bad) if bad else None)
                if v != u:
                    report.record(not bad, (v, u, bad) if bad else None)
    return reports
