"""K(Fl_n) hook products, the QK(Fl_n) Seidel-style formula, and pi_*.

Classes are represented like quantum cohomology classes: a map from
(degree vector, permutation) to an integer coefficient, with degree 0 on
classical classes.  The hook class O^{s_{n-m}...s_{n-1}} is pulled back from
P^{n-1}, where it is the m-th power of the hyperplane class, so it equals
(O^{s_{n-1}})^m: m rounds of every chain of the divisor walker, whose one-step
chains give cohomology (``qhring.divisor_power`` with k, ``RingEngine._divisor``).
"""
from __future__ import annotations

import functools
import math
from operator import itemgetter

from . import polynomials, qhring, rootsys, seidel, weyl
from .reporting import VerifyReport
from .weyl import DegreeVector, Permutation

KClass = qhring.QClass


class ConjectureViolation(RuntimeError):
    """The conjectural q-prefactor failed to divide for some input."""


def k_cup_special(m: int, v: Permutation) -> KClass:
    """The hook product O^{s_{n-m}...s_{n-1}} . O^v = (O^{s_{n-1}})^m . O^v."""
    return qhring.divisor_power(m, v, k=True)


def qk_conjecture_product(m: int, u: Permutation) -> KClass:
    """Conjectural O^{s_{n-m}...s_{n-1}} * O^u in QK(Fl_n).

    Mirrors the cohomological Pieri closed form with K classes: with
    k = n - u(n),
        q_1^{-1} ... q_{n-1}^{1-n} q_{lambda(u,k)}
            T^{n-k}(k_cup_special(m, u^k)) termwise,
    where T(O^w) = q_{lambda(w)} O^{w^1} carries the cohomological Seidel data,
    in closed form (``seidel.seidel_conjugate`` with the K-Monk moves).  A
    negative final exponent raises ConjectureViolation (not asserted impossible).
    """
    return seidel.seidel_conjugate(m, u, True, ConjectureViolation)


# --- projection to G/P ------------------------------------------------------

def coset_min(w: Permutation, delta_p) -> Permutation:
    """Minimal representative w' of w W_P: sort values within Delta_P blocks.

    A component [a, b] of Delta_P (qhring._components) is the block of
    positions a, ..., b + 1.
    """
    out = list(w)
    for comp in qhring._components(sorted(set(delta_p))):
        a, b = comp[0] - 1, comp[-1] + 1
        out[a:b] = sorted(w[a:b])
    return tuple(out)


def pi_star(delta_p, c: KClass) -> KClass:
    """Push a QK(Fl_n) class to QK(G/P): O^w -> O^{w'}, q_i -> 1 for i in Delta_P."""
    dp = set(delta_p)

    def image(lam, w):
        lam = tuple(0 if i in dp else a for i, a in enumerate(lam, start=1))
        return lam, coset_min(w, dp)

    out: KClass = {}
    polynomials.accumulate(out, ((image(*key), coeff) for key, coeff in c.items()))
    return out


def partition_labels(c: KClass, k: int) -> list[tuple[tuple[int, ...], DegreeVector, int]]:
    """Label a Grassmannian-projected class by partitions, for display.

    Rows (partition, remaining q-degree, coefficient) sorted by partition in
    reverse-lexicographic order, then by q-degree.
    """
    rows = []
    for (lam, w), coeff in c.items():
        mu = weyl.perm_to_partition(w, k)
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        rows.append((mu, lam, coeff))
    rows.sort(key=lambda r: (tuple(-x for x in r[0]), r[1]))
    return rows


# --- verification -----------------------------------------------------------

def k_verify(n: int) -> VerifyReport:
    """Invariant sweep over all hook products in K(Fl_n).

    Per product: alternating signs, Bruhat support, and agreement of the
    lowest-length layer with the cohomology cup product.  The hook products
    of each v come from one divisor-power chain (``qhring.divisor_powers``).
    """
    report = VerifyReport("ktheory", n)
    zero = rootsys.zero_degree(n)
    hooks = [weyl.hook(n, m) for m in range(1, n)]
    # the divisor powers and the cup products share the classical engine's indices
    engine = qhring.get_engine(n, False)
    perms, lengths = engine._perms, engine._lengths
    # l(w) and its packed rank counts for the last 1 024 indices met; about 2 misses per w at n = 8
    bruhat = functools.lru_cache(1024)(lambda i: (lengths[i], weyl.ranks(perms[i])))
    guards = weyl.bruhat_ranks(n).guards  # x <= w iff guards + ranks(x) - ranks(w) keeps them all
    # the cup products hook_m . v, one products_with sweep per hook, advanced together
    vs = weyl.all_permutations(n)
    cups = zip(*(qhring.products_with(hook, vs, quantum=False) for hook in hooks))
    for v, cup in zip(vs, cups):
        powers = qhring.divisor_powers(v, k=True)
        lv, rv = bruhat(engine._intern(v))
        for m, (hook, power, cup_m) in enumerate(zip(hooks, powers, cup), start=1):
            base_deg, rh = m + lv, bruhat(engine._intern(hook))[1]  # l(hook_m) = m
            above_h, above_v = guards + rh, guards + rv
            bad = []
            lowest: KClass = {}
            for i, c in power.items():
                w, (lw, rw) = perms[i], bruhat(i)
                excess = lw - base_deg
                if excess < 0 or (c > 0) != (excess % 2 == 0):
                    bad.append(((zero, w, c), "sign pattern"))
                if (above_h - rw) & (above_v - rw) & guards != guards:
                    bad.append(((zero, w, c), "Bruhat support"))
                if excess == 0:
                    lowest[(zero, w)] = c
            if lowest != cup_m:
                bad.append((None, "lowest layer != cup product"))
            report.record(not bad, (m, v, bad) if bad else None)
    report.counterexamples.sort(key=itemgetter(0))  # stable: m, then v
    # identity row: the m-th divisor power of O^id is O^{hook_m}, six records
    # (n! when fewer) with m running through 1..n-1 and round again
    for j in range(min(6, math.factorial(n))):
        m = j % (n - 1) + 1
        ok = k_cup_special(m, weyl.identity(n)) == {(zero, weyl.hook(n, m)): 1}
        report.record(ok, None if ok else ("identity", m))
    if n == 4:
        # fixed regression values for one hook product and its quantum form
        golden = {
            (zero, weyl.from_word([2, 3, 1, 2], 4)): 1,
            (zero, weyl.from_word([1, 2, 3, 2], 4)): 1,
            (zero, weyl.from_word([2, 1, 3, 2, 3], 4)): -1,
        }
        report.record(
            k_cup_special(2, weyl.from_word([1, 2], 4)) == golden, "k golden"
        )
        qk_golden = {
            ((0, 0, 1), weyl.from_word([1, 3, 2, 1], 4)): 1,
            ((1, 1, 1), weyl.identity(4)): 1,
            ((1, 1, 1), weyl.from_word([3], 4)): -1,
        }
        report.record(
            qk_conjecture_product(2, weyl.from_word([2, 3, 2, 1], 4)) == qk_golden,
            "qk golden",
        )
    return report
