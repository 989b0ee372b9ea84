"""Seidel operator in closed form, the quantum Pieri rule, and sweeps.

The Seidel operator T is quantum multiplication by sigma^{s_1...s_{n-1}}; on
the basis it acts by T(sigma^u) = q_{lambda(u)} sigma^{u^1}, where u^1 is the
left rotation of u and lambda(u) is read off the position of n in u.
Every product with a hook class sigma^{s_{n-m}...s_{n-1}} then reduces to a
classical hook product, a power of the divisor sigma^{s_{n-1}}, conjugated
by powers of T; the sweeps check these closed forms against the engine.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_, itemgetter, sub
from typing import Callable

from . import qhring, rootsys, weyl
from .qhring import QClass
from .reporting import VerifyReport
from .weyl import DegreeVector, Permutation


def seidel_apply(u: Permutation) -> tuple[DegreeVector, Permutation]:
    """T(sigma^u) = q_{lambda(u)} sigma^{s_1...s_{n-1} u}, the power k = 1, from two tables.

    lambda(u) = lambda_cumulative(u, 1) depends only on p = u^{-1}(n), so it
    is read once per position of n, on one permutation with n at p; u^1 maps
    each value through u_up of the identity (_seidel_tables).
    """
    degrees, up = _seidel_tables(len(u))
    return degrees[u.index(len(u))], tuple(map(up.__getitem__, u))


@lru_cache(maxsize=None)
def _seidel_tables(n: int) -> tuple[tuple[DegreeVector, ...], Permutation]:
    """(lambda(u) by the 0-based position of n in u, the value map x -> u^1 value) at rank n."""
    degrees = (weyl.lambda_cumulative((*range(1, p), n, *range(p, n)), 1) for p in range(1, n + 1))
    return tuple(degrees), (0, *weyl.u_up(weyl.identity(n), 1))


def seidel_power(u: Permutation, k: int) -> tuple[DegreeVector, Permutation]:
    """T^k(sigma^u) = q_{lambda(u,k)} sigma^{u^k}."""
    return weyl.lambda_cumulative(u, k), weyl.u_up(u, k)


class PieriFormulaError(RuntimeError):
    """The closed-form q-prefactor failed to divide; an implementation bug."""


def seidel_conjugation(u: Permutation, error: type[Exception]) -> Callable[..., QClass]:
    """conjugate(m, terms): Seidel conjugation of the terms (w, c) of [s_{n-1}]^m . [u^k].

    Here k = n - u(n); u's data (k, lambda(u,k), the value rotation) is
    worked out once, for every m.  T^{n-k}(sigma^w) = q_{lambda(w,n-k)}
    sigma^{w^{n-k}}: w^{n-k} sends each value x to x - k mod n, and
    lambda(w,n-k)_i counts the values above k in w(1..i).  So with the
    prefactor the term has degree
        q_i = lambda(u,k)_i - #{j <= i : w(j) <= k};
    no two terms collect, and a negative exponent raises ``error``.
    """
    n = len(u)
    k = n - u[-1]
    base = weyl.lambda_cumulative(u, k)
    # x -> x - k mod n
    rotate = (0, *range(n - k + 1, n + 1), *range(1, n - k + 1)).__getitem__

    def conjugate(m: int, terms) -> QClass:
        out: QClass = {}
        for w, c in terms:
            q = tuple(map(sub, base, accumulate(map(k.__ge__, w))))
            if min(q) < 0:
                raise error(f"negative exponent {q} at term {w} for m={m}, u={u}")
            out[(q, tuple(map(rotate, w)))] = c
        return out

    return conjugate


def seidel_conjugate(m: int, u: Permutation, k: bool, error: type[Exception]) -> QClass:
    """The hook product sigma^{s_{n-m}...s_{n-1}} * sigma^u by Seidel conjugation.

    q_1^{-1} ... q_{n-1}^{1-n} q_{lambda(u,j)} T^{n-j}(hook_m . u^j), j = n - u(n):
    seidel_conjugation of divisor_power(m, u^j, k), in cohomology or, if k, K theory.
    """
    power = qhring.divisor_power(m, weyl.u_up(u, len(u) - u[-1]), k)
    return seidel_conjugation(u, error)(m, ((w, c) for (_, w), c in power.items()))


def quantum_pieri(m: int, u: Permutation) -> QClass:
    """sigma^{s_{n-m}...s_{n-1}} * sigma^u by the Seidel closed form.

    ``seidel_conjugate`` of a power of Monk's operator for s_{n-1}, the one-step
    chains of ``RingEngine._divisor``, with no product engine; a prefactor
    that fails to divide raises PieriFormulaError.
    """
    return seidel_conjugate(m, u, False, PieriFormulaError)


# --- verification sweeps ---------------------------------------------------

def verify_seidel(n: int) -> VerifyReport:
    """T(sigma^u) against the engine for every u in S_n: the one term seidel_apply(u), times 1."""
    report = VerifyReport("seidel", n)
    perms = weyl.all_permutations(n)
    passed = 0
    for u, prod in zip(perms, qhring.products_with(weyl.hook(n, n - 1), perms)):
        if len(prod) == 1 and prod.get(seidel_apply(u)) == 1:
            passed += 1
        else:
            report.record(False, (u, prod))
    report.record(True, count=passed)
    return report


def verify_pieri(n: int, engine_check: bool = True) -> VerifyReport:
    """Closed-form Pieri for every u and hook size, one divisor chain per v in S_{n-1}.

    The closed form for u reads the chain of v = u^k, k = n - u(n), which
    fixes n; so each v serves its n rotations u = (s_1...s_{n-1})^{n-k} v.
    With ``engine_check`` each closed form is compared against the full
    engine product, from one products_with sweep per hook, advanced together.

    Without it only the prefactor's divisibility is read.  With r_x(i, k) =
    #{j <= i : x(j) <= k}, rotation k gives a term w of v's chain the degree
    q_i = r_v(i, k) - r_w(i, k): it divides at every k iff v <= w in the
    Bruhat order, and at k >= 1 iff block k of guards + ranks(v) - ranks(w)
    (``weyl.bruhat_ranks``) keeps its guard bits; k = 0 always divides.  The
    AND over a power's terms keeps a guard bit only if every term does; an OR
    would let one term hide another's negative exponent.  Only a flagged
    (m, u) builds its class: its PieriFormulaError words the counterexample,
    and a class that does not raise there disagrees with the packed check
    and is recorded instead.
    """
    report = VerifyReport("pieri", n)
    heads = weyl.all_permutations(n - 1)
    if engine_check:
        us = [weyl.u_up((*head, n), n - k) for head in heads for k in range(n)]
        engine = zip(*(qhring.products_with(weyl.hook(n, m), us) for m in range(1, n)))
    perms = qhring.get_engine(n, False)._perms  # decodes the chains' indices
    guards, columns, block, mask = weyl.bruhat_ranks(n)

    for head in heads:
        v = (*head, n)
        powers = list(qhring.divisor_powers(v))
        read = [range(1, n) if engine_check else [] for _ in range(n)]
        if not engine_check:
            base = guards + weyl.ranks(v)
            for m, power in enumerate(powers, start=1):
                # weyl.ranks(w), with the columns bound once per sweep
                below = (base - sum(map(tuple.__getitem__, columns, perms[i])) for i in power)
                kept = reduce(and_, below, guards)
                if kept != guards:
                    for k in range(1, n):
                        if kept >> block * (k - 1) & mask != mask:
                            read[k].append(m)
        for k, ms in enumerate(read):
            report.record(True, count=n - 1 - len(ms))
            products = next(engine) if engine_check else None
            if not ms:
                continue
            u = weyl.u_up(v, n - k)
            conjugate = seidel_conjugation(u, PieriFormulaError)
            for m in ms:
                try:
                    closed = conjugate(m, ((perms[i], c) for i, c in powers[m - 1].items()))
                except PieriFormulaError as err:
                    report.record(False, (m, u, err))
                    continue
                ok = engine_check and closed == products[m - 1]
                report.record(ok, None if ok else (m, u, closed))
    report.counterexamples.sort(key=itemgetter(0, 1))
    return report


def verify_support(n: int) -> VerifyReport:
    """q-support of hook products: interval coroots ending at n-1, only for u(n) != n."""
    report = VerifyReport("support", n)
    zero = rootsys.zero_degree(n)
    # alpha_k^vee + ... + alpha_{n-1}^vee, the degrees lambda(u) of the Seidel operator
    intervals = {rootsys.coroot((k, n), n) for k in range(1, n)}
    perms = weyl.all_permutations(n)
    for m in range(1, n):
        for u, prod in zip(perms, qhring.products_with(weyl.hook(n, m), perms)):
            bad = [
                (lam, w, "quantum term with u(n)=n" if u[-1] == n else "non-interval degree")
                for lam, w in prod
                if lam != zero and (u[-1] == n or lam not in intervals)
            ]
            report.record(not bad, (m, u, bad) if bad else None)
    return report


def explore_classical_equality(n: int, i: int, j: int) -> list[dict]:
    """For every u, does sigma^{s_i...s_j} * sigma^u equal the cup product?

    The cup product is the q = 0 part of the quantum product, so they are
    equal iff the quantum product has no term with q != 0.  Records
    descriptive data per permutation; draws no conclusion about a
    characterization.
    """
    if not 1 <= i <= j <= n - 1:
        raise ValueError("need 1 <= i <= j <= n-1")
    zero = rootsys.zero_degree(n)
    perms = weyl.all_permutations(n)
    products = qhring.products_with(weyl.from_word(range(i, j + 1), n), perms)
    return [
        {
            "one_line": weyl.perm_to_string(u),
            "word": weyl.word_to_string(weyl.canonical_word(u)),
            "descents": list(weyl.descent_set(u)),
            "u_n": u[-1],
            "equal": all(lam == zero for lam, _ in prod),
        }
        for u, prod in zip(perms, products)
    ]
