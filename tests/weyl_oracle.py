"""The multiply-based Seidel data, kept as an independent test oracle.

These are the original definitions of the canonical factorization, the
Seidel degree lambda(u), the rotation u -> u^k and its cumulative degree.
They build every block and every rotation from permutation products, so
they share no shortcut with the closed forms in ``flagq.weyl``.
"""
from __future__ import annotations

from flagq.weyl import (
    DegreeVector,
    Permutation,
    from_word,
    identity,
    multiply,
    simple_reflection,
)


def n_cycle(n: int) -> Permutation:
    """s_1 s_2 ... s_{n-1} = the n-cycle (1, 2, ..., n)."""
    return from_word(range(1, n), n)


def canonical_factorization(u: Permutation) -> tuple[int, ...]:
    """The exponent sequence (j_1, ..., j_{n-1}) of the canonical factorization."""
    n = len(u)
    cur = list(u)
    js = []
    for m in range(n - 1, 0, -1):
        j = (m + 1) - cur[m]
        js.append(j)
        # strip the block: cur <- (u^{(m)}_j)^{-1} cur
        block_inv = identity(n)
        for i in range(m, m - j, -1):
            block_inv = multiply(block_inv, simple_reflection(i, n))
        cur = list(multiply(block_inv, tuple(cur)))
    return tuple(reversed(js))


def lambda_of(u: Permutation) -> DegreeVector:
    """The curve degree picked up by the Seidel operator on the class of u.

    Zero iff u(n) = n; otherwise the 0/1 interval vector supported on
    [l, n-1] with l = max{i : j_i > 0, j_{i-1} = 0} of the canonical
    factorization.
    """
    n = len(u)
    if u[-1] == n:
        return (0,) * (n - 1)
    js = (0,) + canonical_factorization(u)
    l = max(i for i in range(1, n) if js[i] > 0 and js[i - 1] == 0)
    return tuple(1 if i >= l else 0 for i in range(1, n))


def u_up(u: Permutation, k: int) -> Permutation:
    """(s_1 s_2 ... s_{n-1})^k u; periodic in k with period n."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    c = n_cycle(len(u))
    r = u
    for _ in range(k % len(u)):
        r = multiply(c, r)
    return r


def lambda_cumulative(u: Permutation, k: int) -> DegreeVector:
    """Sum of lambda_of(u_up(u, j)) over 0 <= j < k."""
    n = len(u)
    total = [0] * (n - 1)
    r = u
    for _ in range(k):
        for idx, val in enumerate(lambda_of(r)):
            total[idx] += val
        r = multiply(n_cycle(n), r)
    return tuple(total)
