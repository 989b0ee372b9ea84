"""Symmetric group combinatorics for the type A_{n-1} Weyl group.

Permutations are tuples of 1-based images in one-line form: ``u = (4, 3, 5, 1, 2)``
means u(1)=4, ..., u(5)=2.  The rank parameter n is ``len(u)``.

Products compose as functions, ``(u*v)(x) = u(v(x))``; right multiplication by a
transposition therefore swaps two *positions* of the one-line form.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

Permutation = tuple[int, ...]
DegreeVector = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def is_permutation(u: Sequence[int]) -> bool:
    return sorted(u) == list(range(1, len(u) + 1))


def simple_reflection(i: int, n: int) -> Permutation:
    """s_i = transposition (i, i+1), 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def multiply(u: Permutation, v: Permutation) -> Permutation:
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[v[x] - 1] for x in range(len(u)))


def inverse(u: Permutation) -> Permutation:
    out = [0] * len(u)
    for x, ux in enumerate(u, start=1):
        out[ux - 1] = x
    return tuple(out)


def length(u: Permutation) -> int:
    """Number of inversions of u."""
    n = len(u)
    return sum(1 for a in range(n) for b in range(a + 1, n) if u[a] > u[b])


def from_word(word: Iterable[int], n: int) -> Permutation:
    """Product s_{w1} s_{w2} ... s_{wk} as a permutation of S_n."""
    p = identity(n)
    for i in word:
        p = multiply(p, simple_reflection(i, n))
    return p


def longest_element(n: int) -> Permutation:
    return tuple(range(n, 0, -1))


def n_cycle(n: int) -> Permutation:
    """s_1 s_2 ... s_{n-1} = the n-cycle (1, 2, ..., n)."""
    return tuple(list(range(2, n + 1)) + [1])


def hook(n: int, m: int) -> Permutation:
    """The special permutation s_{n-m} s_{n-m+1} ... s_{n-1}, 1 <= m <= n-1."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"hook size {m} out of range for n={n}")
    return from_word(range(n - m, n), n)


def sgn_alpha(u: Permutation, i: int) -> int:
    """1 iff u has a right descent at i, i.e. l(u s_i) < l(u)."""
    if not 1 <= i <= len(u) - 1:
        raise ValueError(f"simple root index {i} out of range")
    return 1 if u[i - 1] > u[i] else 0


def descent_set(u: Permutation) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(u)) if u[i - 1] > u[i])


# --- canonical factorization ----------------------------------------------
#
# Every u factors uniquely as u^{(n-1)}_{j_{n-1}} ... u^{(2)}_{j_2} u^{(1)}_{j_1}
# with u^{(m)}_j = s_{m-j+1} ... s_{m-1} s_m and 0 <= j_m <= m, the concatenated
# word being reduced.  The top block is peeled off by locating where n sits:
# u^{(m+1)}_j sends m+1 to m+1-j, so j_m = (m+1) - u(m+1) at each stage.

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


def canonical_word(u: Permutation) -> tuple[int, ...]:
    """The reduced word obtained by concatenating the canonical factor blocks."""
    js = canonical_factorization(u)
    word: list[int] = []
    for m in range(len(js), 0, -1):
        word.extend(range(m - js[m - 1] + 1, m + 1))
    return tuple(word)


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


# --- Bruhat order and Grassmannian-type permutations -----------------------

def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order via the rank-matrix (dominance) criterion, O(n^2)."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    n = len(u)
    for i in range(1, n):
        cu = sorted(u[:i], reverse=True)
        cv = sorted(v[:i], reverse=True)
        # u <= v iff the top-left rank counts dominate; equivalently the
        # decreasing sorts satisfy cu[t] <= cv[t] entrywise.
        if any(a > b for a, b in zip(cu, cv)):
            return False
    return True


def is_grassmannian_type(u: Permutation) -> Optional[int]:
    """The unique descent position k if u has at most one descent, else None.

    The identity (no descent) returns 0.
    """
    d = descent_set(u)
    if len(d) == 0:
        return 0
    if len(d) == 1:
        return d[0]
    return None


def perm_to_partition(u: Permutation, k: int) -> tuple[int, ...]:
    """Partition (u(k)-k, ..., u(2)-2, u(1)-1) of a Grassmannian-type permutation."""
    n = len(u)
    if any(u[i] > u[i + 1] for i in range(k - 1)) or any(
        u[i] > u[i + 1] for i in range(k, n - 1)
    ):
        raise ValueError(f"{u} is not Grassmannian type with descent at {k}")
    return tuple(u[i] - (i + 1) for i in range(k))[::-1]


def partition_to_perm(mu: Sequence[int], k: int, n: int) -> Permutation:
    """Inverse of perm_to_partition: the Grassmannian-type permutation for mu."""
    if len(mu) != k:
        raise ValueError("partition must have exactly k parts (zeros allowed)")
    head = [mu[k - i] + i for i in range(1, k + 1)]
    if any(x > n for x in head):
        raise ValueError(f"partition {mu} does not fit in a {k} x {n - k} box")
    tail = sorted(set(range(1, n + 1)) - set(head))
    return tuple(head + tail)


# --- serialization ---------------------------------------------------------

def perm_to_string(u: Permutation, sep: str = " ") -> str:
    """One-line form: concatenated digits ("43512") for n <= 9, else joined by sep.

    Both forms are read back by perm_from_string.
    """
    return ("" if len(u) <= 9 else sep).join(str(x) for x in u)


def perm_from_string(s: str) -> Permutation:
    s = s.strip()
    if "," in s or " " in s:
        parts = s.replace(",", " ").split()
        u = tuple(int(p) for p in parts)
    else:
        u = tuple(int(ch) for ch in s)
    if not is_permutation(u):
        raise ValueError(f"{s!r} is not a permutation in one-line form")
    return u


def word_from_string(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(p) for p in s.replace(",", " ").split())


def word_to_string(word: Sequence[int]) -> str:
    return ",".join(str(i) for i in word)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    import itertools

    return tuple(itertools.permutations(range(1, n + 1)))
