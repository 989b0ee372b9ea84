"""Symmetric group combinatorics for the type A_{n-1} Weyl group.

Permutations are tuples of 1-based images in one-line form: ``u = (4, 3, 5, 1, 2)``
means u(1)=4, ..., u(5)=2.  The rank parameter n is ``len(u)``.

Products compose as functions, ``(u*v)(x) = u(v(x))``; right multiplication by a
transposition therefore swaps two *positions* of the one-line form.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations
from typing import Iterable, NamedTuple, Sequence

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


def swap(u: Permutation, i: int) -> Permutation:
    """u s_i: the one-line form of u with positions i and i+1 swapped."""
    return u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]


def multiply(u: Permutation, v: Permutation) -> Permutation:
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple(u[v[x] - 1] for x in range(len(u)))


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


def hook(n: int, m: int) -> Permutation:
    """The special permutation s_{n-m} s_{n-m+1} ... s_{n-1}, 1 <= m <= n-1."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"hook size {m} out of range for n={n}")
    return (*range(1, n - m), *range(n - m + 1, n + 1), n - m)


def sgn_alpha(u: Permutation, i: int) -> int:
    """1 iff u has a right descent at i, i.e. l(u s_i) < l(u)."""
    if not 1 <= i <= len(u) - 1:
        raise ValueError(f"simple root index {i} out of range")
    return 1 if u[i - 1] > u[i] else 0


def descent_set(u: Permutation) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(u)) if u[i - 1] > u[i])


# --- canonical factorization and the rotation u -> u^1 --------------------
#
# Every u factors uniquely as u^{(n-1)}_{j_{n-1}} ... u^{(2)}_{j_2} u^{(1)}_{j_1}
# with u^{(m)}_j = s_{m-j+1} ... s_{m-1} s_m and 0 <= j_m <= m, the concatenated
# word being reduced.  Peeling the top block relabels values order-preservingly,
# so j_m is the number of entries left of position m+1 that exceed u(m+1).
#
# The rotation u^1 = (s_1 ... s_{n-1}) u adds 1 to every value mod n.  The
# Seidel degree lambda(u) is alpha^vee_p + ... + alpha^vee_{n-1} with
# p = u^{-1}(n): T raises degree by n-1, and l(u^1) - l(u) = 2p - n - 1 since
# only the pairs containing the value n change, so an interval ending at n-1
# must start at p.  It is zero exactly when p = n; lambda_cumulative(u, 1)
# gives it, and seidel.seidel_apply reads it once per position of n.

def canonical_factorization(u: Permutation) -> tuple[int, ...]:
    """The exponent sequence (j_1, ..., j_{n-1}) of the canonical factorization."""
    return tuple(sum(1 for x in u[:m] if x > u[m]) for m in range(1, len(u)))


def canonical_word(u: Permutation) -> tuple[int, ...]:
    """The reduced word obtained by concatenating the canonical factor blocks."""
    js = canonical_factorization(u)
    word: list[int] = []
    for m in range(len(js), 0, -1):
        word.extend(range(m - js[m - 1] + 1, m + 1))
    return tuple(word)


def u_up(u: Permutation, k: int) -> Permutation:
    """(s_1 s_2 ... s_{n-1})^k u; periodic in k with period n."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = len(u)
    return tuple((x - 1 + k) % n + 1 for x in u)


def lambda_cumulative(u: Permutation, k: int) -> DegreeVector:
    """Sum of the Seidel degrees lambda(u_up(u, j)) over 0 <= j < k.

    u_up(u, j) puts n where u has the value x exactly when j = n - x mod n,
    which holds for (k + x - 1) // n of the j < k; entry i sums that count
    over the values u(1), ..., u(i).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return tuple(accumulate((k + x - 1) // len(u) for x in u[:-1]))


# --- Bruhat order and Grassmannian-type permutations -----------------------
#
# With r_x(i, k) = #{j <= i : x(j) <= k}, u <= w in the Bruhat order iff
# r_u(i, k) >= r_w(i, k) for all 1 <= i, k <= n-1.  ranks(x) packs r_x into
# one int, one field per (k, i), k-major, each (n-1).bit_length() + 1 bits
# wide: room for n - 1 and a guard bit above it.  No field of
# guards + ranks(u) - ranks(w) borrows from the next, and its guard bit
# survives exactly where r_u(i, k) >= r_w(i, k).

class BruhatRanks(NamedTuple):
    guards: int  # the guard bit of every field
    columns: tuple[tuple[int, ...], ...]  # [j-1][x]: 1 in every field (k, i), k >= x, i >= j
    block: int  # the bits of one k's n - 1 fields
    mask: int  # the guard bits of one block


@lru_cache(maxsize=None)
def bruhat_ranks(n: int) -> BruhatRanks:
    """The packed rank-count layout at rank n; ranks(x) sums columns[j-1][x(j)] over j < n."""
    width = (n - 1).bit_length() + 1
    block = width * (n - 1)
    ones = sum(1 << width * i for i in range(n - 1))  # one block, a 1 per field
    rows = [ones >> width * j << width * j for j in range(n - 1)]  # fields with i > j
    tiles = [sum(1 << block * k for k in range(max(x, 1) - 1, n - 1)) for x in range(n + 1)]
    mask, columns = ones << width - 1, tuple(tuple(r * t for t in tiles) for r in rows)
    return BruhatRanks(mask * tiles[1], columns, block, mask)


def ranks(x: Permutation) -> int:
    """The rank counts r_x(i, k), packed as bruhat_ranks(len(x)) lays them out."""
    return sum(map(tuple.__getitem__, bruhat_ranks(len(x)).columns, x))


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order by the packed rank counts (bruhat_ranks): n - 1 additions a side."""
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    guards = bruhat_ranks(len(u)).guards
    return (guards + ranks(u) - ranks(v)) & guards == guards


def perm_to_partition(u: Permutation, k: int) -> tuple[int, ...]:
    """Partition (u(k)-k, ..., u(2)-2, u(1)-1) of a Grassmannian-type permutation."""
    n = len(u)
    if any(u[i] > u[i + 1] for i in range(k - 1)) or any(
        u[i] > u[i + 1] for i in range(k, n - 1)
    ):
        raise ValueError(f"{u} is not Grassmannian type with descent at {k}")
    return tuple(u[i] - (i + 1) for i in range(k))[::-1]


# --- serialization ---------------------------------------------------------

def perm_to_string(u: Permutation, sep: str = " ") -> str:
    """One-line form: concatenated digits ("43512") for n <= 9, else joined by sep.

    Both forms are read back by perm_from_string.
    """
    return ("" if len(u) <= 9 else sep).join(str(x) for x in u)


def perm_from_string(s: str, n: int) -> Permutation:
    """Read a permutation of S_n in either form that perm_to_string writes."""
    s = s.strip()
    u = word_from_string(s) if "," in s or " " in s else tuple(map(int, s))
    if not is_permutation(u):
        raise ValueError(f"{s!r} is not a permutation in one-line form")
    if len(u) != n:
        raise ValueError(f"{s!r} has {len(u)} entries, expected {n}")
    return u


def word_from_string(s: str) -> tuple[int, ...]:
    """A comma- or space-separated list of integers ("2,3,4")."""
    return tuple(int(p) for p in s.replace(",", " ").split())


def word_to_string(word: Sequence[int]) -> str:
    return ",".join(str(i) for i in word)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(permutations(range(1, n + 1)))
