"""Sparse integer polynomials, Schubert polynomials and normal forms.

A polynomial is a dict mapping exponent tuples (trailing zeros trimmed) to
integer coefficients; the key () is the constant term.  x_i has exponent 1 in
slot i-1.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, lt

from .weyl import Permutation, swap

Poly = dict[tuple[int, ...], int]


def pad(k: tuple[int, ...], l: int) -> tuple[int, ...]:
    return k + (0,) * (l - len(k))


def trim_exponents(k: tuple[int, ...]) -> tuple[int, ...]:
    k = list(k)
    while k and k[-1] == 0:
        k.pop()
    return tuple(k)


def trim_perm(w: Permutation) -> Permutation:
    """Drop trailing fixed points: the stable form of a permutation."""
    w = list(w)
    while w and w[-1] == len(w):
        w.pop()
    return tuple(w)


def embed_perm(w: Permutation, n: int) -> Permutation:
    if len(w) > n:
        raise ValueError(f"{w} does not fit in S_{n}")
    return w + tuple(range(len(w) + 1, n + 1))


def code(w: Permutation) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w(j) < w(i)}."""
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


def perm_from_code(c: tuple[int, ...]) -> Permutation:
    c = list(c)
    m = max([c[i] + i + 1 for i in range(len(c))] + [len(c)]) if c else 1
    c = c + [0] * (m - len(c))
    avail = list(range(1, m + 1))
    out = []
    for ci in c:
        out.append(avail.pop(ci))
    return tuple(out)


def xvar(i: int) -> Poly:
    return {(0,) * (i - 1) + (1,): 1}


def pmul(f: Poly, g: Poly) -> Poly:
    """f * g.

    Keys are trimmed and exponents non-negative, so adding the common prefix
    of two keys and appending the longer key's tail gives a trimmed key.
    """
    out: Poly = {}
    for k1, c1 in f.items():
        l1 = len(k1)
        for k2, c2 in g.items():
            k = tuple(map(add, k1, k2)) + (k1[len(k2):] or k2[l1:])
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def accumulate(f: dict, terms: Mapping | Iterable[tuple], scale: int = 1) -> None:
    """f += scale * terms in place, dropping coefficients that cancel.

    ``terms`` is a mapping or an iterable of (key, coefficient) pairs.
    """
    if isinstance(terms, Mapping):
        terms = terms.items()
    for k, c in terms:
        v = f.get(k, 0) + scale * c
        if v:
            f[k] = v
        else:
            f.pop(k, None)


def padd(f: Poly, g: Poly, scale: int = 1) -> Poly:
    out = dict(f)
    accumulate(out, g, scale)
    return out


def divided_diff(f: Poly, i: int) -> Poly:
    """Newton divided difference: (f - s_i f) / (x_i - x_{i+1}).

    Acts monomial by monomial via the telescoping sum
    x^a y^b -> sign * sum of x^j y^{a+b-1-j}.
    """
    terms = []
    for k, c in f.items():
        k2 = pad(k, i + 1)
        a, b = k2[i - 1], k2[i]
        if a == b:
            continue
        head, tail = k2[: i - 1], k2[i + 1 :]
        rng, sc = (range(b, a), c) if a > b else (range(a, b), -c)
        if tail:  # k is trimmed, so its tail ends in a nonzero exponent
            terms += [(head + (j, a + b - 1 - j) + tail, sc) for j in rng]
        else:
            terms += [(trim_exponents(head + (j, a + b - 1 - j)), sc) for j in rng]
    out: Poly = {}
    accumulate(out, terms)
    return out


# one shared tuple per exponent vector, so that the memoized Schubert
# polynomials do not each hold a copy
_monomials: dict[tuple[int, ...], tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def schubert(w: Permutation) -> Poly:
    """Schubert polynomial S_w, indexed by a trimmed permutation.

    By descending divided differences from w_0: S_{w_0} in S_m is
    x_1^{m-1} x_2^{m-2} ... x_{m-1}, and S_w = partial_i S_{w s_i} at the
    first ascent i of w.
    """
    w = trim_perm(w)
    if not w:
        return {(): 1}
    m = len(w)
    if w == tuple(range(m, 0, -1)):
        return {tuple(range(m - 1, 0, -1)): 1}
    i = next(i for i in range(1, m) if w[i - 1] < w[i])
    f = divided_diff(schubert(swap(w, i)), i)
    return {_monomials.setdefault(k, k): c for k, c in f.items()}


@lru_cache(maxsize=None)
def complete_homog(k: int, i: int) -> Poly:
    """h_k(x_1, ..., x_i)."""
    out: Poly = {}
    for comb in itertools.combinations_with_replacement(range(1, i + 1), k):
        e = [0] * i
        for c in comb:
            e[c - 1] += 1
        kk = trim_exponents(tuple(e))
        out[kk] = out.get(kk, 0) + 1
    return out


def _pack(k: tuple[int, ...], w: int) -> int:
    """The exponent vector k as an integer of w-bit fields, x_1 in the lowest."""
    return sum(e << (w * s) for s, e in enumerate(k))


@lru_cache(maxsize=None)
def _rewrite_table(n: int, w: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """The rewrite table of ``normal_form`` for S_n and w-bit fields.

    ``normal_form`` rewrites packed monomials (``_pack``): x_n sits in the
    top field, so integer order is the reversed-exponent order.  In the
    quotient h_d(x_1..x_i) = 0 with d = n - i + 1, so x_i^d equals minus the
    other monomials of h_d(x_1..x_i), each of coefficient 1.  Row i - 1
    holds, per such monomial, its packed exponents minus those of x_i^d:
    adding it to a monomial over its bound in x_i rewrites that factor x_i^d
    into one term of its tail.

    With every field below 2^(w-1), ``(m + over) & high`` has the top bit of
    field i - 1 set iff the exponent of x_i in m is at least its bound d.
    """
    tails = []
    for i in range(1, n + 1):
        lead = (0,) * (i - 1) + (n - i + 1,)
        tails.append(tuple(
            _pack(k, w) - _pack(lead, w)
            for k in complete_homog(n - i + 1, i) if k != lead
        ))
    half = 1 << (w - 1)
    over = sum((half - (n - s)) << (w * s) for s in range(n))
    high = sum(half << (w * s) for s in range(n))
    return tuple(tails), over, high


def normal_form(f: Poly, n: int) -> Poly:
    """Reduce modulo the ideal (e_1, ..., e_n) of Z[x_1..x_n].

    In the quotient h_{n-i+1}(x_1..x_i) = 0, giving the rewrite
    x_i^{n-i+1} -> x_i^{n-i+1} - h_{n-i+1}(x_1..x_i), which strictly lowers
    the monomial in the reversed-exponent order (x_n's exponent compared
    first, then x_{n-1}'s, ...).  The result has exponent of x_i below
    n-i+1, i.e. is supported on Lehmer codes of S_n.  The h's are a Groebner
    basis (their leading monomials are coprime), so the result does not
    depend on the order of the rewrites.

    Monomials that are already reduced go straight to the result.  The
    others wait in one accumulator and are rewritten largest first, always
    at the lowest-index variable over its bound: every contribution to a
    monomial comes from a larger one, so it has arrived before the monomial
    is rewritten, and each monomial is rewritten once.  A monomial in
    x_{n+1} or a later variable raises ValueError.
    """
    bound = tuple(range(n, 0, -1))
    out: Poly = {}
    todo = []
    for k, c in f.items():
        if len(k) > n and any(k[n:]):
            raise ValueError(f"monomial {k} involves a variable beyond x_{n}")
        if k and not k[-1]:
            k = trim_exponents(k)
        if all(map(lt, k, bound)):
            out[k] = out.get(k, 0) + c
        else:
            todo.append((k, c))
    if todo:
        # rewrites keep the total degree, which bounds every exponent
        w = max(n, max(sum(k) for k, _ in todo)).bit_length() + 1
        for m, c in _rewrite(todo, n, w).items():
            k = trim_exponents(tuple((m >> (w * s)) & ((1 << w) - 1) for s in range(n)))
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _rewrite(todo: list[tuple[tuple[int, ...], int]], n: int, w: int) -> dict[int, int]:
    """The normal form of the unreduced terms ``todo``, keyed by packed monomial.

    Coefficients that cancelled stay in the result as 0.
    """
    tails, over, high = _rewrite_table(n, w)
    pending: dict[int, int] = {}
    for k, c in todo:
        m = _pack(k, w)
        pending[m] = pending.get(m, 0) + c
    # a min-heap of negated monomials pops the largest first
    heap = [-m for m in pending]
    heapify(heap)
    out: dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = pending.pop(m)
        if not c:
            continue
        flags = (m + over) & high
        for delta in tails[(flags & -flags).bit_length() // w - 1]:
            t = m + delta
            if not (t + over) & high:
                out[t] = out.get(t, 0) - c
            elif t in pending:
                pending[t] -= c
            else:
                pending[t] = -c
                heappush(heap, -t)
    return out


def expand_schubert_homog(f: Poly, n: int) -> dict[Permutation, int]:
    """Expand a homogeneous polynomial in Schubert polynomials of S_n.

    Peels the maximal monomial in the reversed-exponent order; for S_w this
    is x^{code(w)}, so the leading code identifies the next permutation.
    """
    out: dict[Permutation, int] = {}
    f = dict(f)
    while f:
        mx = max(len(k) for k in f)
        lt = max(f, key=lambda k: tuple(reversed(pad(k, mx))))
        w = perm_from_code(pad(lt, mx))
        if len(trim_perm(w)) > n:
            raise ValueError(f"leading code {lt} is not a code of S_{n}")
        c = f[lt]
        out[trim_perm(w)] = c
        accumulate(f, schubert(trim_perm(w)), -c)
    return out
