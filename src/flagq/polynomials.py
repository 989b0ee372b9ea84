"""Sparse integer polynomials, Schubert polynomials and normal forms.

A polynomial is a dict mapping exponent tuples (trailing zeros trimmed) to
integer coefficients; the key () is the constant term.  x_i has exponent 1 in
slot i-1.  ``normal_form``, the reduction modulo (e_1, ..., e_n) in one pass
over a heap of exponent tuples, is called only by the benchmark's correctness
gate and by the tests.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, lt, neg, sub

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
    return divided_diff(schubert(swap(w, i)), i)


@lru_cache(maxsize=None)
def complete_homog(k: int, i: int) -> Poly:
    """h_k(x_1, ..., x_i): each multiset of k variables gives one monomial."""
    return {
        trim_exponents(tuple(map(comb.count, range(i)))): 1
        for comb in itertools.combinations_with_replacement(range(i), k)
    }


@lru_cache(maxsize=None)
def _shifts(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Shifts, at length n, that rewrite x_i^d (d = n - i + 1) into minus the
    other monomials of h_d(x_1..x_i): their exponents minus those of x_i^d.
    """
    d = n - i + 1
    lead = (0,) * (i - 1) + (d,)
    return tuple(
        tuple(map(sub, pad(k, n), pad(lead, n)))
        for k in complete_homog(d, i) if k != lead
    )


def normal_form(f: Poly, n: int) -> Poly:
    """Reduce modulo the ideal (e_1, ..., e_n) of Z[x_1..x_n].

    In the quotient h_{n-i+1}(x_1..x_i) = 0, giving the rewrite
    x_i^{n-i+1} -> x_i^{n-i+1} - h_{n-i+1}(x_1..x_i), which strictly lowers
    the monomial in the reversed-exponent order (x_n's exponent compared
    first, then x_{n-1}'s, ...).  The result has exponent of x_i below
    n-i+1, i.e. is supported on Lehmer codes of S_n.  The h's are a Groebner
    basis (their leading monomials are coprime), so the result does not
    depend on the order of the rewrites.

    Reduced monomials go straight to the result; the others wait in a heap
    and are rewritten largest first, at the lowest-index variable over its
    bound.  Every contribution to a monomial comes from a larger one, so each
    is rewritten once.  A monomial in x_{n+1} or later raises ValueError.
    """
    bound = tuple(range(n, 0, -1))
    out: Poly = {}
    pending: Poly = {}  # unreduced monomials, padded to length n
    for k, c in f.items():
        if any(k[n:]):
            raise ValueError(f"monomial {k} involves a variable beyond x_{n}")
        if k and not k[-1]:
            k = trim_exponents(k)
        if all(map(lt, k, bound)):
            out[k] = out.get(k, 0) + c
        else:
            k = pad(k, n)
            pending[k] = pending.get(k, 0) + c
    # negated reversed exponents: the min-heap pops the largest monomial first
    heap = [(tuple(map(neg, reversed(k))), k) for k in pending]
    heapify(heap)
    while heap:
        k = heappop(heap)[1]
        c = pending.pop(k)
        if not c:
            continue
        i = next(i for i in range(1, n + 1) if k[i - 1] >= bound[i - 1])
        for s in _shifts(n, i):
            t = tuple(map(add, k, s))
            if all(map(lt, t, bound)):
                t = trim_exponents(t)
                out[t] = out.get(t, 0) - c
            elif t in pending:
                pending[t] -= c
            else:
                pending[t] = -c
                heappush(heap, (tuple(map(neg, reversed(t))), t))
    return {k: c for k, c in out.items() if c}


def expand_schubert_homog(f: Poly, n: int) -> dict[Permutation, int]:
    """Expand a homogeneous polynomial in Schubert polynomials of S_n.

    Peels the maximal monomial in the reversed-exponent order; for S_w this
    is x^{code(w)}, so the leading code identifies the next permutation.
    """
    out: dict[Permutation, int] = {}
    f = dict(f)
    while f:
        mx = max(len(k) for k in f)
        top = max(f, key=lambda k: tuple(reversed(pad(k, mx))))
        w = trim_perm(perm_from_code(pad(top, mx)))
        if len(w) > n:
            raise ValueError(f"leading code {top} is not a code of S_{n}")
        out[w] = f[top]
        accumulate(f, schubert(w), -out[w])
    return out
