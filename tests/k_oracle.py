"""The Grothendieck-polynomial K product, kept as a test oracle.

This is how K(Fl_n) products were computed before the K-theoretic Monk
operator: multiply the Grothendieck polynomials of both factors, reduce
modulo the ideal (e_1, ..., e_n), and peel off Grothendieck polynomials from
the lowest degree up.  It shares no move list or chain rule with
``flagq.ktheory``.
"""
from __future__ import annotations

from functools import lru_cache

from flagq import rootsys
from flagq.polynomials import (
    Poly,
    accumulate,
    divided_diff,
    embed_perm,
    expand_schubert_homog,
    normal_form,
    padd,
    pmul,
    trim_perm,
    xvar,
)
from flagq.weyl import Permutation, swap


def isobaric_diff(f: Poly, i: int) -> Poly:
    """pi_i f = partial_i((1 - x_{i+1}) f)."""
    return divided_diff(padd(f, pmul(xvar(i + 1), f), -1), i)


@lru_cache(maxsize=None)
def grothendieck(w: Permutation) -> Poly:
    """Grothendieck polynomial G_w of a trimmed permutation.

    By descending isobaric divided differences from w_0: G_{w_0} in S_m is
    x_1^{m-1} x_2^{m-2} ... x_{m-1}, and G_w = pi_i G_{w s_i} at the first
    ascent i of w.
    """
    w = trim_perm(w)
    if not w:
        return {(): 1}
    m = len(w)
    if w == tuple(range(m, 0, -1)):
        return {tuple(range(m - 1, 0, -1)): 1}
    i = next(i for i in range(1, m) if w[i - 1] < w[i])
    return isobaric_diff(grothendieck(swap(w, i)), i)


def expand_grothendieck(f: Poly, n: int) -> dict[Permutation, int]:
    """Expand f in {G_w : w in S_n} modulo (e_1, ..., e_n).

    Works up from the lowest total degree: the degree-d layer of what
    remains is a sum of Schubert polynomials (G_w = S_w + higher order), and
    subtracting the matched G_w's clears the layer.
    """
    out: dict[Permutation, int] = {}
    f = normal_form(f, n)
    while f:
        d = min(sum(k) for k in f)
        layer = {k: c for k, c in f.items() if sum(k) == d}
        for w, c in expand_schubert_homog(layer, n).items():
            out[w] = c
            accumulate(f, grothendieck(w), -c)
    return out


def k_product(u: Permutation, v: Permutation) -> dict:
    """O^u . O^v in K(Fl_n) as {(zero degree, w): coefficient}."""
    n = len(u)
    f = pmul(grothendieck(trim_perm(u)), grothendieck(trim_perm(v)))
    zero = rootsys.zero_degree(n)
    return {(zero, embed_perm(w, n)): c for w, c in expand_grothendieck(f, n).items()}
