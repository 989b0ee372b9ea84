"""The rescanning normal form, kept as an independent test oracle.

This is the original reduction modulo (e_1, ..., e_n): it rescans the whole
polynomial after every rewrite, rewrites the lowest-index variable over its
bound first, and rebuilds the polynomial with ``pmul`` and ``padd`` on each
step.  It shares no table, heap or monomial encoding with
``flagq.polynomials.normal_form``.
"""
from __future__ import annotations

from flagq.polynomials import Poly, complete_homog, padd, pmul, trim_exponents


def normal_form(f: Poly, n: int) -> Poly:
    """Reduce modulo the ideal (e_1, ..., e_n) of Z[x_1..x_n].

    In the quotient h_{n-i+1}(x_1..x_i) = 0, giving the rewrite
    x_i^{n-i+1} -> x_i^{n-i+1} - h_{n-i+1}(x_1..x_i), which strictly lowers
    the leading monomial.  The result has exponent of x_i below n-i+1, i.e.
    is supported on Lehmer codes of S_n.
    """
    f = dict(f)
    work = True
    while work:
        work = False
        for k in list(f):
            if k not in f:
                continue
            for i in range(1, len(k) + 1):
                e = k[i - 1]
                if e >= n - i + 1:
                    c = f.pop(k)
                    rest = list(k)
                    rest[i - 1] = e - (n - i + 1)
                    sub = pmul({trim_exponents(tuple(rest)): 1}, complete_homog(n - i + 1, i))
                    sub = padd(sub, {k: 1}, -1)
                    f = padd(f, sub, -c)
                    work = True
                    break
    return f
