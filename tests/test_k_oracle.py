"""K products from the Monk operator against the Grothendieck oracle.

The divisor walker ``qhring.RingEngine._divisor`` multiplies by O^{s_{n-1}}
through chains of Bruhat covers (its K lists, on the classical engine), and
``ktheory`` builds every hook product and QK product from its powers; the
oracle (``k_oracle.py``) multiplies Grothendieck polynomials and expands
them modulo the ideal.  A class has one expansion in the Grothendieck basis,
so the two must agree term for term.
"""
import random
from functools import lru_cache

import pytest

import k_oracle as oracle
from flagq import ktheory, polynomials, qhring, rootsys, seidel, weyl


def divisor(w):
    """The walker's K list of O^{s_{n-1}} . O^w as a class; no two chains end alike."""
    engine = qhring.get_engine(len(w), False)
    it = iter(engine._divisor(engine._intern(w), True))
    moves = [(engine._perms[y], c) for y, c in zip(it, it)]
    zero = rootsys.zero_degree(len(w))
    cls = {(zero, y): c for y, c in moves}
    assert len(cls) == len(moves), w
    return cls


def hook_cases(n):
    return [(m, v) for m in range(1, n) for v in weyl.all_permutations(n)]


@lru_cache(maxsize=None)
def oracle_divisor_moves(w):
    """O^{s_{n-1}} . O^w from the oracle, as (permutation, coefficient) moves."""
    return tuple((y, c) for (_, y), c in oracle.k_product(weyl.hook(len(w), 1), w).items())


def oracle_qk(m, u):
    """Seidel conjugation of (O^{s_{n-1}})^m . O^{u^k}, k = n - u(n), the power
    taken m rounds through the oracle's divisor moves."""
    cls = {weyl.u_up(u, len(u) - u[-1]): 1}
    for _ in range(m):
        out = {}
        for w, c in cls.items():
            polynomials.accumulate(out, oracle_divisor_moves(w), c)
        cls = out
    return seidel.seidel_conjugation(u, ktheory.ConjectureViolation)(m, cls.items())


@pytest.mark.parametrize("n", range(2, 6))
def test_divisor_operator_on_all_of_s_n(n):
    s = weyl.hook(n, 1)
    for w in weyl.all_permutations(n):
        assert divisor(w) == oracle.k_product(s, w), w


def test_divisor_operator_sampled_n6():
    s = weyl.hook(6, 1)
    for w in random.Random(6).sample(weyl.all_permutations(6), 60):
        assert divisor(w) == oracle.k_product(s, w), w


@pytest.mark.parametrize("n", range(2, 6))
def test_every_hook_product(n):
    for m, v in hook_cases(n):
        assert ktheory.k_cup_special(m, v) == oracle.k_product(weyl.hook(n, m), v), (m, v)


def test_sampled_hook_products_n6():
    for m, v in random.Random(6).sample(hook_cases(6), 60):
        assert ktheory.k_cup_special(m, v) == oracle.k_product(weyl.hook(6, m), v), (m, v)


@pytest.mark.parametrize("n", range(2, 6))
def test_qk_conjecture_product_conjugates_the_oracle_product(n):
    for m, u in hook_cases(n):
        assert ktheory.qk_conjecture_product(m, u) == oracle_qk(m, u), (m, u)


def test_qk_conjecture_product_sampled_n6():
    for m, u in random.Random(7).sample(hook_cases(6), 60):
        assert ktheory.qk_conjecture_product(m, u) == oracle_qk(m, u), (m, u)
