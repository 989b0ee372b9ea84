"""``polynomials.normal_form`` against the rescanning oracle.

The oracle (``polynomial_oracle.py``) rewrites one monomial at a time and
rescans the whole polynomial after each step; the engine rewrites each
monomial once, largest first, from a heap.  The normal form is unique, so
the two must agree term for term.
"""
import random

import pytest

from k_oracle import grothendieck
import polynomial_oracle as oracle
from flagq import polynomials as P
from flagq import weyl


def g_product(u, v):
    return P.pmul(grothendieck(P.trim_perm(u)), grothendieck(P.trim_perm(v)))


def test_every_grothendieck_product_in_s4():
    perms = weyl.all_permutations(4)
    for u in perms:
        for v in perms:
            f = g_product(u, v)
            assert P.normal_form(f, 4) == oracle.normal_form(f, 4), (u, v)


def test_every_hook_product_at_n5():
    for m in range(1, 5):
        for v in weyl.all_permutations(5):
            f = g_product(weyl.hook(5, m), v)
            assert P.normal_form(f, 5) == oracle.normal_form(f, 5), (m, v)


def test_sampled_hook_products_at_n6():
    # the oracle rescans the polynomial after every rewrite; keep to the
    # products with 1 to 40 monomials over the bound
    rng = random.Random(6)
    cases = [(m, v) for m in range(1, 6) for v in weyl.all_permutations(6)]
    rng.shuffle(cases)
    checked = 0
    for m, v in cases:
        f = g_product(weyl.hook(6, m), v)
        over = sum(1 for k in f if any(e >= 6 - s for s, e in enumerate(k)))
        if not 1 <= over <= 40:
            continue
        assert P.normal_form(f, 6) == oracle.normal_form(f, 6), (m, v)
        checked += 1
        if checked == 40:
            break
    assert checked == 40


@pytest.mark.parametrize("n", [5, 6])
def test_sampled_schubert_products(n):
    # the Schubert cups of the benchmark's correctness gate, of degree at
    # most dim Fl_n
    rng = random.Random(n)
    perms = weyl.all_permutations(n)
    checked = nonzero = 0
    while checked < 200:
        u, v = rng.choice(perms), rng.choice(perms)
        if weyl.length(u) + weyl.length(v) > n * (n - 1) // 2:
            continue
        checked += 1
        f = P.pmul(P.schubert(P.trim_perm(u)), P.schubert(P.trim_perm(v)))
        nf = P.normal_form(f, n)
        assert nf == oracle.normal_form(f, n), (u, v)
        nonzero += bool(nf)
    assert nonzero >= 60


def test_reduced_input_is_unchanged():
    # every exponent of x_i below n - i + 1: nothing to rewrite
    f = {(): 3, (2, 1): -1, (1, 2, 1): 5, (0, 0, 1): 2}
    assert P.normal_form(f, 4) == f
    assert P.normal_form({}, 4) == {}


def test_cancelling_input_gives_zero():
    # multiples of e_1 = x_1 + x_2 + x_3, and x_1^3 = h_3(x_1), lie in the ideal
    x1, x2, x3 = P.xvar(1), P.xvar(2), P.xvar(3)
    e1 = P.padd(P.padd(x1, x2), x3)
    f = P.padd(P.pmul(e1, P.pmul(x2, x2)), P.pmul(e1, x1), 4)
    assert P.normal_form(f, 3) == {}
    assert P.normal_form({(3,): 2}, 3) == {}


def test_variable_beyond_x_n_is_rejected():
    with pytest.raises(ValueError):
        P.normal_form({(0, 0, 0, 0, 1): 1}, 4)
    with pytest.raises(ValueError):
        P.normal_form({(1,): 1, (0, 0, 0, 0, 0, 2): 1}, 4)
