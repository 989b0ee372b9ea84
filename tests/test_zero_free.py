"""Every producer of classes drops the terms that cancel.

Classes are compared with ``==`` throughout, which is only sound when no
class carries a zero coefficient.
"""
import moves_oracle
from flagq import ktheory, qhring, seidel, weyl


def zero_free(cls):
    return all(cls.values())


def test_chevalley_and_pi_star_drop_cancelled_terms():
    n = 3
    zero = (0, 0)
    # sigma^{s_1} * (sigma^{s_1} - sigma^{s_2}) in the elimination oracle's
    # divisor products: the two sigma^{312} terms cancel
    c = {(zero, weyl.from_word([1], n)): 1, (zero, weyl.from_word([2], n)): -1}
    out = moves_oracle.chevalley_product(1, c)
    assert out == {((1, 0), (1, 2, 3)): 1, (zero, (2, 3, 1)): -1}
    # the projection of this QK product cancels two of its three terms
    n = 4
    cls = ktheory.qk_conjecture_product(2, weyl.from_word([2, 3, 2, 1], n))
    proj = ktheory.pi_star({1, 3}, cls)
    assert len(proj) == 1 and zero_free(proj)


def test_products_are_zero_free(s4_table):
    n = 4
    perms = weyl.all_permutations(n)
    assert all(zero_free(p) for p in s4_table.values())
    for u in perms:
        for v in perms:
            assert zero_free(qhring.classical_product(u, v))
    for m in range(1, n):
        for u in perms:
            assert zero_free(ktheory.k_cup_special(m, u))
            assert zero_free(seidel.quantum_pieri(m, u))
