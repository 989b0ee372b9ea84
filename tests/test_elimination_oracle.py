"""The transition engine against the Fraction-elimination oracle.

The oracle (``elimination_oracle.py``) derives products from the quantum
Chevalley formula by exact Gaussian elimination, a different algorithm from
the transition recursion of ``flagq.qhring``.
"""
import random
from fractions import Fraction

import pytest

import elimination_oracle as oracle
from flagq import qhring, rootsys, weyl


def sigma(word, n):
    return weyl.from_word(word, n)


@pytest.mark.parametrize("quantum", [True, False])
def test_engine_matches_oracle_n4_all_pairs(quantum):
    engine = qhring.get_engine(4, quantum)
    reference = oracle.get_engine(4, quantum)
    perms = weyl.all_permutations(4)
    for u in perms:
        for v in perms:
            assert engine.product(u, v) == reference.product(u, v), (u, v)


@pytest.mark.parametrize("quantum", [True, False])
def test_engine_matches_oracle_n5_sampled(quantum):
    # the oracle's expander for degree d at n = 5 costs about 6^d; degree 5
    # takes well under a second, degree 6 several seconds
    rng = random.Random(20261018)
    perms = weyl.all_permutations(5)
    short = [u for u in perms if weyl.length(u) <= 5]
    engine = qhring.get_engine(5, quantum)
    reference = oracle.get_engine(5, quantum)
    for _ in range(200):
        u, v = rng.choice(short), rng.choice(perms)
        assert engine.product(u, v) == reference.product(u, v), (u, v)


def test_expand_in_generators_trivial():
    n = 4
    assert oracle.expand_in_generators(weyl.identity(n)) == [((0, 0, 0), (), 1)]
    exp = oracle.expand_in_generators(weyl.simple_reflection(2, n))
    assert exp == [((0, 0, 0), (2,), Fraction(1))]


def test_expand_in_generators_reapplies():
    n = 4
    engine = oracle.get_engine(n, True)
    for u in [sigma([2, 1], n), sigma([1, 3, 2], n), tuple(range(n, 0, -1))]:
        acc = {}
        for mu, word, coeff in engine.expand_in_generators(u):
            cls = engine.apply_word(word, {(rootsys.zero_degree(n), weyl.identity(n)): 1})
            for (lam, w), c in cls.items():
                key = (rootsys.add_degrees(lam, mu), w)
                acc[key] = acc.get(key, 0) + coeff * c
        acc = {k: c for k, c in acc.items() if c}
        assert acc == {(rootsys.zero_degree(n), u): 1}
        for mu, word, _ in engine.expand_in_generators(u):
            assert len(word) + rootsys.pair_2rho(mu) == weyl.length(u)
