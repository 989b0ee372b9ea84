"""The int-coded product engine against the tuple-coded one it replaced.

The oracle (``tuple_engine_oracle.py``) multiplies sigma^v into every term
of X_r sigma^z, the engine applies X_r to sigma^v * sigma^z: the two orders
of the same transition identity, the oracle with tuple terms and its own
move lists, so any difference is a fault of the engine's recursion order,
its int encoding of terms and q-shifts, or its move lists.
"""
import random

import pytest

import tuple_engine_oracle as oracle
from flagq import qhring, weyl


def assert_engines_agree(n, quantum, pairs):
    engine = qhring.RingEngine(n, quantum)
    reference = oracle.RingEngine(n, quantum)
    for u, v in pairs:
        assert engine.product(u, v) == reference.product(u, v), (u, v)


@pytest.mark.parametrize("quantum", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_engine_matches_tuple_engine_on_all_of_s_n(n, quantum):
    perms = weyl.all_permutations(n)
    assert_engines_agree(n, quantum, [(u, v) for u in perms for v in perms])


@pytest.mark.parametrize("quantum", [True, False])
def test_engine_matches_tuple_engine_sampled_n6(quantum):
    rng = random.Random(20261019)
    perms = weyl.all_permutations(6)
    assert_engines_agree(6, quantum, [(rng.choice(perms), rng.choice(perms)) for _ in range(500)])


def test_engine_matches_tuple_engine_sampled_n7():
    rng = random.Random(20261019)
    perms = weyl.all_permutations(7)
    assert_engines_agree(7, True, [(rng.choice(perms), rng.choice(perms)) for _ in range(20)])


@pytest.mark.parametrize("n", [10, 12])
def test_engine_matches_tuple_engine_short_factor_large_n(n, memos):
    # sigma^{s_{n-1}} * sigma^{w_0} has the term q^{(e_1 - e_n)^vee} sigma^{w_0 t_1n}, whose
    # degree code has a top digit of 1: its term key needs more than 64 bits
    rng = random.Random(n)
    w0 = tuple(range(n, 0, -1))
    pairs = [(weyl.simple_reflection(n - 1, n), w0)]
    for _ in range(5):
        v = list(range(1, n + 1))
        rng.shuffle(v)
        pairs.append((weyl.from_word([rng.randrange(1, n), rng.randrange(1, n)], n), tuple(v)))
    assert_engines_agree(n, True, pairs)
    terms = [t for memo in memos.values() for got in memo.values() for t in got[::2]]
    widest = max(t.bit_length() for t in terms)
    assert widest > 64


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_degree_codes_round_trip(n):
    # every lam_i <= n(n-1)/2 is one digit, so coding and decoding are inverse
    top = n * (n - 1) // 2
    rng = random.Random(n)
    for _ in range(200):
        lam = tuple(rng.randint(0, top) for _ in range(n - 1))
        assert qhring._degree(qhring._code(lam), n)[0] == lam
