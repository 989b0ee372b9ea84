"""The engine's move lists against the length-based oracle.

``qhring._monk_moves`` and ``qhring._divisor_moves`` find quantum Bruhat
edges by one scan per side of a position, and ``qhring.quantum_chevalley``
sums X_1 + ... + X_i from the Monk lists; the oracle (``moves_oracle.py``)
compares full inversion counts and builds X_r as the difference of two
Chevalley lists.  The Monk and divisor lists must agree exactly, order
included, since the order fixes the order of every product's terms; the
Chevalley products must agree as classes.
"""
import pytest
from hypothesis import given, settings, strategies as st

import moves_oracle as oracle
from flagq import qhring, rootsys, weyl


def oracle_chevalley(w, i, quantum):
    """sigma^{s_i} * sigma^w: the oracle's Chevalley list summed into a class."""
    n = len(w)
    out = {}
    for gamma, wp in oracle.chevalley_moves(w, i, quantum):
        key = (rootsys.zero_degree(n) if gamma is None else rootsys.coroot(gamma, n), wp)
        out[key] = out.get(key, 0) + 1
    return out


def assert_same_moves(w, quantum):
    n = len(w)
    for i in range(1, n):
        assert qhring.quantum_chevalley(i, qhring.qclass(w), n, quantum) == (
            oracle_chevalley(w, i, quantum)
        ), (w, i, quantum)
        assert qhring._monk_moves(w, i, quantum) == oracle.monk_moves(
            w, i, quantum
        ), (w, i, quantum)


@pytest.mark.parametrize("quantum", (True, False))
@pytest.mark.parametrize("n", range(2, 7))
def test_moves_match_oracle_on_all_of_s_n(n, quantum):
    for w in weyl.all_permutations(n):
        assert_same_moves(w, quantum)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((7, 8)).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.booleans())
def test_moves_match_oracle_sampled_n7_n8(w, quantum):
    assert_same_moves(tuple(w), quantum)


def assert_same_divisor_moves(w):
    # Monk's rule for s_{n-1} is the classical Chevalley list of i = n - 1
    expected = tuple((wp, 1) for _, wp in oracle.chevalley_moves(w, len(w) - 1, False))
    assert qhring._divisor_moves(w) == expected, w


@pytest.mark.parametrize("n", range(2, 7))
def test_divisor_moves_match_oracle_on_all_of_s_n(n):
    for w in weyl.all_permutations(n):
        assert_same_divisor_moves(w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((7, 8)).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_divisor_moves_match_oracle_sampled_n7_n8(w):
    assert_same_divisor_moves(tuple(w))
