"""The engine's move lists and transition steps against the length-based oracle.

``qhring.RingEngine._monk`` (the quantum Monk lists X_r) and
``qhring._divisor_moves`` find quantum Bruhat edges by one scan per side of
a position, ``RingEngine._transition`` reads the Lascoux-Schutzenberger
step off the engine's own Monk lists, and ``qhring.quantum_chevalley``
reads the Chevalley formula off the right-hand edge scans.  The oracle
(``moves_oracle.py``) compares full inversion counts, builds X_r as the
difference of two Chevalley lists and takes its transition step from those
lists.  The Monk and divisor lists and the transition steps must agree
exactly, order included, since the order fixes the order of every
product's terms; the Chevalley products must agree as classes.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import moves_oracle as oracle
from flagq import qhring, rootsys, weyl

engines = lru_cache(maxsize=None)(qhring.RingEngine)


def decode(engine, terms):
    """(sign, q-shift, index) engine terms as the oracle's (sign, degree, permutation)."""
    n = engine.n
    return tuple(
        (sign, qhring._degree(shift >> engine._bits, n), engine._perms[x])
        for sign, shift, x in terms
    )


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
    engine = engines(n, quantum)
    z = engine._intern(w)
    for i in range(1, n):
        assert qhring.quantum_chevalley(i, qhring.qclass(w), n, quantum) == (
            oracle_chevalley(w, i, quantum)
        ), (w, i, quantum)
        assert decode(engine, engine._monk(z, i)) == oracle.monk_moves(
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


@pytest.mark.parametrize("quantum", (True, False))
@pytest.mark.parametrize("n", range(2, 6))
def test_transition_matches_oracle_on_all_of_s_n(n, quantum):
    engine = qhring.RingEngine(n, quantum)
    for w in weyl.all_permutations(n):
        if w == weyl.identity(n):
            continue
        r, v, rest = engine._transition(engine._intern(w))
        assert (r, engine._perms[v], decode(engine, rest)) == oracle.transition(
            w, quantum
        ), (w, quantum)


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
