"""The engine's move lists and transition steps against the length-based oracle.

``qhring.RingEngine._monk`` (the quantum Monk lists X_r) and the H* lists
of the divisor walker ``RingEngine._divisor`` (Monk's rule for s_{n-1}, its
one-step chains) find quantum Bruhat edges by one scan per side of a
position, and ``RingEngine._transition`` gives the Lascoux-Schutzenberger
step (r, v), whose rest ``RingEngine._mul`` reads off the engine's own Monk
list of v at r.  The oracle (``moves_oracle.py``) compares full inversion
counts, builds X_r as the difference of two Chevalley lists and takes its
transition step from those lists.  The Monk and divisor lists and the
transition steps must agree exactly, order included, since the order fixes
the order of every product's terms.  The divisor's H* list is also -X_n on
the classical engine, term for term: one Monk builder serves both.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import moves_oracle as oracle
from flagq import qhring, weyl

engines = lru_cache(maxsize=None)(qhring.RingEngine)


def decode(engine, terms):
    """(sign, q-shift, index) engine terms as the oracle's (sign, degree, permutation)."""
    n = engine.n
    return tuple(
        (sign, qhring._degree(shift >> engine._bits, n)[0], engine._perms[x])
        for sign, shift, x in terms
    )


def assert_same_moves(w, quantum):
    n = len(w)
    engine = engines(n, quantum)
    z = engine._intern(w)
    for i in range(1, n):
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
        x = engine._intern(w)
        r, v = engine._transition(x)
        # rest is X_r sigma^v but its term sigma^w, each sign negated
        moves = engine._monk(v, r)
        rest = tuple((-sign, shift, y) for sign, shift, y in moves if shift or y != x)
        assert (r, engine._perms[v], decode(engine, rest)) == oracle.transition(
            w, quantum
        ), (w, quantum)


def divisor_moves(w):
    """The walker's H* list of sigma^{s_{n-1}} . sigma^w as (permutation, coeff) pairs,
    with the index of w on the classical engine."""
    engine = engines(len(w), False)
    z = engine._intern(w)
    it = iter(engine._divisor(z, False))
    return tuple((engine._perms[y], c) for y, c in zip(it, it)), z


def assert_same_divisor_moves(w):
    # Monk's rule for s_{n-1} is the classical Chevalley list of i = n - 1
    expected = tuple((wp, 1) for _, wp in oracle.chevalley_moves(w, len(w) - 1, False))
    assert divisor_moves(w)[0] == expected, w


def assert_divisor_is_minus_x_n(w):
    # sigma^{s_{n-1}} = x_1 + ... + x_{n-1} = -x_n, so the walker's H* list is
    # X_n sigma^w, every sign negated, in the same order
    engine = engines(len(w), False)
    got, z = divisor_moves(w)
    monk = [(engine._perms[y], -sign) for sign, _, y in engine._monk(z, len(w))]
    assert list(got) == monk, w


@pytest.mark.parametrize("n", range(2, 7))
def test_divisor_moves_match_oracle_on_all_of_s_n(n):
    for w in weyl.all_permutations(n):
        assert_same_divisor_moves(w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((7, 8)).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_divisor_moves_match_oracle_sampled_n7_n8(w):
    assert_same_divisor_moves(tuple(w))


@pytest.mark.parametrize("n", range(2, 7))
def test_divisor_is_minus_x_n_on_all_of_s_n(n):
    for w in weyl.all_permutations(n):
        assert_divisor_is_minus_x_n(w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((7, 8)).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_divisor_is_minus_x_n_sampled_n7_n8(w):
    assert_divisor_is_minus_x_n(tuple(w))
