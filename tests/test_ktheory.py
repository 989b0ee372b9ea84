import functools
from itertools import chain

import pytest

import k_oracle as oracle
import plants
from flagq import ktheory, qhring, rootsys, weyl


def w(word, n):
    return weyl.from_word(word, n)


def test_k_product_identity():
    n = 4
    zero = rootsys.zero_degree(n)
    for v in weyl.all_permutations(n)[::5]:
        assert oracle.k_product(weyl.identity(n), v) == {(zero, v): 1}
    # the m-th power of the divisor O^{s_{n-1}} is the hook class
    for m in range(1, n):
        assert ktheory.k_cup_special(m, weyl.identity(n)) == {(zero, weyl.hook(n, m)): 1}


def test_k_fl4_hook_golden():
    n = 4
    zero = rootsys.zero_degree(n)
    out = ktheory.k_cup_special(2, w([1, 2], n))
    assert out == {
        (zero, w([2, 3, 1, 2], n)): 1,
        (zero, w([1, 2, 3, 2], n)): 1,
        (zero, w([2, 1, 3, 2, 3], n)): -1,
    }
    # sign pattern (+, +, -) against length excess over 2 + 2
    for (_, ww), c in out.items():
        assert c == (1 if (weyl.length(ww) - 4) % 2 == 0 else -1)


def test_k_invariants_n3_n4():
    assert ktheory.k_verify(3).ok
    r = ktheory.k_verify(4)
    assert r.ok, r.counterexamples[:2]


def test_qk_conjecture_fl4_golden():
    n = 4
    out = ktheory.qk_conjecture_product(2, w([2, 3, 2, 1], n))
    assert out == {
        ((0, 0, 1), w([1, 3, 2, 1], n)): 1,
        ((1, 1, 1), weyl.identity(n)): 1,
        ((1, 1, 1), w([3], n)): -1,
    }


def test_qk_conjecture_classical_branch():
    # u fixing n: the conjecture formula degenerates to the classical product
    n = 4
    u = w([1, 2, 1], n)
    assert ktheory.qk_conjecture_product(2, u) == ktheory.k_cup_special(2, u)


def test_qk_conjecture_fl6_golden():
    n = 6
    u = w([5, 3, 4, 1, 2, 3, 2, 1], n)
    out = ktheory.qk_conjecture_product(3, u)
    ones = (1, 1, 1, 1, 1)
    zero = (0,) * 5
    assert out == {
        (ones, w([3], n)): 1,
        (zero, w([1, 2, 3, 4, 5, 3, 4, 2, 3, 2, 1], n)): 1,
        (zero, w([1, 2, 3, 4, 5, 4, 1, 2, 3, 2, 1], n)): 1,
        (zero, w([2, 3, 4, 5, 3, 4, 1, 2, 3, 2, 1], n)): 1,
        (ones, w([4, 3], n)): -1,
        (ones, w([2, 3], n)): -1,
        (zero, w([1, 2, 3, 4, 5, 3, 4, 1, 2, 3, 2, 1], n)): -2,
        (ones, w([4, 2, 3], n)): 1,
    }


def test_pi_star_gr36_golden():
    n = 6
    u = w([5, 3, 4, 1, 2, 3, 2, 1], n)
    out = ktheory.qk_conjecture_product(3, u)
    proj = ktheory.pi_star({1, 2, 4, 5}, out)
    labels = {
        (mu, lam): c for mu, lam, c in ktheory.partition_labels(proj, 3)
    }
    q3 = (0, 0, 1, 0, 0)
    zero = (0,) * 5
    assert labels == {
        ((1,), q3): 1,
        ((2,), q3): -1,
        ((1, 1), q3): -1,
        ((2, 1), q3): 1,
        ((3, 2, 2), zero): 1,
        ((3, 3, 1), zero): 1,
        ((3, 3, 2), zero): -1,
    }


def test_pi_star_trivial_cases():
    n = 4
    zero = rootsys.zero_degree(n)
    c = {(zero, (2, 1, 4, 3)): 3, ((1, 0, 1), (3, 4, 1, 2)): -2}
    assert ktheory.pi_star(set(), c) == c
    # a class from W_P collapses to the identity class
    assert ktheory.pi_star({1, 2, 3}, {(zero, (3, 1, 2, 4)): 1}) == {
        (zero, weyl.identity(n)): 1
    }


def test_coset_min():
    assert ktheory.coset_min((3, 1, 4, 2), {1, 2}) == (1, 3, 4, 2)
    assert ktheory.coset_min((4, 2, 3, 1), {2}) == (4, 2, 3, 1)
    assert ktheory.coset_min((4, 2, 3, 1), {3}) == (4, 2, 1, 3)


def test_lowest_layer_matches_cup_product():
    n = 4
    zero = rootsys.zero_degree(n)
    for m in (1, 2, 3):
        hook = weyl.hook(n, m)
        for v in weyl.all_permutations(n)[::4]:
            kp = ktheory.k_cup_special(m, v)
            base = weyl.length(hook) + weyl.length(v)
            low = {k: c for k, c in kp.items() if weyl.length(k[1]) == base}
            assert low == dict(qhring.classical_product(hook, v))


def test_bruhat_support():
    n = 4
    for m in (1, 2, 3):
        hook = weyl.hook(n, m)
        for v in weyl.all_permutations(n)[::6]:
            for (_, ww) in ktheory.k_cup_special(m, v):
                assert weyl.bruhat_leq(hook, ww) and weyl.bruhat_leq(v, ww)


def test_pi_star_is_multiplicative_on_chain():
    # spot check: pi_star(O^a . O^b) = pi_star(O^a) . pi_star(O^b) when both
    # factors are already minimal coset representatives and the product is
    # classical, via Grassmannian-projected data
    n = 4
    dp = {1, 3}
    a, b = w([2], n), w([2, 1], n)
    prod = oracle.k_product(a, b)
    lhs = ktheory.pi_star(dp, prod)
    # both factors project to themselves; multiply then project must agree
    assert sum(lhs.values()) == sum(prod.values())


def test_k_verify_counterexamples_in_m_then_v_order(monkeypatch):
    # one divisor-power chain per v runs m innermost; a wrong cup product at
    # (3, v1) and at (1, v2) with v1 before v2 still comes out in (m, v) order
    n = 4
    perms = weyl.all_permutations(n)
    early, late = (3, perms[2]), (1, perms[20])

    def planted(v, hook, out):
        wrong = (weyl.length(hook), v) in (early, late)
        return {} if wrong else out

    plants.plant(monkeypatch, planted, quantum=False)
    r = ktheory.k_verify(n)
    assert r.total - r.passed == 2
    assert [c[:2] for c in r.counterexamples] == [late, early]
    assert r.counterexamples[0][2] == [(None, "lowest layer != cup product")]


def plant_k_moves(monkeypatch, x, wrong):
    """Replace the K-Monk moves of x, and only of x, by wrong(moves), moves as
    (permutation, coefficient) pairs.  The walker's lists are stored in the
    engine, so the plant runs on fresh engines."""
    divisor = qhring.RingEngine._divisor

    def planted(self, z, k):
        moves = divisor(self, z, k)
        if not k or self._perms[z] != x:
            return moves
        it = iter(moves)
        pairs = tuple((self._perms[y], c) for y, c in zip(it, it))
        return tuple(chain.from_iterable((self._intern(y), c) for y, c in wrong(pairs)))

    monkeypatch.setattr(qhring.RingEngine, "_divisor", planted)
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))


def test_k_verify_reports_a_planted_sign_fault(monkeypatch):
    # O^{s_3} . O^id = O^{s_3}; with its sign flipped the lowest layer of
    # (m, v) = (1, id) is negative
    n = 4
    ident, s3 = weyl.identity(n), weyl.hook(n, 1)
    plant_k_moves(monkeypatch, ident, lambda moves: tuple((y, -c) for y, c in moves))
    r = ktheory.k_verify(n)
    bad = {c[:2]: c[2] for c in r.counterexamples if len(c) == 3}[1, ident]
    assert ((rootsys.zero_degree(n), s3, -1), "sign pattern") in bad


def test_k_verify_reports_a_planted_support_fault(monkeypatch):
    # s_2 s_3 has length l(s_1) + 1 and a positive sign, so it passes the sign
    # pattern, but it is not Bruhat-above s_1
    n = 4
    s1, s2s3 = w([1], n), w([2, 3], n)
    assert not weyl.bruhat_leq(s1, s2s3)
    plant_k_moves(monkeypatch, s1, lambda moves: (*moves, (s2s3, 1)))
    r = ktheory.k_verify(n)
    bad = {c[:2]: c[2] for c in r.counterexamples if len(c) == 3}[1, s1]
    assert ((rootsys.zero_degree(n), s2s3, 1), "Bruhat support") in bad
    assert all(reason != "sign pattern" for term, reason in bad if term and term[1] == s2s3)
