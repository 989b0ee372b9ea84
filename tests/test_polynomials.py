import itertools

import pytest

from k_oracle import expand_grothendieck, grothendieck
from flagq import polynomials as P
from flagq import weyl


def test_trim_and_pad():
    assert P.trim_exponents((1, 0, 0)) == (1,)
    assert P.pad((1,), 3) == (1, 0, 0)
    assert P.trim_perm((2, 1, 3, 4)) == (2, 1)
    assert P.embed_perm((2, 1), 4) == (2, 1, 3, 4)


def test_code_round_trip():
    for w in weyl.all_permutations(4):
        assert P.perm_from_code(P.code(w)) == w


def test_poly_arithmetic():
    x1, x2 = P.xvar(1), P.xvar(2)
    assert P.pmul(x1, x2) == {(1, 1): 1}
    assert P.padd(x1, x1, -1) == {}
    sq = P.pmul(P.padd(x1, x2), P.padd(x1, x2))
    assert sq == {(2,): 1, (1, 1): 2, (0, 2): 1}


def test_pmul_matches_padded_sum_and_keeps_keys_trimmed():
    def padded(f, g):
        out = {}
        for k1, c1 in f.items():
            for k2, c2 in g.items():
                l = max(len(k1), len(k2))
                k = P.trim_exponents(
                    tuple(a + b for a, b in zip(P.pad(k1, l), P.pad(k2, l)))
                )
                out[k] = out.get(k, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}

    gs = [grothendieck(P.trim_perm(u)) for u in weyl.all_permutations(4)]
    for f in gs:
        for g in gs:
            prod = P.pmul(f, g)
            assert prod == padded(f, g)
            assert all(not k or k[-1] for k in prod)


def test_accumulate_takes_pairs_and_drops_cancelled_terms():
    f = {(1,): 2, (0, 1): 1}
    P.accumulate(f, [((1,), -1), ((2,), 3), ((1,), -1)])
    assert f == {(0, 1): 1, (2,): 3}
    P.accumulate(f, {(2,): 1, (0, 1): 1}, -3)
    assert f == {(0, 1): -2}
    P.accumulate(f, iter([((0, 1), 2)]))
    assert f == {}


def test_divided_diff_basics():
    x1 = P.xvar(1)
    # d_1(x_1) = 1, d_1(x_1 x_2) = 0 (symmetric), d_1^2 = 0
    assert P.divided_diff(x1, 1) == {(): 1}
    assert P.divided_diff(P.pmul(x1, P.xvar(2)), 1) == {}
    f = P.pmul(x1, P.pmul(x1, P.xvar(2)))
    assert P.divided_diff(P.divided_diff(f, 1), 1) == {}


def test_schubert_small():
    # S_{s_i} = x_1 + ... + x_i
    assert P.schubert((2, 1)) == {(1,): 1}
    assert P.schubert((1, 3, 2)) == {(1,): 1, (0, 1): 1}
    assert P.schubert(()) == {(): 1}
    # top class of S_3
    assert P.schubert((3, 2, 1)) == {(2, 1): 1}


def test_schubert_leading_monomial_is_code():
    # under the reversed-exponent order the leading monomial of S_w is x^code(w)
    for n in (3, 4):
        for w in weyl.all_permutations(n):
            f = P.schubert(P.trim_perm(w))
            mx = max(len(k) for k in f)
            lt = max(f, key=lambda k: tuple(reversed(P.pad(k, mx))))
            assert P.pad(lt, n) == P.pad(P.code(P.trim_perm(w)), n)
            assert f[lt] == 1


def test_grothendieck_lowest_term_is_schubert():
    for w in weyl.all_permutations(4):
        g = grothendieck(P.trim_perm(w))
        d = weyl.length(w)
        low = {k: c for k, c in g.items() if sum(k) == d}
        assert low == P.schubert(P.trim_perm(w))


def test_complete_homog():
    assert P.complete_homog(2, 2) == {(2,): 1, (1, 1): 1, (0, 2): 1}
    assert P.complete_homog(0, 3) == {(): 1}


def test_normal_form_kills_ideal():
    # e_k(x_1..x_n) lies in the ideal; its normal form must vanish
    n = 4
    for k in range(1, n + 1):
        e = {}
        for comb in itertools.combinations(range(1, n + 1), k):
            mono = [0] * n
            for c in comb:
                mono[c - 1] = 1
            e[P.trim_exponents(tuple(mono))] = 1
        assert P.normal_form(e, n) == {}
    # exponents stay below the staircase bound
    f = P.normal_form({(5, 3, 2): 7}, n)
    for mono in f:
        for i, e_i in enumerate(mono, start=1):
            assert e_i <= n - i


def test_expand_schubert_homog():
    n = 3
    f = P.pmul(P.schubert((2, 1)), P.schubert((1, 3, 2)))
    f = P.normal_form(f, n)
    exp = P.expand_schubert_homog(f, n)
    # sigma^{s_1} cup sigma^{s_2}: sigma^{s_2 s_1} + sigma^{s_1 s_2}
    assert exp == {(3, 1, 2): 1, (2, 3, 1): 1}


def test_expand_grothendieck_golden():
    # product reproducing the K(Fl_4) hook expansion
    n = 4
    a = P.trim_perm(weyl.from_word([2, 3], n))
    b = P.trim_perm(weyl.from_word([1, 2], n))
    exp = expand_grothendieck(P.pmul(grothendieck(a), grothendieck(b)), n)
    assert exp == {
        P.trim_perm(weyl.from_word([2, 3, 1, 2], n)): 1,
        P.trim_perm(weyl.from_word([1, 2, 3, 2], n)): 1,
        P.trim_perm(weyl.from_word([2, 1, 3, 2, 3], n)): -1,
    }


def test_expand_round_trip():
    # expanding G_u G_v and re-summing the polynomials recovers the product
    n = 3
    for u in weyl.all_permutations(n):
        for v in weyl.all_permutations(n):
            f = P.pmul(
                grothendieck(P.trim_perm(u)), grothendieck(P.trim_perm(v))
            )
            nf = P.normal_form(f, n)
            exp = expand_grothendieck(f, n)
            back = {}
            for w, c in exp.items():
                back = P.padd(back, grothendieck(w), c)
            assert P.normal_form(back, n) == nf
