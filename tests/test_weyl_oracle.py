"""The closed-form Seidel data of ``flagq.weyl`` against the multiply-based oracle.

The oracle (``weyl_oracle.py``) builds the canonical factorization block by
block and every rotation from products with the n-cycle; the closed forms
read the same data off inversion counts and the position of n.
"""
import pytest
from hypothesis import given, settings, strategies as st

import weyl_oracle as oracle
from flagq import weyl


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms_match_oracle_on_all_of_s_n(n):
    perms = weyl.all_permutations(n)
    # the oracle's degree and rotation once per u; its lambda_cumulative is
    # their sum along the rotation orbit, walked below for every k
    lam = {u: oracle.lambda_of(u) for u in perms}
    up = {u: oracle.u_up(u, 1) for u in perms}
    for u in perms:
        js = weyl.canonical_factorization(u)
        assert js == oracle.canonical_factorization(u), u
        assert weyl.lambda_cumulative(u, 1) == lam[u], u
        word = weyl.canonical_word(u)
        assert weyl.from_word(word, n) == u
        assert len(word) == weyl.length(u)
        total, r = (0,) * (n - 1), u
        for k in range(2 * n + 1):
            assert weyl.u_up(u, k) == r, (u, k)
            assert weyl.lambda_cumulative(u, k) == total, (u, k)
            total = tuple(a + b for a, b in zip(total, lam[r]))
            r = up[r]


@pytest.mark.parametrize("n", range(1, 6))
def test_lambda_cumulative_matches_oracle_directly(n):
    for u in weyl.all_permutations(n):
        for k in range(2 * n + 1):
            assert weyl.lambda_cumulative(u, k) == oracle.lambda_cumulative(u, k)
            assert weyl.u_up(u, k) == oracle.u_up(u, k)


perm_8_10 = st.integers(8, 10).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


@settings(max_examples=200, deadline=None)
@given(perm_8_10, st.integers(0, 20))
def test_closed_forms_match_oracle_n8_to_10(u, k):
    n = len(u)
    k %= 2 * n + 1
    assert weyl.canonical_factorization(u) == oracle.canonical_factorization(u)
    assert weyl.lambda_cumulative(u, 1) == oracle.lambda_of(u)
    assert weyl.u_up(u, k) == oracle.u_up(u, k)
    assert weyl.lambda_cumulative(u, k) == oracle.lambda_cumulative(u, k)
    word = weyl.canonical_word(u)
    assert weyl.from_word(word, n) == u
    assert len(word) == weyl.length(u)


def test_hook_is_its_word():
    for n in range(2, 11):
        for m in range(1, n):
            assert weyl.hook(n, m) == weyl.from_word(range(n - m, n), n)
    assert weyl.hook(6, 5) == (2, 3, 4, 5, 6, 1)


def test_negative_k_raises():
    u = (4, 3, 5, 1, 2)
    for f in (weyl.lambda_cumulative, weyl.u_up):
        with pytest.raises(ValueError):
            f(u, -1)
