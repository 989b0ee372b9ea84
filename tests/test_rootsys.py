import pytest

from flagq import rootsys


def test_positive_roots_count():
    assert len(rootsys.positive_roots(5)) == 10


def test_coroot_interval():
    assert rootsys.coroot((2, 5), 5) == (0, 1, 1, 1)
    assert rootsys.coroot((1, 2), 5) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        rootsys.coroot((3, 2), 5)


def test_pairings_consistent():
    n = 5
    for gamma in rootsys.positive_roots(n):
        cr = rootsys.coroot(gamma, n)
        assert rootsys.pair_2rho(cr) == 2 * (gamma[1] - gamma[0])
        for lam in [(1, 0, 2, 0), (0, 1, 1, 3), (2, 2, 2, 2)]:
            # <e_a - e_b, lam> telescopes the simple-root pairings
            a, b = gamma
            total = sum(rootsys.pair_root(i, lam) for i in range(a, b))
            assert rootsys.pair_positive_root(gamma, lam) == total


def test_parabolic_positive_roots():
    rp = rootsys.parabolic_positive_roots({1, 2, 4}, 5)
    assert rp == {(1, 2), (2, 3), (1, 3), (4, 5)}
    assert rootsys.parabolic_positive_roots(set(), 5) == frozenset()


def test_q_strings():
    assert rootsys.q_monomial_string((0, 0, 1, 1)) == "q3*q4"
    assert rootsys.q_monomial_string((2, 0, 0, 0)) == "q1^2"
    assert rootsys.q_monomial_string((0, 0, 0)) == "1"
    assert rootsys.degree_from_string("1,1,0", 4) == (1, 1, 0)
    assert rootsys.degree_from_string("", 4) == (0, 0, 0)
    with pytest.raises(ValueError):
        rootsys.degree_from_string("1,1", 4)
