import random

import pytest

from flagq import ktheory, qhring, rootsys, seidel, weyl


def test_seidel_apply_examples():
    # u fixing n: no quantum factor
    u = weyl.simple_reflection(1, 5)
    lam, up = seidel.seidel_apply(u)
    assert lam == (0, 0, 0, 0)
    assert up == weyl.multiply(weyl.from_word(range(1, 5), 5), u)
    # rotating class
    assert seidel.seidel_apply((4, 3, 5, 1, 2)) == ((0, 0, 1, 1), (5, 4, 1, 2, 3))


def test_seidel_power_composes():
    for n in (3, 4, 5):
        for u in weyl.all_permutations(n)[::7]:
            for k in range(0, 2 * n):
                lam, up = seidel.seidel_power(u, k)
                # composing single steps agrees
                acc = rootsys.zero_degree(n)
                r = u
                for _ in range(k):
                    step, r = seidel.seidel_apply(r)
                    acc = rootsys.add_degrees(acc, step)
                assert (lam, up) == (acc, r)
    assert seidel.seidel_power((2, 1, 3), 0) == ((0, 0), (2, 1, 3))
    with pytest.raises(ValueError):
        seidel.seidel_power((2, 1, 3), -1)


def test_seidel_nth_power_is_q_monomial():
    # T^n = multiplication by q_1 q_2^2 ... q_{n-1}^{n-1}
    for n in (3, 4, 5):
        top = tuple(range(1, n))
        for u in weyl.all_permutations(n):
            lam, up = seidel.seidel_power(u, n)
            assert up == u and lam == top


def test_identity_orbit_degrees():
    # T^k(sigma^id) = q_{n-1}^{k-1} q_{n-2}^{k-2} ... q_{n-k+1} sigma^{id^k}
    n = 5
    for k in range(1, n):
        lam, _ = seidel.seidel_power(weyl.identity(n), k)
        expected = [0] * (n - 1)
        for j in range(1, k):
            expected[n - j - 1] = k - j
        assert lam == tuple(expected)


def test_rotation_has_order_n():
    for n in (3, 4, 5, 6):
        u = tuple(range(n, 0, -1))
        seen = {u}
        r = u
        for _ in range(n - 1):
            r = weyl.u_up(r, 1)
            seen.add(r)
        assert len(seen) == n
        assert weyl.u_up(r, 1) == u


@pytest.mark.parametrize("n", [3, 4])
def test_verify_sweeps(n):
    assert seidel.verify_seidel(n).ok
    r = seidel.verify_pieri(n)
    assert r.ok and r.total == len(weyl.all_permutations(n)) * (n - 1)
    assert seidel.verify_support(n).ok


def test_verify_pieri_compares_with_engine(monkeypatch):
    # a closed form that drops its one term at (m, u) = (1, id) must come
    # back as that case's counterexample when the engine check is on
    n = 3
    closed_form = seidel.quantum_pieri

    def planted(m, u):
        return {} if (m, u) == (1, weyl.identity(n)) else closed_form(m, u)

    monkeypatch.setattr(seidel, "quantum_pieri", planted)
    r = seidel.verify_pieri(n)
    assert r.counterexamples == [(1, weyl.identity(n), {})]
    assert (r.total, r.passed) == (12, 11)
    assert seidel.verify_pieri(n, engine_check=False).ok


def test_pieri_fl5_golden():
    u = (4, 3, 5, 1, 2)
    closed = seidel.quantum_pieri(3, u)
    assert closed == qhring.quantum_product(weyl.hook(5, 3), u)
    assert closed == {
        ((0, 0, 1, 1), weyl.from_word([4, 2, 3, 1, 2, 1], 5)): 1,
        ((0, 0, 1, 1), weyl.from_word([3, 4, 2, 3, 1, 2], 5)): 1,
    }


def test_pieri_identity_and_classical_cases():
    n = 5
    for m in range(1, n):
        closed = seidel.quantum_pieri(m, weyl.identity(n))
        assert closed == {(rootsys.zero_degree(n), weyl.hook(n, m)): 1}
    # u fixing n: full-hook product stays classical
    u = weyl.from_word([1, 2, 1], n)
    closed = seidel.quantum_pieri(n - 1, u)
    assert closed == qhring.quantum_product(weyl.hook(n, n - 1), u)
    assert all(lam == rootsys.zero_degree(n) for (lam, _) in closed)


def test_pieri_n5_sampled():
    rng = random.Random(5117)
    perms = weyl.all_permutations(5)
    for _ in range(210):
        m = rng.randrange(1, 5)
        u = perms[rng.randrange(len(perms))]
        closed = seidel.quantum_pieri(m, u)
        assert closed == qhring.quantum_product(weyl.hook(5, m), u), (m, u)


def test_pieri_no_negative_exponents_n5():
    # full sweep of the closed form only (no engine), all (m, u)
    for m in range(1, 5):
        for u in weyl.all_permutations(5):
            seidel.quantum_pieri(m, u)  # raises PieriFormulaError on failure


def test_closed_forms_use_no_product_engine(monkeypatch):
    # quantum Pieri and the QK product come from divisor powers alone, so
    # they are an independent check on the engine
    n = 4
    cases = [(m, u) for m in range(1, n) for u in weyl.all_permutations(n)]
    pieri = {(m, u): qhring.quantum_product(weyl.hook(n, m), u) for m, u in cases}
    qk = {(m, u): ktheory.qk_conjecture_product(m, u) for m, u in cases}

    def refuse(*args):
        raise AssertionError("product engine called")

    monkeypatch.setattr(qhring, "get_engine", refuse)
    for m, u in cases:
        assert seidel.quantum_pieri(m, u) == pieri[(m, u)], (m, u)
        assert ktheory.qk_conjecture_product(m, u) == qk[(m, u)], (m, u)


def test_seidel_linearity_over_products():
    # T(x * y) = T(x) * y, with T evaluated in closed form termwise
    for n in (3, 4):
        perms = weyl.all_permutations(n)
        for u in perms[::5]:
            for v in perms[::3]:
                prod = qhring.quantum_product(u, v)
                lhs = {}
                for (lam, w), c in prod.items():
                    dl, wu = seidel.seidel_apply(w)
                    key = (rootsys.add_degrees(lam, dl), wu)
                    lhs[key] = lhs.get(key, 0) + c
                du, uu = seidel.seidel_apply(u)
                rhs = {
                    (rootsys.add_degrees(lam, du), w): c
                    for (lam, w), c in qhring.quantum_product(uu, v).items()
                }
                assert {k: c for k, c in lhs.items() if c} == rhs, (u, v)


def test_explore_full_hook_characterization():
    for n in (3, 4):
        rows = seidel.explore_classical_equality(n, 1, n - 1)
        assert len(rows) == len(weyl.all_permutations(n))
        for r in rows:
            assert r["equal"] == (r["u_n"] == n)


def test_explore_identity_always_equal():
    rows = seidel.explore_classical_equality(4, 2, 2)
    assert len(rows) == 24
    byline = {r["one_line"]: r for r in rows}
    assert byline["1234"]["equal"] is True
