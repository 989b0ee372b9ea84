"""The filtration sweep over Seidel orbits against the full pair sweep.

``qhring.verify_filtration`` multiplies only the pairs with u(n) = v(n) = n
and counts each for its Z/n x Z/n orbit under the Seidel operator T.  The
oracle (``filtration_oracle.py``) multiplies every unordered pair.  The
equivariance tests check the fact the orbit sweep rests on: T shifts every
alpha_i-grade by delta_{i,n-1}, and the product of two orbit members is a
q-shifted T-power of the representatives' product.
"""
import random
from collections import Counter

import pytest

import filtration_oracle as oracle
import plants
from flagq import qhring, rootsys, seidel, weyl


def representative(u):
    """(u', a) with u'(n) = n and u = u'^a."""
    n = len(u)
    return weyl.u_up(u, n - u[-1]), u[-1] % n


def shifted_product(u, v):
    """q^{-lambda(u',a)-lambda(v',b)} T^{a+b}(sigma^{u'} * sigma^{v'}), termwise."""
    (up, a), (vp, b) = representative(u), representative(v)
    base = rootsys.add_degrees(seidel.seidel_power(up, a)[0], seidel.seidel_power(vp, b)[0])
    out = {}
    for (lam, w), c in qhring.quantum_product(up, vp).items():
        mu, wk = seidel.seidel_power(w, a + b)
        out[(tuple(x + y - z for x, y, z in zip(lam, mu, base)), wk)] = c
    return out


def equivariance_failures(pairs):
    return [(u, v) for u, v in pairs if qhring.quantum_product(u, v) != shifted_product(u, v)]


def excesses(u, v):
    """The multiset of excess vectors _grades(term) - (sgn(u) + sgn(v)) over the terms."""
    zero = qhring._zero(len(u))
    bound = [x + y for x, y in zip(qhring._grades(zero, u), qhring._grades(zero, v))]
    return Counter(
        tuple(g - b for g, b in zip(qhring._grades(*key), bound))
        for key in qhring.quantum_product(u, v)
    )


def seeded_pairs(n, count, seed=0):
    rng = random.Random(seed)
    perms = weyl.all_permutations(n)
    return [(rng.choice(perms), rng.choice(perms)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_sweep_matches_full_sweep(n):
    assert [r.to_json() for r in qhring.verify_filtration(n)] == [
        r.to_json() for r in oracle.verify_filtration(n)
    ]


def test_orbit_sweep_n6_pairs_share_their_representatives_verdict():
    n = 6
    for report in qhring.verify_filtration(n):
        assert (report.total, report.passed) == (720**2, 720**2)
    for u, v in seeded_pairs(n, 500):
        (up, _), (vp, _) = representative(u), representative(v)
        got = excesses(u, v)
        assert got == excesses(up, vp), (u, v)
        assert max(max(e) for e in got) <= 0, (u, v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_are_seidel_equivariant_on_all_pairs(n):
    perms = weyl.all_permutations(n)
    assert equivariance_failures([(u, v) for u in perms for v in perms]) == []


@pytest.mark.parametrize("n", [5, 6])
def test_products_are_seidel_equivariant_sampled(n):
    assert equivariance_failures(seeded_pairs(n, 200)) == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_seidel_operator_shifts_grades_by_last_unit_vector(n):
    rng = random.Random(n)
    e = [0] * (n - 2) + [1]
    for w in weyl.all_permutations(n):
        lam_w, w1 = seidel.seidel_apply(w)
        for lam in (rootsys.zero_degree(n), tuple(rng.randrange(4) for _ in range(n - 1))):
            shifted = qhring._grades(rootsys.add_degrees(lam, lam_w), w1)
            assert shifted == [g + d for g, d in zip(qhring._grades(lam, w), e)], (lam, w)


def plant(monkeypatch, u, v, extra):
    """Add the term ``extra`` to sigma^u * sigma^v and sigma^v * sigma^u."""

    def planted(a, b, out):
        if {a, b} == {u, v}:
            assert extra not in out
            out[extra] = 1
            qhring.check_product_invariants(out, weyl.length(a) + weyl.length(b))
        return out

    plants.plant(monkeypatch, planted)


def test_equivariance_catches_a_fault_off_the_representatives(monkeypatch):
    # the plant of test_filtration_reports_planted_violation: s_2 = s_1^2 is
    # no representative, so the orbit sweep never multiplies (s_1, s_2)
    n = 3
    u, v = weyl.from_word([1], n), weyl.from_word([2], n)
    plant(monkeypatch, u, v, ((1, 0), weyl.identity(n)))
    assert all(r.ok for r in qhring.verify_filtration(n))
    perms = weyl.all_permutations(n)
    assert equivariance_failures([(x, y) for x in perms for y in perms]) == [(v, u), (u, v)]


def test_orbit_sweep_expands_a_failing_representative(monkeypatch):
    # q_2 sigma^id in sigma^{s_1} * sigma^{s_1}: on degree (l(id) + 2 = 2),
    # but its alpha_2 grade 0 + 2 exceeds sgn(s_1, 2) + sgn(s_1, 2) = 0
    n = 3
    s1 = weyl.from_word([1], n)
    extra = ((0, 1), weyl.identity(n))
    plant(monkeypatch, s1, s1, extra)
    first, second = qhring.verify_filtration(n)
    assert first.ok
    assert second.counterexamples == [(s1, s1, [extra])]
    assert (second.total, second.passed) == (36, 35)
    assert [first.to_json(), second.to_json()] == [
        r.to_json() for r in oracle.verify_filtration(n)
    ]


def test_orbit_sweep_orders_expanded_orbits_as_the_full_sweep(monkeypatch):
    # an off-degree term q_1^5 sigma^id, over every alpha_1 bound, planted in
    # every product of the orbits of {s_1, s_2} and {s_1, s_1}: the sweep
    # expands both orbits, 48 unordered pairs, and must interleave their
    # counterexamples in the full sweep's order
    n = 4
    s1, s2 = weyl.from_word([1], n), weyl.from_word([2], n)
    heads = {frozenset((s1, s2)), frozenset((s1,))}
    extra = ((5, 0, 0), weyl.identity(n))

    def planted(a, b, out):
        if frozenset((representative(a)[0], representative(b)[0])) in heads:
            out[extra] = 1
        return out

    plants.plant(monkeypatch, planted)
    sweep = qhring.verify_filtration(n)
    assert (sweep[0].total, sweep[0].passed) == (576, 576 - 3 * n * n)
    assert [r.to_json() for r in sweep] == [r.to_json() for r in oracle.verify_filtration(n)]
