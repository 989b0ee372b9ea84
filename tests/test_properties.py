"""Ring axioms of the transition engine at n = 5 and n = 6, as hypothesis properties."""
from hypothesis import example, given, settings, strategies as st

import moves_oracle
from flagq import qhring, rootsys, weyl
from test_qhring import cup_oracle

perm5 = st.sampled_from(weyl.all_permutations(5))
perm6 = st.sampled_from(weyl.all_permutations(6))
SETTINGS = settings(max_examples=200, deadline=None)
# an n = 6 product expands into many more terms, each multiplied again
SETTINGS_6 = settings(max_examples=30, deadline=None)


def engine(n):
    return qhring.get_engine(n, True)


def times(cls, w):
    """cls * sigma^w, multiplying term by term with engine products."""
    out = {}
    for (lam, x), c in cls.items():
        for (mu, y), d in engine(len(w)).product(x, w).items():
            key = (rootsys.add_degrees(lam, mu), y)
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def first_step(w, z):
    """sigma^w * sigma^z by one transition step of w, then engine products.

    The engine always expands the shorter factor, so comparing its
    product(u, v) with product(v, u) would test nothing; this expands
    whichever factor it is given first.
    """
    n = len(w)
    if w == weyl.identity(n):
        return {(rootsys.zero_degree(n), z): 1}
    r, v, rest = moves_oracle.transition(w, True)
    terms = [(sign, lam, v, x) for sign, lam, x in moves_oracle.monk_moves(z, r, True)]
    terms += [(sign, lam, x, z) for sign, lam, x in rest]
    out = {}
    for sign, lam, a, b in terms:
        for (mu, y), c in engine(n).product(a, b).items():
            key = (rootsys.add_degrees(lam, mu), y)
            out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def check_associativity(u, v, w):
    lhs = times(engine(len(u)).product(u, v), w)
    rhs = times(engine(len(u)).product(v, w), u)
    assert lhs == rhs


def check_commutativity(u, v):
    assert first_step(u, v) == first_step(v, u) == engine(len(u)).product(u, v)


def check_seidel_nth_power(u):
    # T = multiplication by the full hook; T^n = q_1 q_2^2 ... q_{n-1}^{n-1}
    n = len(u)
    cls = {(rootsys.zero_degree(n), u): 1}
    for _ in range(n):
        cls = times(cls, weyl.hook(n, n - 1))
    assert cls == {(tuple(range(1, n)), u): 1}


@SETTINGS
@given(perm5, perm5, perm5)
def test_associativity(u, v, w):
    check_associativity(u, v, w)


@SETTINGS_6
@given(perm6, perm6, perm6)
def test_associativity_n6(u, v, w):
    check_associativity(u, v, w)


@SETTINGS
@given(perm5, perm5)
def test_commutativity(u, v):
    check_commutativity(u, v)


@SETTINGS_6
@given(perm6, perm6)
def test_commutativity_n6(u, v):
    check_commutativity(u, v)


@SETTINGS
@given(perm5)
@example(weyl.identity(5))
def test_seidel_nth_power_by_engine(u):
    check_seidel_nth_power(u)


@SETTINGS_6
@given(perm6)
@example(weyl.identity(6))
def test_seidel_nth_power_by_engine_n6(u):
    check_seidel_nth_power(u)


@SETTINGS
@given(perm5, perm5)
def test_invariants_and_q0_part(u, v):
    prod = engine(5).product(u, v)
    qhring.check_product_invariants(prod, weyl.length(u) + weyl.length(v))
    zero = rootsys.zero_degree(5)
    assert {k: c for k, c in prod.items() if k[0] == zero} == cup_oracle(u, v)
