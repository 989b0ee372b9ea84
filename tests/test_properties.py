"""Ring axioms of the transition engine at n = 5, as hypothesis properties."""
from hypothesis import example, given, settings, strategies as st

from flagq import qhring, rootsys, weyl
from test_qhring import cup_oracle

N = 5
PERMS = weyl.all_permutations(N)
perm = st.sampled_from(PERMS)
SETTINGS = settings(max_examples=200, deadline=None)


def engine():
    return qhring.get_engine(N, True)


def times(cls, w):
    """cls * sigma^w, multiplying term by term with engine products."""
    out = {}
    for (lam, x), c in cls.items():
        for (mu, y), d in engine().product(x, w).items():
            key = (rootsys.add_degrees(lam, mu), y)
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def first_step(w, z):
    """sigma^w * sigma^z by one transition step of w, then engine products.

    The engine always expands the shorter factor, so comparing its
    product(u, v) with product(v, u) would test nothing; this expands
    whichever factor it is given first.
    """
    if w == weyl.identity(N):
        return {(rootsys.zero_degree(N), z): 1}
    r, v, rest = qhring._transition(w, True)
    terms = [(sign, lam, v, x) for sign, lam, x in qhring._monk_moves(z, r, True)]
    terms += [(sign, lam, x, z) for sign, lam, x in rest]
    out = {}
    for sign, lam, a, b in terms:
        for (mu, y), c in engine().product(a, b).items():
            key = (rootsys.add_degrees(lam, mu), y)
            out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


@SETTINGS
@given(perm, perm, perm)
def test_associativity(u, v, w):
    lhs = times(engine().product(u, v), w)
    rhs = times(engine().product(v, w), u)
    assert lhs == rhs


@SETTINGS
@given(perm, perm)
def test_commutativity(u, v):
    assert first_step(u, v) == first_step(v, u) == engine().product(u, v)


@SETTINGS
@given(perm)
@example(weyl.identity(N))
def test_seidel_nth_power_by_engine(u):
    # T = multiplication by the full hook; T^n = q_1 q_2^2 ... q_{n-1}^{n-1}
    cls = {(rootsys.zero_degree(N), u): 1}
    for _ in range(N):
        cls = times(cls, weyl.hook(N, N - 1))
    assert cls == {(tuple(range(1, N)), u): 1}


@SETTINGS
@given(perm, perm)
def test_invariants_and_q0_part(u, v):
    prod = engine().product(u, v)
    qhring.check_product_invariants(prod, weyl.length(u) + weyl.length(v))
    zero = rootsys.zero_degree(N)
    assert {k: c for k, c in prod.items() if k[0] == zero} == cup_oracle(u, v)
