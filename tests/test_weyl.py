import itertools
import random

import pytest
from hypothesis import given, strategies as st

from flagq import weyl

perm5 = st.permutations(range(1, 6)).map(tuple)
perm_any = st.integers(2, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1)).map(tuple)
)


def test_identity_and_simple_reflection():
    assert weyl.identity(4) == (1, 2, 3, 4)
    assert weyl.simple_reflection(2, 4) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        weyl.simple_reflection(4, 4)


def test_multiply_composes_as_functions():
    # (uv)(x) = u(v(x))
    u, v = (2, 3, 1), (1, 3, 2)
    uv = weyl.multiply(u, v)
    for x in range(1, 4):
        assert uv[x - 1] == u[v[x - 1] - 1]


def test_right_multiplication_swaps_positions():
    u = (3, 1, 4, 2)
    assert weyl.multiply(u, weyl.simple_reflection(2, 4)) == (3, 4, 1, 2)
    for u in weyl.all_permutations(4):
        for i in range(1, 4):
            assert weyl.swap(u, i) == weyl.multiply(u, weyl.simple_reflection(i, 4))


@given(perm5, st.integers(1, 4))
def test_length_changes_by_one(u, i):
    assert abs(weyl.length(weyl.multiply(u, weyl.simple_reflection(i, 5))) - weyl.length(u)) == 1
    assert weyl.sgn_alpha(u, i) == (1 if u[i - 1] > u[i] else 0)


def test_from_word_and_longest():
    assert weyl.from_word([1, 2, 1], 3) == (3, 2, 1)
    assert weyl.from_word([1, 2, 1, 3, 2, 1], 4) == (4, 3, 2, 1)
    assert weyl.length((5, 4, 3, 2, 1)) == 10
    assert weyl.hook(5, 3) == weyl.from_word([2, 3, 4], 5)


@given(perm_any)
def test_canonical_word_is_reduced_and_recovers(u):
    word = weyl.canonical_word(u)
    assert len(word) == weyl.length(u)
    assert weyl.from_word(word, len(u)) == u


def test_canonical_factorization_bounds():
    for u in weyl.all_permutations(4):
        js = weyl.canonical_factorization(u)
        assert len(js) == 3
        assert all(0 <= js[m - 1] <= m for m in range(1, 4))


def test_lambda_of_examples():
    # the Seidel degree lambda(u) = lambda(u, 1): zero exactly when u fixes n
    for u in weyl.all_permutations(4):
        if u[-1] == 4:
            assert weyl.lambda_cumulative(u, 1) == (0, 0, 0)
        else:
            lam = weyl.lambda_cumulative(u, 1)
            ones = [i for i, a in enumerate(lam, start=1) if a]
            assert ones and ones[-1] == 3 and ones == list(range(ones[0], 4))
    assert weyl.lambda_cumulative((4, 3, 5, 1, 2), 1) == (0, 0, 1, 1)


def test_u_up_and_cumulative():
    u = (4, 3, 5, 1, 2)
    assert weyl.u_up(u, 1) == weyl.multiply(weyl.from_word(range(1, 5), 5), u)
    assert weyl.u_up(u, 5) == u  # period n
    assert weyl.lambda_cumulative(u, 0) == (0, 0, 0, 0)
    # cumulative = sum of per-step degrees
    total = [0, 0, 0, 0]
    r = u
    for _ in range(3):
        total = [a + b for a, b in zip(total, weyl.lambda_cumulative(r, 1))]
        r = weyl.u_up(r, 1)
    assert weyl.lambda_cumulative(u, 3) == tuple(total)


def bruhat_leq_subword(u, v):
    """Oracle: u <= v iff some reduced word of v has a subword for u."""
    word = weyl.canonical_word(v)
    n = len(v)
    target = weyl.length(u)
    for keep in itertools.combinations(range(len(word)), target):
        if weyl.from_word([word[i] for i in keep], n) == u:
            return True
    return target == 0


def bruhat_leq_ranks(u, v):
    """Oracle: u <= v iff #{a <= i : u(a) >= j} <= #{a <= i : v(a) >= j} for all i, j."""
    n = len(u)
    return all(
        sum(x >= j for x in u[:i]) <= sum(x >= j for x in v[:i])
        for i in range(1, n) for j in range(1, n + 1)
    )


def packed_leq(u, v, ranks):
    """u <= v as the sweeps read it: guards + ranks(u) - ranks(v) keeps every guard bit."""
    guards = weyl.bruhat_ranks(len(u)).guards
    return (guards + ranks[u] - ranks[v]) & guards == guards


def test_bruhat_matches_subword_oracle():
    perms = weyl.all_permutations(4)
    ranks = {w: weyl.ranks(w) for w in perms}
    for u in perms:
        for v in perms:
            expected = bruhat_leq_subword(u, v)
            assert weyl.bruhat_leq(u, v) == expected, (u, v)
            assert packed_leq(u, v, ranks) == expected, (u, v)


def raised(rng, u):
    """u with one to three random transpositions applied, each only if it goes up."""
    v = list(u)
    for _ in range(rng.randrange(1, 4)):
        a, b = sorted(rng.sample(range(len(u)), 2))
        if v[a] < v[b]:
            v[a], v[b] = v[b], v[a]
    return tuple(v)


def test_bruhat_ranks_match_rank_oracle_n6():
    # cached rank counts, compared as the K-theory sweep compares them, on a
    # seeded sample of pairs: u against a random v and against a product of
    # u with random transpositions, which is often above it
    perms = weyl.all_permutations(6)
    ranks = {w: weyl.ranks(w) for w in perms}
    rng = random.Random(6)
    seen = set()
    for _ in range(1500):
        u = rng.choice(perms)
        for v in (rng.choice(perms), raised(rng, u)):
            expected = bruhat_leq_ranks(u, v)
            assert packed_leq(u, v, ranks) == expected, (u, v)
            assert weyl.bruhat_leq(u, v) == expected, (u, v)
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_bruhat_leq_where_the_field_width_steps_up(n):
    # a field holds n - 1 and a guard bit: 4 bits at n = 8, 5 at n = 9 and
    # 16, 6 at n = 17; the identity and the longest element fill every
    # field's count range, so their pairs test the fields' top values
    width = (n - 1).bit_length() + 1
    assert weyl.bruhat_ranks(n).block == width * (n - 1)
    rng = random.Random(n)
    ident, top = weyl.identity(n), tuple(range(n, 0, -1))
    pairs = [(ident, top), (top, ident), (top, top)]
    for _ in range(300):
        u = tuple(rng.sample(range(1, n + 1), n))
        v = tuple(rng.sample(range(1, n + 1), n))
        pairs += [(u, v), (u, raised(rng, u)), (ident, u), (u, top)]
    seen = set()
    for u, v in pairs:
        expected = bruhat_leq_ranks(u, v)
        assert weyl.bruhat_leq(u, v) == expected, (u, v)
        seen.add(expected)
    assert seen == {True, False}


def test_grassmannian_type_and_partitions():
    assert weyl.perm_to_partition((2, 4, 1, 3), 2) == (2, 1)
    assert weyl.perm_to_partition((1, 2, 3, 4), 2) == (0, 0)
    with pytest.raises(ValueError):
        weyl.perm_to_partition((2, 1, 4, 3), 2)
    # the Grassmannian-type permutations with descents in {k} are in bijection
    # with the partitions in a k x (4 - k) box
    for k in (1, 2, 3):
        box = {
            mu
            for mu in itertools.product(range(4 - k + 1), repeat=k)
            if all(a >= b for a, b in zip(mu, mu[1:]))
        }
        grass = [u for u in weyl.all_permutations(4) if set(weyl.descent_set(u)) <= {k}]
        assert sorted(weyl.perm_to_partition(u, k) for u in grass) == sorted(box)


def test_serialization_round_trip():
    assert weyl.perm_from_string("43512", 5) == (4, 3, 5, 1, 2)
    assert weyl.perm_from_string("4 3 5 1 2", 5) == (4, 3, 5, 1, 2)
    assert weyl.perm_from_string("4,3,5,1,2", 5) == (4, 3, 5, 1, 2)
    assert weyl.perm_to_string((4, 3, 5, 1, 2)) == "43512"
    assert weyl.word_from_string("2,3,4") == (2, 3, 4)
    assert weyl.word_to_string((2, 3, 4)) == "2,3,4"
    assert weyl.word_from_string(" 2 3,4 ") == (2, 3, 4)
    assert weyl.word_from_string("") == ()
    with pytest.raises(ValueError):
        weyl.perm_from_string("4412", 4)
    with pytest.raises(ValueError, match="'123' has 3 entries, expected 4"):
        weyl.perm_from_string("123", 4)
