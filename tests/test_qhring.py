import functools
import itertools
import math
import random
from collections import Counter

import pytest

import filtration_oracle
import moves_oracle
import plants
from flagq import ktheory, polynomials, qhring, rootsys, seidel, weyl


def qp(u, v):
    return qhring.quantum_product(u, v)


def sigma(word, n):
    return weyl.from_word(word, n)


# --- quantum Chevalley ------------------------------------------------------

def test_chevalley_on_identity():
    n = 4
    for i in range(1, n):
        out = qp(weyl.simple_reflection(i, n), weyl.identity(n))
        assert out == {((0, 0, 0), weyl.simple_reflection(i, n)): 1}


def test_chevalley_fl3_quantum_term():
    # sigma^{s_2 s_1} * sigma^{s_1} picks up q_1 sigma^{s_2}: enumerate the
    # two roots gamma with <chi_1, gamma^vee> = 1 and both length conditions.
    n = 3
    u = sigma([2, 1], n)
    out = qp(weyl.simple_reflection(1, n), u)
    assert out.get(((1, 0), weyl.simple_reflection(2, n))) == 1
    expected = {}
    for gamma in rootsys.positive_roots(n):
        a, b = gamma
        if not a <= 1 < b:
            continue
        t = list(weyl.identity(n))
        t[a - 1], t[b - 1] = t[b - 1], t[a - 1]
        us = weyl.multiply(u, tuple(t))
        d = weyl.length(us) - weyl.length(u)
        if d == 1:
            expected[(rootsys.zero_degree(n), us)] = expected.get(
                (rootsys.zero_degree(n), us), 0
            ) + 1
        elif d == 1 - rootsys.pair_2rho(rootsys.coroot(gamma, n)):
            key = (rootsys.coroot(gamma, n), us)
            expected[key] = expected.get(key, 0) + 1
    assert out == expected


def test_chevalley_degree_axiom():
    n = 4
    out = qp(weyl.simple_reflection(2, n), sigma([2, 1, 3], n))
    for (lam, w) in out:
        assert weyl.length(w) + rootsys.pair_2rho(lam) == 4


# --- products ---------------------------------------------------------------

def hook_cases(n):
    return [(m, v) for m in range(1, n) for v in weyl.all_permutations(n)]


def assert_divisor_power_is_cup_product(n, m, v):
    # the hook class is (sigma^{s_{n-1}})^m in H*(Fl_n): Monk's rule m times
    power = qhring.divisor_power(m, v)
    assert power == qhring.classical_product(weyl.hook(n, m), v), (m, v)


@pytest.mark.parametrize("n", range(2, 6))
def test_divisor_power_is_hook_cup_product(n):
    for m, v in hook_cases(n):
        assert_divisor_power_is_cup_product(n, m, v)


def test_divisor_power_is_hook_cup_product_sampled_n6():
    for m, v in random.Random(6).sample(hook_cases(6), 300):
        assert_divisor_power_is_cup_product(6, m, v)


def test_divisor_power_rejects_hook_size():
    for m in (0, 4):
        with pytest.raises(ValueError):
            qhring.divisor_power(m, weyl.identity(4))


def test_get_engine_is_one_engine_per_rank_and_kind():
    # every call form shares one engine, so products share its interning and move tables
    engine = qhring.get_engine(4)
    assert qhring.get_engine(4, True) is engine
    assert qhring.get_engine(4, quantum=True) is engine
    assert qhring.get_engine(n=4, quantum=True) is engine
    classical = qhring.get_engine(4, False)
    assert classical is not engine and not classical.quantum
    assert qhring.get_engine(4, quantum=False) is classical


def test_fl5_product_golden():
    u = (4, 3, 5, 1, 2)
    v = sigma([2, 3, 4], 5)
    assert qp(u, v) == {
        ((0, 0, 1, 1), sigma([4, 2, 3, 1, 2, 1], 5)): 1,
        ((0, 0, 1, 1), sigma([3, 4, 2, 3, 1, 2], 5)): 1,
    }


def test_product_with_identity(s4_table):
    for v in weyl.all_permutations(4):
        assert s4_table[(weyl.identity(4), v)] == {((0, 0, 0), v): 1}


def test_commutativity(s4_table):
    perms = weyl.all_permutations(4)
    for u in perms:
        for v in perms:
            assert s4_table[(u, v)] == s4_table[(v, u)]


@pytest.mark.parametrize("n", range(2, 7))
def test_engine_order_is_length_then_one_line(n, monkeypatch):
    # product expands the factor first in (length, one-line) order, which no
    # product value shows: the first _mul call of a product names it.  Intern
    # in a scrambled order so the indices do not follow it, and take pairs of
    # equal length too, where one-line order decides
    engine = qhring.RingEngine(n)
    perms = list(weyl.all_permutations(n))
    random.Random(n).shuffle(perms)
    for w in perms:
        engine._intern(w)
    calls = []
    mul = qhring.RingEngine._mul

    def observed(self, w, z, memo):
        calls.append((self._perms[w], self._perms[z]))
        return mul(self, w, z, memo)

    monkeypatch.setattr(qhring.RingEngine, "_mul", observed)
    rng = random.Random(n)
    pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(40)]
    pairs += [(u, v) for u, v in zip(perms, perms[1:]) if weyl.length(u) == weyl.length(v)][:40]
    for u, v in pairs:
        calls.clear()
        engine.product(u, v)
        first = min(u, v, key=lambda w: (weyl.length(w), w))
        assert calls[0] == (first, v if first == u else u), (u, v)


def test_n7_products_keep_the_memo_small(memos):
    # every sub-product of sigma^w * sigma^z keeps the factor z, so 30 seeded
    # n = 7 products fill 30 memos of 2 247 entries in all; a recursion
    # that starts a sub-product for every term of X_r sigma^z fills 294 417.
    # No memo outlives its product
    rng = random.Random(0)
    perms = weyl.all_permutations(7)
    for _ in range(30):
        qp(rng.choice(perms), rng.choice(perms))
    assert len(memos) == 30
    assert sum(map(len, memos.values())) < 10_000
    assert memos.held_elsewhere() == []


def kept_factors(n):
    """Every hook of S_n, then a seeded sample of six kept factors z (all of S_2 and S_3)."""
    perms = weyl.all_permutations(n)
    sample = random.Random(n).sample(perms, min(6, len(perms)))
    return [weyl.hook(n, m) for m in range(1, n)] + sample


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("quantum", [True, False])
def test_products_with_matches_single_products(n, quantum, memos):
    # a sweep expands every u against the kept z, whichever comes first in
    # (length, one-line) order, from one memo that is freed when it ends
    single = qhring.quantum_product if quantum else qhring.classical_product
    perms = weyl.all_permutations(n)
    factors = kept_factors(n)
    swept = {z: list(qhring.products_with(z, perms, quantum)) for z in factors}
    assert len(memos) == len(factors)
    assert memos.held_elsewhere() == []
    for z, products in swept.items():
        assert products == [single(u, z) for u in perms], z


@pytest.mark.parametrize("quantum", [True, False])
def test_engine_lengths_come_with_each_move(quantum):
    # a permutation first met through a move is interned with the length the
    # move implies (a cover adds 1, a quantum edge over (a, b) subtracts
    # 2(b - a) - 1, a transition step subtracts 1), not its inversion count.
    # _decode checks terms against these lengths, and a term it rejects only
    # goes on to check_product_invariants, which passes a right term, so a
    # wrong length shows nowhere else
    for n in range(2, 7):
        engine = qhring.RingEngine(n, quantum)
        perms = weyl.all_permutations(n)
        for z in kept_factors(n):
            for _ in engine.products_with(z, perms):
                pass
        assert len(engine._perms) == len(perms)
        assert engine._lengths == list(map(weyl.length, engine._perms)), n
    engine = qhring.RingEngine(7, quantum)
    rng = random.Random(7)
    perms = weyl.all_permutations(7)
    for _ in range(20):
        engine.product(rng.choice(perms), rng.choice(perms))
    assert engine._lengths == list(map(weyl.length, engine._perms))
    if quantum:
        return
    # the divisor walker (_divisor, on the classical engine) interns a cover
    # w t_an with l(w) + 1.  A cover puts a larger value at a, so walks
    # started in lexicographic order meet every permutation that does not
    # fix n (no cover reaches those) as a chain's end before it is a start
    for n in range(2, 7):
        engine = qhring.RingEngine(n, False)
        moved = 0
        for v in weyl.all_permutations(n):
            z = engine._intern(v)
            for k in (False, True):
                before = len(engine._perms)
                engine._divisor(z, k)
                moved += len(engine._perms) - before
        assert moved == math.factorial(n) - math.factorial(n - 1), n
        assert engine._lengths == list(map(weyl.length, engine._perms)), n


def test_one_permutation_store_per_rank(monkeypatch):
    # the divisor lists of H* and K are tables of the classical engine, keyed
    # by its indices: after the closed-form Pieri sweep and the K sweep at
    # n = 6, run on fresh engines, that one engine holds each permutation of
    # S_6 once, as one object, and qhring keeps no permutation store of its own
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))
    assert seidel.verify_pieri(6, engine_check=False).ok
    assert ktheory.k_verify(6).ok
    assert qhring._engines.cache_info().currsize == 1
    for name in ("_perms", "_divisor_moves", "_k_divisor_moves"):
        assert not hasattr(qhring, name), name
    caches = {name for name, f in vars(qhring).items() if hasattr(f, "cache_info")}
    assert caches == {"_zero", "_degree", "_engines"}
    engine = qhring.get_engine(6, False)
    assert len(engine._perms) == len(engine._index) == len(set(map(id, engine._perms))) == 720
    assert all(engine._perms[i] is w for w, i in engine._index.items())
    h, k = engine._divisors
    assert (len(h), len(k)) == (719, 720)
    assert (sum(map(len, h.values())), sum(map(len, k.values()))) == (2 * 1044, 2 * 1800)
    assert {type(x) for moves in (*h.values(), *k.values()) for x in moves} == {int}


def test_each_monk_list_is_built_once_per_engine(monkeypatch):
    # X_r sigma^v gives both the rest of the transition steps (r, v) and the
    # X_r terms of products; each (index, r) list is built once per engine,
    # stored in _moves, and a transition step keeps only its (r, v) pair.
    # Fresh engines, so that no earlier test has filled their tables
    built = Counter()
    monk = qhring.RingEngine._monk

    def counted(self, z, r):
        built[self, z, r] += 1
        return monk(self, z, r)

    monkeypatch.setattr(qhring.RingEngine, "_monk", counted)
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))
    assert seidel.verify_seidel(6).ok
    assert ktheory.k_verify(5).ok  # a classical sweep
    repeats = sum(k - 1 for k in built.values())
    assert not repeats, f"{repeats} of {sum(built.values())} _monk calls repeat"
    engines = {engine for engine, _, _ in built}
    assert {(engine.n, engine.quantum) for engine in engines} == {(6, True), (5, False)}
    for engine in engines:
        steps = engine._transitions.values()
        assert {tuple(map(type, step)) for step in steps} == {(int, int)}, engine.n


def test_engine_calls_itself_only_on_a_memo_miss(monkeypatch):
    # _mul reads a sub-product already in the memo instead of calling itself
    # for it; only the top-level calls of products_with and product may hit.
    # Fresh engines, so that the counts do not depend on earlier tests
    mul = qhring.RingEngine._mul
    depth, inner, hits = [0], Counter(), Counter()

    def observed(self, w, z, memo):
        if depth[0]:
            inner[self.n] += 1
            hits[self.n] += w in memo
        depth[0] += 1
        try:
            return mul(self, w, z, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(qhring.RingEngine, "_mul", observed)
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))
    assert seidel.verify_seidel(6).ok
    assert seidel.verify_support(5).ok
    assert inner[6] and inner[5]
    assert sum(hits.values()) == 0, f"memo hits {dict(hits)} of inner calls {dict(inner)}"


def test_products_with_checks_product_invariants(monkeypatch):
    # every product either engine hands out, single or swept, is checked where
    # the engine decodes it
    n = 3
    plants.negate_engine(monkeypatch)
    for quantum in (True, False):
        engine = qhring.get_engine(n, quantum)
        with pytest.raises(AssertionError, match="negative structure constant"):
            engine.product(weyl.identity(n), weyl.hook(n, 1))
        with pytest.raises(AssertionError, match="negative structure constant"):
            list(qhring.products_with(weyl.hook(n, 1), weyl.all_permutations(n), quantum))


def test_engine_checks_the_degree_axiom_on_its_int_terms(monkeypatch):
    # a term whose q-degree the engine got wrong fails the degree axiom where
    # it is decoded, in a single product and a sweep of either engine
    n = 4
    plants.shift_engine(monkeypatch)
    for single in (qhring.quantum_product, qhring.classical_product):
        with pytest.raises(AssertionError, match="degree axiom violated"):
            single(weyl.hook(n, 2), sigma([1, 2], n))
    for quantum in (True, False):
        with pytest.raises(AssertionError, match="degree axiom violated"):
            list(qhring.products_with(weyl.hook(n, 1), weyl.all_permutations(n), quantum))


def test_grades_split_into_descents_and_pairings():
    # _grades(lam, w) = _grades(0, w) + _grades(lam, id): the filtration sweep
    # reads each term's grades as its descents plus one <alpha_i, lam> vector per lam
    n = 4
    zero, ident = qhring._zero(n), weyl.identity(n)
    for w in weyl.all_permutations(n):
        for lam in itertools.product(range(3), repeat=n - 1):
            split = [a + b for a, b in zip(qhring._grades(zero, w), qhring._grades(lam, ident))]
            assert qhring._grades(lam, w) == split, (lam, w)


def test_associativity_with_divisors(s4_table):
    # sigma^{s_i} * (sigma^u * sigma^v) = sigma^u * (sigma^{s_i} * sigma^v), the
    # divisor products from the length-based Chevalley lists
    n = 4
    perms = weyl.all_permutations(n)
    zero = rootsys.zero_degree(n)
    for u in perms:
        for v in perms:
            uv = s4_table[(u, v)]
            for i in range(1, n):
                lhs = moves_oracle.chevalley_product(i, uv)
                vsi = moves_oracle.chevalley_product(i, {(zero, v): 1})
                rhs = {}
                for (lam, w), c in vsi.items():
                    for (lam2, w2), c2 in s4_table[(u, w)].items():
                        key = (rootsys.add_degrees(lam, lam2), w2)
                        rhs[key] = rhs.get(key, 0) + c * c2
                rhs = {k: c for k, c in rhs.items() if c}
                assert lhs == rhs, (u, v, i)


def cup_oracle(u, v):
    """Independent classical product: Schubert polynomials modulo the ideal."""
    n = len(u)
    f = polynomials.pmul(
        polynomials.schubert(polynomials.trim_perm(u)),
        polynomials.schubert(polynomials.trim_perm(v)),
    )
    nf = polynomials.normal_form(f, n)
    zero = rootsys.zero_degree(n)
    return {
        (zero, polynomials.embed_perm(w, n)): c
        for w, c in polynomials.expand_schubert_homog(nf, n).items()
        if c
    }


def test_classical_matches_polynomial_oracle_n4():
    perms = weyl.all_permutations(4)
    for u in perms:
        for v in perms:
            assert qhring.classical_product(u, v) == cup_oracle(u, v), (u, v)


def test_classical_matches_polynomial_oracle_n5_sampled():
    rng = random.Random(20240817)
    perms = weyl.all_permutations(5)
    for _ in range(40):
        u, v = rng.choice(perms), rng.choice(perms)
        assert qhring.classical_product(u, v) == cup_oracle(u, v), (u, v)


def test_classical_is_q0_truncation(s4_table):
    zero = rootsys.zero_degree(4)
    perms = weyl.all_permutations(4)
    for u in perms[::3]:
        for v in perms[::3]:
            truncated = {
                k: c for k, c in s4_table[(u, v)].items() if k[0] == zero
            }
            assert truncated == qhring.classical_product(u, v)


def test_structure_constant():
    n = 4
    u, v = sigma([3, 2, 1, 2], n), sigma([2, 1, 2], n)
    w = sigma([1, 2, 3], n)
    assert qhring.structure_constant(u, v, w, (1, 1, 0)) == 1
    # degree-axiom mismatch short-circuits to zero
    assert qhring.structure_constant(u, v, w, (1, 0, 0)) == 0
    for v in weyl.all_permutations(3):
        assert qhring.structure_constant(weyl.identity(3), v, v, (0, 0)) == 1


# --- grading and filtration -------------------------------------------------

def test_filtration_n3_full():
    reports = qhring.verify_filtration(3)
    assert len(reports) == 2
    for report in reports:
        assert (report.name, report.total) == ("filtration", 36)
        assert report.ok, report.counterexamples[:3]


def test_filtration_reports_planted_violation(monkeypatch):
    # one extra term q_1 sigma^id in sigma^{s_1} * sigma^{s_2}: on degree
    # (l(id) + <2 rho, alpha_1^vee> = 2 = l(s_1) + l(s_2)), but its alpha_1
    # grade 0 + 2 exceeds sgn(s_1) + sgn(s_2) = 1.  The product is
    # commutative and the sweep asks for one order only, so the term is
    # planted in both.  s_2 = s_1^2 is no orbit representative, so only the
    # full pair sweep multiplies it (the Seidel equivariance test in
    # test_filtration_oracle.py catches this fault in the engine's place).
    n = 3
    u, v = weyl.from_word([1], n), weyl.from_word([2], n)
    extra = ((1, 0), weyl.identity(n))
    product = qhring.quantum_product

    def planted(a, b):
        out = product(a, b)
        if {a, b} == {u, v}:
            assert extra not in out
            out[extra] = 1
            qhring.check_product_invariants(out, weyl.length(a) + weyl.length(b))
        return out

    monkeypatch.setattr(qhring, "quantum_product", planted)
    first, second = filtration_oracle.verify_filtration(n)
    assert first.counterexamples == [(u, v, [extra]), (v, u, [extra])]
    assert (first.total, first.passed) == (36, 34)
    assert second.ok


def test_grade_additivity_iff_conditions(s4_table):
    # the alpha_i-grade of q_lam sigma^w is (g, l(w) + <2 rho, lam> - g), g its
    # _grades entry; additivity on a product term holds iff the degree and sgn
    # conditions do
    n, i = 4, 2
    zero = rootsys.zero_degree(n)
    perms = weyl.all_permutations(n)

    def grade(lam, w):
        g = qhring._grades(lam, w)[i - 1]
        return g, weyl.length(w) + rootsys.pair_2rho(lam) - g

    for u in perms[::4]:
        for v in perms[::4]:
            gu, gv = grade(zero, u), grade(zero, v)
            for (lam, w) in s4_table[(u, v)]:
                cond1 = (
                    weyl.length(w) + rootsys.pair_2rho(lam)
                    == weyl.length(u) + weyl.length(v)
                )
                cond2 = weyl.sgn_alpha(w, i) + rootsys.pair_root(i, lam) == (
                    weyl.sgn_alpha(u, i) + weyl.sgn_alpha(v, i)
                )
                additive = (gu[0] + gv[0], gu[1] + gv[1]) == grade(lam, w)
                assert additive == (cond1 and cond2)


# --- Peterson-Woodward ------------------------------------------------------

def pw_oracle_component(a, b, lo, hi, n):
    """All valid value assignments on [a, b] by brute force over differences.

    Valid difference sequences lie in [-3, 3] entrywise whenever the fixed
    boundary values lie in [0, 3]: the differences pairwise differ by at most
    one, so any entry at 4 forces the total above the boundary gap.
    """
    count = b - a + 2
    total = hi - lo
    roots = rootsys.parabolic_positive_roots(range(a, b + 1), n)
    found = []
    for d in itertools.product(range(-3, 4), repeat=count - 1):
        last = total - sum(d)
        if not -3 <= last <= 3:
            continue
        vals = []
        acc = lo
        for step in d:
            acc += step
            vals.append(acc)
        lam = [0] * (n - 1)
        if a >= 2:
            lam[a - 2] = lo
        if b + 1 <= n - 1:
            lam[b] = hi
        for idx, i in enumerate(range(a, b + 1)):
            lam[i - 1] = vals[idx]
        lam = tuple(lam)
        if all(rootsys.pair_positive_root(g, lam) in (0, -1) for g in roots):
            found.append(vals)
    return found


def test_pw_lift_examples():
    assert qhring.peterson_woodward_lift((0, 0), {1}) == qhring.PWLift(
        (0, 0), frozenset({1})
    )
    # n=3, Delta_P={1}, lambda_P = alpha_2^vee: only the c=0 representative works
    lift = qhring.peterson_woodward_lift((0, 1), {1})
    assert lift.lambda_B == (0, 1) and lift.delta_P_prime == frozenset()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pw_constructive_equals_brute_force(n):
    oracle_memo = {}
    for dp_bits in itertools.product((0, 1), repeat=n - 1):
        dp = [i for i in range(1, n) if dp_bits[i - 1]]
        comps = qhring._components(dp)
        for rep in itertools.product(range(4), repeat=n - 1):
            lift = qhring.peterson_woodward_lift(rep, dp)
            lam_b = lift.lambda_B
            # outside Delta_P the representative is untouched
            for i in range(1, n):
                if i not in dp:
                    assert lam_b[i - 1] == rep[i - 1]
            for comp in comps:
                a, b = comp[0], comp[-1]
                lo = rep[a - 2] if a >= 2 else 0
                hi = rep[b] if b + 1 <= n - 1 else 0
                key = (a, b, lo, hi)
                if key not in oracle_memo:
                    oracle_memo[key] = pw_oracle_component(a, b, lo, hi, n)
                sols = oracle_memo[key]
                assert len(sols) == 1, (dp, rep, key, sols)
                assert sols[0] == [lam_b[i - 1] for i in comp]
            assert lift.delta_P_prime == frozenset(
                i for i in dp if rootsys.pair_root(i, lam_b) == 0
            )


def test_psi_alpha():
    # psi_alpha, the injection QH*(G/P_{alpha_i}) -> QH*(G/B), is the grade-0
    # member of the P^1 fibre
    n = 3
    zero = rootsys.zero_degree(n)
    # lambda_P = 0 maps the identity class to the identity class
    assert qhring._fibre_member(1, zero, weyl.identity(n), 0) == (zero, weyl.identity(n))
    # nonzero case from the PW example
    assert qhring._fibre_member(1, (0, 1), weyl.identity(n), 0) == (
        (0, 1),
        weyl.simple_reflection(1, n),
    )


def test_psi_alpha_injective_n3():
    n = 3
    for i in (1, 2):
        images = set()
        reps = [u for u in weyl.all_permutations(n) if weyl.sgn_alpha(u, i) == 0]
        for u in reps:
            for lam in itertools.product(range(3), repeat=n - 1):
                images.add(qhring._fibre_member(i, lam, u, 0))
        # representatives of the same class mod Z alpha_i^vee share one image:
        # 3 classes survive from the 3 x 3 sampled box
        assert len(images) == len(reps) * 3


def test_psi_alpha_matches_pw_lift():
    # the closed-form fibre rule against the general Peterson-Woodward lift,
    # whose w_{P'} is s_i unless i stays in Delta_{P'}: every i, every w with
    # no descent at i and every lam in {-2, ..., 3}^{n-1}, n <= 5
    cases = 0
    for n in range(2, 6):
        for i in range(1, n):
            mins = [w for w in weyl.all_permutations(n) if w[i - 1] < w[i]]
            for lam in itertools.product(range(-2, 4), repeat=n - 1):
                lift = qhring.peterson_woodward_lift(lam, (i,))
                for w in mins:
                    w_b = w if i in lift.delta_P_prime else weyl.swap(w, i)
                    assert qhring._fibre_member(i, lam, w, 0) == (lift.lambda_B, w_b), (
                        i, lam, w
                    )
                    cases += 1
    assert cases == 319038


def reduce_step_by_pw_lift(u, v, w, lam):
    """reduce_step through the general lift: the grade-0 fibre member
    (lam0, w0) over w's coset minimum, then the member of grade e_u + e_v."""
    out = []
    grades = qhring._grades(lam, w)
    for i in range(1, len(u)):
        su, sv, sw = (weyl.sgn_alpha(x, i) for x in (u, v, w))
        if grades[i - 1] != su + sv:
            continue
        u_min, v_min, w_min = (weyl.swap(x, i) if d else x for x, d in ((u, su), (v, sv), (w, sw)))
        lift = qhring.peterson_woodward_lift(lam, (i,))
        lam0 = lift.lambda_B
        w0 = w_min if i in lift.delta_P_prime else weyl.swap(w_min, i)
        for e_u in (0, 1):
            for e_v in (0, 1):
                p = weyl.sgn_alpha(w0, i) + e_u + e_v
                nxt = (
                    weyl.swap(u_min, i) if e_u else u_min,
                    weyl.swap(v_min, i) if e_v else v_min,
                    weyl.swap(w_min, i) if p % 2 else w_min,
                    lam0[: i - 1] + (lam0[i - 1] + p // 2,) + lam0[i:],
                )
                if nxt != (u, v, w, lam):
                    out.append((f"alpha_{i}[{e_u}{e_v}]", nxt))
    return out


def test_reduce_step_matches_pw_lift_route(s4_table):
    # the rewrite lists, order included, on every term of every S_4 product
    # and on every term of 40 seeded S_5 products
    terms = [(u, v, w, lam) for (u, v), prod in s4_table.items() for lam, w in prod]
    assert len(terms) == 1168
    rng = random.Random(0)
    perms = weyl.all_permutations(5)
    for _ in range(40):
        u, v = rng.choice(perms), rng.choice(perms)
        terms += [(u, v, w, lam) for lam, w in sorted(qp(u, v))]
    for term in terms:
        assert qhring.reduce_step(*term) == reduce_step_by_pw_lift(*term), term


# --- quantum -> classical reduction ----------------------------------------

def degree_candidates(n, total):
    perms_by_len = {}
    for w in weyl.all_permutations(n):
        perms_by_len.setdefault(weyl.length(w), []).append(w)
    for lam in itertools.product(range(total // 2 + 1), repeat=n - 1):
        rest = total - rootsys.pair_2rho(lam)
        for w in perms_by_len.get(rest, []):
            yield lam, w


def test_vanishing_criterion_on_products(s4_table):
    # Every nonzero constant satisfies the sgn inequality for all simple roots
    for (u, v), prod in s4_table.items():
        for (lam, w) in prod:
            for i in range(1, 4):
                assert (
                    weyl.sgn_alpha(w, i) + rootsys.pair_root(i, lam)
                    <= weyl.sgn_alpha(u, i) + weyl.sgn_alpha(v, i)
                ), (u, v, lam, w, i)


def test_two_case_identity_exhaustive(s4_table):
    # both printed identities, on every applicable instance over S_4
    n = 4
    perms = weyl.all_permutations(n)
    checked = 0
    for u in perms:
        for v in perms:
            total = weyl.length(u) + weyl.length(v)
            prod = s4_table[(u, v)]
            for lam, w in degree_candidates(n, total):
                value = prod.get((lam, w), 0)
                for i in range(1, n):
                    lhs = weyl.sgn_alpha(w, i) + rootsys.pair_root(i, lam)
                    rhs = weyl.sgn_alpha(u, i) + weyl.sgn_alpha(v, i)
                    if not lhs == rhs == 2:
                        continue
                    si = weyl.simple_reflection(i, n)
                    avee = rootsys.coroot((i, i + 1), n)
                    down = tuple(a - b for a, b in zip(lam, avee))
                    first = (
                        s4_table[(weyl.multiply(u, si), weyl.multiply(v, si))].get(
                            (down, w), 0
                        )
                        if rootsys.is_nonnegative(down)
                        else 0
                    )
                    assert value == first, (u, v, w, lam, i)
                    ws = weyl.multiply(w, si)
                    vs = weyl.multiply(v, si)
                    if weyl.sgn_alpha(w, i) == 0:
                        second = (
                            s4_table[(u, vs)].get((down, ws), 0)
                            if rootsys.is_nonnegative(down)
                            else 0
                        )
                    else:
                        second = s4_table[(u, vs)].get((lam, ws), 0)
                    assert value == second, (u, v, w, lam, i)
                    checked += 1
    assert checked > 100


def test_exchange_identity_at_q0(s4_table):
    n = 4
    zero = rootsys.zero_degree(n)
    perms = weyl.all_permutations(n)
    for u in perms:
        for v in perms:
            for i in range(1, n):
                if weyl.sgn_alpha(u, i) != 0 or weyl.sgn_alpha(v, i) != 1:
                    continue
                si = weyl.simple_reflection(i, n)
                vs = weyl.multiply(v, si)
                for w in perms:
                    if weyl.sgn_alpha(w, i) != 1:
                        continue
                    lhs = s4_table[(u, v)].get((zero, w), 0)
                    rhs = s4_table[(u, vs)].get((zero, weyl.multiply(w, si)), 0)
                    assert lhs == rhs, (u, v, w, i)


def test_reduce_trace_fl4_golden():
    n = 4
    t = qhring.reduce_trace(
        sigma([3, 2, 1, 2], n), sigma([2, 1, 2], n), sigma([1, 2, 3], n), (1, 1, 0)
    )
    assert t.terminal == "classical"
    assert t.value == 1
    assert t.states[-1].lam == (0, 0, 0)
    assert len(t.rules) == len(t.states) - 1


def test_reduce_trace_fl3_golden():
    n = 3
    u = sigma([2, 1], n)
    t = qhring.reduce_trace(u, u, sigma([1, 2], n), (1, 0))
    assert t.terminal == "classical" and t.value == 1
    # one lateral/descent step reaches N_{s_2, s_2}^{s_1 s_2, 0}
    assert t.states[-1] == qhring.ReduceState(
        sigma([2], n), sigma([2], n), sigma([1, 2], n), (0, 0)
    )


def test_reduce_trace_classical_input():
    n = 3
    u = sigma([1], n)
    # sigma^{s_1} cup sigma^{s_1} has no sigma^{s_1s_2} term: certified zero
    t = qhring.reduce_trace(u, u, sigma([1, 2], n), (0, 0))
    assert t.terminal == "zero" and t.value == 0
    # a genuinely classical nonzero constant is evaluated directly
    t = qhring.reduce_trace(u, u, sigma([2, 1], n), (0, 0))
    assert t.terminal == "classical" and t.value == 1


def test_reduce_step_values_agree(s4_table):
    # every rewrite proposed by reduce_step, from every term of every S_4
    # product, preserves the structure constant
    terms = rewrites = 0
    for (u, v), prod in s4_table.items():
        for (lam, w), value in prod.items():
            terms += 1
            for rule, nxt in qhring.reduce_step(u, v, w, lam):
                got = s4_table[(nxt.u, nxt.v)].get((nxt.lam, nxt.w), 0)
                assert got == value, (rule, (u, v, w, lam), nxt)
                rewrites += 1
    assert (terms, rewrites) == (1168, 7296)


def test_every_s4_quantum_term_reduces_to_classical(s4_table, monkeypatch):
    # all 458 quantum terms of the 300 unordered S_4 pairs end classical with
    # the engine's coefficient, and no trace goes through the general lift
    def general_lift(*args):
        raise AssertionError("reduction trace reached the general lift")

    monkeypatch.setattr(qhring, "peterson_woodward_lift", general_lift)
    monkeypatch.setattr(rootsys, "parabolic_positive_roots", general_lift)
    zero = rootsys.zero_degree(4)
    perms = weyl.all_permutations(4)
    terms = 0
    for k, u in enumerate(perms):
        for v in perms[k:]:
            for (lam, w), c in s4_table[(u, v)].items():
                if lam != zero:
                    t = qhring.reduce_trace(u, v, w, lam)
                    assert (t.terminal, t.value) == ("classical", c), (u, v, w, lam)
                    terms += 1
    assert terms == 458


def test_reduce_trace_degree_inconsistent_start_is_zero():
    # structure_constant's two early returns, applied at the start state: the
    # degree axiom fails (6 != 4), or lam has a negative entry (a search from
    # that start takes one rewrite before the vanishing criterion applies)
    for u, v, w, lam, zero_by in [
        ((1, 4, 3, 2), (1, 4, 3, 2), (1, 2, 3, 4), (0, 1, 1), "degree axiom"),
        ((1, 2, 3, 4), (1, 2, 4, 3), (4, 3, 1, 2), (-1, -1, 0), "negative lambda entry"),
    ]:
        t = qhring.reduce_trace(u, v, w, lam)
        assert (t.states, t.rules, t.terminal, t.value, t.zero_by) == (
            [qhring.ReduceState(u, v, w, lam)], [], "zero", 0, zero_by
        )
    assert repr(t.states[0]) == (
        "ReduceState(u=(1, 2, 3, 4), v=(1, 2, 4, 3), w=(4, 3, 1, 2), lam=(-1, -1, 0))"
    )


def test_reduce_trace_names_the_vanishing_criterion():
    t = qhring.reduce_trace((1, 2, 3, 4), (2, 4, 3, 1), (1, 2, 3, 4), (0, 1, 1))
    assert (t.terminal, len(t.rules), t.zero_by) == ("zero", 1, "vanishing criterion")
    t = qhring.reduce_trace((2, 1, 3, 4), (2, 1, 3, 4), (1, 2, 3, 4), (1, 0, 0))
    assert (t.terminal, t.value, t.zero_by) == ("classical", 1, None)


def test_reduce_trace_computes_each_excess_once(s4_table, monkeypatch):
    # the search hands each expanded state's excess to its rewrites
    seen = []
    excess = qhring._excess
    monkeypatch.setattr(qhring, "_excess", lambda st: seen.append(st) or excess(st))
    zero = rootsys.zero_degree(4)
    perms = weyl.all_permutations(4)
    for u in perms[::3]:
        for v in perms[::5]:
            for lam, w in s4_table[(u, v)]:
                if lam != zero:
                    seen.clear()
                    qhring.reduce_trace(u, v, w, lam)
                    assert seen and len(seen) == len(set(seen)), (u, v, w, lam)


def test_product_invariant_enforcement():
    with pytest.raises(AssertionError):
        qhring.check_product_invariants({((0, 0), (2, 1, 3)): -1}, 1)
    with pytest.raises(AssertionError):
        qhring.check_product_invariants({((1, 0), (2, 1, 3)): 1}, 1)
