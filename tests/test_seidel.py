import functools
import random
from itertools import accumulate

import pytest

import plants
from flagq import ktheory, polynomials, qhring, rootsys, seidel, weyl


def test_seidel_apply_examples():
    # u fixing n: no quantum factor
    u = weyl.simple_reflection(1, 5)
    lam, up = seidel.seidel_apply(u)
    assert lam == (0, 0, 0, 0)
    assert up == weyl.multiply(weyl.from_word(range(1, 5), 5), u)
    # rotating class
    assert seidel.seidel_apply((4, 3, 5, 1, 2)) == ((0, 0, 1, 1), (5, 4, 1, 2, 3))


def test_seidel_apply_tables_match_seidel_power():
    # seidel_apply reads lambda(u) and u^1 from tables built once per rank;
    # the ranks come in mixed order, so that one rank's tables cannot serve another
    seidel._seidel_tables.cache_clear()
    for n in (5, 3, 5, 2, 7, 4, 3, 6, 2, 7):
        for u in weyl.all_permutations(n):
            assert seidel.seidel_apply(u) == seidel.seidel_power(u, 1), u


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


def extra_term(prod):
    return {**prod, ((1, 1, 1), weyl.identity(4)): 1}


def coefficient_two(prod):
    return {key: 2 * c for key, c in prod.items()}


def degree_moved(prod):
    # the right term, its q-degree moved by alpha_1^vee
    return {(rootsys.add_degrees(lam, rootsys.coroot((1, 2), 4)), w): c
            for (lam, w), c in prod.items()}


@pytest.mark.parametrize("fault, at", [
    (extra_term, (2, 4, 1, 3)),
    (coefficient_two, (1, 2, 3, 4)),
    (degree_moved, (4, 3, 1, 2)),
], ids=["extra_term", "coefficient_2", "degree_moved"])
def test_verify_seidel_flags_planted_faults(fault, at, monkeypatch):
    # each product must be the single term q_{lambda(u)} sigma^{u^1} with
    # coefficient 1: a fault on one u fails that record alone, kept as
    # (u, product), and the other 23 pass in bulk
    n = 4
    hook = weyl.hook(n, n - 1)
    wrong = fault(qhring.quantum_product(at, hook))
    assert wrong != {seidel.seidel_apply(at): 1}
    plants.plant(monkeypatch, lambda u, z, prod: fault(prod) if u == at else prod)
    r = seidel.verify_seidel(n)
    assert (r.total, r.passed) == (24, 23)
    assert r.counterexamples == [(at, wrong)]


@pytest.mark.parametrize("n", [4, 5])
def test_verify_pieri_runs_one_chain_per_class_of_s_n_minus_1(n, monkeypatch):
    # u and its rotations share the chain of u^k, k = n - u(n), which fixes n
    powers = qhring.divisor_powers
    starts = []

    def spy(v, k=False):
        starts.append(v)
        return powers(v, k)

    monkeypatch.setattr(qhring, "divisor_powers", spy)
    r = seidel.verify_pieri(n, engine_check=False)
    assert r.ok and r.total == len(weyl.all_permutations(n)) * (n - 1)
    assert len(starts) == len(set(starts)) == len(weyl.all_permutations(n - 1))
    assert all(v[-1] == n for v in starts)


def test_verify_pieri_compares_with_engine(monkeypatch):
    # a closed form that drops its one term at (m, u) = (1, id) must come
    # back as that case's counterexample when the engine check is on
    n = 3
    closed_form = seidel.seidel_conjugation

    def planted(u, error):
        conjugate = closed_form(u, error)
        return lambda m, terms: {} if (m, u) == (1, weyl.identity(n)) else conjugate(m, terms)

    monkeypatch.setattr(seidel, "seidel_conjugation", planted)
    r = seidel.verify_pieri(n)
    assert r.counterexamples == [(1, weyl.identity(n), {})]
    assert (r.total, r.passed) == (12, 11)
    assert seidel.verify_pieri(n, engine_check=False).ok


def test_verify_pieri_formula_error_fails_one_record(monkeypatch):
    # the sweep runs one divisor-power chain per v in S_{n-1}: a
    # PieriFormulaError at (2, u) fails that record alone, the other hook
    # sizes of u still pass, and counterexamples come out in (m, u) order
    # although the chains run outermost: 1432 comes from the chain of 3214,
    # the last one, and 2413 from that of 3124
    n = 4
    perms = weyl.all_permutations(n)
    raise_at, drop_at = (2, perms[3]), [(1, perms[5]), (1, perms[10])]
    closed_form = seidel.seidel_conjugation

    def planted(u, error):
        conjugate = closed_form(u, error)

        def apply(m, terms):
            if (m, u) == raise_at:
                raise error("planted")
            return {} if (m, u) in drop_at else conjugate(m, terms)

        return apply

    monkeypatch.setattr(seidel, "seidel_conjugation", planted)
    r = seidel.verify_pieri(n)
    assert (r.total, r.passed) == (72, 69)
    assert [c[:2] for c in r.counterexamples] == [*drop_at, raise_at]
    assert r.counterexamples[0][2] == r.counterexamples[1][2] == {}
    err = r.counterexamples[2][2]
    assert isinstance(err, seidel.PieriFormulaError) and str(err) == "planted"


def reference_pieri(n, engine_check):
    """(total, counterexamples) of verify_pieri from one quantum_pieri call per
    (m, u): a call that raises is a counterexample with its error message, and
    with ``engine_check`` so is a class that differs from the engine product."""
    bad = []
    perms = weyl.all_permutations(n)
    for m in range(1, n):
        for u in perms:
            try:
                closed = seidel.quantum_pieri(m, u)
            except seidel.PieriFormulaError as err:
                bad.append((m, u, str(err)))
                continue
            if engine_check and closed != qhring.quantum_product(weyl.hook(n, m), u):
                bad.append((m, u, closed))
    return len(perms) * (n - 1), bad


def plant_below(monkeypatch, n):
    """Every w with w(1) = 2 gets the extra H* divisor move sigma^id, below the
    chain's start v: many (m, u) get a negative exponent.  The walker's lists
    are stored in the engine, so the plant runs on fresh engines."""
    divisor = qhring.RingEngine._divisor

    def planted(self, z, k):
        moves = divisor(self, z, k)
        extra = (self._intern(weyl.identity(n)), 1)
        return moves + extra * (not k and self._perms[z][0] == 2)

    monkeypatch.setattr(qhring.RingEngine, "_divisor", planted)
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))


def plant_one_field(monkeypatch, n):
    """The second power of v = s_2 gets the extra term sigma^id.  id's counts
    #{j <= i : j <= k} = min(i, k) exceed v's only at (k, i) = (2, 2), so
    only u = u_up(v, n - 2) at m = 2 fails, in that one field."""
    powers = qhring.divisor_powers
    v = weyl.from_word([2], n)
    ident = qhring.get_engine(n, False)._intern(weyl.identity(n))

    def planted(w, k=False):
        for m, cls in enumerate(powers(w, k), start=1):
            yield {**cls, ident: 1} if (m, w) == (2, v) else cls

    monkeypatch.setattr(qhring, "divisor_powers", planted)


@pytest.mark.parametrize("plant", [plant_below, plant_one_field], ids=["below", "one_field"])
@pytest.mark.parametrize("n, engine_check", [(4, True), (4, False), (5, False)])
def test_verify_pieri_matches_reference_on_planted_chains(n, engine_check, plant, monkeypatch):
    # the packed divisibility check must flag exactly the (m, u) whose closed
    # form raises, and word them as the closed form does
    plant(monkeypatch, n)
    total, bad = reference_pieri(n, engine_check)
    assert bad  # the plant reached the chains
    r = seidel.verify_pieri(n, engine_check=engine_check)
    assert (r.total, r.passed) == (total, total - len(bad))
    got = [(m, u, str(c) if isinstance(c, seidel.PieriFormulaError) else c)
           for m, u, c in r.counterexamples]
    assert got == bad
    if plant is plant_one_field and not engine_check:
        u = weyl.u_up(weyl.from_word([2], n), n - 2)
        assert [c[:2] for c in bad] == [(2, u)]
        assert "negative exponent (0, -1, 0" in bad[0][2]


def test_verify_pieri_records_a_flag_the_closed_form_misses(monkeypatch):
    # a flagged (m, u) whose closed form does not raise is a counterexample
    n = 4
    plant_below(monkeypatch, n)
    total, bad = reference_pieri(n, engine_check=False)
    monkeypatch.setattr(seidel, "seidel_conjugation", lambda u, error: lambda m, terms: {})
    r = seidel.verify_pieri(n, engine_check=False)
    assert bad and (r.total, r.passed) == (total, total - len(bad))
    assert r.counterexamples == [(m, u, {}) for m, u, _ in bad]


@pytest.mark.parametrize("n, engine_check, calls", [(5, False, 0), (4, True, 24)])
def test_verify_pieri_builds_closed_forms_only_where_read(n, engine_check, calls, monkeypatch):
    # without the engine check a sweep with nothing flagged builds no class;
    # with it every u builds its closed form once
    closed_form = seidel.seidel_conjugation
    seen = []

    def spy(u, error):
        seen.append(u)
        return closed_form(u, error)

    monkeypatch.setattr(seidel, "seidel_conjugation", spy)
    assert seidel.verify_pieri(n, engine_check=engine_check).ok
    assert len(seen) == len(set(seen)) == calls


def reference_conjugate(m, u, k_theory, error):
    """Seidel conjugation term by term: seidel_power on each term of the
    divisor power, the prefactor q_1^{-1} ... q_{n-1}^{1-n}, then
    polynomials.accumulate to collect terms."""
    n = len(u)
    k = n - u[-1]
    base = weyl.lambda_cumulative(u, k)
    prefactor = tuple(-i for i in range(1, n))
    terms = []
    for (_, w), c in qhring.divisor_power(m, weyl.u_up(u, k), k_theory).items():
        shift, w_up = seidel.seidel_power(w, n - k)
        q = tuple(a + b + p for a, b, p in zip(shift, base, prefactor))
        if min(q, default=0) < 0:
            raise error(f"negative exponent {q} at term {w} for m={m}, u={u}")
        terms.append(((q, w_up), c))
    out = {}
    polynomials.accumulate(out, terms)
    return out


def conjugation_outcome(conjugate, m, u, k_theory):
    try:
        return conjugate(m, u, k_theory, seidel.PieriFormulaError)
    except seidel.PieriFormulaError as err:
        return str(err)


KINDS = [False, True]  # the divisor in H*, in K


@pytest.mark.parametrize("k_theory", KINDS, ids=["H", "K"])
@pytest.mark.parametrize("n", range(2, 6))
def test_conjugation_matches_seidel_power_reference(n, k_theory):
    for m in range(1, n):
        for u in weyl.all_permutations(n):
            assert conjugation_outcome(seidel.seidel_conjugate, m, u, k_theory) == (
                conjugation_outcome(reference_conjugate, m, u, k_theory)
            ), (m, u)


def test_conjugation_matches_seidel_power_reference_sampled_n6():
    rng = random.Random(6)
    perms = weyl.all_permutations(6)
    for _ in range(300):
        m, u = rng.randrange(1, 6), rng.choice(perms)
        for k_theory in KINDS:
            assert conjugation_outcome(seidel.seidel_conjugate, m, u, k_theory) == (
                conjugation_outcome(reference_conjugate, m, u, k_theory)
            ), (m, u)


@pytest.mark.parametrize("n", range(2, 7))
def test_conjugation_degree_identity(n):
    # T^{n-k} times q_1^{-1} ... q_{n-1}^{1-n} sends sigma^w to the class of
    # w with values x -> x - k mod n, in degree q_i = -#{j <= i : w(j) <= k};
    # seidel_conjugation adds lambda(u, k) for a u with u(n) = n - k
    for k in range(n):
        u = weyl.u_up(weyl.identity(n), n - k)
        base = weyl.lambda_cumulative(u, k)
        for w in weyl.all_permutations(n):
            shift, w_up = seidel.seidel_power(w, n - k)
            low = tuple(sum(x <= k for x in w[:i]) for i in range(1, n))
            assert tuple(a - i for i, a in enumerate(shift, start=1)) == tuple(-c for c in low)
            assert w_up == tuple((x - k - 1) % n + 1 for x in w)
            q = tuple(b - c for b, c in zip(base, low))
            try:
                got = seidel.seidel_conjugation(u, seidel.PieriFormulaError)(1, [(w, 7)])
            except seidel.PieriFormulaError:
                got = None
            assert got == (None if min(q) < 0 else {(q, w_up): 7}), (k, w)


@pytest.mark.parametrize("n", range(2, 7))
def test_rotation_prefactor_counts_low_values(n):
    # lambda(u_up(v, n - k), k)_i = #{j <= i : v(j) <= k}, so the closed
    # form's q_i = r_v(i, k) - r_w(i, k) with r_x(i, k) = #{j <= i : x(j) <= k}
    for v in weyl.all_permutations(n):
        for k in range(n):
            low = tuple(accumulate(x <= k for x in v[:-1]))
            assert weyl.lambda_cumulative(weyl.u_up(v, n - k), k) == low, (v, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_pieri_counts_are_column_sums(n):
    # verify_pieri's ranks(w) adds one packed column per position j < n; it
    # must equal the field-by-field packing of r_w(i, k) = #{j <= i : w(j) <= k},
    # fields (k, i) for 1 <= k, i <= n - 1, k-major
    layout = weyl.bruhat_ranks(n)
    width = layout.block // (n - 1)
    for w in weyl.all_permutations(n):
        fields = [c for k in range(1, n) for c in accumulate(x <= k for x in w[:-1])]
        assert weyl.ranks(w) == sum(c << width * f for f, c in enumerate(fields)), w
        assert sum(map(tuple.__getitem__, layout.columns, w)) == weyl.ranks(w), w


@pytest.mark.parametrize("n", range(2, 6))
def test_rank_blocks_flag_exactly_where_the_closed_form_raises(n):
    # every u is rotation k = n - u(n) of v = u^k, which fixes n: block k of
    # guards + ranks(v) - ranks(w) keeps its guard bits iff u's closed form
    # takes the term w without a negative exponent
    guards, _, block, mask = weyl.bruhat_ranks(n)
    perms = weyl.all_permutations(n)
    ranks = {w: weyl.ranks(w) for w in perms}
    seen = set()
    for u in perms:
        k = n - u[-1]
        v = weyl.u_up(u, k)
        conjugate = seidel.seidel_conjugation(u, seidel.PieriFormulaError)
        for w in perms:
            kept = (guards + ranks[v] - ranks[w]) >> block * (k - 1) & mask == mask if k else True
            try:
                conjugate(1, [(w, 1)])
                divides = True
            except seidel.PieriFormulaError:
                divides = False
            assert kept == divides, (u, w)
            seen.add(divides)
    assert seen == ({True, False} if n > 2 else {True})  # S_2: v is the identity


def test_prefactor_divides_exactly_above_v_n4():
    # by the rank criterion no rotation k gives a negative exponent iff v <= w
    n = 4
    perms = weyl.all_permutations(n)
    for v in perms:
        bases = [weyl.lambda_cumulative(weyl.u_up(v, n - k), k) for k in range(n)]
        for w in perms:
            divides = all(
                b >= c
                for k, base in enumerate(bases)
                for b, c in zip(base, accumulate(x <= k for x in w))
            )
            assert divides == weyl.bruhat_leq(v, w), (v, w)


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
    # they are an independent check on the engine: on fresh engines they
    # read the classical engine's permutation store and divisor walker, and
    # never the product recursion or its Monk lists
    n = 4
    cases = [(m, u) for m in range(1, n) for u in weyl.all_permutations(n)]
    pieri = {(m, u): qhring.quantum_product(weyl.hook(n, m), u) for m, u in cases}
    qk = {(m, u): ktheory.qk_conjecture_product(m, u) for m, u in cases}

    def refuse(*args):
        raise AssertionError("product engine called")

    for name in ("product", "products_with", "_mul", "_monk", "_transition"):
        monkeypatch.setattr(qhring.RingEngine, name, refuse)
    monkeypatch.setattr(qhring, "_engines", functools.lru_cache(maxsize=None)(qhring.RingEngine))
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_explore_equal_is_quantum_product_equals_cup_product(n):
    # explore reads equality off the quantum product alone (no q-term); the
    # two engines must agree with that for every (i, j) and u
    perms = weyl.all_permutations(n)
    for i in range(1, n):
        for j in range(i, n):
            left = weyl.from_word(range(i, j + 1), n)
            rows = seidel.explore_classical_equality(n, i, j)
            assert [r["one_line"] for r in rows] == [weyl.perm_to_string(u) for u in perms]
            for u, r in zip(perms, rows):
                expected = qhring.quantum_product(left, u) == qhring.classical_product(left, u)
                assert r["equal"] is expected, (i, j, u)


def test_seidel_sweep_keeps_one_bounded_memo_and_drops_it(memos):
    # verify seidel expands every u against the kept sigma^{s_1...s_{n-1}}
    # from one memo, keyed by u, so it holds at most one entry per
    # permutation (a memo only grows: its last size is its peak), and it is
    # freed with the sweep
    n = 5
    assert seidel.verify_seidel(n).ok
    assert len(memos) == 1
    assert max(map(len, memos.values())) <= 120
    assert memos.held_elsewhere() == []


@pytest.mark.parametrize("sweep", [
    lambda n: seidel.verify_support(n),
    lambda n: seidel.verify_pieri(n, engine_check=True),
    lambda n: seidel.explore_classical_equality(n, 2, 3),
    lambda n: qhring.verify_filtration(n),
    lambda n: ktheory.k_verify(n),
], ids=["support", "pieri", "explore", "filtration", "ktheory"])
def test_engine_sweeps_leave_no_memo(sweep, memos):
    # the Pieri and K-theory sweeps advance one products_with per hook
    # together in a zip, which stops before they end: freeing the zip frees
    # their memos, as the end of a sweep does
    n = 4
    sweep(n)
    assert memos and memos.held_elsewhere() == []


def test_verify_support_flags_planted_terms(monkeypatch):
    # a non-interval degree where u(n) != n, and any q-term where u(n) = n,
    # each fail their record with the reason the sweep names
    n = 4
    non_interval_at = (2, (2, 1, 4, 3))
    q_term_at = (1, (2, 1, 3, 4))

    def planted(u, hook, out):
        m = weyl.length(hook)
        if (m, u) == non_interval_at:
            out[((1, 0, 1), u)] = 1
        if (m, u) == q_term_at:
            out[((0, 0, 1), u)] = 1
        return out

    plants.plant(monkeypatch, planted)
    r = seidel.verify_support(n)
    assert (r.total, r.passed) == (72, 70)
    assert r.counterexamples == [
        (*q_term_at, [((0, 0, 1), q_term_at[1], "quantum term with u(n)=n")]),
        (*non_interval_at, [((1, 0, 1), non_interval_at[1], "non-interval degree")]),
    ]
