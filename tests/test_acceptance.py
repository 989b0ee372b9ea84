"""End-to-end acceptance checks, one test (and one pass/fail line) each.

All comparisons are exact; no tolerances anywhere.
"""
import itertools
import random
import shutil
import subprocess
import sys
import time

from flagq import ktheory, qhring, rootsys, seidel, weyl


def w(word, n):
    return weyl.from_word(word, n)


def report(line):
    print(f"[acceptance] {line}")


def test_criterion_01_seidel_closed_form_sweep():
    start = time.time()
    totals = []
    for n in (3, 4, 5):
        full_hook = weyl.hook(n, n - 1)
        for u in weyl.all_permutations(n):
            lam, up = seidel.seidel_apply(u)
            assert qhring.quantum_product(full_hook, u) == {(lam, up): 1}, (n, u)
        totals.append(len(weyl.all_permutations(n)))
    elapsed = time.time() - start
    assert totals == [6, 24, 120]
    assert elapsed < 300
    report(f"criterion 1 PASS: Seidel closed form, {sum(totals)} cases, {elapsed:.1f}s")


def test_criterion_02_pieri_sweep():
    for n in (3, 4):
        for m in range(1, n):
            for u in weyl.all_permutations(n):
                closed = seidel.quantum_pieri(m, u)
                assert closed == qhring.quantum_product(weyl.hook(n, m), u), (n, m, u)
    rng = random.Random(35711)
    perms = weyl.all_permutations(5)
    sampled = 0
    for _ in range(220):
        m, u = rng.randrange(1, 5), perms[rng.randrange(len(perms))]
        closed = seidel.quantum_pieri(m, u)
        assert closed == qhring.quantum_product(weyl.hook(5, m), u), (m, u)
        sampled += 1
    assert sampled >= 200
    report(f"criterion 2 PASS: Pieri rule exhaustive n<=4 plus {sampled} sampled n=5")


def test_criterion_03_paper_goldens():
    # Fl_5 product
    assert qhring.quantum_product((4, 3, 5, 1, 2), w([2, 3, 4], 5)) == {
        ((0, 0, 1, 1), w([4, 2, 3, 1, 2, 1], 5)): 1,
        ((0, 0, 1, 1), w([3, 4, 2, 3, 1, 2], 5)): 1,
    }
    # Fl_4 reduction chain ends in 1
    trace = qhring.reduce_trace(
        w([3, 2, 1, 2], 4), w([2, 1, 2], 4), w([1, 2, 3], 4), (1, 1, 0)
    )
    assert trace.terminal == "classical" and trace.value == 1
    # two-branch cup product with the full hook, n <= 6
    for n in (3, 4, 5, 6):
        full_hook = weyl.hook(n, n - 1)
        zero = rootsys.zero_degree(n)
        for u in weyl.all_permutations(n):
            cp = qhring.classical_product(full_hook, u)
            if u[-1] == n:
                assert cp == {(zero, weyl.multiply(full_hook, u)): 1}, (n, u)
            else:
                assert cp == {}, (n, u)
    report("criterion 3 PASS: printed product, reduction chain, two-branch cup law")


def test_criterion_04_hook_q_support():
    for n in (3, 4):
        zero = rootsys.zero_degree(n)
        for m in range(1, n):
            for u in weyl.all_permutations(n):
                for (lam, _) in qhring.quantum_product(weyl.hook(n, m), u):
                    if lam == zero:
                        continue
                    assert u[-1] != n, (n, m, u)
                    ones = [i for i, a in enumerate(lam, start=1) if a]
                    assert set(lam) <= {0, 1}
                    assert ones and ones[-1] == n - 1
                    assert ones == list(range(ones[0], n)), (n, m, u, lam)
    report("criterion 4 PASS: hook products have interval q-support, only for u(n) != n")


def test_criterion_05_degree_axiom_and_positivity():
    checked = 0
    for n in (3, 4):
        perms = weyl.all_permutations(n)
        for u in perms:
            for v in perms[::2]:
                degree = weyl.length(u) + weyl.length(v)
                for (lam, ww), c in qhring.quantum_product(u, v).items():
                    assert isinstance(c, int) and c > 0, (u, v, lam, ww, c)
                    assert rootsys.is_nonnegative(lam)
                    assert weyl.length(ww) + rootsys.pair_2rho(lam) == degree
                    checked += 1
    report(f"criterion 5 PASS: {checked} structure constants positive-integral on-degree")


def _pw_valid_assignments(a, b, lo, hi, n):
    count = b - a + 2
    total = hi - lo
    roots = rootsys.parabolic_positive_roots(range(a, b + 1), n)
    found = []
    for d in itertools.product(range(-3, 4), repeat=count - 1):
        if not -3 <= total - sum(d) <= 3:
            continue
        lam = [0] * (n - 1)
        if a >= 2:
            lam[a - 2] = lo
        if b + 1 <= n - 1:
            lam[b] = hi
        acc = lo
        for idx, i in enumerate(range(a, b + 1)):
            acc += d[idx]
            lam[i - 1] = acc
        lam = tuple(lam)
        if all(rootsys.pair_positive_root(g, lam) in (0, -1) for g in roots):
            found.append([lam[i - 1] for i in range(a, b + 1)])
    return found


def test_criterion_06_peterson_woodward_oracle():
    cases = 0
    memo = {}
    for n in (3, 4, 5):
        for bits in itertools.product((0, 1), repeat=n - 1):
            dp = [i for i in range(1, n) if bits[i - 1]]
            comps = qhring._components(dp)
            for rep in itertools.product(range(4), repeat=n - 1):
                lift = qhring.peterson_woodward_lift(rep, dp)
                for comp in comps:
                    a, b = comp[0], comp[-1]
                    lo = rep[a - 2] if a >= 2 else 0
                    hi = rep[b] if b + 1 <= n - 1 else 0
                    key = (n, a, b, lo, hi)
                    if key not in memo:
                        memo[key] = _pw_valid_assignments(a, b, lo, hi, n)
                    sols = memo[key]
                    assert len(sols) == 1, (n, dp, rep, sols)
                    assert sols[0] == [lift.lambda_B[i - 1] for i in comp]
                cases += 1
    report(f"criterion 6 PASS: constructive PW lift unique-match on {cases} cases")


def test_criterion_07_filtration():
    for n in (3, 4):
        for rep in qhring.verify_filtration(n):
            assert rep.ok, rep.counterexamples[:3]
    report("criterion 7 PASS: filtered-algebra property, n=3,4, all simple roots")


def test_criterion_08_reduction_identities(s4_table):
    n = 4
    perms = weyl.all_permutations(n)
    perms_by_len = {}
    for p in perms:
        perms_by_len.setdefault(weyl.length(p), []).append(p)
    two_case = exchange = 0
    for u in perms:
        for v in perms:
            total = weyl.length(u) + weyl.length(v)
            prod = s4_table[(u, v)]
            for lam in itertools.product(range(total // 2 + 1), repeat=n - 1):
                rest = total - rootsys.pair_2rho(lam)
                for ww in perms_by_len.get(rest, []):
                    value = prod.get((lam, ww), 0)
                    for i in range(1, n):
                        lhs = weyl.sgn_alpha(ww, i) + rootsys.pair_root(i, lam)
                        rhs = weyl.sgn_alpha(u, i) + weyl.sgn_alpha(v, i)
                        if lhs > rhs:
                            assert value == 0, (u, v, ww, lam, i)
                        if lhs == rhs == 2:
                            si = weyl.simple_reflection(i, n)
                            avee = rootsys.coroot((i, i + 1), n)
                            down = tuple(x - y for x, y in zip(lam, avee))
                            us, vs = weyl.multiply(u, si), weyl.multiply(v, si)
                            first = (
                                s4_table[(us, vs)].get((down, ww), 0)
                                if rootsys.is_nonnegative(down)
                                else 0
                            )
                            ws = weyl.multiply(ww, si)
                            if weyl.sgn_alpha(ww, i) == 0:
                                second = (
                                    s4_table[(u, vs)].get((down, ws), 0)
                                    if rootsys.is_nonnegative(down)
                                    else 0
                                )
                            else:
                                second = s4_table[(u, vs)].get((lam, ws), 0)
                            assert value == first == second, (u, v, ww, lam, i)
                            two_case += 1
            # lam = 0 exchange identity
            zero = rootsys.zero_degree(n)
            for i in range(1, n):
                if weyl.sgn_alpha(u, i) == 0 and weyl.sgn_alpha(v, i) == 1:
                    si = weyl.simple_reflection(i, n)
                    for ww in perms:
                        if weyl.sgn_alpha(ww, i) == 1:
                            assert prod.get((zero, ww), 0) == s4_table[
                                (u, weyl.multiply(v, si))
                            ].get((zero, weyl.multiply(ww, si)), 0)
                            exchange += 1
    report(
        f"criterion 8 PASS: two-case identity on {two_case} and exchange on "
        f"{exchange} instances"
    )


def test_criterion_09_ktheory_goldens():
    zero4 = rootsys.zero_degree(4)
    assert ktheory.k_cup_special(2, w([1, 2], 4)) == {
        (zero4, w([2, 3, 1, 2], 4)): 1,
        (zero4, w([1, 2, 3, 2], 4)): 1,
        (zero4, w([2, 1, 3, 2, 3], 4)): -1,
    }
    assert ktheory.qk_conjecture_product(2, w([2, 3, 2, 1], 4)) == {
        ((0, 0, 1), w([1, 3, 2, 1], 4)): 1,
        ((1, 1, 1), weyl.identity(4)): 1,
        ((1, 1, 1), w([3], 4)): -1,
    }
    n = 6
    u = w([5, 3, 4, 1, 2, 3, 2, 1], n)
    out = ktheory.qk_conjecture_product(3, u)
    ones, zero = (1,) * 5, (0,) * 5
    assert out == {
        (ones, w([3], n)): 1,
        (zero, w([1, 2, 3, 4, 5, 3, 4, 2, 3, 2, 1], n)): 1,
        (zero, w([1, 2, 3, 4, 5, 4, 1, 2, 3, 2, 1], n)): 1,
        (zero, w([2, 3, 4, 5, 3, 4, 1, 2, 3, 2, 1], n)): 1,
        (ones, w([4, 3], n)): -1,
        (ones, w([2, 3], n)): -1,
        (zero, w([1, 2, 3, 4, 5, 3, 4, 1, 2, 3, 2, 1], n)): -2,
        (ones, w([4, 2, 3], n)): 1,
    }
    proj = ktheory.pi_star({1, 2, 4, 5}, out)
    q3 = (0, 0, 1, 0, 0)
    assert {
        (mu, lam): c for mu, lam, c in ktheory.partition_labels(proj, 3)
    } == {
        ((1,), q3): 1,
        ((2,), q3): -1,
        ((1, 1), q3): -1,
        ((2, 1), q3): 1,
        ((3, 2, 2), zero): 1,
        ((3, 3, 1), zero): 1,
        ((3, 3, 2), zero): -1,
    }
    report("criterion 9 PASS: K and QK printed expansions reproduced with signs")


def test_criterion_10_cli_verify_all_under_budget():
    exe = shutil.which("flagq")
    cmd = [exe] if exe else [sys.executable, "-m", "flagq.cli"]
    start = time.time()
    proc = subprocess.run(
        [*cmd, "verify", "all", "--n", "4"], capture_output=True, text=True
    )
    elapsed = time.time() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "pass" in proc.stdout and "FAIL" not in proc.stdout
    assert elapsed < 120
    report(f"criterion 10 PASS: `flagq verify all --n 4` in {elapsed:.1f}s")
