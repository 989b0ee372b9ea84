"""Seidel operator in closed form, the quantum Pieri rule, and sweeps.

The Seidel operator T is quantum multiplication by sigma^{s_1...s_{n-1}}; on
the basis it acts by T(sigma^u) = q_{lambda(u)} sigma^{u^1}, where u^1 is the
left rotation of u and lambda(u) is read off the position of n in u.
Every product with a hook class sigma^{s_{n-m}...s_{n-1}} then reduces to a
classical hook product, a power of the divisor sigma^{s_{n-1}}, conjugated
by powers of T; the sweeps check these closed forms against the engine.
"""
from __future__ import annotations

from . import qhring, rootsys, weyl
from .polynomials import accumulate
from .qhring import QClass
from .reporting import VerifyReport
from .weyl import DegreeVector, Permutation


def seidel_apply(u: Permutation) -> tuple[DegreeVector, Permutation]:
    """T(sigma^u) = q_{lambda(u)} sigma^{s_1...s_{n-1} u}."""
    return weyl.lambda_of(u), weyl.u_up(u, 1)


def seidel_power(u: Permutation, k: int) -> tuple[DegreeVector, Permutation]:
    """T^k(sigma^u) = q_{lambda(u,k)} sigma^{u^k}."""
    return weyl.lambda_cumulative(u, k), weyl.u_up(u, k)


class PieriFormulaError(RuntimeError):
    """The closed-form q-prefactor failed to divide; an implementation bug."""


def seidel_conjugate(m: int, u: Permutation, moves, error: type[Exception]) -> QClass:
    """The hook product sigma^{s_{n-m}...s_{n-1}} * sigma^u by Seidel conjugation.

    With k = n - u(n),
        q_1^{-1} q_2^{-2} ... q_{n-1}^{1-n} q_{lambda(u,k)}
            T^{n-k}(hook_m . u^k),
    computed termwise from qhring.divisor_power(m, u^k, moves), the classical
    hook product in cohomology or K theory.  The inverse prefactor must
    divide out exactly; a negative final exponent raises ``error``.
    """
    n = len(u)
    k = n - u[-1]
    base = weyl.lambda_cumulative(u, k)
    prefactor = tuple(-i for i in range(1, n))
    terms = []
    for (_, w), c in qhring.divisor_power(m, weyl.u_up(u, k), moves).items():
        shift, w_up = seidel_power(w, n - k)
        q = tuple(a + b + p for a, b, p in zip(shift, base, prefactor))
        if min(q, default=0) < 0:
            raise error(f"negative exponent {q} at term {w} for m={m}, u={u}")
        terms.append(((q, w_up), c))
    out: QClass = {}
    accumulate(out, terms)
    return out


def quantum_pieri(m: int, u: Permutation) -> QClass:
    """sigma^{s_{n-m}...s_{n-1}} * sigma^u by the Seidel closed form.

    ``seidel_conjugate`` of a power of Monk's operator for s_{n-1}, with no
    product engine; a prefactor that fails to divide raises PieriFormulaError.
    """
    return seidel_conjugate(m, u, qhring._divisor_moves, PieriFormulaError)


# --- verification sweeps ---------------------------------------------------

def verify_seidel(n: int) -> VerifyReport:
    """T(sigma^u) closed form against the engine for every u in S_n."""
    report = VerifyReport("seidel", n)
    full_hook = weyl.hook(n, n - 1)
    for u in weyl.all_permutations(n):
        lam, up = seidel_apply(u)
        prod = qhring.quantum_product(full_hook, u)
        ok = prod == {(lam, up): 1}
        report.record(ok, None if ok else (u, prod))
    return report


def verify_pieri(n: int, engine_check: bool = True) -> VerifyReport:
    """Closed-form Pieri for every hook size and u.

    With ``engine_check`` each closed form is compared against the full
    engine product; without it only the formula's divisibility and
    invariants are exercised (full products dominate the runtime).
    """
    report = VerifyReport("pieri", n)
    for m in range(1, n):
        hook = weyl.hook(n, m)
        for u in weyl.all_permutations(n):
            try:
                closed = quantum_pieri(m, u)
            except PieriFormulaError as err:
                report.record(False, (m, u, err))
                continue
            ok = not engine_check or closed == qhring.quantum_product(hook, u)
            report.record(ok, None if ok else (m, u, closed))
    return report


def verify_support(n: int) -> VerifyReport:
    """q-support of hook products: interval coroots ending at n-1, only for u(n) != n."""
    report = VerifyReport("support", n)
    zero = rootsys.zero_degree(n)
    for m in range(1, n):
        hook = weyl.hook(n, m)
        for u in weyl.all_permutations(n):
            prod = qhring.quantum_product(hook, u)
            bad = []
            for (lam, w) in prod:
                if lam == zero:
                    continue
                if u[-1] == n:
                    bad.append((lam, w, "quantum term with u(n)=n"))
                    continue
                # lambda must be alpha_k^vee + ... + alpha_{n-1}^vee
                ones = [i for i, a in enumerate(lam, start=1) if a == 1]
                interval = (
                    set(lam) <= {0, 1}
                    and ones
                    and ones[-1] == n - 1
                    and ones == list(range(ones[0], n))
                )
                if not interval:
                    bad.append((lam, w, "non-interval degree"))
            report.record(not bad, (m, u, bad) if bad else None)
    return report


def explore_classical_equality(n: int, i: int, j: int) -> list[dict]:
    """For every u, does sigma^{s_i...s_j} * sigma^u equal the cup product?

    Records descriptive data per permutation; draws no conclusion about a
    characterization.
    """
    if not 1 <= i <= j <= n - 1:
        raise ValueError("need 1 <= i <= j <= n-1")
    left = weyl.from_word(range(i, j + 1), n)
    rows = []
    for u in weyl.all_permutations(n):
        quantum = qhring.quantum_product(left, u)
        classical = qhring.classical_product(left, u)
        rows.append(
            {
                "one_line": weyl.perm_to_string(u),
                "word": weyl.word_to_string(weyl.canonical_word(u)),
                "descents": list(weyl.descent_set(u)),
                "u_n": u[-1],
                "equal": quantum == classical,
            }
        )
    return rows
