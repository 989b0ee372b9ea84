"""The QH*(Fl_n) engine.

Elements are sparse maps (degree vector, permutation) -> integer
coefficient.  Every rule is read off the quantum Bruhat graph, whose edges
at a position r come from one scan per side (_left_edges, _right_edges): the
quantum Monk operators X_r of Fomin, Gelfand and Postnikov (RingEngine._monk),
the quantum Chevalley operators of the divisors s_i, and the divisor s_{n-1}
in H* and in K, whose powers are the hook products.  The
Lascoux-Schutzenberger transition step writes every sigma^w != sigma^id as
X_r sigma^v plus classes that are shorter, or as long and lexicographically
larger.  Products follow by an integer recursion on the shorter factor,
memoized per rank.  Inside that recursion a term q^lam sigma^w is one int:
the engine's index of w in the low bits and the lam_i above them as digits
in base n(n-1)/2 + 1, which no degree of a product reaches, so a q-shift is
an int addition that never carries (RingEngine).

The same recursion with the quantum terms switched off yields the classical
cup product, which agrees with the q=0 truncation of the quantum product.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from math import factorial
from operator import add, gt, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Optional

from . import rootsys, weyl
from .polynomials import accumulate
from .reporting import VerifyReport
from .weyl import DegreeVector, Permutation, identity, length, sgn_alpha, swap

# a QClass: finite formal sum of coefficients on (degree, permutation) pairs
QClass = dict[tuple[DegreeVector, Permutation], int]


def qclass(u: Permutation, lam: Optional[DegreeVector] = None) -> QClass:
    n = len(u)
    if lam is None:
        lam = rootsys.zero_degree(n)
    return {(lam, u): 1}


# --- quantum Bruhat edges and the divisor s_{n-1} ---------------------------

# one shared object per permutation reached by a move, so that the move
# lists and the product memos do not each hold a copy
_perms: dict[Permutation, Permutation] = {}


def _left_edges(w: Permutation, r: int, lo: int = 1) -> list[tuple[int, bool]]:
    """The quantum Bruhat edges w -> w t_ar, lo <= a < r, as (a, quantum), a rising.

    Swapping w(a) and w(b) (a < b) flips the pair (a, b) itself and, for
    each c in (a, b) with w(c) strictly between w(a) and w(b), the two pairs
    (a, c) and (c, b); every other pair keeps its order.  So with k such c
    the length moves by 1 + 2k, up when w(a) < w(b) and down otherwise:
    k = 0 is a Bruhat cover, and k = b - a - 1 (every c in between) is the
    quantum drop 2(b - a) - 1.  One downward scan decides every (a, r): with
    y = w(r), it keeps the greatest value passed below y and the greatest
    passed above it.  (a, r) is a cover when below < w(a) < y, and a quantum
    edge when w(a) > y, nothing below y was passed and w(a) exceeds every
    value passed.
    """
    y = w[r - 1]
    below = above = 0
    out = []
    a = r
    for x in reversed(w[lo - 1 : r - 1]):
        a -= 1
        if x < y:
            if x > below:
                out.append((a, False))
                below = x
        elif x > above:
            if not below:
                out.append((a, True))
            above = x
    out.reverse()
    return out


def _right_edges(w: Permutation, r: int) -> list[tuple[int, bool]]:
    """The edges w -> w t_rb, r < b <= n, as (b, quantum), b rising.

    The mirror of _left_edges: with x = w(r), one upward scan keeps the
    least value passed above x and the least passed below it.  (r, b) is a
    cover when x < w(b) < above, and a quantum edge when w(b) < x, nothing
    above x was passed and w(b) is below every value passed.
    """
    n = len(w)
    x = w[r - 1]
    above = below = n + 1
    out = []
    for b, z in enumerate(w[r:], r + 1):
        if z > x:
            if z < above:
                out.append((b, False))
                above = z
        elif z < below:
            if above > n:
                out.append((b, True))
            below = z
    return out


def _move(w: Permutation, a: int, b: int) -> Permutation:
    """w t_ab, shared through _perms."""
    wp = list(w)
    wp[a - 1], wp[b - 1] = wp[b - 1], wp[a - 1]
    wp = tuple(wp)
    return _perms.setdefault(wp, wp)


@lru_cache(maxsize=None)
def _divisor_moves(w: Permutation) -> tuple[tuple[Permutation, int], ...]:
    """sigma^{s_{n-1}} . sigma^w in H*(Fl_n) as (permutation, coefficient) terms.

    Monk's rule for the divisor s_{n-1}: one term w t_{an} for each a < n
    with w -> w t_{an} a Bruhat cover (_left_edges), the one-step chains of
    _k_divisor_moves.
    """
    n = len(w)
    return tuple((_move(w, a, n), 1) for a, quantum in _left_edges(w, n) if not quantum)


@lru_cache(maxsize=None)
def _k_divisor_moves(w: Permutation) -> tuple[tuple[Permutation, int], ...]:
    """O^{s_{n-1}} . O^w in K(Fl_n) as (permutation, coefficient) terms.

    Lenart's K-theoretic Monk formula for the divisor s_{n-1}: a signed sum
    over the chains w -> w t_{a_1 n} -> w t_{a_1 n} t_{a_2 n} -> ... with
    a_1 < a_2 < ... < n in which every step is a Bruhat cover (_left_edges), a
    chain of p steps counting (-1)^(p-1).  A chain moves exactly the
    positions a_1, ..., a_p and n, so no two chains end in the same class.
    This is the q = 0 part of the quantum K divisor operator for k = n - 1.
    """
    n = len(w)
    out = []
    chains = [(w, 1, 1)]  # (end of a chain, least next a, sign of the next step)
    while chains:
        x, lo, sign = chains.pop()
        for a, quantum in _left_edges(x, n, lo):
            if not quantum:
                y = _move(x, a, n)
                out.append((y, sign))
                chains.append((y, a + 1, -sign))
    return tuple(out)


def divisor_powers(v: Permutation, moves) -> Iterator[dict[Permutation, int]]:
    """Yield [s_{n-1}]^m . [v] as {permutation: coefficient} for m = 1, ..., n-1.

    ``moves(w)`` lists [s_{n-1}] . [w] as (permutation, coefficient) terms:
    _divisor_moves in H*, _k_divisor_moves in K.
    """
    cls = {v: 1}
    for _ in range(len(v) - 1):
        out: dict[Permutation, int] = {}
        accumulate(out, ((y, c * d) for x, c in cls.items() for y, d in moves(x)))
        cls = out
        yield cls


def divisor_power(m: int, v: Permutation, moves) -> QClass:
    """The hook product [s_{n-m}...s_{n-1}] . [v] = [s_{n-1}]^m . [v], 1 <= m < n.

    The hook class is pulled back from P^{n-1}, where it is the m-th power of
    the hyperplane class: the m-th class of divisor_powers, in degree zero.
    """
    n = len(v)
    if not 1 <= m <= n - 1:
        raise ValueError(f"hook size {m} out of range for n={n}")
    cls = next(islice(divisor_powers(v, moves), m - 1, None))
    zero = _zero(n)
    return {(zero, w): c for w, c in cls.items()}


# --- transition engine ------------------------------------------------------

def quantum_chevalley(i: int, c: QClass, n: int, quantum: bool = True) -> QClass:
    """Multiply a class by the divisor sigma^{s_i}, extending linearly.

    The quantum Chevalley formula: sigma^{s_i} * sigma^w is the sum of
    sigma^{w t_ab} over the quantum Bruhat edges w -> w t_ab with
    a <= i < b (_right_edges of each a), times q^{gamma^vee},
    gamma = e_a - e_b, when the edge is quantum.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple index {i} out of range for n={n}")
    out: QClass = {}
    accumulate(out, (
        ((rootsys.add_degrees(lam, _coroot((a, b), n)) if q else lam, _move(w, a, b)), coeff)
        for (lam, w), coeff in c.items()
        for a in range(1, i + 1)
        for b, q in _right_edges(w, a)
        if b > i and (quantum or not q)
    ))
    return out


# memoized helpers of the recursion; the degree ones also hand out one shared
# tuple per value, so that move lists and classes do not each hold a copy
_length = lru_cache(maxsize=None)(length)
_zero = lru_cache(maxsize=None)(rootsys.zero_degree)
_coroot = lru_cache(maxsize=None)(rootsys.coroot)


@lru_cache(maxsize=None)
def _code(lam: DegreeVector) -> int:
    """The lam_i as the digits of one int in base n(n-1)/2 + 1, lam_1 lowest (RingEngine)."""
    base = len(lam) * (len(lam) + 1) // 2 + 1
    return sum(x * base**i for i, x in enumerate(lam))


@lru_cache(maxsize=None)
def _degree(code: int, n: int) -> DegreeVector:
    """The degree vector whose _code is ``code``."""
    base = n * (n - 1) // 2 + 1
    return tuple(code // base**i % base for i in range(n - 1))


class RingEngine:
    """Per-rank product engine: integer transition recursion, memoized.

    sigma^w * sigma^z = sigma^v * (X_r sigma^z) + rest * sigma^z by the
    transition step of w, recursing on the shorter factor down to the
    identity.  ``quantum=False`` gives the classical cup-product engine
    (same recursion with quantum Chevalley moves disabled).

    Inside the engine a term q^lam sigma^w is one int,
    (_code(lam) << bits) | index(w): the engine numbers each permutation the
    first time it meets it, bits = n!.bit_length() holds every index, and
    _code writes the lam_i as digits in base B = n(n-1)/2 + 1.  A q-shift by
    mu is then the addition of _code(mu) << bits, and it never carries: a
    term of a sub-product of sigma^w * sigma^z, before cancellation, has
    lam' >= 0 and l(w') + 2 sum(lam') = l(w) + l(z) <= n(n-1), so every
    lam'_i <= n(n-1)/2 < B.  The memo maps the pair of factor indices to a
    flat (term, coeff, term, coeff, ...) tuple; product() decodes.
    """

    def __init__(self, n: int, quantum: bool = True):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.n = n
        self.quantum = quantum
        self._bits = factorial(n).bit_length()
        self._index: dict[Permutation, int] = {}
        self._perms: list[Permutation] = []
        self._order: list[tuple[int, Permutation]] = []  # factor order: length, then w
        self._moves: dict[int, tuple] = {}  # index * n + r -> X_r on it (_monk)
        self._transitions: dict[int, tuple] = {}  # index -> its transition step (_transition)
        self._memo: dict[int, tuple[int, ...]] = {}  # shorter << bits | longer -> product
        self._identity = self._intern(identity(n))

    def product(self, u: Permutation, v: Permutation) -> QClass:
        """sigma^u * sigma^v as a fresh dict."""
        if len(u) != len(v) or len(u) != self.n:
            raise ValueError("rank mismatch")
        bits, mask, perms = self._bits, (1 << self._bits) - 1, self._perms
        terms = iter(self._mul(self._intern(u), self._intern(v)))
        return {(_degree(t >> bits, self.n), perms[t & mask]): c for t, c in zip(terms, terms)}

    def _intern(self, w: Permutation) -> int:
        """w's index, handed out the first time the engine meets w."""
        i = self._index.get(w)
        if i is None:
            i = self._index[w] = len(self._perms)
            self._perms.append(w)
            self._order.append((_length(w), w))
        return i

    def _monk(self, z: int, r: int) -> tuple[tuple[int, int, int], ...]:
        """X_r sigma^z as (sign, q-shift, index) terms.

        X_r = sigma^{s_r} - sigma^{s_{r-1}} is the quantum Monk operator of
        Fomin-Gelfand-Postnikov.  The Chevalley moves over (a, b) with
        a < r < b occur for both divisors and cancel, which leaves +moves over
        (r, b) with b > r and -moves over (a, r) with a < r, listed here in that
        order.  One scan per side of r finds them (_right_edges, _left_edges):
        classical when w(a) < w(b) and no c in (a, b) has w(c) between them,
        quantum (degree gamma^vee) when w(a) > w(b) and every such c does.
        """
        w, n, bits = self._perms[z], self.n, self._bits
        out = []
        for b, q in _right_edges(w, r):
            if self.quantum or not q:
                x = list(w)
                x[r - 1], x[b - 1] = w[b - 1], w[r - 1]
                shift = _code(_coroot((r, b), n)) << bits if q else 0
                out.append((1, shift, self._intern(tuple(x))))
        for a, q in _left_edges(w, r):
            if self.quantum or not q:
                x = list(w)
                x[a - 1], x[r - 1] = w[r - 1], w[a - 1]
                shift = _code(_coroot((a, r), n)) << bits if q else 0
                out.append((-1, shift, self._intern(tuple(x))))
        return tuple(out)

    def _transition(self, w: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
        """(r, v, rest) with sigma^w = X_r sigma^v + rest, for w != id.

        The Lascoux-Schutzenberger step: r is the last descent of w, s the
        largest position after r with w(s) < w(r), and v = w t_{rs}.  Among the
        terms of X_r sigma^v (_monk) the only classical (r, b) move is w
        itself, so rest is minus every other term: the sigma^{v t_{ar}} with
        a < r, and the q-terms.  Each rest term is shorter than w, or as long
        and lexicographically larger, so the recursion on it ends.
        """
        x, n = self._perms[w], self.n
        r = max(i for i in range(1, n) if x[i - 1] > x[i])
        s = max(j for j in range(r + 1, n + 1) if x[j - 1] < x[r - 1])
        v = self._intern(_move(x, r, s))
        rest = tuple((-sign, shift, y) for sign, shift, y in self._monk(v, r) if shift or y != w)
        return r, v, rest

    def _mul(self, w: int, z: int) -> tuple[int, ...]:
        """sigma^w * sigma^z as a flat (term, coeff, ...) tuple, no coeff zero."""
        if self._order[w] > self._order[z]:
            w, z = z, w
        key = w << self._bits | z
        got = self._memo.get(key)
        if got is not None:
            return got
        if w == self._identity:
            got = (z, 1)
        else:
            step = self._transitions.get(w)
            if step is None:
                step = self._transitions[w] = self._transition(w)
            r, v, rest = step
            moves = self._moves.get(z * self.n + r)
            if moves is None:
                moves = self._moves[z * self.n + r] = self._monk(z, r)
            out: dict[int, int] = {}
            get = out.get
            # sigma^v * (X_r sigma^z) and rest * sigma^z: a fixed factor times each term
            for f, terms in ((v, moves), (z, rest)):
                for sign, shift, x in terms:
                    it = iter(self._mul(f, x))
                    for t, c in zip(it, it):
                        t += shift
                        out[t] = get(t, 0) + sign * c
            got = tuple(chain.from_iterable(filter(itemgetter(1), out.items())))
        self._memo[key] = got
        return got


_engines = lru_cache(maxsize=None)(RingEngine)


def get_engine(n: int, quantum: bool = True) -> RingEngine:
    """The one engine per (n, quantum), whatever form the call takes."""
    return _engines(n, quantum)


def quantum_product(u: Permutation, v: Permutation) -> QClass:
    """sigma^u * sigma^v in QH*(Fl_n), with product invariants enforced."""
    out = get_engine(len(u), True).product(u, v)
    check_product_invariants(out, _length(u) + _length(v))
    return out


def classical_product(u: Permutation, v: Permutation) -> QClass:
    """Cup product sigma^u cup sigma^v = the q=0 part of the quantum product.

    A separate engine with the quantum terms off, because it is cheaper than
    the q = 0 part of a quantum product: on a 2-vCPU host (Python 3.11) the
    30 240 hook products of n = 7 take about 1.2 s at 48 MB peak RSS,
    against 2.1-2.5 s at 72 MB through the quantum engine, and ``verify
    ktheory --n 7`` takes 4.2-4.6 s at 52 MB, against 5.3-5.6 s at 75 MB.
    """
    return get_engine(len(u), False).product(u, v)


def structure_constant(
    u: Permutation, v: Permutation, w: Permutation, lam: DegreeVector
) -> int:
    """The Gromov-Witten coefficient of q_lam sigma^w in sigma^u * sigma^v."""
    if _inconsistency(u, v, w, lam):
        return 0
    return quantum_product(u, v).get((lam, w), 0)


def _inconsistency(u, v, w, lam) -> Optional[str]:
    """Which of lam >= 0 and the degree axiom fails, making N_{u,v}^{w,lam} 0, if one does."""
    if not rootsys.is_nonnegative(lam):
        return "negative lambda entry"
    if length(u) + length(v) != length(w) + rootsys.pair_2rho(lam):
        return "degree axiom"
    return None


def check_product_invariants(cls: QClass, degree: int) -> None:
    """Degree axiom, positivity, and integrality of a Schubert-class product."""
    for (lam, w), c in cls.items():
        if not rootsys.is_nonnegative(lam):
            raise AssertionError(f"negative curve degree {lam} in product")
        if _length(w) + rootsys.pair_2rho(lam) != degree:
            raise AssertionError(f"degree axiom violated at {(lam, w)}")
        if not isinstance(c, int):
            raise AssertionError(f"non-integral structure constant {c}")
        if c < 0:
            raise AssertionError(f"negative structure constant {c} at {(lam, w)}")


# --- grading and filtration ------------------------------------------------

def _grades(lam: DegreeVector, w: Permutation) -> list[int]:
    """sgn_alpha(w, i) + <alpha_i, lam> for i = 1..n-1, each the first part of gr_alpha.

    The i-th number decides every alpha_i-grade test of a term q_lam sigma^w
    of sigma^u * sigma^v.  Both grade pairs sum to l(u) + l(v) by the degree
    axiom, which quantum_product enforces through check_product_invariants,
    so the lexicographic comparison of gr_alpha(i, lam, w) with
    gr_alpha(i, 0, u) + gr_alpha(i, 0, v) is the comparison of this component
    with sgn_alpha(u, i) + sgn_alpha(v, i).  Its excess over that bound is
    positive on a term outside the filtration (the vanishing criterion) and
    zero where the grade is additive (a reduction step applies).
    """
    ext = (0, *lam, 0)  # <alpha_i, lam> = 2 lam_i - lam_{i-1} - lam_{i+1}
    return [
        (w[i - 1] > w[i]) + 2 * ext[i] - ext[i - 1] - ext[i + 1] for i in range(1, len(w))
    ]


def gr_alpha(i: int, lam: DegreeVector, w: Permutation) -> tuple[int, int]:
    """Z^2-grade of q_lam sigma^w with respect to the simple root alpha_i."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"simple root index {i} out of range")
    a = _grades(lam, w)[i - 1]
    return (a, length(w) + rootsys.pair_2rho(lam) - a)


def verify_filtration(n: int) -> list[VerifyReport]:
    """F_a * F_b subset F_{a+b} (lexicographic order), one report per alpha_i.

    Checked on pure Schubert classes; multiplying by q-monomials shifts both
    sides of the inequality by the same grade, so this case is exhaustive.
    A term fails when its alpha_i-grade exceeds that of its factors
    (_grades).  Each report counts all n!^2 ordered pairs, but only the
    pairs {u, v} with u(n) = v(n) = n are multiplied.  This rests on the
    Seidel operator T = sigma^{s_1...s_{n-1}} * acting as
    T(sigma^w) = q_{lambda(w)} sigma^{w^1}, which ``verify seidel`` checks at
    the same n and ``verify all`` runs first.  Then
    sigma^{u^a} * sigma^{v^b} = q^{-lambda(u,a)-lambda(v,b)} T^{a+b}(sigma^u * sigma^v)
    and _grades(lam + lambda(w), w^1) = _grades(lam, w) + e_{n-1}, so a
    term's excess over the bound sgn(u^a) + sgn(v^b) is the same on all n^2
    pairs (u^a, v^b), and on their swaps when u != v.  A representative pair
    that passes every alpha_i counts for its whole orbit; one that fails has
    every pair of its orbit checked as the full pair sweep does: one product
    per unordered pair, recorded as (u, v) and then (v, u), u not before v
    in all_permutations (lexicographic) order, and in that order.
    """
    reports = [VerifyReport("filtration", n) for _ in range(1, n)]
    perms = weyl.all_permutations(n)
    descents = {u: _grades(_zero(n), u) for u in perms}

    def check(u: Permutation, v: Permutation) -> list[list]:
        """The terms of sigma^u * sigma^v over the alpha_i bound, for each i."""
        bounds = list(map(add, descents[u], descents[v]))
        graded = ((key, _grades(*key)) for key in quantum_product(u, v))
        over = [(key, grades) for key, grades in graded if any(map(gt, grades, bounds))]
        return [[key for key, grades in over if grades[i] > b] for i, b in enumerate(bounds)]

    expanded = []
    heads = [u for u in perms if u[-1] == n]
    for k, u in enumerate(heads):
        for v in heads[: k + 1]:
            if not any(check(u, v)):
                for report in reports:
                    report.record(True, count=(1 if u == v else 2) * n * n)
                continue
            xs, ys = ([weyl.u_up(w, a) for a in range(n)] for w in (u, v))
            expanded += {p for x in xs for y in ys for p in ((x, y), (y, x)) if p[0] >= p[1]}
    for u, v in sorted(expanded):
        for report, bad in zip(reports, check(u, v)):
            report.record(not bad, (u, v, bad) if bad else None)
            if v != u:
                report.record(not bad, (v, u, bad) if bad else None)
    return reports


# --- Peterson-Woodward comparison -----------------------------------------

@dataclass(frozen=True)
class PWLift:
    lambda_B: DegreeVector
    delta_P_prime: frozenset[int]


def peterson_woodward_lift(lam_rep: DegreeVector, delta_p: Iterable[int]) -> PWLift:
    """The unique lift lambda_B of lambda_P with <gamma, lambda_B> in {0, -1}.

    Works per connected component [a, b] of Delta_P: the consecutive
    differences d_i = lam_i - lam_{i-1} (i = a..b+1) must form a
    non-decreasing sequence taking at most two adjacent values, with their
    sum pinned by the fixed coefficients outside the component; that forces
    the floor/ceiling split of the average.
    """
    n = len(lam_rep) + 1
    dp = sorted(set(delta_p))
    if not set(dp) <= set(range(1, n)):
        raise ValueError("Delta_P out of range")
    lam = list(lam_rep)
    ext = lambda k: lam[k - 1] if 1 <= k <= n - 1 else 0
    for comp in _components(dp):
        a, b = comp[0], comp[-1]
        count = b - a + 2  # differences d_a .. d_{b+1}
        total = ext(b + 1) - ext(a - 1)
        q, r = divmod(total, count)
        diffs = [q] * (count - r) + [q + 1] * r
        acc = ext(a - 1)
        for idx, i in enumerate(range(a, b + 1)):
            acc += diffs[idx]
            lam[i - 1] = acc
    lam_b = tuple(lam)
    for gamma in rootsys.parabolic_positive_roots(dp, n):
        if rootsys.pair_positive_root(gamma, lam_b) not in (0, -1):
            raise RuntimeError(f"PW lift failed at root {gamma}")  # engine bug
    dpp = frozenset(i for i in dp if rootsys.pair_root(i, lam_b) == 0)
    return PWLift(lam_b, dpp)


def _components(indices: list[int]) -> list[list[int]]:
    comps: list[list[int]] = []
    for i in indices:
        if comps and comps[-1][-1] == i - 1:
            comps[-1].append(i)
        else:
            comps.append([i])
    return comps


def _fibre_member(
    i: int, lam: DegreeVector, w: Permutation, s: int
) -> tuple[DegreeVector, Permutation]:
    """The member of alpha_i-grade s of the P^1 fibre over the coset minimum w.

    The fibre is {q_{lam + t alpha_i^vee} sigma^{w s_i^e}}, of grade
    e + <alpha_i, lam> + 2t since <alpha_i, alpha_i^vee> = 2, so with
    d = s - <alpha_i, lam> its member of grade s has e = d mod 2 and
    t = floor(d/2).  alpha_i^vee is the i-th unit vector of the coroot basis.
    """
    t, e = divmod(s - rootsys.pair_root(i, lam), 2)
    return lam[: i - 1] + (lam[i - 1] + t,) + lam[i:], swap(w, i) if e else w


def psi_alpha(
    i: int, lam_p: DegreeVector, w: Permutation
) -> tuple[DegreeVector, Permutation]:
    """Injection QH*(G/P_{alpha_i}) -> QH*(G/B): q_{lam_P} sigma^w -> q_{lam_B} sigma^{w w_P w_{P'}}.

    ``lam_p`` is any representative of the class modulo Z alpha_i^vee.  The
    Peterson-Woodward lift for Delta_P = {i} is the grade-0 member of the
    fibre (_fibre_member, s = 0): <alpha_i, lam_B> is 0 or -1, and w_{P'} is
    s_i exactly when it is 0.  So lam_P = 0 maps the identity to itself.
    """
    if sgn_alpha(w, i):
        raise ValueError(f"{w} is not a minimal coset representative for P_alpha_{i}")
    return _fibre_member(i, lam_p, w, 0)


# --- quantum -> classical reduction ----------------------------------------

class ReduceState(NamedTuple):
    u: Permutation
    v: Permutation
    w: Permutation
    lam: DegreeVector


@dataclass
class ReduceTrace:
    states: list[ReduceState]
    rules: list[str]
    terminal: str  # "classical" | "zero" | "stuck"
    value: Optional[int]
    # what gave a "zero" terminal: "vanishing criterion" or an _inconsistency
    zero_by: Optional[str] = None


def _excess(st: ReduceState) -> list[int]:
    """_grades(lam, w) minus _grades(0, u) + _grades(0, v): a positive entry is
    the vanishing criterion, a zero entry an additive grade (a reduction step)."""
    zero = _zero(len(st.u))
    bounds = map(add, _grades(zero, st.u), _grades(zero, st.v))
    return list(map(sub, _grades(st.lam, st.w), bounds))


def reduce_step(
    u: Permutation, v: Permutation, w: Permutation, lam: DegreeVector
) -> list[tuple[str, ReduceState]]:
    """All single-step rewrites of N_{u,v}^{w,lam} with equal value.

    For each simple root alpha_i where the grade is additive (_excess is 0 at
    i), the constant equals a 3-point invariant of the P^1-fibration
    G/B -> G/P_{alpha_i} and depends only on the coset data: take u, v, w to
    their coset minima u', v', w', flip u' and v' back up to u' s_i^{e_u} and
    v' s_i^{e_v}, and take the member of grade s = e_u + e_v of the fibre
    over w' (_fibre_member): q_{lam + t alpha_i^vee} sigma^{w' s_i^e} has
    grade e + <alpha_i, lam> + 2t, so e = d mod 2 and t = floor(d/2) with
    d = s - <alpha_i, lam>.  This subsumes the degree-lowering identities
    and the lam = 0 exchange rule as special cases.
    """
    start = ReduceState(u, v, w, lam)
    return _rewrites(start, _excess(start))


def _rewrites(start: ReduceState, excess: list[int]) -> list[tuple[str, ReduceState]]:
    """reduce_step of a state whose _excess is already known."""
    u, v, w, lam = start
    out: list[tuple[str, ReduceState]] = []
    for i, e in enumerate(excess, 1):
        if e:
            continue
        u_min, v_min, w_min = (swap(x, i) if x[i - 1] > x[i] else x for x in (u, v, w))
        for e_u, e_v in ((0, 0), (0, 1), (1, 0), (1, 1)):
            lam_s, w_s = _fibre_member(i, lam, w_min, e_u + e_v)
            nxt = ReduceState(
                swap(u_min, i) if e_u else u_min, swap(v_min, i) if e_v else v_min, w_s, lam_s
            )
            if nxt != start:
                out.append((f"alpha_{i}[{e_u}{e_v}]", nxt))
    return out


def reduce_trace(
    u: Permutation, v: Permutation, w: Permutation, lam: DegreeVector
) -> ReduceTrace:
    """Reduce N_{u,v}^{w,lam} to a classical constant or a certified zero.

    A start that breaks the degree axiom or has a negative lam entry is zero
    at once, as in structure_constant.  Otherwise breadth-first search over
    the reduce_step rewrite graph for a state with lam = 0 (evaluated
    classically) or a state where the vanishing criterion applies; reports
    "stuck" if the reachable component contains neither.  Every state on the
    returned chain is re-checked numerically via structure_constant.
    """
    zero = _zero(len(u))
    start = ReduceState(u, v, w, lam)
    inconsistency = _inconsistency(u, v, w, lam)
    if inconsistency:
        return ReduceTrace([start], [], "zero", 0, inconsistency)
    parent: dict[ReduceState, tuple[ReduceState, str]] = {start: (start, "")}
    queue = deque([start])
    goal = None
    while queue:
        st = queue.popleft()
        excess = _excess(st)
        if max(excess) > 0:
            goal, terminal = st, "zero"
            break
        if st.lam == zero:
            goal, terminal = st, "classical"
            break
        for rule, nxt in _rewrites(st, excess):
            if nxt not in parent:
                parent[nxt] = (st, rule)
                queue.append(nxt)
    if goal is None:
        return _finish([start], [], "stuck", None)
    chain = [goal]
    rules = []
    while chain[-1] != start:
        prev, rule = parent[chain[-1]]
        rules.append(rule)
        chain.append(prev)
    chain.reverse()
    rules.reverse()
    if terminal == "zero":
        value = 0
    else:
        value = classical_product(goal.u, goal.v).get((zero, goal.w), 0)
    return _finish(chain, rules, terminal, value)


def _finish(states, rules, terminal, value) -> ReduceTrace:
    vals = [
        structure_constant(st.u, st.v, st.w, st.lam)
        for st in states
        if rootsys.is_nonnegative(st.lam)
    ]
    if len(set(vals)) > 1:
        raise AssertionError(f"reduction chain not constant: {vals}")
    if value is not None and vals and vals[0] != value:
        raise AssertionError(f"chain value {vals[0]} != terminal value {value}")
    zero_by = "vanishing criterion" if terminal == "zero" else None
    return ReduceTrace(states, rules, terminal, value, zero_by)
