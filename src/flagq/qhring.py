"""The QH*(Fl_n) engine.

Elements are sparse maps (degree vector, permutation) -> integer
coefficient.  Every rule is read off the quantum Bruhat graph, whose edges
at a position r come from one scan per side (_left_edges, _right_edges),
each edge with its moved permutation: the quantum Monk operators X_r of
Fomin, Gelfand and Postnikov (RingEngine._monk), and the divisor s_{n-1}
in H* and in K, whose powers are the hook products (RingEngine._divisor).  The
Lascoux-Schutzenberger transition step writes every sigma^w != sigma^id as
X_r sigma^v plus classes that are shorter, or as long and lexicographically
larger, and products follow by a memoized integer recursion on the
expanded factor w, sigma^w * sigma^z = X_r (sigma^v * sigma^z) + rest *
sigma^z, in which a term is one int and a q-shift an int addition
(RingEngine).  A memo lives for one product or one sweep; every product is
checked as it is decoded.

The same recursion with the quantum terms switched off yields the classical
cup product, which agrees with the q=0 truncation of the quantum product;
its indices also key the divisor tables, so one store per rank holds them all.
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
from .reporting import VerifyReport
from .weyl import DegreeVector, Permutation, identity, length, swap

# a QClass: finite formal sum of coefficients on (degree, permutation) pairs
QClass = dict[tuple[DegreeVector, Permutation], int]


# --- quantum Bruhat edges and the divisor s_{n-1} ---------------------------

Edge = tuple[int, bool, Permutation]  # (the other position, quantum, moved permutation)


def _left_edges(w: Permutation, r: int, lo: int = 1, quantum: bool = True) -> list[Edge]:
    """The quantum Bruhat edges w -> w t_ar, lo <= a < r, as (a, quantum, w t_ar), a rising.

    Swapping w(a) and w(b) (a < b) flips the pair (a, b) itself and, for
    each c in (a, b) with w(c) strictly between w(a) and w(b), the two pairs
    (a, c) and (c, b); every other pair keeps its order.  So with k such c
    the length moves by 1 + 2k, up when w(a) < w(b) and down otherwise:
    k = 0 is a Bruhat cover, and k = b - a - 1 (every c in between) is the
    quantum drop 2(b - a) - 1.  One downward scan decides every (a, r): with
    y = w(r), it keeps the greatest value passed below y and the greatest
    passed above it.  (a, r) is a cover when below < w(a) < y, and a quantum
    edge when w(a) > y, nothing below y was passed and w(a) exceeds every
    value passed.  The scan holds both values of the swap, so each edge
    carries the moved permutation; ``quantum=False`` skips the quantum edges
    and builds none of their permutations.
    """
    y = w[r - 1]
    below = above = 0
    out = []
    moved = list(w)  # w t_ar for the edge at hand, restored at a after each
    a = r
    for x in reversed(w[lo - 1 : r - 1]):
        a -= 1
        if x < y:
            if x > below:
                moved[a - 1], moved[r - 1] = y, x
                out.append((a, False, tuple(moved)))
                moved[a - 1] = x
                below = x
        elif x > above:
            if quantum and not below:
                moved[a - 1], moved[r - 1] = y, x
                out.append((a, True, tuple(moved)))
                moved[a - 1] = x
            above = x
    out.reverse()
    return out


def _right_edges(w: Permutation, r: int, quantum: bool = True) -> list[Edge]:
    """The edges w -> w t_rb, r < b <= n, as (b, quantum, w t_rb), b rising.

    The mirror of _left_edges: with x = w(r), one upward scan keeps the
    least value passed above x and the least passed below it.  (r, b) is a
    cover when x < w(b) < above, and a quantum edge when w(b) < x, nothing
    above x was passed and w(b) is below every value passed; ``quantum`` as there.
    """
    n = len(w)
    x = w[r - 1]
    above = below = n + 1
    out = []
    moved = list(w)  # w t_rb for the edge at hand, restored at b after each
    for b, z in enumerate(w[r:], r + 1):
        if z > x:
            if z < above:
                moved[r - 1], moved[b - 1] = z, x
                out.append((b, False, tuple(moved)))
                moved[b - 1] = z
                above = z
        elif z < below:
            if quantum and above > n:
                moved[r - 1], moved[b - 1] = z, x
                out.append((b, True, tuple(moved)))
                moved[b - 1] = z
            below = z
    return out


def divisor_powers(v: Permutation, k: bool = False) -> Iterator[dict[int, int]]:
    """Yield [s_{n-1}]^m . [v] for m = 1, ..., n-1, in K if k, else in H*.

    A class is {index: coefficient} on the classical engine, which decodes it
    (_perms) and keeps each list [s_{n-1}] . [w] (RingEngine._divisor).
    """
    engine = get_engine(len(v), False)
    table = engine._divisors[k]
    cls = {engine._intern(v): 1}
    for _ in range(len(v) - 1):
        out: dict[int, int] = {}
        get = out.get
        for x, c in cls.items():
            moves = table.get(x)
            if moves is None:
                moves = table[x] = engine._divisor(x, k)
            it = iter(moves)
            for y, d in zip(it, it):
                out[y] = get(y, 0) + c * d
        cls = {y: c for y, c in out.items() if c}
        yield cls


def divisor_power(m: int, v: Permutation, k: bool = False) -> QClass:
    """The hook product [s_{n-m}...s_{n-1}] . [v] = [s_{n-1}]^m . [v], 1 <= m < n, in K if k.

    The hook class is pulled back from P^{n-1}, where it is the m-th power of
    the hyperplane class: the m-th class of divisor_powers, in degree zero.
    """
    n = len(v)
    if not 1 <= m <= n - 1:
        raise ValueError(f"hook size {m} out of range for n={n}")
    cls = next(islice(divisor_powers(v, k), m - 1, None))
    zero, perms = _zero(n), get_engine(n, False)._perms
    return {(zero, perms[i]): c for i, c in cls.items()}


# --- transition engine ------------------------------------------------------

# memoized helpers of the recursion; the degree ones also hand out one shared
# tuple per value, so that classes do not each hold a copy
_zero = lru_cache(maxsize=None)(rootsys.zero_degree)


def _code(lam: DegreeVector) -> int:
    """The lam_i as the digits of one int in base n(n-1)/2 + 1, lam_1 lowest (RingEngine)."""
    base = len(lam) * (len(lam) + 1) // 2 + 1
    return sum(x * base**i for i, x in enumerate(lam))


@lru_cache(maxsize=None)
def _degree(code: int, n: int) -> tuple[DegreeVector, Optional[int]]:
    """The degree vector lam whose _code is ``code``, and <2 rho, lam> (None if some lam_i < 0)."""
    base = n * (n - 1) // 2 + 1
    lam = tuple(code // base**i % base for i in range(n - 1))
    return lam, rootsys.pair_2rho(lam) if rootsys.is_nonnegative(lam) else None


class RingEngine:
    """Per-rank product engine: integer transition recursion, memoized.

    With (r, v) the transition step of w, sigma^w = X_r sigma^v + rest,
    where X_r is the product with sigma^{s_r} - sigma^{s_{r-1}} and rest is
    minus the terms of X_r sigma^v other than sigma^w, and the product is
    commutative and associative, so sigma^w * sigma^z =
    X_r (sigma^v * sigma^z) + rest * sigma^z.  _mul expands w into the
    sub-calls (v, z) and (y, z), y a rest term, each one step down w's
    transition recursion, which ends; every sub-call keeps z, so a memo of
    one kept z, keyed by w, holds at most one entry per permutation.  A memo
    lives for one call: ``product`` gives _mul a fresh one and expands the
    factor first in (length, one-line) order, and ``products_with`` expands
    each u of a sweep against one kept z from a memo that is freed with the
    sweep.  So the engine keeps only its interning, with each length, its
    Monk lists, one per (index, r) and at most n! n, and one (r, v) per
    transition, and every product it hands out is checked term by term
    where it is decoded (_decode).  A permutation first met through a move
    comes with its length, read off the move (_monk, _transition, _divisor);
    only the factors from outside are counted.  ``quantum=False`` gives the
    classical cup-product engine, which also keeps the divisor lists (_divisor).

    A term q^lam sigma^w is one int, (_code(lam) << bits) | index(w), with
    bits = n!.bit_length() and the lam_i as digits in base B = n(n-1)/2 + 1,
    so a q-shift by mu adds _code(mu) << bits.  It never carries: mu is a
    positive coroot, X_r raises the degree by 1 = l(w) - l(v) and a rest term
    q^mu sigma^y has degree l(w), so every intermediate term has lam' >= 0
    and l(w') + 2 sum(lam') = l(w) + l(z) <= n(n-1): each lam'_i < B.  A
    memo entry is a flat (term, coeff, ...) tuple.
    """

    def __init__(self, n: int, quantum: bool = True):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.n = n
        self.quantum = quantum
        self._bits = bits = factorial(n).bit_length()
        self._mask = (1 << bits) - 1  # a term's index(w) bits
        self._index: dict[Permutation, int] = {}
        self._perms: list[Permutation] = []
        self._lengths: list[int] = []  # l(w) by index, for _decode
        self._shifts = {g: _code(rootsys.coroot(g, n)) << bits for g in rootsys.positive_roots(n)}
        self._moves: dict[int, tuple] = {}  # index * n + r -> X_r on it (_monk)
        self._transitions: dict[int, tuple[int, int]] = {}  # index -> (r, v) (_transition)
        self._divisors: tuple[dict[int, tuple], ...] = ({}, {})  # [k][index] -> _divisor(index, k)
        self._identity = self._intern(identity(n))

    def product(self, u: Permutation, v: Permutation) -> QClass:
        """sigma^u * sigma^v as a fresh QClass, from a memo of its own."""
        i, j, lengths = self._intern(u), self._intern(v), self._lengths
        if (lengths[j], v) < (lengths[i], u):
            i, j = j, i
        return self._decode(self._mul(i, j, {}), lengths[i] + lengths[j])

    def products_with(self, z: Permutation, us: Iterable[Permutation]) -> Iterator[QClass]:
        """Yield sigma^u * sigma^z for each u in us, all from one memo, freed with the sweep."""
        memo, z, lengths = {}, self._intern(z), self._lengths
        for u in map(self._intern, us):
            yield self._decode(self._mul(u, z, memo), lengths[u] + lengths[z])

    def _decode(self, terms: tuple[int, ...], degree: int) -> QClass:
        """A product's flat (term, coeff, ...) tuple as a fresh QClass, each term checked."""
        n, bits, mask, perms, lengths = self.n, self._bits, self._mask, self._perms, self._lengths
        out, it = {}, iter(terms)
        for t, c in zip(it, it):
            i = t & mask
            lam, weight = _degree(t >> bits, n)
            if not (weight == degree - lengths[i] and type(c) is int and c > 0):
                check_product_invariants({(lam, perms[i]): c}, degree)
            out[lam, perms[i]] = c
        return out

    def _intern(self, w: Permutation, ell: Optional[int] = None) -> int:
        """w's index, handed out the first time the engine meets w, which must have rank n.

        ``ell`` is l(w) when a move (_monk, _transition) gives it; only a
        factor from outside the engine has its inversions counted.
        """
        i = self._index.get(w)
        if i is None:
            if len(w) != self.n:
                raise ValueError("rank mismatch")
            i = self._index[w] = len(self._perms)
            self._perms.append(w)
            self._lengths.append(length(w) if ell is None else ell)
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
        Each edge brings its moved permutation, of length l(w) + 1, less
        2(b - a) on a quantum edge; only a permutation new to the engine
        needs it (_intern).
        """
        w, ell, shifts, index = self._perms[z], self._lengths[z], self._shifts, self._index
        out = []
        for b, q, y in _right_edges(w, r, self.quantum):
            i = index.get(y)
            if i is None:
                i = self._intern(y, ell + 1 - 2 * (b - r) * q)
            out.append((1, shifts[r, b] if q else 0, i))
        for a, q, y in _left_edges(w, r, 1, self.quantum):
            i = index.get(y)
            if i is None:
                i = self._intern(y, ell + 1 - 2 * (r - a) * q)
            out.append((-1, shifts[a, r] if q else 0, i))
        return tuple(out)

    def _divisor(self, z: int, k: bool) -> tuple[int, ...]:
        """[s_{n-1}] . [w], w = _perms[z], in K if k, else in H*, as a flat (index, coeff, ...).

        Lenart's K-theoretic Monk formula for the divisor s_{n-1}: a signed sum
        over the chains w -> w t_{a_1 n} -> w t_{a_1 n} t_{a_2 n} -> ... with
        a_1 < a_2 < ... < n in which every step is a Bruhat cover (_left_edges), a
        chain of p steps counting (-1)^(p-1).  A chain moves exactly the
        positions a_1, ..., a_p and n, so no two chains end in the same class.
        This is the q = 0 part of the quantum K divisor operator of s_{n-1}.
        In H* only the one-step chains count: Monk's rule, -X_n (_monk).  A
        cover adds 1 to the length, which a new permutation is interned with.
        """
        n, perms, lengths, index = self.n, self._perms, self._lengths, self._index
        out = []
        chains = [(z, 1, 1)]  # (end of a chain, least next a, sign of the next step)
        while chains:
            x, lo, sign = chains.pop()
            for a, _, y in _left_edges(perms[x], n, lo, quantum=False):
                i = index.get(y)
                if i is None:
                    i = self._intern(y, lengths[x] + 1)
                out += i, sign
                if k:
                    chains.append((i, a + 1, -sign))
        return tuple(out)

    def _transition(self, w: int) -> tuple[int, int]:
        """(r, v) with sigma^w = X_r sigma^v + rest, for w != id.

        The Lascoux-Schutzenberger step: r is the last descent of w, s the
        largest position after r with w(s) < w(r), and v = w t_{rs}.  Among the
        terms of X_r sigma^v (_monk) the only classical (r, b) move is w
        itself, so rest is minus every other term: the sigma^{v t_{ar}} with
        a < r, and the q-terms, which _mul reads off the Monk list of v at r.
        Each rest term is shorter than w, or as long and lexicographically
        larger, so the recursion on it ends.  w covers v, so l(v) = l(w) - 1.
        r and s are found walking back from n: w increases after r, so the
        walk for s stops at the first value below w(r).
        """
        x = self._perms[w]
        r, s = self.n - 1, self.n
        while x[r - 1] < x[r]:
            r -= 1
        while x[s - 1] > x[r - 1]:
            s -= 1
        v = list(x)
        v[r - 1], v[s - 1] = x[s - 1], x[r - 1]
        return r, self._intern(tuple(v), self._lengths[w] - 1)

    def _mul(self, w: int, z: int, memo: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
        """sigma^w * sigma^z as a flat (term, coeff, ...) tuple, no coeff zero; memo is z's.

        Each Monk list X_r sigma^i is built once per engine, where first
        needed, and stored in _moves: for the terms i of sigma^v * sigma^z,
        and for v itself, whose list gives rest (sigma^w skipped, each sign
        negated).  A sub-product already in the memo is read there, so every
        call _mul makes of itself is a miss.
        """
        got = memo.get(w)
        if got is not None:
            return got
        if w == self._identity:
            got = (z, 1)
        else:
            step = self._transitions.get(w)
            if step is None:
                step = self._transitions[w] = self._transition(w)
            r, v = step
            n, mask, moves = self.n, self._mask, self._moves
            out: dict[int, int] = {}
            get = out.get
            got = memo.get(v)
            it = iter(self._mul(v, z, memo) if got is None else got)
            for t, c in zip(it, it):  # X_r (sigma^v * sigma^z), one term t at a time
                i = t & mask
                terms = moves.get(i * n + r)
                if terms is None:
                    terms = moves[i * n + r] = self._monk(i, r)
                t -= i
                for sign, shift, x in terms:
                    x += t + shift
                    out[x] = get(x, 0) + sign * c
            terms = moves.get(v * n + r)
            if terms is None:
                terms = moves[v * n + r] = self._monk(v, r)
            for sign, shift, y in terms:  # rest * sigma^z
                if shift or y != w:
                    got = memo.get(y)
                    it = iter(self._mul(y, z, memo) if got is None else got)
                    for t, c in zip(it, it):
                        t += shift
                        out[t] = get(t, 0) - sign * c
            got = tuple(chain.from_iterable(filter(itemgetter(1), out.items())))
        memo[w] = got
        return got


_engines = lru_cache(maxsize=None)(RingEngine)


def get_engine(n: int, quantum: bool = True) -> RingEngine:
    """The one engine per (n, quantum), whatever form the call takes."""
    return _engines(n, quantum)


def quantum_product(u: Permutation, v: Permutation) -> QClass:
    """sigma^u * sigma^v in QH*(Fl_n); the engine checks it (RingEngine._decode)."""
    return get_engine(len(u), True).product(u, v)


def classical_product(u: Permutation, v: Permutation) -> QClass:
    """Cup product sigma^u cup sigma^v = the q=0 part of the quantum product.

    A separate engine with the quantum terms off, because it is cheaper than
    the q = 0 part of a quantum product: on a 2-vCPU host (Python 3.11) the
    30 240 hook products of n = 7 take about 1.1-1.3 s at 27 MB peak RSS,
    against 2.2-2.5 s at 30 MB through the quantum engine, and ``verify
    ktheory --n 7`` takes 0.67-0.69 s at 27 MB, against 0.89-0.93 s at 34 MB.
    """
    return get_engine(len(u), False).product(u, v)


def products_with(
    z: Permutation, us: Iterable[Permutation], quantum: bool = True
) -> Iterator[QClass]:
    """sigma^u * sigma^z for each u in us, from one memo (RingEngine.products_with)."""
    return get_engine(len(z), quantum).products_with(z, us)


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
        if length(w) + rootsys.pair_2rho(lam) != degree:
            raise AssertionError(f"degree axiom violated at {(lam, w)}")
        if not isinstance(c, int):
            raise AssertionError(f"non-integral structure constant {c}")
        if c < 0:
            raise AssertionError(f"negative structure constant {c} at {(lam, w)}")


# --- grading and filtration ------------------------------------------------

def _grades(lam: DegreeVector, w: Permutation) -> list[int]:
    """g_i = sgn_alpha(w, i) + <alpha_i, lam> for i = 1..n-1.

    The alpha_i-grade of q_lam sigma^w is the pair (g_i, l(w) + <2 rho, lam> - g_i)
    in Z^2, ordered lexicographically, and g_i decides every alpha_i-grade
    test of a term q_lam sigma^w of sigma^u * sigma^v.  Both grade pairs sum
    to l(u) + l(v) by the degree axiom, which the engine checks on every term
    it decodes (RingEngine._decode), so comparing the term's grade with the
    sum of the grades of sigma^u and sigma^v compares g_i with
    sgn_alpha(u, i) + sgn_alpha(v, i).  Its excess over that bound is
    positive on a term outside the filtration (the vanishing criterion) and
    zero where the grade is additive (a reduction step applies).  The
    numbers are _grades(0, w) + _grades(lam, id) (verify_filtration).
    """
    ext = (0, *lam, 0)  # <alpha_i, lam> = 2 lam_i - lam_{i-1} - lam_{i+1}
    return [
        (w[i - 1] > w[i]) + 2 * ext[i] - ext[i - 1] - ext[i + 1] for i in range(1, len(w))
    ]


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
    in all_permutations (lexicographic) order, and in that order.  The pairs
    are multiplied grouped by their later factor in the engine's (length,
    one-line) order, one products_with sweep each.
    """
    reports = [VerifyReport("filtration", n) for _ in range(1, n)]
    perms = weyl.all_permutations(n)
    descents = {u: _grades(_zero(n), u) for u in perms}
    pairings = lru_cache(maxsize=None)(lambda lam: _grades(lam, identity(n)))

    def check(u: Permutation, v: Permutation, product: QClass) -> list[list]:
        """The terms of the product sigma^u * sigma^v over the alpha_i bound, for each i."""
        bounds = list(map(add, descents[u], descents[v]))
        graded = ((key, list(map(add, descents[key[1]], pairings(key[0])))) for key in product)
        over = [(key, grades) for key, grades in graded if any(map(gt, grades, bounds))]
        return [[key for key, grades in over if grades[i] > b] for i, b in enumerate(bounds)]

    expanded = []
    heads = sorted((u for u in perms if u[-1] == n), key=lambda u: (length(u), u))
    for k, z in enumerate(heads):
        for u, product in zip(heads, products_with(z, heads[: k + 1])):
            if not any(check(u, z, product)):
                for report in reports:
                    report.record(True, count=(1 if u == z else 2) * n * n)
                continue
            xs, ys = ([weyl.u_up(w, a) for a in range(n)] for w in (u, z))
            expanded += {p for x in xs for y in ys for p in ((x, y), (y, x)) if p[0] >= p[1]}
    for u, v in sorted(expanded):
        for report, bad in zip(reports, check(u, v, quantum_product(u, v))):
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
    The grade-0 member is the Peterson-Woodward lift for Delta_P = {i}.
    """
    t, e = divmod(s - rootsys.pair_root(i, lam), 2)
    return lam[: i - 1] + (lam[i - 1] + t,) + lam[i:], swap(w, i) if e else w


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
