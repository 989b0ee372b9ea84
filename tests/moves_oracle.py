"""The length-based move lists, kept as a test oracle.

These are the move lists the transition engine used before the local
quantum Bruhat edge test: ``chevalley_moves`` finds each edge by a full
inversion count of w and of w t_ab, and ``monk_moves`` builds both Chevalley
lists of X_r = sigma^{s_r} - sigma^{s_{r-1}} and keeps the moves that do not
cancel.  They share no shortcut with ``flagq.qhring``'s move lists.
``chevalley_product`` applies the Chevalley lists to a class, the divisor
products of the elimination oracle.  ``transition`` is the
Lascoux-Schutzenberger step read off ``monk_moves``, the step the
tuple-coded engine oracle and the ring-axiom properties expand.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

from flagq.qhring import QClass
from flagq.rootsys import Root, add_degrees, coroot, zero_degree
from flagq.weyl import DegreeVector, Permutation, length


@lru_cache(maxsize=None)
def chevalley_moves(
    w: Permutation, i: int, quantum: bool
) -> tuple[tuple[Optional[Root], Permutation], ...]:
    """Moves of the (quantum) Chevalley formula on a single basis class.

    For each positive root gamma = e_a - e_b with <chi_i, gamma^vee> = 1
    (i.e. a <= i < b): a classical move to w s_gamma when the length goes up
    by one, and a quantum move (tagged with gamma) when it drops by
    <2 rho, gamma^vee> - 1 = 2(b-a) - 1.
    """
    n = len(w)
    lw = length(w)
    out = []
    for a in range(1, i + 1):
        for b in range(i + 1, n + 1):
            wp = list(w)
            wp[a - 1], wp[b - 1] = wp[b - 1], wp[a - 1]
            wp = tuple(wp)
            d = length(wp) - lw
            if d == 1:
                out.append((None, wp))
            elif quantum and d == 1 - 2 * (b - a):
                out.append(((a, b), wp))
    return tuple(out)


def chevalley_product(i: int, cls: QClass, quantum: bool = True) -> QClass:
    """sigma^{s_i} * cls, the class's terms moved by chevalley_moves, no coefficient zero.

    A quantum move over gamma raises the degree of its term by gamma^vee.
    """
    out: QClass = {}
    for (lam, w), c in cls.items():
        for gamma, wp in chevalley_moves(w, i, quantum):
            key = (lam if gamma is None else add_degrees(lam, coroot(gamma, len(w))), wp)
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def monk_moves(
    w: Permutation, r: int, quantum: bool
) -> tuple[tuple[int, DegreeVector, Permutation], ...]:
    """X_r sigma^w as (sign, degree, permutation) terms.

    X_r = sigma^{s_r} - sigma^{s_{r-1}} is the quantum Monk operator of
    Fomin-Gelfand-Postnikov, taken here as the difference of two Chevalley
    move lists: the moves over (a, b) with a < r < b occur for both divisors
    and cancel, which leaves +moves over (r, b) with b > r and -moves over
    (a, r) with a < r.
    """
    n = len(w)
    plus = chevalley_moves(w, r, quantum)
    minus = chevalley_moves(w, r - 1, quantum)
    out = []
    for sign, mine, other in ((1, plus, minus), (-1, minus, plus)):
        for gamma, wp in mine:
            if (gamma, wp) not in other:
                lam = zero_degree(n) if gamma is None else coroot(gamma, n)
                out.append((sign, lam, wp))
    return tuple(out)


@lru_cache(maxsize=None)
def transition(
    w: Permutation, quantum: bool
) -> tuple[int, Permutation, tuple[tuple[int, DegreeVector, Permutation], ...]]:
    """(r, v, rest) with sigma^w = X_r sigma^v + rest, for w != id.

    The Lascoux-Schutzenberger step: r is the last descent of w, s the
    largest position after r with w(s) < w(r), and v = w t_{rs}.  X_r sigma^v
    has the term +sigma^w, and rest is minus every other term, in the order
    of monk_moves.
    """
    n = len(w)
    r = max(i for i in range(1, n) if w[i - 1] > w[i])
    s = max(j for j in range(r + 1, n + 1) if w[j - 1] < w[r - 1])
    v = list(w)
    v[r - 1], v[s - 1] = v[s - 1], v[r - 1]
    v = tuple(v)
    top = (1, zero_degree(n), w)
    moves = monk_moves(v, r, quantum)
    assert top in moves, (w, r, v)
    return r, v, tuple((-sign, lam, x) for sign, lam, x in moves if (sign, lam, x) != top)
