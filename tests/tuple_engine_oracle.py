"""The tuple-coded product engine, kept as a test oracle.

This is how ``flagq.qhring.RingEngine`` stored terms before they became ints:
every term is a (degree tuple, permutation tuple, coefficient) triple, every
q-shift builds a new degree tuple, the memo is keyed by the pair of
permutations, and each sub-product is added in with the zeros deleted as
they appear.  It also keeps the engine's earlier recursion order,
sigma^w * sigma^z = sigma^v * (X_r sigma^z) + rest * sigma^z, where the
engine now applies X_r to sigma^v * sigma^z, and it reads the length-based
Monk lists and transition steps of ``moves_oracle.py``, which share no code
with ``flagq.qhring``: it checks the engine's recursion order, its int
encoding of terms, shifts and memo entries, and its own move lists and
transition steps (``RingEngine._monk``, ``_transition``).
"""
from __future__ import annotations

from functools import lru_cache

from moves_oracle import monk_moves, transition

from flagq import rootsys
from flagq.qhring import QClass
from flagq.weyl import DegreeVector, Permutation, identity, length

_length = lru_cache(maxsize=None)(length)
_add_degrees = lru_cache(maxsize=None)(rootsys.add_degrees)


class RingEngine:
    """Per-rank product engine: integer transition recursion, memoized.

    sigma^w * sigma^z = sigma^v * (X_r sigma^z) + rest * sigma^z by the
    transition step of w, recursing on the shorter factor down to the
    identity.  ``quantum=False`` gives the classical cup-product engine
    (same recursion with quantum Chevalley moves disabled).
    """

    def __init__(self, n: int, quantum: bool = True):
        self.n = n
        self.quantum = quantum
        self._identity = identity(n)
        self._zero = rootsys.zero_degree(n)
        # (shorter, longer) -> product as a tuple of (degree, perm, coeff)
        self._memo: dict[tuple[Permutation, Permutation], tuple] = {}

    def product(self, u: Permutation, v: Permutation) -> QClass:
        """sigma^u * sigma^v as a fresh dict."""
        if len(u) != len(v) or len(u) != self.n:
            raise ValueError("rank mismatch")
        return {(lam, w): c for lam, w, c in self._mul(u, v)}

    def _mul(self, w: Permutation, z: Permutation) -> tuple:
        """sigma^w * sigma^z as a tuple of (degree, permutation, coeff) terms."""
        if (_length(w), w) > (_length(z), z):
            w, z = z, w
        key = (w, z)
        got = self._memo.get(key)
        if got is not None:
            return got
        if w == self._identity:
            got = ((self._zero, z, 1),)
        else:
            r, v, rest = transition(w, self.quantum)
            out: dict = {}
            for sign, lam, x in monk_moves(z, r, self.quantum):
                _accumulate(out, self._mul(v, x), sign, lam, self._zero)
            for sign, lam, x in rest:
                _accumulate(out, self._mul(x, z), sign, lam, self._zero)
            got = tuple((lam, x, c) for (lam, x), c in out.items())
        self._memo[key] = got
        return got


def _accumulate(out: dict, terms: tuple, sign: int, shift: DegreeVector, zero) -> None:
    """out += sign * q^shift * terms, dropping terms that cancel to zero."""
    for lam, w, c in terms:
        key = (lam if shift == zero else _add_degrees(lam, shift), w)
        v = out.get(key, 0) + sign * c
        if v:
            out[key] = v
        else:
            del out[key]


@lru_cache(maxsize=None)
def get_engine(n: int, quantum: bool = True) -> RingEngine:
    return RingEngine(n, quantum)
