"""The Fraction-elimination product engine, kept as a test oracle.

This is the product engine flagq used before the integer transition
recursion: it expands a Schubert class as an exact rational combination of
Chevalley words applied to the identity class, by Gaussian elimination over
``Fraction``, and multiplies by applying those words to the other factor.
Its Chevalley products come from the length-based move lists of
``moves_oracle``, so it shares no code with ``flagq.qhring``'s engine and
only the quantum Chevalley formula with its mathematics.  Its cost grows
about six times per degree at n = 5, so the tests use it at n <= 4 and on
n = 5 pairs whose shorter factor is short.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from flagq import rootsys
from flagq.qhring import QClass
from flagq.weyl import DegreeVector, Permutation, identity, length
from moves_oracle import chevalley_product


class NotInSpanError(RuntimeError):
    """The generator expansion failed; indicates an engine bug."""


class RingEngine:
    """Per-rank engine holding word-span bases and expansion eliminations.

    ``quantum=False`` gives the classical cup-product engine (same algorithm
    with quantum Chevalley moves disabled).
    """

    def __init__(self, n: int, quantum: bool = True):
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.n = n
        self.quantum = quantum
        # degree -> list of (word, class); words are prefix-closed across degrees
        self._word_basis: dict[int, list[tuple[tuple[int, ...], QClass]]] = {
            0: [((), {(rootsys.zero_degree(n), identity(n)): 1})]
        }
        # degree -> elimination rows (pivot, vec, combo)
        self._rows: dict[int, list] = {}
        self._expansions: dict[Permutation, list] = {}

    # - word spans -
    def _build_words(self, d: int) -> None:
        for dd in range(max(self._word_basis) + 1, d + 1):
            rows: list = []
            kept = []
            for word, cls in self._word_basis[dd - 1]:
                for i in range(1, self.n):
                    nc = chevalley_product(i, cls, self.quantum)
                    vec = {k: Fraction(c) for k, c in nc.items()}
                    _eliminate(vec, rows)
                    if vec:
                        piv = min(vec)
                        cv = vec[piv]
                        rows.append((piv, {k: v / cv for k, v in vec.items()}))
                        kept.append((word + (i,), nc))
            self._word_basis[dd] = kept

    def _spanning(self, d: int):
        """Spanning elements (mu, word, class) with <2 rho, mu> + |word| = d."""
        self._build_words(d)
        n = self.n
        for mu in sorted(itertools.product(range(d // 2 + 1), repeat=n - 1)):
            s2 = 2 * sum(mu)
            if s2 > d or (not self.quantum and s2 > 0):
                continue
            for word, cls in self._word_basis[d - s2]:
                if s2 == 0:
                    shifted = cls
                else:
                    shifted = {
                        (rootsys.add_degrees(lam, mu), w): c
                        for (lam, w), c in cls.items()
                    }
                yield mu, word, shifted

    def _expander(self, d: int) -> list:
        if d not in self._rows:
            rows: list = []
            for mu, word, cls in self._spanning(d):
                vec = {k: Fraction(c) for k, c in cls.items()}
                combo = {(mu, word): Fraction(1)}
                _eliminate(vec, rows, combo)
                if vec:
                    piv = min(vec)
                    cv = vec[piv]
                    rows.append(
                        (
                            piv,
                            {k: v / cv for k, v in vec.items()},
                            {k: v / cv for k, v in combo.items()},
                        )
                    )
            self._rows[d] = rows
        return self._rows[d]

    # - public operations -
    def expand_in_generators(
        self, u: Permutation
    ) -> list[tuple[DegreeVector, tuple[int, ...], Fraction]]:
        """sigma^u = sum of coeff * q_mu * (word applied to sigma^id), exactly."""
        if u not in self._expansions:
            rows = self._expander(length(u))
            vec: dict = {(rootsys.zero_degree(self.n), u): Fraction(1)}
            combo: dict = {}
            _eliminate(vec, rows, combo)
            if vec:
                raise NotInSpanError(f"class of {u} not spanned at degree {length(u)}")
            self._expansions[u] = [
                (mu, word, -c) for (mu, word), c in combo.items() if c
            ]
        return self._expansions[u]

    def apply_word(self, word: Sequence[int], cls: QClass) -> QClass:
        for i in word:
            cls = chevalley_product(i, cls, self.quantum)
        return cls

    def product(self, u: Permutation, v: Permutation) -> QClass:
        """sigma^u * sigma^v via generator expansion of the shorter factor."""
        if len(u) != len(v) or len(u) != self.n:
            raise ValueError("rank mismatch")
        if length(u) > length(v):
            u, v = v, u
        expansion = self.expand_in_generators(u)
        base = {(rootsys.zero_degree(self.n), v): 1}
        # shared-prefix evaluation: the expansion words are prefix-closed
        cache: dict[tuple[int, ...], QClass] = {(): base}

        def word_class(word: tuple[int, ...]) -> QClass:
            if word in cache:
                return cache[word]
            cls = chevalley_product(word[-1], word_class(word[:-1]), self.quantum)
            cache[word] = cls
            return cls

        out: QClass = {}
        for mu, word, coeff in expansion:
            for (lam, w), c in word_class(word).items():
                key = (rootsys.add_degrees(lam, mu), w)
                val = out.get(key, 0) + coeff * c
                if val:
                    out[key] = val
                else:
                    del out[key]
        return _as_integral(out)


def _eliminate(vec: dict, rows: list, combo: Optional[dict] = None) -> None:
    """Reduce vec (and its spanning-combination bookkeeping) against rows."""
    for row in rows:
        piv, rvec = row[0], row[1]
        c = vec.get(piv)
        if not c:
            continue
        for k, rv in rvec.items():
            nv = vec.get(k, 0) - c * rv
            if nv:
                vec[k] = nv
            else:
                vec.pop(k, None)
        if combo is not None:
            for k, rv in row[2].items():
                nv = combo.get(k, 0) - c * rv
                if nv:
                    combo[k] = nv
                else:
                    combo.pop(k, None)


def _as_integral(cls: QClass) -> QClass:
    out = {}
    for k, c in cls.items():
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise NotInSpanError(f"non-integral coefficient {c} at {k}")
            c = c.numerator
        out[k] = c
    return out


@lru_cache(maxsize=None)
def get_engine(n: int, quantum: bool = True) -> RingEngine:
    return RingEngine(n, quantum)


def expand_in_generators(u: Permutation):
    return get_engine(len(u), True).expand_in_generators(u)
