"""Type A_{n-1} root system data.

Positive roots are stored as index pairs (a, b) with 1 <= a < b <= n,
standing for e_a - e_b = alpha_a + ... + alpha_{b-1}.  Coroots and curve
degrees live in the coroot lattice as integer vectors of length n-1 in the
basis of simple coroots.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .weyl import DegreeVector, word_from_string

Root = tuple[int, int]


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Root, ...]:
    return tuple((a, b) for a in range(1, n) for b in range(a + 1, n + 1))


def coroot(gamma: Root, n: int) -> DegreeVector:
    """gamma^vee for gamma = e_a - e_b: the interval vector on [a, b-1]."""
    a, b = gamma
    if not 1 <= a < b <= n:
        raise ValueError(f"{gamma} is not a positive root for n={n}")
    return tuple(1 if a <= k <= b - 1 else 0 for k in range(1, n))


def zero_degree(n: int) -> DegreeVector:
    return (0,) * (n - 1)


def add_degrees(lam: DegreeVector, mu: DegreeVector) -> DegreeVector:
    return tuple(a + b for a, b in zip(lam, mu))


def is_nonnegative(lam: DegreeVector) -> bool:
    return all(a >= 0 for a in lam)


def pair_2rho(lam: DegreeVector) -> int:
    """<2 rho, lam> = 2 * sum of coefficients."""
    return 2 * sum(lam)


def pair_root(i: int, lam: DegreeVector) -> int:
    """Cartan pairing <alpha_i, lam> = 2 lam_i - lam_{i-1} - lam_{i+1}."""
    left = lam[i - 2] if i >= 2 else 0
    right = lam[i] if i <= len(lam) - 1 else 0
    return 2 * lam[i - 1] - left - right


def pair_positive_root(gamma: Root, lam: DegreeVector) -> int:
    """<e_a - e_b, lam> as a telescoping difference of consecutive coefficients."""
    a, b = gamma
    ext = (0,) + tuple(lam) + (0,)
    return (ext[a] - ext[a - 1]) - (ext[b] - ext[b - 1])


def parabolic_positive_roots(delta_p: Iterable[int], n: int) -> frozenset[Root]:
    """R_P^+: positive roots whose simple-root support lies inside Delta_P."""
    dp = set(delta_p)
    if not dp <= set(range(1, n)):
        raise ValueError(f"Delta_P {sorted(dp)} not a subset of simple indices")
    return frozenset(
        (a, b) for (a, b) in positive_roots(n) if all(k in dp for k in range(a, b))
    )


# --- serialization ---------------------------------------------------------

def q_monomial_string(lam: DegreeVector) -> str:
    """Render a degree vector as "q1^a1*q2*..." omitting zero exponents."""
    parts = []
    for i, a in enumerate(lam, start=1):
        if a == 0:
            continue
        parts.append(f"q{i}" if a == 1 else f"q{i}^{a}")
    return "*".join(parts) if parts else "1"


def degree_from_string(s: str, n: int) -> DegreeVector:
    """Parse a comma-separated coefficient list ("1,1,0"); empty means degree 0."""
    vals = word_from_string(s) or zero_degree(n)
    if len(vals) != n - 1:
        raise ValueError(f"degree vector needs {n - 1} entries, got {len(vals)}")
    return vals
