"""Exact quantum Schubert calculus on complete flag varieties Fl_n."""

from .qhring import (
    classical_product,
    peterson_woodward_lift,
    quantum_product,
    reduce_trace,
    structure_constant,
)
from .seidel import quantum_pieri, seidel_apply, seidel_power
from .ktheory import k_cup_special, pi_star, qk_conjecture_product

__all__ = [
    "classical_product",
    "k_cup_special",
    "peterson_woodward_lift",
    "pi_star",
    "qk_conjecture_product",
    "quantum_pieri",
    "quantum_product",
    "reduce_trace",
    "seidel_apply",
    "seidel_power",
    "structure_constant",
]

__version__ = "0.1.0"
