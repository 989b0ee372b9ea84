"""Shared pass/fail report structure for verification sweeps."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class VerifyReport:
    name: str
    n: int
    total: int = 0
    passed: int = 0
    counterexamples: list[Any] = field(default_factory=list)

    def record(self, ok: bool, witness: Any = None, count: int = 1) -> None:
        """Record ``count`` cases that share one verdict."""
        self.total += count
        if ok:
            self.passed += count
        elif witness is not None:
            self.counterexamples.append(witness)
        # a failure with no witness still counts against `passed`

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "total": self.total,
            "passed": self.passed,
            "counterexamples": [repr(c) for c in self.counterexamples],
        }
