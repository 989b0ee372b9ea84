import gc

import pytest

from flagq import qhring, weyl


class Memos(dict):
    """Every memo RingEngine._mul is handed, by id; holding them keeps the ids apart."""

    def held_elsewhere(self) -> list:
        """What else refers to these memos: [] once no product or sweep keeps one."""
        return [r for memo in self.values() for r in gc.get_referrers(memo) if r is not self]


@pytest.fixture
def memos(monkeypatch):
    """Record the memos the engine's recursion receives, through RingEngine._mul."""
    seen = Memos()
    mul = qhring.RingEngine._mul

    def observed(self, w, z, memo):
        seen.setdefault(id(memo), memo)
        return mul(self, w, z, memo)

    monkeypatch.setattr(qhring.RingEngine, "_mul", observed)
    return seen


@pytest.fixture(scope="session")
def s4_table():
    """Every quantum product over S_4 x S_4, keyed by (u, v)."""
    engine = qhring.get_engine(4, True)
    perms = weyl.all_permutations(4)
    table = {}
    for i, u in enumerate(perms):
        for v in perms[i:]:
            p = engine.product(u, v)
            table[(u, v)] = p
            table[(v, u)] = p
    return table


@pytest.fixture(scope="session")
def s3_table():
    engine = qhring.get_engine(3, True)
    perms = weyl.all_permutations(3)
    return {
        (u, v): engine.product(u, v) for u in perms for v in perms
    }
