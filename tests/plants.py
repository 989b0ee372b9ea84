"""Planted product faults at both seams the sweeps multiply through.

A sweep over one kept factor z takes its products from
``qhring.products_with(z, us)``; single products come from
``qhring.quantum_product`` or ``qhring.classical_product``.  ``plant``
patches both, so that a planted fault reaches a sweep and the oracle it is
compared with alike.  ``negate_engine`` and ``shift_engine`` plant a fault
below both, inside the engine, where its own check must catch it.
"""
from flagq import qhring, rootsys


def plant(monkeypatch, wrong, quantum=True):
    """Replace each product sigma^u * sigma^z of one engine by wrong(u, z, product).

    ``quantum`` picks the engine: quantum_product and the quantum sweeps of
    products_with, or classical_product and its classical sweeps.
    """
    planted_engine = quantum
    name = "quantum_product" if quantum else "classical_product"
    single = getattr(qhring, name)
    sweep = qhring.products_with

    def planted_single(u, z):
        return wrong(u, z, single(u, z))

    def planted_sweep(z, us, quantum=True):
        us = list(us)
        products = sweep(z, us, quantum)
        if quantum != planted_engine:
            return products
        return (wrong(u, z, out) for out, u in zip(products, us))

    monkeypatch.setattr(qhring, name, planted_single)
    monkeypatch.setattr(qhring, "products_with", planted_sweep)


def negate_engine(monkeypatch):
    """Negate every coefficient RingEngine._mul returns, in both engines."""
    mul = qhring.RingEngine._mul

    def negated(self, w, z, memo):
        return tuple(-x if i % 2 else x for i, x in enumerate(mul(self, w, z, memo)))

    monkeypatch.setattr(qhring.RingEngine, "_mul", negated)


def shift_engine(monkeypatch):
    """Give sigma^id * sigma^z = sigma^z an extra q^{alpha_1^vee} in both engines' _mul.

    Every product the recursion builds from it then has the same extra
    q-degree, with its coefficients unchanged: the shifted term also goes
    into the memo, where _mul reads it back.
    """
    mul = qhring.RingEngine._mul

    def shifted(self, w, z, memo):
        terms = mul(self, w, z, memo)
        if w == self._identity:
            shift = qhring._code(rootsys.coroot((1, 2), self.n)) << self._bits
            terms = memo[w] = (z + shift, 1)
        return terms

    monkeypatch.setattr(qhring.RingEngine, "_mul", shifted)
