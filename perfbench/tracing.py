"""Per-layer tracing of flagq, installed from outside its source.

Each layer is one flagq module.  ``Tracer.install`` replaces the layer's
public functions with timing wrappers in every flagq module namespace that
binds them, so internal calls (``RingEngine.product`` calling
``quantum_chevalley``, ``normal_form`` calling ``pmul``) are caught too.
``rootsys`` and ``reporting`` are too thin to time on their own; their time
counts as self time of the caller.

A wrapper keeps, per traced name, the call count, the total time and the
self time (its span minus the spans of the wrapped calls made inside it),
and records a span (id, parent id, name, op id, start, end) whenever a call
crosses from one layer into another.  Spans stay in memory and are written
out once, at the end of the run.  Calls inside one layer (``pmul`` from
``normal_form``, ``multiply`` from ``canonical_factorization``) are only
aggregated: there are millions of them on the K-theory workload.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

# (layer, module, attribute or Class.method, aggregation key)
TARGETS = [
    ("cli", "flagq.cli", "main", "cli.main"),
    ("cli", "flagq.cli", "render_class", "cli.render"),
    ("cli", "flagq.cli", "class_to_json", "cli.render"),
    ("cli", "flagq.cli", "emit", "cli.render"),
    ("qhring", "flagq.qhring", "quantum_chevalley", "qhring.quantum_chevalley"),
    ("qhring", "flagq.qhring", "RingEngine.expand_in_generators",
     "qhring.expand_in_generators"),
    ("qhring", "flagq.qhring", "RingEngine.product", "qhring.product"),
    ("qhring", "flagq.qhring", "reduce_trace", "qhring.reduce_trace"),
    ("qhring", "flagq.qhring", "verify_filtration", "qhring.verify_filtration"),
    ("seidel", "flagq.seidel", "quantum_pieri", "seidel.quantum_pieri"),
    ("seidel", "flagq.seidel", "seidel_apply", "seidel.seidel_apply"),
    ("seidel", "flagq.seidel", "verify_seidel", "seidel.verify"),
    ("seidel", "flagq.seidel", "verify_pieri", "seidel.verify"),
    ("seidel", "flagq.seidel", "verify_support", "seidel.verify"),
    ("seidel", "flagq.seidel", "explore_classical_equality", "seidel.explore"),
    ("weyl", "flagq.weyl", "multiply", "weyl.multiply"),
    ("weyl", "flagq.weyl", "canonical_factorization", "weyl.canonical_factorization"),
    ("weyl", "flagq.weyl", "canonical_word", "weyl.canonical_word"),
    ("weyl", "flagq.weyl", "lambda_cumulative", "weyl.lambda_cumulative"),
    ("weyl", "flagq.weyl", "u_up", "weyl.u_up"),
    ("weyl", "flagq.weyl", "bruhat_leq", "weyl.bruhat_leq"),
    ("polynomials", "flagq.polynomials", "grothendieck", "polynomials.grothendieck"),
    ("polynomials", "flagq.polynomials", "pmul", "polynomials.pmul"),
    ("polynomials", "flagq.polynomials", "padd", "polynomials.padd"),
    ("polynomials", "flagq.polynomials", "normal_form", "polynomials.normal_form"),
    ("polynomials", "flagq.polynomials", "expand_grothendieck",
     "polynomials.expand_grothendieck"),
    ("ktheory", "flagq.ktheory", "k_product", "ktheory.k_product"),
    ("ktheory", "flagq.ktheory", "qk_conjecture_product", "ktheory.qk_conjecture_product"),
    ("ktheory", "flagq.ktheory", "pi_star", "ktheory.pi_star"),
    ("ktheory", "flagq.ktheory", "k_verify", "ktheory.k_verify"),
    ("table", "flagq.table", "build_table", "table.build_table"),
    ("table", "flagq.table", "StructureTable.save", "table.save"),
    ("table", "flagq.table", "StructureTable.load", "table.load"),
]

LAYERS = ("cli", "qhring", "seidel", "weyl", "polynomials", "ktheory", "table")

# per-layer metric -> (unit, better); see perfbench/README.md for which
# end-to-end metric each should move, and on which workload
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "qhring.expand_in_generators.self_s": ("s", "lower"),
    "qhring.expander_rows": ("count", "lower"),
    "qhring.quantum_chevalley.calls": ("count", "lower"),
    "qhring.quantum_chevalley.self_s": ("s", "lower"),
    "qhring.quantum_chevalley.terms_out": ("count", "lower"),
    "qhring.product.self_s": ("s", "lower"),
    "qhring.moves_memo.hit_ratio": ("ratio", "higher"),
    "qhring.reduce_trace.self_s": ("s", "lower"),
    "qhring.reduce_trace.states": ("count", "lower"),
    "seidel.quantum_pieri.calls": ("count", "lower"),
    "seidel.quantum_pieri.self_s": ("s", "lower"),
    "seidel.verify.self_s": ("s", "lower"),
    "weyl.calls": ("count", "lower"),
    "polynomials.normal_form.calls": ("count", "lower"),
    "polynomials.normal_form.self_s": ("s", "lower"),
    "polynomials.normal_form.terms_in": ("count", "lower"),
    "polynomials.normal_form.terms_out": ("count", "lower"),
    "polynomials.pmul.calls": ("count", "lower"),
    "polynomials.padd.calls": ("count", "lower"),
    "polynomials.expand_grothendieck.self_s": ("s", "lower"),
    "polynomials.grothendieck.hit_ratio": ("ratio", "higher"),
    "ktheory.k_product.self_s": ("s", "lower"),
    "ktheory.qk_conjecture_product.self_s": ("s", "lower"),
    "ktheory.pi_star.self_s": ("s", "lower"),
    "ktheory.violations": ("count", "lower"),
    "table.load.calls": ("count", "lower"),
    "table.load.self_s": ("s", "lower"),
    "table.bytes_read": ("bytes", "lower"),
    "table.build_table.self_s": ("s", "lower"),
    "table.save.self_s": ("s", "lower"),
    "table.bytes_written": ("bytes", "lower"),
    "cli.render.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _flagq_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flagq" or name.startswith("flagq."))]


def _rebind(old, new) -> None:
    """Point every flagq module-level name bound to ``old`` at ``new``."""
    for mod in _flagq_modules():
        for name in [k for k, v in vars(mod).items() if v is old]:
            setattr(mod, name, new)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# counters taken from a wrapped call's arguments and result
OBSERVERS = {
    "qhring.quantum_chevalley": lambda a, r: {"qhring.quantum_chevalley.terms_out": len(r)},
    "qhring.reduce_trace": lambda a, r: {"qhring.reduce_trace.states": len(r.states)},
    "polynomials.normal_form": lambda a, r: {
        "polynomials.normal_form.terms_in": len(a[0]),
        "polynomials.normal_form.terms_out": len(r),
    },
    "table.load": lambda a, r: {"table.bytes_read": _size(a[1])},
    "table.save": lambda a, r: {"table.bytes_written": _size(a[1])},
}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = []
        self.key_layer: list[int] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {}
        # flat (span id, parent span id, key id, op id, start ns, end ns)
        self.spans = array("q")
        self.op = -1
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._memos: list = []
        self._engines: dict[int, object] = {}

    def _key(self, key: str, layer: str) -> int:
        if key not in self.keys:
            self.keys.append(key)
            self.key_layer.append(LAYERS.index(layer))
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self.keys.index(key)

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    # - installation -
    def install(self) -> None:
        """Wrap the TARGETS of the flagq modules currently imported."""
        self._memos = []
        self._engines = {}
        for layer, modname, qual, key in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue  # a later version may drop a function: report zeros
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, key, layer)))
            elif owner_name:
                setattr(owner, attr, self._wrap(raw, key, layer))
            else:
                if hasattr(raw, "cache_info"):
                    self._memos.append((key, raw))
                _rebind(raw, self._wrap(raw, key, layer))
        qhring = sys.modules.get("flagq.qhring")
        moves = getattr(qhring, "_chevalley_moves", None)
        if hasattr(moves, "cache_info"):
            self._memos.append(("qhring.moves_memo", moves))
        get_engine = getattr(qhring, "get_engine", None)
        if get_engine is not None:
            engines = self._engines

            @functools.wraps(get_engine)
            def observed(*args, **kwargs):
                engine = get_engine(*args, **kwargs)
                engines[id(engine)] = engine
                return engine

            _rebind(get_engine, observed)

    def _wrap(self, fn, key: str, layer: str):
        kid = self._key(key, layer)
        lid = self.key_layer[kid]
        stack, calls, total, own = self._stack, self.calls, self.total_ns, self.self_ns
        spans, clock, tracer = self.spans, time.perf_counter_ns, self
        observe = OBSERVERS.get(key)
        violation = key == "ktheory.qk_conjecture_product"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[0] != lid
            if boundary:
                sid = tracer._next_span
                tracer._next_span += 1
            else:
                sid = parent[1]
            frame = [lid, sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if violation and type(exc).__name__ == "ConjectureViolation":
                    tracer.count("ktheory.violations", 1)
                raise
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[kid] += 1
                total[kid] += d
                own[kid] += d - frame[2]
                if parent is not None:
                    parent[2] += d
                if boundary:
                    spans.extend((sid, parent[1] if parent else -1, kid, tracer.op, t0, t1))
            if observe is not None:
                for name, k in observe(args, result).items():
                    tracer.count(name, k)
            return result

        return traced

    def end_session(self) -> None:
        """Read memo statistics before the session's modules are dropped."""
        for key, memo in self._memos:
            info = memo.cache_info()
            self.count(f"{key}.hits", info.hits)
            self.count(f"{key}.misses", info.misses)
        self.count("qhring.expander_rows", sum(
            len(rows)
            for engine in self._engines.values()
            for rows in getattr(engine, "_rows", {}).values()
        ))
        self._memos = []
        self._engines = {}

    # - results -
    def _sum(self, values: list[int], prefix: str) -> int:
        return sum(v for k, v in zip(self.keys, values) if k == prefix or k.startswith(prefix + "."))

    def _ratio(self, key: str) -> float:
        hits = self.counts.get(f"{key}.hits", 0)
        attempts = hits + self.counts.get(f"{key}.misses", 0)
        return hits / attempts if attempts else 0.0

    def metrics(self, overhead: float, bytes_out: int) -> dict[str, float]:
        s = lambda prefix: self._sum(self.self_ns, prefix) / 1e9
        calls = lambda prefix: self._sum(self.calls, prefix)
        layer_self = {
            f"{layer}.self_s": sum(
                v for v, lid in zip(self.self_ns, self.key_layer) if LAYERS[lid] == layer
            ) / 1e9
            for layer in LAYERS
        }
        return {
            **layer_self,
            "qhring.expand_in_generators.self_s": s("qhring.expand_in_generators"),
            "qhring.expander_rows": self.counts.get("qhring.expander_rows", 0),
            "qhring.quantum_chevalley.calls": calls("qhring.quantum_chevalley"),
            "qhring.quantum_chevalley.self_s": s("qhring.quantum_chevalley"),
            "qhring.quantum_chevalley.terms_out":
                self.counts.get("qhring.quantum_chevalley.terms_out", 0),
            "qhring.product.self_s": s("qhring.product"),
            "qhring.moves_memo.hit_ratio": self._ratio("qhring.moves_memo"),
            "qhring.reduce_trace.self_s": s("qhring.reduce_trace"),
            "qhring.reduce_trace.states": self.counts.get("qhring.reduce_trace.states", 0),
            "seidel.quantum_pieri.calls": calls("seidel.quantum_pieri"),
            "seidel.quantum_pieri.self_s": s("seidel.quantum_pieri"),
            "seidel.verify.self_s": s("seidel.verify"),
            "weyl.calls": calls("weyl"),
            "polynomials.normal_form.calls": calls("polynomials.normal_form"),
            "polynomials.normal_form.self_s": s("polynomials.normal_form"),
            "polynomials.normal_form.terms_in":
                self.counts.get("polynomials.normal_form.terms_in", 0),
            "polynomials.normal_form.terms_out":
                self.counts.get("polynomials.normal_form.terms_out", 0),
            "polynomials.pmul.calls": calls("polynomials.pmul"),
            "polynomials.padd.calls": calls("polynomials.padd"),
            "polynomials.expand_grothendieck.self_s": s("polynomials.expand_grothendieck"),
            "polynomials.grothendieck.hit_ratio": self._ratio("polynomials.grothendieck"),
            "ktheory.k_product.self_s": s("ktheory.k_product"),
            "ktheory.qk_conjecture_product.self_s": s("ktheory.qk_conjecture_product"),
            "ktheory.pi_star.self_s": s("ktheory.pi_star"),
            "ktheory.violations": self.counts.get("ktheory.violations", 0),
            "table.load.calls": calls("table.load"),
            "table.load.self_s": s("table.load"),
            "table.bytes_read": self.counts.get("table.bytes_read", 0),
            "table.build_table.self_s": s("table.build_table"),
            "table.save.self_s": s("table.save"),
            "table.bytes_written": self.counts.get("table.bytes_written", 0),
            "cli.render.self_s": s("cli.render"),
            "cli.bytes_out": bytes_out,
            "trace.overhead_ratio": overhead,
        }

    def write(self, path: Path) -> None:
        """Write the spans and the per-name aggregates as one JSON file."""
        path.write_text(json.dumps({
            "span_fields": ["id", "parent", "name", "op", "start_ns", "end_ns"],
            "names": self.keys,
            "layers": [LAYERS[lid] for lid in self.key_layer],
            "spans": self.spans.tolist(),
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counts": self.counts,
        }))
