"""Persistent structure-constant tables.

Stored as line-oriented text, one record per term:

    n u v w lambda coeff

with one-line permutations as concatenated digits (comma-separated from
n = 10 on) and lambda as a comma-separated coefficient list.  The product
is commutative, so a file holds each unordered pair once, u before v in
string order, and ``load`` keeps its class under both (u, v) and (v, u);
a file that older versions wrote with both orientations loads to the same
entries.  Records are sorted by (u, v, lambda, w), so identical tables
are byte-identical.  The one line starting with '#' is the header, whose
``records=N`` lets ``load`` reject a truncated file; ``load`` skips any
other '#' line, so files that older versions wrote with metadata lines still
load.  ``load`` parses and checks each distinct permutation and degree
string once, where it first appears, and rejects, with its line number, a
header without an integer ``n=`` and a record whose permutations do not have
n entries or whose degree is not n - 1 nonnegative integers.  ``save``
renders each distinct permutation and degree once, writes a temporary file
in the same directory and renames it over the target.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import qhring, rootsys, weyl
from .qhring import QClass
from .weyl import Permutation

FORMAT_VERSION = 1


@dataclass
class StructureTable:
    n: int
    entries: dict[tuple[Permutation, Permutation], QClass] = field(default_factory=dict)

    def put(self, u: Permutation, v: Permutation, cls: QClass) -> None:
        self.entries[(u, v)] = self.entries[(v, u)] = dict(cls)

    def get(self, u: Permutation, v: Permutation) -> QClass | None:
        return self.entries.get((u, v))

    def save(self, path: str | Path) -> None:
        """Write the table atomically: a temporary file, then ``os.replace``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        name = functools.cache(lambda u: weyl.perm_to_string(u, ","))
        # keyed by the sorted pair, so (v, u) adds nothing to (u, v)
        records = set()
        for (u, v), cls in self.entries.items():
            us, vs = sorted((name(u), name(v)))
            for (lam, w), c in cls.items():
                records.add((us, vs, lam, name(w), int(c)))
        lines = [
            f"# flagq-table version={FORMAT_VERSION} n={self.n} records={len(records)}"
        ]
        degree = functools.cache(lambda lam: ",".join(str(a) for a in lam))
        for us, vs, lam, ws, c in sorted(records):
            lines.append(f"{self.n} {us} {vs} {ws} {degree(lam)} {c}")
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text("\n".join(lines) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "StructureTable":
        path = Path(path)
        table, expected, count = None, None, 0

        # each distinct token is parsed and checked once, where it first appears
        perm = functools.cache(lambda s: weyl.perm_from_string(s, table.n))

        @functools.cache
        def degree(s: str) -> tuple[int, ...]:
            lam = rootsys.degree_from_string(s, table.n)
            if min(lam) < 0:
                raise ValueError(f"degree {s!r} has a negative entry")
            return lam

        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            header = line.startswith("#")
            if not line or (header and (table is not None or "flagq-table" not in line)):
                continue
            if table is None and not header:
                raise ValueError(f"{path}:{lineno}: missing table header")
            try:
                if header:
                    parts = dict(p.split("=", 1) for p in line.split() if "=" in p)
                    if "n" not in parts:
                        raise ValueError("missing n=")
                    table, expected = cls(n=int(parts["n"])), parts.get("records")
                    continue
                ns, us, vs, ws, lam_s, cs = line.split()
                if int(ns) != table.n:
                    raise ValueError("rank mismatch")
                u, v, w = perm(us), perm(vs), perm(ws)
                lam = degree(lam_s)
                c = int(cs)
            except ValueError as e:
                what = "table header" if header else "record"
                raise ValueError(f"{path}:{lineno}: bad {what} ({e})") from e
            product = table.entries.get((u, v))
            if product is None:
                # the pair's first record: one class under both orientations
                product = table.entries[(u, v)] = table.entries[(v, u)] = {}
            product[(lam, w)] = c
            count += 1
        if table is None:
            raise ValueError(f"{path}: empty table file")
        if expected != str(count):
            raise ValueError(f"{path}: {count} records, header has records={expected}")
        return table


def table_path(cache_dir: str | Path, n: int) -> Path:
    """Where the rank-n table lives in a cache directory."""
    return Path(cache_dir) / f"table_n{n}.txt"


def build_table(n: int) -> StructureTable:
    """Full quantum product table over S_n pairs, one product per unordered pair,
    grouped by the later factor in (length, one-line) order: one products_with sweep each."""
    table = StructureTable(n)
    perms = sorted(weyl.all_permutations(n), key=lambda u: (weyl.length(u), u))
    for k, z in enumerate(perms):
        for u, product in zip(perms, qhring.products_with(z, perms[: k + 1])):
            table.put(u, z, product)
    return table
