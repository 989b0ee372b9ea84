"""Persistent structure-constant tables.

Stored as line-oriented text, one record per term:

    n u v w lambda coeff

with one-line permutations as concatenated digits (comma-separated from
n = 10 on) and lambda as a comma-separated coefficient list; records sorted
by (u, v, lambda, w) so identical tables are byte-identical.  The one line
starting with '#' is the header, whose ``records=N`` lets ``load`` reject a
truncated file; ``load`` skips any other '#' line, so files that older
versions wrote with metadata lines still load.  ``save`` writes a temporary
file in the same directory and renames it over the target.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from . import weyl
from .qhring import QClass, get_engine
from .weyl import Permutation

FORMAT_VERSION = 1


@dataclass
class StructureTable:
    n: int
    entries: dict[tuple[Permutation, Permutation], QClass] = field(default_factory=dict)

    def put(self, u: Permutation, v: Permutation, cls: QClass) -> None:
        self.entries[(u, v)] = dict(cls)
        self.entries[(v, u)] = dict(cls)

    def get(self, u: Permutation, v: Permutation) -> QClass | None:
        return self.entries.get((u, v))

    def save(self, path: str | Path) -> None:
        """Write the table atomically: a temporary file, then ``os.replace``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = set()
        for (u, v), cls in self.entries.items():
            us, vs = weyl.perm_to_string(u, ","), weyl.perm_to_string(v, ",")
            for (lam, w), c in cls.items():
                records.add((us, vs, lam, weyl.perm_to_string(w, ","), int(c)))
        lines = [
            f"# flagq-table version={FORMAT_VERSION} n={self.n} records={len(records)}"
        ]
        for us, vs, lam, ws, c in sorted(records):
            lam_s = ",".join(str(a) for a in lam)
            lines.append(f"{self.n} {us} {vs} {ws} {lam_s} {c}")
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
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if table is None and "flagq-table" in line:
                    parts = dict(
                        p.split("=", 1) for p in line.split() if "=" in p
                    )
                    table = cls(n=int(parts["n"]))
                    expected = parts.get("records")
                continue
            if table is None:
                raise ValueError(f"{path}:{lineno}: missing table header")
            try:
                ns, us, vs, ws, lam_s, cs = line.split()
                if int(ns) != table.n:
                    raise ValueError("rank mismatch")
                u = weyl.perm_from_string(us)
                v = weyl.perm_from_string(vs)
                w = weyl.perm_from_string(ws)
                lam = tuple(int(a) for a in lam_s.split(","))
                c = int(cs)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad record ({e})") from e
            table.entries.setdefault((u, v), {})[(lam, w)] = c
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
    """Full quantum product table over S_n pairs (u <= v in one-line order)."""
    table = StructureTable(n)
    engine = get_engine(n, True)
    perms = weyl.all_permutations(n)
    for i, u in enumerate(perms):
        for v in perms[i:]:
            table.put(u, v, engine.product(u, v))
    return table
