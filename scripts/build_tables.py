#!/usr/bin/env python3
"""Precompute character tables into the data/tables cache.

Tables are computed by the appropriate engine (combinatorial for A_n/S_n,
class-algebra method otherwise), fully verified, and written in the JSON
wire format.  catalog.character_table() picks them up on load (and
re-runs CharacterTable.verify then: the exact invariants and the column
orthogonality relations, which imply the row relations, so a corrupted
cache can never go unnoticed).

Usage: python scripts/build_tables.py [NAME ...]
       default: every group the verification suites touch
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cgtkit import catalog, verify

# the Neumann suite's groups, and A4, which the tensor suite reads
DEFAULT = ["A4", *verify.NEUMANN_GROUPS]


def main():
    names = sys.argv[1:] or DEFAULT
    outdir = catalog.data_dir() / "tables"
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.time()
        table = catalog.character_table(name, use_file_cache=False)
        path = outdir / (catalog._table_filename(name))
        catalog.save_table(table, path)
        reloaded = catalog.load_table(path)  # full re-verification
        assert reloaded.group_name == table.group_name
        print(f"{name}: {table.n_classes} classes -> {path} "
              f"({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
