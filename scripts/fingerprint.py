#!/usr/bin/env python3
"""Print sha256 fingerprints of the toolkit's exact outputs.

One line per output: ``<kind> <name> <sha256>``.  Two checkouts that print
the same lines produce byte-identical class data, character tables and
triple reports.  The outputs covered:

- ``classes``: names, representatives, sizes and power maps of
  ``catalog.class_system(name)`` for every ``verify.NEUMANN_GROUPS`` group;
- ``table``: ``catalog.character_table(name, use_file_cache=False).to_json()``
  for the same groups (the combinatorial engine for A_n);
- ``dixon``: ``dixon_table(...).to_json()`` for A5-A8, the class-algebra
  engine on the groups the combinatorial one also covers;
- ``triples``: ``enumerate_triples(...).to_json()`` (totals, histograms,
  witnesses) on a few small groups;
- ``verify-paper`` (with ``--verify-paper``): ``verify-paper --json`` with
  every ``elapsed`` field masked.

Usage: python scripts/fingerprint.py [--verify-paper]
"""

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cgtkit import catalog, cli, verify
from cgtkit.chartab import dixon_table
from cgtkit.gentriples import enumerate_triples
from cgtkit.permgroup import conjugacy_classes

DIXON_GROUPS = ["A5", "A6", "A7", "A8"]
# (group, class, a, classify)
TRIPLES = [("A5", "5a", 1, True), ("A5", "3a", -2, True),
           ("L2(7)", "7a", 1, True), ("L2(7)", "7a", -2, True),
           ("A7", "7a", 1, True), ("M11", "11a", 1, True), ("M11", "11a", 2, False)]


def sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def class_data(cs) -> list:
    return [[c.name, list(c.representative.images), c.size, c.rep_order,
             sorted(c.power_map.items())] for c in cs.classes]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verify-paper", action="store_true",
                    help="also hash `verify-paper --json` with elapsed masked")
    args = ap.parse_args()
    for name in verify.NEUMANN_GROUPS:
        print("classes", name, sha(class_data(catalog.class_system(name))), flush=True)
        table = catalog.character_table(name, use_file_cache=False)
        print("table", name, sha(table.to_json()), flush=True)
    for name in DIXON_GROUPS:
        chain = catalog.load_group(name)[1]
        print("dixon", name, sha(dixon_table(conjugacy_classes(chain), name).to_json()),
              flush=True)
    for name, cname, a, classify in TRIPLES:
        chain = catalog.load_group(name)[1]
        r = enumerate_triples(chain, catalog.class_system(name), cname, a,
                              classify=classify, table=catalog.character_table(name),
                              group_name=name)
        print("triples", f"{name}:{cname}:{a}", sha(r.to_json()), flush=True)
    if args.verify_paper:
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main(["verify-paper", "--json"])
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        for rep in reports:
            for check in rep["checks"]:
                check["elapsed"] = None
        print("verify-paper", f"status={status}", sha(reports), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
