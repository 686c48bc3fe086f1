#!/usr/bin/env python3
"""Write src/cgtkit/data/zsigmondy.json, the certified Zsigmondy factorizations.

For every (q, e) of the verify-paper grid (prime powers q <= 64,
3 <= e <= 30, q^e - 1 <= 2^128) the file lists the sorted primes of
phi_star(q, e), found by sympy.factorint.  Every prime from 2^64 up that
appears, in a factorization or in the p - 1 of another certificate, gets a
Pratt certificate: the smallest a >= 2 of order p - 1 modulo p and the
sorted primes of p - 1.  cgtkit.zsigmondy trusts none of it and proves
every entry on load; this script loads the file it wrote the same way.

The output is the same, byte for byte, on every run.

Usage: python scripts/make_zsigmondy_certs.py
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sympy

from cgtkit import zsigmondy


def certificate(p: int) -> list:
    rs = sorted(sympy.factorint(p - 1))
    a = 2
    while any(pow(a, (p - 1) // r, p) == 1 for r in rs):
        a += 1
    return [p, a, rs]


def main() -> int:
    t0 = time.perf_counter()
    factorizations = [
        [r.q, r.e, sorted(sympy.factorint(r.phi_star))]
        for r in zsigmondy.scan_reports(zsigmondy.TABLE_Q_MAX, zsigmondy.TABLE_E_MAX)]
    todo = sorted({p for _, _, primes in factorizations for p in primes
                   if p >= zsigmondy.CERTIFICATE_FLOOR})
    certificates = {}
    while todo:
        p = todo.pop()
        if p not in certificates:
            certificates[p] = certificate(p)
            todo += [r for r in certificates[p][2] if r >= zsigmondy.CERTIFICATE_FLOOR]

    def rows(items) -> str:
        return ",\n".join("    " + json.dumps(item) for item in items)

    text = ("{\n"
            '  "source": "scripts/make_zsigmondy_certs.py",\n'
            '  "factorizations": [\n' + rows(factorizations) + "\n  ],\n"
            '  "certificates": [\n' + rows(certificates[p] for p in sorted(certificates))
            + "\n  ]\n}\n")
    out = zsigmondy._TABLE_PATH
    out.write_text(text)
    t1 = time.perf_counter()
    zsigmondy._certified_table.cache_clear()
    zsigmondy._certified_table()
    t2 = time.perf_counter()
    print(f"wrote {out.name}: {len(factorizations)} factorizations, "
          f"{len(certificates)} certificates, {len(text)} bytes in {t1 - t0:.1f} s; "
          f"proven on load in {t2 - t1:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
