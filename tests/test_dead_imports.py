"""No module of cgtkit imports a name it never uses.

A static check with the standard library's ast module: every name bound by
an import in a module under src/cgtkit must be read somewhere in that
module or listed in its __all__.  __init__.py re-exports by design and is
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cgtkit"

# Imported only so that the layer spans of perfbench/tracing.py can patch the
# name on the module; the module itself never calls it.
ALLOWED = {
    ("chartab", "modp_charpoly"): "patched by perfbench/tracing.py",
    ("chartab", "modp_kernel"): "patched by perfbench/tracing.py",
    ("chartab", "modp_roots"): "patched by perfbench/tracing.py",
    ("chartab", "modp_rref"): "patched by perfbench/tracing.py",
    ("sl2", "build_chain"): "patched by perfbench/tracing.py",
}


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return imported - used - exported


def test_the_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\n"
              "from math import gcd, lcm\n"
              "__all__ = ['lcm']\n"
              "def f(p):\n"
              "    from json import dumps\n"
              "    return os.path.join(p, str(gcd(2, 4)))\n")
    assert _unused_imports(source) == {"regex", "dumps"}


def test_no_module_imports_an_unused_name():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found |= {(path.stem, name)
                  for name in _unused_imports(path.read_text())}
    assert found - set(ALLOWED) == set()
    # an allowlisted name that a module uses again, or no longer imports,
    # leaves the list
    assert set(ALLOWED) <= found
