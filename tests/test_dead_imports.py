"""No module of cgtkit imports a name it never uses, or defines one no
caller reads.

Static checks with the standard library's ast module:
- every name bound by an import in a module under src/cgtkit must be read
  somewhere in that module or listed in its __all__ (__init__.py
  re-exports by design and is exempt);
- every module-level function, class and constant of src/cgtkit that its
  module's __all__ does not list must be read somewhere in src/cgtkit,
  scripts/ or perfbench/, outside its own definition.  Tests do not count
  as callers.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cgtkit"

# Imported only so that the layer spans of perfbench/tracing.py can patch the
# name on the module; the module itself never calls it.
ALLOWED = {
    ("chartab", "modp_charpoly"): "patched by perfbench/tracing.py",
    ("chartab", "modp_kernel"): "patched by perfbench/tracing.py",
    ("chartab", "modp_roots"): "patched by perfbench/tracing.py",
    ("chartab", "modp_rref"): "patched by perfbench/tracing.py",
    ("sl2", "build_chain"): "patched by perfbench/tracing.py",
}


def _exported(body) -> set:
    exported = set()
    for node in body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return exported


def _unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - _exported(tree.body)


def _defined(stmt) -> set:
    """Names a module-level statement defines: functions, classes and
    assigned constants, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")}


def _reads(node) -> set:
    """Names read under `node`: loaded names, attributes, imported names,
    and the dotted parts of string constants (a patch point such as
    "AnClassSystem.class_of_images" names what it patches)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out |= set(n.value.split("."))
    return out


def _unread_definitions(modules: dict, callers: list) -> set:
    """(module, name) for each name that a module of `modules` (stem ->
    source) defines at module level and leaves out of its __all__, when no
    other module-level statement and no source of `callers` reads it."""
    read = set()
    for source in callers:
        read |= _reads(ast.parse(source))
    bodies = {stem: ast.parse(source).body for stem, source in modules.items()}
    # the number of module-level statements that read each name
    readers = Counter(name for body in bodies.values() for stmt in body
                      for name in _reads(stmt))
    unread = set()
    for stem, body in bodies.items():
        exported = _exported(body)
        for stmt in body:
            for name in _defined(stmt) - exported - read:
                # no statement but its own definition reads it
                if readers[name] == (name in _reads(stmt)):
                    unread.add((stem, name))
    return unread


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


def test_the_checker_finds_an_unread_definition():
    module = ("import os\n"
              "__all__ = ['f', 'g']\n"
              "_LIMIT = 3\n"
              "_PATCHED = 4\n"
              "_UNREAD = 5\n"
              "def f():\n"
              "    return _helper() + _LIMIT\n"
              "def g():\n"
              "    return 0\n"
              "def _helper():\n"
              "    return 1\n"
              "def _dead():\n"
              "    return _LIMIT\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else 0\n"
              "class _Unused:\n"
              "    pass\n"
              "class _Patched:\n"
              "    def run(self):\n"
              "        return 0\n"
              "def called_from_a_script():\n"
              "    return 2\n")
    caller = ("from m import called_from_a_script\n"
              "import m\n"
              "POINTS = [('m', '_Patched.run')]\n"
              "m._PATCHED = called_from_a_script()\n")
    assert _unread_definitions({"m": module}, [caller]) == {
        ("m", "_UNREAD"), ("m", "_dead"), ("m", "_recursive"), ("m", "_Unused")}


def test_every_unexported_definition_has_a_reader():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert _unread_definitions(modules, callers) == set()
