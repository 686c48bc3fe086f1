"""The benchmark's tracer wraps cgtkit from outside: every name it patches
must still exist, or ``perfbench/run.py --trace 1`` fails to install."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cgtkit import zsigmondy
from cgtkit.cyclotomic import Cyclotomic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    tracing = _tracing()
    for module_name, attr, _ in tracing.PATCH_POINTS:
        owner, leaf = tracing._resolve(module_name, attr)
        assert callable(getattr(owner, leaf)), f"{module_name}.{attr}"


def test_every_cyclotomic_operator_is_a_class_attribute():
    for attr, _ in _tracing().CYCLOTOMIC_OPS:
        assert callable(Cyclotomic.__dict__.get(attr)), attr
    assert "__radd__" in Cyclotomic.__dict__ and "__rmul__" in Cyclotomic.__dict__


def test_tracer_installs_and_restores():
    tracing = _tracing()
    before = {attr: Cyclotomic.__dict__[attr] for attr, _ in tracing.CYCLOTOMIC_OPS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert (Cyclotomic.one() + Cyclotomic.one()).integer() == 2
        assert tracer.cyclo["add"] == 1
    finally:
        tracer.uninstall()
    assert {attr: Cyclotomic.__dict__[attr] for attr, _ in tracing.CYCLOTOMIC_OPS} == before


def test_certified_zsigmondy_table_is_lazy_and_cleared_each_round():
    # the benchmark's reset_session calls every cache_clear among a module's
    # attributes, so each round pays the load; importing must not pay it
    assert callable(vars(zsigmondy)["_certified_table"].cache_clear)
    probe = "import cgtkit, cgtkit.zsigmondy as z; print(z._certified_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0"


def test_reset_session_empties_every_catalog_cache():
    # catalog's session lives in module-level lru_caches, which reset_session
    # reaches through its cache_clear walk: every round starts from nothing
    probe = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(PERFBENCH)!r})",
        "from cgtkit import catalog",
        "import workloads",
        "catalog.character_table('A5'); catalog.character_table('L2(7)')",
        "catalog.verify_integrity('M11')",
        "caches = {k: v for k, v in vars(catalog).items() if hasattr(v, 'cache_info')}",
        "before = {k: v.cache_info().currsize for k, v in caches.items()}",
        "workloads.reset_session()",
        "print(json.dumps([before, {k: v.cache_info().currsize for k, v in caches.items()}]))",
    ])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    before, after = json.loads(out.stdout)
    assert len(before) >= 3 and all(before.values()), before
    assert set(after.values()) == {0}, after
