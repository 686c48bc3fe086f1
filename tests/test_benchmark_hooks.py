"""The benchmark's tracer wraps cgtkit from outside: every name it patches
must still exist, or ``perfbench/run.py --trace 1`` fails to install."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from cgtkit import zsigmondy
from cgtkit.cyclotomic import Cyclotomic

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
