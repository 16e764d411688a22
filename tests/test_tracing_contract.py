"""The benchmark's tracer binds alphaperm functions by name.

perfbench/tracing.py wraps the functions its LAYER_OF table names, in every
alphaperm namespace that binds them. A renamed or deleted function breaks
a traced benchmark run, so these tests load the tracer by path, unedited,
and check its bindings against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracing):
    mods = {"alphaperm": importlib.import_module("alphaperm")}
    for short in tracing.MODULES:
        mods[short] = importlib.import_module("alphaperm." + short)
    return mods


def test_every_traced_name_is_a_function_of_alphaperm():
    tracing = _load_tracing()
    for mod, fname in tracing.LAYER_OF:
        assert mod in tracing.MODULES, mod
        value = getattr(importlib.import_module("alphaperm." + mod), fname,
                        None)
        assert callable(value), "alphaperm.%s.%s" % (mod, fname)


def test_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    mods = _namespaces(tracing)
    before = {short: dict(vars(m)) for short, m in mods.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(m.__name__, attr) for m, attr, _ in tracer._patched}
        # every traced function is wrapped where it is defined
        for mod, fname in tracing.LAYER_OF:
            assert ("alphaperm." + mod, fname) in patched
        for module, attr, original in tracer._patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for short, m in mods.items():
        now = vars(m)
        assert now.keys() == before[short].keys()
        for attr, value in before[short].items():
            assert now[attr] is value, "alphaperm %s.%s" % (short, attr)
