"""perfbench/tracing.py patches likenet's layer calls by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves():
    # Tracer.install calls getattr on each; a missing name crashes `--trace 1`
    tracing = load_tracing()
    missing = [(module, attr) for module, attr, _ in tracing.CALL_SITES
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_install_and_uninstall_restore_every_name():
    tracing = load_tracing()
    modules = {name: importlib.import_module(name) for name, _, _ in tracing.CALL_SITES}
    before = {(name, attr): getattr(modules[name], attr) for name, attr, _ in tracing.CALL_SITES}
    tracer = tracing.Tracer()
    try:
        tracer.install(modules)
    finally:
        tracer.uninstall()
    assert all(getattr(modules[name], attr) is fn for (name, attr), fn in before.items())
