"""The benchmark's tracer wraps sftlab functions by name. A renamed or dropped
function would make its traced run raise at install time; here it fails the
suite instead."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_phases(monkeypatch):
    """perfbench/phases.py as a module, imported without writing a bytecode
    cache and without leaving its sibling modules in sys.modules."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_phases", PERFBENCH / "phases.py")
    phases = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(phases)
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH:
                del sys.modules[name]
    return phases


def test_every_trace_target_is_an_attribute_of_its_owner(monkeypatch):
    targets = load_phases(monkeypatch).TRACE_TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert not missing, f"perfbench traces names sftlab no longer has: {missing}"
