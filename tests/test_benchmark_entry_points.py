"""The benchmark's entry points resolve against this checkout.

perfbench/tracing.py wraps h2star functions that it looks up by name, and
perfbench/workloads.py drives h2star's public entry points, so a rename in
src/ can break the benchmark while every other test passes.  Both modules
are loaded read-only: no bytecode is written next to them.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The modules tracing and workloads of perfbench/, unloaded afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def _bindings(boundaries):
    return {(module, attr): getattr(importlib.import_module(f"h2star.{module}"), attr)
            for module, attr, _ in boundaries}


def test_tracer_wraps_every_boundary_and_puts_it_back(perfbench):
    tracing, _ = perfbench
    originals = _bindings(tracing.BOUNDARIES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = _bindings(tracing.BOUNDARIES)
    finally:
        tracer.uninstall()
    assert [key for key, fn in originals.items() if installed[key] is fn] == []
    assert _bindings(tracing.BOUNDARIES) == originals


def test_every_workload_op_verifies(perfbench, tmp_path):
    _, workloads = perfbench
    for name, workload_type in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_type(7, str(workdir))
        for i, label in enumerate(workload.labels):
            assert workload.verify(i, workload.run(i)) == [], (name, label)
