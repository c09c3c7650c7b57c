"""The benchmark's layer trace against the package it wraps.

``perfbench/trace.py`` wraps every ``SPANS`` name by name, so a deleted or
renamed function would otherwise fail only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("_perfbench_trace",
                                                  TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # install looks up every traced module in sys.modules, and the command
    # line imports none of them until a command evaluates.
    for module_name, _, _ in module.SPANS:
        importlib.import_module(f"router_sim.{module_name}")
    return module


def test_every_span_resolves(trace):
    for module_name, path, span in trace.SPANS:
        owner = importlib.import_module(f"router_sim.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), (path, span)
        else:
            assert callable(getattr(owner, path, None)), (path, span)


def test_install_then_uninstall_restores_every_name(trace):
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "router_sim" or name.startswith("router_sim.")]
    classes = [getattr(sys.modules[f"router_sim.{module_name}"],
                       path.split(".")[0])
               for module_name, path, _ in trace.SPANS if "." in path]
    owners = modules + classes
    before = [dict(vars(owner)) for owner in owners]
    tracer = trace.Tracer()
    tracer.install()
    try:
        for module_name, path, _ in trace.SPANS:
            if "." not in path:
                owner = sys.modules[f"router_sim.{module_name}"]
                original = before[owners.index(owner)][path]
                assert getattr(owner, path) is not original, path
    finally:
        tracer.uninstall()
    for owner, was in zip(owners, before):
        now = vars(owner)
        assert now.keys() == was.keys(), owner
        changed = [name for name, value in was.items()
                   if now[name] is not value]
        assert not changed, (owner, changed)
