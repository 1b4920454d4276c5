"""The benchmark's traced run (``benchmark/run.py --trace 1``) patches
functions of the program by module and name; each must still exist."""
import importlib.util
import sys
from pathlib import Path

import nmrassign.graph as graph
import nmrassign.pipeline as pipeline

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_benchmark_trace_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARK / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    tracer = run.Tracer()
    run.install_hooks(tracer)
    with tracer.installed():  # looks up every hooked module.attr
        assert pipeline.build_graph is not graph.build_graph
    assert pipeline.build_graph is graph.build_graph
