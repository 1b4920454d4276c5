"""The benchmark's traced run (``benchmark/run.py --trace 1``) patches
functions of the program by module and name; each must still exist, and a
traced assign must still call each of them."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

import nmrassign.cli as cli
import nmrassign.graph as graph
import nmrassign.lp as lp
import nmrassign.pipeline as pipeline

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"

ASSIGN_SPANS = (
    "pipeline.run_assign",
    "domain.load",
    "grouping.enumerate",
    "graph.build",
    "lp.solve_lian1",
    "lp.formulate",
    "lp.solve",
    "lp.highs",
    "lp.is_integral",
    "lp.extract",
)


def _benchmark_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARK / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run


def test_benchmark_trace_hooks_resolve(monkeypatch):
    run = _benchmark_run(monkeypatch)
    tracer = run.Tracer()
    run.install_hooks(tracer)
    with tracer.installed():  # looks up every hooked module.attr
        assert pipeline.build_graph is not graph.build_graph
    assert pipeline.build_graph is graph.build_graph


def test_traced_assign_records_every_stage(monkeypatch, tmp_path, capsys):
    # a Lagrangian proof builds no LP; without the stage every LP stage runs
    monkeypatch.setattr(lp, "LAGRANGIAN_ITERATIONS", 0)
    run = _benchmark_run(monkeypatch)
    tracer = run.Tracer()
    run.install_hooks(tracer)
    seq = "ADKFLEGQRS"
    with tracer.installed():
        assert cli.main(["simulate", "--sequence", seq, "--seed", "2", "--out", str(tmp_path)]) == 0
        assert cli.main([
            "assign", "--sequence", seq, "--dataset", str(tmp_path / "spins.tsv"),
            "--variant", "lian1", "--out", str(tmp_path),
        ]) == 0
    capsys.readouterr()
    names = {span.name for span in tracer.spans}
    assert "simulate.run" in names
    assert [name for name in ASSIGN_SPANS if name not in names] == []


def test_graph_build_counts_match_the_grouping_rows(monkeypatch, tmp_path, capsys):
    """The ``graph.build`` span counts read the graph's node views; they must
    agree with the grouping rows the graph stores."""
    graphs = []

    def recording(*args, **kwargs):
        graphs.append(graph.build_graph(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(pipeline, "build_graph", recording)
    run = _benchmark_run(monkeypatch)
    tracer = run.Tracer()
    run.install_hooks(tracer)
    seq = "ADKFLEGQRSLLKA"
    assert cli.main([
        "simulate", "--sequence", seq, "--protocol", "flya", "--seed", "3", "--out", str(tmp_path)
    ]) == 0
    with tracer.installed():
        assert cli.main([
            "graph-stats", "--sequence", seq, "--dataset", str(tmp_path / "peaks.tsv"),
            "--out", str(tmp_path),
        ]) == 0
    capsys.readouterr()
    names = {span.name for span in tracer.spans}
    assert {"grouping.compat", "grouping.enumerate"} <= names
    [g] = graphs
    [counts] = [span.counts for span in tracer.spans if span.name == "graph.build"]
    sizes = [len(rows) for rows in g.grouping_rows]
    regular = sum(int(np.count_nonzero(rows >= 0)) for rows in g.grouping_rows)
    pairs = sum(a * b for a, b in zip(sizes, sizes[1:]))
    assert counts["nodes"] == sum(sizes)
    assert counts["typing_keep"] == regular / (len(g.groupings) * g.n)
    assert counts["edges"] == sum(len(layer) for layer in g.edges)
    assert counts["density"] == counts["edges"] / pairs
    # the typing filter kept some groupings on some layers, not all everywhere
    assert 0 < regular < len(g.groupings) * g.n
