"""High-level runs: simulate, assign, evaluate.

Each run writes machine-readable outputs into a directory. Wall-clock
timings go to a separate timings.json so everything else is byte-stable
under a fixed seed.

``assign`` and ``graph-stats`` never simulate, so the simulator and its
ground-truth I/O are imported inside the runs and loaders that use them:
``run_simulate``, ``run_evaluate``, ``bundled_reference`` and
``load_reference``. ``domain``, ``grouping`` and ``graph`` stay imported by
name at the top, where the benchmark's trace hooks patch them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from . import evaluate as ev
from .domain import (
    NODE_LIMIT,
    SPIN_ROLES,
    TOP_K,
    NmrAssignError,
    PriorTable,
    ProteinSequence,
    Tolerances,
    priors_from_dict,
    read_peaks,
    read_priors,
    read_spins,
    validate_dataset,
    write_json,
    write_peaks,
    write_spins,
)
from .experiments import (
    FULL_SET,
    canonical_name,
    expected_observation_counts,
    expected_pattern,
    spin_observation_counts,
)
from .graph import ExpectedCounts, build_graph, export_graph, graph_stats
from .grouping import (
    GroupingTable,
    build_compatibility_graph,
    enumerate_groupings,
    spins_to_groupings,
)
from .shortest_path import dp_shortest_path, solve_result

if TYPE_CHECKING:
    from .simulate import Reference

VARIANTS = ("dp", "ilp", "lian1", "lian2")


def bundled_priors() -> PriorTable:
    with resources.files("nmrassign.data").joinpath("priors.json").open("r") as fh:
        return priors_from_dict(json.load(fh))


def bundled_reference(name: str) -> Reference:
    from .simulate import reference_from_dict

    with resources.files("nmrassign.data").joinpath(f"{name}.json").open("r") as fh:
        return reference_from_dict(json.load(fh))


def load_reference(spec: str) -> Reference:
    """A bundled reference by name (a ``<name>.json`` of ``nmrassign.data``,
    such as ``ref60``), or else the reference file at ``spec``."""
    if f"{spec}.json" in {entry.name for entry in resources.files("nmrassign.data").iterdir()}:
        return bundled_reference(spec)
    from .simulate import read_reference

    return read_reference(spec)


def load_sequence(spec: str) -> ProteinSequence:
    """A literal one-letter sequence, or a path to a file holding one."""
    path = Path(spec)
    if path.exists():
        lines = [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith((">", "#"))
        ]
        return ProteinSequence("".join(lines))
    return ProteinSequence(spec)


@contextlib.contextmanager
def _stage(stages: dict[str, float], name: str):
    """Record the wall time of the block as ``stages[name]``, in seconds."""
    t0 = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - t0


def run_simulate(
    outdir: str | Path,
    protocol: str,
    seq: ProteinSequence,
    priors: PriorTable,
    seed: int,
    noise: str = "low",
    reference: Reference | None = None,
    experiments=FULL_SET,
    deletion_rate: float = 0.0,
) -> dict:
    from .simulate import (
        SimulationSpec,
        sample_reference,
        simulate_cisa,
        simulate_flya,
        write_ground_truth,
    )

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stages: dict[str, float] = {}
    if reference is None:
        reference = sample_reference(seq, priors, seed)
    if protocol == "cisa":
        spec = SimulationSpec.cisa(noise, seed, deletion_rate)
        with _stage(stages, "simulate"):
            spins, gt = simulate_cisa(spec, seq, reference)
        write_spins(spins, outdir / "spins.tsv")
        summary = {"protocol": "cisa", "noise": noise, "records": len(spins)}
    elif protocol == "flya":
        spec = SimulationSpec.flya(seed, deletion_rate)
        with _stage(stages, "simulate"):
            peaks, gt = simulate_flya(spec, seq, reference, experiments)
        write_peaks(peaks, outdir / "peaks.tsv")
        summary = {"protocol": "flya", "records": len(peaks)}
    else:
        raise NmrAssignError(f"unknown protocol {protocol!r}")
    write_ground_truth(gt, outdir / "ground_truth.json")
    summary["residues"] = len(seq)
    write_json(summary, outdir / "simulate_summary.json")
    write_json({"seconds": stages}, outdir / "timings.json")
    return summary


def _load_and_group(
    dataset: str | Path,
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    top_k: int | None,
    stages: dict[str, float],
) -> tuple[GroupingTable, ExpectedCounts]:
    """Read and validate a dataset, then group it: (groupings, expected counts)."""
    if top_k is not None and top_k < 1:
        raise NmrAssignError(f"top_k must be at least 1, got {top_k}")
    dataset = Path(dataset)
    kind = _sniff_kind(dataset)
    with _stage(stages, "load"):
        if kind == "spins":
            spins = read_spins(dataset)
            validate_dataset(priors, seq, spins=spins)
        else:
            peaks = read_peaks(dataset)
            validate_dataset(priors, seq, peaks=peaks)

    if kind == "spins":
        with _stage(stages, "enumerate"):
            groupings = spins_to_groupings(spins, priors)
        return groupings, spin_observation_counts(priors)
    spectra = sorted({canonical_name(p.spectrum_id) for p in peaks}, key=FULL_SET.index)
    with _stage(stages, "compat"):
        compat = build_compatibility_graph(peaks, tol)
    with _stage(stages, "enumerate"):
        groupings = enumerate_groupings(compat, expected_pattern(spectra), top_k, priors, tol)
    return groupings, expected_observation_counts(spectra, priors)


def run_assign(
    outdir: str | Path,
    dataset: str | Path,
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    variant: str = "lian1",
    top_k: int | None = TOP_K,
    backend: str = "bundled",
    node_limit: int = NODE_LIMIT,
) -> dict:
    """Full assignment run; returns a summary including the exit status."""
    from . import lp as lpmod  # loads numpy only; formulate loads scipy.sparse

    if variant not in VARIANTS:
        raise NmrAssignError(f"unknown variant {variant!r}")
    if node_limit < 1:
        raise NmrAssignError(f"node_limit must be at least 1, got {node_limit}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stages: dict[str, float] = {}

    lp_backend = None
    if backend != "bundled":
        if not backend.startswith("external:"):
            raise NmrAssignError(f"unknown backend {backend!r}")
        lp_backend = lpmod.load_backend(backend.split(":", 1)[1])

    groupings, expected = _load_and_group(dataset, seq, priors, tol, top_k, stages)

    with _stage(stages, "graph"):
        g = build_graph(groupings, seq, priors, tol, expected)
    write_json(graph_stats(g), outdir / "graph_stats.json")

    with _stage(stages, "solve"):
        if variant == "dp":
            path = dp_shortest_path(g)
            result = solve_result(
                g, path.nodes, "dp", tol.lam,
                lp_bound=path.total_cost, proven_optimal=True, proved_by="dp",
            )
        elif variant == "ilp":
            result = lpmod.solve_ilp(g, tol, lp_backend, node_limit)
        elif variant == "lian1":
            result = lpmod.solve_lian1(g, tol, lp_backend, node_limit)
        else:
            result = lpmod.solve_lian2(g, tol, lp_backend, node_limit)

    assignment = ev.assignment_from_result(g, result)
    ev.write_assignment(assignment, outdir / "assignment.json")
    # every field but the path, which assignment.json holds
    report = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    del report["path"]
    report["path_canonicalized"] = result.path_canonicalized
    write_json(report, outdir / "lp_report.json")
    write_json({"rows": ev.diagnostics(assignment, g)}, outdir / "diagnostics.json")
    write_json({"seconds": stages}, outdir / "timings.json")
    return {
        "variant": result.variant,
        "objective": result.objective,
        "proven_optimal": result.proven_optimal,
        "assigned": sum(1 for r in assignment.residues if r.assigned_id is not None),
        "residues": len(seq),
    }


def _sniff_kind(path: Path) -> str:
    """The dataset kind: the one the header line names, or else the one
    the first record's field count fits (a spin-system line has 7 fields,
    a peak line 4 to 6). Comment and blank lines are skipped, as the
    readers skip them."""
    spin_fields = 1 + len(SPIN_ROLES)
    with path.open(encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                if "system_id" in line:
                    return "spins"
                if "peak_id" in line:
                    return "peaks"
            elif line:
                fields = len(line.split("\t"))
                if fields == spin_fields:
                    return "spins"
                if 4 <= fields <= 6:
                    return "peaks"
                raise NmrAssignError(
                    f"cannot tell the dataset kind of {path}: its first record has "
                    f"{fields} fields, where a spin system has {spin_fields} and a peak 4 to 6"
                )
    raise NmrAssignError(f"cannot tell the dataset kind of {path}: it holds no record")


def run_evaluate(
    outdir: str | Path, assignment_path: str | Path, ground_truth_path: str | Path
) -> tuple[float, float]:
    from .simulate import read_ground_truth

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    assignment = ev.read_assignment(assignment_path)
    gt = read_ground_truth(ground_truth_path)
    report = ev.score(assignment, gt)
    ev.write_report(report, outdir / "report.json")
    (outdir / "report.txt").write_text(ev.report_to_text(report), encoding="utf-8")
    return report.precision, report.recall


def run_graph_stats(
    outdir: str | Path,
    dataset: str | Path,
    seq: ProteinSequence,
    priors: PriorTable,
    tol: Tolerances,
    top_k: int | None = TOP_K,
    export: bool = False,
) -> dict:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    groupings, expected = _load_and_group(dataset, seq, priors, tol, top_k, {})
    g = build_graph(groupings, seq, priors, tol, expected)
    stats = graph_stats(g)
    write_json(stats, outdir / "graph_stats.json")
    if export:
        export_graph(g, outdir / "graph.json")
    return stats


def load_priors(path: str | None) -> PriorTable:
    return bundled_priors() if path is None else read_priors(path)
