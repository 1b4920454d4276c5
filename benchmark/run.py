"""Assignment benchmark: one workload per process, driven through the CLI.

    python3 benchmark/run.py --workload peaks-ref40 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Set-up writes the sequence (and, where a workload needs one, a
priors file) and simulates every instance dataset with ``nmrassign
simulate``. The timed part is a closed loop with one client: each
instance's ``nmrassign assign`` starts when the previous one ends, with the
program's default thread count. Every output is checked and scored with
``nmrassign evaluate`` outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
instance twice in a row, untraced and then with spans around the calls
into each module (see ``tracing.py``), and prints the per-layer metrics,
including the tracing overhead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans and per-run
results are written under ``.benchmark_out/``. See README.md for the
workloads, the metrics and what each layer metric is predicted to move.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".benchmark_work"
OUT = ROOT / ".benchmark_out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    reference: str
    simulate: tuple[str, ...]
    assign: tuple[str, ...]
    dataset: str
    #: fixed instance seeds, visited in an order drawn from the workload seed
    panel: tuple[int, ...] = ()
    #: number of fresh instances whose seeds derive from the workload seed
    fresh: int = 0
    #: assign with the spins sigmas widened to CA 0.16, CB 0.32
    wide_priors: bool = False

    def instance_seeds(self, seed: int) -> list[int]:
        if self.fresh:
            return [seed * 1000 + i for i in range(self.fresh)]
        order = list(self.panel)
        random.Random(seed).shuffle(order)
        return order


# One instance of peaks-ref40 costs 7-64 s and one of spins-deletion 0.5-9 s,
# depending on the dataset, so those two run a fixed panel under every seed;
# otherwise the run-to-run spread would measure the draw, not the code.
# BENCHMARK.json gates only those two; gating spins-ref60 as well would cut
# every run to one pass, which measured too unsteadily (see README.md).
WORKLOADS = {
    "spins-ref60": Workload(
        reference="ref60",
        simulate=("--protocol", "cisa", "--noise", "low"),
        assign=("--variant", "lian1", "--delta3", "0.7"),
        dataset="spins.tsv",
        fresh=30,
    ),
    "peaks-ref40": Workload(
        reference="ref40",
        simulate=("--protocol", "flya"),
        assign=(
            "--variant", "lian1", "--delta1", "0.08", "--delta2", "0.8",
            "--delta3", "0.8", "--top-k", "20",
        ),
        dataset="peaks.tsv",
        panel=(0, 3),
    ),
    "spins-deletion": Workload(
        reference="ref60",
        simulate=("--protocol", "cisa", "--noise", "high", "--deletion-rate", "0.2"),
        assign=("--variant", "lian1", "--delta3", "1.4"),
        dataset="spins.tsv",
        panel=tuple(range(8)),
        wide_priors=True,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "assign_s": "s",
    "residues_per_s": "residues/s",
    "peak_rss_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
    "atom_correct": "ratio",
}

#: per-layer time metric -> span name; time is summed per instance over the
#: outermost spans of that name
LAYER_TIMES = {
    "domain.load_s": "domain.load",
    "grouping.compat_s": "grouping.compat",
    "grouping.enumerate_s": "grouping.enumerate",
    "graph.build_s": "graph.build",
    "lp.formulate_s": "lp.formulate",
    "lp.solve_s": "lp.solve",
    "lp.highs_s": "lp.highs",
    "lp.bnb_s": "lp.bnb",
    "lp.extract_s": "lp.extract",
    "evaluate.score_s": "evaluate.score",
}

#: per-layer count metric -> (span name, counter key); summed per instance
LAYER_COUNTS = {
    "grouping.groupings": ("grouping.enumerate", "groupings"),
    "graph.nodes": ("graph.build", "nodes"),
    "graph.edges": ("graph.build", "edges"),
    "graph.density": ("graph.build", "density"),
    "graph.typing_keep": ("graph.build", "typing_keep"),
    "lp.n_vars": ("lp.formulate", "n_vars"),
    "lp.n_rows": ("lp.formulate", "n_rows"),
    "lp.util_rows": ("lp.formulate", "util_rows"),
    "lp.simplex_iters": ("lp.highs", "nit"),
    "lp.lp_solves": ("lp.solve", "solves"),
    "lp.bnb_nodes": ("lp.solve_lian1", "nodes"),
    "lp.root_integral": ("lp.is_integral", "integral"),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "graph.density": "ratio",
    "graph.typing_keep": "ratio",
    "lp.root_integral": "ratio",
    "pipeline.self_s": "s",
    "simulate.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Instance:
    seed: int
    dir: Path
    argv: list[str]


@dataclass
class Execution:
    instance: Instance
    label: str
    wall: float
    #: the process's peak resident set size once this assign has ended
    peak_rss_mb: float
    problems: list[str]
    path_changed: bool = False
    assigned: int = 0
    precision: float = 0.0
    recall: float = 0.0
    atom_correct: float = 0.0


# ---------------------------------------------------------------------------
# set-up


def import_program():
    """Import the CLI from ``src/``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "nmrassign" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {src}")
    sys.path.insert(0, str(src))
    import nmrassign.cli

    return nmrassign.cli


def call(cli, argv: list[str]) -> int:
    """One in-process CLI call; its one-line stdout result is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def make_instances(cli, w: Workload, seed: int, workdir: Path) -> list[Instance]:
    from nmrassign.domain import PriorTable, write_priors
    from nmrassign.pipeline import bundled_priors, bundled_reference

    workdir.mkdir(parents=True)
    sequence = workdir / "sequence.txt"
    sequence.write_text(bundled_reference(w.reference).sequence.residues + "\n", encoding="utf-8")
    extra: list[str] = []
    if w.wide_priors:
        priors = bundled_priors()
        noise = {k: dict(v) for k, v in priors.noise.items()}
        noise["spins"]["CA"] = 0.16
        noise["spins"]["CB"] = 0.32
        write_priors(PriorTable(priors.atoms, noise), workdir / "priors.json")
        extra = ["--priors", workdir / "priors.json"]
    instances = []
    for s in w.instance_seeds(seed):
        d = workdir / f"i{s}"
        rc = call(cli, [
            "simulate", "--sequence", sequence, "--reference", w.reference,
            *w.simulate, "--seed", s, "--out", d,
        ])
        if rc != 0:
            raise SystemExit(f"error: simulate failed for instance seed {s} (exit {rc})")
        argv = [
            "assign", "--sequence", sequence, "--dataset", d / w.dataset,
            *w.assign, *extra, "--out", d,
        ]
        instances.append(Instance(s, d, [str(a) for a in argv]))
    return instances


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter doing the same set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(inst: Instance, rc: int | None, expected: dict) -> tuple[list[str], bool]:
    """Output problems of one assign, and whether its path differs from the record."""
    if rc != 0:
        return [f"assign exited {rc}"], False
    report = json.loads((inst.dir / "lp_report.json").read_text(encoding="utf-8"))
    assignment = json.loads((inst.dir / "assignment.json").read_text(encoding="utf-8"))
    objective = report["objective"]
    problems = []
    cost = sum(r["cost"] for r in assignment["residues"])
    if not close(objective, cost):
        problems.append(f"objective {objective!r} != summed residue costs {cost!r}")
    if assignment["variant"] == "lian1":
        peaks = [p for r in assignment["residues"] for p in r["member_peaks"]]
        if len(peaks) != len(set(peaks)):
            problems.append("lian1 assignment consumes a peak twice")
    record = expected.get(str(inst.seed))
    if record is None:
        return problems, False
    if not close(objective, record["objective"]):
        problems.append(f"objective {objective!r} != recorded {record['objective']!r}")
    return problems, assignment["path"] != record["path"]


def score(cli, ex: Execution) -> None:
    from nmrassign.evaluate import atom_correctness, read_assignment
    from nmrassign.simulate import read_ground_truth

    d = ex.instance.dir
    rc = call(cli, [
        "evaluate", "--assignment", d / "assignment.json",
        "--ground-truth", d / "ground_truth.json", "--out", d,
    ])
    if rc != 0:
        ex.problems.append(f"evaluate exited {rc}")
        return
    report = json.loads((d / "report.json").read_text(encoding="utf-8"))
    assignment = read_assignment(d / "assignment.json")
    ex.precision, ex.recall = report["precision"], report["recall"]
    ex.atom_correct = atom_correctness(assignment, read_ground_truth(d / "ground_truth.json"))[0]
    ex.assigned = sum(1 for r in assignment.residues if r.assigned_id is not None)


# ---------------------------------------------------------------------------
# the closed loop


def execute(cli, inst: Instance, label: str, expected: dict) -> Execution:
    """One timed assign, then its checks and scores.

    The previous assign's garbage is collected first, so neither its
    collection time nor its memory lands on this one.
    """
    gc.collect()
    t = time.perf_counter()
    try:
        rc = call(cli, inst.argv)
    except Exception:  # a crash is a failed instance, not a failed benchmark
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, changed = check(inst, rc, expected)
    ex = Execution(inst, label, wall, peak_rss_mb, problems, changed)
    if not problems:
        score(cli, ex)
    for problem in ex.problems:
        print(f"FAIL instance {inst.seed}: {problem}", file=sys.stderr)
    return ex


def run_passes(
    cli, instances: list[Instance], budget: float, expected: dict, tracer: Tracer | None = None
) -> tuple[list[Execution], list[Execution]]:
    """Whole passes over the instances, started while less than ``budget``
    seconds have passed, so every instance counts equally.

    With a tracer each instance runs twice in a row, untraced and then
    traced; the second list holds the traced executions.
    """
    untraced: list[Execution] = []
    traced: list[Execution] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < budget:
        for inst in instances:
            label = f"{len(untraced)}:{inst.seed}"
            untraced.append(execute(cli, inst, label, expected))
            if tracer is not None:
                tracer.instance = label
                with tracer.installed():
                    traced.append(execute(cli, inst, label, expected))
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def instance_medians(executions: list[Execution]) -> list[float]:
    """Each instance's median assign time over the passes. Their mean is
    ``assign_s``: every instance weighs the same, and repeat passes damp an
    instance's noise instead of adding samples to the tails. A median over
    instances would rest on the two middle instances alone; on a panel whose
    instances cost either 0.5 s or 2-9 s those are one of each group, and
    that median swings by a quarter from run to run."""
    by_instance: dict[int, list[float]] = {}
    for ex in executions:
        by_instance.setdefault(ex.instance.seed, []).append(ex.wall)
    return [statistics.median(walls) for walls in by_instance.values()]


def end_to_end(executions: list[Execution], n_instances: int, setups: list[float]) -> dict:
    """End-to-end metrics. Peak memory is read after the first pass: later
    passes only add allocator fragmentation that a one-assign process,
    the way the CLI is used, never sees."""
    ok = [ex for ex in executions if not ex.problems]
    walls = [ex.wall for ex in executions]
    return {
        "setup_s": statistics.median(setups),
        "assign_s": statistics.fmean(instance_medians(executions)),
        "residues_per_s": sum(ex.assigned for ex in ok) / sum(walls),
        "peak_rss_mb": executions[n_instances - 1].peak_rss_mb,
        "precision": _mean([ex.precision for ex in ok]),
        "recall": _mean([ex.recall for ex in ok]),
        "atom_correct": _mean([ex.atom_correct for ex in ok]),
    }


def install_hooks(tracer: Tracer) -> None:
    import nmrassign.cli as cli
    import nmrassign.lp as lp
    import nmrassign.pipeline as pipeline
    from nmrassign.graph import REGULAR

    def graph_counts(args, kwargs, g):
        pairs = sum(len(g.layers[k]) * len(g.layers[k + 1]) for k in range(len(g.edges)))
        edges = sum(len(e) for e in g.edges)
        regular = sum(1 for layer in g.layers for node in layer if node.kind == REGULAR)
        groupings = len(args[0])
        return {
            "nodes": sum(len(layer) for layer in g.layers),
            "edges": edges,
            "density": edges / pairs if pairs else 0.0,
            "typing_keep": regular / (groupings * g.n) if groupings and g.n else 0.0,
        }

    hooks = [
        (cli, "run_simulate", "simulate.run", None),
        (cli, "run_assign", "pipeline.run_assign", None),
        (cli, "run_evaluate", "evaluate.score", None),
        (pipeline, "read_spins", "domain.load", None),
        (pipeline, "read_peaks", "domain.load", None),
        (pipeline, "validate_dataset", "domain.load", None),
        (pipeline, "build_compatibility_graph", "grouping.compat", None),
        (pipeline, "enumerate_groupings", "grouping.enumerate",
         lambda a, k, r: {"groupings": len(r)}),
        (pipeline, "spins_to_groupings", "grouping.enumerate",
         lambda a, k, r: {"groupings": len(r)}),
        (pipeline, "build_graph", "graph.build", graph_counts),
        (lp, "solve_lian1", "lp.solve_lian1", lambda a, k, r: {"nodes": r.nodes_explored}),
        (lp, "formulate", "lp.formulate",
         lambda a, k, r: {"n_vars": r.n_vars, "n_rows": r.n_rows,
                          "util_rows": len(r.utilization)}),
        (lp, "solve_lp", "lp.solve", lambda a, k, r: {"solves": 1}),
        (lp, "linprog", "lp.highs", lambda a, k, r: {"nit": int(r.nit)}),
        (lp, "is_integral", "lp.is_integral", lambda a, k, r: {"integral": int(r)}),
        (lp, "round_and_resolve", "lp.bnb", None),
        (lp, "branch_and_bound", "lp.bnb", None),
        (lp, "extract_path", "lp.extract", None),
    ]
    for module, attr, name, counts in hooks:
        tracer.hook(module, attr, name, counts)


def per_layer(tracer: Tracer, untraced: list[Execution], traced: list[Execution]) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced instance) and per-layer self times."""
    spans, selfs = tracer.spans, tracer.self_times()
    labels = [ex.label for ex in traced]
    per: dict[str, dict[str, float]] = {label: {} for label in labels}
    self_by_name: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        if span.instance not in per:
            continue
        acc = per[span.instance]
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + own
        parent = spans[span.parent] if span.parent is not None else None
        if parent is None or parent.name != span.name:
            acc[span.name] = acc.get(span.name, 0.0) + span.duration
        if span.name == "pipeline.run_assign":
            acc["pipeline.self"] = acc.get("pipeline.self", 0.0) + own
        for key, value in span.counts.items():
            acc[f"{span.name}#{key}"] = acc.get(f"{span.name}#{key}", 0.0) + value

    def mean_of(key: str) -> float:
        return statistics.fmean(per[label].get(key, 0.0) for label in labels)

    metrics = {name: mean_of(span) for name, span in LAYER_TIMES.items()}
    metrics.update({name: mean_of(f"{span}#{key}") for name, (span, key) in LAYER_COUNTS.items()})
    metrics["pipeline.self_s"] = mean_of("pipeline.self")
    sims = [s.duration for s in spans if s.name == "simulate.run"]
    metrics["simulate.run_s"] = statistics.fmean(sims)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(untraced, traced)
    )
    n = len(labels)
    return metrics, {name: total / n for name, total in sorted(self_by_name.items())}


# ---------------------------------------------------------------------------
# reporting


def upper_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return ""
    q = int(100 * (n - 10) / n)
    return f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"


def print_metrics(metrics: dict, units: dict, notes: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {units[name]:<11} {notes.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in a fresh directory, print the set-up seconds, exit")
    parser.add_argument("--record", action="store_true",
                        help="record objectives and node paths as the expected outputs")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    cli = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    tracer = Tracer()
    try:
        if args.trace:
            install_hooks(tracer)
        with tracer.installed():
            instances = make_instances(cli, w, args.seed, workdir)
        setup = time.perf_counter() - T_START
        if args.setup_only:
            print(f"{setup:.6f}")
            return 0
        setups = [setup]
        if not args.trace:
            setups += [fresh_setup_seconds(args.workload, args.seed)
                       for _ in range(SETUP_REPEATS - 1)]
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
        expected = {} if args.record else recorded.get(args.workload, {})

        untraced, traced = run_passes(
            cli, instances, args.seconds, expected, tracer if args.trace else None
        )
        executions = untraced + traced
        if args.trace:
            metrics, self_times = per_layer(tracer, untraced, traced)
            units = PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(executions, len(instances), setups), END_TO_END_UNITS
        walls = [ex.wall for ex in executions]
        failed = sum(1 for ex in executions if ex.problems)
        changed = sum(1 for ex in executions if ex.path_changed)

        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"{len(executions)} assigns over {len(instances)} instances")
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "assign_s": f"mean over {len(instances)} instances of each one's median over "
                        f"{len(executions) // len(instances)} passes; per call median "
                        f"{statistics.median(walls):.4f} s{upper_percentile(walls)} of {len(walls)} calls",
            "residues_per_s": f"{sum(ex.assigned for ex in executions)} residues / {sum(walls):.2f} s",
            "precision": f"mean of {len(executions) - failed} assigns",
            "trace.overhead_s": f"median of {len(traced)} traced-minus-untraced assign pairs",
        }
        print_metrics(metrics, units, notes)
        print(f"  {'fail_rate':<22} {failed / len(executions):>14.6g} {'ratio':<11} "
              f"{failed}/{len(executions)} failed")
        print(f"  {'path_changes':<22} {changed:>14d} {'count':<11} node paths differing from the record")
        if args.trace:
            print("  self time per traced instance:")
            for name, seconds in self_times.items():
                print(f"    {name:<22} {seconds:.6f} s")

        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            tracer.dump(OUT / f"{stem}-spans.json")
        result = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "setups": setups, "metrics": metrics, "path_changes": changed,
            "executions": [
                {"instance": ex.instance.seed, "label": ex.label, "wall": ex.wall,
                 "problems": ex.problems, "path_changed": ex.path_changed,
                 "precision": ex.precision, "recall": ex.recall,
                 "atom_correct": ex.atom_correct}
                for ex in executions
            ],
        }
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        if args.record and failed:
            print("error: not recording outputs of a run with failures", file=sys.stderr)
        elif args.record:
            recorded[args.workload] = record(instances)
            EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")

        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(executions),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(instances: list[Instance]) -> dict:
    out = {}
    for inst in instances:
        report = json.loads((inst.dir / "lp_report.json").read_text(encoding="utf-8"))
        assignment = json.loads((inst.dir / "assignment.json").read_text(encoding="utf-8"))
        out[str(inst.seed)] = {"objective": report["objective"], "path": assignment["path"]}
    return out


if __name__ == "__main__":
    raise SystemExit(main())
