"""Command-line interface.

Subcommands: simulate, assign, evaluate, graph-stats. Each option is set by
its flag or by the key of the same name, with ``_`` for ``-``, in the JSON
object of ``--config``; the flag wins. An option set neither way takes the
default of the run it feeds. Exit codes: 0 success, 2 input or validation
error, 3 solver returned an unproven incumbent, 4 solver failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .domain import TOP_K, NmrAssignError, SolverError, Tolerances
from .pipeline import (
    VARIANTS,
    load_priors,
    load_reference,
    load_sequence,
    run_assign,
    run_evaluate,
    run_graph_stats,
    run_simulate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCUMBENT = 3
EXIT_SOLVER = 4

#: each tolerance option, by its config key, and the ``Tolerances`` field it sets
_TOLERANCES = {key: key for key in ("delta1", "delta2", "delta3", "delta")} | {"lambda": "lam"}

TOP_K_HELP = (
    f"largest cliques expanded per peak component (default {TOP_K}); applies to "
    "peak lists only, since spin systems are not grouped"
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing leaves it as it
    is. A subcommand's namespace holds only the flags given."""
    parser = argparse.ArgumentParser(
        prog="nmrassign",
        description="Backbone resonance assignment via layered-graph linear programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim, p_asn, p_eval, p_gs = (
        sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for name, text in (
            ("simulate", "generate a synthetic dataset"),
            ("assign", "group, build the graph, and solve"),
            ("evaluate", "score an assignment against ground truth"),
            ("graph-stats", "build the graph and report its shape"),
        )
    )
    for p in (p_sim, p_asn, p_eval, p_gs):
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--out", help="output directory")
    for p in (p_sim, p_asn, p_gs):
        p.add_argument("--priors", help="priors JSON (default: bundled table)")
        p.add_argument("--sequence", help="one-letter sequence or path to one")
    for p in (p_asn, p_gs):
        p.add_argument(
            "--dataset", help="peaks or spins TSV file; its header or field count says which"
        )
        p.add_argument("--top-k", type=int, help=TOP_K_HELP)
        p.add_argument("--delta1", type=float, help="H window (ppm)")
        p.add_argument("--delta2", type=float, help="N window (ppm)")
        p.add_argument("--delta3", type=float, help="C window (ppm)")
        p.add_argument("--delta", type=float, help="typing threshold multiplier")
        p.add_argument("--lambda", type=float, help="reuse penalty")

    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--protocol", choices=("cisa", "flya"))
    p_sim.add_argument("--noise", choices=("low", "high"))
    p_sim.add_argument("--reference", help="reference shifts JSON, or the name of a bundled one")
    p_sim.add_argument("--experiments", help="comma-separated experiment names")
    p_sim.add_argument("--deletion-rate", type=float)

    p_asn.add_argument("--variant", choices=VARIANTS)
    p_asn.add_argument("--backend", help="bundled or external:<path>")
    p_asn.add_argument("--node-limit", type=int)

    p_eval.add_argument("--assignment", help="assignment JSON")
    p_eval.add_argument("--ground-truth", help="ground truth JSON")

    p_gs.add_argument("--export", action="store_true", help="also write the full graph JSON")
    return parser


def _check_config(config: dict, name: str, command: argparse.ArgumentParser) -> None:
    """Reject a config key that is no option of the subcommand, and a value
    its flag could not have produced."""
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            raise NmrAssignError(f"config key {key!r} is not an option of {name}")
        if action.nargs == 0:
            ok, want = isinstance(value, bool), "true or false"
        elif action.type is int:
            ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
        elif action.type is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            want = "a number"
        else:
            ok, want = isinstance(value, str), "a string"
        if ok and action.choices is not None and value not in action.choices:
            ok, want = False, "one of " + ", ".join(map(str, action.choices))
        if not ok:
            raise NmrAssignError(f"config key {key!r} must be {want}, got {value!r}")


def _options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """The options set for the run: the config file's, then the flags given."""
    flags = dict(vars(args))
    name = flags.pop("command")
    if "config" not in flags:
        return flags
    path = flags.pop("config")
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise NmrAssignError(f"config file {path} must hold a JSON object")
    [commands] = [a for a in parser._actions if a.dest == "command"]
    _check_config(config, name, commands.choices[name])
    return config | flags


def _given(cfg: dict, *keys: str) -> dict:
    """The options among ``keys`` that were set."""
    return {key: cfg[key] for key in keys if key in cfg}


def _require(cfg: dict, key: str) -> str:
    value = cfg.get(key)
    if not value:
        raise NmrAssignError(f"missing required option --{key.replace('_', '-')}")
    return value


def _graph_run(cfg: dict) -> dict:
    """The arguments that assign and graph-stats both take."""
    return dict(
        seq=load_sequence(_require(cfg, "sequence")),
        priors=load_priors(cfg.get("priors")),
        tol=Tolerances(**{_TOLERANCES[key]: cfg[key] for key in _TOLERANCES if key in cfg}),
        outdir=_require(cfg, "out"),
        dataset=_require(cfg, "dataset"),
        **_given(cfg, "top_k"),
    )


def _cmd_simulate(cfg: dict) -> int:
    seq = load_sequence(_require(cfg, "sequence"))
    options = _given(cfg, "noise", "deletion_rate")
    if "reference" in cfg:
        options["reference"] = load_reference(cfg["reference"])
    if "experiments" in cfg:
        options["experiments"] = tuple(s.strip() for s in cfg["experiments"].split(","))
    summary = run_simulate(
        outdir=_require(cfg, "out"),
        protocol=cfg.get("protocol", "cisa"),
        seq=seq,
        priors=load_priors(cfg.get("priors")),
        seed=cfg.get("seed", 0),
        **options,
    )
    print(
        f"simulated {summary['records']} records "
        f"({summary['protocol']}) for {summary['residues']} residues"
    )
    return EXIT_OK


def _cmd_assign(cfg: dict) -> int:
    summary = run_assign(**_graph_run(cfg), **_given(cfg, "variant", "backend", "node_limit"))
    print(
        f"{summary['variant']}: objective {summary['objective']:.6f}, "
        f"{summary['assigned']}/{summary['residues']} residues assigned"
    )
    if not summary["proven_optimal"]:
        if summary["unsolved_nodes"]:
            cause = f"{summary['unsolved_nodes']} search node(s) could not be solved"
        else:
            cause = "node budget hit"
        print(f"warning: {cause}; result is an unproven incumbent", file=sys.stderr)
        return EXIT_INCUMBENT
    return EXIT_OK


def _cmd_evaluate(cfg: dict) -> int:
    precision, recall = run_evaluate(
        outdir=_require(cfg, "out"),
        assignment_path=_require(cfg, "assignment"),
        ground_truth_path=_require(cfg, "ground_truth"),
    )
    print(f"{precision:.3f} {recall:.3f}")
    return EXIT_OK


def _cmd_graph_stats(cfg: dict) -> int:
    stats = run_graph_stats(**_graph_run(cfg), **_given(cfg, "export"))
    print(
        f"layers {len(stats['layer_sizes'])}, "
        f"edges {stats['total_edges']}, density {stats['density']:.3f}"
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "assign": _cmd_assign,
    "evaluate": _cmd_evaluate,
    "graph-stats": _cmd_graph_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_options(args, parser))
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NmrAssignError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
