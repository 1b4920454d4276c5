"""Command-line interface.

Subcommands: simulate, assign, evaluate, graph-stats. Flags mirror config
file keys; flags win on conflict. Exit codes: 0 success, 2 input or
validation error, 3 solver returned an unproven incumbent, 4 solver
failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .domain import NODE_LIMIT, TOP_K, NmrAssignError, SolverError, Tolerances, read_tolerances
from .experiments import FULL_SET
from .pipeline import (
    VARIANTS,
    bundled_reference,
    load_priors,
    load_sequence,
    run_assign,
    run_evaluate,
    run_graph_stats,
    run_simulate,
)
from .simulate import read_reference

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCUMBENT = 3
EXIT_SOLVER = 4

_TOL_KEYS = ("delta1", "delta2", "delta3", "delta", "lam")

TOP_K_HELP = (
    f"largest cliques expanded per peak component (default {TOP_K}); applies to "
    "peak lists only, since spin systems are not grouped"
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="nmrassign",
        description="Backbone resonance assignment via layered-graph linear programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        p.add_argument("--out", help="output directory", default=None)
        p.add_argument("--priors", help="priors JSON (default: bundled table)")
        p.add_argument("--sequence", help="one-letter sequence or path to one")

    def tolerance_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerances", help="tolerances JSON file")
        p.add_argument("--delta1", type=float, default=None, help="H window (ppm)")
        p.add_argument("--delta2", type=float, default=None, help="N window (ppm)")
        p.add_argument("--delta3", type=float, default=None, help="C window (ppm)")
        p.add_argument("--delta", type=float, default=None, help="typing threshold multiplier")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="reuse penalty")

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--protocol", choices=("cisa", "flya"), default=None)
    p_sim.add_argument("--noise", choices=("low", "high"), default=None)
    p_sim.add_argument("--reference", help="reference shifts JSON, or ref60/ref40 for bundled")
    p_sim.add_argument("--experiments", help="comma-separated experiment names")
    p_sim.add_argument("--deletion-rate", type=float, default=None)

    p_asn = sub.add_parser("assign", help="group, build the graph, and solve")
    common(p_asn)
    tolerance_flags(p_asn)
    p_asn.add_argument("--dataset", help="peaks or spins TSV file")
    p_asn.add_argument("--kind", choices=("peaks", "spins"), default=None)
    p_asn.add_argument("--variant", choices=VARIANTS, default=None)
    p_asn.add_argument("--top-k", dest="top_k", type=int, default=None, help=TOP_K_HELP)
    p_asn.add_argument("--backend", default=None, help="bundled or external:<path>")
    p_asn.add_argument("--node-limit", dest="node_limit", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="score an assignment against ground truth")
    p_eval.add_argument("--config", help="JSON config file; flags win on conflict")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--assignment", help="assignment JSON")
    p_eval.add_argument("--ground-truth", dest="ground_truth", help="ground truth JSON")

    p_gs = sub.add_parser("graph-stats", help="build the graph and report its shape")
    common(p_gs)
    tolerance_flags(p_gs)
    p_gs.add_argument("--dataset", help="peaks or spins TSV file")
    p_gs.add_argument("--kind", choices=("peaks", "spins"), default=None)
    p_gs.add_argument("--top-k", dest="top_k", type=int, default=None, help=TOP_K_HELP)
    p_gs.add_argument("--export", action="store_true", help="also write the full graph JSON")

    return parser


def _check_config(config: dict, name: str, command: argparse.ArgumentParser) -> dict:
    """The config keyed by each flag's ``dest`` (``lambda`` becomes ``lam``).
    Reject a config key that no flag of the subcommand accepts, two keys
    for one flag, and a config value its flag could not have produced."""
    known: set[str] = set()
    renamed: dict = {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        keys = {action.dest, *(o.lstrip("-").replace("-", "_") for o in action.option_strings)}
        known |= keys
        given = sorted(keys & config.keys())
        if len(given) > 1:
            raise NmrAssignError(f"config keys {given[0]!r} and {given[1]!r} set the same option")
        for key in given:
            value = renamed[action.dest] = config[key]
            if value is None:
                continue
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
    unknown = sorted(config.keys() - known)
    if unknown:
        raise NmrAssignError(f"config key {unknown[0]!r} is not an option of {name}")
    return renamed


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Config-file values overridden by any flag that was actually given."""
    merged: dict = {}
    if getattr(args, "config", None):
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise NmrAssignError(f"config file {args.config} must hold a JSON object")
        config.pop("command", None)
        [commands] = [a for a in parser._actions if a.dest == "command"]
        merged.update(_check_config(config, args.command, commands.choices[args.command]))
    for key, value in vars(args).items():
        if key == "config":
            continue
        if value is not None and value is not False:
            merged[key] = value
        else:
            merged.setdefault(key, value)
    return merged


def _tolerances(cfg: dict) -> Tolerances:
    base = read_tolerances(cfg["tolerances"]) if cfg.get("tolerances") else Tolerances()
    overrides = {
        key: cfg[key] for key in _TOL_KEYS if cfg.get(key) is not None
    }
    if not overrides:
        return base
    values = {key: getattr(base, key) for key in _TOL_KEYS}
    values.update(overrides)
    return Tolerances(**values)


def _require(cfg: dict, key: str, flag: str) -> str:
    value = cfg.get(key)
    if not value:
        raise NmrAssignError(f"missing required option {flag}")
    return value


def _cmd_simulate(cfg: dict) -> int:
    seq = load_sequence(_require(cfg, "sequence", "--sequence"))
    priors = load_priors(cfg.get("priors"))
    reference = None
    ref_spec = cfg.get("reference")
    if ref_spec:
        if ref_spec in ("ref60", "ref40"):
            reference = bundled_reference(ref_spec)
        else:
            reference = read_reference(ref_spec)
    experiments = FULL_SET
    if cfg.get("experiments"):
        experiments = tuple(s.strip() for s in cfg["experiments"].split(","))
    summary = run_simulate(
        outdir=_require(cfg, "out", "--out"),
        protocol=cfg.get("protocol") or "cisa",
        seq=seq,
        priors=priors,
        seed=cfg.get("seed") if cfg.get("seed") is not None else 0,
        noise=cfg.get("noise") or "low",
        reference=reference,
        experiments=experiments,
        deletion_rate=cfg.get("deletion_rate") or 0.0,
    )
    print(
        f"simulated {summary['records']} records "
        f"({summary['protocol']}) for {summary['residues']} residues"
    )
    return EXIT_OK


def _cmd_assign(cfg: dict) -> int:
    seq = load_sequence(_require(cfg, "sequence", "--sequence"))
    priors = load_priors(cfg.get("priors"))
    tol = _tolerances(cfg)
    summary = run_assign(
        outdir=_require(cfg, "out", "--out"),
        dataset=_require(cfg, "dataset", "--dataset"),
        seq=seq,
        priors=priors,
        tol=tol,
        variant=cfg.get("variant") or "lian1",
        kind=cfg.get("kind"),
        top_k=cfg.get("top_k") if cfg.get("top_k") is not None else TOP_K,
        backend=cfg.get("backend") or "bundled",
        node_limit=cfg.get("node_limit") if cfg.get("node_limit") is not None else NODE_LIMIT,
    )
    print(
        f"{summary['variant']}: objective {summary['objective']:.6f}, "
        f"{summary['assigned']}/{summary['residues']} residues assigned"
    )
    if not summary["proven_optimal"]:
        print("warning: node budget hit; result is an unproven incumbent", file=sys.stderr)
        return EXIT_INCUMBENT
    return EXIT_OK


def _cmd_evaluate(cfg: dict) -> int:
    precision, recall = run_evaluate(
        outdir=_require(cfg, "out", "--out"),
        assignment_path=_require(cfg, "assignment", "--assignment"),
        ground_truth_path=_require(cfg, "ground_truth", "--ground-truth"),
    )
    print(f"{precision:.3f} {recall:.3f}")
    return EXIT_OK


def _cmd_graph_stats(cfg: dict) -> int:
    seq = load_sequence(_require(cfg, "sequence", "--sequence"))
    priors = load_priors(cfg.get("priors"))
    tol = _tolerances(cfg)
    stats = run_graph_stats(
        outdir=_require(cfg, "out", "--out"),
        dataset=_require(cfg, "dataset", "--dataset"),
        seq=seq,
        priors=priors,
        tol=tol,
        kind=cfg.get("kind"),
        top_k=cfg.get("top_k") if cfg.get("top_k") is not None else TOP_K,
        export=bool(cfg.get("export")),
    )
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
        cfg = _merge_config(args, parser)
        return _COMMANDS[args.command](cfg)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NmrAssignError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
