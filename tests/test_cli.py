import hashlib
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

import nmrassign.lp as lpmod
from nmrassign import cli
from nmrassign.cli import EXIT_INCUMBENT, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, build_parser, main
from nmrassign.domain import write_priors
from nmrassign.pipeline import bundled_reference

from test_lp import REGRESSION_SEQUENCE, _wide_priors

SEQ = "ADKFLEGQRSTNVYWHMICP"


def _simulate(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(
        [
            "simulate",
            "--sequence", SEQ,
            "--protocol", "cisa",
            "--seed", "7",
            "--out", str(out),
            *extra,
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["simulate", "--help"],
        ["assign", "--help"],
        ["evaluate", "--help"],
        ["graph-stats", "--help"],
    ],
)
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0


def test_missing_required_options(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == EXIT_INPUT
    assert "sequence" in capsys.readouterr().err
    assert main(["assign", "--sequence", SEQ, "--out", str(tmp_path / "y")]) == EXIT_INPUT
    assert "dataset" in capsys.readouterr().err
    assert main(["evaluate", "--out", str(tmp_path / "z")]) == EXIT_INPUT


def test_invalid_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = main(
        ["assign", "--sequence", SEQ, "--dataset", str(missing), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_INPUT
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    code = main(["simulate", "--config", str(bad_config), "--out", str(tmp_path / "o2")])
    assert code == EXIT_INPUT
    bad_config.write_text("[1, 2]")
    code = main(["simulate", "--config", str(bad_config), "--out", str(tmp_path / "o2")])
    assert code == EXIT_INPUT
    code = main(
        [
            "simulate", "--sequence", SEQ, "--protocol", "flya",
            "--experiments", "hsqc,cosy", "--out", str(tmp_path / "o3"),
        ]
    )
    assert code == EXIT_INPUT
    capsys.readouterr()


def test_simulate_assign_evaluate_round_trip(tmp_path, capsys):
    out = _simulate(tmp_path, "run")
    assert (out / "spins.tsv").exists()
    assert (out / "ground_truth.json").exists()
    code = main(
        [
            "assign",
            "--sequence", SEQ,
            "--dataset", str(out / "spins.tsv"),
            "--out", str(out),
            "--delta3", "0.7",
        ]
    )
    assert code == EXIT_OK
    assert (out / "assignment.json").exists()
    assert (out / "timings.json").exists()
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--assignment", str(out / "assignment.json"),
            "--ground-truth", str(out / "ground_truth.json"),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()
    # exactly one line: "<precision> <recall>"
    assert len(printed) == 1
    precision, recall = map(float, printed[0].split())
    assert precision == 1.0 and recall == 1.0
    assert (out / "report.json").exists() and (out / "report.txt").exists()


def test_evaluate_rejects_another_proteins_ground_truth(tmp_path, capsys):
    """An assignment scored against a ground truth of another sequence of
    the same length is an input error that names both sequences."""
    other = "KLMNP" * 4
    ours = _simulate(tmp_path, "ours")
    assert main(["simulate", "--sequence", other, "--seed", "7", "--out", str(tmp_path / "other")]) == EXIT_OK
    assert main([
        "assign", "--sequence", SEQ, "--dataset", str(ours / "spins.tsv"), "--out", str(ours),
    ]) == EXIT_OK
    capsys.readouterr()
    code = main([
        "evaluate", "--assignment", str(ours / "assignment.json"),
        "--ground-truth", str(tmp_path / "other" / "ground_truth.json"), "--out", str(tmp_path / "e"),
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert SEQ in err and other in err
    assert not (tmp_path / "e" / "report.json").exists()


def test_config_file_with_flag_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"sequence": SEQ, "protocol": "cisa", "seed": 1, "noise": "low"})
    )
    via_config = tmp_path / "via_config"
    code = main(
        ["simulate", "--config", str(config), "--seed", "7", "--out", str(via_config)]
    )
    assert code == EXIT_OK
    direct = _simulate(tmp_path, "direct")
    # the flag overrode the config seed, so outputs are byte-identical
    assert (via_config / "spins.tsv").read_bytes() == (direct / "spins.tsv").read_bytes()
    # without the flag the config seed applies and the output differs
    seed1 = tmp_path / "seed1"
    assert main(["simulate", "--config", str(config), "--out", str(seed1)]) == EXIT_OK
    assert (seed1 / "spins.tsv").read_bytes() != (direct / "spins.tsv").read_bytes()
    capsys.readouterr()


def test_tolerance_flags_reach_solver(tmp_path, capsys):
    out = _simulate(tmp_path, "tolrun")
    code = main(
        [
            "assign",
            "--sequence", SEQ,
            "--dataset", str(out / "spins.tsv"),
            "--out", str(out),
            "--variant", "lian2",
            "--lambda", "3.5",
            "--delta3", "0.7",
        ]
    )
    assert code == EXIT_OK
    report = json.loads((out / "lp_report.json").read_text())
    assert report["variant"] == "lian2"
    capsys.readouterr()


def test_lp_report_keys(tmp_path, capsys):
    """lp_report.json holds every answer field but the path, plus the node
    total and the tie-rule flag, for every variant; it, assignment.json and
    the printed summary name the variant that ran."""
    out = _simulate(tmp_path, "reportrun")
    capsys.readouterr()
    for variant in ("dp", "ilp", "lian1", "lian2"):
        assert main([
            "assign", "--sequence", SEQ, "--dataset", str(out / "spins.tsv"),
            "--out", str(out / variant), "--variant", variant, "--lambda", "0.5",
        ]) == EXIT_OK
        report = json.loads((out / variant / "lp_report.json").read_text())
        assert sorted(report) == [
            "columns_fixed", "contested_peaks", "epsilons", "lagrangian_iterations",
            "lp_bound", "nodes_explored", "objective",
            "path_canonicalized", "proved_by", "proven_optimal", "reused_peaks",
            "root_integral", "variant",
        ]
        soft = variant == "lian2"
        assert report["epsilons"] == {p: c - 1 for p, c in report["reused_peaks"].items() if soft}
        assignment = json.loads((out / variant / "assignment.json").read_text())
        assert report["variant"] == assignment["variant"] == variant
        assert capsys.readouterr().out.startswith(f"{variant}: objective ")


def test_graph_stats(tmp_path, capsys):
    out = _simulate(tmp_path, "gsrun")
    code = main(
        [
            "graph-stats",
            "--sequence", SEQ,
            "--dataset", str(out / "spins.tsv"),
            "--out", str(out),
            "--export",
        ]
    )
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("layers ")
    stats = json.loads((out / "graph_stats.json").read_text())
    assert len(stats["layer_sizes"]) == len(SEQ) + 2
    assert (out / "graph.json").exists()


def test_duplicate_system_id_rejected_by_assign_and_graph_stats(tmp_path, capsys):
    out = _simulate(tmp_path, "duprun")
    spins = out / "spins.tsv"
    lines = spins.read_text().splitlines()
    spins.write_text("\n".join(lines + [lines[1]]) + "\n")
    for command in ("assign", "graph-stats"):
        code = main(
            [command, "--sequence", SEQ, "--dataset", str(spins), "--out", str(out)]
        )
        assert code == EXIT_INPUT
        assert "duplicate spin system id" in capsys.readouterr().err


def test_flya_protocol_via_cli(tmp_path, capsys):
    out = tmp_path / "flya"
    code = main(
        [
            "simulate",
            "--sequence", "NAEVCEPCDE",  # the first 10 residues of ref60
            "--protocol", "flya",
            "--reference", "ref60",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "peaks.tsv").exists()
    capsys.readouterr()


def test_reference_of_another_sequence_exits_2(tmp_path, capsys):
    """A reference must hold the simulated sequence as its start: ref40
    reads MLVQKIDRGADPKHPC..., so its first 10 residues simulate and a
    sequence that departs from it at residue 11 exits 2."""
    argv = ["simulate", "--reference", "ref40", "--protocol", "flya", "--seed", "3"]
    assert main([*argv, "--sequence", "MLVQKIDRGA", "--out", str(tmp_path / "prefix")]) == EXIT_OK
    capsys.readouterr()
    code = main([*argv, "--sequence", "MLVQKIDRGAEFHKLT", "--out", str(tmp_path / "other")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: the reference is of sequence " + bundled_reference("ref40").sequence.residues
        + ", which does not start with the simulated sequence MLVQKIDRGAEFHKLT\n"
    )
    assert not (tmp_path / "other" / "peaks.tsv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # ref40 leaves this sequence at residue 11
        ["--sequence", "MLVQKIDRGAEFHKLT", "--reference", "ref40", "--protocol", "flya", "--seed", "3"],
        ["--sequence", SEQ, "--protocol", "cisa", "--deletion-rate", "1"],
    ],
)
def test_rejected_simulation_leaves_no_output_folder(tmp_path, capsys, argv):
    """simulate creates --out only once the simulator accepted its inputs."""
    out = tmp_path / "out"
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_timings_name_each_stage(tmp_path, capsys):
    """A peak list's grouping is timed as its two stages, the compatibility
    graph and the enumeration; spin systems are only enumerated. Writing
    the outputs is a stage of its own."""
    seq = "ADKFLEGQRS"
    stages = {}
    for protocol, dataset in (("flya", "peaks.tsv"), ("cisa", "spins.tsv")):
        out = tmp_path / protocol
        assert main([
            "simulate", "--sequence", seq, "--protocol", protocol, "--seed", "3", "--out", str(out)
        ]) == EXIT_OK
        assert main([
            "assign", "--sequence", seq, "--dataset", str(out / dataset), "--out", str(out)
        ]) == EXIT_OK
        seconds = json.loads((out / "timings.json").read_text(encoding="utf-8"))["seconds"]
        assert all(isinstance(s, float) and s >= 0.0 for s in seconds.values())
        stages[protocol] = set(seconds)
    capsys.readouterr()
    assert stages == {
        "flya": {"load", "compat", "enumerate", "graph", "solve", "write"},
        "cisa": {"load", "enumerate", "graph", "solve", "write"},
    }


def test_search_limits_below_one_rejected(tmp_path, capsys):
    out = _simulate(tmp_path, "limits")
    base = ["--sequence", SEQ, "--dataset", str(out / "spins.tsv"), "--out", str(out)]
    for argv in (
        ["assign", *base, "--top-k", "0"],
        ["assign", *base, "--top-k", "-1"],
        ["graph-stats", *base, "--top-k", "0"],
        ["assign", *base, "--node-limit", "0"],
        ["assign", *base, "--node-limit", "-5"],
    ):
        assert main(argv) == EXIT_INPUT
        assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("node_limit, code, stderr", [
    (6, EXIT_INCUMBENT, "warning: node budget hit; result is an unproven incumbent"),
    (1, EXIT_INCUMBENT, "warning: node budget hit; result is an unproven incumbent"),
], ids=["unproven-incumbent", "no-incumbent"])
def test_node_budget_exits(tmp_path, capsys, node_limit, code, stderr):
    """The 30-residue deletion dataset of ``test_lp`` has a fractional root,
    and ilp's search finds its first incumbent at node 4 and proves the
    optimum at node 9: a budget of 6 nodes ends with that incumbent
    unproven (exit 3), and a budget of 1 with none, so the answer is the
    all-dummy path, unproven, bounded by the root (exit 3, every output
    written). Neither answer names a stage that proved it."""
    write_priors(_wide_priors(), tmp_path / "priors.json")
    assert main([
        "simulate", "--sequence", REGRESSION_SEQUENCE, "--protocol", "cisa", "--noise", "high",
        "--deletion-rate", "0.2", "--seed", "6", "--out", str(tmp_path),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "assign", "--sequence", REGRESSION_SEQUENCE, "--dataset", str(tmp_path / "spins.tsv"),
        "--priors", str(tmp_path / "priors.json"), "--delta3", "1.4", "--variant", "ilp",
        "--node-limit", str(node_limit), "--out", str(tmp_path / "out"),
    ]) == code
    assert capsys.readouterr().err.strip() == stderr
    out = tmp_path / "out"
    for name in ("assignment.json", "lp_report.json", "diagnostics.json", "graph_stats.json",
                 "timings.json"):
        assert (out / name).is_file(), name
    report = json.loads((out / "lp_report.json").read_text(encoding="utf-8"))
    assert report["proven_optimal"] is False and report["nodes_explored"] == node_limit
    assert report["proved_by"] is None
    assert report["variant"] == "ilp" and report["reused_peaks"] == {}
    if node_limit == 1:
        assignment = json.loads((out / "assignment.json").read_text(encoding="utf-8"))
        assert assignment["objective"] == report["objective"] > report["lp_bound"]
        assert all(residue["assigned"] is None for residue in assignment["residues"])


#: an external backend that forwards to the bundled ``solve_lp``, but
#: answers its second call, the first search node after the root, as a
#: numerical failure
FLAKY_BACKEND = """\
from nmrassign.lp import LpSolution, solve_lp

calls = []


def solve(lp):
    calls.append(None)
    if len(calls) == 2:
        return LpSolution("numerical_failure", None, None)
    return solve_lp(lp)
"""


@pytest.mark.parametrize("variant", ["ilp", "lian1"])
def test_unsolved_search_node_leaves_the_answer_unproven(tmp_path, capsys, variant):
    """A search node the backend cannot solve is not pruned as if it were
    infeasible: the answer is unproven (exit 3, ``proven_optimal`` false,
    ``proved_by`` null) and the warning names the unsolved node. On a
    20-residue cisa dataset with high noise and 20 % deletions (seed 5),
    whose root is fractional; for ``lian1`` the failing node lies in the
    first margin round, which finds no answer, and the next round finds the
    optimum (11 of 20 residues assigned), still unproven. A backend
    forwarding every call proves the answer."""
    data = _simulate(tmp_path, "bnb", "--noise", "high", "--deletion-rate", "0.2", "--seed", "5")
    (tmp_path / "flaky.py").write_text(FLAKY_BACKEND, encoding="utf-8")
    (tmp_path / "forward.py").write_text(
        "from nmrassign.lp import solve_lp\n\ndef solve(lp):\n    return solve_lp(lp)\n",
        encoding="utf-8",
    )
    reports = {}
    for name, code in (("forward", EXIT_OK), ("flaky", EXIT_INCUMBENT)):
        capsys.readouterr()
        out = tmp_path / name
        assert main([
            "assign", "--sequence", SEQ, "--dataset", str(data / "spins.tsv"),
            "--variant", variant, "--backend", f"external:{tmp_path / name}.py",
            "--out", str(out),
        ]) == code
        reports[name] = json.loads((out / "lp_report.json").read_text(encoding="utf-8"))
    assert capsys.readouterr().err == (
        "warning: 1 search node(s) could not be solved; result is an unproven incumbent\n"
    )
    forward, flaky = reports["forward"], reports["flaky"]
    assert forward["proven_optimal"] and forward["proved_by"] == "lp"
    assert forward["root_integral"] is False
    assert flaky["proven_optimal"] is False and flaky["proved_by"] is None
    assert flaky["objective"] >= forward["objective"]
    if variant == "lian1":
        assert abs(flaky["objective"] - forward["objective"]) <= 1e-9 * abs(forward["objective"])
        assignment = json.loads((tmp_path / "flaky" / "assignment.json").read_text(encoding="utf-8"))
        assigned = [r for r in assignment["residues"] if r["assigned"] is not None]
        assert (len(assigned), len(assignment["residues"])) == (11, 20)


def test_sequence_file_reads_as_the_literal_sequence(tmp_path, capsys):
    """``--sequence`` names a file when one exists there: its ``>`` header
    and ``#`` comment lines are skipped and the rest is joined. Simulate and
    assign then write the same bytes as with the literal sequence."""
    fasta = tmp_path / "seq.fasta"
    fasta.write_text(f">test protein\n# split over two lines\n{SEQ[:8]}\n{SEQ[8:]}\n\n")
    outputs = {}
    for label, spec in (("literal", SEQ), ("file", str(fasta))):
        out = tmp_path / label
        assert main(["simulate", "--sequence", spec, "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert main(["assign", "--sequence", spec, "--dataset", str(out / "spins.tsv"),
                     "--out", str(out)]) == EXIT_OK
        outputs[label] = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "timings.json"
        }
    capsys.readouterr()
    assert len(outputs["file"]) == 7
    assert outputs["file"] == outputs["literal"]


@pytest.mark.parametrize("protocol, seed, dataset", [
    ("cisa", "7", "spins.tsv"),
    ("flya", "2", "peaks.tsv"),
])
def test_dataset_without_header_reads_by_field_count(tmp_path, capsys, protocol, seed, dataset):
    """A dataset without its header line is read as the kind its first
    record's field count fits (7 fields: spin systems; 4 to 6: peaks), and
    assigns to the same bytes as the file as written."""
    run = tmp_path / "run"
    assert main(["simulate", "--sequence", SEQ, "--protocol", protocol, "--seed", seed,
                 "--out", str(run)]) == EXIT_OK
    lines = (run / dataset).read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("#")
    bare = tmp_path / "bare.tsv"
    bare.write_text("".join(lines[1:]), encoding="utf-8")
    outputs = {}
    for label, path in (("header", run / dataset), ("bare", bare)):
        out = tmp_path / label
        assert main(["assign", "--sequence", SEQ, "--dataset", str(path),
                     "--out", str(out)]) == EXIT_OK
        outputs[label] = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "timings.json"
        }
    capsys.readouterr()
    assert len(outputs["bare"]) == 4
    assert outputs["bare"] == outputs["header"]


@pytest.mark.parametrize("text, reason", [
    ("p1\thsqc\t8.1\n", "its first record has 3 fields"),
    ("s1\t120.0\t8.1\t55.0\t40.0\t54.0\t39.0\t1\n", "its first record has 8 fields"),
    ("\n# no header here\n", "it holds no record"),
], ids=["3-fields", "8-fields", "no-record"])
@pytest.mark.parametrize("command", ["assign", "graph-stats"])
def test_dataset_of_no_kind_exits_2(tmp_path, capsys, command, text, reason):
    dataset = tmp_path / "data.tsv"
    dataset.write_text(text, encoding="utf-8")
    assert main([command, "--sequence", SEQ, "--dataset", str(dataset),
                 "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot tell the dataset kind of {dataset}: {reason}")
    assert err.count("\n") == 1


def _corrupt(dataset, column, text):
    """Replace field ``column`` of the dataset's first record by ``text``;
    returns that record's id."""
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[at].rstrip("\n").split("\t")
    fields[column] = text
    lines[at] = "\t".join(fields) + "\n"
    dataset.write_text("".join(lines), encoding="utf-8")
    return fields[0]


def test_spin_shift_that_is_no_number_names_its_record(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--sequence", SEQ, "--seed", "1", "--out", str(out)]) == EXIT_OK
    system = _corrupt(out / "spins.tsv", 1, "abc")  # the N column
    capsys.readouterr()
    assert main(["assign", "--sequence", SEQ, "--dataset", str(out / "spins.tsv"),
                 "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: spin {system}: N is not a number: 'abc'\n"


def test_peak_phase_that_is_no_integer_names_its_record(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--sequence", SEQ, "--protocol", "flya", "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    peak = _corrupt(out / "peaks.tsv", 5, "x")  # the phase column
    capsys.readouterr()
    assert main(["assign", "--sequence", SEQ, "--dataset", str(out / "peaks.tsv"),
                 "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: peak {peak}: phase is not an integer: 'x'\n"


@pytest.mark.parametrize("command", ["assign", "graph-stats"])
def test_seed_is_a_simulate_option_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("assign", "top_k", "5"),
        ("assign", "delta3", "0.5"),
        ("assign", "lambda", "5"),
        ("assign", "node_limit", 2.5),
        ("assign", "variant", "lian3"),
        ("graph-stats", "export", "yes"),
        ("simulate", "seed", "3"),
        ("simulate", "experiments", ["hsqc", "hncacb"]),
    ],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, key, value):
    out = _simulate(tmp_path, "cfgrun")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    argv = [command, "--config", str(config), "--sequence", SEQ, "--out", str(out)]
    if command != "simulate":
        argv += ["--dataset", str(out / "spins.tsv")]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err



@pytest.mark.parametrize("config", [{"node_limt": 1}, {"seed": 3}, {"kind": "spins"}])
def test_config_key_of_no_option_rejected(tmp_path, capsys, config):
    """A misspelt key, one that only another subcommand accepts, or the
    former ``kind`` (the dataset file says its kind) exits 2 naming the key
    instead of being ignored."""
    out = _simulate(tmp_path, "cfgrun")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["assign", "--config", str(path), "--sequence", SEQ,
            "--dataset", str(out / "spins.tsv"), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    [key] = config
    assert capsys.readouterr().err == f"error: config key {key!r} is not an option of assign\n"
    # every key a flag of assign accepts still runs
    path.write_text(json.dumps({"node_limit": 50, "top_k": 5, "lambda": 5.0, "variant": "lian1"}))
    assert main(argv) == EXIT_OK
    capsys.readouterr()


#: option -> (a config value, another value given by its flag)
OPTION_VALUES = {
    "out": ("config-out", "flag-out"),
    "priors": ("config-priors.json", "flag-priors.json"),
    "sequence": ("ACDE", "KLMN"),
    "dataset": ("config.tsv", "flag.tsv"),
    "top_k": (3, 4),
    "delta1": (0.05, 0.06),
    "delta2": (0.5, 0.6),
    "delta3": (0.7, 0.8),
    "delta": (2.5, 3.5),
    "lambda": (2.0, 3.0),
    "seed": (1, 2),
    "protocol": ("flya", "cisa"),
    "noise": ("high", "low"),
    "reference": ("config-ref", "flag-ref"),
    "experiments": ("hsqc,hncacb", "hsqc,hncocacb"),
    "deletion_rate": (0.1, 0.2),
    "variant": ("dp", "ilp"),
    "backend": ("external:config.py", "external:flag.py"),
    "node_limit": (5, 6),
    "assignment": ("config-assignment.json", "flag-assignment.json"),
    "ground_truth": ("config-truth.json", "flag-truth.json"),
    "export": (False, True),
}

#: the options each subcommand cannot run without
REQUIRED = {
    "simulate": ("sequence", "out"),
    "assign": ("sequence", "dataset", "out"),
    "evaluate": ("assignment", "ground_truth", "out"),
    "graph-stats": ("sequence", "dataset", "out"),
}

#: what each run returns, as far as the command's printout reads it
RUN_SUMMARIES = {
    "run_simulate": {"records": 0, "protocol": "cisa", "residues": 0},
    "run_assign": {"variant": "dp", "objective": 0.0, "assigned": 0, "residues": 0,
                   "proven_optimal": True},
    "run_evaluate": (1.0, 1.0),
    "run_graph_stats": {"layer_sizes": [], "total_edges": 0, "density": 0.0},
}

#: the run argument an option sets, where it is named otherwise
RUN_ARGUMENTS = {
    "out": "outdir", "sequence": "seq", "assignment": "assignment_path",
    "ground_truth": "ground_truth_path",
}


def _seen(key, run):
    """The value option ``key`` reached a run's keyword arguments as."""
    if key in ("delta1", "delta2", "delta3", "delta", "lambda"):
        return getattr(run["tol"], "lam" if key == "lambda" else key)
    value = run[RUN_ARGUMENTS.get(key, key)]
    return ",".join(value) if key == "experiments" else value


def _each_option():
    [commands] = [a for a in build_parser()._actions if a.dest == "command"]
    return [
        (name, action.dest)
        for name, command in commands.choices.items()
        for action in command._actions
        if action.dest not in ("help", "config")
    ]


@pytest.mark.parametrize("command, key", _each_option())
def test_each_option_set_by_config_or_flag(tmp_path, capsys, monkeypatch, command, key):
    """Every option of every subcommand, set under its flag's name (``_``
    for ``-``) in a config, reaches the run, and its flag wins over the
    config. ``lam`` and ``tolerances`` are no config keys: either exits 2
    naming the key."""
    runs = []
    for name, summary in RUN_SUMMARIES.items():
        monkeypatch.setattr(cli, name, lambda summary=summary, **kwargs: runs.append(kwargs) or summary)
    for name in ("load_sequence", "load_priors", "load_reference"):
        monkeypatch.setattr(cli, name, lambda spec: spec)
    config_value, flag_value = OPTION_VALUES[key]
    path = tmp_path / "config.json"
    argv = [command, "--config", str(path)]
    for option in REQUIRED[command]:
        if option != key:
            argv += ["--" + option.replace("_", "-"), f"given-{option}"]
    flag = ["--" + key.replace("_", "-")] + ([] if flag_value is True else [str(flag_value)])
    path.write_text(json.dumps({key: config_value}))
    assert main(argv) == EXIT_OK
    assert main([*argv, *flag]) == EXIT_OK
    assert [_seen(key, run) for run in runs] == [config_value, flag_value]
    capsys.readouterr()
    for wrong in ("lam", "tolerances"):
        path.write_text(json.dumps({key: config_value, wrong: 1.0}))
        assert main([*argv, *flag]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: config key {wrong!r} is not an option of {command}\n"
    assert len(runs) == 2


@pytest.mark.filterwarnings("error")  # a warning would print a second line
@pytest.mark.parametrize("flags, message", [
    (["--delta", "inf"], "tolerance delta must be strictly positive and finite"),
    (["--delta", "1e308"], "tolerance delta must be at most 1000 prior standard deviations, got 1e+308"),
    (["--delta", "1e7"], "tolerance delta must be at most 1000 prior standard deviations, got 1e+07"),
    (["--variant", "lian2", "--lambda", "inf"], "tolerance lambda must be strictly positive and finite"),
    (["--lambda", "0"], "tolerance lambda must be strictly positive and finite"),
    (["--delta1", "inf"], "tolerance delta1 must be strictly positive and finite"),
], ids=["delta-inf", "delta-1e308", "delta-1e7", "lambda-inf", "lambda-0", "delta1-inf"])
def test_non_finite_tolerances_exit_2(tmp_path, capsys, flags, message):
    """A tolerance that is not finite, or a typing multiplier above
    ``DELTA_MAX`` (from 1e7 on the relaxation of this dataset fails
    numerically), exits 2 with one error line instead of a traceback or a
    solver's complaint."""
    run = _simulate(tmp_path, "run")
    capsys.readouterr()
    code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                 "--out", str(tmp_path / "out"), *flags])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def _assign_with_priors(tmp_path, capsys, edit) -> tuple[int, str]:
    """assign's exit code and stderr on a cisa run, with the bundled priors
    as ``edit`` changed them; any warning raises."""
    run = _simulate(tmp_path, "run")
    doc = json.loads(resources.files("nmrassign.data").joinpath("priors.json").read_text())
    edit(doc)
    priors = tmp_path / "priors.json"
    priors.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                     "--priors", str(priors), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_overflowing_typing_threshold_exits_2(tmp_path, capsys):
    """A noise sigma so small that a residue's typing threshold overflows,
    at the default delta, though its precision 1/sigma^2 is finite, exits 2
    naming the residue."""
    code, err = _assign_with_priors(
        tmp_path, capsys, lambda doc: doc["noise"]["spins"].update(CA=1e-154)
    )
    assert code == EXIT_INPUT
    assert err == (
        "error: residue 1 has a non-finite typing threshold; widen the priors' sigmas "
        "or lower --delta\n"
    )


@pytest.mark.parametrize("sigma", [1e-200, 1e-160])
@pytest.mark.parametrize("entry, edit", [
    pytest.param("noise[spins][CA] = ", lambda doc, sigma: doc["noise"]["spins"].update(CA=sigma),
                 id="noise"),
    pytest.param("priors atoms[A][CA]: prior std ", lambda doc, sigma: _edit_prior(doc, "std", sigma),
                 id="prior-std"),
])
def test_sigma_without_a_finite_precision_exits_2(tmp_path, capsys, sigma, entry, edit):
    """A noise sigma or prior std whose precision 1/sigma^2 is not finite is
    rejected as the priors load: one error line naming the entry, and no
    warning."""
    code, err = _assign_with_priors(tmp_path, capsys, lambda doc: edit(doc, sigma))
    assert code == EXIT_INPUT
    assert err.startswith(f"error: {entry}{sigma:g} is too small") and err.count("\n") == 1


def _edit_prior(doc, key, value):
    doc["atoms"]["A"]["CA"][key] = value
    return doc


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda doc: [1, 2], "priors must be a JSON object", id="not-an-object"),
    pytest.param(lambda doc: {"noise": doc["noise"]}, "'atoms' maps residue types to objects",
                 id="no-atoms"),
    pytest.param(lambda doc: _edit_prior(doc, "mean", "53.1"), "atoms[A][CA]: prior mean",
                 id="string-mean"),
    pytest.param(lambda doc: _edit_prior(doc, "std", "2.0"), "atoms[A][CA]: prior std",
                 id="string-std"),
    pytest.param(lambda doc: _edit_prior(doc, "mean", float("nan")), "atoms[A][CA]: prior mean",
                 id="nan-mean"),
    pytest.param(lambda doc: {**doc, "noise": {"spins": {"CA": "0.1"}}},
                 "noise[spins][CA] must be a number", id="string-noise"),
    pytest.param(lambda doc: {**doc, "noise": [1]}, "noise must map spectra to objects",
                 id="noise-not-an-object"),
])
def test_malformed_priors_file_exits_2(tmp_path, capsys, edit, message):
    """A priors file that is not an object of atom priors, holds a prior
    whose mean or std is not a finite number, or a noise sigma that is not a
    number, exits 2 naming the entry."""
    run = _simulate(tmp_path, "run")
    bundled = resources.files("nmrassign.data").joinpath("priors.json").read_text(encoding="utf-8")
    path = tmp_path / "priors.json"
    path.write_text(json.dumps(edit(json.loads(bundled))), encoding="utf-8")
    capsys.readouterr()
    code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                 "--priors", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


#: the smallest assignment file ``evaluate`` reads: one null residue
NULL_ASSIGNMENT = {
    "sequence": "A", "variant": "lian1", "objective": 0.0, "proven_optimal": True,
    "path": [0, 0, 0], "residues": [{
        "residue": 1, "assigned": None, "member_peaks": [], "consensus": {},
        "cost": 0.0, "threshold": 0.0,
    }],
}


@pytest.mark.parametrize("which, doc, message", [
    pytest.param("assignment", {}, "lacks the key 'residues'", id="assignment-empty"),
    pytest.param("assignment", [1], "must be a JSON object", id="assignment-not-an-object"),
    pytest.param("assignment", {**NULL_ASSIGNMENT, "residues": [{}]}, "lacks the key 'residue'",
                 id="assignment-empty-residue"),
    pytest.param("ground-truth", {}, "lacks the key 'kind'", id="ground-truth-empty"),
    pytest.param("ground-truth", {"kind": "spins", "sequence": "A", "residue_to_id": [1]},
                 "is malformed", id="ground-truth-list-for-object"),
    pytest.param("reference", [1], "reference must be a JSON object", id="reference-not-an-object"),
    pytest.param("reference", {"sequence": SEQ}, "lacks the key 'shifts'", id="reference-no-shifts"),
    # a value of the wrong shape names its key
    pytest.param("assignment", {**NULL_ASSIGNMENT, "residues": {"1": {}}},
                 "'residues' must be an array", id="assignment-residues-object"),
    pytest.param("assignment", {**NULL_ASSIGNMENT, "residues": [
                     {**NULL_ASSIGNMENT["residues"][0], "member_peaks": 3}]},
                 "residues[0] is malformed: 'member_peaks' must be an array",
                 id="assignment-member-peaks-number"),
    pytest.param("assignment", {**NULL_ASSIGNMENT, "objective": "low"},
                 "'objective' must be a number", id="assignment-objective-string"),
    pytest.param("ground-truth", {"kind": "spins", "sequence": "A", "residue_to_id": [1]},
                 "'residue_to_id' must be an object", id="ground-truth-residue-to-id-list"),
    pytest.param("ground-truth", {"kind": "peaks", "sequence": "A", "residue_to_id": {},
                                  "residue_to_peaks": {"1": 5}},
                 "is malformed at 'residue_to_peaks'", id="ground-truth-peaks-number"),
    pytest.param("reference", {"sequence": SEQ, "shifts": [1]}, "'shifts' must be an object",
                 id="reference-shifts-list"),
    pytest.param("reference", {"sequence": SEQ, "shifts": {"1": {"N": "x"}}},
                 "reference shifts[1][N] must be a finite number, got 'x'",
                 id="reference-string-shift"),
])
def test_malformed_json_input_exits_2(tmp_path, capsys, which, doc, message):
    """An assignment, ground truth or reference file that is not an object,
    lacks a key or holds a value of the wrong shape exits 2 with one error
    line, which names the missing or misshapen key."""
    (tmp_path / "assignment.json").write_text(json.dumps(NULL_ASSIGNMENT), encoding="utf-8")
    path = tmp_path / f"{which}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if which == "reference":
        argv = ["simulate", "--sequence", SEQ, "--reference", str(path)]
    else:
        argv = ["evaluate", "--assignment", str(tmp_path / "assignment.json"),
                "--ground-truth", str(tmp_path / "ground-truth.json")]
    code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_external_backend_answer_checked(tmp_path, capsys):
    """An external backend whose solve returns no LpSolution, or an optimal
    answer with a NaN value, ends the assign at that answer with exit 4 and
    one error line naming the backend."""
    run = _simulate(tmp_path, "run")
    for name, body, message in (
        ("silent", "    return None\n", " returned NoneType, not an LpSolution"),
        # forwards to the bundled solve, with a NaN for the first value of an
        # optimal answer, on which the search would otherwise branch until
        # the node budget ran out
        ("nan", "    answer = solve_lp(lp)\n"
                "    return replace(answer, values=np.r_[np.nan, answer.values[1:]]) if answer.ok else answer\n",
         "'s optimal answer has a value that is not finite"),
    ):
        backend = tmp_path / f"{name}.py"
        backend.write_text(
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "from nmrassign.lp import solve_lp\n"
            f"def solve(lp):\n{body}",
            encoding="utf-8",
        )
        capsys.readouterr()
        code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                     "--variant", "ilp", "--backend", f"external:{backend}",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_SOLVER
        assert err == f"error: backend lp_backend_{name}.solve{message}\n"


@pytest.mark.parametrize("name, text, cause", [
    ("syntax", "def solve(lp)\n    return None\n", "SyntaxError: "),
    ("missing", "import no_such_solver_module\n\ndef solve(lp):\n    return None\n",
     "ModuleNotFoundError: No module named 'no_such_solver_module'"),
], ids=["syntax-error", "missing-import"])
def test_backend_file_that_fails_to_load_exits_4(tmp_path, capsys, name, text, cause):
    """A backend file that raises while it loads (a syntax error, a missing
    import) ends the assign with exit 4 and one error line naming the file
    and the exception, not a traceback."""
    run = _simulate(tmp_path, "run")
    backend = tmp_path / f"{name}.py"
    backend.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                 "--backend", f"external:{backend}", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert err.startswith(f"error: cannot load solver backend from {backend}: {cause}")
    assert err.count("\n") == 1


#: sha256 of each output of a peaks-ref40 assign (instance 0, see
#: ``test_assign_outputs_are_pinned``), but ``timings.json``
PINNED_ASSIGN_OUTPUTS = {
    "assignment.json": "87ed2035dd8fefa1fa9a1cf0a9aca1754fec51b3c6035ecb5d8f772be0e9c719",
    "diagnostics.json": "ee18f96685750c59478427b01f955193921d7b9766fd52400ceaf6e88ae1f056",
    "graph_stats.json": "b7e386bfe76bb051ebcf0308b9fa0a9cece67dd696aedcf5574e8618e3af6faa",
    "lp_report.json": "559f9cb670ce37ed346481f25be1d8ef82570ef0cb4a8c897425352510a74d17",
}


def test_assign_outputs_are_pinned(tmp_path):
    """A peaks-ref40-style assign (ref40, flya, seed 0, tolerances
    0.08/0.8/0.8, top_k 20) writes the same bytes as ever. The Lagrangian
    stage proves its answer, so no LP solver takes part."""
    seq = bundled_reference("ref40").sequence.residues
    run = tmp_path / "run"
    assert main(["simulate", "--sequence", seq, "--reference", "ref40", "--protocol", "flya",
                 "--seed", "0", "--out", str(run)]) == EXIT_OK
    assert main(["assign", "--sequence", seq, "--dataset", str(run / "peaks.tsv"),
                 "--delta1", "0.08", "--delta2", "0.8", "--delta3", "0.8", "--top-k", "20",
                 "--out", str(run / "out")]) == EXIT_OK
    report = json.loads((run / "out" / "lp_report.json").read_text(encoding="utf-8"))
    assert report["proved_by"] == "lagrangian"
    digests = {
        name: hashlib.sha256((run / "out" / name).read_bytes()).hexdigest()
        for name in PINNED_ASSIGN_OUTPUTS
    }
    assert digests == PINNED_ASSIGN_OUTPUTS


#: sha256 of ``graph-stats --export``'s graph.json on instance 0 of each
#: benchmark workload (see ``test_graph_export_is_pinned``)
PINNED_GRAPH_EXPORTS = {
    "peaks-ref40": "8d1c217bed53aef742200aca44bdb9de5a07337ee1be3ec7bb7a3d5ddde4e161",
    "spins-deletion": "5a784000ece74ba62a24f6d626306159d1b17e119b4f0a091097243b99589768",
}


@pytest.mark.parametrize("workload", sorted(PINNED_GRAPH_EXPORTS))
def test_graph_export_is_pinned(tmp_path, capsys, workload):
    """graph.json of a peaks-ref40-style run (ref40, flya, seed 0, tolerances
    0.08/0.8/0.8, top_k 20) and of a spins-deletion-style run (ref60, cisa,
    high noise, 20 % deletion, seed 0, widened spins sigmas, delta3 1.4)
    holds the same bytes as ever: every node's kind, grouping and peaks, and
    every edge with its cost."""
    if workload == "peaks-ref40":
        seq = bundled_reference("ref40").sequence.residues
        simulate = ["--reference", "ref40", "--protocol", "flya"]
        options = ["--dataset", str(tmp_path / "peaks.tsv"), "--delta1", "0.08",
                   "--delta2", "0.8", "--delta3", "0.8", "--top-k", "20"]
    else:
        seq = bundled_reference("ref60").sequence.residues
        simulate = ["--reference", "ref60", "--protocol", "cisa", "--noise", "high",
                    "--deletion-rate", "0.2"]
        write_priors(_wide_priors(), tmp_path / "priors.json")
        options = ["--dataset", str(tmp_path / "spins.tsv"), "--delta3", "1.4",
                   "--priors", str(tmp_path / "priors.json")]
    assert main(["simulate", "--sequence", seq, *simulate, "--seed", "0",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert main(["graph-stats", "--sequence", seq, *options, "--export",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    graph = (tmp_path / "out" / "graph.json").read_bytes()
    assert hashlib.sha256(graph).hexdigest() == PINNED_GRAPH_EXPORTS[workload]


LAZY_SOLVER_SCRIPT = """
import json, sys
from pathlib import Path
from nmrassign import cli

run, solved, seq = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
for argv in (
    ["simulate", "--sequence", seq, "--seed", "3", "--out", run],
    ["simulate", "--sequence", seq, "--seed", "3", "--protocol", "flya",
     "--experiments", "hsqc,hncacb,hncocacb", "--out", run / "peaks"],
    ["graph-stats", "--sequence", seq, "--dataset", run / "spins.tsv", "--out", run],
    ["graph-stats", "--sequence", seq, "--dataset", run / "peaks" / "peaks.tsv",
     "--out", run / "peaks"],
    ["evaluate", "--assignment", solved / "assignment.json",
     "--ground-truth", solved / "ground_truth.json", "--out", run],
    ["assign", "--sequence", seq, "--dataset", run / "spins.tsv", "--out", run],
):
    assert cli.main([str(a) for a in argv]) == 0, argv
    scipy = any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
    print(json.dumps([argv[0], "nmrassign.lp" in sys.modules, scipy]))
"""


def test_only_assign_loads_the_solver(tmp_path, capsys):
    solved = _simulate(tmp_path, "solved")
    argv = ["assign", "--sequence", SEQ, "--dataset", str(solved / "spins.tsv"), "--out", str(solved)]
    assert main(argv) == EXIT_OK
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SOLVER_SCRIPT, str(tmp_path / "fresh"), str(solved), SEQ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert loaded == [
        ["simulate", False, False],
        ["simulate", False, False],
        ["graph-stats", False, False],
        ["graph-stats", False, False],
        ["evaluate", False, False],
        # the Lagrangian stage proves this low-noise spins assign: no scipy
        ["assign", True, False],
    ]


UNUSED_IMPORT_SCRIPT = """
import json, sys
from nmrassign import cli

assert cli.main(sys.argv[1:]) == 0
print(json.dumps(["numpy.ma" in sys.modules, "nmrassign.simulate" in sys.modules]))
"""


@pytest.mark.parametrize("command", ["assign", "graph-stats"])
def test_peak_list_runs_load_neither_numpy_ma_nor_the_simulator(tmp_path, capsys, command):
    """A fresh interpreter that assigns a peak list, or reports its graph,
    imports neither the simulator nor ``numpy.ma`` (which the first plain
    ``np.unique`` would import); only simulate and evaluate need the
    simulator."""
    run = tmp_path / "run"
    argv = ["simulate", "--sequence", SEQ, "--protocol", "flya", "--seed", "2"]
    assert main([*argv, "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", UNUSED_IMPORT_SCRIPT, command, "--sequence", SEQ,
         "--dataset", str(run / "peaks.tsv"), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False]


SOLVER_IMPORT_SCRIPT = """
import json, sys
from pathlib import Path
from nmrassign import cli, lp

seq, dataset, out = sys.argv[1:]
assert cli.main(["assign", "--sequence", seq, "--dataset", dataset, "--out", out]) == 0
report = json.loads((Path(out) / "lp_report.json").read_text(encoding="utf-8"))
scipy = any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
unused = ("scipy.optimize", "scipy.sparse", "numpy.f2py", "numpy.ma")
loaded = [name in sys.modules for name in (*unused, lp.HIGHS_CORE)]
print(json.dumps([report["proved_by"], *loaded, scipy]))
"""


@pytest.mark.parametrize(
    "protocol, seed, extra, dataset, proved_by, core",
    [
        # the Lagrangian stage proves this peak list: no LP, no scipy module
        pytest.param("flya", "2", [], "peaks.tsv", "lagrangian", False, id="lagrangian"),
        # at high noise the stage falls through to the root LP
        pytest.param("cisa", "0", ["--noise", "high"], "spins.tsv", "lp", True, id="lp"),
    ],
)
def test_highs_core_loads_on_the_first_lp_solve(
    tmp_path, capsys, protocol, seed, extra, dataset, proved_by, core
):
    out = tmp_path / "run"
    argv = ["simulate", "--sequence", SEQ, "--protocol", protocol, "--seed", seed, *extra]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SOLVER_IMPORT_SCRIPT, SEQ, str(out / dataset), str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # never scipy.optimize, scipy.sparse (nor numpy.f2py and numpy.ma, which
    # it imports); HiGHS's core once an LP is solved, and for the Lagrangian
    # proof no scipy module at all
    assert json.loads(proc.stdout.splitlines()[-1]) == [proved_by, *[False] * 4, core, core]


def test_missing_highs_core_is_a_solver_error(tmp_path, capsys, monkeypatch):
    """Without HiGHS's core in scipy's files, the first LP solve fails with
    exit 4 and one error line that names the folder searched."""
    # at high noise the Lagrangian stage falls through to the root LP
    run = tmp_path / "run"
    argv = ["simulate", "--sequence", SEQ, "--protocol", "cisa", "--seed", "0", "--noise", "high"]
    assert main([*argv, "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.delitem(sys.modules, lpmod.HIGHS_CORE, raising=False)
    monkeypatch.setattr(lpmod, "_highs_directory", lambda: empty)
    argv = ["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(empty) in err[0]
