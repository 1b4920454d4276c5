import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from nmrassign import cli
from nmrassign.cli import EXIT_INCUMBENT, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, build_parser, main
from nmrassign.domain import Tolerances, write_priors
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
    total and the tie-rule flag, for every variant."""
    out = _simulate(tmp_path, "reportrun")
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
    capsys.readouterr()


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
            "--sequence", "ADKFLEGQRS",
            "--protocol", "flya",
            "--reference", "ref60",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "peaks.tsv").exists()
    capsys.readouterr()


def test_timings_name_each_stage(tmp_path, capsys):
    """A peak list's grouping is timed as its two stages, the compatibility
    graph and the enumeration; spin systems are only enumerated."""
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
        "flya": {"load", "compat", "enumerate", "graph", "solve"},
        "cisa": {"load", "enumerate", "graph", "solve"},
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
    (10, EXIT_INCUMBENT, "warning: node budget hit; result is an unproven incumbent"),
    (1, EXIT_SOLVER, "error: no integral solution found within the node budget"),
], ids=["unproven-incumbent", "no-incumbent"])
def test_node_budget_exits(tmp_path, capsys, node_limit, code, stderr):
    """The 30-residue deletion dataset of ``test_lp`` has a fractional root,
    and ilp's search finds its first incumbent at node 4 and proves it at
    node 21: a budget of 10 nodes ends with that incumbent unproven (exit
    3), and a budget of 1 with none (exit 4)."""
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
    if code == EXIT_INCUMBENT:
        report = json.loads((tmp_path / "out" / "lp_report.json").read_text(encoding="utf-8"))
        assert report["proven_optimal"] is False and report["nodes_explored"] == node_limit


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



@pytest.mark.parametrize("config", [{"node_limt": 1}, {"seed": 3}])
def test_config_key_of_no_option_rejected(tmp_path, capsys, config):
    """A misspelt key, or one that only another subcommand accepts, exits 2
    naming the key instead of being ignored."""
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


def test_lambda_flag_beats_either_config_name(tmp_path, capsys, monkeypatch):
    """``--lambda`` wins over a config's ``lambda`` as over its ``lam``; a
    config giving both names exits 2 naming both."""
    seen = []

    def run_assign(**kwargs):
        seen.append(kwargs["tol"].lam)
        return {"variant": "lian2", "objective": 0.0, "assigned": 0,
                "residues": len(SEQ), "proven_optimal": True}

    monkeypatch.setattr(cli, "run_assign", run_assign)
    path = tmp_path / "config.json"
    argv = ["assign", "--config", str(path), "--sequence", SEQ,
            "--dataset", str(tmp_path / "spins.tsv"), "--out", str(tmp_path)]
    for key in ("lambda", "lam"):
        path.write_text(json.dumps({key: 5}))
        assert main([*argv, "--lambda", "3"]) == EXIT_OK
        assert main(argv) == EXIT_OK
    assert seen == [3.0, 5.0, 3.0, 5.0]
    path.write_text(json.dumps({"lambda": 4, "lam": 5}))
    capsys.readouterr()
    assert main([*argv, "--lambda", "3"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: config keys 'lam' and 'lambda' set the same option\n"
    assert seen == [3.0, 5.0, 3.0, 5.0]


@pytest.mark.parametrize("doc, message", [
    ([0.1], "must hold a JSON object"),
    ({"delta_3": 0.8, "lam": 2.0}, "tolerances key 'delta_3' is not one of"),
    ({"delta3": 0.8, "lam": 2.0}, "tolerances key 'lam' is not one of"),
])
def test_tolerances_file_of_no_tolerance_rejected(tmp_path, capsys, monkeypatch, doc, message):
    """A tolerances file holding anything but an object of tolerance keys
    exits 2 naming the key, instead of crashing or being ignored; the keys
    it may hold set their tolerances."""
    seen = []

    def run_assign(**kwargs):
        seen.append(kwargs["tol"])
        return {"variant": "lian1", "objective": 0.0, "assigned": 0,
                "residues": len(SEQ), "proven_optimal": True}

    monkeypatch.setattr(cli, "run_assign", run_assign)
    path = tmp_path / "tol.json"
    argv = ["assign", "--tolerances", str(path), "--sequence", SEQ,
            "--dataset", str(tmp_path / "spins.tsv"), "--out", str(tmp_path)]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert seen == []
    path.write_text(json.dumps({"delta1": 0.05, "delta2": 0.5, "delta3": 0.8, "delta": 2.5, "lambda": 2.0}))
    assert main(argv) == EXIT_OK
    assert seen == [Tolerances(delta1=0.05, delta2=0.5, delta3=0.8, delta=2.5, lam=2.0)]


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
    """An external backend whose solve returns no LpSolution ends the
    assign with exit 4 and one error line naming the backend."""
    run = _simulate(tmp_path, "run")
    backend = tmp_path / "silent.py"
    backend.write_text("def solve(lp):\n    return None\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["assign", "--sequence", SEQ, "--dataset", str(run / "spins.tsv"),
                 "--variant", "ilp", "--backend", f"external:{backend}",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER
    assert err == "error: backend lp_backend_silent.solve returned NoneType, not an LpSolution\n"


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


SOLVER_IMPORT_SCRIPT = """
import json, sys
from pathlib import Path
from nmrassign import cli

seq, dataset, out = sys.argv[1:]
assert cli.main(["assign", "--sequence", seq, "--dataset", dataset, "--out", out]) == 0
report = json.loads((Path(out) / "lp_report.json").read_text(encoding="utf-8"))
scipy = any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
print(json.dumps([report["proved_by"], "scipy.optimize" in sys.modules, scipy]))
"""


@pytest.mark.parametrize(
    "protocol, seed, extra, dataset, proved_by, loaded",
    [
        # the Lagrangian stage proves this peak list: no LP, no scipy module
        ("flya", "2", [], "peaks.tsv", "lagrangian", False),
        # at high noise the stage falls through to the root LP
        ("cisa", "0", ["--noise", "high"], "spins.tsv", "lp", True),
    ],
)
def test_scipy_solver_loads_on_the_first_lp_solve(
    tmp_path, capsys, protocol, seed, extra, dataset, proved_by, loaded
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
    # scipy.optimize, and for the Lagrangian proof any scipy module at all
    assert json.loads(proc.stdout.splitlines()[-1]) == [proved_by, loaded, loaded]
