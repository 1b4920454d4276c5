import pytest

from nmrassign.domain import ProteinSequence
from nmrassign.evaluate import (
    Assignment,
    LengthMismatchError,
    PathNotInGraphError,
    ResidueAssignment,
    SequenceMismatchError,
    assignment_from_result,
    atom_correctness,
    diagnostics,
    read_assignment,
    report_to_dict,
    report_to_text,
    score,
    write_assignment,
    write_report,
)
from nmrassign.lp import solve_lian1
from nmrassign.simulate import GroundTruth, sample_reference, simulate_cisa
from nmrassign.graph import build_graph
from nmrassign.grouping import spins_to_groupings
from nmrassign.experiments import spin_observation_counts

from oracles import conflict_fixture


def _assignment(assigned, sequence=None, consensus=None):
    sequence = sequence or "A" * len(assigned)
    residues = [
        ResidueAssignment(
            k,
            aid,
            (aid,) if aid is not None else (),
            consensus[k - 1] if consensus else {},
            1.0,
            10.0,
        )
        for k, aid in enumerate(assigned, start=1)
    ]
    return Assignment(sequence, residues, "lian1", 1.0, True, (0,) * (len(assigned) + 2))


def _spins_gt(truth, sequence=None):
    sequence = sequence or "A" * len(truth)
    return GroundTruth("spins", sequence, dict(enumerate(truth, start=1)))


def test_precision_recall_arithmetic():
    # 12 assignable residues, 10 assigned, 9 of them correct
    truth = [f"s{k}" for k in range(12)]
    assigned = [f"s{k}" if k < 9 else ("x" if k == 9 else None) for k in range(12)]
    report = score(_assignment(assigned), _spins_gt(truth))
    assert (report.m_assigned, report.m_correct, report.m_assignable) == (10, 9, 12)
    assert report.precision == pytest.approx(0.9)
    assert report.recall == pytest.approx(0.75)
    assert report.verdicts[1] == "correct"
    assert report.verdicts[10] == "wrong"
    assert report.verdicts[11] == "unassigned"
    assert not report.flags


def test_all_null_assignment_flagged():
    report = score(_assignment([None, None, None]), _spins_gt(["s1", "s2", "s3"]))
    assert report.precision == 0.0 and report.recall == 0.0
    assert report.flags


def test_identity_assignment_perfect():
    truth = ["s1", "s2", None, "s4"]  # residue 3 produced no record
    assigned = ["s1", "s2", None, "s4"]
    report = score(_assignment(assigned), _spins_gt(truth))
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.verdicts[3] == "absent"


def test_length_mismatch():
    with pytest.raises(SequenceMismatchError, match="sequence A, ground truth of sequence AA"):
        score(_assignment(["s1"]), _spins_gt(["s1", "s2"]))
    with pytest.raises(LengthMismatchError):
        Assignment("AA", [], "dp", 0.0, True, (0, 0, 0))


def test_peaks_mode_requires_exact_member_set():
    gt = GroundTruth(
        "peaks",
        "AA",
        {1: None, 2: None},
        residue_to_peaks={1: ("p1", "p2"), 2: ("p3",)},
    )
    residues = [
        ResidueAssignment(1, "g0", ("p1", "p2"), {}, 0.0, 1.0),
        ResidueAssignment(2, "g1", ("p3", "p4"), {}, 0.0, 1.0),  # extra peak
    ]
    a = Assignment("AA", residues, "lian1", 0.0, True, (0, 1, 1, 0))
    report = score(a, gt)
    assert report.verdicts == {1: "correct", 2: "wrong"}
    assert report.precision == pytest.approx(0.5)


def test_atom_correctness_partial_credit():
    gt = GroundTruth(
        "spins",
        "AA",
        {1: "s1", 2: "s2"},
        reference={
            1: {"N": 120.0, "HN": 8.0, "CA": 53.0},
            2: {"N": 118.0, "HN": 7.9, "CA": 54.0},
        },
    )
    consensus = [
        {"N": 120.1, "HN": 8.01, "CA": 53.1},  # all within bounds
        {"N": 118.0, "HN": 7.0, "CA": 60.0},  # HN and CA out of bounds
    ]
    a = _assignment(["s1", "s2"], consensus=consensus)
    fraction, correct, total = atom_correctness(a, gt)
    assert (correct, total) == (4, 6)
    assert fraction == pytest.approx(4 / 6)
    # unobservable residues are excluded from the denominator
    gt.residue_to_id[2] = None
    fraction, correct, total = atom_correctness(a, gt)
    assert (correct, total) == (3, 3)


def test_assignment_from_result_and_diagnostics(default_tol):
    g = conflict_fixture()
    result = solve_lian1(g, default_tol)
    a = assignment_from_result(g, result)
    assert len(a.residues) == 2
    kinds = sorted("dummy" if r.assigned_id is None else "regular" for r in a.residues)
    assert kinds == ["dummy", "regular"]
    rows = diagnostics(a, g)
    by_residue = {row["residue"]: row for row in rows}
    dummy_row = next(r for r in rows if r["assigned"] is None)
    # a dummy assignment costs exactly the threshold: zero margin
    assert dummy_row["margin"] == pytest.approx(0.0)
    assert all(row["threshold"] == 10.0 for row in rows)
    assert set(by_residue) == {1, 2}


def test_diagnostics_rejects_foreign_path(default_tol):
    g = conflict_fixture()
    residues = [
        ResidueAssignment(1, None, (), {}, 10.0, 10.0),
        ResidueAssignment(2, None, (), {}, 10.0, 10.0),
    ]
    a = Assignment("AA", residues, "dp", 20.0, True, (0, 0, 0))
    with pytest.raises(PathNotInGraphError):
        diagnostics(a, g)
    b = Assignment("AA", residues, "dp", 20.0, True, (0, 3, 0, 0))
    with pytest.raises(PathNotInGraphError):
        diagnostics(b, g)


def test_end_to_end_scoring_on_simulated_data(toy_priors, default_tol):
    seq = ProteinSequence("AGAGA")
    ref = sample_reference(seq, toy_priors, seed=21)
    spins, gt = simulate_cisa(seq, ref, 21, "low")
    groupings = spins_to_groupings(spins, toy_priors)
    g = build_graph(groupings, seq, toy_priors, default_tol, spin_observation_counts(toy_priors))
    result = solve_lian1(g, default_tol)
    a = assignment_from_result(g, result)
    report = score(a, gt)
    assert report.precision == 1.0 and report.recall == 1.0
    # the spin protocol never observes CO, so score only the observed atoms
    fraction, _, _ = atom_correctness(a, gt, roles=("N", "HN", "CA", "CB"))
    assert fraction == 1.0


def test_assignment_round_trip(tmp_path, default_tol):
    g = conflict_fixture()
    a = assignment_from_result(g, solve_lian1(g, default_tol))
    path = tmp_path / "assignment.json"
    write_assignment(a, path)
    back = read_assignment(path)
    assert back == a


def test_report_serialization(tmp_path):
    report = score(_assignment(["s1", None]), _spins_gt(["s1", "s2"]))
    doc = report_to_dict(report)
    assert doc["precision"] == 1.0 and doc["recall"] == 0.5
    write_report(report, tmp_path / "report.json")
    text = report_to_text(report)
    assert "precision 1.000  recall 0.500" in text
    assert "unassigned" in text
    # a report with a flag prints it as a note after the totals
    empty = report_to_text(score(_assignment([None, None]), _spins_gt(["s1", "s2"])))
    assert empty.splitlines()[-2:] == [
        "precision 0.000  recall 0.000",
        "note: no residues assigned; precision reported as 0 by convention",
    ]
    assert "note:" not in text
