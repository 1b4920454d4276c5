"""Scoring assignments against ground truth.

Precision is correct-over-assigned and recall correct-over-assignable,
counted per residue. For spin-system input a residue is correct when the
assigned system id matches the generating residue; for peak-list input the
assigned grouping must contain exactly the peaks the residue generated.
Atom-level correctness gives partial credit per consensus shift.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .domain import NmrAssignError, dimension_of, json_object, write_json
from .graph import AssignmentGraph
from .shortest_path import SolveResult, path_solution
from .simulate import FLYA_BOUND, GroundTruth


class LengthMismatchError(NmrAssignError):
    pass


class SequenceMismatchError(NmrAssignError):
    pass


class PathNotInGraphError(NmrAssignError):
    pass


@dataclass(frozen=True)
class ResidueAssignment:
    residue: int
    #: grouping or spin-system id, None for a null (dummy) assignment
    assigned_id: str | None
    member_peaks: tuple[str, ...]
    #: role -> consensus shift, including previous-residue roles
    consensus: Mapping[str, float]
    edge_cost: float
    threshold: float
    reused_peaks: tuple[str, ...] = ()


@dataclass
class Assignment:
    sequence: str
    residues: list[ResidueAssignment]
    variant: str
    objective: float
    proven_optimal: bool
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.sequence):
            raise LengthMismatchError("one residue assignment required per residue")


def assignment_from_result(g: AssignmentGraph, result: SolveResult) -> Assignment:
    residues = []
    for k in range(1, g.n + 1):
        row = int(g.grouping_rows[k][result.path.nodes[k]])
        if row < 0:
            residues.append(
                ResidueAssignment(k, None, (), {}, result.path.edge_costs[k], g.thresholds[k])
            )
            continue
        # read from the grouping table: its roles are in name order, its
        # members in id order
        consensus = {
            role: sum(values) / len(values)
            for role, (values, _, _) in g.groupings.consensus(row).items()
        }
        members = tuple(g.groupings.member_ids(row))
        reused = tuple(p for p in members if p in result.reused_peaks)
        residues.append(
            ResidueAssignment(
                k,
                g.groupings.ids[row],
                members,
                consensus,
                result.path.edge_costs[k],
                g.thresholds[k],
                reused,
            )
        )
    return Assignment(
        g.sequence.residues,
        residues,
        result.variant,
        result.objective,
        result.proven_optimal,
        result.path.nodes,
    )


@dataclass
class ScoreReport:
    m_assigned: int
    m_correct: int
    m_assignable: int
    #: residue -> "correct" | "wrong" | "unassigned" | "absent"
    verdicts: dict[int, str]
    flags: list[str] = field(default_factory=list)

    @property
    def precision(self) -> float:
        return self.m_correct / self.m_assigned if self.m_assigned else 0.0

    @property
    def recall(self) -> float:
        return self.m_correct / self.m_assignable if self.m_assignable else 0.0


def _judge(ra: ResidueAssignment, gt: GroundTruth) -> tuple[bool, bool]:
    """(assignable, correct) for one residue. A residue is assignable when it
    generated a spin system (spin input) or peaks (peak input); its
    assignment is correct when it names that spin system, or a grouping of
    exactly those peaks."""
    if gt.kind == "spins":
        truth = gt.residue_to_id.get(ra.residue)
        return truth is not None, ra.assigned_id is not None and ra.assigned_id == truth
    truth_peaks = frozenset(gt.residue_to_peaks.get(ra.residue, ()))
    return bool(truth_peaks), ra.assigned_id is not None and frozenset(ra.member_peaks) == truth_peaks


def score(a: Assignment, gt: GroundTruth) -> ScoreReport:
    if a.sequence != gt.sequence:
        raise SequenceMismatchError(
            f"assignment is of sequence {a.sequence}, ground truth of sequence {gt.sequence}"
        )
    m_assigned = m_correct = m_assignable = 0
    verdicts: dict[int, str] = {}
    for ra in a.residues:
        k = ra.residue
        assignable, correct = _judge(ra, gt)
        if assignable:
            m_assignable += 1
        if ra.assigned_id is not None:
            m_assigned += 1
            if correct:
                m_correct += 1
                verdicts[k] = "correct"
            else:
                verdicts[k] = "wrong"
        else:
            verdicts[k] = "unassigned" if assignable else "absent"
    report = ScoreReport(m_assigned, m_correct, m_assignable, verdicts)
    if m_assigned == 0:
        report.flags.append("no residues assigned; precision reported as 0 by convention")
    return report


def atom_correctness(
    a: Assignment,
    gt: GroundTruth,
    roles: Sequence[str] = ("N", "HN", "CA", "CB", "CO"),
) -> tuple[float, int, int]:
    """(fraction, correct, total) of atoms placed within the noise bound.

    An atom counts when the reference defines it on an assignable residue;
    it is correct when the assigned consensus estimate for its own residue
    sits within the per-dimension bound of the reference value.
    """
    total = correct = 0
    for ra in a.residues:
        if not _judge(ra, gt)[0]:
            continue
        reference = gt.reference.get(ra.residue, {})
        for role in roles:
            if role not in reference:
                continue
            total += 1
            estimate = ra.consensus.get(role)
            if estimate is None:
                continue
            if abs(estimate - reference[role]) <= FLYA_BOUND[dimension_of(role)]:
                correct += 1
    return (correct / total if total else 0.0), correct, total


def diagnostics(a: Assignment, g: AssignmentGraph) -> list[dict]:
    """Per-residue cost table: cost, threshold, margin, reuse."""
    if path_solution(g, a.path) is None:
        raise PathNotInGraphError("the assignment's path is not a path of the graph")
    rows = []
    for ra in a.residues:
        rows.append(
            {
                "residue": ra.residue,
                "type": a.sequence[ra.residue - 1],
                "assigned": ra.assigned_id,
                "cost": ra.edge_cost,
                "threshold": ra.threshold,
                "margin": ra.threshold - ra.edge_cost,
                "reused_peaks": list(ra.reused_peaks),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# serialization


def write_assignment(a: Assignment, path: str | Path) -> None:
    doc = {
        "sequence": a.sequence,
        "variant": a.variant,
        "objective": a.objective,
        "proven_optimal": a.proven_optimal,
        "path": list(a.path),
        "residues": [
            {
                "residue": ra.residue,
                "assigned": ra.assigned_id,
                "member_peaks": list(ra.member_peaks),
                "consensus": dict(ra.consensus),
                "cost": ra.edge_cost,
                "threshold": ra.threshold,
                "reused_peaks": list(ra.reused_peaks),
            }
            for ra in a.residues
        ],
    }
    write_json(doc, path)


def read_assignment(path: str | Path) -> Assignment:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    with json_object(doc, f"assignment {path}") as read:
        residues = []
        for i, entry in enumerate(read("residues", list)):
            with json_object(entry, f"assignment {path} residues[{i}]") as read_residue:
                residues.append(ResidueAssignment(
                    residue=read_residue("residue", int),
                    assigned_id=read_residue("assigned", str, None),
                    member_peaks=tuple(read_residue("member_peaks", list)),
                    consensus=dict(read_residue("consensus", Mapping)),
                    edge_cost=read_residue("cost", numbers.Real),
                    threshold=read_residue("threshold", numbers.Real),
                    reused_peaks=tuple(read_residue("reused_peaks", list, default=())),
                ))
        return Assignment(
            sequence=read("sequence", str),
            residues=residues,
            variant=read("variant", str),
            objective=read("objective", numbers.Real),
            proven_optimal=read("proven_optimal", bool),
            path=tuple(read("path", list)),
        )


def report_to_dict(report: ScoreReport) -> dict:
    return {
        "m_assigned": report.m_assigned,
        "m_correct": report.m_correct,
        "m_assignable": report.m_assignable,
        "precision": report.precision,
        "recall": report.recall,
        "verdicts": {str(k): v for k, v in sorted(report.verdicts.items())},
        "flags": list(report.flags),
    }


def write_report(report: ScoreReport, path: str | Path) -> None:
    write_json(report_to_dict(report), path)


def report_to_text(report: ScoreReport) -> str:
    lines = [
        f"{'residue':>8}  verdict",
        "-" * 22,
    ]
    for k, verdict in sorted(report.verdicts.items()):
        lines.append(f"{k:>8}  {verdict}")
    lines.append("-" * 22)
    lines.append(
        f"assigned {report.m_assigned}  correct {report.m_correct}  "
        f"assignable {report.m_assignable}"
    )
    lines.append(f"precision {report.precision:.3f}  recall {report.recall:.3f}")
    for flag in report.flags:
        lines.append(f"note: {flag}")
    return "\n".join(lines) + "\n"
