"""Synthetic dataset generation under two noise protocols.

The spin-system protocol emits one consensus record per residue with the
amide pair copied exactly and the four carbon entries perturbed by
independent zero-mean Gaussian noise. The peak-list protocol emits the full
peak pattern of a chosen experiment set with truncated Gaussian noise on
every coordinate, redrawing deviations that land outside the bound.

All randomness flows through numpy Generators seeded with named substreams
([seed, residue]), so output is reproducible and independent per residue.

Each protocol checks its inputs once, on entry, before any draw: the noise
level, the deletion rate, and a reference that holds the simulated
sequence as its start. A reference file's shifts are checked as it is
read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    BASE_ROLES,
    NmrAssignError,
    Peak,
    PriorTable,
    ProteinSequence,
    SpinSystem,
    base_role,
    is_finite_number,
    is_prev,
    json_object,
    write_json,
)
from .experiments import FULL_SET, experiment_set

#: (sigma_alpha, sigma_beta) in ppm for the two spin-system noise levels
CISA_NOISE = {"low": (0.08, 0.16), "high": (0.16, 0.32)}

#: per-dimension noise std and truncation bound, in ppm
FLYA_SIGMA = {"H": 0.03 / 4, "N": 0.4 / 4, "C": 0.4 / 4}
FLYA_BOUND = {"H": 0.04, "N": 0.4, "C": 0.4}


@dataclass(frozen=True)
class Reference:
    """True chemical shifts: residue index (1-based) -> base role -> ppm. An
    atom the residue lacks has no entry."""

    sequence: ProteinSequence
    shifts: Mapping[int, Mapping[str, float]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shifts", {int(k): dict(v) for k, v in self.shifts.items()}
        )


@dataclass
class GroundTruth:
    """Provenance of a simulated dataset, for scoring.

    ``residue_to_id`` maps each residue to the spin-system id it generated,
    or None where chemistry suppresses the record (no amide). For peak
    lists, ``residue_to_peaks`` holds the generated peak ids instead and
    ``peak_origin`` maps each peak back to (residue, carbon role or None).
    """

    kind: str  # "spins" or "peaks"
    sequence: str
    residue_to_id: dict[int, str | None]
    residue_to_peaks: dict[int, tuple[str, ...]] = field(default_factory=dict)
    peak_origin: dict[str, tuple[int, str | None]] = field(default_factory=dict)
    reference: dict[int, dict[str, float]] = field(default_factory=dict)


def sample_reference(seq: ProteinSequence, priors: PriorTable, seed: int) -> Reference:
    """Draw one true shift per present atom from the per-type priors."""
    shifts: dict[int, dict[str, float]] = {}
    for k in range(1, len(seq) + 1):
        rng = np.random.default_rng([seed, k])
        entry: dict[str, float] = {}
        for role in BASE_ROLES:
            prior = priors.prior(seq.residue_type(k), role)
            draw = rng.normal()
            if prior is not None:
                entry[role] = prior.mean + prior.std * draw
        shifts[k] = entry
    return Reference(seq, shifts)


def _ground_truth(
    kind: str, seq: ProteinSequence, reference: Reference, deletion_rate: float
) -> GroundTruth:
    """The empty ground truth of a simulation, once its inputs pass the
    checks both protocols share: the deletion rate lies in [0, 1), and the
    reference holds shifts for every simulated residue under the same
    residue type, that is, its sequence starts with the simulated one."""
    if not 0.0 <= deletion_rate < 1.0:
        raise NmrAssignError(f"deletion rate must be in [0, 1), got {deletion_rate}")
    if not reference.sequence.residues.startswith(seq.residues):
        raise NmrAssignError(
            f"the reference is of sequence {reference.sequence.residues}, "
            f"which does not start with the simulated sequence {seq.residues}"
        )
    for k in range(1, len(seq) + 1):
        if k not in reference.shifts:
            raise NmrAssignError(f"the reference holds no shifts for residue {k}")
    return GroundTruth(
        kind,
        seq.residues,
        {},
        reference={k: dict(v) for k, v in reference.shifts.items()},
    )


def simulate_cisa(
    seq: ProteinSequence,
    reference: Reference,
    seed: int,
    noise: str = "low",
    deletion_rate: float = 0.0,
) -> tuple[list[SpinSystem], GroundTruth]:
    if noise not in CISA_NOISE:
        raise NmrAssignError(f"unknown noise level {noise!r}")
    sigma_alpha, sigma_beta = CISA_NOISE[noise]
    gt = _ground_truth("spins", seq, reference, deletion_rate)
    spins: list[SpinSystem] = []
    for k in range(1, len(seq) + 1):
        true = reference.shifts[k]
        if not {"N", "HN"} <= true.keys():
            gt.residue_to_id[k] = None
            continue
        rng = np.random.default_rng([seed, k])
        shifts = {"N": true["N"], "HN": true["HN"]}
        carbon_specs = [
            ("CA", k, sigma_alpha),
            ("CB", k, sigma_beta),
            ("CA_prev", k - 1, sigma_alpha),
            ("CB_prev", k - 1, sigma_beta),
        ]
        for role, residue, sigma in carbon_specs:
            draw = rng.normal()
            if residue < 1:
                continue
            carbon = reference.shifts[residue].get(base_role(role))
            if carbon is None:
                continue
            shifts[role] = carbon + sigma * draw
        if deletion_rate > 0 and rng.random() < deletion_rate:
            gt.residue_to_id[k] = None
            continue
        system_id = f"s{k:03d}"
        spins.append(SpinSystem(system_id, shifts))
        gt.residue_to_id[k] = system_id
    return spins, gt


def _truncated_normal(rng: np.random.Generator, dim: str) -> float:
    """A deviation in dimension ``dim``: ``FLYA_SIGMA`` times a normal draw,
    redrawn until it lies within ``FLYA_BOUND``; 0 without a draw when the
    sigma is 0."""
    sigma, bound = FLYA_SIGMA[dim], FLYA_BOUND[dim]
    if sigma == 0.0:
        return 0.0
    while True:
        dev = sigma * rng.normal()
        if abs(dev) <= bound:
            return dev


def simulate_flya(
    seq: ProteinSequence,
    reference: Reference,
    seed: int,
    experiments: Sequence[str] = FULL_SET,
    deletion_rate: float = 0.0,
) -> tuple[list[Peak], GroundTruth]:
    exps = experiment_set(experiments)
    gt = _ground_truth("peaks", seq, reference, deletion_rate)
    peaks: list[Peak] = []
    for k in range(1, len(seq) + 1):
        gt.residue_to_id[k] = None
        true = reference.shifts[k]
        if not {"N", "HN"} <= true.keys():
            gt.residue_to_peaks[k] = ()
            continue
        rng = np.random.default_rng([seed, k])
        emitted: list[str] = []
        for exp in exps:
            for t, tmpl in enumerate(exp.templates):
                c_true = None
                if tmpl.role is not None:
                    residue = k - 1 if is_prev(tmpl.role) else k
                    if residue < 1:
                        continue
                    c_true = reference.shifts[residue].get(base_role(tmpl.role))
                    if c_true is None:
                        continue
                coords = [
                    ("H", true["HN"] + _truncated_normal(rng, "H")),
                    ("N", true["N"] + _truncated_normal(rng, "N")),
                ]
                if c_true is not None:
                    coords.append(("C", c_true + _truncated_normal(rng, "C")))
                if deletion_rate > 0 and rng.random() < deletion_rate:
                    continue
                peak_id = f"p{k:03d}_{exp.name}_{t}"
                peaks.append(Peak(peak_id, exp.name, tuple(coords), tmpl.phase))
                emitted.append(peak_id)
                gt.peak_origin[peak_id] = (k, tmpl.role)
        gt.residue_to_peaks[k] = tuple(emitted)
    return peaks, gt


# ---------------------------------------------------------------------------
# file formats


def read_reference(path: str | Path) -> Reference:
    return reference_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def reference_from_dict(doc: Mapping) -> Reference:
    """A reference from a JSON document: an object whose ``sequence`` is a
    one-letter sequence and whose ``shifts`` maps residue index -> base
    role -> shift in ppm. A shift that is not a finite number is rejected,
    naming its residue and role."""
    with json_object(doc, "reference") as read:
        reference = Reference(ProteinSequence(read("sequence", str)), read("shifts", Mapping))
    for k, entry in reference.shifts.items():
        for role, value in entry.items():
            if not is_finite_number(value):
                raise NmrAssignError(
                    f"reference shifts[{k}][{role}] must be a finite number, got {value!r}"
                )
    return reference


def write_ground_truth(gt: GroundTruth, path: str | Path) -> None:
    doc = {
        "kind": gt.kind,
        "sequence": gt.sequence,
        "residue_to_id": {str(k): v for k, v in sorted(gt.residue_to_id.items())},
        "residue_to_peaks": {
            str(k): list(v) for k, v in sorted(gt.residue_to_peaks.items())
        },
        "peak_origin": {
            pid: [res, role] for pid, (res, role) in sorted(gt.peak_origin.items())
        },
        "reference": {str(k): v for k, v in sorted(gt.reference.items())},
    }
    write_json(doc, path)


def read_ground_truth(path: str | Path) -> GroundTruth:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    with json_object(doc, f"ground truth {path}") as read:
        return GroundTruth(
            kind=read("kind", str),
            sequence=read("sequence", str),
            residue_to_id={int(k): v for k, v in read("residue_to_id", Mapping).items()},
            residue_to_peaks={
                int(k): tuple(v) for k, v in read("residue_to_peaks", Mapping, default={}).items()
            },
            peak_origin={
                pid: (int(res), role)
                for pid, (res, role) in read("peak_origin", Mapping, default={}).items()
            },
            reference={
                int(k): {r: float(x) for r, x in v.items()}
                for k, v in read("reference", Mapping, default={}).items()
            },
        )
