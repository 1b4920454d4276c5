"""Synthetic dataset generation under two noise protocols.

The spin-system protocol emits one consensus record per residue with the
amide pair copied exactly and the four carbon entries perturbed by
independent zero-mean Gaussian noise. The peak-list protocol emits the full
peak pattern of a chosen experiment set with truncated Gaussian noise on
every coordinate, redrawing deviations that land outside the bound.

All randomness flows through numpy Generators seeded with named substreams
([seed, residue]), so output is reproducible and independent per residue.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .domain import (
    BASE_ROLES,
    MissingReferenceError,
    NmrAssignError,
    Peak,
    PriorTable,
    ProteinSequence,
    SpinSystem,
    base_role,
    is_prev,
    json_object,
    write_json,
)
from .experiments import experiment_set

#: (sigma_alpha, sigma_beta) in ppm for the two spin-system noise levels
CISA_NOISE = {"low": (0.08, 0.16), "high": (0.16, 0.32)}

#: per-dimension noise std and truncation bound, in ppm
FLYA_SIGMA = {"H": 0.03 / 4, "N": 0.4 / 4, "C": 0.4 / 4}
FLYA_BOUND = {"H": 0.04, "N": 0.4, "C": 0.4}


@dataclass(frozen=True)
class SimulationSpec:
    protocol: str  # "cisa" or "flya"
    seed: int
    sigma_alpha: float = 0.08
    sigma_beta: float = 0.16
    flya_sigma: Mapping[str, float] = field(default_factory=lambda: dict(FLYA_SIGMA))
    deletion_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.protocol not in ("cisa", "flya"):
            raise NmrAssignError(f"unknown protocol {self.protocol!r}")
        if self.sigma_alpha < 0 or self.sigma_beta < 0:
            raise NmrAssignError("noise sigma must be non-negative")
        for dim, sigma in self.flya_sigma.items():
            if sigma < 0:
                raise NmrAssignError(f"flya sigma[{dim}] must be non-negative")
        if not 0.0 <= self.deletion_rate < 1.0:
            raise NmrAssignError("deletion rate must be in [0, 1)")

    @classmethod
    def cisa(cls, noise: str, seed: int, deletion_rate: float = 0.0) -> "SimulationSpec":
        sigma_alpha, sigma_beta = CISA_NOISE[noise]
        return cls("cisa", seed, sigma_alpha, sigma_beta, deletion_rate=deletion_rate)

    @classmethod
    def flya(cls, seed: int, deletion_rate: float = 0.0) -> "SimulationSpec":
        return cls("flya", seed, deletion_rate=deletion_rate)


@dataclass(frozen=True)
class Reference:
    """True chemical shifts: residue index (1-based) -> base role -> ppm."""

    sequence: ProteinSequence
    shifts: Mapping[int, Mapping[str, float]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shifts", {int(k): dict(v) for k, v in self.shifts.items()}
        )

    def shift(self, residue: int, role: str) -> float | None:
        entry = self.shifts.get(residue)
        if entry is None:
            raise MissingReferenceError(f"no reference shifts for residue {residue}")
        return entry.get(role)

    def check_covers(self, seq: ProteinSequence) -> None:
        for k in range(1, len(seq) + 1):
            if k not in self.shifts:
                raise MissingReferenceError(f"no reference shifts for residue {k}")


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


def _has_amide(reference: Reference, k: int) -> bool:
    return (
        reference.shift(k, "N") is not None and reference.shift(k, "HN") is not None
    )


def simulate_cisa(
    spec: SimulationSpec, seq: ProteinSequence, reference: Reference
) -> tuple[list[SpinSystem], GroundTruth]:
    reference.check_covers(seq)
    spins: list[SpinSystem] = []
    gt = GroundTruth(
        "spins",
        seq.residues,
        {},
        reference={k: dict(v) for k, v in reference.shifts.items()},
    )
    for k in range(1, len(seq) + 1):
        if not _has_amide(reference, k):
            gt.residue_to_id[k] = None
            continue
        rng = np.random.default_rng([spec.seed, k])
        shifts = {"N": reference.shift(k, "N"), "HN": reference.shift(k, "HN")}
        carbon_specs = [
            ("CA", k, spec.sigma_alpha),
            ("CB", k, spec.sigma_beta),
            ("CA_prev", k - 1, spec.sigma_alpha),
            ("CB_prev", k - 1, spec.sigma_beta),
        ]
        for role, residue, sigma in carbon_specs:
            draw = rng.normal()
            if residue < 1:
                continue
            true = reference.shift(residue, base_role(role))
            if true is None:
                continue
            shifts[role] = true + sigma * draw
        if spec.deletion_rate > 0 and rng.random() < spec.deletion_rate:
            gt.residue_to_id[k] = None
            continue
        system_id = f"s{k:03d}"
        spins.append(SpinSystem(system_id, shifts))
        gt.residue_to_id[k] = system_id
    return spins, gt


def _truncated_normal(rng: np.random.Generator, sigma: float, bound: float) -> float:
    if sigma == 0.0:
        return 0.0
    while True:
        dev = sigma * rng.normal()
        if abs(dev) <= bound:
            return dev


def simulate_flya(
    spec: SimulationSpec,
    seq: ProteinSequence,
    reference: Reference,
    experiments: Sequence[str],
) -> tuple[list[Peak], GroundTruth]:
    reference.check_covers(seq)
    exps = experiment_set(experiments)
    peaks: list[Peak] = []
    gt = GroundTruth(
        "peaks",
        seq.residues,
        {},
        reference={k: dict(v) for k, v in reference.shifts.items()},
    )
    for k in range(1, len(seq) + 1):
        gt.residue_to_id[k] = None
        if not _has_amide(reference, k):
            gt.residue_to_peaks[k] = ()
            continue
        rng = np.random.default_rng([spec.seed, k])
        emitted: list[str] = []
        h_true = reference.shift(k, "HN")
        n_true = reference.shift(k, "N")
        for exp in exps:
            for t, tmpl in enumerate(exp.templates):
                c_true = None
                if tmpl.role is not None:
                    residue = k - 1 if is_prev(tmpl.role) else k
                    if residue < 1:
                        continue
                    c_true = reference.shift(residue, base_role(tmpl.role))
                    if c_true is None:
                        continue
                coords = [
                    ("H", h_true + _truncated_normal(rng, spec.flya_sigma["H"], FLYA_BOUND["H"])),
                    ("N", n_true + _truncated_normal(rng, spec.flya_sigma["N"], FLYA_BOUND["N"])),
                ]
                if c_true is not None:
                    coords.append(
                        ("C", c_true + _truncated_normal(rng, spec.flya_sigma["C"], FLYA_BOUND["C"]))
                    )
                if spec.deletion_rate > 0 and rng.random() < spec.deletion_rate:
                    continue
                peak_id = f"p{k:03d}_{exp.name}_{t}"
                peaks.append(Peak(peak_id, exp.name, tuple(coords), tmpl.phase))
                emitted.append(peak_id)
                gt.peak_origin[peak_id] = (k, tmpl.role)
        gt.residue_to_peaks[k] = tuple(emitted)
    return peaks, gt


# ---------------------------------------------------------------------------
# file formats


def write_reference(reference: Reference, path: str | Path) -> None:
    doc = {
        "sequence": reference.sequence.residues,
        "shifts": {str(k): v for k, v in sorted(reference.shifts.items())},
    }
    write_json(doc, path)


def read_reference(path: str | Path) -> Reference:
    return reference_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def reference_from_dict(doc: Mapping) -> Reference:
    with json_object(doc, "reference") as read:
        return Reference(
            ProteinSequence(read("sequence", str)),
            {int(k): v for k, v in read("shifts", Mapping).items()},
        )


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
