"""Registry of heteronuclear experiments used for backbone assignment.

Each experiment lists the peaks it produces per residue, as (carbon role,
phase) templates relative to the residue that owns the amide pair. Every
peak also carries that amide's H and N coordinates; HSQC carries only those.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .domain import NmrAssignError, PriorTable, base_role


@dataclass(frozen=True)
class PeakTemplate:
    #: carbon role observed in the C dimension, or None for 2-D peaks
    role: str | None
    phase: int = 0


@dataclass(frozen=True)
class Experiment:
    name: str
    templates: tuple[PeakTemplate, ...]

    @property
    def peak_count(self) -> int:
        return len(self.templates)


EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in [
        Experiment("hsqc", (PeakTemplate(None),)),
        Experiment(
            "hncacb",
            (
                PeakTemplate("CA", +1),
                PeakTemplate("CB", -1),
                PeakTemplate("CA_prev", +1),
                PeakTemplate("CB_prev", -1),
            ),
        ),
        Experiment(
            "hncocacb",
            (PeakTemplate("CA_prev", +1), PeakTemplate("CB_prev", -1)),
        ),
        Experiment("hnco", (PeakTemplate("CO_prev"),)),
        Experiment("hncoca", (PeakTemplate("CA_prev"),)),
        Experiment("hncaco", (PeakTemplate("CO"), PeakTemplate("CO_prev"))),
        Experiment("hnca", (PeakTemplate("CA"), PeakTemplate("CA_prev"))),
    ]
}

#: the three-spectrum set for medium-size proteins
BASIC_SET = ("hsqc", "hncacb", "hncocacb")
#: the seven-spectrum set used for peak-list simulations
FULL_SET = ("hsqc", "hncacb", "hncocacb", "hnco", "hncoca", "hncaco", "hnca")

#: the priors' noise entry for spin-system observations
SPIN_NOISE = "spins"

#: names spelled with the parenthesised transfer step -> registry names
_ALIASES = {"hn(co)cacb": "hncocacb", "hn(co)ca": "hncoca", "hn(ca)co": "hncaco"}


def canonical_name(name: str) -> str:
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in EXPERIMENTS:
        raise NmrAssignError(f"unknown experiment {name!r}")
    return key


def experiment_set(names: Sequence[str]) -> tuple[Experiment, ...]:
    return tuple(EXPERIMENTS[canonical_name(n)] for n in names)


def expected_pattern(names: Sequence[str]) -> dict[str, int]:
    """Expected per-spectrum peak count for one residue's grouping."""
    return {exp.name: exp.peak_count for exp in experiment_set(names)}


@functools.cache
def candidate_roles(spectrum_id: str, phase: int) -> tuple[str, ...]:
    """Carbon roles a peak from this spectrum may be assigned to.

    A peak with unknown phase (0) is compatible with any template; a signed
    peak only with templates of matching or unknown sign. The roles come in
    template order; no experiment lists a role twice.
    """
    return tuple(
        tmpl.role
        for tmpl in EXPERIMENTS[canonical_name(spectrum_id)].templates
        if tmpl.role is not None and (phase == 0 or tmpl.phase == 0 or phase == tmpl.phase)
    )


def expected_observation_counts(names: Sequence[str], priors: PriorTable) -> dict[str, tuple[int, float]]:
    """Expected observation count and noise per base atom role.

    An atom of residue k is observed by intra-residue templates of its own
    grouping plus previous-residue templates of the next residue's grouping;
    its amide pair is observed once per peak of its own grouping.
    """
    exps = experiment_set(names)
    counts: dict[str, int] = {"N": 0, "HN": 0}
    observer: dict[str, str] = {"N": exps[0].name, "HN": exps[0].name}
    for exp in exps:
        counts["N"] += exp.peak_count
        counts["HN"] += exp.peak_count
        for tmpl in exp.templates:
            if tmpl.role is None:
                continue
            role = base_role(tmpl.role)
            counts[role] = counts.get(role, 0) + 1
            observer.setdefault(role, exp.name)
    return {role: (count, priors.noise_for(observer[role], role)) for role, count in counts.items()}


def spin_observation_counts(priors: PriorTable) -> dict[str, tuple[int, float]]:
    """Expected counts for spin-system input: amide once, carbons twice
    (own system plus the successor's previous-residue entry)."""
    return {
        "N": (1, priors.noise_for(SPIN_NOISE, "N")),
        "HN": (1, priors.noise_for(SPIN_NOISE, "HN")),
        "CA": (2, priors.noise_for(SPIN_NOISE, "CA")),
        "CB": (2, priors.noise_for(SPIN_NOISE, "CB")),
    }
