"""Core data types, validation, and file formats for assignment datasets.

Frequencies are chemical shifts in ppm. All values are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
DIMENSIONS = ("H", "N", "C")

#: roles a spin system may carry
SPIN_ROLES = ("N", "HN", "CA", "CB", "CA_prev", "CB_prev")
#: atom roles of a single residue, as referenced by priors
BASE_ROLES = ("N", "HN", "CA", "CB", "CO")

PREV_SUFFIX = "_prev"


class NmrAssignError(Exception):
    """Base class for all errors raised by this package."""


class SolverError(NmrAssignError):
    """The LP backend failed to produce a usable solution."""


class UnknownResidueTypeError(NmrAssignError):
    pass


class NonPositiveSigmaError(NmrAssignError):
    pass


class PriorMissingError(NmrAssignError):
    pass


class MissingReferenceError(NmrAssignError):
    pass


def is_prev(role: str) -> bool:
    return role.endswith(PREV_SUFFIX)


def base_role(role: str) -> str:
    """Strip the previous-residue marker: CA_prev -> CA."""
    return role[: -len(PREV_SUFFIX)] if is_prev(role) else role


def dimension_of(role: str) -> str:
    """Spectral dimension in which observations of this role appear."""
    b = base_role(role)
    if b == "HN":
        return "H"
    if b == "N":
        return "N"
    return "C"


@dataclass(frozen=True)
class Peak:
    """A measured resonance peak: 2 or 3 coordinates in ppm.

    ``phase`` is the peak sign: +1, -1, or 0 when unknown.
    """

    peak_id: str
    spectrum_id: str
    coords: tuple[tuple[str, float], ...]
    phase: int = 0

    def __post_init__(self) -> None:
        labels = [lab for lab, _ in self.coords]
        if not 2 <= len(labels) <= 3:
            raise NmrAssignError(f"peak {self.peak_id}: needs 2 or 3 coordinates")
        if len(set(labels)) != len(labels):
            raise NmrAssignError(f"peak {self.peak_id}: duplicate dimension labels")
        for lab, value in self.coords:
            if lab not in DIMENSIONS:
                raise NmrAssignError(f"peak {self.peak_id}: unknown dimension {lab!r}")
            if not math.isfinite(value):
                raise NmrAssignError(f"peak {self.peak_id}: non-finite coordinate")
        if self.phase not in (-1, 0, 1):
            raise NmrAssignError(f"peak {self.peak_id}: phase must be -1, 0 or +1")

    def coord(self, label: str) -> float | None:
        for lab, value in self.coords:
            if lab == label:
                return value
        return None


@dataclass(frozen=True)
class SpinSystem:
    """Consensus shifts for one residue and the previous residue's carbons."""

    system_id: str
    shifts: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", dict(self.shifts))
        for role, value in self.shifts.items():
            if role not in SPIN_ROLES:
                raise NmrAssignError(f"spin {self.system_id}: unknown role {role!r}")
            if not math.isfinite(value):
                raise NmrAssignError(f"spin {self.system_id}: non-finite shift for {role}")
        if "N" not in self.shifts and "HN" not in self.shifts:
            raise NmrAssignError(f"spin {self.system_id}: needs at least one of N, HN")


@dataclass(frozen=True)
class ProteinSequence:
    """Residue types as one-letter codes, 1-indexed via residue_type()."""

    residues: str

    def __post_init__(self) -> None:
        if len(self.residues) < 1:
            raise NmrAssignError("sequence must contain at least one residue")
        for code in self.residues:
            if code not in AMINO_ACIDS:
                raise UnknownResidueTypeError(f"unknown residue type {code!r}")

    def __len__(self) -> int:
        return len(self.residues)

    def residue_type(self, k: int) -> str:
        if not 1 <= k <= len(self.residues):
            raise IndexError(f"residue index {k} out of range")
        return self.residues[k - 1]


@dataclass(frozen=True)
class Prior:
    """Gaussian prior (mean, std) on one atom's chemical shift, in ppm."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        for name in ("mean", "std"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise NmrAssignError(f"prior {name} must be a finite number, got {value!r}")
        if not self.std > 0:
            raise NonPositiveSigmaError(f"prior std must be positive, got {self.std}")


class PriorTable:
    """Per-(residue type, atom role) Gaussian priors plus per-spectrum noise.

    An atom entry of None marks a chemically absent atom (e.g. Gly CB, the
    Pro amide pair). Noise is keyed by spectrum id, then by atom role with a
    fallback to the dimension label.
    """

    def __init__(
        self,
        atoms: Mapping[str, Mapping[str, Prior | None]],
        noise: Mapping[str, Mapping[str, float]],
    ) -> None:
        if not isinstance(noise, Mapping) or not all(isinstance(e, Mapping) for e in noise.values()):
            raise NmrAssignError("priors noise must map spectra to objects")
        self.atoms = {rt: dict(entries) for rt, entries in atoms.items()}
        self.noise = {sp: dict(entries) for sp, entries in noise.items()}
        for sp, entries in self.noise.items():
            for key, sigma in entries.items():
                if isinstance(sigma, bool) or not isinstance(sigma, numbers.Real):
                    raise NmrAssignError(f"noise[{sp}][{key}] must be a number, got {sigma!r}")
                if not sigma > 0:
                    raise NonPositiveSigmaError(f"noise[{sp}][{key}] must be positive")

    def prior(self, residue_type: str, role: str) -> Prior | None:
        """Prior for an atom role; None when the atom is absent."""
        try:
            entries = self.atoms[residue_type]
        except KeyError:
            raise PriorMissingError(f"no priors for residue type {residue_type!r}")
        role = base_role(role)
        if role not in entries:
            raise PriorMissingError(f"no prior entry for ({residue_type}, {role})")
        return entries[role]

    def noise_for(self, spectrum_id: str, role_or_dim: str) -> float:
        try:
            entries = self.noise[spectrum_id]
        except KeyError:
            raise PriorMissingError(f"no noise entries for spectrum {spectrum_id!r}")
        key = base_role(role_or_dim)
        if key in entries:
            return entries[key]
        dim = dimension_of(key) if key not in DIMENSIONS else key
        if dim in entries:
            return entries[dim]
        raise PriorMissingError(f"no noise entry for ({spectrum_id}, {role_or_dim})")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PriorTable)
            and self.atoms == other.atoms
            and self.noise == other.noise
        )


#: default branch-and-bound node budget of one solve (``--node-limit``)
NODE_LIMIT = 100_000
#: default number of largest cliques expanded per peak component (``--top-k``)
TOP_K = 20


@dataclass(frozen=True)
class Tolerances:
    """Matching windows and thresholds; all strictly positive and finite.

    delta1/delta2/delta3: H/N/C matching windows in ppm. delta: typing
    threshold multiplier. lam: peak-reuse penalty.
    """

    delta1: float = 0.03
    delta2: float = 0.3
    delta3: float = 0.3
    delta: float = 3.0
    lam: float = 5.0

    def __post_init__(self) -> None:
        # named as the options that set them: lam is --lambda
        for name, value in zip(("delta1", "delta2", "delta3", "delta", "lambda"), astuple(self)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise NmrAssignError(f"tolerance {name} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise NmrAssignError(f"tolerance {name} must be strictly positive and finite")


def validate_dataset(
    priors: PriorTable,
    seq: ProteinSequence,
    peaks: Sequence[Peak] | None = None,
    spins: Sequence[SpinSystem] | None = None,
) -> None:
    """Check a dataset for fatal problems before any processing: raise one
    NmrAssignError naming every residue type the priors miss or leave an
    atom entry out of, and every duplicate record id.

    Exactly one of peaks/spins must be given.
    """
    if (peaks is None) == (spins is None):
        raise ValueError("exactly one of peaks or spins must be supplied")
    problems = []
    for code in sorted(set(seq.residues)):
        if code not in priors.atoms:
            problems.append(f"residue type {code!r} absent from priors")
        else:
            problems += [
                f"no prior entry for ({code}, {role})"
                for role in BASE_ROLES
                if role not in priors.atoms[code]
            ]
    if peaks is not None:
        records = [(p.peak_id, "peak") for p in peaks]
    else:
        records = [(s.system_id, "spin system") for s in spins]
    seen: set[str] = set()
    for rec_id, kind in records:
        if rec_id in seen:
            problems.append(f"duplicate {kind} id {rec_id!r}")
        seen.add(rec_id)
    if problems:
        raise NmrAssignError(f"dataset validation failed: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# file formats

_MISSING = "-"


def _fmt(value: float | None) -> str:
    return _MISSING if value is None else format(value, ".6f")


def write_peaks(peaks: Sequence[Peak], path: str | Path) -> None:
    """Tab-separated: peak_id, spectrum_id, H, N, C ('-' if 2-D), phase."""
    lines = ["# peak_id\tspectrum_id\tH\tN\tC\tphase"]
    for p in peaks:
        lines.append(
            "\t".join(
                [
                    p.peak_id,
                    p.spectrum_id,
                    _fmt(p.coord("H")),
                    _fmt(p.coord("N")),
                    _fmt(p.coord("C")),
                    str(p.phase),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_peaks(path: str | Path) -> list[Peak]:
    peaks = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 4:
            raise NmrAssignError(f"malformed peak line: {raw!r}")
        peak_id, spectrum_id, h, n = fields[:4]
        coords = []
        if h != _MISSING:
            coords.append(("H", float(h)))
        if n != _MISSING:
            coords.append(("N", float(n)))
        if len(fields) > 4 and fields[4] != _MISSING:
            coords.append(("C", float(fields[4])))
        phase = int(fields[5]) if len(fields) > 5 and fields[5] != _MISSING else 0
        peaks.append(Peak(peak_id, spectrum_id, tuple(coords), phase))
    return peaks


def write_spins(spins: Sequence[SpinSystem], path: str | Path) -> None:
    """Tab-separated: system_id, N, HN, CA, CB, CA_prev, CB_prev ('-' missing)."""
    lines = ["# system_id\t" + "\t".join(SPIN_ROLES)]
    for s in spins:
        lines.append(
            "\t".join([s.system_id] + [_fmt(s.shifts.get(role)) for role in SPIN_ROLES])
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_spins(path: str | Path) -> list[SpinSystem]:
    spins = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 1 + len(SPIN_ROLES):
            raise NmrAssignError(f"malformed spin line: {raw!r}")
        shifts = {
            role: float(value)
            for role, value in zip(SPIN_ROLES, fields[1:])
            if value != _MISSING
        }
        spins.append(SpinSystem(fields[0], shifts))
    return spins


def write_json(doc: Mapping, path: str | Path) -> None:
    """Write ``doc`` as the project's JSON files are written: sorted keys,
    two-space indent, one trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


#: how an error message names the JSON value each Python type reads
_JSON_KINDS = {
    Mapping: "an object", list: "an array", str: "a string", int: "an integer",
    numbers.Real: "a number", bool: "true or false", None: "null",
}

#: the field reader ``json_object`` yields: ``field(key, *kinds)`` or
#: ``field(key, *kinds, default=value)``
JsonField = Callable[..., Any]
_REQUIRED = object()


@contextmanager
def json_object(doc: object, what: str) -> Iterator[JsonField]:
    """Read ``doc`` as a JSON object in the ``with`` block, through the
    field reader it yields: ``field(key, *kinds)`` is ``doc[key]``, checked
    to be of one of ``kinds`` (keys of ``_JSON_KINDS``; ``None`` is null),
    and ``default`` stands in for a missing key when given. A document that
    is not an object, a missing key, a value of another kind and a fault
    while the block converts the last value read raise NmrAssignError,
    naming ``what`` and the key."""
    if not isinstance(doc, Mapping):
        raise NmrAssignError(f"{what} must be a JSON object")
    last: list[str] = []

    def field(key: str, *kinds: type | None, default: Any = _REQUIRED) -> Any:
        last[:] = [key]
        if key not in doc:
            if default is _REQUIRED:
                raise NmrAssignError(f"{what} lacks the key {key!r}")
            return default
        value = doc[key]
        if not any(
            value is None if kind is None else
            isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
            for kind in kinds
        ):
            names = " or ".join(_JSON_KINDS[kind] for kind in kinds)
            raise NmrAssignError(f"{what} is malformed: {key!r} must be {names}")
        return value

    try:
        yield field
    except (TypeError, AttributeError, ValueError) as exc:
        at = f" at {last[0]!r}" if last else ""
        raise NmrAssignError(f"{what} is malformed{at}: {exc}") from None


def write_priors(priors: PriorTable, path: str | Path) -> None:
    doc = {
        "atoms": {
            rt: {
                role: (None if p is None else {"mean": p.mean, "std": p.std})
                for role, p in entries.items()
            }
            for rt, entries in priors.atoms.items()
        },
        "noise": priors.noise,
    }
    write_json(doc, path)


def read_priors(path: str | Path) -> PriorTable:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return priors_from_dict(doc)


def priors_from_dict(doc: Mapping) -> PriorTable:
    """Priors from a JSON document: an object whose ``atoms`` maps residue
    type -> role -> {"mean", "std"} (null for an absent atom), and whose
    optional ``noise`` maps spectrum -> role or dimension -> sigma. Anything
    else is rejected, naming the entry."""
    atoms = doc.get("atoms") if isinstance(doc, Mapping) else None
    if not isinstance(atoms, Mapping) or not all(isinstance(e, Mapping) for e in atoms.values()):
        raise NmrAssignError("priors must be a JSON object whose 'atoms' maps residue types to objects")
    table: dict[str, dict[str, Prior | None]] = {rt: {} for rt in atoms}
    for rt, entries in atoms.items():
        for role, spec in entries.items():
            entry = f"atoms[{rt}][{role}]"
            try:
                table[rt][role] = None if spec is None else Prior(spec["mean"], spec["std"])
            except (KeyError, TypeError):
                raise NmrAssignError(f"priors {entry} must be null or hold mean and std") from None
            except NmrAssignError as exc:
                raise type(exc)(f"priors {entry}: {exc}") from None
    return PriorTable(table, doc.get("noise", {}))

