import math

import pytest

from nmrassign.domain import (
    NmrAssignError,
    NonPositiveSigmaError,
    Peak,
    Prior,
    PriorMissingError,
    PriorTable,
    ProteinSequence,
    SpinSystem,
    Tolerances,
    UnknownResidueTypeError,
    base_role,
    dimension_of,
    is_prev,
    read_peaks,
    read_priors,
    read_spins,
    read_tolerances,
    validate_dataset,
    write_peaks,
    write_priors,
    write_spins,
    write_tolerances,
)


def test_role_helpers():
    assert is_prev("CA_prev") and not is_prev("CA")
    assert base_role("CB_prev") == "CB" and base_role("CO") == "CO"
    assert dimension_of("HN") == "H"
    assert dimension_of("N") == "N"
    assert dimension_of("CA_prev") == "C"


def test_peak_invariants():
    p = Peak("p1", "hsqc", (("H", 8.0), ("N", 120.0)))
    assert p.coord("H") == 8.0 and p.coord("C") is None
    with pytest.raises(NmrAssignError):
        Peak("p2", "hsqc", (("H", 8.0),))
    with pytest.raises(NmrAssignError):
        Peak("p3", "hsqc", (("H", 8.0), ("H", 8.1)))
    with pytest.raises(NmrAssignError):
        Peak("p4", "hsqc", (("H", 8.0), ("Q", 120.0)))
    with pytest.raises(NmrAssignError):
        Peak("p5", "hsqc", (("H", math.nan), ("N", 120.0)))
    with pytest.raises(NmrAssignError):
        Peak("p6", "hsqc", (("H", 8.0), ("N", 120.0)), phase=7)


def test_spin_system_invariants():
    s = SpinSystem("s1", {"N": 120.0, "HN": 8.0, "CA": 55.0})
    assert s.shifts["CA"] == 55.0
    with pytest.raises(NmrAssignError):
        SpinSystem("s2", {"CA": 55.0})
    with pytest.raises(NmrAssignError):
        SpinSystem("s3", {"N": 120.0, "XX": 1.0})


def test_sequence():
    seq = ProteinSequence("AGP")
    assert len(seq) == 3
    assert seq.residue_type(1) == "A" and seq.residue_type(3) == "P"
    with pytest.raises(IndexError):
        seq.residue_type(0)
    with pytest.raises(UnknownResidueTypeError):
        ProteinSequence("AXG")
    with pytest.raises(NmrAssignError):
        ProteinSequence("")


def test_prior_and_tolerances_positivity():
    with pytest.raises(NonPositiveSigmaError):
        Prior(0.0, 0.0)
    with pytest.raises(NmrAssignError):
        Tolerances(delta1=-1.0)
    for value in ("0.5", None, True):
        with pytest.raises(NmrAssignError, match="lam must be a number"):
            Tolerances(lam=value)
    tol = Tolerances()
    assert (tol.delta1, tol.delta2, tol.delta3) == (0.03, 0.3, 0.3)
    assert tol.delta == 3.0 and tol.lam == 5.0


def test_prior_table_lookup(toy_priors):
    assert toy_priors.prior("G", "CB") is None
    assert toy_priors.prior("A", "CA_prev").mean == 53.0
    with pytest.raises(PriorMissingError):
        toy_priors.prior("W", "CA")
    # role key wins over dimension fallback
    assert toy_priors.noise_for("spins", "CA") == 0.08
    assert toy_priors.noise_for("spins", "CO") == 0.1
    assert toy_priors.noise_for("hsqc", "HN") == 0.0075
    with pytest.raises(PriorMissingError):
        toy_priors.noise_for("nope", "CA")


def test_validate_empty_peaks_ok(toy_priors):
    assert validate_dataset(toy_priors, ProteinSequence("AGAGA"), peaks=[]) is None


def test_validate_duplicate_id(toy_priors):
    peaks = [
        Peak("p1", "hsqc", (("H", 8.0), ("N", 120.0))),
        Peak("p1", "hsqc", (("H", 8.1), ("N", 121.0))),
    ]
    with pytest.raises(NmrAssignError) as err:
        validate_dataset(toy_priors, ProteinSequence("A"), peaks=peaks)
    assert str(err.value) == "dataset validation failed: duplicate peak id 'p1'"


def test_validate_missing_residue_type(toy_priors):
    """Every fatal problem is named in the one error, in order: missing
    residue types first, then duplicate ids."""
    spins = [SpinSystem("s1", {"N": 120.0})] * 2
    with pytest.raises(NmrAssignError) as err:
        validate_dataset(toy_priors, ProteinSequence("WY"), spins=spins)
    assert str(err.value) == (
        "dataset validation failed: residue type 'W' absent from priors; "
        "residue type 'Y' absent from priors; duplicate spin system id 's1'"
    )


def test_validate_missing_prior_entry(toy_priors):
    """A residue type whose priors lack one base role fails validation,
    before any stage would need that entry."""
    atoms = {code: dict(entries) for code, entries in toy_priors.atoms.items()}
    del atoms["A"]["CO"]
    priors = PriorTable(atoms, toy_priors.noise)
    with pytest.raises(NmrAssignError) as err:
        validate_dataset(priors, ProteinSequence("GAG"), spins=[])
    assert str(err.value) == "dataset validation failed: no prior entry for (A, CO)"
    assert validate_dataset(toy_priors, ProteinSequence("GAG"), spins=[]) is None


def test_validate_requires_one_input(toy_priors):
    with pytest.raises(ValueError):
        validate_dataset(toy_priors, ProteinSequence("A"))
    with pytest.raises(ValueError):
        validate_dataset(toy_priors, ProteinSequence("A"), peaks=[], spins=[])


def test_peaks_round_trip(tmp_path):
    peaks = [
        Peak("p1", "hsqc", (("H", 8.0), ("N", 120.0))),
        Peak("p2", "hncacb", (("H", 8.0), ("N", 120.0), ("C", 55.5)), phase=1),
        Peak("p3", "hncacb", (("H", 8.0), ("N", 120.0), ("C", 19.25)), phase=-1),
    ]
    path = tmp_path / "peaks.tsv"
    write_peaks(peaks, path)
    assert read_peaks(path) == peaks


def test_spins_round_trip(tmp_path):
    spins = [
        SpinSystem("s1", {"N": 120.0, "HN": 8.0, "CA": 55.0, "CB": 19.0}),
        SpinSystem("s2", {"N": 121.0, "HN": 8.1, "CA_prev": 55.0}),
    ]
    path = tmp_path / "spins.tsv"
    write_spins(spins, path)
    assert read_spins(path) == spins


def test_priors_round_trip(tmp_path, toy_priors):
    path = tmp_path / "priors.json"
    write_priors(toy_priors, path)
    assert read_priors(path) == toy_priors


def test_tolerances_round_trip(tmp_path):
    tol = Tolerances(delta1=0.05, lam=7.5)
    path = tmp_path / "tol.json"
    write_tolerances(tol, path)
    assert read_tolerances(path) == tol
