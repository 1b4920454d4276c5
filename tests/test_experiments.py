import pytest

from nmrassign.domain import NmrAssignError
from nmrassign.experiments import (
    BASIC_SET,
    EXPERIMENTS,
    FULL_SET,
    canonical_name,
    candidate_roles,
    expected_observation_counts,
    expected_pattern,
    spin_observation_counts,
)


def test_canonical_names_and_aliases():
    assert canonical_name("HN(CO)CACB") == "hncocacb"
    assert canonical_name("hsqc") == "hsqc"
    assert canonical_name("HN(CA)CO") == "hncaco"
    with pytest.raises(NmrAssignError):
        canonical_name("cosy")


def test_expected_pattern_basic_set():
    # one HSQC peak, four HNCACB peaks, two HN(CO)CACB peaks per residue
    assert expected_pattern(BASIC_SET) == {"hsqc": 1, "hncacb": 4, "hncocacb": 2}
    assert sum(expected_pattern(FULL_SET).values()) == 13


def test_candidate_roles_respect_phase():
    assert candidate_roles("hncacb", +1) == ("CA", "CA_prev")
    assert candidate_roles("hncacb", -1) == ("CB", "CB_prev")
    assert candidate_roles("hncacb", 0) == ("CA", "CB", "CA_prev", "CB_prev")
    assert candidate_roles("hnco", 0) == ("CO_prev",)
    assert candidate_roles("hsqc", 0) == ()
    # candidate_roles keeps every template's role: none is listed twice
    for exp in EXPERIMENTS.values():
        roles = [tmpl.role for tmpl in exp.templates]
        assert len(set(roles)) == len(roles), exp.name


def test_expected_observation_counts(toy_priors):
    counts = expected_observation_counts(BASIC_SET, toy_priors)
    # amide observed once per peak of the pattern
    assert counts["N"] == (7, 0.1)
    assert counts["HN"] == (7, 0.0075)
    # CA: own HNCACB peak + next residue's HNCACB and HN(CO)CACB peaks
    assert counts["CA"] == (3, 0.1)
    assert counts["CB"] == (3, 0.1)
    assert "CO" not in counts


def test_spin_observation_counts(toy_priors):
    counts = spin_observation_counts(toy_priors)
    assert counts == {
        "N": (1, 0.05),
        "HN": (1, 0.01),
        "CA": (2, 0.08),
        "CB": (2, 0.16),
    }
