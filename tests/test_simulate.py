import numpy as np
import pytest

from nmrassign.domain import NmrAssignError, ProteinSequence
from nmrassign.experiments import FULL_SET, experiment_set
from nmrassign.simulate import (
    CISA_NOISE,
    FLYA_BOUND,
    FLYA_SIGMA,
    GroundTruth,
    Reference,
    SimulationSpec,
    read_ground_truth,
    read_reference,
    sample_reference,
    simulate_cisa,
    simulate_flya,
    write_ground_truth,
    write_reference,
)


def _noiseless_flya(seed=0, deletion_rate=0.0):
    return SimulationSpec(
        "flya",
        seed,
        flya_sigma={"H": 0.0, "N": 0.0, "C": 0.0},
        deletion_rate=deletion_rate,
    )


def test_spec_validation():
    with pytest.raises(NmrAssignError):
        SimulationSpec("nexus", 0)
    with pytest.raises(NmrAssignError):
        SimulationSpec("cisa", 0, sigma_alpha=-0.1)
    with pytest.raises(NmrAssignError):
        SimulationSpec("cisa", 0, deletion_rate=1.0)
    assert CISA_NOISE["low"] == (0.08, 0.16)
    assert CISA_NOISE["high"] == (0.16, 0.32)
    assert SimulationSpec.cisa("high", 3).sigma_beta == 0.32


def test_sample_reference_respects_chemistry(toy_priors):
    seq = ProteinSequence("AGPA")
    ref = sample_reference(seq, toy_priors, seed=1)
    ref.check_covers(seq)
    assert ref.shift(1, "CB") is not None
    assert ref.shift(2, "CB") is None  # glycine
    assert ref.shift(3, "N") is None and ref.shift(3, "HN") is None  # proline
    assert ref.shift(3, "CA") is not None


def test_sample_reference_deterministic_per_residue(toy_priors):
    a = sample_reference(ProteinSequence("AGA"), toy_priors, seed=5)
    b = sample_reference(ProteinSequence("AGA"), toy_priors, seed=5)
    assert a.shifts == b.shifts
    c = sample_reference(ProteinSequence("AGA"), toy_priors, seed=6)
    assert a.shifts != c.shifts
    # residue streams are independent: a shared prefix gives identical draws
    long = sample_reference(ProteinSequence("AGAG"), toy_priors, seed=5)
    assert long.shifts[2] == a.shifts[2]


def test_cisa_zero_noise_reproduces_reference(toy_priors):
    seq = ProteinSequence("AAGA")
    ref = sample_reference(seq, toy_priors, seed=2)
    spec = SimulationSpec("cisa", 2, sigma_alpha=0.0, sigma_beta=0.0)
    spins, gt = simulate_cisa(spec, seq, ref)
    assert len(spins) == 4
    by_id = {s.system_id: s for s in spins}
    for k in range(1, 5):
        s = by_id[gt.residue_to_id[k]]
        for role in ("N", "HN", "CA", "CB"):
            want = ref.shift(k, role)
            if want is None:
                assert role not in s.shifts
            else:
                assert s.shifts[role] == pytest.approx(want, abs=0.0)
        if k > 1:
            for role, base in (("CA_prev", "CA"), ("CB_prev", "CB")):
                want = ref.shift(k - 1, base)
                if want is None:
                    assert role not in s.shifts
                else:
                    assert s.shifts[role] == pytest.approx(want, abs=0.0)
    # first residue carries no previous-residue carbons
    assert "CA_prev" not in by_id[gt.residue_to_id[1]].shifts


def test_cisa_amide_copied_exactly(toy_priors):
    seq = ProteinSequence("AAAA")
    ref = sample_reference(seq, toy_priors, seed=3)
    spins, gt = simulate_cisa(SimulationSpec.cisa("high", 3), seq, ref)
    for k, s in zip(range(1, 5), spins):
        assert s.shifts["N"] == ref.shift(k, "N")
        assert s.shifts["HN"] == ref.shift(k, "HN")
        # carbons are perturbed
        assert s.shifts["CA"] != ref.shift(k, "CA")


def test_cisa_skips_prolines(toy_priors):
    seq = ProteinSequence("APA")
    ref = sample_reference(seq, toy_priors, seed=4)
    spins, gt = simulate_cisa(SimulationSpec.cisa("low", 4), seq, ref)
    assert len(spins) == 2
    assert gt.residue_to_id[2] is None
    # the residue after the proline still sees its carbons
    s3 = next(s for s in spins if s.system_id == gt.residue_to_id[3])
    assert "CA_prev" in s3.shifts and "CB_prev" in s3.shifts


def test_cisa_noise_scale(toy_priors):
    """Sample std of the CA perturbation matches sigma_alpha."""
    seq = ProteinSequence("A" * 50)
    deviations = []
    for seed in range(200):
        ref = sample_reference(seq, toy_priors, seed)
        spins, gt = simulate_cisa(SimulationSpec.cisa("low", seed), seq, ref)
        for k, s in zip(range(1, 51), spins):
            deviations.append(s.shifts["CA"] - ref.shift(k, "CA"))
    assert len(deviations) == 10_000
    std = float(np.std(deviations))
    assert 0.076 <= std <= 0.084
    assert abs(float(np.mean(deviations))) < 0.003


def test_cisa_seed_determinism(toy_priors):
    seq = ProteinSequence("AGAGA")
    ref = sample_reference(seq, toy_priors, seed=9)
    a, _ = simulate_cisa(SimulationSpec.cisa("low", 9), seq, ref)
    b, _ = simulate_cisa(SimulationSpec.cisa("low", 9), seq, ref)
    assert a == b
    c, _ = simulate_cisa(SimulationSpec.cisa("low", 10), seq, ref)
    assert a != c


def test_cisa_deletion_rate(toy_priors):
    seq = ProteinSequence("A" * 40)
    ref = sample_reference(seq, toy_priors, seed=8)
    spec = SimulationSpec.cisa("low", 8, deletion_rate=0.5)
    spins, gt = simulate_cisa(spec, seq, ref)
    assert 0 < len(spins) < 40
    emitted = {s.system_id for s in spins}
    assert emitted == {v for v in gt.residue_to_id.values() if v is not None}


def test_flya_zero_noise_exact_and_full_pattern(toy_priors):
    seq = ProteinSequence("AAA")
    ref = sample_reference(seq, toy_priors, seed=6)
    peaks, gt = simulate_flya(_noiseless_flya(6), seq, ref, FULL_SET)
    prev_templates = sum(
        tmpl.role is not None and tmpl.role.endswith("_prev")
        for exp in experiment_set(FULL_SET)
        for tmpl in exp.templates
    )
    # a middle residue emits the full 13-peak pattern
    assert len(gt.residue_to_peaks[2]) == 13
    assert len(gt.residue_to_peaks[1]) == 13 - prev_templates
    for p in peaks:
        k, role = gt.peak_origin[p.peak_id]
        assert p.coord("H") == pytest.approx(ref.shift(k, "HN"), abs=0.0)
        assert p.coord("N") == pytest.approx(ref.shift(k, "N"), abs=0.0)
        if role is None:
            assert p.coord("C") is None
        else:
            residue = k - 1 if role.endswith("_prev") else k
            assert p.coord("C") == pytest.approx(
                ref.shift(residue, role.split("_")[0]), abs=0.0
            )


def test_flya_deletion_rate(toy_priors):
    """A deleted peak is absent from the peak list and from both ground-truth
    maps; the kept peaks are those of the full pattern, unchanged, and a
    fixed seed deletes the same peaks again."""
    seq = ProteinSequence("A" * 12)
    ref = sample_reference(seq, toy_priors, seed=9)
    full, _ = simulate_flya(_noiseless_flya(9), seq, ref, FULL_SET)
    peaks, gt = simulate_flya(_noiseless_flya(9, deletion_rate=0.3), seq, ref, FULL_SET)
    kept = {p.peak_id for p in peaks}
    deleted = {p.peak_id for p in full} - kept
    assert 0.15 < len(deleted) / len(full) < 0.45  # 37 of 148 peaks
    assert [p for p in full if p.peak_id in kept] == peaks
    assert set(gt.peak_origin) == kept
    assert {pid for pids in gt.residue_to_peaks.values() for pid in pids} == kept
    again = simulate_flya(_noiseless_flya(9, deletion_rate=0.3), seq, ref, FULL_SET)
    assert again == (peaks, gt)


def test_flya_respects_chemistry(toy_priors):
    seq = ProteinSequence("GPA")
    ref = sample_reference(seq, toy_priors, seed=7)
    peaks, gt = simulate_flya(_noiseless_flya(7), seq, ref, FULL_SET)
    # proline has no amide: no peaks at all
    assert gt.residue_to_peaks[2] == ()
    # glycine emits no CB peaks
    for pid in gt.residue_to_peaks[1]:
        assert gt.peak_origin[pid][1] not in ("CB", "CB_prev")


def test_flya_truncation_bounds(toy_priors):
    seq = ProteinSequence("A" * 20)
    for seed in range(5):
        ref = sample_reference(seq, toy_priors, seed)
        peaks, gt = simulate_flya(SimulationSpec.flya(seed), seq, ref, FULL_SET)
        for p in peaks:
            k, role = gt.peak_origin[p.peak_id]
            assert abs(p.coord("H") - ref.shift(k, "HN")) <= FLYA_BOUND["H"]
            assert abs(p.coord("N") - ref.shift(k, "N")) <= FLYA_BOUND["N"]
            if role is not None:
                residue = k - 1 if role.endswith("_prev") else k
                true = ref.shift(residue, role.split("_")[0])
                assert abs(p.coord("C") - true) <= FLYA_BOUND["C"]


def test_flya_noise_scale(toy_priors):
    """N-dimension deviations match the configured std within 5%."""
    seq = ProteinSequence("A" * 20)
    deviations = []
    for seed in range(10):
        ref = sample_reference(seq, toy_priors, seed)
        peaks, gt = simulate_flya(SimulationSpec.flya(seed), seq, ref, FULL_SET)
        for p in peaks:
            k, _ = gt.peak_origin[p.peak_id]
            deviations.append(p.coord("N") - ref.shift(k, "N"))
    std = float(np.std(deviations))
    assert std == pytest.approx(FLYA_SIGMA["N"], rel=0.05)


def test_flya_seed_determinism(toy_priors):
    seq = ProteinSequence("AGA")
    ref = sample_reference(seq, toy_priors, seed=12)
    a, _ = simulate_flya(SimulationSpec.flya(12), seq, ref, FULL_SET)
    b, _ = simulate_flya(SimulationSpec.flya(12), seq, ref, FULL_SET)
    assert a == b


def test_reference_round_trip(tmp_path, toy_priors):
    ref = sample_reference(ProteinSequence("AGPA"), toy_priors, seed=1)
    path = tmp_path / "reference.json"
    write_reference(ref, path)
    back = read_reference(path)
    assert back.sequence.residues == ref.sequence.residues
    assert back.shifts == ref.shifts


def test_ground_truth_round_trip(tmp_path, toy_priors):
    seq = ProteinSequence("AGA")
    ref = sample_reference(seq, toy_priors, seed=2)
    _, gt = simulate_flya(SimulationSpec.flya(2), seq, ref, FULL_SET)
    path = tmp_path / "gt.json"
    write_ground_truth(gt, path)
    back = read_ground_truth(path)
    assert back == GroundTruth(
        gt.kind, gt.sequence, gt.residue_to_id, gt.residue_to_peaks,
        gt.peak_origin, gt.reference,
    )
