import hashlib
import json

import numpy as np
import pytest

from nmrassign import simulate
from nmrassign.domain import NmrAssignError, ProteinSequence
from nmrassign.experiments import FULL_SET, experiment_set
from nmrassign.pipeline import bundled_priors, run_simulate
from nmrassign.simulate import (
    CISA_NOISE,
    FLYA_BOUND,
    FLYA_SIGMA,
    GroundTruth,
    Reference,
    read_ground_truth,
    read_reference,
    sample_reference,
    simulate_cisa,
    simulate_flya,
    write_ground_truth,
)


@pytest.fixture
def noiseless_flya(monkeypatch):
    """Peak lists simulated without noise, as if every ``FLYA_SIGMA`` were 0."""
    monkeypatch.setattr(simulate, "FLYA_SIGMA", {"H": 0.0, "N": 0.0, "C": 0.0})


def test_simulation_inputs_checked_on_entry(tmp_path, toy_priors):
    """An unknown protocol or noise level, a deletion rate outside [0, 1),
    and a reference that lacks a simulated residue or is of another
    sequence raise NmrAssignError before any draw."""
    seq = ProteinSequence("AGA")
    ref = sample_reference(seq, toy_priors, seed=1)
    with pytest.raises(NmrAssignError, match="unknown protocol 'nexus'"):
        run_simulate(tmp_path, "nexus", seq, toy_priors, 0)
    with pytest.raises(NmrAssignError, match="unknown noise level 'medium'"):
        simulate_cisa(seq, ref, 0, "medium")
    for rate in (1.0, -0.1):
        with pytest.raises(NmrAssignError, match="deletion rate must be in"):
            simulate_cisa(seq, ref, 0, deletion_rate=rate)
        with pytest.raises(NmrAssignError, match="deletion rate must be in"):
            simulate_flya(seq, ref, 0, deletion_rate=rate)
    gapped = Reference(seq, {1: ref.shifts[1], 3: ref.shifts[3]})
    other = sample_reference(ProteinSequence("AAAG"), toy_priors, seed=1)
    for reference, message in ((gapped, "no shifts for residue 2"), (other, "of sequence AAAG")):
        for simulator in (simulate_cisa, simulate_flya):
            with pytest.raises(NmrAssignError, match=message):
                simulator(seq, reference, 0)
    # a reference of a longer protein serves each of its prefixes
    assert simulate_cisa(ProteinSequence("AG"), ref, 0)[1].residue_to_id == {1: "s001", 2: "s002"}
    assert CISA_NOISE["low"] == (0.08, 0.16)
    assert CISA_NOISE["high"] == (0.16, 0.32)


def test_sample_reference_respects_chemistry(toy_priors):
    seq = ProteinSequence("AGPA")
    ref = sample_reference(seq, toy_priors, seed=1)
    assert set(ref.shifts) == {1, 2, 3, 4}
    assert "CB" in ref.shifts[1]
    assert "CB" not in ref.shifts[2]  # glycine
    assert "N" not in ref.shifts[3] and "HN" not in ref.shifts[3]  # proline
    assert "CA" in ref.shifts[3]


def test_sample_reference_deterministic_per_residue(toy_priors):
    a = sample_reference(ProteinSequence("AGA"), toy_priors, seed=5)
    b = sample_reference(ProteinSequence("AGA"), toy_priors, seed=5)
    assert a.shifts == b.shifts
    c = sample_reference(ProteinSequence("AGA"), toy_priors, seed=6)
    assert a.shifts != c.shifts
    # residue streams are independent: a shared prefix gives identical draws
    long = sample_reference(ProteinSequence("AGAG"), toy_priors, seed=5)
    assert long.shifts[2] == a.shifts[2]


def test_cisa_zero_noise_reproduces_reference(toy_priors, monkeypatch):
    monkeypatch.setitem(CISA_NOISE, "low", (0.0, 0.0))
    seq = ProteinSequence("AAGA")
    ref = sample_reference(seq, toy_priors, seed=2)
    spins, gt = simulate_cisa(seq, ref, 2)
    assert len(spins) == 4
    by_id = {s.system_id: s for s in spins}
    for k in range(1, 5):
        s = by_id[gt.residue_to_id[k]]
        for role in ("N", "HN", "CA", "CB"):
            want = ref.shifts[k].get(role)
            if want is None:
                assert role not in s.shifts
            else:
                assert s.shifts[role] == pytest.approx(want, abs=0.0)
        if k > 1:
            for role, base in (("CA_prev", "CA"), ("CB_prev", "CB")):
                want = ref.shifts[k - 1].get(base)
                if want is None:
                    assert role not in s.shifts
                else:
                    assert s.shifts[role] == pytest.approx(want, abs=0.0)
    # first residue carries no previous-residue carbons
    assert "CA_prev" not in by_id[gt.residue_to_id[1]].shifts


def test_cisa_amide_copied_exactly(toy_priors):
    seq = ProteinSequence("AAAA")
    ref = sample_reference(seq, toy_priors, seed=3)
    spins, gt = simulate_cisa(seq, ref, 3, "high")
    for k, s in zip(range(1, 5), spins):
        assert s.shifts["N"] == ref.shifts[k]["N"]
        assert s.shifts["HN"] == ref.shifts[k]["HN"]
        # carbons are perturbed
        assert s.shifts["CA"] != ref.shifts[k]["CA"]


def test_cisa_skips_prolines(toy_priors):
    seq = ProteinSequence("APA")
    ref = sample_reference(seq, toy_priors, seed=4)
    spins, gt = simulate_cisa(seq, ref, 4, "low")
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
        spins, gt = simulate_cisa(seq, ref, seed, "low")
        for k, s in zip(range(1, 51), spins):
            deviations.append(s.shifts["CA"] - ref.shifts[k]["CA"])
    assert len(deviations) == 10_000
    std = float(np.std(deviations))
    assert 0.076 <= std <= 0.084
    assert abs(float(np.mean(deviations))) < 0.003


def test_cisa_seed_determinism(toy_priors):
    seq = ProteinSequence("AGAGA")
    ref = sample_reference(seq, toy_priors, seed=9)
    a, _ = simulate_cisa(seq, ref, 9, "low")
    b, _ = simulate_cisa(seq, ref, 9, "low")
    assert a == b
    c, _ = simulate_cisa(seq, ref, 10, "low")
    assert a != c


def test_cisa_deletion_rate(toy_priors):
    seq = ProteinSequence("A" * 40)
    ref = sample_reference(seq, toy_priors, seed=8)
    spins, gt = simulate_cisa(seq, ref, 8, deletion_rate=0.5)
    assert 0 < len(spins) < 40
    emitted = {s.system_id for s in spins}
    assert emitted == {v for v in gt.residue_to_id.values() if v is not None}


def test_flya_zero_noise_exact_and_full_pattern(toy_priors, noiseless_flya):
    seq = ProteinSequence("AAA")
    ref = sample_reference(seq, toy_priors, seed=6)
    peaks, gt = simulate_flya(seq, ref, 6)
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
        assert p.coord("H") == pytest.approx(ref.shifts[k]["HN"], abs=0.0)
        assert p.coord("N") == pytest.approx(ref.shifts[k]["N"], abs=0.0)
        if role is None:
            assert p.coord("C") is None
        else:
            residue = k - 1 if role.endswith("_prev") else k
            assert p.coord("C") == pytest.approx(
                ref.shifts[residue][role.split("_")[0]], abs=0.0
            )


def test_flya_deletion_rate(toy_priors, noiseless_flya):
    """A deleted peak is absent from the peak list and from both ground-truth
    maps; the kept peaks are those of the full pattern, unchanged, and a
    fixed seed deletes the same peaks again."""
    seq = ProteinSequence("A" * 12)
    ref = sample_reference(seq, toy_priors, seed=9)
    full, _ = simulate_flya(seq, ref, 9)
    peaks, gt = simulate_flya(seq, ref, 9, deletion_rate=0.3)
    kept = {p.peak_id for p in peaks}
    deleted = {p.peak_id for p in full} - kept
    assert 0.15 < len(deleted) / len(full) < 0.45  # 37 of 148 peaks
    assert [p for p in full if p.peak_id in kept] == peaks
    assert set(gt.peak_origin) == kept
    assert {pid for pids in gt.residue_to_peaks.values() for pid in pids} == kept
    again = simulate_flya(seq, ref, 9, deletion_rate=0.3)
    assert again == (peaks, gt)


def test_flya_respects_chemistry(toy_priors, noiseless_flya):
    seq = ProteinSequence("GPA")
    ref = sample_reference(seq, toy_priors, seed=7)
    peaks, gt = simulate_flya(seq, ref, 7)
    # proline has no amide: no peaks at all
    assert gt.residue_to_peaks[2] == ()
    # glycine emits no CB peaks
    for pid in gt.residue_to_peaks[1]:
        assert gt.peak_origin[pid][1] not in ("CB", "CB_prev")


def test_flya_truncation_bounds(toy_priors):
    seq = ProteinSequence("A" * 20)
    for seed in range(5):
        ref = sample_reference(seq, toy_priors, seed)
        peaks, gt = simulate_flya(seq, ref, seed)
        for p in peaks:
            k, role = gt.peak_origin[p.peak_id]
            assert abs(p.coord("H") - ref.shifts[k]["HN"]) <= FLYA_BOUND["H"]
            assert abs(p.coord("N") - ref.shifts[k]["N"]) <= FLYA_BOUND["N"]
            if role is not None:
                residue = k - 1 if role.endswith("_prev") else k
                true = ref.shifts[residue][role.split("_")[0]]
                assert abs(p.coord("C") - true) <= FLYA_BOUND["C"]


def test_flya_noise_scale(toy_priors):
    """N-dimension deviations match the configured std within 5%."""
    seq = ProteinSequence("A" * 20)
    deviations = []
    for seed in range(10):
        ref = sample_reference(seq, toy_priors, seed)
        peaks, gt = simulate_flya(seq, ref, seed)
        for p in peaks:
            k, _ = gt.peak_origin[p.peak_id]
            deviations.append(p.coord("N") - ref.shifts[k]["N"])
    std = float(np.std(deviations))
    assert std == pytest.approx(FLYA_SIGMA["N"], rel=0.05)


def test_flya_seed_determinism(toy_priors):
    seq = ProteinSequence("AGA")
    ref = sample_reference(seq, toy_priors, seed=12)
    a, _ = simulate_flya(seq, ref, 12)
    b, _ = simulate_flya(seq, ref, 12)
    assert a == b


def test_reference_round_trip(tmp_path, toy_priors):
    ref = sample_reference(ProteinSequence("AGPA"), toy_priors, seed=1)
    path = tmp_path / "reference.json"
    shifts = {str(k): v for k, v in ref.shifts.items()}
    path.write_text(json.dumps({"sequence": "AGPA", "shifts": shifts}), encoding="utf-8")
    back = read_reference(path)
    assert back.sequence.residues == ref.sequence.residues
    assert back.shifts == ref.shifts


def test_ground_truth_round_trip(tmp_path, toy_priors):
    seq = ProteinSequence("AGA")
    ref = sample_reference(seq, toy_priors, seed=2)
    _, gt = simulate_flya(seq, ref, 2)
    path = tmp_path / "gt.json"
    write_ground_truth(gt, path)
    back = read_ground_truth(path)
    assert back == GroundTruth(
        gt.kind, gt.sequence, gt.residue_to_id, gt.residue_to_peaks,
        gt.peak_origin, gt.reference,
    )


#: sha256 of each file ``run_simulate`` writes but ``timings.json``, for
#: four runs on one 20-residue sequence with a sampled reference (see
#: ``test_simulated_files_are_pinned``)
PINNED_SIMULATIONS = {
    "cisa-low": {
        "spins.tsv": "3cc5a1a2b58ba9a95b8ab99b3f2cbd0a45168877f023a667bfdd61384ae8144d",
        "ground_truth.json": "47f6d1b169ab0bf6e27b733181bedd4cabb6d28ef4fd3974fea642c66f807ff9",
        "simulate_summary.json": "10564b1ce982fb49a3df946147cffa3c05e12368e9c95ebec04b32e8baed18be",
    },
    "cisa-high-deletion": {
        "spins.tsv": "04a9a81bbfc9574b78cf6aa966cbefdc8f1720e67c5e9ee23090e8cfef5fc847",
        "ground_truth.json": "d0b5e2bf7fb81f4363d48c181cda366bec6cb04f50cdd8fc69a3e4f2ab1c43c2",
        "simulate_summary.json": "f4f6c322ed1bf311d2c74d4e2c583540c518e3ed5cbd8f06041d7cd0784afc21",
    },
    "flya": {
        "peaks.tsv": "436eb894f3f7c23c33291f56952a600fed1b0029baba19371a9eda2ccbacd993",
        "ground_truth.json": "dae6794d05c4c132a5b38d0f70929aab13ca37b7dc40b7c4a0f7c25930895553",
        "simulate_summary.json": "2cd6d654eee339c0118c0f171ab8d5eea0fd732e967e28bdca74cfa6fb28d3cc",
    },
    "flya-deletion": {
        "peaks.tsv": "49600af9300060960655c48518dc64dfc7d152440d446476f08aacf00f8b774d",
        "ground_truth.json": "739aeb6877b2c1f46c7957ee3fe03194780799cbfe601253938ba054e202fcbe",
        "simulate_summary.json": "f632c98a6a7a1c8c84fb3ef4ae60e759e0c3c239c383ee3acdea21dd2977efd8",
    },
}


@pytest.mark.parametrize("run", sorted(PINNED_SIMULATIONS))
def test_simulated_files_are_pinned(tmp_path, run):
    """Every simulated file holds the same bytes as ever, so every random
    draw, of the reference and of the noise, keeps its stream and order."""
    protocol, options = {
        "cisa-low": ("cisa", {"noise": "low"}),
        "cisa-high-deletion": ("cisa", {"noise": "high", "deletion_rate": 0.2}),
        "flya": ("flya", {}),
        "flya-deletion": ("flya", {"deletion_rate": 0.2}),
    }[run]
    seq = ProteinSequence("ADKFLEGQRSTNVYWHMICP")
    run_simulate(tmp_path, protocol, seq, bundled_priors(), 7, **options)
    dataset = "spins.tsv" if protocol == "cisa" else "peaks.tsv"
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (dataset, "ground_truth.json", "simulate_summary.json")
    }
    assert digests == PINNED_SIMULATIONS[run]
