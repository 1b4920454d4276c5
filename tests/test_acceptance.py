"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Each test states its tolerance and runtime budget and checks both. The
slower end-to-end criteria run the real pipeline on the bundled synthetic
references.
"""
import json
import time

import numpy as np
import pytest

from nmrassign.cli import main as cli_main
from nmrassign.costmodel import atom_cost
from nmrassign.domain import Prior, PriorTable, Tolerances
from nmrassign.evaluate import atom_correctness, read_assignment
from nmrassign.experiments import BASIC_SET, expected_pattern
from nmrassign.grouping import build_compatibility_graph, enumerate_groupings
from nmrassign.lp import (
    extract_path,
    formulate,
    is_integral,
    round_and_resolve,
    solve_lian1,
    solve_lian2,
    solve_lp,
)
from nmrassign.pipeline import (
    bundled_priors,
    bundled_reference,
    run_assign,
    run_evaluate,
    run_simulate,
)
from nmrassign.shortest_path import dp_shortest_path, exhaustive_constrained
from nmrassign.simulate import read_ground_truth

from oracles import (
    brute_constrained,
    brute_force_groupings,
    brute_penalized,
    conflict_fixture,
    path_cost,
    quadrature_atom_cost,
    random_instance,
)
from test_grouping import _peak


def test_criterion_1_cost_model_matches_quadrature():
    """Closed-form atom cost vs numerical integration: 1e-8 over 1000 draws, < 10 s."""
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for _ in range(1000):
        mu_a = float(rng.uniform(0.0, 180.0))
        sigma_a = float(rng.uniform(0.1, 5.0))
        o = int(rng.integers(1, 5))
        # observations scatter around one latent true shift, as in the model
        mu = mu_a + sigma_a * float(rng.normal())
        obs = []
        for _ in range(o):
            sigma_l = float(rng.uniform(0.01, 0.5))
            obs.append((mu + sigma_l * float(rng.normal()), sigma_l))
        want = quadrature_atom_cost(mu_a, sigma_a, obs)
        got = atom_cost(Prior(mu_a, sigma_a), obs).cost
        assert got == pytest.approx(want, abs=1e-8)
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_flow_polytope_integrality():
    """100 random graphs (n <= 20, g <= 10): flow LP integral and equal to DP, < 30 s."""
    rng = np.random.default_rng(77)
    tol = Tolerances()
    t0 = time.monotonic()
    for _ in range(100):
        g = random_instance(rng, int(rng.integers(1, 21)), 10, 30)
        lp = formulate(g, "flow", tol)
        sol = solve_lp(lp)
        assert sol.ok
        assert is_integral(lp, sol)
        assert path_cost(g, extract_path(g, lp, sol)) == pytest.approx(
            dp_shortest_path(g).total_cost, abs=1e-6
        )
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_exact_rounding_equivalence():
    """30 conflicted random instances (n <= 6, g <= 4, m2 <= 15): rounding is exact, < 60 s."""
    rng = np.random.default_rng(4242)
    tol = Tolerances()
    t0 = time.monotonic()
    checked = 0
    while checked < 30:
        g = random_instance(rng, int(rng.integers(2, 7)), 4, int(rng.integers(2, 16)))
        lp = formulate(g, "lian1", tol)
        if not lp.utilization:
            continue  # no induced peak conflicts
        want = brute_constrained(g)
        if want is None:
            continue
        relaxed = solve_lp(lp)
        assert relaxed.ok
        if is_integral(lp, relaxed):
            got = path_cost(g, extract_path(g, lp, relaxed))
        else:
            result = round_and_resolve(g, lp, relaxed)
            assert result.solution is not None and result.proven_optimal
            got = path_cost(g, extract_path(g, lp, result.solution))
        assert got == want
        checked += 1
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_soft_penalty_semantics():
    """Conflict fixture: lambda 5 buys one reuse at objective 5; lambda 100 forbids it."""
    g = conflict_fixture()
    small = solve_lian2(g, Tolerances(lam=5.0))
    assert small.objective == 5.0
    assert small.objective == brute_penalized(g, 5.0)
    assert small.reused_peaks == {"p1": 2}
    large = solve_lian2(g, Tolerances(lam=100.0))
    assert large.objective == 10.0
    assert large.objective == brute_penalized(g, 100.0)
    assert large.reused_peaks == {}


def _cisa_run(tmp_path, seed, noise, assign_priors, tol, ref):
    d = tmp_path / f"{noise}_{seed}"
    run_simulate(d, "cisa", ref.sequence, bundled_priors(), seed, noise=noise, reference=ref)
    run_assign(d, d / "spins.tsv", ref.sequence, assign_priors, tol, variant="lian1")
    return run_evaluate(d, d / "assignment.json", d / "ground_truth.json")


def test_criterion_5_spin_system_accuracy(tmp_path):
    """60-residue protein, 20 runs each: mean P/R >= 0.90 low noise, >= 0.80 high, < 10 min."""
    ref = bundled_reference("ref60")
    priors = bundled_priors()
    t0 = time.monotonic()

    low = [
        _cisa_run(tmp_path, seed, "low", priors, Tolerances(delta3=0.7), ref)
        for seed in range(20)
    ]
    assert float(np.mean([p for p, _ in low])) >= 0.90
    assert float(np.mean([r for _, r in low])) >= 0.90

    # at high noise, widen the carbon window and the observation sigmas to match
    noise = {k: dict(v) for k, v in priors.noise.items()}
    noise["spins"]["CA"] = 0.16
    noise["spins"]["CB"] = 0.32
    wide = PriorTable(priors.atoms, noise)
    high = [
        _cisa_run(tmp_path, seed, "high", wide, Tolerances(delta3=1.4), ref)
        for seed in range(20)
    ]
    assert float(np.mean([p for p, _ in high])) >= 0.80
    assert float(np.mean([r for _, r in high])) >= 0.80
    assert time.monotonic() - t0 < 600.0


def test_criterion_6_peak_list_pipeline(tmp_path):
    """40-residue protein, 7 experiments, 5 runs: atom correctness >= 0.85, < 15 min."""
    ref = bundled_reference("ref40")
    priors = bundled_priors()
    tol = Tolerances(delta1=0.08, delta2=0.8, delta3=0.8)
    t0 = time.monotonic()
    fractions = []
    for seed in range(5):
        d = tmp_path / f"flya_{seed}"
        run_simulate(d, "flya", ref.sequence, priors, seed, reference=ref)
        run_assign(d, d / "peaks.tsv", ref.sequence, priors, tol, variant="lian1", top_k=20)
        # the Lagrangian stage proves every one of these answers without an LP
        report = json.loads((d / "lp_report.json").read_text(encoding="utf-8"))
        assert report["proved_by"] == "lagrangian", seed
        assignment = read_assignment(d / "assignment.json")
        gt = read_ground_truth(d / "ground_truth.json")
        fraction, _, _ = atom_correctness(assignment, gt)
        fractions.append(fraction)
    assert float(np.mean(fractions)) >= 0.85
    assert time.monotonic() - t0 < 900.0


def test_criterion_7_grouping_completeness(toy_priors):
    """20 random <= 12-peak instances: unbounded enumeration equals subset brute force, < 30 s."""
    rng = np.random.default_rng(909)
    tol = Tolerances()
    pattern = dict(expected_pattern(BASIC_SET), hnco=1)
    spectra = ["hsqc", "hncacb", "hncacb", "hncocacb", "hnco"]
    t0 = time.monotonic()
    for trial in range(20):
        n_peaks = int(rng.integers(4, 13))
        centers = [(8.0, 120.0), (8.02, 120.2), (8.1, 121.0)]
        peaks = []
        for i in range(n_peaks):
            h0, n0 = centers[int(rng.integers(0, len(centers)))]
            spectrum = spectra[int(rng.integers(0, len(spectra)))]
            c = float(rng.uniform(20.0, 60.0)) if spectrum != "hsqc" else None
            phase = int(rng.choice([-1, 0, 1])) if spectrum == "hncacb" else 0
            peaks.append(
                _peak(
                    f"t{trial}_p{i}",
                    spectrum,
                    h0 + float(rng.uniform(-0.03, 0.03)),
                    n0 + float(rng.uniform(-0.3, 0.3)),
                    c,
                    phase,
                )
            )
        compat = build_compatibility_graph(peaks, tol)
        emitted = enumerate_groupings(compat, pattern, None, toy_priors, tol)
        got = {frozenset(emitted.member_ids(r)) for r in range(len(emitted))}
        want = brute_force_groupings(peaks, pattern, tol)
        assert got == want
    assert time.monotonic() - t0 < 30.0


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """simulate+assign+evaluate twice with one seed: byte-identical non-timing outputs."""
    seq = "ADKFLEGQRSTNVYWHMICPADKFLEGQRS"
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert cli_main([
            "simulate", "--sequence", seq, "--protocol", "cisa",
            "--seed", "42", "--out", str(out),
        ]) == 0
        assert cli_main([
            "assign", "--sequence", seq, "--dataset", str(out / "spins.tsv"),
            "--delta3", "0.7", "--out", str(out),
        ]) == 0
        assert cli_main([
            "evaluate", "--assignment", str(out / "assignment.json"),
            "--ground-truth", str(out / "ground_truth.json"), "--out", str(out),
        ]) == 0
        outputs.append(out)
    capsys.readouterr()
    first, second = outputs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    compared = 0
    for name in names:
        if name == "timings.json":
            continue
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
        compared += 1
    assert compared >= 7


def test_criterion_9_no_experimental_benchmark_dependency():
    """No experimental benchmark data is bundled or depended on.

    The bundled data is limited to the prior table and the two synthetic
    reference proteins; every accuracy criterion above runs on simulated
    data only. Experimental benchmark datasets are not freely available, so
    nothing in this suite reproduces results that require them.
    """
    from importlib import resources

    bundled = sorted(
        p.name
        for p in resources.files("nmrassign.data").iterdir()
        if p.name.endswith(".json")
    )
    assert bundled == ["priors.json", "ref40.json", "ref60.json"]
