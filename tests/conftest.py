import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nmrassign.domain import Prior, PriorTable, ProteinSequence, Tolerances, read_peaks
from nmrassign.pipeline import bundled_priors, run_simulate


@pytest.fixture
def toy_priors() -> PriorTable:
    """Two residue types with well-separated carbon statistics."""
    atoms = {
        "A": {
            "N": Prior(123.0, 3.5),
            "HN": Prior(8.2, 0.6),
            "CA": Prior(53.0, 2.0),
            "CB": Prior(19.0, 1.8),
            "CO": Prior(177.7, 2.0),
        },
        "G": {
            "N": Prior(109.7, 3.9),
            "HN": Prior(8.3, 0.6),
            "CA": Prior(45.4, 1.3),
            "CB": None,
            "CO": Prior(174.0, 1.8),
        },
        "P": {
            "N": None,
            "HN": None,
            "CA": Prior(63.3, 1.6),
            "CB": Prior(31.8, 1.2),
            "CO": Prior(176.7, 1.5),
        },
    }
    noise = {
        "hsqc": {"H": 0.0075, "N": 0.1, "C": 0.1},
        "hncacb": {"H": 0.0075, "N": 0.1, "C": 0.1},
        "hncocacb": {"H": 0.0075, "N": 0.1, "C": 0.1},
        "hnco": {"H": 0.0075, "N": 0.1, "C": 0.1},
        "spins": {"H": 0.01, "N": 0.05, "CA": 0.08, "CB": 0.16, "C": 0.1},
    }
    return PriorTable(atoms, noise)


@pytest.fixture
def default_tol() -> Tolerances:
    return Tolerances()


@pytest.fixture(scope="session")
def random_peak_list(tmp_path_factory):
    """``random_peak_list(n, seed)``: the random peak list "random-n seed
    s" as (sequence, peaks). The sequence is n residues drawn with
    ``np.random.default_rng(seed)``, its peaks simulated under the flya
    protocol with the bundled priors and the same seed; each list is
    simulated once per session. With tolerances 0.08/0.8/0.8 their
    components hold several maximal cliques."""
    made = {}

    def make(n, seed):
        if (n, seed) not in made:
            residues = np.random.default_rng(seed).choice(list("ACDEFGHIKLMNQRSTVWY"), n)
            seq = ProteinSequence("".join(residues))
            out = tmp_path_factory.mktemp(f"random-{n}-{seed}")
            run_simulate(out, "flya", seq, bundled_priors(), seed)
            made[n, seed] = seq, read_peaks(out / "peaks.tsv")
        return made[n, seed]

    return make
