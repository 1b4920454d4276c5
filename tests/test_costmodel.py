import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrassign.costmodel import atom_cost, marginal_cost, moments, typing_threshold
from nmrassign.domain import NonPositiveSigmaError, Prior

from oracles import quadrature_atom_cost

# values frozen from the quadrature oracle before the main build
SINGLE_STANDARD_COST = 1.2655121234846454  # prior (0,1), one obs x=0, sigma 1
PAIR_COST = 5.5501949939575645  # prior (0,1), obs {-1, +1}, sigma 0.5
THRESHOLD_ONE = 6.315002807541962  # prior (0,1), o=1, sigma_l=0.1, delta=3
THRESHOLD_TWO = 13.361971274748853  # prior (0,1), o=2, sigma_l=0.1, delta=3


def test_no_observations_cost_zero():
    summary = atom_cost(Prior(5.0, 2.0), [])
    assert summary.cost == 0.0
    assert summary.log_z == 0.0
    assert summary.mean == 5.0 and summary.sigma == 2.0


def test_single_standard_observation_frozen():
    summary = atom_cost(Prior(0.0, 1.0), [(0.0, 1.0)])
    assert summary.cost == pytest.approx(SINGLE_STANDARD_COST, abs=1e-12)
    # analytic form of the same number
    assert summary.cost == pytest.approx(0.5 * math.log(4 * math.pi), abs=1e-12)
    # combined posterior: precision 2
    assert summary.sigma == pytest.approx(math.sqrt(0.5))
    assert summary.mean == pytest.approx(0.0)


def test_symmetric_pair_frozen():
    cost = atom_cost(Prior(0.0, 1.0), [(-1.0, 0.5), (1.0, 0.5)]).cost
    assert cost == pytest.approx(PAIR_COST, abs=1e-10)


def test_matches_quadrature_spot_checks():
    cases = [
        (0.0, 1.0, [(0.3, 0.7)]),
        (55.0, 2.0, [(54.2, 0.1), (55.9, 0.2), (55.1, 0.15)]),
        (-3.0, 0.5, [(-2.0, 0.05)] * 4),
    ]
    for mu, sigma, obs in cases:
        assert atom_cost(Prior(mu, sigma), obs).cost == pytest.approx(
            quadrature_atom_cost(mu, sigma, obs), abs=1e-8
        )


def test_non_positive_sigma_rejected():
    with pytest.raises(NonPositiveSigmaError):
        atom_cost(Prior(0.0, 1.0), [(0.0, 0.0)])
    with pytest.raises(NonPositiveSigmaError):
        atom_cost(Prior(0.0, 1.0), [(0.0, -1.0)])


@given(
    mu=st.floats(-10, 10),
    sigma=st.floats(0.01, 5),
    x=st.floats(-20, 20),
    s=st.floats(0.01, 5),
)
@settings(max_examples=50, deadline=None)
def test_single_obs_monotone_in_distance(mu, sigma, x, s):
    """The single-observation marginal is N(mu, sigma^2 + s^2)."""
    near = atom_cost(Prior(mu, sigma), [(mu + abs(x - mu) * 0.5, s)]).cost
    far = atom_cost(Prior(mu, sigma), [(mu + abs(x - mu) * 0.5 + 1.0, s)]).cost
    assert far > near


@given(
    data=st.lists(
        st.tuples(st.floats(-20, 20), st.floats(0.01, 5)), min_size=2, max_size=5
    )
)
@settings(max_examples=50, deadline=None)
def test_permutation_invariance(data):
    prior = Prior(1.0, 2.0)
    forward = atom_cost(prior, data).cost
    backward = atom_cost(prior, list(reversed(data))).cost
    # summation order may differ in the last few bits
    assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)


@given(
    center=st.sampled_from([0.0, 55.0, 175.0]),
    offsets=st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(0.01, 0.5)), min_size=1, max_size=6
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_merged_moments_match_atom_cost(center, offsets, data):
    """Moments of any split of the observations, in any order, merge to the
    cost of the whole list; tight shifts near 175 ppm are where a raw-moment
    form would cancel."""
    prior = Prior(center + 0.3, 1.5)
    obs = [(center + dx, sigma) for dx, sigma in offsets]
    shuffled = [obs[i] for i in data.draw(st.permutations(range(len(obs))))]
    cut = data.draw(st.integers(0, len(obs)))
    pooled = moments(shuffled[:cut]).merge(moments(shuffled[cut:]))
    got = float(marginal_cost(moments([(prior.mean, prior.std)]).merge(pooled)))
    assert got == pytest.approx(atom_cost(prior, obs).cost, rel=1e-9, abs=1e-9)
    assert got == pytest.approx(quadrature_atom_cost(prior.mean, prior.std, obs), abs=1e-8)


@given(d=st.floats(0.01, 5), m=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_consistency_reward(d, m):
    prior = Prior(0.0, 1.0)
    together = atom_cost(prior, [(m, 0.3), (m, 0.3)]).cost
    apart = atom_cost(prior, [(m - d, 0.3), (m + d, 0.3)]).cost
    assert together <= apart


def test_typing_threshold_zero_observations():
    assert typing_threshold(Prior(0.0, 1.0), 0, [], 3.0) == 0.0


def test_typing_threshold_adversarial_points():
    prior = Prior(0.0, 1.0)
    # one observation: w = mu + delta*sigma_a + delta*sigma_l = 3.3
    t1 = typing_threshold(prior, 1, [0.1], 3.0)
    assert t1 == pytest.approx(THRESHOLD_ONE, abs=1e-10)
    assert t1 == pytest.approx(atom_cost(prior, [(3.3, 0.1)]).cost, rel=1e-12)
    # two observations: w = {3.3, 2.7}
    t2 = typing_threshold(prior, 2, [0.1, 0.1], 3.0)
    assert t2 == pytest.approx(THRESHOLD_TWO, abs=1e-10)
    assert t2 == pytest.approx(
        atom_cost(prior, [(3.3, 0.1), (2.7, 0.1)]).cost, rel=1e-12
    )


def test_typing_threshold_validation():
    with pytest.raises(ValueError):
        typing_threshold(Prior(0.0, 1.0), 2, [0.1], 3.0)
    with pytest.raises(ValueError):
        typing_threshold(Prior(0.0, 1.0), -1, [], 3.0)


def test_quadrature_agreement_random_sample():
    """Smaller companion to the acceptance sweep."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu = float(rng.uniform(-10, 10))
        sigma = float(rng.uniform(0.01, 5))
        o = int(rng.integers(1, 7))
        obs = [
            (float(rng.uniform(mu - 3 * sigma, mu + 3 * sigma)), float(rng.uniform(0.01, 5)))
            for _ in range(o)
        ]
        assert atom_cost(Prior(mu, sigma), obs).cost == pytest.approx(
            quadrature_atom_cost(mu, sigma, obs), abs=1e-8
        )
