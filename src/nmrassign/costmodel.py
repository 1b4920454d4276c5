"""Gaussian generative cost model.

The cost of an atom is the negative log of the marginal density of its
observations under a Gaussian prior on the true frequency and independent
Gaussian observation noise. The marginal has a closed form: the product of
the prior density and the per-observation densities (each read as a density
in the latent frequency) is a scaled Gaussian, and integrating out the
latent frequency leaves the scale factor.

Everything is computed in log space; the scale factor underflows quickly
for several tight observations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .domain import NonPositiveSigmaError, Prior

_LOG_2PI = math.log(2.0 * math.pi)

#: (value, sigma) pair
ObsPair = tuple[float, float]


@dataclass(frozen=True)
class GaussianPosteriorSummary:
    """Combined Gaussian (sigma, mean) and the log scale factor."""

    sigma: float
    mean: float
    log_z: float

    @property
    def cost(self) -> float:
        return -self.log_z

    @property
    def z(self) -> float:
        return math.exp(self.log_z)


def atom_cost(prior: Prior, observations: Sequence[ObsPair]) -> GaussianPosteriorSummary:
    """Closed-form atom cost for a Gaussian prior and noisy observations.

    With no observations the marginal is the empty product, so the cost is 0.
    """
    mu_a, sigma_a = prior.mean, prior.std
    if not sigma_a > 0:
        raise NonPositiveSigmaError(f"prior std must be positive, got {sigma_a}")
    if not observations:
        return GaussianPosteriorSummary(sigma=sigma_a, mean=mu_a, log_z=0.0)

    precision = 1.0 / (sigma_a * sigma_a)
    weighted = mu_a * precision
    log_sigma_prod = math.log(sigma_a * sigma_a)
    for x, sigma_l in observations:
        if not sigma_l > 0:
            raise NonPositiveSigmaError(f"observation sigma must be positive, got {sigma_l}")
        p = 1.0 / (sigma_l * sigma_l)
        precision += p
        weighted += x * p
        log_sigma_prod += math.log(sigma_l * sigma_l)

    var_c = 1.0 / precision
    mean_c = weighted * var_c
    # quadratic term as weighted squared deviations from the combined mean;
    # the raw-moment form cancels catastrophically for large shift values
    quad = (mu_a - mean_c) ** 2 / (sigma_a * sigma_a)
    for x, sigma_l in observations:
        quad += (x - mean_c) ** 2 / (sigma_l * sigma_l)
    o_a = len(observations)
    log_z = (
        -0.5 * o_a * _LOG_2PI
        + 0.5 * (math.log(var_c) - log_sigma_prod)
        - 0.5 * quad
    )
    return GaussianPosteriorSummary(sigma=math.sqrt(var_c), mean=mean_c, log_z=log_z)


def typing_threshold(
    prior: Prior, o_a: int, noises: Sequence[float], delta: float
) -> float:
    """Maximum plausible atom cost: the cost of an adversarial realization.

    The adversarial observations sit about ``delta`` prior standard
    deviations from the prior mean, alternating ``delta`` experimental
    standard deviations to either side.
    """
    if o_a < 0:
        raise ValueError("o_a must be non-negative")
    if o_a == 0:
        return 0.0
    if len(noises) != o_a:
        raise ValueError(f"expected {o_a} noise values, got {len(noises)}")
    observations = [
        (prior.mean + delta * prior.std + (-1) ** l * delta * sigma_l, sigma_l)
        for l, sigma_l in enumerate(noises)
    ]
    return atom_cost(prior, observations).cost
