"""Gaussian generative cost model.

The cost of an atom is the negative log of the marginal density of its
observations under a Gaussian prior on the true frequency and independent
Gaussian observation noise. The marginal has a closed form: the product of
the prior density and the per-observation densities (each read as a density
in the latent frequency) is a scaled Gaussian, and integrating out the
latent frequency leaves the scale factor, which reads only the additive
``Moments`` of the observations with the prior counted as one more. Moments
merge pairwise, so arrays of them price many unions of observation sets at
once. Everything is computed in log space; the scale factor underflows
quickly for several tight observations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .domain import NonPositiveSigmaError, Prior

_LOG_2PI = math.log(2.0 * math.pi)

#: (value, sigma) pair
ObsPair = tuple[float, float]


class Moments(NamedTuple):
    """Additive summary of Gaussian observations: their count, the sum of
    their precisions 1/sigma^2, the precision-weighted mean (0 without
    observations), the weighted squared deviations from that mean, and the
    sum of log sigma^2. Fields are floats or arrays, all of one shape."""

    count: float
    weight: float
    mean: float
    m2: float
    log_var: float

    def merge(self, other: Moments) -> Moments:
        """Moments of the union by Chan, Golub & LeVeque's pairwise update,
        which does not cancel for shifts far from 0; needs a weight > 0."""
        weight = self.weight + other.weight
        delta = other.mean - self.mean
        share = other.weight / weight
        return Moments(
            self.count + other.count,
            weight,
            self.mean + delta * share,
            self.m2 + other.m2 + delta * delta * self.weight * share,
            self.log_var + other.log_var,
        )


def moments(observations: Iterable[ObsPair]) -> Moments:
    """Moments of (value, sigma) observations."""
    out = Moments(0.0, 0.0, 0.0, 0.0, 0.0)
    for x, sigma in observations:
        if not sigma > 0:
            raise NonPositiveSigmaError(f"observation sigma must be positive, got {sigma}")
        var = sigma * sigma
        out = out.merge(Moments(1.0, 1.0 / var, x, 0.0, math.log(var)))
    return out


def marginal_cost(post: Moments) -> np.ndarray:
    """Negative log marginal density from the prior merged with the
    observations; 0 where nothing beyond the prior is observed."""
    cost = 0.5 * (
        (post.count - 1.0) * _LOG_2PI + np.log(post.weight) + post.log_var + post.m2
    )
    return np.where(post.count > 1.0, cost, 0.0)


@dataclass(frozen=True)
class GaussianPosteriorSummary:
    """Combined Gaussian (sigma, mean) and the log scale factor."""

    sigma: float
    mean: float
    log_z: float

    @property
    def cost(self) -> float:
        return -self.log_z


def atom_cost(prior: Prior, observations: Sequence[ObsPair]) -> GaussianPosteriorSummary:
    """Closed-form atom cost for a Gaussian prior and noisy observations.

    With no observations the marginal is the empty product, so the cost is 0.
    """
    post = moments([(prior.mean, prior.std)]).merge(moments(observations))
    return GaussianPosteriorSummary(
        sigma=math.sqrt(1.0 / post.weight),
        mean=post.mean,
        log_z=-float(marginal_cost(post)),
    )


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
