"""Gaussian generative cost model.

The cost of an atom is the negative log of the marginal density of its
observations under a Gaussian prior on the true frequency and independent
Gaussian observation noise. The marginal has a closed form: the product of
the prior density and the per-observation densities (each read as a density
in the latent frequency) is a scaled Gaussian, and integrating out the
latent frequency leaves the scale factor, which reads only the additive
``Moments`` of the observations with the prior counted as one more. Moments
merge pairwise, so arrays of them price many unions of observation sets at
once: ``merged`` summarises many cells of observations in one pass, and
``typing_thresholds`` prices every atom typing threshold of a build in one
batch. Everything is computed in log space; the scale factor underflows
quickly for several tight observations.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .domain import PriorTable

_LOG_2PI = math.log(2.0 * math.pi)


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


def merged(size: int, cells: np.ndarray, values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``Moments`` of ``size`` cells of observations: observation e lies in
    cell ``cells[e]``, each cell's observations contiguous and in the order
    they merge. Returns the fields stacked as (field, cell), 0 for a cell
    without any. Each cell merges its observations one slot at a time, for
    every cell at once, starting from no observations."""
    runs = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    slots = np.arange(len(cells)) - np.repeat(runs, np.diff(np.r_[runs, len(cells)]))
    var = np.square(sigmas)
    # math.log, once per distinct variance (np.log can round differently)
    distinct, inverse = np.unique(var, return_inverse=True)
    log_var = np.array([math.log(v) for v in distinct.tolist()])[inverse]
    stats = np.zeros((len(Moments._fields), size))
    for s in range(int(slots.max(initial=-1)) + 1):
        at = slots == s
        into = cells[at]
        one = Moments(np.ones(len(into)), 1.0 / var[at], values[at], np.zeros(len(into)), log_var[at])
        stats[:, into] = Moments(*stats[:, into]).merge(one)
    return stats


def marginal_cost(post: Moments) -> np.ndarray:
    """Negative log marginal density from the prior merged with the
    observations; 0 where nothing beyond the prior is observed."""
    cost = 0.5 * (
        (post.count - 1.0) * _LOG_2PI + np.log(post.weight) + post.log_var + post.m2
    )
    return np.where(post.count > 1.0, cost, 0.0)


#: (residue type, role, sigmas) -> that atom's typing threshold, 0 when absent
ThresholdMemo = dict[tuple[str, str, tuple[float, ...]], float]


def typing_thresholds(
    keys: Iterable[tuple[str, str, tuple[float, ...]]], priors: PriorTable, delta: float
) -> ThresholdMemo:
    """Each (residue type, role, sigmas) key's atom typing threshold, for
    every key at once: the maximum plausible atom cost, that of an
    adversarial realization whose observations sit about ``delta`` prior
    standard deviations from the prior mean, alternating ``delta``
    experimental standard deviations (the key's sigmas) to either side.
    Each key's adversarial observations merge slot by slot, then into the
    prior. An atom the residue lacks gets 0."""
    memo = dict.fromkeys(keys, 0.0)
    present = [(key, prior) for key in memo if (prior := priors.prior(key[0], key[1])) is not None]
    cells = np.arange(len(present))  # one per present key
    means = np.array([p.mean for _, p in present])
    stds = np.array([p.std for _, p in present])
    prior_moments = merged(len(present), cells, means, stds)
    observed = merged(
        len(present),
        np.repeat(cells, [len(sigmas) for (_, _, sigmas), _ in present]),
        np.array([
            p.mean + delta * p.std + (-1) ** l * delta * s
            for (_, _, sigmas), p in present
            for l, s in enumerate(sigmas)
        ]),
        np.array([s for (_, _, sigmas), _ in present for s in sigmas]),
    )
    cost = marginal_cost(Moments(*prior_moments).merge(Moments(*observed)))
    memo.update(zip((key for key, _ in present), cost.tolist()))
    return memo
