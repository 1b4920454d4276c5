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
``typing_thresholds`` prices every atom typing threshold of a build, for
every residue type, in one batch. Everything is computed in log space; the
scale factor underflows quickly for several tight observations.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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


def _slots(cells: np.ndarray) -> np.ndarray:
    """Each observation's slot: its position in its cell's contiguous run."""
    runs = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    return np.arange(len(cells)) - np.repeat(runs, np.diff(np.r_[runs, len(cells)]))


def merged(size: int, cells: np.ndarray, values: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """``Moments`` of ``size`` cells of observations: observation e lies in
    cell ``cells[e]``, each cell's observations contiguous and in the order
    they merge. Returns the fields stacked as (field, cell), 0 for a cell
    without any. Each cell merges its observations one slot at a time, for
    every cell at once, starting from no observations."""
    # the observations slot by slot, each slot's a contiguous run
    slots = _slots(cells)
    order = np.argsort(slots, kind="stable")
    bounds = np.searchsorted(slots[order], np.arange(int(slots.max(initial=-1)) + 2)).tolist()
    cells, values, var = cells[order], values[order], np.square(sigmas)[order]
    # math.log, once per distinct variance (np.log can round differently)
    distinct, inverse = np.unique(var, return_inverse=True)
    log_var = np.array([math.log(v) for v in distinct.tolist()])[inverse]
    stats = np.zeros((len(Moments._fields), size))
    for a, b in zip(bounds, bounds[1:]):
        into = cells[a:b]
        one = Moments(np.ones(b - a), 1.0 / var[a:b], values[a:b], np.zeros(b - a), log_var[a:b])
        stats[:, into] = Moments(*stats[:, into]).merge(one)
    return stats


def marginal_cost(post: Moments) -> np.ndarray:
    """Negative log marginal density from the prior merged with the
    observations; 0 where nothing beyond the prior is observed."""
    cost = 0.5 * (
        (post.count - 1.0) * _LOG_2PI + np.log(post.weight) + post.log_var + post.m2
    )
    return np.where(post.count > 1.0, cost, 0.0)


def typing_thresholds(
    means: np.ndarray, stds: np.ndarray, cells: np.ndarray, sigmas: np.ndarray, delta: float
) -> np.ndarray:
    """The atom typing threshold of each of ``len(means)`` cells, all at
    once: the maximum plausible cost of an atom with the Gaussian prior
    (``means[c]``, ``stds[c]``), that of an adversarial realization whose
    observations sit about ``delta`` prior standard deviations from the
    prior mean, alternating ``delta`` experimental standard deviations to
    either side. Observation e lies in cell ``cells[e]`` with sigma
    ``sigmas[e]``, each cell's contiguous and in slot order. A cell whose
    mean is NaN, an atom the residue lacks, gets 0."""
    lacks = np.isnan(means)
    means, stds = np.where(lacks, 0.0, means), np.where(lacks, 1.0, stds)
    cells = np.asarray(cells, dtype=np.int64)
    sign = np.where(_slots(cells) % 2, -delta, delta)
    prior = merged(len(means), np.arange(len(means)), means, stds)
    observed = merged(len(means), cells, (means + delta * stds)[cells] + sign * sigmas, sigmas)
    return np.where(lacks, 0.0, marginal_cost(Moments(*prior).merge(Moments(*observed))))
